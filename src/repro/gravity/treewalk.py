"""Group-centric Barnes-Hut tree walk with on-the-fly evaluation.

Reproduces Bonsai's fused tree-walk + force kernel (Sec. III-A): the walk
proceeds once per particle *group* (warp), testing the MAC between the
group's tight AABB and each cell's COM / opening radius.  Accepted cells
become particle-cell (p-c) interactions shared by the whole group; leaf
cells that fail the MAC become particle-particle (p-p) interactions.
Interaction lists are never materialised in full: pairs are evaluated in
bounded blocks, mirroring the register-resident evaluation the paper
credits for its single-GPU efficiency.

The same machinery walks *remote* LET trees (Sec. III-B2): the walk is
parameterised by an arbitrary source tree, so the distributed code feeds
each received LET through this function and sums the partial forces.
:mod:`repro.gravity.forest` batches many remote structures into a single
walk over a concatenated cell forest.

Evaluation is group-blocked, as in Bonsai's force kernel: a group
loads its interaction list once and every target of the group reuses
it.  Pairs are ordered by (group size, group); each evaluation chunk is
one ``(w, P)`` block of ``w`` target slots against ``P`` source columns
-- accepted cells for p-c, the bodies of opened leaves for p-p.  Source
operands are gathered once per column and target coordinates once per
group, the in-place kernels of :mod:`repro.gravity.kernels` broadcast
the former down the block, and one ``np.add.reduceat`` per output
component sums each group's columns.  All scratch lives in a
preallocated :class:`KernelWorkspace`, so steady state allocates no
block-sized memory.  Interaction *counts* are a property of the walk's
pair lists, which evaluation never touches; the serial driver, the
local walk and every LET share this one float64 code path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..octree import Octree, compute_opening_radii
from ..octree.properties import aabb_distance
from .flops import InteractionCounts
from .kernels import pc_interactions_ws, pp_interactions_ws

#: Block elements (target slot x source column) per evaluation chunk.
#: Sized so the workspace blocks a chunk touches stay cache-resident.
DEFAULT_CHUNK = 1 << 15


@dataclasses.dataclass
class TreeWalkResult:
    """Output of a tree-walk force computation.

    ``acc``/``phi`` are indexed by the *original* particle order of the
    target set.  ``counts`` tallies p-p and p-c interactions exactly as
    Table II reports them.
    """

    acc: np.ndarray
    phi: np.ndarray
    counts: InteractionCounts
    n_groups: int = 0
    max_frontier: int = 0


class KernelWorkspace:
    """Preallocated scratch arena for the group-blocked evaluators.

    Capacity ``chunk`` counts block elements.  The arena holds twelve
    float64 blocks (three separations plus the p-c kernel's nine scratch
    blocks), eleven float64 per-column rows (cell COM, mass, six
    quadrupole terms and tr Q; the p-p evaluator reuses the first four
    for body position and mass), four int64 per-column index buffers
    with a persistent arange, and a bool mask.  A ``(w, P)`` block is a
    reshaped view of a flat buffer, so one arena serves every block
    shape.  ``ensure`` grows the arena when a chunk overshoots the
    capacity (a group wider than ``chunk``, or a p-p chunk's last leaf)
    and is a no-op afterwards.
    """

    _BLOCKS = ("dx", "dy", "dz", "r2", "tmp", "qrx", "qry", "qrz", "rqr",
               "rinv2", "rinv3", "rinv5")
    _ROWS = ("cx", "cy", "cz", "m", "q0", "q1", "q2", "q3", "q4", "q5",
             "trq")
    _INDEX = ("rid", "i1", "i2", "i3")

    def __init__(self, chunk: int = DEFAULT_CHUNK):
        self.chunk = 0
        self.ensure(int(chunk))

    def ensure(self, chunk: int) -> "KernelWorkspace":
        """Grow the arena to hold ``chunk`` block elements."""
        if chunk <= self.chunk:
            return self
        self.chunk = int(chunk)
        for name in self._BLOCKS + self._ROWS:
            setattr(self, name, np.empty(self.chunk, dtype=np.float64))
        for name in self._INDEX:
            setattr(self, name, np.empty(self.chunk, dtype=np.int64))
        self.arange = np.arange(self.chunk, dtype=np.int64)
        self.bmask = np.empty(self.chunk, dtype=bool)
        return self

    def block(self, name: str, w: int, p: int) -> np.ndarray:
        """A ``(w, p)`` view of the flat buffer ``name``."""
        return getattr(self, name)[:w * p].reshape(w, p)

    @property
    def nbytes(self) -> int:
        """Total arena size (for memory accounting)."""
        n_float = len(self._BLOCKS) + len(self._ROWS)
        n_int = len(self._INDEX) + 1                    # + arange
        return self.chunk * (8 * (n_float + n_int) + 1)


class SourceView:
    """Contiguous column view of a source structure for fast gathers.

    ``np.take`` on a contiguous 1-D array is the fastest gather numpy
    offers; the tree/LET arrays are (n, 3) and (n, 6) row-major, so the
    per-column copies here pay for themselves after the first chunk.
    Built once per source (or once per forest) and shared by both
    evaluators.
    """

    __slots__ = ("com_x", "com_y", "com_z", "mass", "quad",
                 "body_first", "body_count", "sx", "sy", "sz", "smass")

    @classmethod
    def build(cls, source, spos: np.ndarray | None = None,
              smass: np.ndarray | None = None) -> "SourceView":
        v = cls()
        com = source.com
        v.com_x = np.ascontiguousarray(com[:, 0])
        v.com_y = np.ascontiguousarray(com[:, 1])
        v.com_z = np.ascontiguousarray(com[:, 2])
        v.mass = np.ascontiguousarray(source.mass)
        q = getattr(source, "quad", None)
        v.quad = tuple(np.ascontiguousarray(q[:, k]) for k in range(6)) \
            if q is not None else None
        v.body_first = np.asarray(source.body_first, dtype=np.int64)
        v.body_count = np.asarray(source.body_count, dtype=np.int64)
        if spos is not None:
            v.sx = np.ascontiguousarray(spos[:, 0])
            v.sy = np.ascontiguousarray(spos[:, 1])
            v.sz = np.ascontiguousarray(spos[:, 2])
            v.smass = np.ascontiguousarray(smass)
        else:
            v.sx = v.sy = v.sz = v.smass = None
        return v


def target_columns(tpos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous per-axis columns of the (sorted) target positions."""
    return (np.ascontiguousarray(tpos[:, 0]),
            np.ascontiguousarray(tpos[:, 1]),
            np.ascontiguousarray(tpos[:, 2]))


def group_aabbs(tree: Octree, spos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tight AABBs of the tree's particle groups (sorted positions)."""
    if tree.group_first is None:
        raise ValueError("make_groups must run before the tree walk")
    starts = tree.group_first.astype(np.intp)
    gmin = np.empty((len(starts), 3))
    gmax = np.empty((len(starts), 3))
    for k in range(3):
        gmin[:, k] = np.minimum.reduceat(spos[:, k], starts)
        gmax[:, k] = np.maximum.reduceat(spos[:, k], starts)
    return gmin, gmax


def walk_frontier(first_child: np.ndarray, n_children: np.ndarray,
                  com: np.ndarray, r_crit: np.ndarray,
                  gmin: np.ndarray, gmax: np.ndarray,
                  g: np.ndarray, c: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Drive a (group, cell) frontier to completion.

    The core breadth-first MAC loop, parameterised by the initial
    frontier so that :mod:`repro.gravity.forest` can seed it with every
    remote source at once.  Mask selection and ``np.repeat`` both
    preserve relative order, so the pair lists of a multi-source
    frontier are the per-source lists interleaved level-major -- a
    stable sort by source id recovers each source's single-walk pair
    order exactly (the batched-walk equivalence the fast path relies
    on).
    """
    pc_g_parts: list[np.ndarray] = []
    pc_c_parts: list[np.ndarray] = []
    pp_g_parts: list[np.ndarray] = []
    pp_c_parts: list[np.ndarray] = []
    max_frontier = 0

    while len(g):
        max_frontier = max(max_frontier, len(g))
        d = aabb_distance(gmin[g], gmax[g], com[c])
        accept = d > r_crit[c]
        leaf = n_children[c] == 0

        take_pc = accept
        take_pp = (~accept) & leaf
        open_ = (~accept) & (~leaf)

        if take_pc.any():
            pc_g_parts.append(g[take_pc])
            pc_c_parts.append(c[take_pc])
        if take_pp.any():
            pp_g_parts.append(g[take_pp])
            pp_c_parts.append(c[take_pp])

        if open_.any():
            og = g[open_]
            oc = c[open_]
            nch = n_children[oc]
            g = np.repeat(og, nch)
            total = int(nch.sum())
            offs = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(nch) - nch, nch)
            c = np.repeat(first_child[oc], nch) + offs
        else:
            break

    def cat(parts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    return cat(pc_g_parts), cat(pc_c_parts), cat(pp_g_parts), cat(pp_c_parts), max_frontier


def walk_interaction_lists(source, gmin: np.ndarray, gmax: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Walk ``source`` once per target group, building interaction pairs.

    Parameters
    ----------
    source:
        Source octree (or LET-like structure) with moments and
        ``r_crit`` filled in.
    gmin, gmax:
        (G, 3) tight AABBs of the target groups.

    Returns
    -------
    pc_g, pc_c:
        Group and cell indices of accepted (multipole) interactions.
    pp_g, pp_c:
        Group and cell indices of opened leaves (direct interactions).
    max_frontier:
        Peak size of the traversal frontier (a walk-cost diagnostic).
    """
    if source.r_crit is None:
        raise ValueError("compute_opening_radii must run before the walk")
    n_groups = len(gmin)
    g = np.arange(n_groups, dtype=np.int64)
    c = np.zeros(n_groups, dtype=np.int64)
    return walk_frontier(source.first_child, source.n_children,
                         source.com, source.r_crit, gmin, gmax, g, c)


def _chunk_starts(cum: np.ndarray, n_pairs: int, chunk: int) -> np.ndarray:
    """Pair-list slice boundaries so each slice expands to ~chunk columns."""
    total = int(cum[-1])
    splits = np.searchsorted(cum, np.arange(chunk, total, chunk),
                             side="left") + 1
    return np.concatenate(([0], splits, [n_pairs]))


def _check_chunk(chunk: int) -> None:
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk!r}")


# ---------------------------------------------------------------------------
# Group-blocked evaluation.
# ---------------------------------------------------------------------------

def _sort_pairs(pg: np.ndarray, pc: np.ndarray, group_count: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort a pair list by (group size, group).

    Each group's pairs stay in walk order and contiguous, and groups of
    equal size are adjacent, so a size bucket is one block layout.
    """
    order = np.argsort(group_count[pg] * len(group_count) + pg,
                       kind="stable")
    return pg[order], pc[order]


def _blocks(width: np.ndarray, cum: np.ndarray, chunk: int):
    """Slice a size-sorted pair list into evaluation chunks.

    ``width`` is each pair's group size (non-decreasing) and ``cum`` the
    inclusive prefix sum of its source columns.  A bucket of equal width
    ``w`` is one ``(w, columns)`` block.  Adjacent buckets too small to
    fill a chunk merge into one block padded to the widest group, so a
    list with many distinct group sizes still costs a few blocks; larger
    blocks are cut into chunks of about ``chunk`` elements.  Yields
    ``(a, b, w)``: pairs ``[a, b)`` evaluated with ``w`` target slots.
    """
    edges = np.flatnonzero(width[1:] != width[:-1]) + 1
    cum0 = np.concatenate(([0], cum))
    blocks: list[tuple[int, int, int]] = []
    for s, e in zip(np.concatenate(([0], edges)),
                    np.concatenate((edges, [len(width)]))):
        w = int(width[e - 1])
        if blocks and (cum0[e] - cum0[blocks[-1][0]]) * w <= chunk:
            blocks[-1] = (blocks[-1][0], int(e), w)
        else:
            blocks.append((int(s), int(e), w))
    for a, e, w in blocks:
        starts = a + _chunk_starts(cum0[a + 1:e + 1] - cum0[a], e - a,
                                   max(1, chunk // w))
        for lo, hi in zip(starts[:-1], starts[1:]):
            if lo < hi:
                yield int(lo), int(hi), w


def _run_ids(out: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``out[k]`` = the run containing column ``k`` (strictly ascending
    run ``starts``, the first one 0), via the indicator/cumsum trick."""
    out[:] = 0
    out[starts[1:]] = 1
    np.cumsum(out, out=out)
    return out


def _separations(ws: KernelWorkspace, tview, rows, grun: np.ndarray,
                 rcol: np.ndarray, group_first: np.ndarray,
                 group_count: np.ndarray, w: int, p: int):
    """Source-minus-target separations of a chunk as three ``(w, p)`` blocks.

    ``rows`` are the chunk's per-column source coordinates.  Slot ``j``
    of column ``k`` is target ``j`` of column ``k``'s group: each group
    run gathers its ``w`` target coordinates once and broadcasts them
    over its columns.  Groups narrower than ``w`` repeat their last
    target in the pad slots, which keeps the pad arithmetic finite; the
    returned ``(tidx, keep)`` name the ``(w, runs)`` target of every
    slot and mask the real ones (``keep`` is None without pads).
    """
    m = group_count[grun]
    slot = np.arange(w, dtype=np.int64)[:, None]
    tidx = group_first[grun] + np.minimum(slot, m - 1)
    keep = None if (m == w).all() else slot < m
    bounds = np.append(rcol, p).tolist()
    blocks = []
    for col, row, name in zip(tview, rows, ("dx", "dy", "dz")):
        blk = ws.block(name, w, p)
        tgt = col[tidx]
        for r in range(len(rcol)):
            a, b = bounds[r], bounds[r + 1]
            np.subtract(row[a:b], tgt[:, r:r + 1], out=blk[:, a:b])
        blocks.append(blk)
    return blocks, tidx, keep


def _reduce_scatter(ws: KernelWorkspace, vals, rcol: np.ndarray,
                    tidx: np.ndarray, keep, accs) -> None:
    """Sum each group run's columns and add the sums to its targets.

    Within one chunk every run is a distinct group, so the targets are
    unique and the scatter is a plain fancy-indexed add.
    """
    sums = ws.block("tmp", *tidx.shape)
    if keep is not None:
        tidx = tidx[keep]
    for val, acc in zip(vals, accs):
        np.add.reduceat(val, rcol, axis=1, out=sums)
        acc[tidx] += sums if keep is None else sums[keep]


def _chunk_runs(gs: np.ndarray) -> np.ndarray:
    """First pair of each group run of a chunk's (group-sorted) pairs."""
    return np.concatenate(([0], np.flatnonzero(gs[1:] != gs[:-1]) + 1))


def _evaluate_pc_blocks(accs, tview, sv: SourceView,
                        pc_g: np.ndarray, pc_c: np.ndarray,
                        group_first: np.ndarray, group_count: np.ndarray,
                        eps2: float, quadrupole: bool,
                        counts: InteractionCounts, chunk: int,
                        ws: KernelWorkspace) -> None:
    if quadrupole and sv.quad is None:
        raise ValueError("quadrupole evaluation needs source quadrupoles")
    gs_all, cs_all = _sort_pairs(pc_g, pc_c, group_count)
    width = group_count[gs_all]
    counts.n_pc += int(width.sum())
    cum = np.arange(1, len(gs_all) + 1, dtype=np.int64)
    for a, b, w in _blocks(width, cum, chunk):
        p = b - a
        ws.ensure(w * p)
        gs = gs_all[a:b]
        cs = cs_all[a:b]
        rcol = _chunk_runs(gs)
        rows = (ws.cx[:p], ws.cy[:p], ws.cz[:p])
        for col, row in zip((sv.com_x, sv.com_y, sv.com_z), rows):
            np.take(col, cs, out=row)
        (dx, dy, dz), tidx, keep = _separations(
            ws, tview, rows, gs[rcol], rcol, group_first, group_count, w, p)
        m = ws.m[:p]
        np.take(sv.mass, cs, out=m)
        quad = None
        if quadrupole:
            quad = (ws.q0[:p], ws.q1[:p], ws.q2[:p],
                    ws.q3[:p], ws.q4[:p], ws.q5[:p])
            for col, row in zip(sv.quad, quad):
                np.take(col, cs, out=row)
        scratch = tuple(ws.block(name, w, p) for name in
                        ("r2", "tmp", "qrx", "qry", "qrz", "rqr",
                         "rinv2", "rinv3", "rinv5"))
        vals = pc_interactions_ws(dx, dy, dz, m, quad, eps2, ws.trq[:p],
                                  scratch)
        _reduce_scatter(ws, vals, rcol, tidx, keep, accs)


def _evaluate_pp_blocks(accs, tview, sv: SourceView,
                        pp_g: np.ndarray, pp_c: np.ndarray,
                        group_first: np.ndarray, group_count: np.ndarray,
                        eps2: float, counts: InteractionCounts,
                        exclude_self: bool, chunk: int,
                        ws: KernelWorkspace) -> None:
    gs_all, cs_all = _sort_pairs(pp_g, pp_c, group_count)
    bc_all = sv.body_count[cs_all]
    width = group_count[gs_all]
    counts.n_pp += int((width * bc_all).sum())
    if (bc_all == 0).any():
        # Pruned multipole-only leaves contribute no bodies; drop them so
        # every pair owns at least one column.
        keep = bc_all > 0
        gs_all, cs_all = gs_all[keep], cs_all[keep]
        bc_all, width = bc_all[keep], width[keep]
        if len(gs_all) == 0:
            return
    for a, b, w in _blocks(width, np.cumsum(bc_all), chunk):
        gs = gs_all[a:b]
        cs = cs_all[a:b]
        cstart = np.concatenate(([0], np.cumsum(bc_all[a:b])))
        p = int(cstart[-1])
        ws.ensure(w * p)
        # Columns are the bodies of the chunk's leaves, leaf by leaf.
        pid = _run_ids(ws.i1[:p], cstart[:-1])
        s = ws.i2[:p]
        np.take(cstart, pid, out=s)
        np.subtract(ws.arange[:p], s, out=s)
        first = ws.i3[:p]
        np.take(sv.body_first[cs], pid, out=first)
        s += first
        rpair = _chunk_runs(gs)
        rcol = cstart[rpair]
        grun = gs[rpair]
        rows = (ws.cx[:p], ws.cy[:p], ws.cz[:p])
        for col, row in zip((sv.sx, sv.sy, sv.sz), rows):
            np.take(col, s, out=row)
        (dx, dy, dz), tidx, keep = _separations(
            ws, tview, rows, grun, rcol, group_first, group_count, w, p)
        m = ws.m[:p]
        np.take(sv.smass, s, out=m)
        vals = pp_interactions_ws(dx, dy, dz, m, eps2,
                                  ws.block("r2", w, p), ws.block("tmp", w, p))
        if exclude_self:
            # Body s is slot s - group_first of its own group; the
            # unsigned compare folds the "< 0" test into "< group size".
            rid = _run_ids(ws.rid[:p], rcol)
            d = ws.i1[:p]
            np.take(group_first[grun], rid, out=d)
            np.subtract(s, d, out=d)
            mcol = ws.i3[:p]
            np.take(group_count[grun], rid, out=mcol)
            hit = ws.bmask[:p]
            np.less(d.view(np.uint64), mcol.view(np.uint64), out=hit)
            cols = np.flatnonzero(hit)
            rows = d[cols]
            for val in vals:
                val[rows, cols] = 0.0
        _reduce_scatter(ws, vals, rcol, tidx, keep, accs)


# ---------------------------------------------------------------------------
# Public evaluators.
# ---------------------------------------------------------------------------

def evaluate_pc_pairs(acc: np.ndarray, phi: np.ndarray,
                      tpos: np.ndarray, source,
                      pc_g: np.ndarray, pc_c: np.ndarray,
                      group_first: np.ndarray, group_count: np.ndarray,
                      eps2: float, quadrupole: bool,
                      counts: InteractionCounts,
                      chunk: int = DEFAULT_CHUNK,
                      workspace: KernelWorkspace | None = None,
                      sview: SourceView | None = None,
                      tview=None) -> None:
    """Evaluate particle-cell pairs, accumulating into acc/phi (sorted order)."""
    _check_chunk(chunk)
    if len(pc_g) == 0:
        return
    ws = workspace if workspace is not None else KernelWorkspace(chunk)
    sv = sview if sview is not None else SourceView.build(source)
    tv = tview if tview is not None else target_columns(tpos)
    _evaluate_pc_blocks((acc[:, 0], acc[:, 1], acc[:, 2], phi), tv, sv,
                        pc_g, pc_c, group_first, group_count, eps2,
                        quadrupole, counts, chunk, ws)


def evaluate_pp_pairs(acc: np.ndarray, phi: np.ndarray,
                      tpos: np.ndarray,
                      spos: np.ndarray, smass: np.ndarray,
                      pp_g: np.ndarray, pp_c: np.ndarray,
                      group_first: np.ndarray, group_count: np.ndarray,
                      body_first: np.ndarray, body_count: np.ndarray,
                      eps2: float,
                      counts: InteractionCounts,
                      exclude_self: bool,
                      chunk: int = DEFAULT_CHUNK,
                      workspace: KernelWorkspace | None = None,
                      sview: SourceView | None = None,
                      tview=None) -> None:
    """Evaluate particle-particle (group x leaf) pairs.

    ``exclude_self`` zeroes the contribution of identical sorted indices,
    which is required when targets and sources are the same particle set
    (the group inevitably walks into its own leaves).
    """
    _check_chunk(chunk)
    if len(pp_g) == 0:
        return
    ws = workspace if workspace is not None else KernelWorkspace(chunk)
    if sview is None or sview.sx is None:
        sv = SourceView.__new__(SourceView)
        sv.body_first = np.asarray(body_first, dtype=np.int64)
        sv.body_count = np.asarray(body_count, dtype=np.int64)
        sv.sx = np.ascontiguousarray(spos[:, 0])
        sv.sy = np.ascontiguousarray(spos[:, 1])
        sv.sz = np.ascontiguousarray(spos[:, 2])
        sv.smass = np.ascontiguousarray(smass)
    else:
        sv = sview
    tv = tview if tview is not None else target_columns(tpos)
    _evaluate_pp_blocks((acc[:, 0], acc[:, 1], acc[:, 2], phi), tv, sv,
                        pp_g, pp_c, group_first, group_count, eps2,
                        counts, exclude_self, chunk, ws)


def tree_forces(tree: Octree, pos: np.ndarray, mass: np.ndarray,
                theta: float, eps: float = 0.0,
                mac: str = "bonsai", quadrupole: bool = True,
                source: Octree | None = None,
                source_pos: np.ndarray | None = None,
                source_mass: np.ndarray | None = None,
                chunk: int = DEFAULT_CHUNK,
                workspace: KernelWorkspace | None = None) -> TreeWalkResult:
    """Compute gravitational forces on ``tree``'s particles.

    When ``source`` is omitted the walk is self-gravity over the local
    tree.  Passing a different ``source`` tree (with its own particle
    arrays) computes the partial forces exerted by that tree's mass on
    the local particles -- this is how LET contributions are evaluated.

    Parameters
    ----------
    tree:
        Target octree; must have moments and groups.  ``pos``/``mass``
        are the target particles in original order.
    theta, mac:
        Opening angle and MAC flavor (applied to the source tree).
    eps:
        Plummer softening length.
    quadrupole:
        Evaluate quadrupole corrections (65-flop kernel) or monopole only.
    chunk, workspace:
        Block elements per evaluation chunk and the scratch arena (see
        module docstring).  Reuse one ``workspace`` across calls to keep
        steady-state evaluation allocation-free.

    Returns
    -------
    TreeWalkResult with ``acc``/``phi`` in the original particle order.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if tree.group_first is None:
        raise ValueError("make_groups must run on the target tree first")
    _check_chunk(chunk)

    self_gravity = source is None
    if self_gravity:
        source = tree
        src_pos_sorted = pos[tree.order]
        src_mass_sorted = mass[tree.order]
    else:
        if source_pos is None or source_mass is None:
            raise ValueError("source trees need source_pos/source_mass (sorted order)")
        src_pos_sorted = np.asarray(source_pos, dtype=np.float64)
        src_mass_sorted = np.asarray(source_mass, dtype=np.float64)

    # LET structures arrive with r_crit baked in by the sender (and have
    # no geometric `half`); recompute only for full octrees.
    if getattr(source, "half", None) is not None:
        compute_opening_radii(source, theta, mac)
    elif source.r_crit is None:
        raise ValueError("source structure lacks opening radii")

    tpos = pos[tree.order] if not self_gravity else src_pos_sorted
    gmin, gmax = group_aabbs(tree, tpos)
    pc_g, pc_c, pp_g, pp_c, max_frontier = walk_interaction_lists(source, gmin, gmax)

    n = len(pos)
    acc_sorted = np.zeros((n, 3))
    phi_sorted = np.zeros(n)
    counts = InteractionCounts(quadrupole=quadrupole)
    eps2 = float(eps) * float(eps)

    ws = workspace if workspace is not None else KernelWorkspace(chunk)
    sv = SourceView.build(source, src_pos_sorted, src_mass_sorted)
    tv = (sv.sx, sv.sy, sv.sz) if self_gravity else target_columns(tpos)

    evaluate_pc_pairs(acc_sorted, phi_sorted, tpos, source, pc_g, pc_c,
                      tree.group_first, tree.group_count, eps2, quadrupole,
                      counts, chunk, workspace=ws, sview=sv, tview=tv)
    evaluate_pp_pairs(acc_sorted, phi_sorted, tpos, src_pos_sorted,
                      src_mass_sorted, pp_g, pp_c,
                      tree.group_first, tree.group_count,
                      source.body_first, source.body_count, eps2,
                      counts, exclude_self=self_gravity, chunk=chunk,
                      workspace=ws, sview=sv, tview=tv)

    # Scatter back to the original particle order.
    acc = np.empty_like(acc_sorted)
    phi = np.empty_like(phi_sorted)
    acc[tree.order] = acc_sorted
    phi[tree.order] = phi_sorted
    return TreeWalkResult(acc=acc, phi=phi, counts=counts,
                          n_groups=len(tree.group_first),
                          max_frontier=max_frontier)
