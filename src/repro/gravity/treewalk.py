"""Group-centric Barnes-Hut tree walk with on-the-fly evaluation.

Reproduces Bonsai's fused tree-walk + force kernel (Sec. III-A): the walk
proceeds once per particle *group* (warp), testing the MAC between the
group's tight AABB and each cell's COM / opening radius.  Accepted cells
become particle-cell (p-c) interactions shared by the whole group; leaf
cells that fail the MAC become particle-particle (p-p) interactions.
Interaction lists are never materialised in full: pairs are expanded and
evaluated in bounded chunks, mirroring the register-resident evaluation
the paper credits for its single-GPU efficiency.

The same machinery walks *remote* LET trees (Sec. III-B2): the walk is
parameterised by an arbitrary source tree, so the distributed code feeds
each received LET through this function and sums the partial forces.
:mod:`repro.gravity.forest` batches many remote structures into a single
walk over a concatenated cell forest.

Two evaluation strategies are provided (``scatter=``):

``"segment"`` (default, the fast path)
    Pairs are stable-sorted by group, expanded particle-major through a
    preallocated :class:`KernelWorkspace` (every ufunc writes ``out=``,
    so steady state allocates nothing), evaluated by the in-place kernel
    forms, and accumulated with one ``np.add.reduceat`` segment sum per
    output component -- the targets of one chunk are unique, so the
    scatter is a plain fancy-indexed add instead of four length-N
    ``bincount`` passes per chunk.

``"bincount"`` (the pre-optimisation baseline)
    The original allocating evaluators, kept for A/B benchmarking
    (``benchmarks/bench_step_pipeline.py``) and as a reference
    implementation.

Interaction *counts* are identical between the two: they are a property
of the walk's pair lists, which neither strategy touches.  Both evaluate
in float64; the public evaluators call the segment kernels directly, so
the serial driver, the local walk and every LET share one code path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..octree import Octree, compute_opening_radii
from ..octree.properties import aabb_distance
from .flops import InteractionCounts
from .kernels import (
    pc_interactions,
    pc_interactions_ws,
    pp_interactions,
    pp_interactions_ws,
)

#: Upper bound on expanded (target, source) pairs per evaluation chunk.
#: Sized so the workspace's ~20 chunk-length buffers stay cache-resident:
#: the chunk sweep in benchmarks/results/step_pipeline.txt runs ~2.4x
#: faster per pair at 2**15 than at the old allocating 2**21.
DEFAULT_CHUNK = 1 << 15

#: Evaluation scatter strategies (see module docstring).
SCATTER_MODES = ("segment", "bincount")


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
    """Preallocated scratch arena for the chunked evaluators.

    One workspace serves every chunk of every source a rank evaluates:
    sixteen float64 kernel buffers, two float64 gather staging buffers,
    seven int64 index buffers plus a persistent arange, and a bool mask
    for self-pair exclusion.  ``ensure`` grows the arena when a chunk
    expands past the current capacity (a pair list's last slice may
    overshoot ``chunk`` by one pair's expansion) and is a no-op
    afterwards -- steady-state evaluation performs no allocation.
    """

    _F_NAMES = ("dx", "dy", "dz", "m", "q0", "q1", "q2", "q3", "q4", "q5",
                "r2", "tmp", "trq", "qrx", "qry", "qrz")
    _I_NAMES = ("i1", "i2", "i3", "i4", "i5", "i6", "i7")

    def __init__(self, chunk: int = DEFAULT_CHUNK):
        self.chunk = 0
        self.ensure(int(chunk))

    def ensure(self, chunk: int) -> "KernelWorkspace":
        """Grow the arena to hold ``chunk`` expanded pairs."""
        if chunk <= self.chunk:
            return self
        self.chunk = int(chunk)
        for name in self._F_NAMES:
            setattr(self, name, np.empty(self.chunk, dtype=np.float64))
        self.g1 = np.empty(self.chunk, dtype=np.float64)
        self.g2 = np.empty(self.chunk, dtype=np.float64)
        for name in self._I_NAMES:
            setattr(self, name, np.empty(self.chunk, dtype=np.int64))
        self.arange = np.arange(self.chunk, dtype=np.int64)
        self.bmask = np.empty(self.chunk, dtype=bool)
        return self

    @property
    def nbytes(self) -> int:
        """Total arena size (for memory accounting)."""
        return self.chunk * (16 * 8 + 2 * 8 + 8 * 8 + 1)


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


def _expand_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenate [first_i, first_i + count_i) ranges into one index array."""
    total = int(count.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(np.arange(len(first), dtype=np.int64), count)
    offs = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(count) - count, count)
    return first[reps] + offs


def _chunk_starts(cum: np.ndarray, n_pairs: int, chunk: int) -> np.ndarray:
    """Pair-list slice boundaries so each slice expands to ~chunk rows."""
    total = int(cum[-1])
    splits = np.searchsorted(cum, np.arange(chunk, total, chunk),
                             side="left") + 1
    return np.concatenate(([0], splits, [n_pairs]))


# ---------------------------------------------------------------------------
# Baseline evaluators ("bincount"): the pre-optimisation implementation,
# kept verbatim for A/B benchmarking against the segment fast path.
# ---------------------------------------------------------------------------

def _evaluate_pc_bincount(acc: np.ndarray, phi: np.ndarray,
                          tpos: np.ndarray, source,
                          pc_g: np.ndarray, pc_c: np.ndarray,
                          group_first: np.ndarray, group_count: np.ndarray,
                          eps2: float, quadrupole: bool,
                          counts: InteractionCounts, chunk: int) -> None:
    n = len(tpos)
    sizes = group_count[pc_g]
    cum = np.cumsum(sizes)
    counts.n_pc += int(cum[-1])
    starts = _chunk_starts(cum, len(pc_g), chunk)
    for a, b in zip(starts[:-1], starts[1:]):
        if a >= b:
            continue
        gs = pc_g[a:b]
        cs = pc_c[a:b]
        reps = group_count[gs]
        p = _expand_ranges(group_first[gs], reps)
        cell = np.repeat(cs, reps)
        dx = source.com[cell, 0] - tpos[p, 0]
        dy = source.com[cell, 1] - tpos[p, 1]
        dz = source.com[cell, 2] - tpos[p, 2]
        m = source.mass[cell]
        quad = source.quad[cell] if quadrupole else None
        ax, ay, az, ph = pc_interactions(dx, dy, dz, m, quad, eps2)
        acc[:, 0] += np.bincount(p, weights=ax, minlength=n)
        acc[:, 1] += np.bincount(p, weights=ay, minlength=n)
        acc[:, 2] += np.bincount(p, weights=az, minlength=n)
        phi += np.bincount(p, weights=ph, minlength=n)


def _evaluate_pp_bincount(acc: np.ndarray, phi: np.ndarray,
                          tpos: np.ndarray,
                          spos: np.ndarray, smass: np.ndarray,
                          pp_g: np.ndarray, pp_c: np.ndarray,
                          group_first: np.ndarray, group_count: np.ndarray,
                          body_first: np.ndarray, body_count: np.ndarray,
                          eps2: float, counts: InteractionCounts,
                          exclude_self: bool, chunk: int) -> None:
    n = len(tpos)
    gc = group_count[pp_g]
    bc = body_count[pp_c]
    sizes = (gc * bc).astype(np.int64)
    cum = np.cumsum(sizes)
    counts.n_pp += int(cum[-1])
    starts = _chunk_starts(cum, len(pp_g), chunk)
    for a, b in zip(starts[:-1], starts[1:]):
        if a >= b:
            continue
        gs = pp_g[a:b]
        cs = pp_c[a:b]
        gcs = group_count[gs]
        bcs = body_count[cs]
        sz = (gcs * bcs).astype(np.int64)
        total = int(sz.sum())
        pair = np.repeat(np.arange(len(gs), dtype=np.int64), sz)
        off = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(sz) - sz, sz)
        bcp = bcs[pair]
        t = group_first[gs][pair] + off // bcp
        s = body_first[cs][pair] + off % bcp
        dx = spos[s, 0] - tpos[t, 0]
        dy = spos[s, 1] - tpos[t, 1]
        dz = spos[s, 2] - tpos[t, 2]
        m = smass[s]
        if exclude_self:
            m = np.where(t == s, 0.0, m)
        ax, ay, az, ph = pp_interactions(dx, dy, dz, m, eps2)
        if exclude_self and eps2 == 0.0:
            self_pair = t == s
            ax[self_pair] = ay[self_pair] = az[self_pair] = ph[self_pair] = 0.0
        acc[:, 0] += np.bincount(t, weights=ax, minlength=n)
        acc[:, 1] += np.bincount(t, weights=ay, minlength=n)
        acc[:, 2] += np.bincount(t, weights=az, minlength=n)
        phi += np.bincount(t, weights=ph, minlength=n)


# ---------------------------------------------------------------------------
# Fast-path evaluators ("segment"): workspace expansion + segment reduction.
# ---------------------------------------------------------------------------

def _sort_pairs(pg: np.ndarray, pc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort a pair list by group.

    Walk output is level-major: a concatenation of per-level slices each
    already ascending in ``g``, so the adaptive stable sort runs in
    near-linear time (galloping merge of a few sorted runs).
    """
    order = np.argsort(pg, kind="stable")
    return pg[order], pc[order]


def _gather_diff(acol: np.ndarray, aidx: np.ndarray,
                 bcol: np.ndarray, bidx: np.ndarray,
                 g1: np.ndarray, g2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = acol[aidx] - bcol[bidx] without temporaries."""
    np.take(acol, aidx, out=g1)
    np.take(bcol, bidx, out=g2)
    np.subtract(g1, g2, out=out)
    return out


def _run_layout(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Detect maximal constant runs in ``key``: (run_first_index, run_length)."""
    change = np.flatnonzero(key[1:] != key[:-1]) + 1
    rp = np.concatenate(([0], change))
    lengths = np.diff(np.concatenate((rp, [len(key)])))
    return rp, lengths


def _row_expand(ws: KernelWorkspace, row_start: np.ndarray, total: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row run ids and in-run offsets via the indicator/cumsum trick.

    Returns (rid, off) slices of workspace buffers i1/i2.
    """
    rid = ws.i1[:total]
    rid[:] = 0
    if len(row_start) > 2:
        rid[row_start[1:-1]] = 1
    np.cumsum(rid, out=rid)
    off = ws.i2[:total]
    np.take(row_start, rid, out=off)
    np.subtract(ws.arange[:total], off, out=off)
    return rid, off


def _segment_scatter(ws: KernelWorkspace, vals, run_gfirst: np.ndarray,
                     run_nseg: np.ndarray, run_seglen: np.ndarray,
                     row_start: np.ndarray, outs) -> None:
    """Reduce per-row kernel outputs into per-particle accumulators.

    Each run contributes ``run_nseg`` segments of ``run_seglen``
    consecutive rows; segment ``j`` of run ``r`` targets particle
    ``run_gfirst[r] + j``.  Within one chunk every run is a distinct
    group, so the targets are unique and the scatter is a plain
    fancy-indexed add -- no ``bincount``, no length-N temporaries.
    """
    seg_start = np.concatenate(([0], np.cumsum(run_nseg)))
    n_seg = int(seg_start[-1])
    srid = ws.i3[:n_seg]
    srid[:] = 0
    if len(seg_start) > 2:
        srid[seg_start[1:-1]] = 1
    np.cumsum(srid, out=srid)
    sj = ws.i4[:n_seg]
    np.take(seg_start, srid, out=sj)
    np.subtract(ws.arange[:n_seg], sj, out=sj)
    st = ws.i1[:n_seg]
    np.take(run_gfirst, srid, out=st)
    np.add(st, sj, out=st)
    sstart = ws.i5[:n_seg]
    np.take(run_seglen, srid, out=sstart)
    np.multiply(sstart, sj, out=sstart)
    np.take(row_start, srid, out=sj)
    np.add(sstart, sj, out=sstart)
    for val, sbuf, out_col in zip(vals, (ws.trq, ws.qrx, ws.qry, ws.qrz), outs):
        sums = sbuf[:n_seg]
        np.add.reduceat(val, sstart, out=sums)
        out_col[st] += sums


def _evaluate_pc_segment(accx, accy, accz, accp,
                         tview, sv: SourceView,
                         pc_g: np.ndarray, pc_c: np.ndarray,
                         group_first: np.ndarray, group_count: np.ndarray,
                         eps2: float, quadrupole: bool,
                         counts: InteractionCounts, chunk: int,
                         ws: KernelWorkspace) -> None:
    if quadrupole and sv.quad is None:
        raise ValueError("quadrupole evaluation needs source quadrupoles")
    gs_all, cs_all = _sort_pairs(pc_g, pc_c)
    sizes = group_count[gs_all]
    cum = np.cumsum(sizes)
    counts.n_pc += int(cum[-1])
    starts = _chunk_starts(cum, len(gs_all), chunk)
    tx, ty, tz = tview
    for a, b in zip(starts[:-1], starts[1:]):
        if a >= b:
            continue
        gs = gs_all[a:b]
        cs = cs_all[a:b]
        # Run layout: after the group sort each group's pairs are
        # contiguous, so runs == groups and chunk targets are unique.
        rp, k = _run_layout(gs)
        grun = gs[rp]
        mrun = group_count[grun]
        gfrun = group_first[grun]
        row_start = np.concatenate(([0], np.cumsum(mrun * k)))
        total = int(row_start[-1])
        ws.ensure(total)

        rid, off = _row_expand(ws, row_start, total)
        kpr = ws.i3[:total]
        np.take(k, rid, out=kpr)
        pl = ws.i4[:total]
        np.floor_divide(off, kpr, out=pl)          # particle slot in group
        cl = ws.i5[:total]
        np.multiply(pl, kpr, out=cl)
        np.subtract(off, cl, out=cl)               # cell slot in run
        np.take(rp, rid, out=kpr)
        np.add(kpr, cl, out=cl)                    # pair index in chunk
        cell = ws.i6[:total]
        np.take(cs, cl, out=cell)
        t = off                                    # reuse: off is consumed
        np.take(gfrun, rid, out=t)
        np.add(t, pl, out=t)

        dx = ws.dx[:total]
        dy = ws.dy[:total]
        dz = ws.dz[:total]
        m = ws.m[:total]
        g1 = ws.g1[:total]
        g2 = ws.g2[:total]
        _gather_diff(sv.com_x, cell, tx, t, g1, g2, dx)
        _gather_diff(sv.com_y, cell, ty, t, g1, g2, dy)
        _gather_diff(sv.com_z, cell, tz, t, g1, g2, dz)
        np.take(sv.mass, cell, out=m)
        if quadrupole:
            qb = (ws.q0[:total], ws.q1[:total], ws.q2[:total],
                  ws.q3[:total], ws.q4[:total], ws.q5[:total])
            for col, buf in zip(sv.quad, qb):
                np.take(col, cell, out=buf)
            ax, ay, az, ph = pc_interactions_ws(
                dx, dy, dz, m, qb, eps2, ws.r2[:total], ws.tmp[:total],
                ws.trq[:total], ws.qrx[:total], ws.qry[:total], ws.qrz[:total])
        else:
            ax, ay, az, ph = pc_interactions_ws(
                dx, dy, dz, m, None, eps2, ws.r2[:total], ws.tmp[:total],
                ws.trq[:total], ws.qrx[:total], ws.qry[:total], ws.qrz[:total])

        _segment_scatter(ws, (ax, ay, az, ph), gfrun, mrun, k, row_start,
                         (accx, accy, accz, accp))


def _evaluate_pp_segment(accx, accy, accz, accp,
                         tview, sv: SourceView,
                         pp_g: np.ndarray, pp_c: np.ndarray,
                         group_first: np.ndarray, group_count: np.ndarray,
                         eps2: float, counts: InteractionCounts,
                         exclude_self: bool, chunk: int,
                         ws: KernelWorkspace) -> None:
    gs_all, cs_all = _sort_pairs(pp_g, pp_c)
    bc_all = sv.body_count[cs_all]
    sizes = group_count[gs_all] * bc_all
    cum = np.cumsum(sizes)
    counts.n_pp += int(cum[-1])
    if (bc_all == 0).any():
        # Pruned multipole-only leaves contribute no bodies; drop them so
        # run bookkeeping never sees an empty bodylist.
        keep = bc_all > 0
        gs_all, cs_all, bc_all = gs_all[keep], cs_all[keep], bc_all[keep]
        sizes = sizes[keep]
        cum = np.cumsum(sizes)
        if len(cum) == 0:
            return
    starts = _chunk_starts(cum, len(gs_all), chunk)
    tx, ty, tz = tview
    for a, b in zip(starts[:-1], starts[1:]):
        if a >= b:
            continue
        gs = gs_all[a:b]
        cs = cs_all[a:b]
        bc = bc_all[a:b]
        rp, _ = _run_layout(gs)
        grun = gs[rp]
        mrun = group_count[grun]
        gfrun = group_first[grun]
        # Bodylist: the concatenated particles of every leaf in the
        # chunk; a run's leaves are adjacent, so its bodies form one
        # contiguous span of length brun.
        bl_pair_start = np.concatenate(([0], np.cumsum(bc)))
        n_bodies = int(bl_pair_start[-1])
        brun = np.add.reduceat(bc, rp)
        bl_run_start = bl_pair_start[rp]
        row_start = np.concatenate(([0], np.cumsum(mrun * brun)))
        total = int(row_start[-1])
        ws.ensure(total)

        blid, boff = _row_expand(ws, bl_pair_start, n_bodies)
        bl = ws.i7[:n_bodies]
        np.take(sv.body_first[cs], blid, out=bl)
        np.add(bl, boff, out=bl)

        rid, off = _row_expand(ws, row_start, total)
        bpr = ws.i3[:total]
        np.take(brun, rid, out=bpr)
        pl = ws.i4[:total]
        np.floor_divide(off, bpr, out=pl)          # particle slot in group
        blo = ws.i5[:total]
        np.multiply(pl, bpr, out=blo)
        np.subtract(off, blo, out=blo)             # body slot in run
        np.take(bl_run_start, rid, out=bpr)
        np.add(bpr, blo, out=blo)                  # bodylist index
        s = ws.i6[:total]
        np.take(bl, blo, out=s)
        t = off
        np.take(gfrun, rid, out=t)
        np.add(t, pl, out=t)

        dx = ws.dx[:total]
        dy = ws.dy[:total]
        dz = ws.dz[:total]
        m = ws.m[:total]
        g1 = ws.g1[:total]
        g2 = ws.g2[:total]
        _gather_diff(sv.sx, s, tx, t, g1, g2, dx)
        _gather_diff(sv.sy, s, ty, t, g1, g2, dy)
        _gather_diff(sv.sz, s, tz, t, g1, g2, dz)
        np.take(sv.smass, s, out=m)
        if exclude_self:
            mask = ws.bmask[:total]
            np.equal(t, s, out=mask)
            m[mask] = 0.0
        ax, ay, az, ph = pp_interactions_ws(dx, dy, dz, m, eps2,
                                            ws.r2[:total], ws.tmp[:total])
        if exclude_self and eps2 == 0.0:
            ax[mask] = ay[mask] = az[mask] = ph[mask] = 0.0

        _segment_scatter(ws, (ax, ay, az, ph), gfrun, mrun, brun, row_start,
                         (accx, accy, accz, accp))


# ---------------------------------------------------------------------------
# Public evaluators: dispatch on scatter strategy.
# ---------------------------------------------------------------------------

def evaluate_pc_pairs(acc: np.ndarray, phi: np.ndarray,
                      tpos: np.ndarray, source,
                      pc_g: np.ndarray, pc_c: np.ndarray,
                      group_first: np.ndarray, group_count: np.ndarray,
                      eps2: float, quadrupole: bool,
                      counts: InteractionCounts,
                      chunk: int = DEFAULT_CHUNK,
                      scatter: str = "segment",
                      workspace: KernelWorkspace | None = None,
                      sview: SourceView | None = None,
                      tview=None) -> None:
    """Evaluate particle-cell pairs, accumulating into acc/phi (sorted order)."""
    if len(pc_g) == 0:
        return
    if scatter == "bincount":
        _evaluate_pc_bincount(acc, phi, tpos, source, pc_g, pc_c,
                              group_first, group_count, eps2, quadrupole,
                              counts, chunk)
        return
    ws = workspace if workspace is not None else KernelWorkspace(chunk)
    sv = sview if sview is not None else SourceView.build(source)
    tv = tview if tview is not None else target_columns(tpos)
    _evaluate_pc_segment(acc[:, 0], acc[:, 1], acc[:, 2], phi, tv, sv,
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
                      scatter: str = "segment",
                      workspace: KernelWorkspace | None = None,
                      sview: SourceView | None = None,
                      tview=None) -> None:
    """Evaluate particle-particle (group x leaf) pairs.

    ``exclude_self`` zeroes the contribution of identical sorted indices,
    which is required when targets and sources are the same particle set
    (the group inevitably walks into its own leaves).
    """
    if len(pp_g) == 0:
        return
    if scatter == "bincount":
        _evaluate_pp_bincount(acc, phi, tpos, spos, smass, pp_g, pp_c,
                              group_first, group_count, body_first,
                              body_count, eps2, counts, exclude_self, chunk)
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
    _evaluate_pp_segment(acc[:, 0], acc[:, 1], acc[:, 2], phi, tv, sv,
                         pp_g, pp_c, group_first, group_count, eps2,
                         counts, exclude_self, chunk, ws)


def tree_forces(tree: Octree, pos: np.ndarray, mass: np.ndarray,
                theta: float, eps: float = 0.0,
                mac: str = "bonsai", quadrupole: bool = True,
                source: Octree | None = None,
                source_pos: np.ndarray | None = None,
                source_mass: np.ndarray | None = None,
                chunk: int = DEFAULT_CHUNK,
                scatter: str = "segment",
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
    chunk, scatter, workspace:
        Evaluation strategy knobs (see module docstring).  Reuse one
        ``workspace`` across calls to keep steady-state evaluation
        allocation-free.

    Returns
    -------
    TreeWalkResult with ``acc``/``phi`` in the original particle order.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if tree.group_first is None:
        raise ValueError("make_groups must run on the target tree first")
    if scatter not in SCATTER_MODES:
        raise ValueError(f"unknown scatter {scatter!r}; "
                         f"expected one of {SCATTER_MODES}")

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

    if scatter == "segment":
        ws = workspace if workspace is not None else KernelWorkspace(chunk)
        sv = SourceView.build(source, src_pos_sorted, src_mass_sorted)
        tv = (sv.sx, sv.sy, sv.sz) if self_gravity else target_columns(tpos)
    else:
        ws = sv = tv = None

    evaluate_pc_pairs(acc_sorted, phi_sorted, tpos, source, pc_g, pc_c,
                      tree.group_first, tree.group_count, eps2, quadrupole,
                      counts, chunk, scatter=scatter, workspace=ws,
                      sview=sv, tview=tv)
    evaluate_pp_pairs(acc_sorted, phi_sorted, tpos, src_pos_sorted,
                      src_mass_sorted, pp_g, pp_c,
                      tree.group_first, tree.group_count,
                      source.body_first, source.body_count, eps2,
                      counts, exclude_self=self_gravity, chunk=chunk,
                      scatter=scatter, workspace=ws, sview=sv, tview=tv)

    # Scatter back to the original particle order.
    acc = np.empty_like(acc_sorted)
    phi = np.empty_like(phi_sorted)
    acc[tree.order] = acc_sorted
    phi[tree.order] = phi_sorted
    return TreeWalkResult(acc=acc, phi=phi, counts=counts,
                          n_groups=len(tree.group_first),
                          max_frontier=max_frontier)
