"""Group-blocked evaluators against an explicit row-expanded reference.

The reference expands every (group, cell) and (group, leaf) pair into
one row per (target, source), evaluates the rows with the allocating
kernels and sums them with ``np.add.at``.  The blocked evaluators
gather each source once per pair and broadcast it over the group's
targets; they must agree to float64 round-off and count the same
interactions.
"""

import warnings

import numpy as np
import pytest

from repro.gravity import SourceForest, split_by_source
from repro.gravity.flops import InteractionCounts
from repro.gravity.forest import walk_forest_interaction_lists
from repro.gravity.kernels import pc_interactions, pp_interactions
from repro.gravity.treewalk import (
    DEFAULT_CHUNK,
    KernelWorkspace,
    SourceView,
    _blocks,
    evaluate_pc_pairs,
    evaluate_pp_pairs,
    group_aabbs,
    walk_interaction_lists,
)
from repro.octree import (
    build_octree,
    compute_moments,
    compute_opening_radii,
    make_groups,
)
from repro.parallel import boundary_structure
from repro.sfc import BoundingBox

NCRIT = 64


def _source(n=400, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    mass = rng.uniform(0.5, 1.0, n)
    tree = build_octree(pos, nleaf=8)
    compute_moments(tree, pos, mass)
    return tree, pos[tree.order], mass[tree.order]


def _groups(sizes, seed=1):
    """Targets far from the source, laid out group by group."""
    rng = np.random.default_rng(seed)
    gc = np.asarray(sizes, dtype=np.int64)
    gf = np.concatenate(([0], np.cumsum(gc)[:-1]))
    tpos = rng.normal(size=(int(gc.sum()), 3)) * 0.5 + [8.0, 0.0, 0.0]
    return tpos, gf, gc


def _pairs(n_groups, cells, k, seed=2):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, n_groups, k).astype(np.int64),
            rng.choice(cells, k).astype(np.int64))


def _rows(first_a, count_a, first_b, count_b):
    """All (a, b) index rows of the pairs' [first, first + count) ranges."""
    ta, tb = [], []
    for fa, ca, fb, cb in zip(first_a, count_a, first_b, count_b):
        a, b = np.meshgrid(np.arange(fa, fa + ca), np.arange(fb, fb + cb),
                           indexing="ij")
        ta.append(a.ravel())
        tb.append(b.ravel())
    if not ta:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(ta), np.concatenate(tb)


def _reference(tpos, source, spos, smass, pc, pp, gf, gc, eps2,
               quadrupole=True, exclude_self=False):
    acc = np.zeros((len(tpos), 3))
    phi = np.zeros(len(tpos))
    pc_g, pc_c = pc
    t, c = _rows(gf[pc_g], gc[pc_g], pc_c, np.ones_like(pc_c))
    d = source.com[c] - tpos[t]
    quad = source.quad[c] if quadrupole else None
    for k, v in enumerate(pc_interactions(d[:, 0], d[:, 1], d[:, 2],
                                          source.mass[c], quad, eps2)):
        np.add.at(acc[:, k] if k < 3 else phi, t, v)
    n_pc = len(t)
    pp_g, pp_c = pp
    t, s = _rows(gf[pp_g], gc[pp_g],
                 source.body_first[pp_c], source.body_count[pp_c])
    n_pp = len(t)
    if exclude_self:
        t, s = t[t != s], s[t != s]
    d = spos[s] - tpos[t]
    for k, v in enumerate(pp_interactions(d[:, 0], d[:, 1], d[:, 2],
                                          smass[s], eps2)):
        np.add.at(acc[:, k] if k < 3 else phi, t, v)
    return acc, phi, n_pc, n_pp


def _blocked(tpos, source, spos, smass, pc, pp, gf, gc, eps2,
             quadrupole=True, exclude_self=False, chunk=DEFAULT_CHUNK):
    acc = np.zeros((len(tpos), 3))
    phi = np.zeros(len(tpos))
    counts = InteractionCounts(quadrupole=quadrupole)
    ws = KernelWorkspace(chunk)
    sv = SourceView.build(source, spos, smass)
    evaluate_pc_pairs(acc, phi, tpos, source, *pc, gf, gc, eps2, quadrupole,
                      counts, chunk, workspace=ws, sview=sv)
    evaluate_pp_pairs(acc, phi, tpos, spos, smass, *pp, gf, gc,
                      source.body_first, source.body_count, eps2, counts,
                      exclude_self=exclude_self, chunk=chunk, workspace=ws,
                      sview=sv)
    return acc, phi, counts.n_pc, counts.n_pp


def _assert_match(got, ref):
    acc, phi, n_pc, n_pp = got
    racc, rphi, rn_pc, rn_pp = ref
    assert (n_pc, n_pp) == (rn_pc, rn_pp)
    # Summation order differs (pairwise segment sums vs sequential
    # add.at), so components that nearly cancel get an absolute floor
    # at the scale of the largest one.
    np.testing.assert_allclose(acc, racc, rtol=1e-14,
                               atol=1e-14 * np.abs(racc).max())
    np.testing.assert_allclose(phi, rphi, rtol=1e-14,
                               atol=1e-14 * np.abs(rphi).max())


def _case(sizes, chunk=DEFAULT_CHUNK, quadrupole=True, k_pc=300, k_pp=120,
          source=None):
    tree, spos, smass = source or _source()
    tpos, gf, gc = _groups(sizes)
    leaves = np.flatnonzero(tree.n_children == 0)
    pc = _pairs(len(gc), np.arange(len(tree.mass)), k_pc, seed=3)
    pp = _pairs(len(gc), leaves, k_pp, seed=4)
    args = (tpos, tree, spos, smass, pc, pp, gf, gc, 1e-4)
    _assert_match(_blocked(*args, quadrupole=quadrupole, chunk=chunk),
                  _reference(*args, quadrupole=quadrupole))


def test_groups_of_size_one_and_ncrit():
    _case([1, NCRIT, 1, 1, NCRIT, 1])


def test_single_size_bucket():
    _case([8] * 12)


def test_every_group_size_differs():
    _case(list(range(1, 20)) + [NCRIT])


@pytest.mark.parametrize("chunk", [1, 5, 97])
def test_chunk_one_and_chunks_below_a_group_block(chunk):
    # 5 < one group's 8-slot column and 97 < NCRIT x a few columns: every
    # block is cut mid-group, and chunk=1 evaluates one column at a time.
    _case([3, 8, NCRIT, 8, 1], chunk=chunk, k_pc=60, k_pp=25)


def test_monopole_only():
    _case(list(range(1, 12)), quadrupole=False)


def test_pruned_leaves_without_bodies():
    # A LET prunes the bodies of leaves the receiver accepts as
    # multipoles: those leaves keep their cell but own zero bodies.
    tree, spos, smass = _source()
    leaves = np.flatnonzero(tree.n_children == 0)
    tree.body_count = tree.body_count.copy()
    tree.body_count[leaves[::3]] = 0
    _case([2, 7, 7, 30], source=(tree, spos, smass))


def test_self_pairs_at_zero_softening_are_warning_clean():
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(500, 3))
    mass = rng.uniform(0.5, 1.0, 500)
    tree = build_octree(pos, nleaf=8)
    compute_moments(tree, pos, mass)
    compute_opening_radii(tree, 0.5, "bonsai")
    make_groups(tree, NCRIT)
    spos, smass = pos[tree.order], mass[tree.order]
    gf, gc = tree.group_first, tree.group_count
    assert len(np.unique(gc)) > 1          # pads in merged blocks
    pc_g, pc_c, pp_g, pp_c, _ = walk_interaction_lists(
        tree, *group_aabbs(tree, spos))
    args = (spos, tree, spos, smass, (pc_g, pc_c), (pp_g, pp_c), gf, gc, 0.0)
    for chunk in (DEFAULT_CHUNK, 50):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _blocked(*args, exclude_self=True, chunk=chunk)
        assert np.isfinite(got[0]).all() and np.isfinite(got[1]).all()
        _assert_match(got, _reference(*args, exclude_self=True))


def test_forest_source():
    rng = np.random.default_rng(7)
    pos = rng.normal(size=(2000, 3))
    mass = rng.uniform(0.5, 1.0, 2000)
    box = BoundingBox.from_positions(pos)
    parts = np.array_split(np.argsort(pos[:, 0], kind="stable"), 3)

    def make(idx):
        t = build_octree(pos[idx], nleaf=8, box=box)
        compute_moments(t, pos[idx], mass[idx])
        compute_opening_radii(t, 0.5, "bonsai")
        make_groups(t, NCRIT)
        return t, pos[idx][t.order], mass[idx][t.order]

    target, tpos, _ = make(parts[0])
    forest = SourceForest.concatenate(
        [boundary_structure(*make(p)) for p in parts[1:]], ranks=(1, 2))
    fpc_g, fpc_c, fpp_g, fpp_c, _ = walk_forest_interaction_lists(
        forest, *group_aabbs(target, tpos))
    pc_g, pc_c, pc_s = split_by_source(forest, fpc_g, fpc_c)
    pp_g, pp_c, pp_s = split_by_source(forest, fpp_g, fpp_c)
    assert len(pc_g) and len(pp_g)
    gf, gc = target.group_first, target.group_count
    args = (tpos, forest, forest.part_pos, forest.part_mass,
            (pc_g, pc_c), (pp_g, pp_c), gf, gc, 1e-4)
    _assert_match(_blocked(*args), _reference(*args))


def test_small_buckets_merge_into_one_block():
    # Sixteen distinct group sizes, two pairs each: one padded block.
    width = np.repeat(np.arange(1, 17), 2)
    cum = np.arange(1, len(width) + 1)
    assert list(_blocks(width, cum, 4096)) == [(0, 32, 16)]
    # A bucket that fills a chunk on its own stays exact-width.
    width = np.concatenate((np.full(3, 2), np.full(600, 8)))
    cum = np.arange(1, len(width) + 1)
    assert [blk[2] for blk in _blocks(width, cum, 4096)] == [2, 8, 8]
