"""Tests for the group-centric Barnes-Hut tree walk."""

import numpy as np
import pytest

from repro.gravity import direct_forces, tree_forces
from repro.gravity.flops import InteractionCounts
from repro.gravity.treewalk import (
    evaluate_pc_pairs,
    evaluate_pp_pairs,
    group_aabbs,
    walk_interaction_lists,
)
from repro.ics import plummer_model
from repro.octree import build_octree, compute_moments, compute_opening_radii, make_groups


def _forces(ps, theta, eps=0.02, **kw):
    tree = build_octree(ps.pos, nleaf=16)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 64)
    return tree_forces(tree, ps.pos, ps.mass, theta=theta, eps=eps, **kw), tree


def _rel_err(a, b):
    return np.linalg.norm(a - b, axis=1) / np.linalg.norm(b, axis=1)


def test_accuracy_at_production_theta(small_plummer, plummer_direct):
    res, _ = _forces(small_plummer, theta=0.4)
    err = _rel_err(res.acc, plummer_direct[0])
    assert np.median(err) < 2e-4
    assert err.max() < 0.05


def test_converges_to_direct_as_theta_shrinks(small_plummer, plummer_direct):
    medians = []
    for theta in (1.0, 0.5, 0.25):
        res, _ = _forces(small_plummer, theta=theta)
        medians.append(np.median(_rel_err(res.acc, plummer_direct[0])))
    assert medians[0] > medians[1] > medians[2]
    assert medians[2] < 5e-5


def test_potential_accuracy(small_plummer, plummer_direct):
    res, _ = _forces(small_plummer, theta=0.4)
    err = np.abs((res.phi - plummer_direct[1]) / plummer_direct[1])
    assert np.median(err) < 5e-5


def test_tiny_theta_equals_direct():
    """At a tiny opening angle every interaction is p-p and the result
    matches direct summation to round-off ("reduces to a rather
    inefficient direct N-body code")."""
    rng = np.random.default_rng(24)
    from repro.particles import ParticleSet
    ps = ParticleSet(pos=rng.normal(size=(300, 3)),
                     vel=np.zeros((300, 3)),
                     mass=rng.uniform(0.5, 1.0, 300))
    res, _ = _forces(ps, theta=0.02)
    acc_d, phi_d = direct_forces(ps.pos, ps.mass, eps=0.02)
    assert np.allclose(res.acc, acc_d, rtol=1e-8, atol=1e-10)
    assert res.counts.n_pc == 0 or res.counts.n_pp > 0.9 * 300 * 299


def test_quadrupole_beats_monopole(small_plummer, plummer_direct):
    res_q, _ = _forces(small_plummer, theta=0.6, quadrupole=True)
    res_m, _ = _forces(small_plummer, theta=0.6, quadrupole=False)
    err_q = np.median(_rel_err(res_q.acc, plummer_direct[0]))
    err_m = np.median(_rel_err(res_m.acc, plummer_direct[0]))
    assert err_q < err_m


def test_bonsai_mac_beats_bh_at_same_theta(small_plummer, plummer_direct):
    res_bonsai, _ = _forces(small_plummer, theta=0.6, mac="bonsai")
    res_bh, _ = _forces(small_plummer, theta=0.6, mac="bh")
    err_bonsai = np.median(_rel_err(res_bonsai.acc, plummer_direct[0]))
    err_bh = np.median(_rel_err(res_bh.acc, plummer_direct[0]))
    # The COM-offset term only ever opens *more* cells -> at least as good.
    assert err_bonsai <= err_bh * 1.05
    assert res_bonsai.counts.n_pp + res_bonsai.counts.n_pc >= \
        res_bh.counts.n_pp + res_bh.counts.n_pc


def test_momentum_approximately_conserved(small_plummer):
    res, _ = _forces(small_plummer, theta=0.4)
    f = (small_plummer.mass[:, None] * res.acc).sum(axis=0)
    fmag = np.abs(small_plummer.mass[:, None] * res.acc).sum()
    assert np.linalg.norm(f) < 1e-3 * fmag


def test_counts_match_walk_lists(small_plummer):
    """The tallied interaction counts must equal the walk's list sizes."""
    ps = small_plummer
    tree = build_octree(ps.pos, nleaf=16)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 64)
    res = tree_forces(tree, ps.pos, ps.mass, theta=0.5, eps=0.02)
    compute_opening_radii(tree, 0.5, "bonsai")
    spos = ps.pos[tree.order]
    gmin, gmax = group_aabbs(tree, spos)
    pc_g, pc_c, pp_g, pp_c, _ = walk_interaction_lists(tree, gmin, gmax)
    n_pc = int(tree.group_count[pc_g].sum())
    n_pp = int((tree.group_count[pp_g] * tree.body_count[pp_c]).sum())
    assert res.counts.n_pc == n_pc
    assert res.counts.n_pp == n_pp


def test_chunking_invariance(small_plummer):
    r1, _ = _forces(small_plummer, theta=0.5, chunk=1 << 21)
    r2, _ = _forces(small_plummer, theta=0.5, chunk=4096)
    assert np.allclose(r1.acc, r2.acc, rtol=1e-10)
    assert r1.counts.n_pp == r2.counts.n_pp
    assert r1.counts.n_pc == r2.counts.n_pc


def test_walk_covers_total_mass(small_plummer):
    """For one group, accepted cells + opened leaves + self must account
    for every particle exactly once (no double counting, no gaps)."""
    ps = small_plummer
    tree = build_octree(ps.pos, nleaf=16)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 64)
    compute_opening_radii(tree, 0.5, "bonsai")
    spos = ps.pos[tree.order]
    gmin, gmax = group_aabbs(tree, spos)
    pc_g, pc_c, pp_g, pp_c, _ = walk_interaction_lists(tree, gmin, gmax)
    g = 0
    cells = np.concatenate([pc_c[pc_g == g], pp_c[pp_g == g]])
    covered = tree.body_count[cells].sum()
    assert covered == tree.n_bodies


def test_bodies_counted_once_per_group(small_plummer):
    """Interaction ranges of one group's cells must be disjoint."""
    ps = small_plummer
    tree = build_octree(ps.pos, nleaf=16)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 64)
    compute_opening_radii(tree, 0.5, "bonsai")
    spos = ps.pos[tree.order]
    gmin, gmax = group_aabbs(tree, spos)
    pc_g, pc_c, pp_g, pp_c, _ = walk_interaction_lists(tree, gmin, gmax)
    for g in (0, 1):
        cells = np.concatenate([pc_c[pc_g == g], pp_c[pp_g == g]])
        ivs = sorted((int(tree.body_first[c]),
                      int(tree.body_first[c] + tree.body_count[c]))
                     for c in cells)
        for (a1, b1), (a2, b2) in zip(ivs[:-1], ivs[1:]):
            assert b1 <= a2


def test_requires_groups(small_plummer):
    ps = small_plummer
    tree = build_octree(ps.pos)
    compute_moments(tree, ps.pos, ps.mass)
    with pytest.raises(ValueError):
        tree_forces(tree, ps.pos, ps.mass, theta=0.5)


def test_interaction_counts_grow_with_n():
    """p-c per particle must increase with N (the log-growth the perf
    model depends on)."""
    from repro.ics import plummer_model
    pcs = []
    for n in (1000, 4000, 16000):
        ps = plummer_model(n, seed=25)
        res, _ = _forces(ps, theta=0.5)
        pcs.append(res.counts.n_pc / n)
    assert pcs[0] < pcs[1] < pcs[2]


def test_single_particle_and_eps_zero_edges():
    # Two particles at eps = 0: every pair list is tiny or pure
    # self-pairs, and self-exclusion must keep the result finite.
    ps = plummer_model(2, seed=5)
    res, _ = _forces(ps, theta=0.5, eps=0.0)
    assert np.isfinite(res.acc).all() and np.isfinite(res.phi).all()


def test_empty_pair_lists_are_noops():
    empty = np.empty(0, dtype=np.int64)
    acc = np.zeros((4, 3))
    phi = np.zeros(4)
    ps = plummer_model(4, seed=9)
    tree = build_octree(ps.pos, nleaf=8)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 16)
    counts = InteractionCounts()
    evaluate_pc_pairs(acc, phi, ps.pos, tree, empty, empty,
                      tree.group_first, tree.group_count, 1e-4, True, counts)
    evaluate_pp_pairs(acc, phi, ps.pos, ps.pos, ps.mass, empty, empty,
                      tree.group_first, tree.group_count,
                      tree.body_first, tree.body_count, 1e-4,
                      counts, exclude_self=True)
    assert counts.n_pp == counts.n_pc == 0
    assert not acc.any() and not phi.any()


def test_chunk_below_one_rejected():
    # chunk sizes the evaluation blocks; 0 used to divide by zero deep
    # inside the chunk layout instead of failing at the entry point.
    ps = plummer_model(64, seed=10)
    tree = build_octree(ps.pos, nleaf=8)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 16)
    with pytest.raises(ValueError, match="chunk"):
        tree_forces(tree, ps.pos, ps.mass, theta=0.4, chunk=0)
    empty = np.empty(0, dtype=np.int64)
    acc, phi, counts = np.zeros((64, 3)), np.zeros(64), InteractionCounts()
    with pytest.raises(ValueError, match="chunk"):
        evaluate_pc_pairs(acc, phi, ps.pos, tree, empty, empty,
                          tree.group_first, tree.group_count, 1e-4, True,
                          counts, chunk=0)
    with pytest.raises(ValueError, match="chunk"):
        evaluate_pp_pairs(acc, phi, ps.pos, ps.pos, ps.mass, empty, empty,
                          tree.group_first, tree.group_count,
                          tree.body_first, tree.body_count, 1e-4,
                          counts, exclude_self=True, chunk=0)
