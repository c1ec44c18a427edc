"""Remote-force pipeline equivalence: the whole-forest evaluation and the
sort cache.

The remote half of a distributed force pass is one forest: every
sufficient boundary plus every full LET, walked once and evaluated
once.  These tests hold it against a reference built here from the
public pieces -- one ``walk_interaction_lists`` plus one evaluation per
source, summed -- with byte-identical interaction counts and forces
equal to float64 round-off (bitwise when a rank has one remote source).
"""

import dataclasses

import numpy as np
import pytest

from repro import SimulationConfig
from repro.core.parallel_simulation import ParallelSimulation
from repro.gravity import SourceForest, walk_interaction_lists
from repro.gravity.flops import InteractionCounts
from repro.gravity.forest import walk_forest_interaction_lists
from repro.gravity.treewalk import (
    evaluate_pc_pairs,
    evaluate_pp_pairs,
    group_aabbs,
)
from repro.ics import plummer_model
from repro.obs import Tracer, VirtualClock
from repro.octree import (
    build_octree,
    compute_moments,
    compute_opening_radii,
    make_groups,
)
from repro.parallel import boundary_structure
from repro.parallel.lettree import boundary_sufficient_for, build_let_for_box
from repro.sfc import BoundingBox
from repro.sfc.sortcache import SortCache
from repro.simmpi import SimWorld, spmd_run

N = 1024


def _cfg(**kw):
    base = dict(theta=0.5, softening=0.02, dt=0.01)
    base.update(kw)
    return SimulationConfig(**base)


def _cold_order_for(self, keys, epoch=None):
    """Stand-in for :meth:`SortCache.order_for` that never reuses."""
    self.last_mode = "cold"
    return np.argsort(keys, kind="stable")


def _run(particles, config, n_ranks, steps=0, traced=True):
    """One distributed force evaluation (+ optional steps) per rank.

    Returns one ``(ids, acc, phi, particles, result)`` tuple per rank:
    the driver's id and force arrays in its local particle order, the
    local particle set and the final :class:`DistributedForceResult`.
    """
    n = particles.n
    world = SimWorld(n_ranks)
    if traced:
        world.attach_tracer(Tracer(clock=VirtualClock()))

    def prog(comm):
        lo = n * comm.rank // comm.size
        hi = n * (comm.rank + 1) // comm.size
        sim = ParallelSimulation(comm, particles.select(np.arange(lo, hi)),
                                 config, load_balance="flops")
        sim.prime()
        for _ in range(steps):
            sim.step()
        return (sim.particles.ids, sim._acc, sim._phi, sim.particles,
                sim._result)

    return spmd_run(n_ranks, prog, world=world, timeout=300.0)


def _by_id(ranks, arrays):
    """Concatenate per-rank arrays and put them in particle-id order."""
    ids = np.concatenate([r[0] for r in ranks])
    return np.concatenate(arrays)[np.argsort(ids, kind="stable")]


def _counts(result):
    return (result.counts_local.n_pp, result.counts_local.n_pc,
            result.counts_let.n_pp, result.counts_let.n_pc)


def _per_source_reference(ranks, config):
    """Forces from one walk and one evaluation per source, summed.

    Each rank's trees and particles come from the pipeline's run; the
    remote sources are rebuilt here from them (the boundary where it
    suffices for the target domain, a full LET otherwise).  Returns
    per-rank ``(acc, phi, counts)`` in local particle order.
    """
    eps2 = config.softening ** 2
    q = config.quadrupole
    sorted_sets = []
    for r in ranks:
        ps, tree = r[3], r[4].tree
        sorted_sets.append((tree, ps.pos[tree.order], ps.mass[tree.order]))
    out = []
    for i, (tree, spos, smass) in enumerate(sorted_sets):
        gmin, gmax = group_aabbs(tree, spos)
        box = (tree.bmin[0], tree.bmax[0])
        local = InteractionCounts(quadrupole=q)
        let = InteractionCounts(quadrupole=q)
        sources = [(tree, spos, smass, local, True)]
        for j, (rtree, rspos, rsmass) in enumerate(sorted_sets):
            if j == i:
                continue
            src = boundary_structure(rtree, rspos, rsmass)
            if not boundary_sufficient_for(src, *box):
                src = build_let_for_box(rtree, rspos, rsmass, *box)
            sources.append((src, src.part_pos, src.part_mass, let, False))
        acc_s = np.zeros((len(spos), 3))
        phi_s = np.zeros(len(spos))
        for src, sp, sm, counts, exclude_self in sources:
            pc_g, pc_c, pp_g, pp_c, _ = walk_interaction_lists(
                src, gmin, gmax)
            evaluate_pc_pairs(acc_s, phi_s, spos, src, pc_g, pc_c,
                              tree.group_first, tree.group_count, eps2, q,
                              counts)
            evaluate_pp_pairs(acc_s, phi_s, spos, sp, sm, pp_g, pp_c,
                              tree.group_first, tree.group_count,
                              src.body_first, src.body_count, eps2, counts,
                              exclude_self=exclude_self)
        acc = np.empty_like(acc_s)
        phi = np.empty_like(phi_s)
        acc[tree.order] = acc_s
        phi[tree.order] = phi_s
        out.append((acc, phi, (local.n_pp, local.n_pc, let.n_pp, let.n_pc)))
    return out


def _assert_matches_reference(ranks, config):
    ref = _per_source_reference(ranks, config)
    assert [_counts(r[4]) for r in ranks] == [x[2] for x in ref]
    acc, racc = _by_id(ranks, [r[1] for r in ranks]), \
        _by_id(ranks, [x[0] for x in ref])
    phi, rphi = _by_id(ranks, [r[2] for r in ranks]), \
        _by_id(ranks, [x[1] for x in ref])
    if len(ranks) <= 2:
        # At most one remote source: the forest holds exactly the pairs
        # of that source's own walk, so the sums are the same sums.
        assert acc.tobytes() == racc.tobytes()
        assert phi.tobytes() == rphi.tobytes()
    # Accumulation order differs across sources, so components that
    # nearly cancel get an absolute floor (as in test_gravity_blocked).
    np.testing.assert_allclose(acc, racc, rtol=1e-14,
                               atol=1e-14 * np.abs(racc).max())
    np.testing.assert_allclose(phi, rphi, rtol=1e-14,
                               atol=1e-14 * np.abs(rphi).max())


# -- whole-forest evaluation vs per-source walks --------------------------

@pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
def test_batched_forest_bitwise_matches_per_source(n_ranks):
    config = _cfg()
    ranks = _run(plummer_model(N, seed=11), config, n_ranks)
    _assert_matches_reference(ranks, config)
    assert all(r[4].max_frontier >= 1 for r in ranks)


def test_batched_forest_matches_after_steps():
    # Multiple steps: the comparison also covers sort-cache reuse and the
    # keys carried through the exchange.
    config = _cfg()
    ranks = _run(plummer_model(N, seed=12), config, 4, steps=2)
    _assert_matches_reference(ranks, config)


def test_untraced_run_matches_traced_bitwise():
    # Traced and untraced runs execute the same program: the tracer's
    # clock must not change which LET is consumed when.
    particles = plummer_model(N, seed=13)
    traced = _run(particles, _cfg(), 4, steps=1)
    untraced = _run(particles, _cfg(), 4, steps=1, traced=False)
    assert [_counts(r[4]) for r in traced] == \
        [_counts(r[4]) for r in untraced]
    acc_t = _by_id(traced, [r[1] for r in traced])
    acc_u = _by_id(untraced, [r[1] for r in untraced])
    assert acc_t.tobytes() == acc_u.tobytes()


def test_sort_cache_matches_cold_sort(monkeypatch):
    # Plummer keys are distinct, so tie-breaking cannot bite: reusing
    # the sort permutation must reproduce the cold-sort forces exactly.
    particles = plummer_model(N, seed=15)
    on = _run(particles, _cfg(), 2, steps=2)
    with monkeypatch.context() as m:
        m.setattr(SortCache, "order_for", _cold_order_for)
        off = _run(particles, _cfg(), 2, steps=2)
    assert [_counts(r[4]) for r in on] == [_counts(r[4]) for r in off]
    assert _by_id(on, [r[1] for r in on]).tobytes() == \
        _by_id(off, [r[1] for r in off]).tobytes()


# -- forest walk unit tests ----------------------------------------------

@pytest.fixture(scope="module")
def slabs():
    """A target tree plus three remote boundary structures, shared box."""
    rng = np.random.default_rng(7)
    pos = rng.normal(size=(4000, 3))
    mass = rng.uniform(0.5, 1.0, 4000)
    box = BoundingBox.from_positions(pos)
    parts = np.array_split(np.argsort(pos[:, 0], kind="stable"), 4)

    def make(idx):
        t = build_octree(pos[idx], nleaf=16, box=box)
        compute_moments(t, pos[idx], mass[idx])
        compute_opening_radii(t, 0.5, "bonsai")
        make_groups(t, 64)
        sp = pos[idx][t.order]
        sm = mass[idx][t.order]
        return t, sp, sm

    target, tsp, _ = make(parts[0])
    sources = [boundary_structure(*make(p)) for p in parts[1:]]
    gmin, gmax = group_aabbs(target, tsp)
    return sources, gmin, gmax


def _by_cell_group(g, c):
    order = np.lexsort((g, c))
    return c[order], g[order]


def test_forest_pairs_equal_per_source_walks(slabs):
    sources, gmin, gmax = slabs
    forest = SourceForest.concatenate(sources, ranks=range(1, 4))
    assert forest.n_sources == 3
    assert forest.n_cells == sum(len(s.mass) for s in sources)
    fpc_g, fpc_c, fpp_g, fpp_c, mf = walk_forest_interaction_lists(
        forest, gmin, gmax)
    assert mf >= 1
    walks = [walk_interaction_lists(src, gmin, gmax) for src in sources]
    offs = forest.cell_offsets[:-1]
    for fg, fc, k in ((fpc_g, fpc_c, 0), (fpp_g, fpp_c, 2)):
        g = np.concatenate([w[k] for w in walks])
        c = np.concatenate([w[k + 1] + o for w, o in zip(walks, offs)])
        for got, want in zip(_by_cell_group(fg, fc), _by_cell_group(g, c)):
            assert np.array_equal(got, want)


def test_forest_rejects_zero_sources():
    with pytest.raises(ValueError):
        SourceForest.concatenate([], [])


def test_config_validates_fields():
    nan = float("nan")
    for kw, field in (
            # NaN passes every "<= 0" bound check, so each float
            # knob must be rejected as non-finite explicitly.
            (dict(theta=nan), "theta"), (dict(dt=nan), "dt"),
            (dict(softening=nan), "softening"),
            (dict(watchdog_grace=nan), "watchdog_grace"),
            # Tree parameters are ints >= 1 and a real bool, checked
            # here rather than at the first force pass on some rank.
            (dict(nleaf=0), "nleaf"), (dict(ncrit=0), "ncrit"),
            (dict(nleaf=16.5), "nleaf"), (dict(ncrit=2.5), "ncrit"),
            (dict(nleaf=True), "nleaf"),
            (dict(quadrupole="no"), "quadrupole"),
            (dict(quadrupole=1), "quadrupole")):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**kw)
    assert SimulationConfig(nleaf=np.int64(8), ncrit=32).nleaf == 8
    # Exactly these fields: a removed one is rejected, not ignored.
    assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
        "theta", "softening", "dt", "nleaf", "ncrit", "mac", "curve",
        "quadrupole", "force_method", "transport", "watchdog_grace"]
    for kw in (dict(scatter="segment"), dict(chunk=4096)):
        with pytest.raises(TypeError):
            SimulationConfig(**kw)


def test_sort_cache_bitwise_under_forced_rebalance(monkeypatch):
    # Measured LB with trigger ratio 1.0 rebalances on every step, the
    # adversarial case for a sort permutation surviving an exchange: the
    # layout epoch must drop it, so reused sorts stay bitwise equal to
    # cold ones.  Cut weights come from interaction counts
    # (lb_source="counts") so the decomposition is timing-independent.
    particles = plummer_model(N, seed=26)

    def run():
        n = particles.n
        world = SimWorld(4)
        world.attach_tracer(Tracer(clock=VirtualClock()))

        def prog(comm):
            lo = n * comm.rank // comm.size
            hi = n * (comm.rank + 1) // comm.size
            sim = ParallelSimulation(
                comm, particles.select(np.arange(lo, hi)), _cfg(),
                load_balance="measured", lb_source="counts",
                lb_trigger_ratio=1.0)
            sim.prime()
            for _ in range(3):
                sim.step()
            return sim.particles.ids, sim._acc, sim._layout_epoch

        results = spmd_run(4, prog, world=world, timeout=300.0)
        ids = np.concatenate([r[0] for r in results])
        order = np.argsort(ids, kind="stable")
        acc = np.concatenate([r[1] for r in results])[order]
        bumps = sum(r[2] for r in results)
        return acc, bumps

    with monkeypatch.context() as m:
        m.setattr(SortCache, "order_for", _cold_order_for)
        acc_ref, _ = run()
    acc_on, bumps = run()
    assert bumps > 0      # the hazard was actually exercised
    assert acc_on.tobytes() == acc_ref.tobytes()
