"""Fast-path force pipeline equivalence: batched forest walks and the
sort cache.

The tentpole invariant: every fast-path knob is a pure optimisation.
The batched multi-source walk must produce *byte-identical* interaction
counts and *bitwise-equal* forces to the reference one-walk-per-source
path (under the deterministic tracer, which fixes LET arrival order for
both).
"""

import numpy as np
import pytest

from repro import SimulationConfig
from repro.core.parallel_simulation import ParallelSimulation
from repro.gravity import (
    SourceForest,
    split_by_source,
    walk_interaction_lists,
)
from repro.gravity.forest import walk_forest_interaction_lists
from repro.gravity.treewalk import group_aabbs
from repro.ics import plummer_model
from repro.obs import Tracer, VirtualClock
from repro.octree import (
    build_octree,
    compute_moments,
    compute_opening_radii,
    make_groups,
)
from repro.parallel import boundary_structure
from repro.sfc import BoundingBox
from repro.simmpi import SimWorld, spmd_run

N = 1024


def _cfg(**kw):
    base = dict(theta=0.5, softening=0.02, dt=0.01)
    base.update(kw)
    return SimulationConfig(**base)


def _forces(particles, config, n_ranks, steps=0, load_balance="flops"):
    """One traced distributed force evaluation (+ optional steps).

    The deterministic virtual clock fixes LET consumption order, so two
    configurations that promise bitwise-equal forces can be compared
    exactly.  Returns id-ordered (acc, phi), per-rank count tuples and
    the per-rank peak frontier widths.
    """
    n = particles.n
    world = SimWorld(n_ranks)
    world.attach_tracer(Tracer(clock=VirtualClock()))

    def prog(comm):
        lo = n * comm.rank // comm.size
        hi = n * (comm.rank + 1) // comm.size
        sim = ParallelSimulation(comm, particles.select(np.arange(lo, hi)),
                                 config, load_balance=load_balance)
        sim.prime()
        for _ in range(steps):
            sim.step()
        r = sim._result
        return (sim.particles.ids, sim._acc, sim._phi,
                (r.counts_local.n_pp, r.counts_local.n_pc,
                 r.counts_let.n_pp, r.counts_let.n_pc),
                r.max_frontier)

    results = spmd_run(n_ranks, prog, world=world, timeout=300.0)
    ids = np.concatenate([r[0] for r in results])
    order = np.argsort(ids, kind="stable")
    acc = np.concatenate([r[1] for r in results])[order]
    phi = np.concatenate([r[2] for r in results])[order]
    counts = [r[3] for r in results]
    frontiers = [r[4] for r in results]
    return acc, phi, counts, frontiers


# -- batched forest vs per-source walks (the tentpole) --------------------

@pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
def test_batched_forest_bitwise_matches_per_source(n_ranks):
    particles = plummer_model(N, seed=11)
    ref = _forces(particles, _cfg(batch_sources=False), n_ranks)
    fast = _forces(particles, _cfg(batch_sources=True), n_ranks)
    assert fast[2] == ref[2]                      # counts byte-identical
    assert fast[0].tobytes() == ref[0].tobytes()  # forces bitwise equal
    assert fast[1].tobytes() == ref[1].tobytes()
    assert all(f >= 1 for f in fast[3])


def test_batched_forest_matches_after_steps():
    # Multiple steps: the comparison also covers sort-cache reuse and the
    # keys carried through the exchange.
    particles = plummer_model(N, seed=12)
    ref = _forces(particles, _cfg(batch_sources=False), 4, steps=2)
    fast = _forces(particles, _cfg(batch_sources=True), 4, steps=2)
    assert fast[2] == ref[2]
    assert fast[0].tobytes() == ref[0].tobytes()


def test_sort_reuse_off_matches_on():
    # Plummer keys are distinct, so tie-breaking cannot bite: reusing
    # the sort permutation must reproduce the cold-sort forces exactly.
    particles = plummer_model(N, seed=15)
    on = _forces(particles, _cfg(sort_reuse=True), 2, steps=2)
    off = _forces(particles, _cfg(sort_reuse=False), 2, steps=2)
    assert on[2] == off[2]
    assert on[0].tobytes() == off[0].tobytes()


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


def test_forest_pairs_equal_per_source_walks(slabs):
    sources, gmin, gmax = slabs
    forest = SourceForest.concatenate(sources, ranks=range(1, 4))
    assert forest.n_sources == 3
    assert forest.n_cells == sum(len(s.mass) for s in sources)
    fpc_g, fpc_c, fpp_g, fpp_c, mf = walk_forest_interaction_lists(
        forest, gmin, gmax)
    pc_g, pc_c, pc_s = split_by_source(forest, fpc_g, fpc_c)
    pp_g, pp_c, pp_s = split_by_source(forest, fpp_g, fpp_c)
    assert mf >= 1
    for i, src in enumerate(sources):
        rpc_g, rpc_c, rpp_g, rpp_c, _ = walk_interaction_lists(
            src, gmin, gmax)
        off = forest.cell_offsets[i]
        a, b = pc_s[i], pc_s[i + 1]
        assert np.array_equal(pc_g[a:b], rpc_g)
        assert np.array_equal(pc_c[a:b] - off, rpc_c)
        a, b = pp_s[i], pp_s[i + 1]
        assert np.array_equal(pp_g[a:b], rpp_g)
        assert np.array_equal(pp_c[a:b] - off, rpp_c)


def test_forest_empty_pair_split(slabs):
    sources, _, _ = slabs
    forest = SourceForest.concatenate(sources, ranks=range(1, 4))
    e = np.empty(0, dtype=np.int64)
    pg, pc, starts = split_by_source(forest, e, e)
    assert len(pg) == 0 and len(pc) == 0
    assert np.array_equal(starts, np.zeros(4, dtype=np.int64))


def test_forest_rejects_zero_sources():
    with pytest.raises(ValueError):
        SourceForest.concatenate([], [])


def test_config_validates_fast_path_knobs():
    nan = float("nan")
    for kw in (dict(chunk=0),
               # NaN passes every "<= 0" bound check, so each float
               # knob must be rejected as non-finite explicitly.
               dict(theta=nan), dict(dt=nan), dict(softening=nan),
               dict(watchdog_grace=nan)):
        with pytest.raises(ValueError):
            SimulationConfig(**kw)
    # The scatter knob is gone with the bincount path it selected.
    with pytest.raises(TypeError):
        SimulationConfig(scatter="segment")


def test_sort_reuse_bitwise_under_forced_rebalance():
    # Measured LB with trigger ratio 1.0 rebalances on every step, the
    # adversarial case for a sort permutation surviving an exchange: the
    # layout epoch must drop it, so reused sorts stay bitwise equal to
    # cold ones.  Cut weights come from interaction counts
    # (lb_source="counts") so the decomposition is timing-independent.
    particles = plummer_model(N, seed=26)

    def run(config):
        n = particles.n
        world = SimWorld(4)
        world.attach_tracer(Tracer(clock=VirtualClock()))

        def prog(comm):
            lo = n * comm.rank // comm.size
            hi = n * (comm.rank + 1) // comm.size
            sim = ParallelSimulation(
                comm, particles.select(np.arange(lo, hi)), config,
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

    acc_ref, _ = run(_cfg(sort_reuse=False))
    acc_on, bumps = run(_cfg(sort_reuse=True))
    assert bumps > 0      # the hazard was actually exercised
    assert acc_on.tobytes() == acc_ref.tobytes()
