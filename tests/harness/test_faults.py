"""Fault-injection harness tests: schedule DSL + FaultyWorld semantics.

The headline acceptance scenario lives here: a seeded
delay+reorder+duplicate schedule must be *transparent* to a 4-rank
``ParallelSimulation`` (forces match the fault-free run to machine
precision, logical traffic identical), while an injected rank crash
must surface as a typed ``RankFailedError`` well within the configured
timeout instead of hanging.
"""

import time

import numpy as np
import pytest

from repro import SimulationConfig
from repro.core.parallel_simulation import gather_particles, run_parallel_simulation
from repro.faults import FaultSchedule, FaultSpec, FaultyWorld, parse_schedule
from repro.ics import plummer_model
from repro.simmpi import RankFailedError, spmd_run
from repro.testing import max_rel_difference, parallel_forces

#: The acceptance-criteria schedule: every maskable fault kind at once.
MASKABLE = "delay(prob=0.3, max=1ms); reorder(prob=0.5); duplicate(prob=0.25)"


@pytest.fixture(scope="module")
def ps():
    return plummer_model(1536, seed=11)


@pytest.fixture(scope="module")
def cfg():
    return SimulationConfig(theta=0.5, softening=0.02, dt=0.01)


# -- DSL ------------------------------------------------------------------

def test_dsl_parse_and_roundtrip():
    s = parse_schedule(
        "delay(prob=0.3, max=2ms); reorder(p=0.5, src=1, dst=0); "
        "duplicate(prob=0.2, tag=3); crash(rank=2, after=40); "
        "slowdown(rank=1, sleep=0.5ms)")
    kinds = [spec.kind for spec in s.specs]
    assert kinds == ["delay", "reorder", "duplicate", "crash", "slowdown"]
    assert s.specs[0].max_delay == pytest.approx(2e-3)
    assert s.specs[1].matches(1, 0, 99) and not s.specs[1].matches(0, 1, 99)
    assert s.crash_for(2).after == 40 and s.crash_for(0) is None
    assert s.slowdown_for(1).max_delay == pytest.approx(5e-4)
    # describe() is canonical DSL text and round-trips
    assert FaultSchedule.parse(s.describe()) == s


@pytest.mark.parametrize("bad", [
    "explode(prob=1)",                 # unknown kind
    "delay(prob=1.5)",                 # prob out of range
    "delay(max=-1ms)",                 # negative duration
    "crash(after=3)",                  # crash without a rank
    "crash(rank=1, after=0)",          # after < 1
    "delay(prob=0.1, wibble=2)",       # unknown parameter
    "delay prob=0.1",                  # malformed clause
    "delay(max=2 parsecs)",            # malformed duration
])
def test_dsl_rejects_malformed_schedules(bad):
    with pytest.raises(ValueError):
        parse_schedule(bad)


def test_schedule_of_specs_equivalent_to_parse():
    a = FaultSchedule.of(FaultSpec("reorder", prob=0.5),
                         FaultSpec("crash", rank=1, after=10))
    b = parse_schedule("reorder(prob=0.5); crash(rank=1, after=10)")
    assert a == b


# -- acceptance: maskable faults are transparent --------------------------

def test_seeded_fault_schedule_matches_fault_free_run(ps, cfg):
    """Delay+reorder+duplicate at 4 ranks: forces to machine precision,
    logical traffic byte-identical, and every fault kind actually fired."""
    acc_clean, phi_clean = parallel_forces(ps, cfg, 4)

    world = FaultyWorld(4, MASKABLE, seed=123, timeout=60.0)
    acc_faulty, phi_faulty = parallel_forces(ps, cfg, 4, world=world)

    assert max_rel_difference(acc_faulty, acc_clean) < 1e-12
    assert np.max(np.abs(phi_faulty - phi_clean)
                  / (np.abs(phi_clean) + 1e-300)) < 1e-12
    # the schedule was not a no-op
    for kind in ("delay", "reorder", "duplicate"):
        assert world.stats.count(kind) > 0, f"{kind} never fired"

    from repro.simmpi import SimWorld
    clean = SimWorld(4, timeout=60.0)
    parallel_forces(ps, cfg, 4, world=clean)
    assert world.traffic.total_bytes == clean.traffic.total_bytes
    assert dict(world.traffic.p2p_bytes) == dict(clean.traffic.p2p_bytes)


def test_fault_injection_is_deterministic(ps, cfg):
    """Same (schedule, seed) -> identical injection counts."""
    counts = []
    for _ in range(2):
        w = FaultyWorld(4, MASKABLE, seed=7, timeout=60.0)
        parallel_forces(ps, cfg, 4, world=w)
        counts.append({k: w.stats.count(k)
                       for k in ("delay", "reorder", "duplicate")})
    assert counts[0] == counts[1]


def test_slowdown_is_transparent(ps, cfg):
    acc_clean, _ = parallel_forces(ps, cfg, 4)
    w = FaultyWorld(4, "slowdown(rank=1, sleep=0.2ms)", timeout=60.0)
    acc_slow, _ = parallel_forces(ps, cfg, 4, world=w)
    assert max_rel_difference(acc_slow, acc_clean) < 1e-12
    assert w.stats.count("slowdown") > 0


@pytest.mark.harness_slow
def test_multi_step_evolution_under_faults(ps, cfg):
    """Three full KDK steps (two redistributes each) under the maskable
    schedule: final positions match the fault-free evolution."""
    sims = run_parallel_simulation(4, ps.copy(), cfg, n_steps=3)
    clean = gather_particles(sims)
    world = FaultyWorld(4, MASKABLE, seed=321, timeout=120.0)
    sims_f = run_parallel_simulation(4, ps.copy(), cfg, n_steps=3, world=world,
                                     invariant_checks=True)
    faulty = gather_particles(sims_f)
    scale = np.linalg.norm(clean.pos, axis=1).mean()
    assert np.max(np.linalg.norm(faulty.pos - clean.pos, axis=1)) < 1e-12 * scale


# -- acceptance: crashes surface as typed errors fast ---------------------

@pytest.mark.parametrize("victim", [0, 2])
def test_rank_crash_raises_rank_failed_error(ps, cfg, victim):
    world = FaultyWorld(4, f"crash(rank={victim}, after=12)", timeout=8.0)
    t0 = time.monotonic()
    with pytest.raises(RankFailedError) as ei:
        parallel_forces(ps, cfg, 4, world=world, timeout=60.0)
    elapsed = time.monotonic() - t0
    assert ei.value.failed_rank == victim
    assert elapsed < 30.0, f"crash took {elapsed:.1f}s to surface"
    assert world.stats.crashed_ranks == [victim]


def test_crash_point_is_deterministic():
    """The op-counted crash trigger fires at the same program point
    regardless of thread scheduling."""
    def prog(comm):
        for i in range(20):
            comm.allgather(comm.rank * 100 + i)
        return "done"

    ops = []
    for _ in range(2):
        world = FaultyWorld(3, "crash(rank=1, after=9)", timeout=5.0)
        with pytest.raises(RankFailedError):
            spmd_run(3, prog, world=world, timeout=30.0)
        ops.append(world._op_count[1])
    assert ops[0] == ops[1] == 9


# -- parity: same adversary on the process transport ----------------------
#
# The fault lottery is keyed by (seed, src, dst, tag, seq) alone, so a
# given (schedule, seed) must inject the *same* faults whether the ranks
# are threads or forked processes -- identical per-kind counts, identical
# duplicate-drop tallies, identical typed errors at identical op counts.

def _fault_counters(world):
    """Integer-valued fault metric series from the world's registry
    (seconds are float sums whose order differs across transports)."""
    snap = world.metrics.snapshot()
    return {name: snap[name][4] for name in
            ("fault_events_total", "fault_bytes_total",
             "fault_duplicates_dropped_total") if name in snap}


def test_maskable_fault_parity_across_transports(ps, cfg):
    from repro.faults import FaultyProcessWorld
    acc_clean, _ = parallel_forces(ps, cfg, 4)

    wt = FaultyWorld(4, MASKABLE, seed=123, timeout=60.0)
    acc_t, _ = parallel_forces(ps, cfg, 4, world=wt)
    wp = FaultyProcessWorld(4, MASKABLE, seed=123, timeout=60.0)
    acc_p, _ = parallel_forces(ps, cfg, 4, world=wp)

    # Both transports mask the schedule to machine precision.  (Bitwise
    # cross-transport equality of fault-free runs is asserted in
    # tests/harness/test_differential.py.)
    assert max_rel_difference(acc_t, acc_p) < 1e-12
    assert max_rel_difference(acc_p, acc_clean) < 1e-12
    for kind in ("delay", "reorder", "duplicate"):
        assert wp.stats.count(kind) == wt.stats.count(kind) > 0, kind
    # every injected duplicate is eventually dropped, on both transports
    assert wp.stats.duplicates_dropped == wt.stats.duplicates_dropped \
        == wt.stats.count("duplicate")
    assert _fault_counters(wp) == _fault_counters(wt)
    assert wp.traffic.total_bytes == wt.traffic.total_bytes
    assert dict(wp.traffic.p2p_bytes) == dict(wt.traffic.p2p_bytes)


def test_slowdown_parity_on_process_transport(ps, cfg):
    from repro.faults import FaultyProcessWorld
    acc_clean, _ = parallel_forces(ps, cfg, 4)
    w = FaultyProcessWorld(4, "slowdown(rank=1, sleep=0.2ms)", timeout=60.0)
    acc_slow, _ = parallel_forces(ps, cfg, 4, world=w)
    assert max_rel_difference(acc_slow, acc_clean) < 1e-12
    assert w.stats.count("slowdown") > 0


def test_crash_parity_across_transports(ps, cfg):
    """Same typed error, same victim, same deterministic crash op-count,
    surfaced within the recv deadline on both transports."""
    from repro.faults import FaultyProcessWorld
    outcomes = {}
    for name, world in (
            ("threads", FaultyWorld(4, "crash(rank=1, after=12)",
                                    seed=7, timeout=8.0)),
            ("process", FaultyProcessWorld(4, "crash(rank=1, after=12)",
                                           seed=7, timeout=8.0))):
        t0 = time.monotonic()
        with pytest.raises(RankFailedError) as ei:
            parallel_forces(ps, cfg, 4, world=world, timeout=60.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"{name}: crash took {elapsed:.1f}s"
        assert ei.value.failed_rank == 1
        outcomes[name] = (sorted(world.stats.crashed_ranks),
                          world.stats.count("crash"),
                          world._op_count[1])
    assert outcomes["threads"] == outcomes["process"] == ([1], 1, 12)


@pytest.mark.parametrize("transport", ("threads", "process"))
def test_mid_step_crash_unblocks_let_receivers(ps, cfg, transport):
    """Regression for the LET recv audit (gravity_parallel): a rank that
    dies *between* the boundary-exchange barrier and its LET send -- op
    30 lands mid-way through the second step's force phase -- must
    surface as ``RankFailedError`` on the peers blocked in
    ``comm.recv(tag=TAG_LET)``, never as a hang, on both transports."""
    from repro.faults import FaultyProcessWorld
    if transport == "threads":
        world = FaultyWorld(4, "crash(rank=2, after=30)", timeout=8.0)
    else:
        world = FaultyProcessWorld(4, "crash(rank=2, after=30)", timeout=8.0)
    t0 = time.monotonic()
    with pytest.raises(RankFailedError) as ei:
        run_parallel_simulation(4, ps.copy(), cfg, n_steps=2,
                                world=world, timeout=60.0)
    elapsed = time.monotonic() - t0
    assert ei.value.failed_rank == 2
    assert elapsed < 30.0, f"mid-step crash took {elapsed:.1f}s to surface"
    assert world.stats.crashed_ranks == [2]


def test_crash_during_message_loop_unblocks_receivers():
    """Receivers waiting on a crashed sender get the typed error, not a
    full-deadline hang."""
    def prog(comm):
        if comm.rank == 0:
            t0 = time.monotonic()
            try:
                for i in range(10):
                    comm.recv(1, tag=0)
            except RankFailedError:
                return time.monotonic() - t0
            return None
        for i in range(10):
            comm.send(np.arange(4), 0, tag=0)
        return "sender done"

    world = FaultyWorld(2, "crash(rank=1, after=4)", timeout=6.0)
    with pytest.raises(RankFailedError):
        spmd_run(2, prog, world=world, timeout=30.0)
