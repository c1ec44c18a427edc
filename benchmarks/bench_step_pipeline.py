"""Fast-path force pipeline: end-to-end step speedup and count pinning.

Compares the full distributed step (4 SimMPI ranks, clustered Milky-Way
initial conditions) between the fast path -- batched multi-source forest
walks and SFC sort-order reuse -- and the reference pipeline
(one walk per source, cold argsort every step).  Both evaluate forces
with the same group-blocked workspace kernels.

Outputs:

- ``benchmarks/results/step_pipeline.txt``: per-phase before/after table
  with speedups and tracemalloc allocation counts;
- ``benchmarks/results/BENCH_step.json``: one JSON record appended per
  recorded run (machine-readable history);
- a golden interaction-count fixture
  (``benchmarks/step_pipeline_golden.json``) asserting the fast path
  changes *nothing* about what is computed -- CI runs the counts check
  only and never gates on wall-clock.

Environment knobs: ``STEP_BENCH_N`` (particles, default 8000) and
``STEP_BENCH_STEPS`` (default 2) scale the timed comparison; the
recorded results were produced with ``STEP_BENCH_N=40000``.
"""

import json
import os
import time
import tracemalloc
from pathlib import Path

from conftest import RESULTS_DIR, append_history, write_result
from repro import SimulationConfig
from repro.core.parallel_simulation import run_parallel_simulation
from repro.core.step import TABLE2_PHASES
from repro.ics import milky_way_model
from repro.obs.bench import BenchResult, register_bench

GOLDEN = Path(__file__).resolve().parent / "step_pipeline_golden.json"

N_RANKS = 4
GOLDEN_N = 4000
BENCH_N = int(os.environ.get("STEP_BENCH_N", "8000"))
BENCH_STEPS = int(os.environ.get("STEP_BENCH_STEPS", "2"))

#: The reference pipeline, expressed as config knobs.
REFERENCE = dict(batch_sources=False, sort_reuse=False)


def _cfg(**kw):
    base = dict(theta=0.5, softening=0.1, dt=0.1)
    base.update(kw)
    return SimulationConfig(**base)


def _run(config, n, steps, seed=42, **run_kw):
    """One timed run; returns (wall, per-phase seconds, counts, peak)."""
    ps = milky_way_model(n, seed=seed)
    t0 = time.perf_counter()
    sims = run_parallel_simulation(N_RANKS, ps, config, n_steps=steps,
                                   timeout=3600.0, **run_kw)
    wall = time.perf_counter() - t0
    phases = {ph: 0.0 for ph in TABLE2_PHASES}
    n_pp = n_pc = 0
    for s in sims:
        for bd in s.history:
            for ph in TABLE2_PHASES:
                phases[ph] += getattr(bd, ph)
            n_pp += bd.counts.n_pp
            n_pc += bd.counts.n_pc
    max_frontier = max(s._result.max_frontier for s in sims)
    return wall, phases, (n_pp, n_pc), max_frontier


@register_bench("step_pipeline",
                description="fast-path distributed step: interaction "
                            "counts (gate) and per-phase wall time",
                root_artifact="BENCH_step.json")
def run_bench(n=2000, steps=1, seed=42) -> BenchResult:
    """Canonical runner: one fast-path run at a fixed, small config.

    The interaction tallies are deterministic at fixed (n, ranks,
    steps, seed) -- they gate; the phase/wall seconds ride along as
    advisory wall metrics.
    """
    wall, phases, (n_pp, n_pc), max_frontier = _run(_cfg(), n, steps,
                                                    seed=seed)
    return BenchResult(
        bench="step_pipeline",
        config={"n": n, "ranks": N_RANKS, "steps": steps, "seed": seed,
                "pipeline": "fast"},
        counts={"n_pp": n_pp, "n_pc": n_pc},
        wall={"wall_s": wall,
              "gravity_s": phases["gravity_local"] + phases["gravity_let"],
              "sorting_s": phases["sorting"]},
        meta={"max_frontier": max_frontier},
    )


def _alloc_stats(config, n=3000):
    """tracemalloc profile of one warm force evaluation (serial driver,
    same evaluator hot path): (allocation count, peak bytes)."""
    from repro import Simulation
    sim = Simulation(milky_way_model(n, seed=7), config)
    sim.compute_forces()        # warm-up: workspace + sort cache primed
    tracemalloc.start()
    sim.compute_forces()
    snap = tracemalloc.take_snapshot()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    n_allocs = sum(st.count for st in snap.statistics("lineno"))
    return n_allocs, peak


def test_step_counts_golden():
    """CI gate: interaction counts are byte-identical between the fast
    path and the reference path, and match the committed golden fixture
    (no wall-clock assertions -- counts only)."""
    _, _, fast, _ = _run(_cfg(), GOLDEN_N, 1)
    _, _, ref, _ = _run(_cfg(**REFERENCE), GOLDEN_N, 1)
    assert fast == ref
    if GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text())
        assert fast == (golden["n_pp"], golden["n_pc"])
    else:
        GOLDEN.write_text(json.dumps(
            {"n": GOLDEN_N, "ranks": N_RANKS, "steps": 1,
             "n_pp": fast[0], "n_pc": fast[1]}, indent=2) + "\n")


def test_step_pipeline_speedup(results_dir):
    """Per-phase before/after comparison; records, never gates on time."""
    ref_wall, ref_ph, ref_counts, _ = _run(_cfg(**REFERENCE),
                                           BENCH_N, BENCH_STEPS)
    fast_wall, fast_ph, fast_counts, max_frontier = _run(
        _cfg(), BENCH_N, BENCH_STEPS)
    assert fast_counts == ref_counts

    ref_allocs, ref_peak = _alloc_stats(_cfg(**REFERENCE))
    fast_allocs, fast_peak = _alloc_stats(_cfg())

    lines = [
        f"Fast-path step pipeline vs reference "
        f"(N={BENCH_N}, ranks={N_RANKS}, steps={BENCH_STEPS}, MW disk IC)",
        f"{'phase':18s}{'reference':>12s}{'fast':>12s}{'speedup':>9s}",
    ]
    for ph in TABLE2_PHASES:
        r, f = ref_ph[ph], fast_ph[ph]
        sp = f"{r / f:8.2f}x" if f > 1e-9 else "      --"
        lines.append(f"{ph:18s}{r:12.3f}{f:12.3f}{sp}")
    lines += [
        f"{'WALL (end-to-end)':18s}{ref_wall:12.3f}{fast_wall:12.3f}"
        f"{ref_wall / fast_wall:8.2f}x",
        f"counts identical: pp={fast_counts[0]} pc={fast_counts[1]}",
        f"max_frontier={max_frontier}",
        f"tracemalloc one force step (N=3000): "
        f"reference {ref_allocs} allocs / {ref_peak / 1e6:.1f} MB peak, "
        f"fast {fast_allocs} allocs / {fast_peak / 1e6:.1f} MB peak",
    ]
    write_result("step_pipeline", lines)

    record = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "n": BENCH_N, "ranks": N_RANKS, "steps": BENCH_STEPS,
        "wall_reference_s": round(ref_wall, 3),
        "wall_fast_s": round(fast_wall, 3),
        "speedup": round(ref_wall / fast_wall, 3),
        "phases_reference": {k: round(v, 4) for k, v in ref_ph.items()},
        "phases_fast": {k: round(v, 4) for k, v in fast_ph.items()},
        "n_pp": fast_counts[0], "n_pc": fast_counts[1],
        "max_frontier": max_frontier,
        "allocs_reference": ref_allocs, "allocs_fast": fast_allocs,
        "alloc_peak_reference_b": ref_peak, "alloc_peak_fast_b": fast_peak,
    }
    bench_json = RESULTS_DIR / "BENCH_step.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    history = json.loads(bench_json.read_text()) if bench_json.exists() else []
    history.append(record)
    bench_json.write_text(json.dumps(history, indent=2) + "\n")

    append_history(BenchResult(
        bench="step_pipeline",
        config={"n": BENCH_N, "ranks": N_RANKS, "steps": BENCH_STEPS,
                "seed": 42, "pipeline": "fast_vs_reference"},
        counts={"n_pp": fast_counts[0], "n_pc": fast_counts[1]},
        wall={"wall_reference_s": ref_wall, "wall_fast_s": fast_wall,
              "speedup": ref_wall / fast_wall},
        meta={"max_frontier": max_frontier},
    ))

    assert ref_wall > 0 and fast_wall > 0
