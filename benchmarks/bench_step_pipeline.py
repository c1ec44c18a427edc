"""Distributed step pipeline: interaction-count pinning and a registered
bench.

Runs the full distributed step (4 SimMPI ranks, clustered Milky-Way
initial conditions) and checks its interaction counts against the
committed golden fixture (``benchmarks/step_pipeline_golden.json``) --
CI runs this counts check only and never gates on wall-clock.
``run_bench`` is the ``step_pipeline`` bench of ``repro.obs.bench``:
counts gate, per-phase seconds ride along as advisory walls.
"""

import json
import time
from pathlib import Path

from repro import SimulationConfig
from repro.core.parallel_simulation import run_parallel_simulation
from repro.core.step import TABLE2_PHASES
from repro.ics import milky_way_model
from repro.obs.bench import BenchResult, register_bench

GOLDEN = Path(__file__).resolve().parent / "step_pipeline_golden.json"

N_RANKS = 4
GOLDEN_N = 4000


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
                description="distributed step: interaction counts "
                            "(gate) and per-phase wall time",
                root_artifact="BENCH_step.json")
def run_bench(n=2000, steps=1, seed=42) -> BenchResult:
    """Canonical runner: one run at a fixed, small config.

    ``config["pipeline"]`` stays ``"fast"`` so rows keep matching the
    committed history.  The interaction tallies are deterministic at fixed (n, ranks,
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


def test_step_counts_golden():
    """CI gate: interaction counts match the committed golden fixture
    (no wall-clock assertions -- counts only)."""
    _, _, counts, _ = _run(_cfg(), GOLDEN_N, 1)
    if GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text())
        assert counts == (golden["n_pp"], golden["n_pc"])
    else:
        GOLDEN.write_text(json.dumps(
            {"n": GOLDEN_N, "ranks": N_RANKS, "steps": 1,
             "n_pp": counts[0], "n_pc": counts[1]}, indent=2) + "\n")
