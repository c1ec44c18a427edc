#!/usr/bin/env python3
"""Milky Way tree-code benchmark: one workload, one seed, one JSON line.

    python3 mwbench/run.py --workload mw_serial_n20k --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  The run realises the workload's initial
conditions from ``--seed``, then repeats episodes -- driver set-up plus a
fixed number of KDK steps, see ``workloads.py`` -- until ``--seconds``
have passed.  Afterwards it checks the forces left by every step of the
first episode against direct summation, and prints one JSON object as
the last line of standard output:

- ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``;
- ``--trace 1``: the per-layer metrics, from layer probes (``probe.py``)
  installed on every other step, plus same-run host ceilings.

Every step is one operation.  A step fails if it raises or leaves a
non-finite position, velocity or acceleration; every step of the run
fails if the checked forces fall outside the envelopes of
:mod:`repro.testing.differential`.  Earlier lines of standard output
record the interaction counts and wall time of every step, so a change
in work can be told apart from a change in speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import Simulation, SimulationConfig  # noqa: E402
from repro.core.parallel_simulation import ParallelSimulation  # noqa: E402
from repro.core.validation import ForceAccuracy  # noqa: E402
from repro.gravity.flops import (  # noqa: E402
    FLOPS_PER_PC, FLOPS_PER_PP, InteractionCounts)
from repro.gravity.kernels import point_forces_on_targets  # noqa: E402
from repro.ics import milky_way_model  # noqa: E402
from repro.simmpi import spmd_run  # noqa: E402
from repro.simmpi.transport import make_world  # noqa: E402
from repro.testing.differential import DifferentialReport  # noqa: E402
from repro.testing.invariants import InvariantViolation  # noqa: E402

import host  # noqa: E402
from probe import LayerProbe  # noqa: E402
from workloads import THETA, WORKLOADS  # noqa: E402

#: Direct-summation targets per checked state (a fixed seeded sample).
FORCE_TARGETS = 2000

#: float64 operands each evaluated interaction gathers: p-c = target and
#: cell-COM coordinates, cell mass, 6 quadrupole terms; p-p = target and
#: source coordinates, source mass.
PC_OPERANDS = 13
PP_OPERANDS = 7

#: (name, unit, better) of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("step_s", "s", "lower"),
    ("cpu_s_per_step", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("force_err_p99", "ratio", "lower"),
)

#: Per-rank layer metrics: reported as the max over ranks under the bare
#: name and as the mean over ranks under ``<name>.mean``.
PER_RANK = (
    ("sfc.keys_s", "s", "lower"),
    ("sfc.sort_s", "s", "lower"),
    ("sfc.keys_per_s", "1/s", "higher"),
    ("octree.build_s", "s", "lower"),
    ("octree.cells", "count", "lower"),
    ("octree.props_s", "s", "lower"),
    ("octree.groups", "count", "lower"),
    ("octree.group_fill", "ratio", "higher"),
    ("gravity.walk_s", "s", "lower"),
    ("gravity.pc_pairs", "count", "lower"),
    ("gravity.pp_pairs", "count", "lower"),
    ("gravity.max_frontier", "count", "lower"),
    ("gravity.pc_s", "s", "lower"),
    ("gravity.pp_s", "s", "lower"),
    ("gravity.n_pc", "count", "lower"),
    ("gravity.n_pp", "count", "lower"),
    ("gravity.pc_gflops", "Gflop/s", "higher"),
    ("gravity.pp_gflops", "Gflop/s", "higher"),
    ("gravity.pc_rows_per_pair", "ratio", "lower"),
    ("gravity.kernel_s", "s", "lower"),
    ("gravity.gather_reduce_s", "s", "lower"),
    ("gravity.gather_bytes", "B", "lower"),
    ("gravity.flops_per_byte", "flop/B", "higher"),
    ("gravity.kernel_pct_ceiling", "%", "higher"),
    ("gravity.gather_pct_ceiling", "%", "higher"),
    ("parallel.redistribute_s", "s", "lower"),
    ("parallel.migrated", "count", "lower"),
    ("parallel.tree_s", "s", "lower"),
    ("parallel.boundary_s", "s", "lower"),
    ("parallel.boundary_bytes", "B", "lower"),
    ("parallel.let_s", "s", "lower"),
    ("parallel.let_bytes", "B", "lower"),
    ("parallel.lets_sent", "count", "lower"),
    ("parallel.recv_wait_s", "s", "lower"),
    ("parallel.gravity_local_s", "s", "lower"),
    ("parallel.gravity_let_s", "s", "lower"),
    ("parallel.n_pp_let", "count", "lower"),
    ("parallel.n_pc_let", "count", "lower"),
    ("integrator.kick_drift_s", "s", "lower"),
)

#: Whole-run layer metrics (one value per run).
PER_RUN = (
    ("parallel.load_imbalance", "ratio", "lower"),
    ("parallel.rank_imbalance", "ratio", "lower"),
    ("simmpi.messages_per_step", "count", "lower"),
    ("simmpi.bytes_per_step", "B", "lower"),
    ("integrator.energy_err", "ratio", "lower"),
    ("host.stream_gflops", "Gflop/s", "higher"),
    ("host.take_gbps", "GB/s", "higher"),
    ("host.argsort_keys_per_s", "1/s", "higher"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("app.gflops", "Gflop/s", "higher"),
)


def per_layer_table() -> list[tuple[str, str, str]]:
    """Every ``--trace 1`` metric as (name, unit, better)."""
    out = []
    for name, unit, better in PER_RANK:
        out += [(name, unit, better), (name + ".mean", unit, better)]
    return out + list(PER_RUN)


# -- episodes -----------------------------------------------------------------

def _finite(particles, acc) -> bool:
    return bool(np.isfinite(particles.pos).all()
                and np.isfinite(particles.vel).all()
                and np.isfinite(acc).all())


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _traffic(world) -> tuple[int, int]:
    summary = world.traffic.summary().values()
    return (sum(p["messages"] + p["collectives"] for p in summary),
            sum(p["bytes"] for p in summary))


def _step_record(wall, bd, particles, acc, layers) -> dict:
    return {"wall": wall, "n_pp": bd.counts.n_pp, "n_pc": bd.counts.n_pc,
            "finite": _finite(particles, acc), "layers": layers}


def _snapshot(particles, acc, phi) -> tuple:
    return tuple(np.copy(a) for a in (particles.ids, particles.pos,
                                      particles.mass, acc, phi))


def serial_episode(ps0, cfg, traced, keep):
    """Set up a serial ``Simulation`` and run ``len(traced)`` steps."""
    t0 = time.perf_counter()
    sim = Simulation(ps0.copy(), cfg)
    sim.compute_forces()
    setup = time.perf_counter() - t0
    e0 = sim.diagnostics().total if any(traced) else None
    probe = LayerProbe()
    steps = []
    snaps = []
    cpu0 = time.process_time()
    for on in traced:
        if on:
            probe.install()
        t = time.perf_counter()
        bd = sim.step()
        wall = time.perf_counter() - t
        if on:
            probe.remove()
        steps.append(_step_record(wall, bd, sim.particles, sim.acceleration,
                                  probe.take() if on else None))
        if keep:
            snaps.append(_snapshot(sim.particles, sim.acceleration,
                                   sim.potential))
    cpu = time.process_time() - cpu0
    return {"setup_s": setup, "cpu_s": cpu, "rss_kib": [_peak_rss_kib()],
            "steps": [steps],
            "energy": None if e0 is None else (e0, sim.diagnostics().total),
            "snapshots": snaps}


def _rank_program(comm, ps0, cfg, traced, keep):
    """One rank of a parallel episode (runs in a forked process)."""
    n = ps0.n
    lo, hi = n * comm.rank // comm.size, n * (comm.rank + 1) // comm.size
    sim = ParallelSimulation(comm, ps0.select(np.arange(lo, hi)), cfg)
    sim.prime()
    comm.barrier()
    ready = time.perf_counter()
    e0 = sim.diagnostics().total if any(traced) else None
    probe = LayerProbe()
    steps = []
    snaps = []
    cpu0 = time.process_time()
    for on in traced:
        comm.barrier()
        if on:
            tb0 = _traffic(comm.world)
            probe.install()
        t = time.perf_counter()
        bd = sim.step()
        wall = time.perf_counter() - t
        layers = None
        if on:
            probe.remove()
            tb1 = _traffic(comm.world)
            layers = probe.take()
            layers["counts"]["simmpi.messages"] = tb1[0] - tb0[0]
            layers["counts"]["simmpi.bytes"] = tb1[1] - tb0[1]
        steps.append(_step_record(wall, bd, sim.particles, sim.acc, layers))
        if keep:
            snaps.append(_snapshot(sim.particles, sim.acc, sim.phi))
    cpu = time.process_time() - cpu0
    done = time.perf_counter()
    return {"ready": ready, "done": done, "cpu_s": cpu,
            "rss_kib": _peak_rss_kib(),
            "steps": steps,
            "energy": None if e0 is None else (e0, sim.diagnostics().total),
            "snapshots": snaps}


def parallel_episode(ps0, cfg, ranks, traced, keep):
    """Fork ``ranks`` process ranks, set up, and run the steps."""
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    world = make_world(ranks, transport="process", timeout=120.0)
    outs = spmd_run(ranks, _rank_program, ps0, cfg, traced, keep,
                    world=world, timeout=170.0)
    # The parent only waits on the ranks; book the share of its CPU time
    # that overlaps the steps.
    ready = max(o["ready"] for o in outs)
    share = (max(o["done"] for o in outs) - ready) / (
        time.perf_counter() - t0)
    parent_cpu = (time.process_time() - cpu0) * share
    return {"setup_s": ready - t0,
            "cpu_s": sum(o["cpu_s"] for o in outs) + parent_cpu,
            "rss_kib": [o["rss_kib"] for o in outs] + [_peak_rss_kib()],
            "steps": [o["steps"] for o in outs],
            "energy": outs[0]["energy"],
            "snapshots": [tuple(np.concatenate(parts) for parts in zip(*step))
                          for step in zip(*(o["snapshots"] for o in outs))]}


# -- correctness --------------------------------------------------------------

def force_accuracy(snapshots, eps: float, seed: int) -> ForceAccuracy:
    """Relative force error against direct summation, pooled over the
    state after every step of the first episode, on one seeded sample
    of particles (the same ids in every state)."""
    rel, perr = [], []
    for ids, pos, mass, acc, phi in snapshots:
        order = np.argsort(ids, kind="stable")
        pos, mass, acc, phi = pos[order], mass[order], acc[order], phi[order]
        t = np.sort(np.random.default_rng(seed).choice(
            len(pos), size=min(FORCE_TARGETS, len(pos)), replace=False))
        acc_d = np.empty((len(t), 3))
        phi_d = np.empty(len(t))
        block = max(1, 2_000_000 // len(pos))   # bounds the (block, N, 3) temp
        for s in range(0, len(t), block):
            acc_d[s:s + block], phi_d[s:s + block] = point_forces_on_targets(
                pos[t[s:s + block]], pos, mass, eps * eps)
        phi_d += mass[t] / eps   # point_forces_on_targets keeps self terms
        rel.append(np.linalg.norm(acc[t] - acc_d, axis=1)
                   / (np.linalg.norm(acc_d, axis=1) + 1e-300))
        perr.append(np.abs((phi[t] - phi_d) / (phi_d + 1e-300)))
    rel, perr = np.concatenate(rel), np.concatenate(perr)
    return ForceAccuracy(sample_size=len(rel), median=float(np.median(rel)),
                         p90=float(np.percentile(rel, 90)),
                         p99=float(np.percentile(rel, 99)),
                         maximum=float(rel.max()),
                         potential_median=float(np.median(perr)))


def within_envelope(fa: ForceAccuracy, n: int, ranks: int) -> bool:
    """Judge ``fa`` by the differential harness's envelopes: median
    against the theta**4 envelope, p99 against the worst-particle
    theta**2 envelope."""
    report = DifferentialReport(n_particles=n, n_ranks=ranks, theta=THETA,
                                median_rel=fa.median, max_rel=fa.p99,
                                serial_accuracy=fa, parallel_accuracy=fa)
    try:
        report.assert_agrees()
    except InvariantViolation as exc:
        print(f"force check failed: {exc}", file=sys.stderr)
        return False
    return True


# -- metrics ------------------------------------------------------------------

def _steps(episodes, traced: bool):
    """Per-step tuples over ranks, for traced or untraced steps."""
    for ep in episodes:
        for st in zip(*ep["steps"]):
            if (st[0]["layers"] is not None) == traced:
                yield st


def _flops(rank_steps) -> int:
    return sum(InteractionCounts(n_pp=s["n_pp"], n_pc=s["n_pc"],
                                 quadrupole=True).flops for s in rank_steps)


def end_to_end(episodes, fa: ForceAccuracy) -> dict[str, float]:
    walls = [max(s["wall"] for s in st) for st in _steps(episodes, False)]
    return {
        "step_s": statistics.median(walls),
        "cpu_s_per_step": statistics.median(
            ep["cpu_s"] / len(ep["steps"][0]) for ep in episodes),
        "setup_s": statistics.median(ep["setup_s"] for ep in episodes),
        # The first episode's high-water mark: later episodes inherit a
        # fragmented heap, and how many run depends on the host's speed.
        "peak_rss_mb": max(episodes[0]["rss_kib"]) / 1024.0,
        "force_err_p99": fa.p99,
    }


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 where a tiny rank did no such work."""
    return num / den if den else 0.0


def _rank_layers(s, cfg, ceil) -> dict[str, float]:
    """Per-rank layer metrics of one traced step."""
    sec = s["layers"]["seconds"]
    cnt = s["layers"]["counts"]
    res = s["layers"]["results"]

    def t(layer):
        return sec.get(layer, 0.0)

    def c(count):
        return cnt.get(count, 0.0)

    def ph(phase):
        return sum(r["phases"][phase] for r in res)

    def fr(field):
        return sum(r[field] for r in res)

    n_pc, n_pp = s["n_pc"], s["n_pp"]
    flops = _flops([s])
    kernel = t("gravity.kernel")
    gather_reduce = t("gravity.pc") + t("gravity.pp") - kernel
    gather_bytes = 8.0 * (PC_OPERANDS * n_pc + PP_OPERANDS * n_pp)
    return {
        "sfc.keys_s": t("sfc.keys"),
        "sfc.sort_s": t("sfc.sort"),
        "sfc.keys_per_s": _ratio(c("sfc.keys_n"), t("sfc.keys")),
        "octree.build_s": t("octree.build"),
        "octree.cells": c("octree.cells"),
        "octree.props_s": t("octree.props"),
        "octree.groups": c("octree.groups"),
        "octree.group_fill": _ratio(c("octree.group_members"),
                                    c("octree.groups") * cfg.ncrit),
        "gravity.walk_s": t("gravity.walk"),
        "gravity.pc_pairs": c("gravity.pc_pairs"),
        "gravity.pp_pairs": c("gravity.pp_pairs"),
        "gravity.max_frontier": c("gravity.max_frontier"),
        "gravity.pc_s": t("gravity.pc"),
        "gravity.pp_s": t("gravity.pp"),
        "gravity.n_pc": n_pc,
        "gravity.n_pp": n_pp,
        "gravity.pc_gflops": _ratio(FLOPS_PER_PC * n_pc,
                                    t("gravity.pc") * 1e9),
        "gravity.pp_gflops": _ratio(FLOPS_PER_PP * n_pp,
                                    t("gravity.pp") * 1e9),
        "gravity.pc_rows_per_pair": _ratio(n_pc, c("gravity.pc_pairs")),
        "gravity.kernel_s": kernel,
        "gravity.gather_reduce_s": gather_reduce,
        "gravity.gather_bytes": gather_bytes,
        "gravity.flops_per_byte": _ratio(flops, gather_bytes),
        "gravity.kernel_pct_ceiling": _ratio(
            100.0 * flops, kernel * 1e9 * ceil["host.stream_gflops"]),
        "gravity.gather_pct_ceiling": _ratio(
            100.0 * gather_bytes,
            gather_reduce * 1e9 * ceil["host.take_gbps"]),
        "parallel.redistribute_s": t("parallel.redistribute"),
        "parallel.migrated": c("parallel.migrated"),
        "parallel.tree_s": ph("tree_construction") + ph("tree_properties"),
        "parallel.boundary_s": ph("boundary_exchange"),
        "parallel.boundary_bytes": fr("boundary_bytes"),
        "parallel.let_s": ph("let_exchange"),
        "parallel.let_bytes": fr("let_bytes"),
        "parallel.lets_sent": fr("lets_sent"),
        "parallel.recv_wait_s": fr("recv_wait_s"),
        "parallel.gravity_local_s": ph("gravity_local"),
        "parallel.gravity_let_s": ph("gravity_let"),
        "parallel.n_pp_let": fr("n_pp_let"),
        "parallel.n_pc_let": fr("n_pc_let"),
        "integrator.kick_drift_s": s["wall"] - t("driver.forces")
        - t("parallel.redistribute"),
    }


def _imbalance(values) -> float:
    return max(values) / statistics.fmean(values)


def per_layer(episodes, cfg, ceil) -> dict[str, float]:
    traced = list(_steps(episodes, True))
    untraced = list(_steps(episodes, False))
    n_ranks = len(traced[0])
    rows = [[_rank_layers(s, cfg, ceil) for s in st] for st in traced]
    out = {}
    for name, _, _ in PER_RANK:
        per_rank = [statistics.median(row[r][name] for row in rows)
                    for r in range(n_ranks)]
        out[name] = max(per_rank)
        out[name + ".mean"] = statistics.fmean(per_rank)

    def med(fn):
        return statistics.median(fn(st) for st in traced)

    def total(st, count):
        return sum(s["layers"]["counts"].get(count, 0.0) for s in st)

    def busy(s):        # force time without the LET receive wait
        return (s["layers"]["seconds"]["driver.forces"]
                - sum(r["recv_wait_s"] for r in s["layers"]["results"]))

    def step_wall(steps):
        return statistics.median(max(s["wall"] for s in st) for st in steps)

    energies = [abs((e1 - e0) / e0) for e0, e1 in
                (ep["energy"] for ep in episodes if ep["energy"])]
    out.update({
        "parallel.load_imbalance": med(lambda st: _imbalance(
            [s["layers"]["counts"].get("parallel.particles", 1.0)
             for s in st])),
        "parallel.rank_imbalance": med(lambda st: _imbalance(
            [busy(s) for s in st])),
        "simmpi.messages_per_step": med(lambda st: total(
            st, "simmpi.messages")),
        "simmpi.bytes_per_step": med(lambda st: total(st, "simmpi.bytes")),
        "integrator.energy_err": statistics.median(energies),
        **ceil,
        "obs.trace_overhead": step_wall(traced) / step_wall(untraced) - 1.0,
        "app.gflops": statistics.median(
            _flops(st) / max(s["wall"] for s in st) for st in untraced) / 1e9,
    })
    return out


# -- driver -------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse(argv)
    wl = WORKLOADS[args.workload]
    if wl.ranks == 1:
        return run(args, wl)
    # Ranks register their shared-memory segments with a resource-tracker
    # process.  Started here, one tracker serves every forked rank, and
    # stopping it waits for it to exit instead of leaving an orphan per
    # rank.
    resource_tracker.ensure_running()
    try:
        return run(args, wl)
    finally:
        resource_tracker._resource_tracker._stop()


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="override the workload's particle count "
                         "(the self-test runs every workload tiny)")
    return ap.parse_args(argv)


def run(args, wl) -> int:
    """One benchmark run; prints the result line, returns the exit code."""
    n = args.n or wl.n
    cfg = SimulationConfig(theta=THETA)
    ps0 = milky_way_model(n, seed=args.seed)
    ceil = host.ceilings(max(n // wl.ranks, 1), args.seed) \
        if args.trace else None

    episodes = []
    attempted = failed = 0
    t_start = time.perf_counter()
    while not episodes or time.perf_counter() - t_start < args.seconds:
        e = len(episodes)
        # Traced runs alternate traced and untraced steps, starting on a
        # different parity each episode, so both sample every position.
        traced = [bool(args.trace) and (e + j) % 2 == 1
                  for j in range(wl.steps)]
        attempted += wl.steps
        try:
            if wl.ranks == 1:
                ep = serial_episode(ps0, cfg, traced, keep=not episodes)
            else:
                ep = parallel_episode(ps0, cfg, wl.ranks, traced,
                                      keep=not episodes)
        except Exception:   # a step raised: the episode's steps failed
            traceback.print_exc()
            failed += wl.steps
            break
        episodes.append(ep)
        failed += sum(not all(s["finite"] for s in st)
                      for st in zip(*ep["steps"]))
    if not episodes:
        return 1
    if args.trace and not (any(_steps(episodes, True))
                           and any(_steps(episodes, False))):
        print("too few steps for a traced run; raise --seconds",
              file=sys.stderr)
        return 1

    fa = force_accuracy(episodes[0]["snapshots"], cfg.softening, args.seed)
    correct = within_envelope(fa, n, wl.ranks) and failed == 0
    if not correct:
        failed = attempted

    record = [{"episode": e, "step": j,
               "n_pp": sum(s["n_pp"] for s in st),
               "n_pc": sum(s["n_pc"] for s in st),
               "wall_s": max(s["wall"] for s in st)}
              for e, ep in enumerate(episodes)
              for j, st in enumerate(zip(*ep["steps"]))]
    print("counts " + json.dumps({
        "workload": wl.name, "seed": args.seed, "n": n,
        "n_pp_total": sum(r["n_pp"] for r in record),
        "n_pc_total": sum(r["n_pc"] for r in record), "steps": record}))
    print(f"force check: median {fa.median:.3e}  p99 {fa.p99:.3e}  "
          f"max {fa.maximum:.3e} over {fa.sample_size} targets; "
          f"potential median {fa.potential_median:.3e}")

    if args.trace:
        values = per_layer(episodes, cfg, ceil)
        table = per_layer_table()
    else:
        values = end_to_end(episodes, fa)
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in table}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
