"""The benchmark's workloads, why each was chosen, and what it should move.

Every workload realises ``milky_way_model`` (NFW halo + Hernquist bulge +
exponential disk, paper Sec. IV) from the run's ``--seed`` and integrates
it at the paper's opening angle theta = 0.4.  A run is a sequence of
*episodes*: each episode builds the driver from the same initial
conditions (the timed set-up), then advances ``steps`` KDK steps (the
timed operations).  Episodes repeat until ``--seconds`` have passed, so a
run yields several set-up samples and several step samples, and step k
leaves the same state in every episode -- which is what makes
``force_err_p99`` repeat exactly at a fixed seed.

A third workload, 2 process ranks at N = 40000 (the LET-heavy regime),
was dropped: on a shared 2-vCPU VM its step medians spread 30-35%
(IQR/median over ten seeds) in two of three sets, beyond the largest
bound the benchmark format allows.  Its layers are all measured on
``mw_2rank_n1k``.
"""

from __future__ import annotations

import dataclasses

#: Opening angle of every workload (the paper's production value).
THETA = 0.4


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n: int            # particles
    ranks: int        # 1 = serial ``Simulation``; >1 = ``process`` ranks
    steps: int        # KDK steps per episode
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "mw_serial_n20k", n=20000, ranks=1, steps=1,
        why="Serial Simulation at N=20000, the canonical single-process "
            "config: kernel, gather and reduce do ~90% of a step and "
            "there is no communication, decomposition or LET."),
    Workload(
        "mw_2rank_n1k", n=1000, ranks=2, steps=40,
        why="2 process ranks at N=1000 (~500 per rank, the paper's "
            "strong-scaling limit), ~40 ms steps: sort, domain update, "
            "tree build, exchange, LET, latency and per-call overhead "
            "dominate."),
)}
