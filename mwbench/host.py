"""Same-run host ceilings for the kernel's ufuncs, gathers and sorts.

On a shared 2-vCPU VM, serial step medians of identical code have ranged
over 30% across runs, so the traced run re-measures the host next to the
per-layer numbers: a slow step on a slow host shows here as well.

Sizes.  The force evaluators work in chunks of ``DEFAULT_CHUNK`` = 32768
rows (256 KiB per float64 column), and gather from source columns of at
most N_local float64 values (160 KiB at N = 20000).  The ceilings use
exactly those sizes, so they are in-cache ceilings: on the Xeon VM the
benchmark was tuned on (4 MiB L2, 300 MiB L3 reported) every array fits
the L2.  A DRAM ceiling would need arrays of 4x the last-level cache,
1.2 GiB each there, which does not fit a run on a shared machine, so
none is measured; the kernels are cache-blocked and never stream from
DRAM either.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.gravity.treewalk import DEFAULT_CHUNK


def _rate(fn, work: float, reps: int = 11, min_s: float = 0.01) -> float:
    """Median over ``reps`` of ``work`` per second, each rep calling
    ``fn`` for at least ``min_s`` seconds."""
    fn()
    rates = []
    for _ in range(reps):
        calls = 0
        t0 = time.perf_counter()
        while (elapsed := time.perf_counter() - t0) < min_s:
            fn()
            calls += 1
        rates.append(work * calls / elapsed)
    return statistics.median(rates)


def ceilings(n_src: int, seed: int) -> dict[str, float]:
    """``host.*`` metrics: streaming ufunc Gflop/s, ``take`` GB/s of
    gathered float64 values, and stable ``argsort`` keys/s, at the
    workload's own chunk and source sizes."""
    rng = np.random.default_rng(seed)
    m = DEFAULT_CHUNK
    a, b, c = rng.random(m), rng.random(m), np.empty(m)

    def triad():                    # 2 flops per element
        np.multiply(a, b, out=c)
        np.add(c, a, out=c)

    src = rng.random(n_src)
    idx = rng.integers(0, n_src, m)

    def gather():
        np.take(src, idx, out=c)

    keys = rng.integers(0, 2 ** 63, n_src, dtype=np.uint64)

    def sort():
        np.argsort(keys, kind="stable")

    return {"host.stream_gflops": _rate(triad, 2.0 * m) / 1e9,
            "host.take_gbps": _rate(gather, 8.0 * m) / 1e9,
            "host.argsort_keys_per_s": _rate(sort, n_src)}
