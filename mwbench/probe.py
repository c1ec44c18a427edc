"""Per-layer timers for the traced run, installed from outside the program.

Each layer's public function is wrapped where its callers look it up (a
module global, or a class attribute), so the traced run executes the
program unchanged with two clock reads and a dict update added per call.
``obs.trace_overhead`` reports what that costs a step.  A probe is
installed only around traced steps and is removed before untraced ones;
on the ``process`` transport it is installed inside each forked rank and
so only ever patches that rank's copy of the modules.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


def _keys_work(p, args, out, before):
    p.counts["sfc.keys_n"] += len(args[1])


def _build_work(p, args, out, before):
    p.counts["octree.cells"] += out.n_cells


def _groups_work(p, args, out, before):
    p.counts["octree.groups"] += len(out.group_count)
    p.counts["octree.group_members"] += int(out.group_count.sum())


def _walk_work(p, args, out, before):
    p.counts["gravity.pc_pairs"] += len(out[0])
    p.counts["gravity.pp_pairs"] += len(out[2])
    p.counts["gravity.max_frontier"] = max(p.counts["gravity.max_frontier"],
                                           out[4])


def _forces_work(p, args, out, before):
    p.results.append(out)


def _ids_of_driver(args):
    return args[0].particles.ids


def _redistribute_work(p, args, out, ids_before):
    ids = args[0].particles.ids
    arrived = ~np.isin(ids, ids_before, assume_unique=True)
    p.counts["parallel.migrated"] += int(arrived.sum())
    p.counts["parallel.particles"] += len(ids)


#: (module, attribute, layer, hook).  A hook ``work(probe, args, out,
#: before)`` books the call's work; an ``(enter, work)`` pair also passes
#: ``enter(args)``, taken before the call, as ``before``.  A function
#: imported into two modules is wrapped in both: each module's binding is
#: what its callers resolve.  The serial driver reaches the walk and
#: evaluators through ``tree_forces`` (``repro.gravity.treewalk``), the
#: parallel one through ``distributed_forces``
#: (``repro.parallel.gravity_parallel``).
TARGETS = (
    ("repro.sfc.bbox", "BoundingBox.keys", "sfc.keys", _keys_work),
    ("repro.sfc.sortcache", "SortCache.order_for", "sfc.sort", None),
    ("repro.core.simulation", "build_octree", "octree.build", _build_work),
    ("repro.core.simulation", "compute_moments", "octree.props", None),
    ("repro.core.simulation", "make_groups", "octree.props", _groups_work),
    ("repro.core.simulation", "Simulation.compute_forces", "driver.forces",
     None),
    ("repro.gravity.treewalk", "compute_opening_radii", "octree.props", None),
    ("repro.gravity.treewalk", "walk_interaction_lists", "gravity.walk",
     _walk_work),
    ("repro.gravity.treewalk", "evaluate_pc_pairs", "gravity.pc", None),
    ("repro.gravity.treewalk", "evaluate_pp_pairs", "gravity.pp", None),
    ("repro.gravity.treewalk", "pc_interactions_ws", "gravity.kernel", None),
    ("repro.gravity.treewalk", "pp_interactions_ws", "gravity.kernel", None),
    ("repro.parallel.gravity_parallel", "build_octree", "octree.build",
     _build_work),
    ("repro.parallel.gravity_parallel", "compute_moments", "octree.props",
     None),
    ("repro.parallel.gravity_parallel", "compute_opening_radii",
     "octree.props", None),
    ("repro.parallel.gravity_parallel", "make_groups", "octree.props",
     _groups_work),
    ("repro.parallel.gravity_parallel", "walk_interaction_lists",
     "gravity.walk", _walk_work),
    ("repro.parallel.gravity_parallel", "walk_forest_interaction_lists",
     "gravity.walk", _walk_work),
    ("repro.parallel.gravity_parallel", "evaluate_pc_pairs", "gravity.pc",
     None),
    ("repro.parallel.gravity_parallel", "evaluate_pp_pairs", "gravity.pp",
     None),
    ("repro.core.parallel_simulation", "distributed_forces",
     "parallel.forces", _forces_work),
    ("repro.core.parallel_simulation", "ParallelSimulation.compute_forces",
     "driver.forces", None),
    ("repro.core.parallel_simulation", "ParallelSimulation.redistribute",
     "parallel.redistribute", (_ids_of_driver, _redistribute_work)),
)


class LayerProbe:
    """Accumulates seconds and work per layer while installed."""

    def __init__(self) -> None:
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        self.seconds: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.results: list = []

    def _wrap(self, fn, layer, hook):
        probe = self
        clock = time.perf_counter
        enter, work = hook if isinstance(hook, tuple) else (None, hook)

        def timed(*args, **kwargs):
            before = enter(args) if enter is not None else None
            t0 = clock()
            out = fn(*args, **kwargs)
            probe.seconds[layer] += clock() - t0
            if work is not None:
                work(probe, args, out, before)
            return out

        return timed

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probe already installed")
        for module, attr, layer, hook in TARGETS:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, name)
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, layer, hook))

    def remove(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved = []

    def take(self) -> dict:
        """The accumulated record (plain data), then start afresh."""
        out = {"seconds": dict(self.seconds), "counts": dict(self.counts),
               "results": [_force_summary(r) for r in self.results]}
        self.reset()
        return out


def _force_summary(res) -> dict:
    """Picklable digest of a ``DistributedForceResult``."""
    return {"phases": dict(res.phases),
            "n_pp_let": res.counts_let.n_pp, "n_pc_let": res.counts_let.n_pc,
            "lets_sent": res.n_lets_sent, "let_bytes": res.let_bytes_sent,
            "boundary_bytes": res.boundary_bytes,
            "recv_wait_s": res.recv_wait_seconds}
