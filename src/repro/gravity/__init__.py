"""Gravitational force evaluation.

Implements the paper's force kernels (Sec. VI-A, Eqs. 1-2): the 23-flop
particle-particle kernel and the 65-flop particle-cell kernel with
quadrupole corrections, a direct O(N^2) reference solver, and the
group-centric Barnes-Hut tree walk with interaction-count accounting
identical to Table II's "Particle-Particle" and "Particle-Cell" rows.

There is one force pipeline: the walk emits (group, cell) pair lists
and the float64 workspace evaluators in :mod:`repro.gravity.treewalk`
turn them into accumulated forces, for the local tree and for every
remote LET alike.
"""

from .flops import (
    FLOPS_PER_PC,
    FLOPS_PER_PP,
    FLOPS_PER_PP_LEGACY,
    InteractionCounts,
)
from .kernels import pp_interactions, pc_interactions
from .direct import direct_forces
from .treewalk import (
    DEFAULT_CHUNK,
    KernelWorkspace,
    SourceView,
    TreeWalkResult,
    tree_forces,
    walk_frontier,
    walk_interaction_lists,
)
from .forest import (
    SourceForest,
    split_by_source,
    walk_forest_interaction_lists,
)

__all__ = [
    "FLOPS_PER_PP",
    "FLOPS_PER_PC",
    "FLOPS_PER_PP_LEGACY",
    "InteractionCounts",
    "pp_interactions",
    "pc_interactions",
    "direct_forces",
    "tree_forces",
    "walk_frontier",
    "walk_interaction_lists",
    "TreeWalkResult",
    "KernelWorkspace",
    "SourceView",
    "DEFAULT_CHUNK",
    "SourceForest",
    "walk_forest_interaction_lists",
    "split_by_source",
]
