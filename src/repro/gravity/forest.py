"""Batched multi-source tree walks over a concatenated cell forest.

The distributed force phase (Sec. III-B2) historically ran one frontier
walk plus one chunked evaluation per remote structure: P-1 boundary/LET
walks per rank per step, each with a tiny pair list and the full fixed
cost of a traversal.  A :class:`SourceForest` concatenates any number of
LET-like structures into one cell array whose roots seed a single
frontier, so every remote source is walked in one pass -- the "process
them as they arrive" of the paper collapses to one batch per drain of
arrived LETs.

Correctness rests on an ordering property of
:func:`repro.gravity.treewalk.walk_frontier`: mask selection and
``np.repeat`` preserve relative order, so a frontier seeded source-major
produces pair lists that are the per-source single-walk lists
interleaved level-major.  :func:`split_by_source` (a stable sort on the
source id recovered from the cell index) therefore yields each source's
pairs in *exactly* the order a dedicated walk would have produced --
evaluating the segments per source in forest order gives bitwise the
same forces and byte-identical interaction counts as the per-source
path (``tests/test_forest_walk.py`` pins this at 1-8 ranks).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .treewalk import walk_frontier


@dataclasses.dataclass
class SourceForest:
    """Concatenation of LET-like source structures for one batched walk.

    Cell indices are forest-global: source ``i``'s cells occupy
    ``[cell_offsets[i], cell_offsets[i+1])`` and its root is
    ``cell_offsets[i]``.  ``body_first`` is pre-offset into the
    concatenated ``part_pos``/``part_mass`` arrays, so the forest
    duck-types the evaluators' source interface directly -- no index
    remapping at evaluation time.  ``first_child`` entries of leaves are
    offset garbage, but the walk never dereferences a leaf's child
    pointer.
    """

    first_child: np.ndarray
    n_children: np.ndarray
    body_first: np.ndarray
    body_count: np.ndarray
    com: np.ndarray
    mass: np.ndarray
    quad: np.ndarray
    r_crit: np.ndarray
    part_pos: np.ndarray
    part_mass: np.ndarray
    #: (n_sources + 1,) prefix of cell counts; roots are the prefix heads.
    cell_offsets: np.ndarray
    #: Originating rank of each source, in concatenation order.
    src_ranks: tuple[int, ...]

    @property
    def n_sources(self) -> int:
        return len(self.src_ranks)

    @property
    def n_cells(self) -> int:
        return int(self.cell_offsets[-1])

    @classmethod
    def concatenate(cls, sources, ranks) -> "SourceForest":
        """Build a forest from LET-like structures (one per remote rank).

        ``sources`` need ``first_child``, ``n_children``, ``body_first``,
        ``body_count``, ``com``, ``mass``, ``quad``, ``r_crit``,
        ``part_pos``, ``part_mass`` -- the :class:`~repro.parallel.lettree.LETData`
        interface shared by boundary structures and full LETs.
        """
        if len(sources) == 0:
            raise ValueError("cannot build a forest over zero sources")
        n_cells = np.array([len(s.mass) for s in sources], dtype=np.int64)
        n_parts = np.array([len(s.part_mass) for s in sources], dtype=np.int64)
        cell_offsets = np.concatenate(([0], np.cumsum(n_cells)))
        part_offsets = np.concatenate(([0], np.cumsum(n_parts)))
        return cls(
            first_child=np.concatenate(
                [s.first_child + o for s, o in zip(sources, cell_offsets)]),
            n_children=np.concatenate([s.n_children for s in sources]),
            body_first=np.concatenate(
                [s.body_first + o for s, o in zip(sources, part_offsets)]),
            body_count=np.concatenate([s.body_count for s in sources]),
            com=np.concatenate([s.com for s in sources]),
            mass=np.concatenate([s.mass for s in sources]),
            quad=np.concatenate([s.quad for s in sources]),
            r_crit=np.concatenate([s.r_crit for s in sources]),
            part_pos=np.concatenate([s.part_pos for s in sources]) if
            part_offsets[-1] else np.empty((0, 3)),
            part_mass=np.concatenate([s.part_mass for s in sources]) if
            part_offsets[-1] else np.empty(0),
            cell_offsets=cell_offsets,
            src_ranks=tuple(int(r) for r in ranks),
        )


def walk_forest_interaction_lists(forest: SourceForest,
                                  gmin: np.ndarray, gmax: np.ndarray
                                  ) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray, np.ndarray, int]:
    """Walk every source of the forest in one frontier pass.

    The initial frontier is source-major (for each source in forest
    order: every target group against that source's root), which is
    what makes :func:`split_by_source` exact.  Returns the same tuple
    as :func:`~repro.gravity.treewalk.walk_interaction_lists`, with
    forest-global cell indices and the *combined* peak frontier.
    """
    n_groups = len(gmin)
    g = np.tile(np.arange(n_groups, dtype=np.int64), forest.n_sources)
    c = np.repeat(forest.cell_offsets[:-1], n_groups)
    return walk_frontier(forest.first_child, forest.n_children,
                         forest.com, forest.r_crit, gmin, gmax, g, c)


def split_by_source(forest: SourceForest, pg: np.ndarray, pc: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable-partition a forest pair list by source.

    Returns ``(pg_sorted, pc_sorted, starts)`` where source ``i``'s
    pairs are ``[starts[i], starts[i+1])`` -- in exactly the order a
    dedicated single-source walk would have produced them (level-major,
    ascending in ``g`` within each level).
    """
    if len(pg) == 0:
        starts = np.zeros(forest.n_sources + 1, dtype=np.int64)
        return pg, pc, starts
    src = np.searchsorted(forest.cell_offsets, pc, side="right") - 1
    order = np.argsort(src, kind="stable")
    src_sorted = src[order]
    starts = np.searchsorted(
        src_sorted, np.arange(forest.n_sources + 1, dtype=np.int64))
    return pg[order], pc[order], starts
