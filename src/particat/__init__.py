"""Exact combinatorics of two-row set partitions and their representation data.

The subpackages split along the natural layers:

* :mod:`particat.partition`   -- the diagram value type and its four operations
* :mod:`particat.structure`   -- through-block decompositions, domination,
  symmetry groups, equivalence and mixing constructions
* :mod:`particat.categories`  -- built-in and generated categories of diagrams
* :mod:`particat.matrix_model`-- the exact 0/1 matrix realization and the
  projections built on it as integer orthogonal bases of their images
* :mod:`particat.fusion`      -- fusion sets, tensor power decompositions and
  free fusion semirings
* :mod:`particat.cli`         -- the command line surface
"""

from .partition import (
    Partition,
    PartitionStats,
    CompositionResult,
    parse_partition,
    serialize,
)

__all__ = [
    "Partition",
    "PartitionStats",
    "CompositionResult",
    "parse_partition",
    "serialize",
]

__version__ = "0.1.0"
