"""Key-space primitives for k-ary search tree networks.

The paper (Definition 1) distinguishes *node identifiers* (the permanent
integer key ``1..n`` carried by each network node) from *routing elements*
(the ``k-1`` values in each node's routing array that partition the key space
into child slots).  Identifiers never move; routing elements are redistributed
among nodes by rotations but their *values* never change after construction.

This module fixes the value discipline that makes that safe in floating
point, without any global allocator state:

* **Boundary separators** sit at integer-gap midpoints ``x + 0.5``.  A
  boundary is only ever created between two consecutive identifiers that are
  split apart by some node of the (laminar) segment decomposition, so at most
  one boundary per integer gap exists in a tree.
* **Pad separators** fill routing arrays up to length ``k-1`` when a node has
  fewer children than slots.  Node ``i`` pads exclusively inside its private
  zone ``(i, i + 0.5)`` with the dyadic values ``i + 2^-2, i + 2^-3, ...``.
  The zone is private to ``i`` (identifiers are unique) and always contained
  in ``i``'s ancestor window, because the only foreign separator that can
  fall in ``(i, i+1)`` is the boundary ``i + 0.5`` itself.

Every separator is therefore exactly representable in float64 for any
``k <= MAX_K``, globally distinct, and never equal to an integer identifier.
Rotations merge and re-split these values but never mint new ones, so the
discipline is preserved for the lifetime of the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import InvalidTreeError

__all__ = [
    "NEG_INF",
    "POS_INF",
    "MAX_K",
    "Interval",
    "boundary_between",
    "pad_values",
    "is_separator_value",
    "is_identifier_value",
]

#: Sentinel for the left end of the whole key space.
NEG_INF: float = float("-inf")

#: Sentinel for the right end of the whole key space.
POS_INF: float = float("inf")

#: Largest supported arity.  Pad values use dyadic offsets down to
#: ``2**-(MAX_K + 1)``, which is comfortably exact in float64.
MAX_K: int = 40


@dataclass(frozen=True, slots=True)
class Interval:
    """An *open* interval ``(lo, hi)`` over the key space.

    Open intervals are the natural citizens of search-tree slot arithmetic:
    a routing array ``(r_1, ..., r_{k-1})`` partitions the key space into the
    open slots ``(-inf, r_1), (r_1, r_2), ..., (r_{k-1}, +inf)`` and no
    identifier ever equals a separator, so endpoint membership never arises.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InvalidTreeError(
                f"empty interval ({self.lo}, {self.hi}); lo must be < hi"
            )

    def __contains__(self, value: float) -> bool:
        return self.lo < value < self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` is a (non-strict) sub-interval of ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        """The intersection of two overlapping open intervals."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if not lo < hi:
            raise InvalidTreeError(
                f"intervals ({self.lo}, {self.hi}) and ({other.lo}, {other.hi})"
                " do not overlap"
            )
        return Interval(lo, hi)

    def overlaps(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.lo}, {self.hi})"


#: The whole key space.
FULL_SPACE = Interval(NEG_INF, POS_INF)


def boundary_between(left_id: int, right_id: int) -> float:
    """The boundary separator between two consecutive identifier blocks.

    ``left_id`` is the largest identifier of the left block and ``right_id``
    the smallest identifier of the right block; the blocks must be adjacent
    in identifier space (``right_id == left_id + 1``) because segment
    decompositions of ``1..n`` are contiguous.
    """
    if right_id != left_id + 1:
        raise InvalidTreeError(
            f"boundary requested between non-adjacent ids {left_id} and {right_id}"
        )
    return left_id + 0.5


#: The pad offsets ``2^-2, 2^-3, ..., 2^-MAX_K`` in the order they are used.
_PAD_OFFSETS = tuple(2.0 ** (-j) for j in range(2, MAX_K + 1))


def pad_values(node_id: int, count: int) -> Iterator[float]:
    """Yield ``count`` private pad separators for node ``node_id``.

    The values are ``node_id + 2^-2, node_id + 2^-3, ...`` — strictly inside
    the private zone ``(node_id, node_id + 0.5)``, strictly decreasing, and
    exact in float64 for ``count <= MAX_K - 1``.
    """
    if count < 0:
        raise InvalidTreeError(f"negative pad count {count}")
    if count > MAX_K - 1:
        raise InvalidTreeError(
            f"pad count {count} exceeds supported maximum {MAX_K - 1}"
        )
    for j, offset in enumerate(_PAD_OFFSETS[:count], start=2):
        value = node_id + offset
        if value == node_id or (value - node_id) != offset:
            # float64 runs out of mantissa around bits(node_id) + j > 53;
            # reachable only for ~million-node networks at extreme arity.
            raise InvalidTreeError(
                f"separator precision exhausted for node {node_id} at pad {j};"
                " reduce n or k"
            )
        yield value


def is_identifier_value(value: float) -> bool:
    """Whether ``value`` is an identifier (integral) rather than a separator."""
    return float(value).is_integer()


def is_separator_value(value: float) -> bool:
    """Whether ``value`` is a legal separator produced by this module.

    Legal separators are finite, non-integral, and of the form ``x + 0.5``
    (boundaries) or ``i + 2^-j`` with ``2 <= j <= MAX_K + 1`` (pads).
    """
    if not math.isfinite(value) or float(value).is_integer():
        return False
    frac = value - math.floor(value)
    if frac == 0.5:
        return True
    j = 2
    while j <= MAX_K + 1:
        if frac == 2.0 ** (-j):
            return True
        j += 1
    return False
