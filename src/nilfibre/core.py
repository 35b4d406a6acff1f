"""Compositions, diagrams and the matrix model of a parabolic nilradical in sl(n).

A composition (c_1, ..., c_k) of n fixes a standard parabolic subalgebra of
sl(n).  Its diagram has k columns of heights c_i, filled with 1..n going down
columns and then left to right.  A strictly upper-triangular matrix position
(i, j) belongs to the nilradical exactly when the entries i and j sit in
distinct columns; positions with both entries in one column span the Levi
factor and are discarded throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Pos = tuple[int, int]


class InvalidInput(ValueError):
    """Malformed caller data."""


class ConstructionViolation(RuntimeError):
    """A combinatorial guarantee of the construction failed; signals a builder bug."""


class InternalConsistencyError(RuntimeError):
    """Two internal routes to the same quantity disagree."""


@dataclass(frozen=True)
class Composition:
    """Ordered parts (c_1, ..., c_k), every part >= 1."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise InvalidInput("composition needs at least one part")
        if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in self.parts):
            raise InvalidInput(f"composition parts must be positive integers, got {self.parts!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def is_partition(self) -> bool:
        """Weakly decreasing parts."""
        return all(a >= b for a, b in zip(self.parts, self.parts[1:]))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse a comma-separated decimal string such as "2,1,1,2"."""
        items = [piece.strip() for piece in text.split(",")]
        if not items or any(not piece for piece in items):
            raise InvalidInput(f"cannot parse composition from {text!r}")
        try:
            parts = tuple(int(piece) for piece in items)
        except ValueError as exc:
            raise InvalidInput(f"cannot parse composition from {text!r}") from exc
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Diagram:
    """The filled diagram of a composition.

    Columns are stored 0-indexed internally; rows are 1-indexed (row 1 on
    top).  All JSON output uses entry values, never internal indices.
    """

    composition: Composition
    columns: tuple[tuple[int, ...], ...]

    @property
    def parts(self) -> tuple[int, ...]:
        return self.composition.parts

    @property
    def n(self) -> int:
        return self.composition.n

    @property
    def k(self) -> int:
        return self.composition.k

    def height(self, col: int) -> int:
        return self.parts[col]

    @property
    def max_height(self) -> int:
        return max(self.parts)

    def column_of(self, entry: int) -> int:
        return self._lookup()[entry][0]

    def row_of(self, entry: int) -> int:
        return self._lookup()[entry][1]

    def box_of(self, entry: int) -> tuple[int, int]:
        """(column, row) of the unique box holding ``entry``."""
        return self._lookup()[entry]

    @lru_cache(maxsize=None)
    def _lookup(self) -> dict[int, tuple[int, int]]:
        table: dict[int, tuple[int, int]] = {}
        for c, col in enumerate(self.columns):
            for r, entry in enumerate(col, start=1):
                table[entry] = (c, r)
        return table

    def in_nilradical(self, pos: Pos) -> bool:
        i, j = pos
        return i < j and self.column_of(i) < self.column_of(j)

    def in_levi(self, pos: Pos) -> bool:
        i, j = pos
        return i != j and self.column_of(i) == self.column_of(j)

    @lru_cache(maxsize=None)
    def nilradical_positions(self) -> frozenset[Pos]:
        return frozenset(
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if self.column_of(i) < self.column_of(j)
        )

    @property
    def dim_nilradical(self) -> int:
        parts = self.parts
        return sum(parts[a] * parts[b] for a in range(self.k) for b in range(a + 1, self.k))

    def to_json(self) -> dict:
        return {
            "parts": list(self.parts),
            "n": self.n,
            "columns": [list(col) for col in self.columns],
        }


@dataclass(frozen=True)
class NeighbouringPair:
    """Two columns of equal height with no column of that height strictly between."""

    left: int
    right: int
    height: int

    def __str__(self) -> str:
        return f"(C{self.left + 1},C{self.right + 1};s={self.height})"


def build_diagram(composition: Composition) -> Diagram:
    """Fill the diagram of ``composition`` going down columns, left to right."""
    columns = []
    next_entry = 1
    for part in composition.parts:
        columns.append(tuple(range(next_entry, next_entry + part)))
        next_entry += part
    return Diagram(composition, tuple(columns))


def diagram_of(parts: tuple[int, ...]) -> Diagram:
    return _diagram_cached(tuple(parts))


@lru_cache(maxsize=None)
def _diagram_cached(parts: tuple[int, ...]) -> Diagram:
    return build_diagram(Composition(parts))


def neighbouring_pairs(diagram: Diagram) -> tuple[NeighbouringPair, ...]:
    """All neighbouring pairs, ordered by (height, left column)."""
    by_height: dict[int, list[int]] = {}
    for c, h in enumerate(diagram.parts):
        by_height.setdefault(h, []).append(c)
    pairs = []
    for h in sorted(by_height):
        cols = by_height[h]
        pairs.extend(NeighbouringPair(a, b, h) for a, b in zip(cols, cols[1:]))
    return tuple(sorted(pairs, key=lambda p: (p.height, p.left)))


def surrounding_pair(
    diagram: Diagram, height: int, adjacent_left: int
) -> NeighbouringPair | None:
    """The unique height-``height`` pair surrounding the adjacent columns
    (adjacent_left, adjacent_left+1), if one exists."""
    for pair in neighbouring_pairs(diagram):
        if pair.height == height and pair.left <= adjacent_left and pair.right >= adjacent_left + 1:
            return pair
    return None


def interval_columns(pair: NeighbouringPair) -> range:
    return range(pair.left, pair.right + 1)


def interval_entries(diagram: Diagram, pair: NeighbouringPair) -> range:
    """Entries of the columns between the pair, inclusive; always consecutive."""
    first = diagram.columns[pair.left][0]
    last = diagram.columns[pair.right][-1]
    return range(first, last + 1)


def rectangle_entries(diagram: Diagram, pair: NeighbouringPair) -> frozenset[int]:
    """Entries of the boxes in the first ``height`` rows between the pair."""
    s = pair.height
    return frozenset(
        entry
        for c in interval_columns(pair)
        for entry in diagram.columns[c][: min(s, diagram.height(c))]
    )


def boxes_below_band(diagram: Diagram, pair: NeighbouringPair) -> int:
    """Number of boxes strictly below row ``height`` between the pair.

    Equals the valuation in the auxiliary parameter of the raw minor.
    """
    s = pair.height
    return sum(max(diagram.height(c) - s, 0) for c in interval_columns(pair))


def true_degree(diagram: Diagram, pair: NeighbouringPair) -> int:
    """Degree of the semi-invariant attached to the pair."""
    s = pair.height
    return sum(min(diagram.height(c), s) for c in interval_columns(pair)) - s
