"""Diagrams of compositions and the matrix model of a parabolic nilradical in sl(n).

A composition (c_1, ..., c_k) of n fixes a standard parabolic subalgebra of
sl(n).  Its diagram has k columns of heights c_i, filled with 1..n going down
columns and then left to right.  A strictly upper-triangular matrix position
(i, j) belongs to the nilradical exactly when the entries i and j sit in
distinct columns; positions with both entries in one column span the Levi
factor and are discarded throughout.

A composition is its ``Diagram``: ``Diagram(parts)`` checks the parts, fills
the columns and derives the boxes, the nilradical and the neighbouring pairs.
Each caller builds a composition's diagram once and passes that object on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

Pos = tuple[int, int]


class InvalidInput(ValueError):
    """Malformed caller data."""


class ConstructionViolation(RuntimeError):
    """A combinatorial guarantee of the construction failed; signals a builder bug."""


class InternalConsistencyError(RuntimeError):
    """Two internal routes to the same quantity disagree."""


def parse_composition(text: str) -> tuple[int, ...]:
    """Parse a comma-separated decimal string such as "2,1,1,2".  Each part
    is ASCII digits alone, so ``int``'s underscores, signs and other
    scripts' digits are rejected."""
    items = [piece.strip() for piece in text.split(",")]
    if not all(piece.isascii() and piece.isdigit() for piece in items):
        raise InvalidInput(f"cannot parse composition from {text!r}")
    return tuple(int(piece) for piece in items)


@dataclass(frozen=True)
class Diagram:
    """The filled diagram of a composition: its columns hold 1..n, going
    down each column, left to right.

    Columns are stored 0-indexed internally; rows are 1-indexed (row 1 on
    top).  All JSON output uses entry values, never internal indices.

    The parts (c_1, ..., c_k), each an ``int`` of at least 1, are the
    diagram's only datum and alone set its equality and hash.  The columns,
    the entry-to-box table, the nilradical positions, the neighbouring pairs
    and the table of the pair surrounding each adjacent column pair are built
    once, at construction, so the diagram stays immutable.
    """

    parts: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    _boxes: dict[int, tuple[int, int]] = field(init=False, repr=False, compare=False)
    _nilradical: frozenset[Pos] = field(init=False, repr=False, compare=False)
    _pairs: tuple[NeighbouringPair, ...] = field(init=False, repr=False, compare=False)
    _surrounding: dict[tuple[int, int], NeighbouringPair] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the parts are the equality and hash key, so a list is kept as a tuple
        parts = tuple(self.parts)
        if not parts:
            raise InvalidInput("composition needs at least one part")
        if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in parts):
            raise InvalidInput(f"composition parts must be positive integers, got {parts!r}")
        cols = tuple(tuple(range(first, first + h)) for first, h in zip(accumulate(parts, initial=1), parts))
        boxes = {entry: (c, r) for c, col in enumerate(cols) for r, entry in enumerate(col, start=1)}
        # Entries grow left to right, so each entry precedes every later column's.
        nilradical = frozenset(
            (i, j) for c, left in enumerate(cols) for right in cols[c + 1 :] for i in left for j in right
        )
        by_height: dict[int, list[int]] = {}
        for c, h in enumerate(parts):
            by_height.setdefault(h, []).append(c)
        pairs = tuple(
            NeighbouringPair(a, b, h)
            for h in sorted(by_height)
            for a, b in zip(by_height[h], by_height[h][1:])
        )
        # Pairs of one height cover disjoint runs of adjacent columns.
        surrounding = {(p.height, c): p for p in pairs for c in range(p.left, p.right)}
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_boxes", boxes)
        object.__setattr__(self, "_nilradical", nilradical)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_surrounding", surrounding)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def height(self, col: int) -> int:
        return self.parts[col]

    @property
    def max_height(self) -> int:
        return max(self.parts)

    def column_of(self, entry: int) -> int:
        return self._boxes[entry][0]

    def row_of(self, entry: int) -> int:
        return self._boxes[entry][1]

    def box_of(self, entry: int) -> tuple[int, int]:
        """(column, row) of the unique box holding ``entry``."""
        return self._boxes[entry]

    def in_nilradical(self, pos: Pos) -> bool:
        return pos in self._nilradical

    def nilradical_positions(self) -> frozenset[Pos]:
        return self._nilradical

    @property
    def dim_nilradical(self) -> int:
        return len(self._nilradical)

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


def neighbouring_pairs(diagram: Diagram) -> tuple[NeighbouringPair, ...]:
    """All neighbouring pairs, ordered by (height, left column)."""
    return diagram._pairs


def surrounding_pair(
    diagram: Diagram, height: int, adjacent_left: int
) -> NeighbouringPair | None:
    """The unique height-``height`` pair surrounding the adjacent columns
    (adjacent_left, adjacent_left+1), if one exists."""
    return diagram._surrounding.get((height, adjacent_left))


def interval_columns(pair: NeighbouringPair) -> range:
    return range(pair.left, pair.right + 1)


def interval_entries(diagram: Diagram, pair: NeighbouringPair) -> range:
    """Entries of the columns between the pair, inclusive; always consecutive."""
    first = diagram.columns[pair.left][0]
    last = diagram.columns[pair.right][-1]
    return range(first, last + 1)


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
