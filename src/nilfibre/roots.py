"""Excluded roots of a component tableau, via shifted tableaux and word forms.

Each starred line group (i, j-list) is a tableau's ``Move`` (its entry and
star targets), and rewrites the diagram: the partial column j-list is placed
directly below i, and the part of i's column hanging below i is displaced
leftward, partial column by partial column, skipping columns shorter than
i's row, until the first column whose height equals that row.
``shifted_tableau`` returns the rewritten columns and the displaced entries.
Reading the columns bottom to top, left to right, gives a permutation word;
a nilradical position (i', j') is excluded when i' occurs after j' in that
word.  Exclusions whose larger entry lies in the j-list are primary, the
rest secondary; each move's record is keyed by the move itself.

The penetrating trail of a neighbouring pair, fixed when its tableau is built
(``ComponentTableau.trail``), is the consuming entry's moves up to and
including the one that consumed the pair; it lands in the row below that
move's stage.  Its steps drive both the specific-vanishing set and the
amalgamated (hatted) tableau whose degree drops by exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ConstructionViolation,
    Diagram,
    InternalConsistencyError,
    InvalidInput,
    NeighbouringPair,
    Pos,
    interval_entries,
    true_degree,
)
from .builder import Columns, ComponentTableau, Move


def word_form(columns) -> tuple[int, ...]:
    """Read columns bottom to top, leftmost first."""
    word = []
    for col in columns:
        word.extend(reversed(col))
    if len(set(word)) != len(word):
        raise InvalidInput("word form requires pairwise distinct entries")
    return tuple(word)


def excluded_from_word(word: tuple[int, ...], diagram: Diagram) -> frozenset[Pos]:
    """Nilradical positions (i, j), i < j, with i after j in the word.

    Pairs whose entries share a column of the diagram lie in the Levi factor
    and are dropped.
    """
    column_of = diagram.column_of
    return frozenset(
        (i, j)
        for k, j in enumerate(word)
        for i in word[k + 1:]
        if i < j and column_of(i) < column_of(j)
    )


def _place_below(diagram: Diagram, cols: list[list[int]], entry: int, partial: list[int]):
    """Put ``partial`` directly below ``entry``; push the displaced column
    tails leftward until a column of matching height absorbs them.

    Returns (anchor column, leftmost column, displaced entries)."""
    h = diagram.column_of(entry)
    f = diagram.row_of(entry)
    tail = cols[h][f:]
    cols[h] = cols[h][:f] + partial
    if not tail:
        return h, h, ()
    g = None
    for c in range(h, -1, -1):
        if diagram.height(c) == f:
            g = c
            break
    if g is None:
        raise ConstructionViolation(
            f"no column of height {f} at or left of entry {entry}'s column"
        )
    chain = [c for c in range(g, h) if diagram.height(c) > f]
    displaced: list[int] = []
    carry = tail
    for c in reversed(chain):
        displaced.extend(carry)
        carry, cols[c] = cols[c][f:], cols[c][:f] + carry
    displaced.extend(carry)
    cols[g] = cols[g] + carry
    return h, g, tuple(displaced)


def shifted_tableau(diagram: Diagram, entry: int, j_list: tuple[int, ...]) -> tuple[Columns, tuple[int, ...]]:
    """The rewritten columns for one starred group (entry, j-list), and the
    entries the secondary shifting displaced."""
    if not j_list:
        raise InvalidInput("empty j-list")
    cols = [list(col) for col in diagram.columns]
    source = diagram.column_of(j_list[0])
    if tuple(cols[source][-len(j_list):]) != tuple(j_list):
        raise ConstructionViolation(
            f"{j_list} is not the bottom of column {source + 1}"
        )
    del cols[source][-len(j_list):]
    _, _, displaced = _place_below(diagram, cols, entry, list(j_list))
    return tuple(tuple(c) for c in cols), displaced


@dataclass(frozen=True)
class GeneratorExclusions:
    move: Move
    primary: frozenset[Pos]
    secondary: frozenset[Pos]

    @property
    def all(self) -> frozenset[Pos]:
        return self.primary | self.secondary


@dataclass(frozen=True)
class ExcludedRootSet:
    by_generator: tuple[GeneratorExclusions, ...]  # one per move, in move order
    excluded: frozenset[Pos]  # union over generators
    u_support: frozenset[Pos]  # nilradical minus excluded

    def to_json(self) -> dict:
        return {
            "generators": [
                {
                    "generator": {"i": g.move.entry, "jList": list(g.move.star_targets)},
                    "excluded": [
                        {"i": i, "j": j, "kind": kind}
                        for kind, group in (("primary", g.primary), ("secondary", g.secondary))
                        for i, j in sorted(group)
                    ],
                }
                for g in self.by_generator
            ],
            "excluded": [list(p) for p in sorted(self.excluded)],
            "support": [list(p) for p in sorted(self.u_support)],
        }


def _generator_exclusions(diagram: Diagram, move: Move) -> GeneratorExclusions:
    columns, displaced = shifted_tableau(diagram, move.entry, move.star_targets)
    excluded = excluded_from_word(word_form(columns), diagram)
    primary = frozenset(p for p in excluded if p[1] in move.star_targets)
    secondary = excluded - primary
    stray = {p for p in secondary if p[1] not in displaced}
    if stray:
        raise InternalConsistencyError(f"secondary exclusions off the displaced entries: {stray}")
    return GeneratorExclusions(move, primary, secondary)


def excluded_roots(ct: ComponentTableau) -> ExcludedRootSet:
    """Union of the per-move exclusions; the complement spans the
    subalgebra attached to the tableau."""
    diagram = ct.diagram
    gens = tuple(_generator_exclusions(diagram, m) for m in ct.moves)
    union = frozenset(p for g in gens for p in g.all)
    return ExcludedRootSet(gens, union, diagram.nilradical_positions() - union)


def bracket_closure_violations(support: frozenset[Pos]) -> list[tuple[Pos, Pos, Pos]]:
    """Composable support pairs whose product escapes ``support``."""
    heads: dict[int, list[Pos]] = {}
    for pos in support:
        heads.setdefault(pos[0], []).append(pos)
    bad = []
    for (i, j) in support:
        for (jj, k) in heads.get(j, ()):
            if (i, k) not in support:
                bad.append(((i, j), (jj, k), (i, k)))
    return bad


def levi_lowering_violations(diagram: Diagram, support: frozenset[Pos]) -> list[tuple[Pos, Pos]]:
    """Positions whose image under a simple Levi lowering leaves the support.

    The lowering attached to adjacent entries (p, p+1) of one column sends
    (p, j) to (p+1, j) and (i, p+1) to (i, p); images inside the Levi are
    vacuous.
    """
    simple = [
        p
        for p in range(1, diagram.n)
        if diagram.column_of(p) == diagram.column_of(p + 1)
    ]
    bad = []
    for p in simple:
        for (i, j) in support:
            if i == p and p + 1 < j and (p + 1, j) not in support:
                bad.append(((i, j), (p + 1, j)))
            if j == p + 1 and i < p:
                if diagram.in_nilradical((i, p)) and (i, p) not in support:
                    bad.append(((i, j), (i, p)))
    return bad


def trail_exclusions(roots: ExcludedRootSet, trail: tuple[Move, ...]) -> frozenset[Pos]:
    """Exclusions carried by the steps of a trail only, read from the
    tableau's per-move exclusions."""
    return frozenset(p for g in roots.by_generator if g.move in trail for p in g.all)


def special_star_line(ct: ComponentTableau, pair: NeighbouringPair) -> Pos:
    """The one starred constituent of the disjoint composite-line family of
    ``pair``: from the penetrating entry to the box of the target column at
    row min(height, original height)."""
    move = ct.trail(pair)[-1]
    h0 = ct.diagram.height(move.target_col)
    j = ct.diagram.columns[move.target_col][min(pair.height, h0) - 1]
    return (move.entry, j)


@dataclass(frozen=True)
class HattedTableau:
    diagram: Diagram
    pair: NeighbouringPair
    entry: int
    columns: tuple[tuple[int, ...], ...]
    stacked: tuple[int, ...]  # the amalgamated partial column, top down
    virtual_degree: int

    def word(self) -> tuple[int, ...]:
        return word_form(self.columns)


def hatted_tableau(ct: ComponentTableau, pair: NeighbouringPair) -> HattedTableau:
    """Amalgamate the penetrating trail's partial columns below its entry and
    check the height ledger plus the degree drop."""
    diagram = ct.diagram
    trail = ct.trail(pair)
    entry = trail[0].entry
    cols = [list(col) for col in diagram.columns]
    stacked: list[int] = []
    for move in trail:
        m = len(move.star_targets)
        if tuple(cols[move.target_col][-m:]) != tuple(move.star_targets):
            raise InternalConsistencyError("star targets are not the column bottom")
        del cols[move.target_col][-m:]
        stacked.extend(move.star_targets)
    if any(a >= b for a, b in zip(stacked, stacked[1:])):
        raise InternalConsistencyError("amalgamated column is not increasing downward")
    anchor, leftmost, _ = _place_below(diagram, cols, entry, stacked)

    heights = [len(c) for c in cols]
    f = diagram.row_of(entry)
    m_hat = len(stacked)
    for move in trail:
        expected = diagram.height(move.target_col) - len(move.star_targets)
        if move.target_col != anchor and heights[move.target_col] != expected:
            raise InternalConsistencyError("target column height off after removal")
    if heights[anchor] != diagram.height(leftmost) + m_hat:
        raise InternalConsistencyError("anchor height differs from base height plus stack")
    if heights[anchor] != trail[-1].stage + 1:
        raise InternalConsistencyError("anchor height differs from the penetration row")
    chain = [c for c in range(leftmost, anchor) if diagram.height(c) > f]
    for lower, upper in zip([leftmost] + chain, chain + [anchor]):
        if upper == anchor:
            continue
        if heights[lower] != diagram.height(upper):
            raise InternalConsistencyError("displacement chain heights are not permuted")

    inside = set(interval_entries(diagram, pair))
    s = pair.height
    virtual = sum(min(s, sum(1 for e in col if e in inside)) for col in cols) - s
    if virtual != true_degree(diagram, pair) - 1:
        raise InternalConsistencyError(
            f"virtual degree {virtual} != true degree - 1 for {pair}"
        )
    return HattedTableau(
        diagram,
        pair,
        entry,
        tuple(tuple(c) for c in cols),
        tuple(stacked),
        virtual,
    )


def left_contribution_preserved(ht: HattedTableau) -> bool:
    """Diagnostic: per-column counts of entries strictly left of the pair are
    a permutation of the original ones."""
    diagram = ht.diagram
    boundary = diagram.columns[ht.pair.left][0]
    before = sorted(sum(1 for e in col if e < boundary) for col in diagram.columns)
    after = sorted(sum(1 for e in col if e < boundary) for col in ht.columns)
    return before == after
