"""Enumeration of the limit tableaux and of their component tableaux.

Starting from the filled diagram, rows are completed one at a time.  At the
stage completing row T+1 an entry may be lowered from row t' <= T of a column
into the first empty box of its right neighbour, provided that box sits in
row T+1 and that for every height s in [t', T] a free neighbouring pair of
that height surrounds the two adjacent columns; all those pairs are consumed
by the move.  Entries that remain in row T+1 afterwards slide right, one
column at a time, into first-empty boxes.  Each compatible set of lowering
choices opens one branch; a branch survives only when every neighbouring
pair has been consumed exactly once by the time the tableau stabilizes.

A free pair of height s can be consumed at a stage t > s only by a
multi-row descent into one of the columns left+1..right of the pair, and
only into one whose original height is t.  Once the stage reaches the
tallest of those columns, the pair is forced: only the choices that consume
it are branched on, so no branch that strands a pair is ever built.  At
every visited node, before the choices are made, the search checks that
each free pair of height t can be consumed by some admissible move at stage
t, and raises otherwise.

A component tableau is built from its limit columns and its moves alone;
its constructor derives and checks the rest, and no line object is built.
Each move stars the positions (entry, j) for the original entries j it is
joined to, the bottom ones of the column it enters.  Entries only move into
the right-hand neighbouring column, so the columns holding an entry are a
run that starts at its original column, and an entry's last copy is the one
its right-hand neighbouring column does not hold.  The entries whose last
copy is in a column are labelled ``1`` against the original entries of the
next column, top down and in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ConstructionViolation,
    Diagram,
    NeighbouringPair,
    Pos,
    neighbouring_pairs,
    surrounding_pair,
)

STAR = "*"
ONE = "1"

Columns = tuple[tuple[int, ...], ...]  # a limit tableau, column by column


@dataclass(frozen=True)
class Move:
    """One lowering at stage ``stage``: ``entry`` drops into the first empty
    box of ``target_col``, in row stage+1, consuming one neighbouring pair
    per descended row."""

    stage: int
    entry: int
    target_col: int
    pairs: tuple[NeighbouringPair, ...]  # consumed, in ascending height
    star_targets: tuple[int, ...]  # original entries joined by *-lines, top down


@dataclass(frozen=True)
class ComponentTableau:
    """A component tableau, given by its limit tableau ``columns`` and the
    moves that built it.  The constructor derives the ``1``-positions
    ``e_support`` (the point e), the ``*``-positions ``v_support`` (spanning
    the Weierstrass section) and each pair's trail, which take no part in
    equality, hashing or repr.  It raises when a pair is consumed twice, a
    trail starts outside its pair's rectangle or lands outside ]C, C'], an
    entry repeats within a column, an entry finds no endpoint left, a
    position leaves the nilradical or carries both labels, or the stars
    miscount the pairs."""

    diagram: Diagram
    columns: Columns
    moves: tuple[Move, ...]
    e_support: frozenset[Pos] = field(init=False, repr=False, compare=False)
    v_support: frozenset[Pos] = field(init=False, repr=False, compare=False)
    _trail: dict[NeighbouringPair, tuple[Move, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        diagram, columns = self.diagram, self.columns
        # A pair's trail is its consuming entry's moves up to and including
        # the consuming one: earlier moves left the entry above the pair.
        trails: dict[NeighbouringPair, tuple[Move, ...]] = {}
        walked: dict[int, tuple[Move, ...]] = {}
        stars = []
        for move in self.moves:
            entry = move.entry
            trail = walked[entry] = walked.get(entry, ()) + (move,)
            col, row = diagram.box_of(entry)
            for pair in move.pairs:
                if pair in trails:
                    raise ConstructionViolation(f"pair {pair} consumed twice")
                if not (pair.left <= col < pair.right and row <= pair.height):
                    raise ConstructionViolation(f"trail of {entry} does not start inside the rectangle of {pair}")
                if not (pair.left < move.target_col <= pair.right):
                    raise ConstructionViolation(f"penetration of {entry} lands outside ]C,C'] of {pair}")
                trails[pair] = trail
            stars += [(entry, j) for j in move.star_targets]
        for c, col in enumerate(columns, start=1):
            if len(set(col)) != len(col):
                raise ConstructionViolation(f"an entry repeats within a column (column {c})")
        ones = []
        for c in range(diagram.k - 1):
            targets = iter(diagram.columns[c + 1])
            for entry in columns[c]:
                if entry in columns[c + 1]:
                    continue
                target = next(targets, None)
                if target is None:
                    raise ConstructionViolation(f"no endpoint left in column {c + 2} for stopped entry {entry}")
                ones.append((entry, target))
        for pos in stars + ones:
            if not diagram.in_nilradical(pos):
                raise ConstructionViolation(f"line {pos} not in the nilradical")
        e_support, v_support = frozenset(ones), frozenset(stars)
        if e_support & v_support:
            raise ConstructionViolation("a position carries both labels")
        if len(v_support) != len(neighbouring_pairs(diagram)):
            raise ConstructionViolation("star count differs from the neighbouring-pair count")
        object.__setattr__(self, "e_support", e_support)
        object.__setattr__(self, "v_support", v_support)
        object.__setattr__(self, "_trail", trails)

    def pair_entry(self) -> dict[NeighbouringPair, int]:
        """Which entry consumed each neighbouring pair."""
        return {pair: trail[-1].entry for pair, trail in self._trail.items()}

    def trail(self, pair: NeighbouringPair) -> tuple[Move, ...]:
        """The penetrating trail of ``pair``: the consuming entry's moves up
        to and including the one that consumed it.  It lands in row
        ``trail[-1].stage + 1``."""
        return self._trail[pair]

    def lines(self) -> list[tuple[str, int, int]]:
        """The labelled lines as sorted (label, i, j) triples, stars first."""
        return sorted([(STAR, i, j) for i, j in self.v_support] + [(ONE, i, j) for i, j in self.e_support])

    def choice_json(self) -> list[dict]:
        records = []
        for move in self.moves:
            for pair in move.pairs:
                records.append(
                    {
                        "t": move.stage,
                        "pairLeft": pair.left + 1,
                        "pairRight": pair.right + 1,
                        "entry": move.entry,
                        "rowsDown": len(move.pairs),
                    }
                )
        return records

    def to_json(self) -> dict:
        return {
            "composition": list(self.diagram.parts),
            "choiceSequence": self.choice_json(),
            "lines": [{"i": i, "j": j, "label": label} for label, i, j in self.lines()],
        }


def _candidates(diagram: Diagram, cols: list[list[int]], used: frozenset[NeighbouringPair], stage: int) -> list[Move]:
    moves = []
    for src in range(diagram.k - 1):
        target = src + 1
        if len(cols[target]) != stage:
            continue
        h0 = diagram.height(target)
        for row in range(1, min(stage, len(cols[src])) + 1):
            entry = cols[src][row - 1]
            if entry in cols[target]:
                continue
            if row < stage and h0 != stage:
                # multi-row descents may only enter untouched columns
                continue
            consumed = []
            for s in range(row, stage + 1):
                pair = surrounding_pair(diagram, s, src)
                if pair is None or pair in used:
                    consumed = None
                    break
                consumed.append(pair)
            if consumed is None:
                continue
            top = min(row, h0)
            moves.append(Move(stage, entry, target, tuple(consumed), diagram.columns[target][top - 1 : h0]))
    return moves


def _subsets(moves: list[Move], forced: set[NeighbouringPair]):
    """The pairwise-compatible subsets that consume every ``forced`` pair,
    canonical (include-first) order."""

    def rec(idx: int, chosen: list[Move], targets: set[int], pairs: set[NeighbouringPair]):
        if idx == len(moves):
            if forced <= pairs:
                yield list(chosen)
            return
        move = moves[idx]
        own = set(move.pairs)
        if move.target_col not in targets and not (own & pairs):
            chosen.append(move)
            yield from rec(idx + 1, chosen, targets | {move.target_col}, pairs | own)
            chosen.pop()
        yield from rec(idx + 1, chosen, targets, pairs)

    yield from rec(0, [], set(), set())


def _translate(cols: list[list[int]], stage: int) -> None:
    """Slide row stage+1 entries rightward into first-empty boxes; left to right."""
    row = stage + 1
    for c in range(len(cols) - 1):
        if len(cols[c]) < row:
            continue
        entry = cols[c][row - 1]
        if len(cols[c + 1]) == row - 1 and entry not in cols[c + 1]:
            cols[c + 1].append(entry)


def extend_all(diagram: Diagram) -> tuple[tuple[Columns, tuple[Move, ...]], ...]:
    """Enumerate every limit tableau of the diagram as its ``(columns,
    moves)``, depth first over the lowering choices of each stage.  Every
    result consumes each neighbouring pair exactly once.

    A pair p of height s left free past stage t can only be consumed later
    by a multi-row descent into a column of ``p.left+1..p.right`` whose
    original height is the stage of the move.  So once the stage reaches
    ``reach[p]``, the tallest of those columns (at least s), p is forced:
    every subset of the stage must consume it, and subsets that do not are
    never branched on.  At each visited node the free-pair guard runs before
    that: it raises when a free pair of height t has no admissible move at
    stage t."""
    pairs = neighbouring_pairs(diagram)
    all_pairs = frozenset(pairs)
    reach = {p: max(diagram.height(c) for c in range(p.left + 1, p.right + 1)) for p in pairs}
    max_height = diagram.max_height
    hard_cap = max_height + len(all_pairs) + 2
    results = []

    def run(cols: list[list[int]], used: frozenset[NeighbouringPair], moves: tuple[Move, ...], stage: int) -> None:
        if stage > hard_cap:
            raise ConstructionViolation("stage cap exceeded; stabilization failed")
        candidates = _candidates(diagram, cols, used, stage)
        usable = {p for m in candidates for p in m.pairs}
        for pair in pairs:
            if pair.height == stage and pair not in used and pair not in usable:
                raise ConstructionViolation(f"free pair {pair} has no admissible choice at its own stage")
        forced = {p for p in pairs if reach[p] <= stage and p not in used}
        for subset in _subsets(candidates, forced):
            branch = [list(col) for col in cols]
            for move in subset:
                branch[move.target_col].append(move.entry)
            _translate(branch, stage)
            taken = used.union(*(m.pairs for m in subset))
            if not subset and stage >= max_height:
                if taken == all_pairs:
                    results.append((tuple(tuple(col) for col in branch), moves))
            else:
                run(branch, taken, moves + tuple(subset), stage + 1)

    run([list(col) for col in diagram.columns], frozenset(), (), 1)
    return tuple(results)


def component_tableaux(diagram: Diagram) -> tuple[ComponentTableau, ...]:
    """Every component tableau of the diagram's composition."""
    return tuple(ComponentTableau(diagram, columns, moves) for columns, moves in extend_all(diagram))
