"""The semi-invariant generators: exact minors, coefficient extraction,
monomial-chain cross-engine, vanishing and section restrictions.

For a neighbouring pair of height s the generator is read off the
(n'-s) x (n'-s) lower-left minor of the interval's matrix model, evaluated on
the nilradical plus the parameter on the diagonal of every Levi block larger
than s.  The coefficient of the parameter's minimal power a^d (one per box
below the height-s band) is the generator; its monomials are exactly the
products of s disjoint strictly-left-to-right entry chains joining the two
columns.

Extraction, the generator's one route, expands the minor only up to a^d,
with each term held as a parameter power and a bitmask of variables.
``symbolic_minor`` is the full expansion, kept as the reference the tests
compare against: it adds up its own terms and returns one ``Poly`` per power
of the parameter; nothing else holds the parameter.
No monomial cancels, so one min-cost perfect matching of the minor's cells
decides every zero test, on either route, and gives the generator's least
surviving monomial with its sign; no zero test reads the expanded
generator.  Up to ``SYMBOLIC_MAX_N`` a restriction substitutes into the
expanded generator; past it the generator is never expanded, and a
restriction is the same truncated expansion on a restricted minor, signed
by the least monomial.  Nothing here draws a random number.

The checks read a pair's generator through its interval alone, keyed by
the parts from the pair's left to its right column (the first is the
pair's height).  The generator, each zero test and each restriction are
computed once per interval key in the interval's coordinates, and shifted
back into the composition's.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import inf

from .core import (
    Diagram,
    InternalConsistencyError,
    NeighbouringPair,
    Pos,
    boxes_below_band,
    interval_entries,
    neighbouring_pairs,
    true_degree,
)
from .builder import ComponentTableau
from .poly import Mono, Poly
from .roots import ExcludedRootSet, special_star_line, trail_exclusions

# The largest interval whose generator the restrictions expand; past it they
# read restricted minors, which are slower on small intervals.
SYMBOLIC_MAX_N = 10


def _minor_cells(diagram: Diagram, pair: NeighbouringPair) -> list[list]:
    """The lower-left minor's cells row by row: "a", a position or None.
    Entries outside the interval never occur and are suppressed up front."""
    entries = interval_entries(diagram, pair)
    s = pair.height
    size = len(entries) - s
    return [[_minor_entry(diagram, r, c, s) for c in entries[:size]] for r in entries[s:]]


def _minor_entry(diagram: Diagram, row_entry: int, col_entry: int, s: int):
    """Symbolic content of one minor cell, or None when it vanishes."""
    if col_entry == row_entry:
        if diagram.height(diagram.column_of(row_entry)) > s:
            return "a"
        return None
    if col_entry < row_entry and diagram.column_of(col_entry) < diagram.column_of(row_entry):
        return (col_entry, row_entry)
    return None


def symbolic_minor(diagram: Diagram, pair: NeighbouringPair) -> dict[int, Poly]:
    """Exact expansion of the lower-left minor of the pair's interval, every
    parameter power included: the nonzero coefficient of each power that
    occurs, the reference for the truncated extraction.

    Each Laplace step along a row puts the cell's position into the sorted
    monomials of the complementary minor, or for a parameter cell raises
    their power, and adds their coefficients with the step's sign; each
    power's terms become a ``Poly`` once, at the end."""
    cells = _minor_cells(diagram, pair)
    size = len(cells)
    memo: dict[tuple[int, ...], dict[int, dict[Mono, int]]] = {(): {0: {(): 1}}}

    def det(available: tuple[int, ...]) -> dict[int, dict[Mono, int]]:
        if available in memo:
            return memo[available]
        p = size - len(available)
        total: dict[int, dict[Mono, int]] = {}
        for idx, q in enumerate(available):
            cell = cells[p][q]
            if cell is None:
                continue
            sign = -1 if idx % 2 else 1
            for power, terms in det(available[:idx] + available[idx + 1 :]).items():
                out = total.setdefault(power + 1 if cell == "a" else power, {})
                for mono, coeff in terms.items():
                    if cell != "a":
                        mono = tuple(sorted((cell, *mono)))
                    out[mono] = out.get(mono, 0) + sign * coeff
        memo[available] = total
        return total

    minor = {power: Poly(terms) for power, terms in det(tuple(range(size))).items()}
    return {power: poly for power, poly in minor.items() if not poly.is_zero()}


@dataclass(frozen=True)
class InvariantRecord:
    pair: NeighbouringPair
    band_boxes: int  # parameter valuation of the raw minor
    degree: int
    polynomial: Poly

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "d_D": self.band_boxes,
            "polynomial": self.polynomial.to_json(),
        }


def _below_valuation(pair: NeighbouringPair, d: int) -> InternalConsistencyError:
    return InternalConsistencyError(f"raw minor of {pair} has a nonzero coefficient below valuation {d}")


def _truncated_minor(
    diagram: Diagram,
    pair: NeighbouringPair,
    d: int,
    degree: int,
    symbolic: frozenset[Pos] | None = None,
    ones: frozenset[Pos] = frozenset(),
) -> Poly:
    """Coefficient of ``a^d`` in the lower-left minor, expanded only up to
    that parameter power.

    Every variable occupies exactly one cell, so a term is a parameter power
    and a bitmask of variables, bits in sorted position order; each term is
    multilinear by construction and its degree is its popcount.  Powers never
    decrease along the Laplace expansion, so partial terms beyond ``d`` are
    dropped.  Raises when a power below ``d`` survives or a term is not of
    the given degree.

    With ``symbolic`` given, the minor is restricted first: a variable cell
    whose position is in ``symbolic`` stays symbolic, one in ``ones`` is set
    to 1 and every other one is dropped.  The cells set to 1 carry bits too,
    above the symbolic ones, and are stripped when the terms are read back,
    so both checks above still see every cell of a term.
    """
    contents = _minor_cells(diagram, pair)
    size = len(contents)
    variables = sorted(cell for line in contents for cell in line if cell not in (None, "a"))
    if symbolic is None:
        positions, fixed = variables, []
    else:
        positions = [pos for pos in variables if pos in symbolic]
        fixed = [pos for pos in variables if pos not in symbolic and pos in ones]
    bit_of = {pos: 1 << k for k, pos in enumerate(positions + fixed)}
    # Per row: (column, parameter power, variable bit) of each live cell.
    row_cells = [
        [(q, 1, 0) if cell == "a" else (q, 0, bit_of[cell]) for q, cell in enumerate(line) if cell == "a" or cell in bit_of]
        for line in contents
    ]

    full = (1 << size) - 1
    memo: dict[int, dict[tuple[int, int], int]] = {full: {(0, 0): 1}}

    def det(used: int) -> dict[tuple[int, int], int]:
        if used in memo:
            return memo[used]
        total: dict[tuple[int, int], int] = {}
        for q, a_pow, bit in row_cells[used.bit_count()]:
            col = 1 << q
            if used & col:
                continue
            sub = det(used | col)
            # The column's place among those still available fixes the sign.
            sign = -1 if (q - (used & (col - 1)).bit_count()) & 1 else 1
            for (power, mask), coeff in sub.items():
                power += a_pow
                if power > d:
                    continue
                key = (power, mask | bit)
                total[key] = total.get(key, 0) + sign * coeff
        memo[used] = total
        return total

    # Each half of a mask is peeled into sorted positions once and reused.
    symbolic_bits = (1 << len(positions)) - 1
    low_half = (1 << (len(positions) // 2)) - 1
    halves: dict[int, tuple] = {}

    def peel(piece: int) -> tuple:
        if piece not in halves:
            out = []
            rest = piece
            while rest:
                low = rest & -rest
                out.append(positions[low.bit_length() - 1])
                rest ^= low
            halves[piece] = tuple(out)
        return halves[piece]

    leading: dict = {}
    for (power, mask), coeff in det(0).items():
        if not coeff:
            continue
        if power < d:
            raise _below_valuation(pair, d)
        if mask.bit_count() != degree:
            raise InternalConsistencyError(f"invariant of {pair} is not of degree {degree}")
        mask &= symbolic_bits
        low = mask & low_half
        key = peel(low) + peel(mask ^ low)
        leading[key] = leading.get(key, 0) + coeff
    return Poly(leading)


def _min_cost_matching(costs: list[list[int | None]]) -> list[int] | None:
    """Column of each row in a minimum-cost perfect matching of a square
    matrix's cells that are not None, or None when no perfect matching
    exists: the Hungarian method (Kuhn 1955) with potentials, O(size^3)
    steps in exact integers."""
    size = len(costs)
    u = [0] * (size + 1)
    v = [0] * (size + 1)
    owner = [0] * (size + 1)  # owner[j]: the row (from 1) matched to column j; column 0 is the root
    for i in range(1, size + 1):
        owner[0] = i
        j0 = 0
        slack = [inf] * (size + 1)
        way = [0] * (size + 1)
        done = [False] * (size + 1)
        while owner[j0]:
            done[j0] = True
            i0 = owner[j0]
            row = costs[i0 - 1]
            delta, j1 = inf, 0
            for j in range(1, size + 1):
                if done[j]:
                    continue
                if row[j - 1] is not None:
                    reduced = row[j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                if slack[j] < delta:
                    delta, j1 = slack[j], j
            if not j1:
                return None  # no augmenting path from row i, so no perfect matching
            for j in range(size + 1):
                if done[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    match = [0] * size
    for j in range(1, size + 1):
        match[owner[j] - 1] = j - 1
    return match


def _least_monomial(
    diagram: Diagram, pair: NeighbouringPair, zeroed: frozenset[Pos]
) -> tuple[tuple[Pos, ...], int] | None:
    """The lexicographically least monomial of the pair's generator with the
    positions in ``zeroed`` set to 0, as sorted positions, and the sign of
    its coefficient; None when the generator dies there.

    Each monomial comes from exactly one permutation of the minor, with all
    its cells equal to 1, so no monomial cancels and its coefficient is that
    permutation's sign.  With N variable cells, a parameter cell costs
    2^(N+2) and the k-th variable cell in sorted position order -2^(N-k), and
    the cells in ``zeroed`` are deleted.  A minimum-cost perfect matching then
    takes the fewest parameter cells and, each weight exceeding the sum of
    all later ones, the least monomial among them.  The generator dies iff no
    perfect matching exists or the fewest exceed the valuation's d; fewer
    than d raises."""
    cells = _minor_cells(diagram, pair)
    positions = sorted(cell for line in cells for cell in line if cell not in (None, "a"))
    weight: dict = {pos: -(1 << (len(positions) - k)) for k, pos in enumerate(positions)}
    weight["a"] = 1 << (len(positions) + 2)
    match = _min_cost_matching([[None if cell is None or cell in zeroed else weight[cell] for cell in line] for line in cells])
    if match is None:
        return None
    chosen = [cells[r][q] for r, q in enumerate(match)]
    d, parameters = boxes_below_band(diagram, pair), chosen.count("a")
    if parameters < d:
        raise _below_valuation(pair, d)
    if parameters > d:
        return None
    inversions = sum(p > q for p, q in combinations(match, 2))
    return tuple(sorted(cell for cell in chosen if cell != "a")), -1 if inversions & 1 else 1


def extract_invariant(diagram: Diagram, pair: NeighbouringPair) -> InvariantRecord:
    """Sign-normalized coefficient of the minimal parameter power, the
    expansion truncated at that power."""
    d = boxes_below_band(diagram, pair)
    degree = true_degree(diagram, pair)
    inv = _truncated_minor(diagram, pair, d, degree).sign_normalized()
    if inv.is_zero():
        raise InternalConsistencyError(f"extracted invariant of {pair} is zero")
    return InvariantRecord(pair, d, degree, inv)


def _cache_dir() -> str | None:
    return os.environ.get("COMPONENT_TABLEAUX_CACHE") or None


@lru_cache(maxsize=None)
def invariant_for(parts: tuple[int, ...], pair: NeighbouringPair) -> InvariantRecord:
    """Memoized extraction, optionally backed by the on-disk cache."""
    diagram = Diagram(parts)
    cache = _cache_dir()
    path = None
    if cache:
        name = "inv_{}_{}_{}.json".format(
            "-".join(map(str, parts)), pair.left, pair.right
        )
        path = os.path.join(cache, name)
        try:
            with open(path) as handle:
                data = json.load(handle)
            cached = InvariantRecord(pair, data["d_D"], data["degree"], Poly.from_json(data["polynomial"]))
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            pass  # a miss; a corrupt entry is rewritten below
        else:
            # A readable entry that cannot be this pair's generator is a miss
            # too: wrong degree or valuation, a non-integer coefficient, or a
            # position outside the interval's nilradical.
            poly = cached.polynomial
            degree = true_degree(diagram, pair)
            inside = interval_entries(diagram, pair)
            if (
                cached.band_boxes == boxes_below_band(diagram, pair)
                and cached.degree == degree
                and poly.total_degrees() == {degree}
                and {type(coeff) for coeff in poly.terms.values()} == {int}
                and all(
                    i in inside and j in inside and diagram.in_nilradical((i, j))
                    for i, j in poly.variables()
                )
            ):
                return cached
    record = extract_invariant(diagram, pair)
    if path:
        os.makedirs(cache, exist_ok=True)
        _write_atomically(path, record.to_json())
    return record


def _write_atomically(path: str, payload) -> None:
    """Write JSON to a temporary file beside ``path`` and rename it into
    place, so concurrent readers never see a half-written entry."""
    fd, temp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def chain_support(diagram: Diagram, pair: NeighbouringPair) -> frozenset[frozenset[Pos]]:
    """All products of s disjoint strictly-left-to-right chains from the left
    column to the right column, as position sets.  Signs are not tracked; the
    determinant engine is authoritative for signed identities."""
    s = pair.height
    frontier0 = tuple(diagram.columns[pair.left])
    results: set[frozenset[Pos]] = set()

    def advance(col: int, frontier: tuple[int, ...], edges: frozenset[Pos]):
        if col == pair.right:
            boxes = diagram.columns[col]
            for image in permutations(boxes):
                results.add(edges | {(frontier[p], image[p]) for p in range(s)})
            return
        boxes = diagram.columns[col]
        visits = min(len(boxes), s)
        for walkers in combinations(range(s), visits):
            for landing in permutations(boxes, visits):
                new_frontier = list(frontier)
                new_edges = set(edges)
                for p, box in zip(walkers, landing):
                    new_edges.add((frontier[p], box))
                    new_frontier[p] = box
                advance(col + 1, tuple(new_frontier), frozenset(new_edges))

    advance(pair.left + 1, frontier0, frozenset())
    return frozenset(results)


def _interval(diagram: Diagram, pair: NeighbouringPair) -> tuple[tuple[int, ...], int]:
    """The pair's interval key, the parts from its left to its right column
    (the first is the pair's height), and the offset c_1 + ... + c_(l-1)
    that shifts the interval's coordinates back to the diagram's."""
    return diagram.parts[pair.left : pair.right + 1], diagram.columns[pair.left][0] - 1


def _generator(key: tuple[int, ...]) -> Poly:
    """The generator of the interval ``key`` in the interval's coordinates."""
    return invariant_for(key, NeighbouringPair(0, len(key) - 1, key[0])).polynomial


# Process-lifetime memos, keyed by the interval key, with every position set
# an int bitmask over the sorted variable cells of the interval's minor: the
# cells themselves, the least monomials (each zero test, and with nothing
# zeroed the sign that the restricted minors take past the bound) and the
# restrictions, whose keys also carry the route.  A miss is computed on the
# caller's diagram; values are stored in interval coordinates.
_VARIABLES: dict = {}
_ZERO_TESTS: dict = {}
_RESTRICTIONS: dict = {}
_MEMOS = (_VARIABLES, _ZERO_TESTS, _RESTRICTIONS)


def _expanded(diagram: Diagram, pair: NeighbouringPair) -> bool:
    """Whether the restriction substitutes into the pair's fully expanded
    generator; schema 1's vanishing report also names this route."""
    return len(interval_entries(diagram, pair)) <= SYMBOLIC_MAX_N


def _variables(diagram: Diagram, pair: NeighbouringPair) -> tuple[tuple[int, ...], int, tuple[Pos, ...]]:
    """The pair's interval key and offset, and the sorted variable cells of
    its minor in interval coordinates: every position that a zero set or a
    restriction can touch."""
    key, offset = _interval(diagram, pair)
    variables = _VARIABLES.get(key)
    if variables is None:
        cells = (c for line in _minor_cells(diagram, pair) for c in line if c not in (None, "a"))
        variables = _VARIABLES[key] = tuple(sorted(_shift(cells, -offset)))
    return key, offset, variables


def _mask(variables: tuple[Pos, ...], offset: int, positions: frozenset[Pos]) -> int:
    """The bitmask of the ``variables`` that, shifted by ``offset``, lie in
    ``positions``."""
    mask = 0
    for k, (i, j) in enumerate(variables):
        if (i + offset, j + offset) in positions:
            mask |= 1 << k
    return mask


def _shift(positions, offset: int) -> tuple[Pos, ...]:
    return tuple((i + offset, j + offset) for i, j in positions)


def _shifted(poly: Poly, offset: int) -> Poly:
    return Poly({_shift(mono, offset): coeff for mono, coeff in poly.terms.items()})


def _zero_test(diagram: Diagram, pair: NeighbouringPair, zeroed: frozenset[Pos]) -> tuple[tuple[Pos, ...], int] | None:
    """``_least_monomial``, computed once per interval key and zero set
    within the minor's variable cells.  Shifting keeps position order, so
    the least monomial shifts back unchanged."""
    key, offset, variables = _variables(diagram, pair)
    memo_key = (key, _mask(variables, offset, zeroed))
    if memo_key not in _ZERO_TESTS:
        least = _least_monomial(diagram, pair, zeroed)
        _ZERO_TESTS[memo_key] = None if least is None else (_shift(least[0], -offset), least[1])
    least = _ZERO_TESTS[memo_key]
    return None if least is None else (_shift(least[0], offset), least[1])


def restricted_generator(
    diagram: Diagram,
    pair: NeighbouringPair,
    symbolic: frozenset[Pos],
    ones: frozenset[Pos],
) -> Poly:
    """The generator with the coordinates in ``symbolic`` kept, the others
    in ``ones`` set to 1 and all the rest to 0, computed once per interval
    key, route and the two sets within the minor's variable cells.

    Up to ``SYMBOLIC_MAX_N`` the expanded generator is substituted into;
    past it, the truncated expansion runs on the restricted minor and takes
    the sign of the least monomial, so the generator is never expanded."""
    key, offset, variables = _variables(diagram, pair)
    memo_key = (key, _expanded(diagram, pair), _mask(variables, offset, symbolic), _mask(variables, offset, ones))
    if memo_key not in _RESTRICTIONS:
        _RESTRICTIONS[memo_key] = _restrict(diagram, pair, symbolic, ones)
    return _shifted(_RESTRICTIONS[memo_key], offset)


def _restrict(diagram: Diagram, pair: NeighbouringPair, symbolic: frozenset[Pos], ones: frozenset[Pos]) -> Poly:
    """``restricted_generator``, uncached, in interval coordinates."""
    key, offset = _interval(diagram, pair)
    if _expanded(diagram, pair):
        poly = _generator(key)
        kept, set_to_one = (frozenset(_shift(positions, -offset)) for positions in (symbolic, ones))
        return poly.substitute({pos: int(pos in set_to_one) for pos in poly.variables() if pos not in kept})
    d, degree = boxes_below_band(diagram, pair), true_degree(diagram, pair)
    rest = _shifted(_truncated_minor(diagram, pair, d, degree, symbolic, ones), -offset)
    least = _zero_test(diagram, pair, frozenset())
    if least is None:
        raise InternalConsistencyError(f"the generator of {pair} is zero")
    return rest if least[1] == 1 else -rest


@dataclass(frozen=True)
class PairVanishing:
    pair: NeighbouringPair
    mode: str  # "symbolic", or "randomized": schema 1's name for the route past the bound
    global_ok: bool
    specific_ok: bool
    global_witness: tuple | None
    specific_witness: tuple | None
    exclusions: frozenset[Pos]  # the penetrating trail's, on which the specific claim was tested


@dataclass(frozen=True)
class VanishingReport:
    results: tuple[PairVanishing, ...]

    @property
    def ok(self) -> bool:
        return all(r.global_ok and r.specific_ok for r in self.results)

    def to_json(self) -> list[dict]:
        return [
            {
                "pair": {"left": r.pair.left + 1, "right": r.pair.right + 1, "height": r.pair.height},
                "mode": r.mode,
                "global": r.global_ok,
                "specific": r.specific_ok,
                "witness": _witness_json(r.global_witness) or _witness_json(r.specific_witness),
            }
            for r in self.results
        ]


def _witness_json(witness):
    if witness is None:
        return None
    return [list(p) for p in sorted(witness)]


def vanishing_check(ct: ComponentTableau, roots: ExcludedRootSet) -> VanishingReport:
    """Every generator must die when the excluded coordinates are zeroed
    (global mode), and each generator already dies under the exclusions of its
    own penetrating trail (specific mode).

    Both claims are decided by the least monomial's assignment, which also
    gives a surviving generator's witness.  Past ``SYMBOLIC_MAX_N`` schema 1
    names the route "randomized" and writes the label "nonzero evaluation"
    in place of the witness."""
    diagram = ct.diagram
    results = []
    for pair in neighbouring_pairs(diagram):
        specific = trail_exclusions(roots, ct.trail(pair))
        expanded = _expanded(diagram, pair)
        g_wit, s_wit = (
            None if least is None else least[0] if expanded else ("nonzero evaluation",)
            for least in (_zero_test(diagram, pair, roots.excluded), _zero_test(diagram, pair, specific))
        )
        mode = "symbolic" if expanded else "randomized"
        results.append(PairVanishing(pair, mode, g_wit is None, s_wit is None, g_wit, s_wit, specific))
    return VanishingReport(tuple(results))


@dataclass(frozen=True)
class PairRestriction:
    pair: NeighbouringPair
    variable: Pos | None  # the surviving star coordinate
    ok: bool
    value: int  # at the section point: the ones and the line set to 1, the other stars to 0
    line: Pos  # the special star line the survivor must be


@dataclass(frozen=True)
class WeierstrassReport:
    results: tuple[PairRestriction, ...]
    distinct: bool

    @property
    def ok(self) -> bool:
        return self.distinct and all(r.ok for r in self.results)


def weierstrass_restrict(ct: ComponentTableau, pair: NeighbouringPair) -> PairRestriction:
    """Restrict the generator to the section: ones to 1, stars kept symbolic,
    everything else to 0.  The result must be plus-or-minus the single star
    coordinate picked out combinatorially."""
    rest = restricted_generator(ct.diagram, pair, ct.v_support, ct.e_support)
    line = special_star_line(ct, pair)
    single = None
    if len(rest.terms) == 1:
        (vars_, coeff), = rest.terms.items()
        if len(vars_) == 1 and coeff in (1, -1):
            single = vars_[0]
    ok = single is not None and single == line and single in ct.v_support
    return PairRestriction(pair, single, ok, rest.terms.get((), 0) + rest.terms.get((line,), 0), line)


def weierstrass_check(ct: ComponentTableau) -> WeierstrassReport:
    results = tuple(weierstrass_restrict(ct, pair) for pair in neighbouring_pairs(ct.diagram))
    seen = [r.variable for r in results if r.variable is not None]
    distinct = len(seen) == len(set(seen))
    return WeierstrassReport(results, distinct)


def invariant_variable_disjointness(diagram: Diagram) -> bool:
    """Whether the generators of the composition use pairwise disjoint sets of
    coordinates (true for partition-shaped compositions)."""
    seen: set[Pos] = set()
    for pair in neighbouring_pairs(diagram):
        key, offset = _interval(diagram, pair)
        vars_ = frozenset(_shift(_generator(key).variables(), offset))
        if seen & vars_:
            return False
        seen |= vars_
    return True
