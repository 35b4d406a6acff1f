from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilfibre.builder import component_tableaux
from nilfibre.conformance import compositions_of, verify_composition
from nilfibre.core import (
    Diagram,
    InternalConsistencyError,
    InvalidInput,
    NeighbouringPair,
    boxes_below_band,
    interval_entries,
    neighbouring_pairs,
    true_degree,
)
from nilfibre.invariants import (
    SYMBOLIC_MAX_N,
    InvariantRecord,
    chain_support,
    extract_invariant,
    invariant_for,
    restricted_generator,
    symbolic_minor,
    vanishing_check,
    weierstrass_check,
)
from nilfibre.poly import Poly
from nilfibre.roots import excluded_roots, trail_exclusions

from tableau_helpers import by_stars

compositions = st.lists(st.integers(1, 3), min_size=1, max_size=5).map(tuple)


def the_pair(parts, height, index=0):
    return [p for p in neighbouring_pairs(Diagram(parts)) if p.height == height][index]


def poly_of(monomials):
    return Poly({tuple(sorted(positions)): coeff for coeff, positions in monomials})


def test_minor_121():
    d = Diagram((1, 2, 1))
    minor = symbolic_minor(d, the_pair((1, 2, 1), 1))
    # -a(x12 x24 + x13 x34) + a^2 x14
    assert minor == {1: poly_of([(-1, [(1, 2), (2, 4)]), (-1, [(1, 3), (3, 4)])]), 2: poly_of([(1, [(1, 4)])])}


def test_invariant_121():
    d = Diagram((1, 2, 1))
    rec = extract_invariant(d, the_pair((1, 2, 1), 1))
    assert rec.polynomial == poly_of([(1, [(1, 2), (2, 4)]), (1, [(1, 3), (3, 4)])])
    assert rec.band_boxes == 1
    assert rec.degree == 2


def test_minor_22_hand_determinant():
    d = Diagram((2, 2))
    minor = symbolic_minor(d, the_pair((2, 2), 2))
    want = poly_of([(1, [(1, 3), (2, 4)]), (-1, [(1, 4), (2, 3)])])
    assert minor == {0: want} or minor == {0: -want}
    rec = extract_invariant(d, the_pair((2, 2), 2))
    assert rec.polynomial == want  # sign normalized on the least monomial


def test_minor_11_single_cell():
    d = Diagram((1, 1))
    rec = extract_invariant(d, the_pair((1, 1), 1))
    assert rec.polynomial == poly_of([(1, [(1, 2)])])
    assert rec.band_boxes == 0 and rec.degree == 1


def test_invariant_2112_inner_pair():
    d = Diagram((2, 1, 1, 2))
    rec = extract_invariant(d, the_pair((2, 1, 1, 2), 1))
    assert rec.polynomial == poly_of([(1, [(3, 4)])])
    assert rec.degree == 1


def test_chain_support_examples():
    d = Diagram((1, 2, 1))
    assert chain_support(d, the_pair((1, 2, 1), 1)) == frozenset(
        {frozenset({(1, 2), (2, 4)}), frozenset({(1, 3), (3, 4)})}
    )
    d = Diagram((2, 2))
    assert chain_support(d, the_pair((2, 2), 2)) == frozenset(
        {frozenset({(1, 3), (2, 4)}), frozenset({(1, 4), (2, 3)})}
    )
    d = Diagram((1, 1))
    assert chain_support(d, the_pair((1, 1), 1)) == frozenset({frozenset({(1, 2)})})


@given(compositions)
@settings(max_examples=25, deadline=None)
def test_chain_engine_matches_determinant(parts):
    d = Diagram(parts)
    for pair in neighbouring_pairs(d):
        rec = invariant_for(parts, pair)
        assert frozenset(map(frozenset, rec.polynomial.terms)) == chain_support(d, pair)


@given(compositions)
@settings(max_examples=25, deadline=None)
def test_minor_valuation(parts):
    d = Diagram(parts)
    for pair in neighbouring_pairs(d):
        minor = symbolic_minor(d, pair)
        assert min(minor) == boxes_below_band(d, pair)
        assert not any(coeff.is_zero() for coeff in minor.values())


def test_substitute_full_and_partial():
    d = Diagram((1, 2, 1))
    rec = extract_invariant(d, the_pair((1, 2, 1), 1))
    assert rec.polynomial.substitute({(1, 2): 1, (2, 4): 1, (1, 3): 0, (3, 4): 0}).constant_value() == 1
    assert rec.polynomial.substitute({v: 0 for v in rec.polynomial.variables()}).is_zero()
    # zeroing the starred coordinates of the canonical tableau kills it
    assert rec.polynomial.substitute({(2, 4): 0, (3, 4): 0}).is_zero()
    assert rec.polynomial.substitute({(2, 4): 0}) == poly_of([(1, [(1, 3), (3, 4)])])
    with pytest.raises(InvalidInput, match="not constant"):
        rec.polynomial.substitute({(2, 4): 0}).constant_value()


def test_repeated_position_is_rejected():
    with pytest.raises(ValueError, match="repeats a position"):
        Poly.from_json([{"coeff": 1, "vars": [[1, 2], [2, 3], [1, 2]]}])


@pytest.mark.parametrize("position", [[3.0, 4], [3, 4.0], [True, 4], [3, "4"]])
def test_from_json_rejects_a_position_entry_that_is_no_int(position):
    with pytest.raises(ValueError, match="not an int"):
        Poly.from_json([{"coeff": 1, "vars": [[1, 2], position]}])
    assert Poly.from_json([{"coeff": 1, "vars": [[1, 2], [3, 4]]}]) == Poly({((1, 2), (3, 4)): 1})


@pytest.mark.parametrize("record", [{"coeff": 1, "vars": [[1, 2]], "aPow": 0}, {"coeff": 1}, {"vars": [[1, 2]]}])
def test_from_json_rejects_other_keys(record):
    with pytest.raises(ValueError, match="keys other than"):
        Poly.from_json([{"coeff": 1, "vars": [[3, 4]]}, record])


def test_vanishing_2112():
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    report = vanishing_check(ct, excluded_roots(ct))
    assert report.ok
    # zeroing the three exclusions kills both generators by hand too
    d = ct.diagram
    inv = extract_invariant(d, the_pair((2, 1, 1, 2), 2))
    zeroed = inv.polynomial.substitute({p: 0 for p in [(3, 4), (3, 6), (4, 6)]})
    assert zeroed.is_zero()


def test_vanishing_212121_all_five():
    for ct in component_tableaux(Diagram((2, 1, 2, 1, 2, 1))):
        assert vanishing_check(ct, excluded_roots(ct)).ok


def test_vanishing_vacuous_without_pairs():
    (ct,) = component_tableaux(Diagram((3, 2, 1)))
    assert vanishing_check(ct, excluded_roots(ct)).ok


def test_nonvanishing_witness_reported():
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    trimmed = excluded_roots(ct)
    # drop one exclusion: the generators must survive and name a witness
    smaller = frozenset({(3, 4)})
    from nilfibre.roots import ExcludedRootSet

    fake = ExcludedRootSet(trimmed.by_generator, smaller, ct.diagram.nilradical_positions() - smaller)
    report = vanishing_check(ct, fake)
    assert not report.ok
    failing = [r for r in report.results if not r.global_ok]
    assert failing and all(r.global_witness for r in failing)


def test_randomized_engine_agrees(restricted_route):
    for parts in [(2, 1, 1, 2), (1, 2, 1, 2), (2, 1, 1, 1, 2)]:
        for ct in component_tableaux(Diagram(parts)):
            roots = excluded_roots(ct)
            assert vanishing_check(ct, roots).ok


def test_randomized_engine_detects_nonzero(restricted_route):
    # past the bound a surviving generator is reported under schema 1's
    # names: mode "randomized" and a witness that spells out its label
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    from nilfibre.roots import ExcludedRootSet

    smaller = frozenset({(3, 4)})
    fake = ExcludedRootSet((), smaller, ct.diagram.nilradical_positions() - smaller)
    report = vanishing_check(ct, fake)
    assert not report.ok
    spelled = [list("nonzero evaluation")]
    assert report.to_json() == [
        {"pair": {"left": 2, "right": 3, "height": 1}, "mode": "randomized", "global": True, "specific": False, "witness": spelled},
        {"pair": {"left": 1, "right": 4, "height": 2}, "mode": "randomized", "global": False, "specific": False, "witness": spelled},
    ]


def test_weierstrass_values_1212():
    upper = by_stars((1, 2, 1, 2), {(2, 4), (2, 6)})
    report = weierstrass_check(upper)
    assert report.ok
    assert {r.variable for r in report.results} == {(2, 4), (2, 6)}
    lower = by_stars((1, 2, 1, 2), {(2, 4), (3, 4)})
    report = weierstrass_check(lower)
    assert report.ok
    assert {r.variable for r in report.results} == {(2, 4), (3, 4)}


def test_weierstrass_121():
    (ct,) = component_tableaux(Diagram((1, 2, 1)))
    report = weierstrass_check(ct)
    assert report.ok
    assert [r.variable for r in report.results] == [(2, 4)]


def test_weierstrass_21112_middle():
    ct = by_stars((2, 1, 1, 1, 2), {(3, 4), (4, 5), (3, 5)})
    report = weierstrass_check(ct)
    assert report.ok
    assert {r.variable for r in report.results} == {(3, 4), (4, 5), (3, 5)}


def section_point_value(ct, r):
    """The reference for a restriction's section value: the generator at the
    point with the ones and the special star line set to 1 and every other
    coordinate to 0."""
    return restricted_generator(ct.diagram, r.pair, frozenset(), ct.e_support | {r.line}).constant_value()


@pytest.mark.parametrize("bound", [SYMBOLIC_MAX_N, 0])
def test_section_values_match_the_point_restriction(monkeypatch, bound):
    # every (tableau, pair) of n <= 9, on both routes
    from nilfibre import invariants

    monkeypatch.setattr(invariants, "SYMBOLIC_MAX_N", bound)
    checked = 0
    for n in range(1, 10):
        for parts in compositions_of(n):
            for ct in component_tableaux(Diagram(parts)):
                for r in weierstrass_check(ct).results:
                    assert r.value == section_point_value(ct, r), (parts, r.pair)
                    checked += 1
    assert checked == 1719


def test_exceptional_constituents_carry_exclusions(small_compositions):
    # a chain monomial that zig-zags in the amalgamated tableau always
    # contains an excluded coordinate
    from nilfibre.roots import hatted_tableau, excluded_from_word

    for parts in small_compositions:
        d = Diagram(parts)
        for ct in component_tableaux(d):
            for pair in neighbouring_pairs(d):
                ht = hatted_tableau(ct, pair)
                place = {}
                for c, col in enumerate(ht.columns):
                    for entry in col:
                        place[entry] = c
                excl = excluded_from_word(ht.word(), d)
                for monomial in chain_support(d, pair):
                    zigzag = any(place[i] >= place[j] for i, j in monomial)
                    if zigzag:
                        assert monomial & excl, (parts, pair, monomial)


def test_max_height_fast_path(small_compositions):
    # pairs of maximal height within their interval vanish once the
    # penetrating trail's primary exclusions are zeroed
    from nilfibre.roots import _generator_exclusions

    checked = 0
    for parts in small_compositions:
        d = Diagram(parts)
        for ct in component_tableaux(d):
            for pair in neighbouring_pairs(d):
                if any(d.height(c) > pair.height for c in range(pair.left, pair.right + 1)):
                    continue
                primary = frozenset(
                    p
                    for m in ct.trail(pair)
                    for p in _generator_exclusions(d, m).primary
                )
                reduced = invariant_for(parts, pair).polynomial.substitute({p: 0 for p in primary})
                assert reduced.is_zero(), (parts, pair)
                checked += 1
    assert checked > 50


def full_span_pair(parts):
    (pair,) = [p for p in neighbouring_pairs(Diagram(parts)) if p.left == 0 and p.right == len(parts) - 1]
    return pair


def interval_keys(n):
    # the interval keys of n entries: compositions whose first and last parts
    # are equal and whose interior has no part of that height
    return [p for p in compositions_of(n) if len(p) > 1 and p[0] == p[-1] and p[0] not in p[1:-1]]


def test_truncated_extraction_matches_full_expansion():
    # the production route expands only up to the valuation power; the full
    # symbolic minor is the oracle, its leading coefficient read here with
    # the valuation and the degree checked; every interval key of at most 12
    # entries is covered, the expanded restriction route's and beyond
    cases = [
        (parts, pair)
        for n in range(1, 10)
        for parts in compositions_of(n)
        for pair in neighbouring_pairs(Diagram(parts))
    ]
    keys = [parts for n in range(1, 13) for parts in interval_keys(n)]
    assert len(keys) == 240
    cases += [(parts, full_span_pair(parts)) for parts in keys + [(5, 3, 5), (4, 1, 2, 2, 4)]]
    for parts, pair in cases:
        d = Diagram(parts)
        fast = extract_invariant(d, pair)
        minor = symbolic_minor(d, pair)
        b, degree = boxes_below_band(d, pair), true_degree(d, pair)
        assert min(minor) == b, (parts, pair)
        assert minor[b].total_degrees() == {degree}, (parts, pair)
        assert fast == InvariantRecord(pair, b, degree, minor[b].sign_normalized()), (parts, pair)
        assert set(fast.polynomial.terms.values()) <= {1, -1}, (parts, pair)
        assert frozenset(map(frozenset, fast.polynomial.terms)) == chain_support(d, pair), (parts, pair)
        assert Poly.from_json(fast.polynomial.to_json()) == fast.polynomial, (parts, pair)
    assert len(cases) > 1000


def test_truncated_extraction_keeps_the_valuation_guard(monkeypatch):
    from nilfibre import invariants

    parts = (1, 2, 1)
    d = Diagram(parts)
    pair = the_pair(parts, 1)
    monkeypatch.setattr(invariants, "boxes_below_band", lambda diagram, pair: boxes_below_band(diagram, pair) + 1)
    with pytest.raises(InternalConsistencyError, match="below valuation"):
        extract_invariant(d, pair)


def test_restricted_minor_with_every_cell_symbolic_is_the_generator(restricted_route):
    # past the bound the sign comes from one assignment, not from the
    # expanded generator's least monomial; a bound of 0 forces that route
    cases = [
        (parts, pair)
        for n in range(1, 10)
        for parts in compositions_of(n)
        for pair in neighbouring_pairs(Diagram(parts))
    ]
    cases += [(parts, full_span_pair(parts)) for parts in ((5, 3, 5), (4, 1, 2, 2, 4))]
    for parts, pair in cases:
        d = Diagram(parts)
        restricted = restricted_generator(d, pair, d.nilradical_positions(), frozenset())
        assert restricted == extract_invariant(d, pair).polynomial, (parts, pair)
    assert len(cases) > 1000


def _least_monomial_coefficient(diagram, pair):
    # the route the parity replaced: the least monomial from the same
    # weighted assignment, then its coefficient read off the truncated minor
    # with just that monomial's cells set to 1
    from nilfibre.invariants import _min_cost_matching, _minor_cells, _truncated_minor

    cells = _minor_cells(diagram, pair)
    positions = sorted(cell for line in cells for cell in line if cell not in (None, "a"))
    weight = {pos: -(1 << (len(positions) - k)) for k, pos in enumerate(positions)}
    weight["a"] = 1 << (len(positions) + 2)
    match = _min_cost_matching([[None if cell is None else weight[cell] for cell in line] for line in cells])
    least = frozenset(cells[r][q] for r, q in enumerate(match)) - {"a"}
    d, degree = boxes_below_band(diagram, pair), true_degree(diagram, pair)
    return _truncated_minor(diagram, pair, d, degree, frozenset(), least).constant_value()


def test_generator_sign_is_the_least_monomials_coefficient(monkeypatch):
    # every pair of n <= 9 and of the deep compositions of 12 and 13
    # (c_1 == c_k >= 3, interior parts below c_1), whose full-span pairs are
    # past the bound: the sign of the un-zeroed least monomial
    from nilfibre import invariants
    from nilfibre.invariants import _least_monomial

    deep = [
        parts
        for n in (12, 13)
        for parts in compositions_of(n)
        if len(parts) >= 3 and parts[0] == parts[-1] >= 3 and all(p < parts[0] for p in parts[1:-1])
    ]
    cases = [
        (parts, pair)
        for parts in [parts for n in range(1, 10) for parts in compositions_of(n)] + deep
        for pair in neighbouring_pairs(Diagram(parts))
    ]
    for parts, pair in cases:
        d = Diagram(parts)
        _, sign = _least_monomial(d, pair, frozenset())
        assert sign == _least_monomial_coefficient(d, pair), (parts, pair)
    assert len(cases) == 1270
    # a least monomial below the valuation power raises
    d = Diagram(deep[0])
    pair = full_span_pair(deep[0])
    monkeypatch.setattr(invariants, "boxes_below_band", lambda diagram, pair: boxes_below_band(diagram, pair) + 1)
    with pytest.raises(InternalConsistencyError, match="below valuation"):
        _least_monomial(d, pair, frozenset())


def test_matching_zero_test_matches_substitution(restricted_route):
    # the zero test at a routing bound of 0, vanishing's answer with the
    # witness that schema 1 writes as a label past the bound: the least
    # monomial against the disjoint chains that survive the zero set, and,
    # for the pairs within the default bound, the answer against the expanded
    # generator's substitution; the checks' zero sets, the empty set and the
    # ones
    from nilfibre.invariants import _zero_test

    cases = [parts for n in range(1, 10) for parts in compositions_of(n)] + [(5, 3, 5), (4, 1, 2, 2, 4)]
    outcomes = []
    for parts in cases:
        d = Diagram(parts)
        pairs = neighbouring_pairs(d)
        chains = {pair: chain_support(d, pair) for pair in pairs}
        for ct in component_tableaux(d):
            roots = excluded_roots(ct)
            for pair in pairs:
                specific = trail_exclusions(roots, ct.trail(pair))
                for kind, zeroed in enumerate((roots.excluded, specific, frozenset(), ct.e_support)):
                    least = _zero_test(d, pair, zeroed)
                    expected = min((m for m in chains[pair] if not m & zeroed), key=sorted, default=None)
                    witness = None if least is None else least[0]
                    assert witness == (None if expected is None else tuple(sorted(expected))), (parts, pair, zeroed)
                    if len(interval_entries(d, pair)) <= SYMBOLIC_MAX_N:
                        reduced = invariant_for(parts, pair).polynomial.substitute({p: 0 for p in zeroed})
                        assert reduced.is_zero() == (least is None), (parts, pair, zeroed)
                    outcomes.append((kind, least is None))
    checks = [zero for kind, zero in outcomes if kind < 3]
    assert (checks.count(True), checks.count(False)) == (3444, 1722)
    ones = [zero for kind, zero in outcomes if kind == 3]
    assert (ones.count(True), ones.count(False)) == (176, 1546)


def _det(matrix):
    # Bareiss elimination: every division is exact
    work, sign, prev, n = [list(r) for r in matrix], 1, 1, len(matrix)
    for k in range(n - 1):
        if work[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if work[r][k] != 0), None)
            if swap is None:
                return 0
            work[k], work[swap], sign = work[swap], work[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
        prev = work[k][k]
    return sign * work[-1][-1] if n else 1


def _coefficient(points, values, power):
    # the coefficient of a**power in the polynomial through (points, values), by Lagrange
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis = [Fraction(yi)]
        for j, xj in enumerate(points):
            if j != i:
                basis = [(lo - xj * hi) / (xi - xj) for lo, hi in zip([0] + basis, basis + [0])]
        total += basis[power]
    assert total.denominator == 1
    return int(total)


def _trial_loop(diagram, pair, zeroed, rng, trials=8):
    # random trials, independent of the matching test: the generator's value
    # at a random integer point with the zeroed coordinates set to 0 is the
    # a**d coefficient of the minor's determinant, interpolated exactly
    from nilfibre.invariants import _minor_cells

    cells = _minor_cells(diagram, pair)
    d = boxes_below_band(diagram, pair)
    points = range(1, len(cells) + 2)
    for _ in range(trials):
        base = [[None if c == "a" else 0 if c is None or c in zeroed else rng.randrange(1, 1 << 32) for c in line] for line in cells]
        values = [_det([[a if v is None else v for v in line] for line in base]) for a in points]
        if _coefficient(points, values, d) != 0:
            return False
    return True


def test_randomized_zero_matches_the_trial_loop():
    # the least monomial's answer, on which both routes decide, against
    # random trials of the generator's value, for zero and surviving
    # generators alike
    from nilfibre.invariants import _least_monomial

    cases = [parts for n in range(1, 10) for parts in compositions_of(n)] + [(5, 3, 5), (4, 1, 2, 2, 4)]
    rng = Random(3)
    outcomes = []
    for parts in cases:
        d = Diagram(parts)
        for ct in component_tableaux(d):
            roots = excluded_roots(ct)
            for pair in neighbouring_pairs(d):
                for zeroed in (roots.excluded, trail_exclusions(roots, ct.trail(pair)), frozenset()):
                    vanishes = _least_monomial(d, pair, zeroed) is None
                    assert vanishes == _trial_loop(d, pair, zeroed, rng), (parts, pair, zeroed)
                    outcomes.append(vanishes)
    assert (outcomes.count(True), outcomes.count(False)) == (3444, 1722)


def _without_modes(report: dict) -> dict:
    # the vanishing mode names the route, so it is the one field that differs
    del report["engineModes"]
    for entry in report["tableaux"]:
        for result in entry["vanishing"]:
            del result["mode"]
    return report


def test_restricted_route_reports_match_the_expanded_route(monkeypatch):
    from nilfibre import invariants

    checks = ("vanishing", "weierstrass", "injectivity")
    for n in range(1, 10):
        for parts in compositions_of(n):
            diagram = Diagram(parts)
            expanded = _without_modes(verify_composition(diagram, checks, 0))
            with monkeypatch.context() as patch:
                patch.setattr(invariants, "SYMBOLIC_MAX_N", 0)
                assert _without_modes(verify_composition(diagram, checks, 0)) == expanded, parts


@pytest.mark.parametrize("parts", [(5, 3, 5), (4, 1, 2, 2, 4)])
def test_no_generator_past_the_bound_is_expanded(monkeypatch, fresh_memos, parts):
    from nilfibre import invariants

    extracted = []
    extract = invariants.extract_invariant

    def counting(diagram, pair):
        extracted.append(len(interval_entries(diagram, pair)))
        return extract(diagram, pair)

    monkeypatch.setattr(invariants, "extract_invariant", counting)
    verify_composition(Diagram(parts))
    inner = [p for p in neighbouring_pairs(Diagram(parts)) if p != full_span_pair(parts)]
    # one extraction per interval key of an inner pair
    assert len(extracted) == len({parts[p.left : p.right + 1] for p in inner})
    assert all(size <= SYMBOLIC_MAX_N for size in extracted)
    extracted.clear()
    fresh_memos()
    monkeypatch.setattr(invariants, "SYMBOLIC_MAX_N", 0)
    verify_composition(Diagram(parts), ("weierstrass", "injectivity"))
    assert extracted == []


def _interval_of(parts, pair):
    # the pair's interval key (the interval's parts, the first being the
    # pair's height), its pair in interval coordinates and the offset
    # c_1 + ... + c_(l-1), built here from the parts alone
    local = parts[pair.left : pair.right + 1]
    return local, NeighbouringPair(0, len(local) - 1, pair.height), sum(parts[: pair.left])


def _shift(positions, offset):
    return frozenset((i - offset, j - offset) for i, j in positions)


def test_interval_generator_shifts_to_the_compositions_generator():
    # the generator of every pair of n <= 10 is its interval's generator
    # with every position shifted by the offset
    checked = 0
    for n in range(1, 11):
        for parts in compositions_of(n):
            d = Diagram(parts)
            for pair in neighbouring_pairs(d):
                local, local_pair, offset = _interval_of(parts, pair)
                shifted = extract_invariant(Diagram(local), local_pair)
                direct = extract_invariant(d, pair)
                poly = Poly(
                    {tuple((i + offset, j + offset) for i, j in mono): c for mono, c in shifted.polynomial.terms.items()}
                )
                assert (poly, shifted.degree, shifted.band_boxes) == (
                    direct.polynomial,
                    direct.degree,
                    direct.band_boxes,
                ), (parts, pair)
                checked += 1
    assert checked == 2515


MEMO_CASES = [parts for n in range(1, 10) for parts in compositions_of(n)] + [
    (3, 1, 2, 2, 3),
    (2, 1, 1, 5, 2),
    (5, 3, 5),
    (4, 1, 2, 2, 4),
]


def test_memoized_zero_tests_and_restrictions_match_the_direct_route(monkeypatch, fresh_memos):
    # the interval-keyed memos against both zero tests, with their
    # witnesses, and the restriction, rebuilt here on the whole diagram
    # with nothing memoized; past the checks' own sets, the empty zero set
    # and the ones let generators survive with a witness, and two more
    # restrictions share the checks' stars or ones; the restricted route
    # runs second, on memos the default route has filled
    from nilfibre import invariants
    from nilfibre.invariants import _least_monomial, _truncated_minor, _zero_test

    generators = {}

    def generator(d, pair):
        if (d.parts, pair) not in generators:
            generators[d.parts, pair] = extract_invariant(d, pair).polynomial
        return generators[d.parts, pair]

    def zero_test(d, pair, zeroed):
        # within the bound the least monomial is also the expanded
        # generator's least surviving monomial
        least = _least_monomial(d, pair, zeroed)
        if len(interval_entries(d, pair)) <= bound:
            reduced = generator(d, pair).substitute({p: 0 for p in zeroed})
            witness = None if reduced.is_zero() else min(reduced.terms)
            assert witness == (None if least is None else least[0]), (d.parts, pair, zeroed)
        return least

    def claim(d, pair, zeroed):
        least = zero_test(d, pair, zeroed)
        if least is None:
            return True, None
        return False, least[0] if len(interval_entries(d, pair)) <= bound else ("nonzero evaluation",)

    def restriction(d, pair, symbolic, ones):
        if len(interval_entries(d, pair)) > bound:
            b, degree = boxes_below_band(d, pair), true_degree(d, pair)
            _, sign = _least_monomial(d, pair, frozenset())
            rest = _truncated_minor(d, pair, b, degree, symbolic, ones)
            return rest if sign == 1 else -rest
        poly = generator(d, pair)
        return poly.substitute({p: int(p in ones) for p in poly.variables() if p not in symbolic})

    checked = survivors = 0
    for bound, parts in [(bound, parts) for bound in (SYMBOLIC_MAX_N, 0) for parts in MEMO_CASES]:
        monkeypatch.setattr(invariants, "SYMBOLIC_MAX_N", bound)
        d = Diagram(parts)
        for ct in component_tableaux(d):
            roots = excluded_roots(ct)
            for result in vanishing_check(ct, roots).results:
                pair = result.pair
                assert (result.global_ok, result.global_witness) == claim(d, pair, roots.excluded), (parts, pair)
                assert (result.specific_ok, result.specific_witness) == claim(d, pair, result.exclusions), (parts, pair)
                for zeroed in (frozenset(), ct.e_support):
                    got = _zero_test(d, pair, zeroed)
                    assert got == zero_test(d, pair, zeroed), (parts, pair, zeroed)
                    survivors += got is not None
                for symbolic, ones in (
                    (ct.v_support, ct.e_support),
                    (ct.v_support, frozenset()),
                    (frozenset(), ct.e_support | ct.v_support),
                ):
                    got = restricted_generator(d, pair, symbolic, ones)
                    assert got == restriction(d, pair, symbolic, ones), (parts, pair, symbolic, ones)
                checked += 1
    assert checked == 2 * 1730
    assert survivors > 2 * 1730


@pytest.mark.parametrize("bound", [SYMBOLIC_MAX_N, 0])
def test_each_zero_test_and_restriction_key_is_computed_once(monkeypatch, fresh_memos, bound):
    # over a sweep of n <= 9 a least monomial or a restriction is computed
    # once per interval key and position sets within the minor's variable
    # cells; past the bound each restriction's sign is the least monomial
    # with nothing zeroed, which adds only the un-zeroed keys; the keys are
    # counted here from the tableaux, apart from the memos
    from nilfibre import invariants
    from nilfibre.conformance import sweep
    from nilfibre.invariants import _minor_cells

    monkeypatch.setattr(invariants, "SYMBOLIC_MAX_N", bound)
    zero_keys, restriction_keys, unzeroed_keys = set(), set(), set()
    for n in range(1, 10):
        for parts in compositions_of(n):
            d = Diagram(parts)
            variables = {}
            for pair in neighbouring_pairs(d):
                key, _, offset = _interval_of(parts, pair)
                cells = frozenset(c for line in _minor_cells(d, pair) for c in line if c not in (None, "a"))
                variables[pair] = (key, offset, cells)
                if len(interval_entries(d, pair)) > bound:
                    unzeroed_keys.add((key, frozenset()))
            for ct in component_tableaux(d):
                roots = excluded_roots(ct)
                for pair, (key, offset, cells) in variables.items():
                    specific = trail_exclusions(roots, ct.trail(pair))
                    for zeroed in (roots.excluded, specific):
                        zero_keys.add((key, _shift(zeroed & cells, offset)))
                    stars, ones = _shift(ct.v_support & cells, offset), _shift(ct.e_support & cells, offset)
                    restriction_keys.add((key, stars, ones))

    calls = {"extract": 0, "zero": 0, "restrict": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(invariants, "extract_invariant", counting("extract", invariants.extract_invariant))
    monkeypatch.setattr(invariants, "_least_monomial", counting("zero", invariants._least_monomial))
    monkeypatch.setattr(invariants, "_restrict", counting("restrict", invariants._restrict))
    for report in sweep(9, ("vanishing", "weierstrass", "injectivity")):
        assert report["pass"], report["composition"]
    assert calls == {
        "extract": 46 if bound else 0,
        "zero": len(zero_keys | unzeroed_keys),
        "restrict": len(restriction_keys),
    }
    assert (len(zero_keys), len(restriction_keys), len(unzeroed_keys)) == (157, 106, 0 if bound else 46)
    assert len(zero_keys | unzeroed_keys) == (157 if bound else 203)


def test_verifying_every_composition_of_9_extracts_one_generator_per_interval_key(monkeypatch, fresh_memos):
    from nilfibre import invariants

    extracted = []
    extract = invariants.extract_invariant

    def counting(diagram, pair):
        extracted.append((diagram.parts, pair))
        return extract(diagram, pair)

    monkeypatch.setattr(invariants, "extract_invariant", counting)
    keys = set()
    for parts in compositions_of(9):
        assert verify_composition(Diagram(parts))["pass"], parts
        keys |= {_interval_of(parts, pair)[0] for pair in neighbouring_pairs(Diagram(parts))}
    assert len(extracted) == len(set(extracted)) == len(keys) == 46
    assert invariant_for.cache_info().currsize == 46


def test_vanishing_alone_expands_no_generator(monkeypatch, fresh_memos):
    # both claims and the witness come from the least monomial, so no
    # generator is extracted; the entries are those of the all-checks report
    from nilfibre import invariants

    extracted = []
    extract = invariants.extract_invariant

    def counting(diagram, pair):
        extracted.append((diagram.parts, pair))
        return extract(diagram, pair)

    monkeypatch.setattr(invariants, "extract_invariant", counting)
    cases = [Diagram(parts) for n in range(1, 10) for parts in compositions_of(n)]
    alone = [verify_composition(d, ("vanishing",)) for d in cases]
    assert extracted == []
    for d, report in zip(cases, alone):
        everything = verify_composition(d)
        assert [t["vanishing"] for t in report["tableaux"]] == [t["vanishing"] for t in everything["tableaux"]], d.parts


@pytest.mark.parametrize("parts, modes", [((5, 3, 5), ["randomized"]), ((4, 1, 2, 2, 4), ["randomized", "symbolic"])])
def test_past_bound_composition_passes(parts, modes):
    report = verify_composition(Diagram(parts))
    assert report["pass"] and report["engineModes"] == modes
