from itertools import combinations
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilfibre.analysis as analysis
import nilfibre.invariants as invariants
from nilfibre.analysis import (
    covering_check,
    injectivity_witness,
    jordan_type,
    orbit_dimension,
    orbital_variety_test,
    tangent_dimension,
)
from nilfibre.builder import ComponentTableau, component_tableaux
from nilfibre.conformance import compositions_of, verify_composition
from nilfibre.core import Diagram, InternalConsistencyError, InvalidInput, interval_entries, neighbouring_pairs
from nilfibre.invariants import (
    SYMBOLIC_MAX_N,
    invariant_for,
    invariant_variable_disjointness,
    restricted_generator,
    vanishing_check,
    weierstrass_check,
)
from nilfibre.linalg import exact_rank
from nilfibre.roots import ExcludedRootSet, excluded_roots, special_star_line, trail_exclusions

compositions = st.lists(st.integers(1, 3), min_size=1, max_size=5).map(tuple)


def by_stars(parts, stars):
    matches = [ct for ct in component_tableaux(Diagram(parts)) if ct.v_support == frozenset(stars)]
    assert len(matches) == 1
    return matches[0]


def one_matrix(n, support):
    mat = [[0] * n for _ in range(n)]
    for i, j in support:
        mat[i - 1][j - 1] = 1
    return mat


def test_covering_2112():
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    assert excluded_roots(ct).excluded - ct.v_support == {(4, 6)}
    report = covering_check(ct, excluded_roots(ct))
    assert report.ok and report.labels_ok and report.unique_row_cover
    assert (4, 5) in ct.e_support  # the cover sits left of (4,6) in row 4


def test_covering_superfluous_secondary():
    # the superfluous secondary exclusion (1,3) is covered by the one at (1,2)
    ct = by_stars((1, 2, 1, 2), {(2, 4), (3, 4)})
    assert (1, 3) in excluded_roots(ct).excluded - ct.v_support
    assert (1, 2) in ct.e_support
    assert covering_check(ct, excluded_roots(ct)).ok


def test_covering_vacuous():
    (ct,) = component_tableaux(Diagram((3, 2, 1)))
    report = covering_check(ct, excluded_roots(ct))
    assert report.ok and not report.uncovered


def test_covering_small_sweep(small_compositions):
    for parts in small_compositions:
        for ct in component_tableaux(Diagram(parts)):
            report = covering_check(ct, excluded_roots(ct))
            assert report.ok and report.labels_ok and report.unique_row_cover, parts


def test_tangent_2112():
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    report = tangent_dimension(ct, excluded_roots(ct))
    assert report.dim_nilradical == 13
    assert report.generators == 2
    assert report.rank_u_plus_ne == 11
    assert report.ok


def test_tangent_trivial():
    (ct,) = component_tableaux(Diagram((3, 2, 1)))
    report = tangent_dimension(ct, excluded_roots(ct))
    assert report.generators == 0
    assert report.rank_u_plus_ne == report.dim_nilradical
    assert report.ok


def test_tangent_21112_all_three():
    for ct in component_tableaux(Diagram((2, 1, 1, 1, 2))):
        report = tangent_dimension(ct, excluded_roots(ct))
        assert report.rank_u_plus_ne == report.dim_nilradical - 3
        assert report.ok


def test_tangent_small_sweep(small_compositions):
    for parts in small_compositions:
        for ct in component_tableaux(Diagram(parts)):
            assert tangent_dimension(ct, excluded_roots(ct)).ok, parts


def stacked_dimension(ct, roots):
    """The dense route: U and Y written out as identity rows beside the
    bracket rows [E_ij, e], and every stack eliminated as a whole."""
    diagram = ct.diagram
    positions = sorted(diagram.nilradical_positions())
    index = {pos: k for k, pos in enumerate(positions)}
    dim_m = len(positions)

    def unit(pos):
        vec = [0] * dim_m
        vec[index[pos]] = 1
        return vec

    ne = []
    for i in range(1, diagram.n + 1):
        for j in range(i + 1, diagram.n + 1):
            vec = [0] * dim_m
            for k, l in ct.e_support:
                if j == k and (i, l) in index:
                    vec[index[(i, l)]] += 1
                if l == i and (k, j) in index:
                    vec[index[(k, j)]] -= 1
            if any(vec):
                ne.append(vec)
    u = [unit(pos) for pos in roots.u_support]
    y = [unit(pos) for pos in ct.v_support]
    rank_ne = exact_rank(ne)
    rank_u_ne = exact_rank(u + ne)
    rank_all = exact_rank(u + ne + y)
    return (
        rank_u_ne,
        rank_all == dim_m and rank_u_ne + len(y) == dim_m,
        exact_rank(ne + y) == rank_ne + len(y),
    )


def relabelled(ct, **supports):
    """A stand-in for ``ct`` carrying the given supports, which no tableau
    can carry: ``tangent_dimension`` reads only the diagram and the two
    supports."""
    return SimpleNamespace(**{"diagram": ct.diagram, "e_support": ct.e_support, "v_support": ct.v_support, **supports})


def test_tangent_ranks_match_stacked_route():
    # genuine data, a trimmed excluded set (its dropped position joins U and
    # may also be starred), a starred set widened to the whole nilradical and
    # one with a star moved into U, so the False branches are compared too
    outcomes = set()
    for parts in (p for n in range(1, 10) for p in compositions_of(n)):
        for ct in component_tableaux(Diagram(parts)):
            roots = excluded_roots(ct)
            nilradical = ct.diagram.nilradical_positions()
            cases = [(ct, roots), (relabelled(ct, v_support=nilradical), roots)]
            if roots.excluded:
                smaller = roots.excluded - {min(roots.excluded)}
                trimmed = ExcludedRootSet(roots.by_generator, smaller, nilradical - smaller)
                cases.append((ct, trimmed))
            if ct.v_support and roots.u_support:
                moved = ct.v_support - {min(ct.v_support)} | {min(roots.u_support)}
                cases.append((relabelled(ct, v_support=moved), roots))
            for tableau, root_set in cases:
                report = tangent_dimension(tableau, root_set)
                fast = (report.rank_u_plus_ne, report.direct_sum_ok, report.ne_meets_y_trivially)
                assert fast == stacked_dimension(tableau, root_set), (parts, sorted(tableau.v_support))
                outcomes.add(fast[1:])
    assert {(True, True), (False, True), (False, False)} <= outcomes


def test_tangent_rejects_a_one_matrix_that_is_no_partial_permutation():
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    roots = excluded_roots(ct)
    i, j = min(ct.e_support)
    same_row = next((i, l) for l in range(i + 1, 7) if (i, l) not in ct.e_support)
    same_column = next((k, j) for k in range(1, j) if (k, j) not in ct.e_support)
    for extra in (same_row, same_column):
        with pytest.raises(InternalConsistencyError, match="repeats a row or a column"):
            tangent_dimension(relabelled(ct, e_support=ct.e_support | {extra}), roots)


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def jordan_by_powers(matrix):
    """The dense route: the number of blocks of size k is
    rank(X^(k-1)) - 2 rank(X^k) + rank(X^(k+1)), every power formed in full."""
    ranks = [len(matrix)]
    power = matrix
    while ranks[-1]:
        ranks.append(exact_rank(power))
        power = mat_mul(power, matrix)
    ranks.append(0)
    sizes = []
    for k in range(1, len(ranks) - 1):
        sizes += [k] * (ranks[k - 1] - 2 * ranks[k] + ranks[k + 1])
    return tuple(sorted(sizes, reverse=True))


def jordan_block(size):
    return [[int(j == i + 1) for j in range(size)] for i in range(size)]


@pytest.mark.parametrize(
    "matrix, expected",
    [([[0] * 5 for _ in range(5)], (1,) * 5)]
    + [(jordan_block(size), (size,)) for size in range(1, 9)]
    + [([[0, 0, 2, 3], [0, 0, 2, 3], [0, 0, 0, 5], [0, 0, 0, 0]], (3, 1))],
    ids=["zero"] + [f"block-{size}" for size in range(1, 9)] + ["repeated-rows"],
)
def test_jordan_type_matches_powers_route(matrix, expected):
    assert jordan_type(matrix) == jordan_by_powers(matrix) == expected


def test_jordan_type_matches_powers_route_on_orbital_samples(monkeypatch):
    # every matrix the orbital check draws for the reports at seed 0
    seen = []

    def checked(matrix):
        result = jordan_type(matrix)
        assert result == jordan_by_powers(matrix), matrix
        seen.append(result)
        return result

    monkeypatch.setattr(analysis, "jordan_type", checked)
    for parts in (p for n in range(1, 10) for p in compositions_of(n)):
        verify_composition(Diagram(parts), checks=("orbital",), seed=0)
    assert len(seen) > 1000 and len(set(seen)) > 20


def test_jordan_of_e_matches_jordan_type():
    for parts in (p for n in range(1, 10) for p in compositions_of(n)):
        for ct in component_tableaux(Diagram(parts)):
            report = tangent_dimension(ct, excluded_roots(ct))
            assert report.jordan_of_e == jordan_type(one_matrix(ct.diagram.n, ct.e_support)), parts


def test_dimension_and_orbital_checks_skip_dense_elimination(monkeypatch):
    calls = {"exact_rank": 0, "row_basis": 0, "jordan_type": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(analysis, name, wrapper)

    for name in calls:
        counted(name, getattr(analysis, name))
    for parts in (p for n in range(1, 9) for p in compositions_of(n)):
        for ct in component_tableaux(Diagram(parts)):
            tangent_dimension(ct, excluded_roots(ct))
    assert calls == {"exact_rank": 0, "row_basis": 0, "jordan_type": 0}
    verify_composition(Diagram((2, 1, 2, 1, 2, 1)))
    assert calls["jordan_type"] > 0
    assert calls["exact_rank"] == calls["jordan_type"]


def test_jordan_types_21112():
    # chains (1,3,5,6),(2,4),(7) against (3,2,2) for the middle choice
    ts = component_tableaux(Diagram((2, 1, 1, 1, 2)))
    types = {}
    for ct in ts:
        entry = ct.pair_entry()[[p for p in neighbouring_pairs(ct.diagram) if p.height == 2][0]]
        types[entry] = jordan_type(one_matrix(7, ct.e_support))
    assert types[4] == (4, 2, 1)
    assert types[3] == (3, 2, 2)
    assert orbit_dimension(7, types[4]) == 2 * (21 - 4)
    assert orbit_dimension(7, types[3]) == 2 * (21 - 6)


def test_jordan_zero_matrix():
    assert jordan_type([[0] * 4 for _ in range(4)]) == (1, 1, 1, 1)


def test_jordan_rejects_non_strict():
    with pytest.raises(InvalidInput):
        jordan_type([[1, 0], [0, 0]])
    with pytest.raises(InvalidInput):
        jordan_type([[0, 0], [1, 0]])
    for ragged in ([[0, 1]], [[0, 1, 2], [0, 0]], [[0, 1], [0, 0], [0, 0]]):
        with pytest.raises(InvalidInput):
            jordan_type(ragged)


def test_orbital_21112():
    statuses = []
    for ct in component_tableaux(Diagram((2, 1, 1, 1, 2))):
        report = orbital_variety_test(ct, excluded_roots(ct), rng=Random(0))
        statuses.append(report.status)
        if report.status == "orbital":
            assert report.complement_bracket_closed
    assert sorted(statuses) == ["not_orbital", "not_orbital", "orbital"]


def test_orbital_trivial():
    (ct,) = component_tableaux(Diagram((1,)))
    assert orbital_variety_test(ct, excluded_roots(ct), rng=Random(0)).status == "trivial"


@pytest.mark.parametrize("seed", [0, 1, 7, "0:orbital:3:2,1,2,1"])
def test_sample_entries_are_the_randrange_stream(seed):
    drawn, reference = Random(seed), Random(seed)
    for _ in range(10_000):
        assert analysis._sample_entry(drawn) == reference.randrange(1, 1 << 31)


def test_sample_entry_redraws_all_ones():
    class FirstAllOnes(Random):
        first = True

        def getrandbits(self, k):
            if self.first:
                self.first = False
                return (1 << k) - 1
            return super().getrandbits(k)

    assert analysis._sample_entry(FirstAllOnes(5)) == 1 + Random(5).getrandbits(31)


def witness_of(a, b):
    # the injectivity witness from the two tableaux's own check results
    return injectivity_witness(
        a,
        b,
        vanishing_check(a, excluded_roots(a)),
        vanishing_check(b, excluded_roots(b)),
        weierstrass_check(a),
        weierstrass_check(b),
    )


def test_injectivity_2112():
    a, b = component_tableaux(Diagram((2, 1, 1, 2)))
    w = witness_of(a, b)
    assert w.ok
    assert w.exchanged == (2, 3)
    assert {w.line_low, w.line_rightmost} == {(2, 4), (3, 6)}


def test_injectivity_321321():
    parts = (3, 2, 1, 3, 2, 1)
    pair = [p for p in neighbouring_pairs(Diagram(parts)) if p.height == 2][0]
    ts = component_tableaux(Diagram(parts))
    c5 = next(t for t in ts if t.pair_entry()[pair] == 5)
    c8 = next(t for t in ts if t.pair_entry()[pair] == 8)
    w = witness_of(c5, c8)
    assert w.ok
    assert w.line_rightmost == (8, 11)


def test_injectivity_321312():
    parts = (3, 2, 1, 3, 1, 2)
    pair = [p for p in neighbouring_pairs(Diagram(parts)) if p.height == 2][0]
    ts = component_tableaux(Diagram(parts))
    c5 = next(t for t in ts if t.pair_entry()[pair] == 5)
    c8 = next(t for t in ts if t.pair_entry()[pair] == 8)
    w = witness_of(c5, c8)
    assert w.ok
    assert w.line_rightmost == (8, 10)


def test_injectivity_rejects_same_data():
    a, b = component_tableaux(Diagram((2, 1, 1, 2)))
    with pytest.raises(InvalidInput):
        witness_of(a, a)


def test_injectivity_small_sweep(small_compositions):
    for parts in small_compositions:
        ts = component_tableaux(Diagram(parts))
        for a, b in combinations(ts, 2):
            assert witness_of(a, b).ok, parts


def _recomputed_witness(a, b):
    """The route injectivity replaced: the order from both penetrating
    trails, then the lower tableau's trail exclusions zeroed and the
    generator evaluated at the higher tableau's section point.  The zero
    test substitutes into the expanded generator on both routes, which is
    cheap at these sizes; the value comes from the restricted minor past the
    bound."""
    d = a.diagram
    pair = next(p for p in neighbouring_pairs(d) if a.pair_entry()[p] != b.pair_entry()[p])
    trail_a, trail_b = a.trail(pair), b.trail(pair)
    if (trail_a[-1].target_col, a.pair_entry()[pair]) < (trail_b[-1].target_col, b.pair_entry()[pair]):
        low, high, trail = a, b, trail_a
    else:
        low, high, trail = b, a, trail_b
    excluded = trail_exclusions(excluded_roots(low), trail)
    specific = invariant_for(d.parts, pair).polynomial.substitute({p: 0 for p in excluded}).is_zero()
    line_low, line_high = special_star_line(low, pair), special_star_line(high, pair)
    i_p, j_p = line_high
    value = restricted_generator(d, pair, frozenset(), high.e_support | {line_high}).constant_value()
    return analysis.InjectivityWitness(
        pair,
        tuple(sorted((a.pair_entry()[pair], b.pair_entry()[pair]))),
        line_low,
        line_high,
        line_low in low.v_support
        and line_low in high.e_support
        and line_high in high.v_support
        and line_high in low.e_support,
        line_high not in excluded
        and not any(k <= i_p and l >= j_p and (k, l) != line_high for k, l in excluded),
        specific,
        value,
    )


@pytest.mark.parametrize("bound", [SYMBOLIC_MAX_N, 0])
def test_injectivity_matches_the_recomputed_route(monkeypatch, bound):
    # every tableau pair of n <= 9, and two compositions of 11 with a pair of
    # tableaux that first differ on the full-span pair, past the default bound
    monkeypatch.setattr(invariants, "SYMBOLIC_MAX_N", bound)
    cases = [parts for n in range(1, 10) for parts in compositions_of(n)] + [(3, 1, 2, 2, 3), (2, 1, 1, 5, 2)]
    compared, past = 0, 0
    for parts in cases:
        ts = component_tableaux(Diagram(parts))
        for a, b in combinations(ts, 2):
            w = witness_of(a, b)
            assert w == _recomputed_witness(a, b), (parts, a, b)
            compared += 1
            past += len(interval_entries(a.diagram, w.pair)) > bound
    assert compared == 290
    assert past == (2 if bound else 290)


@pytest.mark.parametrize("bound", [SYMBOLIC_MAX_N, 0])
def test_injectivity_alone_reports_what_all_checks_report(monkeypatch, bound):
    monkeypatch.setattr(invariants, "SYMBOLIC_MAX_N", bound)
    for n in range(1, 9):
        for parts in compositions_of(n):
            d = Diagram(parts)
            alone = verify_composition(d, ("injectivity",))
            everything = verify_composition(d)
            assert alone["injectivityPairs"] == everything["injectivityPairs"], parts


def test_check_results_follow_the_neighbouring_pair_order():
    # injectivity_witness reads both checks' results by each pair's index in
    # neighbouring_pairs(diagram)
    checked = 0
    for n in range(1, 10):
        for parts in compositions_of(n):
            d = Diagram(parts)
            pairs = list(neighbouring_pairs(d))
            for ct in component_tableaux(d):
                assert [r.pair for r in vanishing_check(ct, excluded_roots(ct)).results] == pairs, parts
                assert [r.pair for r in weierstrass_check(ct).results] == pairs, parts
                checked += 1
    assert checked == 678


def test_injectivity_reads_results_and_recomputes_nothing(monkeypatch):
    from nilfibre import roots

    parts = (2, 1, 2, 1, 2, 1)
    ts = component_tableaux(Diagram(parts))
    vanishings = [vanishing_check(ct, excluded_roots(ct)) for ct in ts]
    sections = [weierstrass_check(ct) for ct in ts]

    def forbidden(*args, **kwargs):
        raise AssertionError("injectivity recomputed a check's fact")

    for module in (analysis, roots, invariants):
        for name in ("restricted_generator", "trail_exclusions", "special_star_line"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    monkeypatch.setattr(ComponentTableau, "trail", forbidden)
    for a, b in combinations(range(len(ts)), 2):
        w = injectivity_witness(ts[a], ts[b], vanishings[a], vanishings[b], sections[a], sections[b])
        assert w.ok, parts


def test_partition_disjoint_variables(small_compositions):
    for parts in small_compositions:
        if tuple(sorted(parts, reverse=True)) == parts:
            assert invariant_variable_disjointness(Diagram(parts)), parts


def test_disjointness_extracts_one_generator_per_interval_key(fresh_memos):
    # it reads each generator through the pair's interval, as the checks do,
    # so every composition of n <= 9 leaves one record per interval key
    for n in range(1, 10):
        for parts in compositions_of(n):
            invariant_variable_disjointness(Diagram(parts))
    assert invariant_for.cache_info().currsize == 46


@given(compositions)
@settings(max_examples=25, deadline=None)
def test_dimension_report_consistency(parts):
    for ct in component_tableaux(Diagram(parts)):
        report = tangent_dimension(ct, excluded_roots(ct))
        assert report.ok
        assert report.rank_u_plus_ne + len(ct.v_support) == report.dim_nilradical
