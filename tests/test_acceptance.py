"""Acceptance suite: every criterion runs at its stated tolerance (exact,
zero tolerance throughout) and reports one pass/fail line."""

import json
from pathlib import Path

from nilfibre import invariants
from nilfibre.analysis import jordan_type, orbit_dimension
from nilfibre.builder import component_tableaux
from nilfibre.conformance import compositions_of, verify_composition
from nilfibre.core import Diagram, neighbouring_pairs, true_degree
from nilfibre.invariants import extract_invariant, invariant_for, invariant_variable_disjointness, symbolic_minor
from nilfibre.poly import Poly
from nilfibre.roots import excluded_roots, hatted_tableau

GOLDEN = Path(__file__).parent / "golden"


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def poly_of(monomials):
    return Poly({tuple(sorted(positions)): coeff for coeff, positions in monomials})


def every_tableau(max_n):
    for n in range(1, max_n + 1):
        for parts in compositions_of(n):
            for ct in component_tableaux(Diagram(parts)):
                yield parts, ct


def test_criterion_1_invariant_formula():
    d = Diagram((1, 2, 1))
    pair = neighbouring_pairs(d)[0]
    minor = symbolic_minor(d, pair)
    record = extract_invariant(d, pair)
    want = poly_of([(1, [(1, 2), (2, 4)]), (1, [(1, 3), (3, 4)])])
    assert record.polynomial == want
    # the full expansion's leading coefficient is the same generator
    assert min(minor) == record.band_boxes == 1
    assert minor[1].total_degrees() == {record.degree} == {true_degree(d, pair)}
    assert minor[1].sign_normalized() == want
    square = minor[2]
    assert square == poly_of([(1, [(1, 4)])]) or square == poly_of([(-1, [(1, 4)])])
    report(1, "generator of (1,2,1) is x12 x24 + x13 x34; quadratic term is +-x14")


def test_criterion_2_tableau_counts():
    expected = {
        (1, 2, 1, 2): 2,
        (2, 1, 1, 2, 1): 3,
        (2, 1, 1, 1, 2): 3,
        (2, 1, 2, 1, 2, 1): 5,
        (3, 2, 1, 1, 1, 2, 3): 6,
        (2, 1, 1, 2): 2,
    }
    for parts, count in expected.items():
        assert len(component_tableaux(Diagram(parts))) == count, parts
    report(2, "tableau counts 2,3,3,5,6,2 reproduced")


def test_criterion_3_excluded_roots():
    canonical = next(
        ct for ct in component_tableaux(Diagram((2, 1, 1, 2))) if ct.v_support == {(3, 4), (3, 6)}
    )
    assert excluded_roots(canonical).excluded == {(3, 4), (3, 6), (4, 6)}

    from nilfibre.roots import excluded_from_word, shifted_tableau, word_form

    d = Diagram((1, 2, 2, 1, 3, 2))
    columns, _ = shifted_tableau(d, 8, (11,))
    exclusions = excluded_from_word(word_form(columns), d)
    assert {p for p in exclusions if p[1] == 9} == {(4, 9), (5, 9), (6, 9)}
    assert {p for p in exclusions if p[1] == 11} == {(7, 11), (8, 11)}

    golden = json.loads((GOLDEN / "labelled_matrices_2-1-2-1-2-1.json").read_text())
    want = [
        {
            "stars": {tuple(p) for p in m["stars"]},
            "ones": {tuple(p) for p in m["ones"]},
            "circled": {tuple(p) for p in m["circled"]},
        }
        for m in golden["matrices"]
    ]
    got = []
    for ct in component_tableaux(Diagram(tuple(golden["composition"]))):
        got.append(
            {
                "stars": set(ct.v_support),
                "ones": set(ct.e_support),
                "circled": set(excluded_roots(ct).excluded),
            }
        )
    for matrix in want:
        assert matrix in got, matrix
    assert len(got) == len(want)
    report(3, "exclusion sets of the worked instances and all five golden matrices match")


def test_criterion_4_jordan_types():
    dim_n = 21  # strictly upper triangular positions of sl(7)
    choices = {}
    for ct in component_tableaux(Diagram((2, 1, 1, 1, 2))):
        pair = [p for p in neighbouring_pairs(ct.diagram) if p.height == 2][0]
        mat = [[0] * 7 for _ in range(7)]
        for i, j in ct.e_support:
            mat[i - 1][j - 1] = 1
        choices[ct.pair_entry()[pair]] = jordan_type(mat)
    assert choices[4] == (4, 2, 1)
    assert orbit_dimension(7, choices[4]) == 2 * (dim_n - 4)
    assert choices[3] == (3, 2, 2)
    assert orbit_dimension(7, choices[3]) == 2 * (dim_n - 6)
    report(4, "nilpotency classes (4,2,1) and (3,2,2) with their orbit dimensions")


def verified(max_n, check):
    """The reports of one check alone on every composition of n <= max_n,
    each asserted to pass."""
    reports = []
    for n in range(1, max_n + 1):
        for parts in compositions_of(n):
            result = verify_composition(Diagram(parts), (check,))
            assert result["pass"], (parts, check)
            reports.append(result)
    assert len(reports) == 2**max_n - 1
    return reports


def test_criterion_5_vanishing_sweep(monkeypatch):
    instances = 0
    for result in verified(9, "vanishing"):
        assert all(r["mode"] == "symbolic" for entry in result["tableaux"] for r in entry["vanishing"])
        instances += result["tableauCount"]
    # with the bound at 4 each spot composition has pairs on both routes
    monkeypatch.setattr(invariants, "SYMBOLIC_MAX_N", 4)
    spot = [(2, 1, 2, 1, 2, 2), (1, 3, 1, 3, 1, 1), (3, 2, 1, 1, 2, 2), (2, 1, 2, 1, 2, 1, 2)]
    for parts in spot:
        assert sum(parts) in (10, 11)
        result = verify_composition(Diagram(parts), ("vanishing",))
        assert result["pass"], parts
        assert result["engineModes"] == ["randomized", "symbolic"], parts
    report(5, f"global and specific vanishing on {instances} tableaux (n<=9) plus randomized spot checks")


def test_criterion_6_weierstrass_sweep():
    verified(9, "weierstrass")
    report(6, "every restricted generator is a single starred coordinate, pairwise distinct (n<=9)")


def test_criterion_7_dimension_sweep():
    verified(9, "dimension")
    report(7, "exact rank identities of the tangent computation hold (n<=9)")


def test_criterion_8_covering_sweep():
    verified(9, "covering")
    report(8, "covering of unstarred exclusions and label sanity hold (n<=9)")


def test_criterion_9_injectivity_sweep():
    pairs = sum(len(result["injectivityPairs"]) for result in verified(8, "injectivity"))
    report(9, f"injectivity witness pipeline succeeded on {pairs} tableau pairs (n<=8)")


def test_criterion_10_degree_ledger():
    for parts, ct in every_tableau(9):
        d = ct.diagram
        for pair in neighbouring_pairs(d):
            record = invariant_for(parts, pair)
            assert record.degree == true_degree(d, pair), (parts, pair)
            assert record.polynomial.total_degrees() == {record.degree}
            hatted = hatted_tableau(ct, pair)  # height ledger asserted inside
            assert hatted.virtual_degree == record.degree - 1, (parts, pair)
    report(10, "degree formula, virtual degree drop and height ledger hold (n<=9)")


def test_criterion_11_partition_disjointness():
    for n in range(1, 9):
        for parts in compositions_of(n):
            if tuple(sorted(parts, reverse=True)) != parts:
                continue
            assert invariant_variable_disjointness(Diagram(parts)), parts
    report(11, "partition-shaped compositions have generators in disjoint variables (n<=8)")
