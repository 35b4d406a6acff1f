"""Reversal duality: X -> -J X^T J carries the parabolic of a composition and
its nilradical onto those of the reversed composition, so the two nilfibres
have the same number of components, and the Benlolo-Sanderson generators
go along.  The construction lowers entries left to right and is not
symmetric under reversal, which makes these equalities independent checks
on the completeness of the search and on the generators."""

from collections import Counter

from nilfibre.builder import component_tableaux, extend_all
from nilfibre.conformance import compositions_of, verify_composition
from nilfibre.core import Diagram, neighbouring_pairs
from nilfibre.invariants import extract_invariant


def test_reversed_composition_has_as_many_tableaux():
    counts = {
        parts: len(extend_all(Diagram(parts)))
        for n in range(1, 12)
        for parts in compositions_of(n)
    }
    assert [parts for parts, count in counts.items() if counts[parts[::-1]] != count] == []


def test_reversal_carries_generators_onto_the_reversed_composition():
    # E_ij goes to -E_tau(i,j) with tau(i, j) = (n+1-j, n+1-i), and the pair
    # (l, r; s) of c to the pair (k-1-r, k-1-l; s) of rev(c)
    checked = 0
    for n in range(1, 10):
        for parts in compositions_of(n):
            if parts > parts[::-1]:
                continue
            k = len(parts)
            diagram, reversed_diagram = Diagram(parts), Diagram(parts[::-1])
            mirror = {(p.left, p.right, p.height): p for p in neighbouring_pairs(reversed_diagram)}
            for pair in neighbouring_pairs(diagram):
                image = mirror[(k - 1 - pair.right, k - 1 - pair.left, pair.height)]
                support = extract_invariant(diagram, pair).polynomial.terms
                carried = {frozenset((n + 1 - j, n + 1 - i) for i, j in monomial) for monomial in support}
                assert carried == set(map(frozenset, extract_invariant(reversed_diagram, image).polynomial.terms)), (parts, pair)
                checked += 1
    assert checked == 610


def test_reversal_keeps_the_multisets_of_invariant_data():
    # the correspondence is between P-saturations, so only P-invariant data
    # of the tableaux may be compared, as multisets: the subspaces themselves
    # do not correspond
    def invariant_data(parts):
        report = verify_composition(Diagram(parts), ("dimension", "orbital"))
        return Counter(
            (
                tuple(entry["jordanType"]),
                len(ct.e_support),
                entry["orbital"]["status"],
                entry["orbital"]["genericOrbitDim"],
            )
            for ct, entry in zip(component_tableaux(Diagram(parts)), report["tableaux"], strict=True)
        )

    checked = 0
    for n in range(1, 10):
        for parts in compositions_of(n):
            if parts < parts[::-1]:
                assert invariant_data(parts) == invariant_data(parts[::-1]), parts
                checked += 1
    assert checked == 225
