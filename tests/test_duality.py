"""Reversal duality: X -> -J X^T J carries the parabolic of a composition and
its nilradical onto those of the reversed composition, so the two nilfibres
have the same number of components.  The construction lowers entries left
to right and is not symmetric under reversal, which makes the equality an
independent check on the completeness of the search."""

from nilfibre.builder import extend_all
from nilfibre.conformance import compositions_of
from nilfibre.core import diagram_of


def test_reversed_composition_has_as_many_tableaux():
    counts = {
        parts: len(extend_all(diagram_of(parts)))
        for n in range(1, 12)
        for parts in compositions_of(n)
    }
    assert [parts for parts, count in counts.items() if counts[parts[::-1]] != count] == []
