"""Helpers shared by the test modules."""

from nilfibre.builder import component_tableaux
from nilfibre.core import Diagram


def by_stars(parts, stars):
    """The one component tableau of ``parts`` whose ``*``-positions are
    ``stars``."""
    matches = [ct for ct in component_tableaux(Diagram(parts)) if ct.v_support == frozenset(stars)]
    assert len(matches) == 1, f"no unique tableau of {parts} with stars {stars}"
    return matches[0]
