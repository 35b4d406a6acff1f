"""Exact combinatorial engine for the nilfibre components of parabolic
nilradicals in sl(n): tableau enumeration, excluded-root sets, semi-invariant
generators and machine verification of their structural theorems."""

from .core import (
    ConstructionViolation,
    Diagram,
    InternalConsistencyError,
    InvalidInput,
    NeighbouringPair,
    boxes_below_band,
    neighbouring_pairs,
    true_degree,
)
from .builder import (
    ComponentTableau,
    component_tableaux,
    extend_all,
)
from .roots import (
    ExcludedRootSet,
    excluded_from_word,
    excluded_roots,
    hatted_tableau,
    shifted_tableau,
    special_star_line,
    word_form,
)
from .poly import Poly
from .invariants import (
    InvariantRecord,
    chain_support,
    extract_invariant,
    invariant_for,
    symbolic_minor,
    vanishing_check,
    weierstrass_check,
    weierstrass_restrict,
)
from .analysis import (
    covering_check,
    injectivity_witness,
    jordan_type,
    orbit_dimension,
    orbital_variety_test,
    tangent_dimension,
)
from .conformance import compositions_of, sweep, verify_composition

__version__ = "0.1.0"
