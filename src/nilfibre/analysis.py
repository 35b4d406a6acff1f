"""Exact verification of the geometric statements attached to a tableau:
covering of the unstarred exclusions, tangent-space dimension, Jordan-type
diagnostics, orbit-dimension sampling and the pairwise injectivity witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .core import (
    InternalConsistencyError,
    InvalidInput,
    NeighbouringPair,
    Pos,
    neighbouring_pairs,
)
from .builder import ComponentTableau
from .invariants import VanishingReport, WeierstrassReport
from .linalg import exact_rank, row_basis
from .roots import ExcludedRootSet, bracket_closure_violations


@dataclass(frozen=True)
class CoveringReport:
    ok: bool
    labels_ok: bool  # stars excluded, ones not
    uncovered: tuple[Pos, ...]
    unique_row_cover: bool

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "labelsOk": self.labels_ok,
            "uncovered": [list(p) for p in self.uncovered],
            "uniqueRowCover": self.unique_row_cover,
        }


def covering_check(ct: ComponentTableau, roots: ExcludedRootSet) -> CoveringReport:
    """Every unstarred exclusion must lie strictly right of a one-labelled
    position in its own matrix row."""
    by_row: dict[int, list[int]] = {}
    for i, j in ct.e_support:
        by_row.setdefault(i, []).append(j)
    unique = all(len(js) == 1 for js in by_row.values())
    uncovered = tuple(
        sorted(
            (k, l)
            for k, l in roots.excluded - ct.v_support
            if not any(j < l for j in by_row.get(k, ()))
        )
    )
    labels_ok = ct.v_support <= roots.excluded and not (ct.e_support & roots.excluded)
    return CoveringReport(not uncovered, labels_ok, uncovered, unique)


def jordan_type(matrix: list[list[int]]) -> tuple[int, ...]:
    """Jordan partition of a strictly upper-triangular matrix from the ranks
    of its powers.  The rows of a basis of the row space of X^k, times X,
    span that of X^(k+1), so no power is formed: each rank after rank(X) is
    the size of a row basis of the previous basis times X."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InvalidInput("matrix is not square")
    for i in range(n):
        for j in range(i + 1):
            if matrix[i][j] != 0:
                raise InvalidInput("matrix is not strictly upper triangular")
    entries = [[(j, x) for j, x in enumerate(row) if x] for row in matrix]
    rank = exact_rank(matrix)
    blocks_at_least = [n - rank]  # conjugate partition: number of blocks of size >= k
    basis = matrix
    while rank:
        product = []
        for row in basis:
            out = [0] * n
            for k, a in enumerate(row):
                if a:
                    for j, x in entries[k]:
                        out[j] += a * x
            if any(out):
                product.append(out)
        basis = row_basis(product)
        blocks_at_least.append(rank - len(basis))
        rank = len(basis)
    partition: list[int] = []
    for k, count in enumerate(blocks_at_least, start=1):
        next_count = blocks_at_least[k] if k < len(blocks_at_least) else 0
        partition.extend([k] * (count - next_count))
    return tuple(sorted(partition, reverse=True))


def orbit_dimension(n: int, partition: tuple[int, ...]) -> int:
    """Dimension of the conjugation orbit of a nilpotent with this Jordan type."""
    conjugate = [sum(1 for p in partition if p >= k) for k in range(1, (partition[0] if partition else 0) + 1)]
    return n * n - sum(c * c for c in conjugate)


@dataclass(frozen=True)
class DimensionReport:
    dim_nilradical: int
    generators: int
    rank_u_plus_ne: int
    direct_sum_ok: bool
    ne_meets_y_trivially: bool
    jordan_of_e: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return (
            self.rank_u_plus_ne == self.dim_nilradical - self.generators
            and self.ne_meets_y_trivially
            and self.direct_sum_ok
        )

    def to_json(self) -> dict:
        return {
            "dimM": self.dim_nilradical,
            "g": self.generators,
            "rank": self.rank_u_plus_ne,
            "directSum": self.direct_sum_ok,
            "neMeetsYTrivially": self.ne_meets_y_trivially,
            "jordanType": list(self.jordan_of_e),
            "ok": self.ok,
        }


def tangent_dimension(ct: ComponentTableau, roots: ExcludedRootSet) -> DimensionReport:
    """Exact ranks behind the dimension count: the support space plus the
    bracket image of the one-matrix misses exactly the starred span.

    The one-matrix e is a partial permutation with maps succ and pred, so
    the bracket row [E_ij, e] = E_(i, succ j) - E_(pred i, j) joins
    v = (pred i, j) to psi(v) = (i, succ j), where psi(a, b) =
    (succ a, succ b); an end that is missing or outside the nilradical M is
    the ground.  A position (a, b) is entered only by the row (a, pred b),
    when a < pred b, and left only by the row (succ a, b), when succ a < b,
    so the rows make M a set of psi-chains, each joined to the ground or
    free.  A chain of k positions has k - 1 rows among them, and one more if
    it is grounded: modulo the rows, its unit vectors are all zero or all
    one nonzero vector.  So with the unit vectors of a coordinate set S
    added, rank(S + NE) = dim M - (number of free chains that S misses), for
    S = U, Y, U + Y.  pred a < a, so one pass in sorted order names each
    chain by its first position.  e's Jordan type is the lengths of its own
    chains."""
    diagram = ct.diagram
    n = diagram.n
    nilradical = diagram.nilradical_positions()
    dim_m = len(nilradical)
    g = len(neighbouring_pairs(diagram))

    successor = dict(ct.e_support)
    predecessor = {l: k for k, l in ct.e_support}
    if not len(successor) == len(predecessor) == len(ct.e_support):
        raise InternalConsistencyError("the one-matrix repeats a row or a column")

    head: dict[Pos, Pos] = {}  # the first position of each position's chain
    grounded: set[Pos] = set()
    for a, b in sorted(nilradical):
        entering = predecessor.get(b, a) > a  # the row (a, pred b)
        leaving = successor.get(a, b) < b  # the row (succ a, b)
        before = (predecessor.get(a), predecessor.get(b))
        after = (successor.get(a), successor.get(b))
        head[a, b] = first = head[before] if entering and before in nilradical else (a, b)
        if entering and before not in nilradical or leaving and after not in nilradical:
            grounded.add(first)
    free = set(head.values()) - grounded
    missed_by_u = free - {head[v] for v in roots.u_support}
    y_set = ct.v_support
    y_chains = {head[v] for v in y_set}

    chains = []
    for start in range(1, n + 1):
        if start not in predecessor:
            length = 1
            while start in successor:
                start = successor[start]
                length += 1
            chains.append(length)
    return DimensionReport(
        dim_nilradical=dim_m,
        generators=g,
        rank_u_plus_ne=dim_m - len(missed_by_u),
        direct_sum_ok=missed_by_u <= y_chains and len(missed_by_u) == len(y_set),
        ne_meets_y_trivially=len(free & y_chains) == len(y_set),
        jordan_of_e=tuple(sorted(chains, reverse=True)),
    )


@dataclass(frozen=True)
class OrbitalReport:
    status: str  # "orbital", "not_orbital", "inconclusive" or "trivial"
    generic_orbit_dim: int | None
    saturation_dim: int
    sample_dims: tuple[int, ...]
    complement_bracket_closed: bool

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "genericOrbitDim": self.generic_orbit_dim,
            "saturationDim": self.saturation_dim,
            "samples": list(self.sample_dims),
            "complementBracketClosed": self.complement_bracket_closed,
        }


def _sample_entry(rng: Random) -> int:
    """``rng.randrange(1, 1 << 31)`` as CPython draws it: one plus 31 random
    bits, redrawn while all ones.  Python keeps the ``getrandbits`` stream
    across versions, but not ``randrange``'s algorithm."""
    while (bits := rng.getrandbits(31)) == (1 << 31) - 1:
        pass
    return 1 + bits


def orbital_variety_test(
    ct: ComponentTableau,
    roots: ExcludedRootSet,
    rng: Random | None = None,
) -> OrbitalReport:
    """Compare twice the saturation dimension with the generic conjugation
    orbit dimension of the support space, sampled at five random integer
    points.

    Genericity is open, so the maximum over samples is trusted only when at
    least three samples attain it; anything else is reported inconclusive.
    """
    diagram = ct.diagram
    rng = rng or Random(0)
    n = diagram.n
    g = len(neighbouring_pairs(diagram))
    saturation_dim = diagram.dim_nilradical - g
    closed = not bracket_closure_violations(roots.excluded)
    if diagram.dim_nilradical == 0:
        return OrbitalReport("trivial", 0, 0, (), closed)
    support = sorted(roots.u_support)
    dims = []
    for _ in range(5):
        mat = [[0] * n for _ in range(n)]
        for i, j in support:
            mat[i - 1][j - 1] = _sample_entry(rng)
        dims.append(orbit_dimension(n, jordan_type(mat)))
    best = max(dims)
    if dims.count(best) < 3:
        return OrbitalReport("inconclusive", None, saturation_dim, tuple(dims), closed)
    status = "orbital" if 2 * saturation_dim == best else "not_orbital"
    return OrbitalReport(status, best, saturation_dim, tuple(dims), closed)


@dataclass(frozen=True)
class InjectivityWitness:
    pair: NeighbouringPair
    exchanged: tuple[int, int]  # the two batch entries, ascending
    line_low: Pos  # starred for the smaller entry's tableau, one-labelled in the other
    line_rightmost: Pos  # starred for the larger entry's tableau, one-labelled in the other
    labels_exchanged: bool
    quadrant_clear: bool
    specific_vanishing: bool
    separating_value: int  # generator at the other tableau's section point; must be nonzero

    @property
    def ok(self) -> bool:
        return (
            self.labels_exchanged
            and self.quadrant_clear
            and self.specific_vanishing
            and self.separating_value != 0
        )

    def to_json(self) -> dict:
        return {
            "pair": {"left": self.pair.left + 1, "right": self.pair.right + 1, "height": self.pair.height},
            "exchanged": list(self.exchanged),
            "lineLow": list(self.line_low),
            "lineRightmost": list(self.line_rightmost),
            "labelsExchanged": self.labels_exchanged,
            "quadrantClear": self.quadrant_clear,
            "specificVanishing": self.specific_vanishing,
            "separatingValue": self.separating_value,
            "ok": self.ok,
        }


def injectivity_witness(
    ct_a: ComponentTableau,
    ct_b: ComponentTableau,
    vanishing_a: VanishingReport,
    vanishing_b: VanishingReport,
    weierstrass_a: WeierstrassReport,
    weierstrass_b: WeierstrassReport,
) -> InjectivityWitness:
    """Separate two tableaux of one composition along their first differing
    batch: exchanged labels, clearance of the upper-right quadrant of the
    rightmost line, vanishing on the halted-trail exclusions and a section
    point where the generator survives.  The last two are read from the
    lower tableau's vanishing result and the higher one's restriction."""
    if ct_a.diagram != ct_b.diagram:
        raise InvalidInput("tableaux of different compositions cannot be compared")
    diagram = ct_a.diagram
    choices_a, choices_b = ct_a.pair_entry(), ct_b.pair_entry()
    pairs = neighbouring_pairs(diagram)
    idx = next((k for k, p in enumerate(pairs) if choices_a[p] != choices_b[p]), None)
    if idx is None:
        raise InvalidInput("tableaux share identical numerical data")
    pair = pairs[idx]
    # The rightmost line comes from the tableau whose penetrating descent for
    # the differing pair lands in the further-right column, that of its
    # special star line.
    line_a, line_b = weierstrass_a.results[idx].line, weierstrass_b.results[idx].line
    if (diagram.column_of(line_a[1]), choices_a[pair]) < (diagram.column_of(line_b[1]), choices_b[pair]):
        ct_low, ct_high, line_low, line_rightmost = ct_a, ct_b, line_a, line_b
        vanishing, section = vanishing_a.results[idx], weierstrass_b.results[idx]
    else:
        ct_low, ct_high, line_low, line_rightmost = ct_b, ct_a, line_b, line_a
        vanishing, section = vanishing_b.results[idx], weierstrass_a.results[idx]
    exchanged = (choices_a[pair], choices_b[pair])
    exchanged = (min(exchanged), max(exchanged))

    labels_exchanged = (
        line_low in ct_low.v_support
        and line_low in ct_high.e_support
        and line_rightmost in ct_high.v_support
        and line_rightmost in ct_low.e_support
    )

    excluded = vanishing.exclusions
    i_p, j_p = line_rightmost
    quadrant_clear = line_rightmost not in excluded and not any(
        k <= i_p and l >= j_p and (k, l) != (i_p, j_p) for k, l in excluded
    )

    # the section point: the ones and the line, one of the kept stars, set to 1
    value = section.rest.substitute({p: int(p == line_rightmost) for p in section.rest.variables()}).constant_value()
    return InjectivityWitness(
        pair,
        exchanged,
        line_low,
        line_rightmost,
        labels_exchanged,
        quadrant_clear,
        vanishing.specific_ok,
        value,
    )

