"""Exact verification of the geometric statements attached to a tableau:
covering of the unstarred exclusions, tangent-space dimension, Jordan-type
diagnostics, orbit-dimension sampling and the pairwise injectivity witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .core import Diagram, InvalidInput, NeighbouringPair, Pos, neighbouring_pairs
from .builder import ComponentTableau
from .invariants import evaluate_at_section_point, invariant_for
from .linalg import exact_rank, mat_mul
from .roots import (
    ExcludedRootSet,
    bracket_closure_violations,
    penetrating_string,
    special_star_line,
    trail_exclusions,
)


@dataclass(frozen=True)
class LabelPartition:
    """The four position classes of a tableau: one-labelled S, starred Y,
    excluded X and the unstarred exclusions Z = X minus Y."""

    diagram: Diagram
    s_set: frozenset[Pos]
    y_set: frozenset[Pos]
    x_set: frozenset[Pos]

    @property
    def z_set(self) -> frozenset[Pos]:
        return self.x_set - self.y_set

    def sane(self) -> bool:
        return self.y_set <= self.x_set and not (self.s_set & self.x_set)


def label_partition(ct: ComponentTableau, roots: ExcludedRootSet) -> LabelPartition:
    return LabelPartition(ct.diagram, ct.e_support, ct.v_support, roots.excluded)


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
    part = label_partition(ct, roots)
    by_row: dict[int, list[int]] = {}
    for i, j in part.s_set:
        by_row.setdefault(i, []).append(j)
    unique = all(len(js) == 1 for js in by_row.values())
    uncovered = tuple(
        sorted(
            (k, l)
            for k, l in part.z_set
            if not any(j < l for j in by_row.get(k, ()))
        )
    )
    return CoveringReport(not uncovered, part.sane(), uncovered, unique)


def _one_matrix(diagram: Diagram, support: frozenset[Pos]) -> list[list[int]]:
    n = diagram.n
    mat = [[0] * n for _ in range(n)]
    for i, j in support:
        mat[i - 1][j - 1] = 1
    return mat


def jordan_type(matrix: list[list[int]]) -> tuple[int, ...]:
    """Jordan partition of a strictly upper-triangular matrix from the ranks
    of its powers."""
    n = len(matrix)
    for i in range(n):
        for j in range(i + 1):
            if matrix[i][j] != 0:
                raise InvalidInput("matrix is not strictly upper triangular")
    blocks_at_least = []  # conjugate partition: number of blocks of size >= k
    power = matrix
    prev_rank = n  # rank of the identity
    while True:
        rank = exact_rank(power)
        blocks_at_least.append(prev_rank - rank)
        if rank == 0:
            break
        prev_rank = rank
        power = mat_mul(power, matrix)
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
    bracket image of the one-matrix misses exactly the starred span.  U and Y
    are coordinate spans, so rank(S + NE) = |S| + rank(NE without S's
    coordinates) for S = U, Y, U + Y: only the bracket rows are eliminated."""
    diagram = ct.diagram
    nilradical = diagram.nilradical_positions()
    positions = sorted(nilradical)
    dim_m = len(positions)
    g = len(neighbouring_pairs(diagram))

    # [E_ij, e] projected onto the nilradical coordinates as a sparse row; e is
    # strictly upper triangular, so no coordinate is hit twice
    brackets = []
    for i in range(1, diagram.n + 1):
        for j in range(i + 1, diagram.n + 1):
            vec: dict[Pos, int] = {}
            for k, l in ct.e_support:
                if j == k and (i, l) in nilradical:
                    vec[(i, l)] = 1
                if l == i and (k, j) in nilradical:
                    vec[(k, j)] = -1
            if vec:
                brackets.append(vec)

    def rank_with_units(units: frozenset[Pos]) -> int:
        column = {pos: k for k, pos in enumerate(p for p in positions if p not in units)}
        rows = []
        for vec in brackets:
            row = [0] * len(column)
            for pos, value in vec.items():
                if pos in column:
                    row[column[pos]] = value
            if any(row):
                rows.append(row)
        return len(units) + exact_rank(rows)

    u_set, y_set = roots.u_support, ct.v_support
    rank_ne = rank_with_units(frozenset())
    rank_u_ne = rank_with_units(u_set)
    rank_ne_y = rank_with_units(y_set)
    rank_all = rank_with_units(u_set | y_set)

    jordan = jordan_type(_one_matrix(diagram, ct.e_support))
    return DimensionReport(
        dim_nilradical=dim_m,
        generators=g,
        rank_u_plus_ne=rank_u_ne,
        direct_sum_ok=rank_all == dim_m and rank_u_ne + len(y_set) == dim_m,
        ne_meets_y_trivially=rank_ne_y == rank_ne + len(y_set),
        jordan_of_e=jordan,
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


def orbital_variety_test(
    ct: ComponentTableau,
    roots: ExcludedRootSet,
    rng: Random | None = None,
    samples: int = 5,
) -> OrbitalReport:
    """Compare twice the saturation dimension with the generic conjugation
    orbit dimension of the support space, sampled at random integer points.

    Genericity is open, so the maximum over samples is trusted only when at
    least three samples attain it; anything else is reported inconclusive.
    """
    diagram = ct.diagram
    rng = rng or Random(0)
    n = diagram.n
    g = len(neighbouring_pairs(diagram))
    saturation_dim = diagram.dim_nilradical - g
    closed = not bracket_closure_violations(diagram, roots.excluded)
    if diagram.dim_nilradical == 0:
        return OrbitalReport("trivial", 0, 0, (), closed)
    support = sorted(roots.u_support)
    dims = []
    for _ in range(samples):
        mat = [[0] * n for _ in range(n)]
        for i, j in support:
            mat[i - 1][j - 1] = rng.randrange(1, 1 << 31)
        dims.append(orbit_dimension(n, jordan_type(mat)))
    best = max(dims) if dims else 0
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
    ct_a: ComponentTableau, ct_b: ComponentTableau, roots_a: ExcludedRootSet, roots_b: ExcludedRootSet
) -> InjectivityWitness:
    """Separate two tableaux of one composition along their first differing
    batch: exchanged labels, clearance of the upper-right quadrant of the
    rightmost line, vanishing on the halted-trail exclusions and a section
    point where the generator survives."""
    if ct_a.diagram != ct_b.diagram:
        raise InvalidInput("tableaux of different compositions cannot be compared")
    choices_a, choices_b = ct_a.pair_entry(), ct_b.pair_entry()
    pair = next(
        (p for p in neighbouring_pairs(ct_a.diagram) if choices_a[p] != choices_b[p]),
        None,
    )
    if pair is None:
        raise InvalidInput("tableaux share identical numerical data")
    # The rightmost line comes from the tableau whose penetrating descent for
    # the differing pair lands in the further-right column.
    record_a = penetrating_string(ct_a, pair)
    record_b = penetrating_string(ct_b, pair)
    if (record_a.steps[-1].target_col, choices_a[pair]) < (record_b.steps[-1].target_col, choices_b[pair]):
        ct_low, ct_high, excluded = ct_a, ct_b, trail_exclusions(roots_a, record_a)
    else:
        ct_low, ct_high, excluded = ct_b, ct_a, trail_exclusions(roots_b, record_b)
    exchanged = (choices_a[pair], choices_b[pair])
    exchanged = (min(exchanged), max(exchanged))

    line_low = special_star_line(ct_low, pair)
    line_rightmost = special_star_line(ct_high, pair)
    labels_exchanged = (
        line_low in ct_low.v_support
        and line_low in ct_high.e_support
        and line_rightmost in ct_high.v_support
        and line_rightmost in ct_low.e_support
    )

    i_p, j_p = line_rightmost
    quadrant_clear = line_rightmost not in excluded and not any(
        k <= i_p and l >= j_p and (k, l) != (i_p, j_p) for k, l in excluded
    )

    invariant = invariant_for(ct_low.diagram.parts, pair)
    specific = invariant.polynomial.substitute({p: 0 for p in excluded}).is_zero()
    value = evaluate_at_section_point(invariant, ct_high.e_support, line_rightmost)
    return InjectivityWitness(
        pair,
        exchanged,
        line_low,
        line_rightmost,
        labels_exchanged,
        quadrant_clear,
        specific,
        value,
    )


def invariant_variable_disjointness(diagram: Diagram) -> bool:
    """Whether the generators of the composition use pairwise disjoint sets of
    coordinates (true for partition-shaped compositions)."""
    seen: set[Pos] = set()
    for pair in neighbouring_pairs(diagram):
        vars_ = invariant_for(diagram.parts, pair).polynomial.variables()
        if seen & vars_:
            return False
        seen |= vars_
    return True
