"""Exact sparse multilinear polynomials over the integers.

Variables are matrix positions (i, j) plus the auxiliary diagonal parameter.
A monomial is (parameter exponent, sorted tuple of distinct positions): every
determinant term uses each cell at most once, so no position ever carries an
exponent, and a product that would repeat one raises.  Coefficients are
arbitrary-precision integers and zero coefficients are never stored.
"""

from __future__ import annotations

from itertools import chain

from .core import InternalConsistencyError, InvalidInput, Pos

Mono = tuple[int, tuple[Pos, ...]]

_A_KEY = "a"


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    a1, v1 = m1
    a2, v2 = m2
    if not v1:
        vars_ = v2
    elif not v2:
        vars_ = v1
    else:
        if not set(v1).isdisjoint(v2):
            raise InternalConsistencyError(f"product of {v1} and {v2} repeats a position")
        vars_ = tuple(sorted(v1 + v2))
    return (a1 + a2, vars_)


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, int] | None = None):
        self.terms: dict[Mono, int] = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value: int) -> "Poly":
        return cls({(0, ()): value})

    @classmethod
    def var(cls, pos: Pos) -> "Poly":
        return cls({(0, (pos,)): 1})

    @classmethod
    def a(cls) -> "Poly":
        return cls({(1, ()): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return Poly(out)

    def variables(self) -> frozenset[Pos]:
        return frozenset(pos for _, vars_ in self.terms for pos in vars_)

    def a_coefficient(self, power: int) -> "Poly":
        """The coefficient of the given parameter power, a polynomial in the
        positions alone."""
        return Poly({(0, vars_): c for (a, vars_), c in self.terms.items() if a == power})

    def substitute(self, assignment: dict) -> "Poly":
        """Map positions (or the parameter key "a") to integers; unmapped
        variables stay symbolic.  Lenient: keys absent from the polynomial
        are ignored."""
        out: dict[Mono, int] = {}
        for (a_exp, vars_), coeff in self.terms.items():
            if _A_KEY in assignment:
                coeff *= assignment[_A_KEY] ** a_exp
                a_new = 0
            else:
                a_new = a_exp
            kept = []
            for pos in vars_:
                if pos in assignment:
                    coeff *= assignment[pos]
                    if coeff == 0:
                        break
                else:
                    kept.append(pos)
            if coeff == 0:
                continue
            mono = (a_new, tuple(kept))
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return Poly(out)

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if set(self.terms) == {(0, ())}:
            return self.terms[(0, ())]
        raise InvalidInput("polynomial is not constant")

    def monomial_support(self) -> frozenset[frozenset[Pos]]:
        """Position sets of the monomials, parameter discarded."""
        return frozenset(frozenset(vars_) for _, vars_ in self.terms)

    def total_degrees(self) -> set[int]:
        return {len(vars_) for _, vars_ in self.terms}

    def sign_normalized(self) -> "Poly":
        """Scale by -1 if needed so the lexicographically least monomial has a
        positive coefficient."""
        if not self.terms:
            return self
        least = min(self.terms, key=lambda m: (m[1], m[0]))
        return self if self.terms[least] > 0 else -self

    def to_json(self) -> list[dict]:
        records = []
        for (a_exp, vars_), coeff in self.terms.items():
            records.append(
                {
                    "coeff": coeff,
                    "vars": [[i, j] for i, j in vars_],
                    "aPow": a_exp,
                }
            )
        records.sort(key=lambda r: (r["vars"], r["aPow"]))
        return records

    @classmethod
    def from_json(cls, records: list[dict]) -> "Poly":
        """Inverse of ``to_json``; raises ``ValueError`` on a monomial that
        repeats a position or has a position entry that is not an ``int``."""
        # one pass over every entry at C speed: a float or a bool would
        # compare and hash equal to an int and be written back as it came
        entries = chain.from_iterable(chain.from_iterable(record["vars"] for record in records))
        if set(map(type, entries)) - {int}:
            raise ValueError("a position entry is not an int")
        terms: dict[Mono, int] = {}
        for record in records:
            vars_ = tuple(sorted((i, j) for i, j in record["vars"]))
            if len(set(vars_)) != len(vars_):
                raise ValueError(f"monomial {record['vars']} repeats a position")
            mono = (record["aPow"], vars_)
            terms[mono] = terms.get(mono, 0) + record["coeff"]
        return cls(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (a_exp, vars_), coeff in sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0])):
            body = "".join(f"x{i},{j}" for i, j in vars_)
            if a_exp:
                body = f"a^{a_exp}" + body if a_exp > 1 else "a" + body
            chunks.append(f"{coeff:+d}{body}" if body else f"{coeff:+d}")
        return " ".join(chunks)


def evaluate(poly: Poly, assignment: dict) -> "Poly | int":
    """Exact partial evaluation; a full assignment yields an integer.

    Every key must name a variable actually occurring in the polynomial (or
    the parameter key "a"); anything else is rejected.
    """
    occurring = poly.variables()
    has_a = any(a for a, _ in poly.terms)
    for key in assignment:
        if key == _A_KEY:
            if not has_a:
                raise InvalidInput("parameter does not occur in the polynomial")
            continue
        if key not in occurring:
            raise InvalidInput(f"unknown variable {key!r}")
    reduced = poly.substitute(assignment)
    if not reduced.variables() and not any(a for a, _ in reduced.terms):
        return reduced.constant_value()
    return reduced
