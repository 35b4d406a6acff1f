"""Exact sparse multilinear polynomials over the integers.

Variables are matrix positions (i, j).  A monomial is a sorted tuple of
distinct positions: every determinant term uses each cell at most once, so
no position ever carries an exponent.  Coefficients are arbitrary-precision
integers and zero coefficients are never stored.

A ``Poly`` is a map of monomials, not a ring: it has no addition or
multiplication.  The engine builds each one from a term dict and only reads,
negates or substitutes into it; the one expansion that multiplies cells,
``invariants.symbolic_minor``, adds up its own terms and wraps each power of
the minors' diagonal parameter, which is not a variable, in a ``Poly`` once.
"""

from __future__ import annotations

from itertools import chain

from .core import InvalidInput, Pos

Mono = tuple[Pos, ...]


class Poly:
    """Immutable-by-convention map of monomials to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, int]):
        self.terms: dict[Mono, int] = {m: c for m, c in terms.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def variables(self) -> frozenset[Pos]:
        return frozenset(pos for mono in self.terms for pos in mono)

    def substitute(self, assignment: dict[Pos, int]) -> "Poly":
        """Map positions to integers; unmapped positions stay symbolic.
        Lenient: keys absent from the polynomial are ignored."""
        out: dict[Mono, int] = {}
        for vars_, coeff in self.terms.items():
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
            mono = tuple(kept)
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return Poly(out)

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if set(self.terms) == {()}:
            return self.terms[()]
        raise InvalidInput("polynomial is not constant")

    def total_degrees(self) -> set[int]:
        return {len(vars_) for vars_ in self.terms}

    def sign_normalized(self) -> "Poly":
        """Scale by -1 if needed so the lexicographically least monomial has a
        positive coefficient."""
        if not self.terms:
            return self
        return self if self.terms[min(self.terms)] > 0 else -self

    def to_json(self) -> list[dict]:
        records = [{"coeff": coeff, "vars": [[i, j] for i, j in vars_]} for vars_, coeff in self.terms.items()]
        records.sort(key=lambda r: r["vars"])
        return records

    @classmethod
    def from_json(cls, records: list[dict]) -> "Poly":
        """Inverse of ``to_json``; raises ``ValueError`` on a record with keys
        other than ``coeff`` and ``vars``, a monomial that repeats a position
        or a position entry that is not an ``int``."""
        if any(set(record) != {"coeff", "vars"} for record in records):
            raise ValueError("a monomial record has keys other than coeff and vars")
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
            terms[vars_] = terms.get(vars_, 0) + record["coeff"]
        return cls(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for vars_, coeff in sorted(self.terms.items()):
            body = "".join(f"x{i},{j}" for i, j in vars_)
            chunks.append(f"{coeff:+d}{body}")
        return " ".join(chunks)
