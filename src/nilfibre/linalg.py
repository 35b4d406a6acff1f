"""Exact integer linear algebra: fraction-free row bases and ranks."""

from __future__ import annotations

from math import gcd


def row_basis(rows: list[list[int]]) -> list[list[int]]:
    """Echelon rows spanning the row space of ``rows`` over the rationals, by
    fraction-free elimination; there are as many as the rank."""
    if not rows:
        return []
    work = [list(r) for r in rows]
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        # below the pivot, every row is zero up to its column once eliminated
        head = [0] * (col + 1)
        pivot_tail = work[rank][col + 1 :]
        for r in range(rank + 1, len(work)):
            factor = work[r][col]
            if factor == 0:
                continue
            tail = [pivot * a - factor * b for a, b in zip(work[r][col + 1 :], pivot_tail)]
            g = gcd(*tail)
            if g > 1:
                tail = [a // g for a in tail]
            work[r] = head + tail
        rank += 1
        col += 1
    return work[:rank]


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free elimination."""
    return len(row_basis(rows))

