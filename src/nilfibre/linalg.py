"""Exact integer linear algebra: fraction-free row bases and ranks, determinants."""

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
        for r in range(rank + 1, len(work)):
            factor = work[r][col]
            if factor == 0:
                continue
            row = [pivot * a - factor * b for a, b in zip(work[r], work[rank])]
            g = 0
            for a in row:
                g = gcd(g, a)
            if g > 1:
                row = [a // g for a in row]
            work[r] = row
        rank += 1
        col += 1
    return work[:rank]


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free elimination."""
    return len(row_basis(rows))


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact determinant by Bareiss elimination (all divisions exact)."""
    n = len(matrix)
    if n == 0:
        return 1
    work = [list(r) for r in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if work[r][k] != 0), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]

