"""Exact linear algebra by fraction-free elimination.

Every routine reduces over Python ints: each row (of ints or Fractions) is
first scaled to integers by the lcm of its denominators, then brought to
reduced echelon form by Bareiss's integer-preserving Gauss-Jordan
elimination (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22).  By Sylvester's
identity every division in the elimination is exact, so entries stay minors
of the scaled matrix and never grow into fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Number = int | Fraction


def _integer_rows(rows: Sequence[Sequence[Number]]) -> list[list[int]]:
    """Each row scaled to integers by the lcm of its denominators."""
    width = len(rows[0]) if rows else 0
    mat = []
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix")
        scale = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (scale // x.denominator) for x in row])
    return mat


def _bareiss(mat: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place."""
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    d = 1
    for col in range(ncols):
        top = len(pivots)
        if top == len(mat):
            break
        found = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if found is None:
            continue
        if found != top:
            mat[top], mat[found] = mat[found], mat[top]
        prow = mat[top]
        p = prow[col]
        for r, row in enumerate(mat):
            if r != top:
                f = row[col]
                mat[r] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        pivots.append(col)
        d = p
    return mat[: len(pivots)], pivots, d


def rref(rows: Sequence[Sequence[Number]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced row echelon form: ``(R, pivots, d)``.

    ``R`` has one integer row per pivot with ``R[q][pivots[p]] == d`` when
    p == q and 0 otherwise, so ``R / d`` is the reduced row echelon form of
    ``rows``.  The pivot columns are the greedy choice from the left; every
    column j satisfies column_j = sum_q R[q][j] / d * column_{pivots[q]}.
    ``d`` is the pivot minor of the integer-scaled rows after the row swaps;
    it is 1 when there is no pivot.
    """
    return _bareiss(_integer_rows(rows))


def rank(rows: Sequence[Sequence[Number]]) -> int:
    """Rank over the rationals."""
    return len(rref(rows)[1])

