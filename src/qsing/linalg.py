"""Exact linear algebra by fraction-free elimination.

Every routine takes a matrix of Python ints and brings it to reduced echelon
form by Bareiss's integer-preserving Gauss-Jordan elimination (Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22).  By Sylvester's identity every division in
the elimination is exact, so entries stay minors of the input and never grow
into fractions.
"""

from __future__ import annotations

from typing import Sequence


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced row echelon form: ``(R, pivots, d)``.

    ``R`` has one integer row per pivot with ``R[q][pivots[p]] == d`` when
    p == q and 0 otherwise, so ``R / d`` is the reduced row echelon form of
    ``rows``.  The pivot columns are the greedy choice from the left; every
    column j satisfies column_j = sum_q R[q][j] / d * column_{pivots[q]}.
    ``d`` is the pivot minor of ``rows`` after the row swaps; it is 1 when
    there is no pivot.  A ragged matrix or a non-int entry raises ``ValueError``.
    """
    mat = [list(row) for row in rows]
    ncols = len(mat[0]) if mat else 0
    if any(len(row) != ncols for row in mat):
        raise ValueError("ragged matrix")
    if any(type(x) is not int for row in mat for x in row):
        raise ValueError("matrix entries must be ints")
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


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals."""
    return len(rref(rows)[1])

