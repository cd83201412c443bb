"""Exact linear algebra on matrices of Python ints.

:func:`rref` and :func:`rank` use Bareiss's integer-preserving Gauss-Jordan
elimination (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22).  By Sylvester's
identity every division in it is exact, so entries stay minors of the input
and never grow into fractions.  :func:`hilbert_basis` completes the minimal
solutions in N^n of M u = 0.
"""

from __future__ import annotations

from operator import add, ge, mul
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


def hilbert_basis(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Minimal nonzero solutions of M u = 0, u in N^n, sorted.

    The reference of the toric kernels; ``matrix`` is a list of rows of
    length n.  Round r holds the frontier of degree r, each vector u with
    g(u) = G u for G = M^T M: the condition <M u, M e_i> < 0 reads
    g(u)_i < 0, u + e_i carries g(u) + G e_i, and u is a solution iff
    g(u) = 0.  A round files its solutions before it extends the rest, and
    no frontier vector dominates a known solution, so u + e_i is compared
    only with the solutions whose i-th coordinate is u_i + 1.
    """
    rows = [tuple(r) for r in matrix]
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    columns = list(zip(*rows))
    gram = [tuple(sum(map(mul, ci, cj)) for cj in columns) for ci in columns]
    basis: list[tuple[int, ...]] = []
    # by_coord[i][c]: the known solutions b with b_i = c > 0
    by_coord: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in range(n)]
    unit = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
    frontier: dict[tuple[int, ...], tuple[int, ...]] = dict(zip(unit, gram))
    while frontier:
        growing = []
        for u, g in frontier.items():
            if any(g):
                growing.append((u, g))
                continue
            basis.append(u)
            for i, c in enumerate(u):
                if c:
                    by_coord[i].setdefault(c, []).append(u)
        frontier = {}
        for u, g in growing:
            for i, x in enumerate(g):
                if x >= 0:
                    continue
                c = u[i] + 1
                child = u[:i] + (c,) + u[i + 1 :]
                if child in frontier or any(
                    all(map(ge, child, b)) for b in by_coord[i].get(c, ())
                ):
                    continue
                frontier[child] = tuple(map(add, g, gram[i]))
    return sorted(basis)
