"""The fraction-free kernel on int matrices against a plain Fraction Gaussian elimination."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsing.linalg import rank, rref


def reference_rref(rows):
    """Gauss-Jordan over Fraction: (reduced pivot rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        found = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if found is None:
            continue
        if found != top:
            mat[top], mat[found] = mat[found], mat[top]
        p = mat[top][col]
        mat[top] = [x / p for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


small_ints = st.integers(-6, 6)


@st.composite
def matrices(draw):
    """Int matrices up to 6 x 8, with zero and dependent rows."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 8))
    rows = []
    for r in range(nrows):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and r > 0:
            a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            ca, cb = draw(small_ints), draw(small_ints)
            rows.append([ca * x + cb * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append(draw(st.lists(small_ints, min_size=ncols, max_size=ncols)))
    return rows


@given(matrices())
def test_rank_matches_reference(rows):
    assert rank(rows) == len(reference_rref(rows)[1])


@given(matrices())
def test_rref_matches_reference(rows):
    R, pivots, d = rref(rows)
    expected, expected_pivots = reference_rref(rows)
    assert pivots == expected_pivots
    assert d != 0
    assert all(type(x) is int for row in R for x in row)
    for q, row in enumerate(R):
        assert [row[p] for p in pivots] == [d if p == q else 0 for p in range(len(pivots))]
        assert [Fraction(x, d) for x in row] == expected[q]


@given(matrices())
def test_columns_are_combinations_of_pivot_columns(rows):
    R, pivots, d = rref(rows)
    ncols = len(rows[0]) if rows else 0
    for j in range(ncols):
        for row in rows:
            assert row[j] == sum(Fraction(R[q][j], d) * row[p] for q, p in enumerate(pivots))


def leibniz_det(rows):
    """Determinant of a square matrix as a signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


@st.composite
def square_int_matrices(draw):
    n = draw(st.integers(1, 4))
    return [draw(st.lists(small_ints, min_size=n, max_size=n)) for _ in range(n)]


@given(square_int_matrices())
def test_pivot_minor_of_square_matrices(rows):
    # a nonsingular integer matrix is its own pivot minor, up to the row swaps
    R, pivots, d = rref(rows)
    det = leibniz_det(rows)
    if det:
        assert pivots == list(range(len(rows)))
        assert abs(d) == abs(det)
    else:
        assert len(pivots) < len(rows)


def test_zero_rows_have_no_pivot():
    assert rref([[0, 0, 0], [0, 0, 0]]) == ([], [], 1)


def test_input_left_unchanged():
    rows = [[0, 2, 3], [4, 6, 8], [2, 4, 0]]
    copy = [list(row) for row in rows]
    rref(rows)
    assert rows == copy


def test_empty_matrices():
    assert rank([]) == 0
    assert rref([]) == ([], [], 1)
    assert rank([[], []]) == 0


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        rank([[1, 2], [3]])


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0], [0, Fraction(1, 2)]],
        [[Fraction(2), 1]],
        [[1.0, 2]],
        [[True, 0], [0, 1]],
    ],
    ids=["fraction", "integral-fraction", "float", "bool"],
)
def test_rejects_non_int_entries(rows):
    # Bareiss floor-divides, so a Fraction entry would give a wrong rank
    with pytest.raises(ValueError, match="ints"):
        rank(rows)
    with pytest.raises(ValueError, match="ints"):
        rref(rows)
