"""The fraction-free kernel against a plain Fraction Gaussian elimination."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsing.linalg import det, rank, rref


def reference_rref(rows):
    """Gauss-Jordan over Fraction: (reduced pivot rows, pivot columns, determinant)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    determinant = Fraction(1)
    for col in range(ncols):
        top = len(pivots)
        found = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if found is None:
            continue
        if found != top:
            mat[top], mat[found] = mat[found], mat[top]
            determinant = -determinant
        p = mat[top][col]
        determinant *= p
        mat[top] = [x / p for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[top])]
        pivots.append(col)
    if len(pivots) < len(mat):
        determinant = Fraction(0)
    return mat[: len(pivots)], pivots, determinant


small_ints = st.integers(-6, 6)
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def matrices(draw, square=False):
    """Int, Fraction or mixed matrices up to 6 x 8, with zero and dependent rows."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 8))
    mixed = st.one_of(small_ints, small_fractions)
    entry = draw(st.sampled_from([small_ints, small_fractions, mixed]))
    rows = []
    for r in range(nrows):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and r > 0:
            a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            ca, cb = draw(entry), draw(entry)
            rows.append([ca * x + cb * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@given(matrices())
def test_rank_matches_reference(rows):
    assert rank(rows) == len(reference_rref(rows)[1])


@given(matrices())
def test_rref_matches_reference(rows):
    R, pivots, d, sign = rref(rows)
    expected, expected_pivots, _ = reference_rref(rows)
    assert pivots == expected_pivots
    assert sign in (1, -1) and d != 0
    assert all(type(x) is int for row in R for x in row)
    for q, row in enumerate(R):
        assert [row[p] for p in pivots] == [d if p == q else 0 for p in range(len(pivots))]
        assert [Fraction(x, d) for x in row] == expected[q]


@given(matrices())
def test_columns_are_combinations_of_pivot_columns(rows):
    R, pivots, d, _ = rref(rows)
    ncols = len(rows[0]) if rows else 0
    for j in range(ncols):
        for row in rows:
            assert row[j] == sum(Fraction(R[q][j], d) * row[p] for q, p in enumerate(pivots))


@given(matrices(square=True))
def test_det_matches_reference(rows):
    assert det(rows) == reference_rref(rows)[2]


def test_empty_matrices():
    assert det([]) == 1
    assert rank([]) == 0
    assert rref([]) == ([], [], 1, 1)
    assert rank([[], []]) == 0


def test_det_swaps_and_scales():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        rank([[1, 2], [3]])
