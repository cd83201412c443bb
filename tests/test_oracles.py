"""The census filters and canonical key against copies of their earlier versions.

``canonical_key``, ``strongly_connected``, ``euler_form`` and
``applicable_moves`` were rewritten for speed with unchanged results.  The
functions below are the earlier versions, kept verbatim (the weight methods
they called are copied as functions) as oracles: the keys must be
byte-equal, and every filter must return the same value, on every candidate
of the d <= 7 census and on hypothesis settings full of ties.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from qsing import classification
from qsing.core import (
    CANONICAL_KEY_MAX_VERTICES,
    MarkedQuiverSetting,
    canonical_key,
    euler_form,
    euler_matrix,
    exact_int,
    strongly_connected,
)
from qsing.errors import CapacityError, DimensionMismatchError
from qsing.reduction import Move, MoveKind, applicable_moves

from conftest import permuted

# ---------------------------------------------------------------------------
# the earlier versions


def old_euler_form(s: MarkedQuiverSetting, beta: Sequence[int], gamma: Sequence[int]) -> int:
    b = tuple(map(exact_int, beta))
    g = tuple(map(exact_int, gamma))
    if len(b) != s.k or len(g) != s.k:
        raise DimensionMismatchError(
            f"vectors must have length {s.k}, got {len(b)} and {len(g)}"
        )
    m = euler_matrix(s)
    return sum(b[i] * m[i][j] * g[j] for i in range(s.k) for j in range(s.k))


def old_strongly_connected(s: MarkedQuiverSetting, support: Iterable[int] | None = None) -> bool:
    verts = sorted(set(range(s.k)) if support is None else set(support))
    if not verts:
        return False
    vset = set(verts)

    def reach(start: int, forward: bool) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in verts:
                if w in seen or w not in vset:
                    continue
                edge = s.arrows[v][w] if forward else s.arrows[w][v]
                if edge > 0:
                    seen.add(w)
                    stack.append(w)
        return seen

    root = verts[0]
    return reach(root, True) == vset and reach(root, False) == vset


def old_in_weight(s: MarkedQuiverSetting, v: int) -> int:
    return sum(s.dims[i] * s.arrows[i][v] for i in range(s.k)) + (
        s.dims[v] * s.marked_loops[v]
    )


def old_out_weight(s: MarkedQuiverSetting, v: int) -> int:
    return sum(s.arrows[v][j] * s.dims[j] for j in range(s.k)) + (
        s.dims[v] * s.marked_loops[v]
    )


def old_applicable_moves(s: MarkedQuiverSetting) -> list[Move]:
    moves: list[Move] = []
    alpha = s.dims
    for v in range(s.k):
        loops = s.loops_at(v)
        if loops == 0 and s.k >= 2:
            if old_in_weight(s, v) <= alpha[v] or old_out_weight(s, v) <= alpha[v]:
                moves.append(Move(MoveKind.VERTEX_REMOVAL, v))
        if s.dims[v] == 1 and s.arrows[v][v] >= 1:
            moves.append(Move(MoveKind.SMALL_LOOP_REMOVAL, v))
        if s.dims[v] >= 2 and loops == 1:
            marked = s.marked_loops[v] == 1
            out = [(j, s.arrows[v][j]) for j in range(s.k) if j != v and s.arrows[v][j] > 0]
            if len(out) == 1 and out[0][1] == 1 and s.dims[out[0][0]] == 1:
                moves.append(
                    Move(MoveKind.BIG_LOOP_REMOVAL, v, marked=marked, neighbor=out[0][0])
                )
            inc = [(i, s.arrows[i][v]) for i in range(s.k) if i != v and s.arrows[i][v] > 0]
            if len(inc) == 1 and inc[0][1] == 1 and s.dims[inc[0][0]] == 1:
                moves.append(
                    Move(
                        MoveKind.BIG_LOOP_REMOVAL,
                        v,
                        marked=marked,
                        neighbor=inc[0][0],
                        incoming=True,
                    )
                )
    return moves


def _vertex_signature(s: MarkedQuiverSetting, v: int) -> tuple:
    row = sorted(s.arrows[v][j] for j in range(s.k) if j != v)
    col = sorted(s.arrows[i][v] for i in range(s.k) if i != v)
    return (s.dims[v], s.marked_loops[v], s.arrows[v][v], tuple(row), tuple(col))


def _twin_pairs(s: MarkedQuiverSetting) -> list[list[bool]]:
    k = s.k
    twins = [[False] * k for _ in range(k)]
    for u in range(k):
        for v in range(u + 1, k):
            if s.dims[u] != s.dims[v] or s.marked_loops[u] != s.marked_loops[v]:
                continue
            if s.arrows[u][u] != s.arrows[v][v] or s.arrows[u][v] != s.arrows[v][u]:
                continue
            if all(
                s.arrows[u][w] == s.arrows[v][w] and s.arrows[w][u] == s.arrows[w][v]
                for w in range(k)
                if w != u and w != v
            ):
                twins[u][v] = twins[v][u] = True
    return twins


def old_canonical_key(s: MarkedQuiverSetting) -> bytes:
    k = s.k
    if k > CANONICAL_KEY_MAX_VERTICES:
        raise CapacityError(
            f"canonical_key supports at most {CANONICAL_KEY_MAX_VERTICES} vertices, got {k}"
        )

    sigs = {v: _vertex_signature(s, v) for v in range(k)}
    twins = _twin_pairs(s)

    def segment(v: int, placed: list[int]) -> tuple:
        return (
            s.dims[v],
            s.marked_loops[v],
            s.arrows[v][v],
            tuple(s.arrows[v][w] for w in placed),
            tuple(s.arrows[w][v] for w in placed),
        )

    partial: list[tuple[tuple, list[int]]] = [((), [])]
    for _ in range(k):
        extended: list[tuple[tuple, list[int]]] = []
        best_seg = None
        for prefix, placed in partial:
            used = set(placed)
            unused = [v for v in range(k) if v not in used]
            cands = [
                v
                for v in unused
                if not any(u < v and twins[u][v] for u in unused)
            ]
            for v in cands:
                seg = (sigs[v], segment(v, placed))
                if best_seg is None or seg < best_seg:
                    best_seg = seg
                    extended = [(prefix + seg, placed + [v])]
                elif seg == best_seg:
                    extended.append((prefix + seg, placed + [v]))
        partial = extended
    encoding = partial[0][0]
    return repr(encoding).encode("utf-8")


# ---------------------------------------------------------------------------
# comparisons


def assert_same_as_old(s: MarkedQuiverSetting) -> None:
    assert canonical_key(s) == old_canonical_key(s)
    assert strongly_connected(s) == old_strongly_connected(s)
    assert applicable_moves(s) == old_applicable_moves(s)
    assert euler_form(s, s.dims, s.dims) == old_euler_form(s, s.dims, s.dims)


@pytest.fixture(scope="module")
def census_candidates():
    """The settings the d <= 7 enumerations pass to the key and to the first filter."""
    keyed: list[MarkedQuiverSetting] = []
    filtered: list[MarkedQuiverSetting] = []

    def recording(into, f):
        def wrapper(s):
            into.append(s)
            return f(s)

        return wrapper

    with pytest.MonkeyPatch.context() as m:
        m.setattr(classification, "canonical_key", recording(keyed, canonical_key))
        m.setattr(classification, "strongly_connected", recording(filtered, strongly_connected))
        for d in range(2, 8):
            classification.enumerate_reduced_singular(d)
    return keyed, filtered


class TestCensusCandidates:
    def test_keys_byte_equal(self, census_candidates):
        keyed, _ = census_candidates
        assert len(keyed) == 2231
        for s in keyed:
            assert canonical_key(s) == old_canonical_key(s), s.dumps()

    def test_filters_agree(self, census_candidates):
        keyed, filtered = census_candidates
        assert len(filtered) > len(keyed)
        for s in filtered:
            assert_same_as_old(s)


def _shapes(k: int, dim: int, mult: int, mark: int):
    """A rotationally symmetric cycle, a complete digraph and two twins off a path."""
    cycle = [[mult * (j == (i + 1) % k) for j in range(k)] for i in range(k)]
    complete = [[mult * (i != j) for j in range(k)] for i in range(k)]
    twins = [[0] * k for _ in range(k)]
    for v in range(k - 1):
        twins[v][v + 1] = twins[v + 1][v] = mult
    if k >= 3:
        # vertices k - 2 and k - 1 both hang off k - 3, swapped by an automorphism
        twins[k - 2][k - 1] = twins[k - 1][k - 2] = 0
        twins[k - 3][k - 1] = twins[k - 1][k - 3] = mult
    marks = [mark if dim >= 2 else 0] * k
    return [MarkedQuiverSetting.make([dim] * k, a, marks) for a in (cycle, complete, twins)]


@st.composite
def tied_settings(draw):
    """Settings with k <= 7, loops and marks, rich in twins and tied partial orders."""
    k = draw(st.integers(1, 7))
    dim, mult, mark = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 1))
    base = draw(st.sampled_from(_shapes(k, dim, mult, mark)))
    arrows = [list(row) for row in base.arrows]
    dims = list(base.dims)
    marks = list(base.marked_loops)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        arrows[i][j] = draw(st.integers(0, 2))
    for v in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        dims[v] = draw(st.integers(1, 3))
        marks[v] = draw(st.integers(0, 2))
    s = MarkedQuiverSetting.make(dims, arrows, [m if d >= 2 else 0 for m, d in zip(marks, dims)])
    return permuted(s, draw(st.permutations(range(k))))


class TestTiedSettings:
    @given(tied_settings())
    @hyp_settings(max_examples=300, deadline=None)
    def test_same_as_old(self, s):
        assert_same_as_old(s)

    @given(tied_settings(), st.data())
    @hyp_settings(max_examples=150, deadline=None)
    def test_supports_and_vectors_same_as_old(self, s, data):
        support = data.draw(st.lists(st.integers(0, s.k - 1), max_size=s.k))
        assert strongly_connected(s, support) == old_strongly_connected(s, support)
        vector = st.lists(st.integers(-3, 3), min_size=s.k, max_size=s.k)
        beta, gamma = data.draw(vector), data.draw(vector)
        assert euler_form(s, beta, gamma) == old_euler_form(s, beta, gamma)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_symmetric_shapes(self, k):
        for dim in (1, 2):
            for s in _shapes(k, dim, 1, 1):
                assert_same_as_old(s)

    def test_capacity_error_at_eleven_vertices(self):
        s = MarkedQuiverSetting.make([1] * 11, [[0] * 11] * 11)
        for key in canonical_key, old_canonical_key:
            with pytest.raises(CapacityError):
                key(s)
