"""The census generator, filters and canonical key against their earlier versions.

``canonical_key``, ``strongly_connected``, ``euler_form``,
``applicable_moves`` and ``_offdiag_matrices`` were rewritten for speed with
unchanged results.  The functions below are the earlier versions, kept
verbatim (the weight methods they called are copied as functions) as
oracles: the keys must be byte-equal, and every filter must return the same
value, on every candidate of the d <= 7 census and on hypothesis settings
full of ties.  The arrow matrices must come in the same sequence on every
d <= 7 block, the earlier generator's with the unmarked loops placed on its
zero diagonal.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from qsing import classification
from qsing.classification import _fully_tied
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


def old_offdiag_matrices(dims: tuple[int, ...], loops: tuple[tuple[int, int], ...], budget: int):
    """Exact-budget distributions of off-diagonal arrows, up to tied swaps.

    Slot (i, j) costs dims[i] * dims[j] per arrow.  Vertex removal applies at
    a loop-free vertex v (k >= 2) whose weighted in-degree or out-degree (the
    sum of the dimensions at the other ends of its arrows) is at most
    dims[v], so only matrices where both exceed dims[v] at every such vertex
    are yielded.

    Slots are filled row by row.  Raising the out-weight of row v or the
    in-weight of column v by one costs at least dims[v], so the rows still to
    fill need sum dims[v] * (dims[v] + 1) of the budget and the columns
    dims[v] times their in-weight deficit.  One arrow serves one row and one
    column, so the larger of the two bounds the cost of any completion; it
    prunes each row start, and the row part caps every count.  A row's
    out-weight is final at its last slot and a column's in-weight at its
    last row, where counts too small to clear dims[v] are cut.

    Vertices v and v + 1 with equal dims and equal (loops, marks) are fully
    tied: swapping them relabels a setting into an isomorphic one.  Counts
    run in descending order, so matrices come in descending lexicographic
    order of their slot sequences, and the first of a class's relabellings
    is its lexicographic maximum.  Only matrices that no swap of a fully
    tied pair makes lexicographically larger are yielded; that maximum is
    one of them.  Swapping v and v + 1 exchanges columns v and v + 1 of the
    rows outside the pair, and rows v and v + 1 with their entries at v and
    v + 1 crossed over.  The first slot where the two matrices differ is
    therefore filled at slot (r, v + 1) of a row r outside the pair, against
    the already filled (r, v), or inside row v + 1 against its image in row
    v; while all earlier slots agree, such a slot's count is capped by its
    reference, and a count below the reference settles the pair.
    """
    k = len(dims)
    slots = [(i, j) for i in range(k) for j in range(k) if i != j]
    loop_free = [k >= 2 and sum(loops[v]) == 0 for v in range(k)]
    guarded = [v for v in range(k) if loop_free[v]]
    row_cost = [dims[v] * (dims[v] + 1) if loop_free[v] else 0 for v in range(k)]
    rows_left_cost = [sum(row_cost[r:]) for r in range(k + 1)]
    # the last row with a slot in column j; later rows cannot raise its in-weight
    last_row = [k - 1 if j != k - 1 else k - 2 for j in range(k)]
    tied = _fully_tied(dims, loops)
    # per slot, the (pair, reference slot) comparisons it decides
    deciders: list[list[tuple[int, int, int]]] = [[] for _ in slots]
    for p, v in enumerate(tied):
        for idx, (i, j) in enumerate(slots):
            if i == v + 1:
                deciders[idx].append((p, v, v + 1 if j == v else j))
            elif i != v and j == v + 1:
                deciders[idx].append((p, i, v))
    undecided = [True] * len(tied)
    matrix = [[0] * k for _ in range(k)]
    col_in = [0] * k  # weighted in-degree of each column over the rows so far

    def recurse(idx: int, remaining: int):
        if idx == len(slots):
            if remaining == 0:
                yield tuple(tuple(r) for r in matrix)
            return
        i, j = slots[idx]
        if j == (0 if i != 0 else 1):
            cols_cost = sum(dims[v] * max(0, dims[v] + 1 - col_in[v]) for v in guarded)
            if remaining < max(rows_left_cost[i], cols_cost):
                return
        w = dims[i] * dims[j]
        # the rows after this one still need rows_left_cost[i + 1]
        top = (remaining - rows_left_cost[i + 1]) // w
        live = [(p, matrix[r][c]) for p, r, c in deciders[idx] if undecided[p]]
        for _, ref in live:
            top = min(top, ref)
        if idx + 1 == len(slots):
            # the last slot takes whatever budget is left, or nothing fits
            counts = [top] if top * w == remaining else []
        else:
            counts = range(top, -1, -1)
        row_end = loop_free[i] and (idx + 1 == len(slots) or slots[idx + 1][0] != i)
        col_end = loop_free[j] and i == last_row[j]
        out_before = sum(matrix[i][t] * dims[t] for t in range(j)) if row_end else 0
        col_before = col_in[j]
        for count in counts:
            # counts only fall from here, so a too-small row or column is final
            if row_end and out_before + count * dims[j] <= dims[i]:
                break
            if col_end and col_before + count * dims[i] <= dims[j]:
                break
            matrix[i][j] = count
            col_in[j] = col_before + count * dims[i]
            settled = [p for p, ref in live if count < ref]
            for p in settled:
                undecided[p] = False
            yield from recurse(idx + 1, remaining - count * w)
            for p in settled:
                undecided[p] = True
        matrix[i][j] = 0
        col_in[j] = col_before

    yield from recurse(0, budget)


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


def with_diagonal(m, loops) -> tuple:
    """``m`` with the unmarked loops ``loops[v][0]`` placed on its diagonal."""
    return tuple(
        tuple(loops[v][0] if v == w else a for w, a in enumerate(row)) for v, row in enumerate(m)
    )


def assert_same_sequence(dims, loops, budget) -> list:
    new = list(classification._offdiag_matrices(dims, loops, budget))
    old = [with_diagonal(m, loops) for m in old_offdiag_matrices(dims, loops, budget)]
    assert new == old, (dims, loops, budget)
    return new


class TestOffdiagSequence:
    @pytest.mark.parametrize("d", range(2, 8))
    def test_census_blocks(self, d):
        yielded = 0
        for dims in classification._dims_multisets(d):
            budget = d - 1 + sum(a * a for a in dims)
            for loops, loop_cost in classification._loop_configs(dims, budget, d):
                yielded += len(assert_same_sequence(dims, loops, budget - loop_cost))
        assert yielded == {2: 0, 3: 2, 4: 4, 5: 22, 6: 198, 7: 2695}[d]

    @pytest.mark.parametrize(
        "dims, loops, budget",
        [
            # tied pairs next to untied vertices of the same dimension
            ((2, 2, 2), ((0, 1), (0, 1), (1, 0)), 16),
            ((2, 2, 1, 1), ((1, 0), (0, 1), (0, 0), (0, 0)), 14),
            ((1, 1, 1, 1), ((0, 0),) * 4, 8),
        ],
    )
    def test_tie_blocks(self, dims, loops, budget):
        assert len(assert_same_sequence(dims, loops, budget)) > 1

    def test_one_vertex(self):
        # no slot: the loops alone, and only when no budget is left for arrows
        assert assert_same_sequence((2,), ((3, 1),), 0) == [((3,),)]
        assert assert_same_sequence((2,), ((3, 1),), 4) == []

    def test_last_slot_takes_the_rest(self):
        # (0, 1) needs 1 arrow for row 0 and 3 for column 1, (1, 0) 3 for row 1: the
        # last slot fits the 6 units left after (0, 1) = 3, and only those
        assert assert_same_sequence((1, 2), ((0, 0), (0, 0)), 12) == [((0, 3), (3, 0))]
        # each arrow costs 6, so no count of the last slot spends the 7 left
        assert assert_same_sequence((2, 3), ((1, 0), (1, 0)), 7) == []
