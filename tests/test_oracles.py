"""The census generator, filters, keys and grouping kernels against their earlier versions.

``canonical_key``, ``strongly_connected``, ``euler_form``,
``applicable_moves`` and ``_offdiag_matrices`` were rewritten for speed with
unchanged results.  The functions below are the earlier versions, kept
verbatim (the weight methods they called are copied as functions) as
oracles: the keys must be byte-equal, and every filter must return the same
value, on every candidate of the d <= 7 census and on hypothesis settings
full of ties.  The arrow matrices must come in the same sequence on every
d <= 7 block, the earlier generator's with the unmarked loops placed on its
zero diagonal.

The grouping's kernels, ``facet_incidence``, ``incidence_isomorphism`` and
the cycle walk of ``invariant_generators``, moved onto generator bitmasks.
Their earlier versions are kept verbatim too: every all-ones setting of the
d <= 7 censuses must give the same ``FacetIncidence`` and every search of
two equal keys the same bijection, entered in the same order, also on
relabelled bases and settings.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from qsing import classification, toric
from qsing.classification import _fully_tied
from qsing.core import (
    CANONICAL_KEY_MAX_VERTICES,
    MarkedQuiverSetting,
    canonical_encoding,
    canonical_key,
    euler_form,
    euler_matrix,
    exact_int,
    strongly_connected,
)
from qsing.errors import CapacityError, DimensionMismatchError
from qsing.reduction import Move, MoveKind, applicable_moves
from qsing.toric import FacetIncidence, Vector, _check, _edges, _require_all_ones

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


def old_facet_incidence(basis: Sequence[Sequence[int]]) -> FacetIncidence:
    """The facets of the cone spanned by an invariant basis, read off its zeros.

    ``basis`` is the 0/1 basis of :func:`invariant_generators`, the
    generators of the circulation cone C = ker W meet R>=0^arrows.  For an
    arrow a let Z_a be the set of generators with g_a = 0.  u_a >= 0 on C,
    so every Z_a spans a face of C, and every facet of C is C meet
    {u_a = 0} for some arrow a.  Every proper face lies in a facet, so the
    facets are exactly the inclusion-maximal Z_a that are proper subsets.
    An arrow on no cycle has Z_a = every generator and names no facet.
    """
    m = len(basis)
    everyone = (1 << m) - 1
    bits = [1 << g for g in range(m)]
    zero_sets = {everyone ^ sum(itertools.compress(bits, column)) for column in zip(*basis)}
    zero_sets.discard(everyone)
    # a zero set that is not maximal lies in a larger maximal one, kept before it
    facets: list[int] = []
    for z in sorted(zero_sets, key=int.bit_count, reverse=True):
        if all(z & f != z for f in facets):
            facets.append(z)
    facets.sort(key=lambda z: (z.bit_count(), z))
    # per generator, the sizes of the facets that contain it, in order of size
    sizes: list[list[int]] = [[] for _ in range(m)]
    for f in facets:
        size = f.bit_count()
        while f:
            low = f & -f
            sizes[low.bit_length() - 1].append(size)
            f ^= low
    key = (m, len(facets), tuple(sorted(map(tuple, sizes))))
    return FacetIncidence(m, tuple(facets), key)


def old_incidence_isomorphism(
    first: FacetIncidence,
    second: FacetIncidence,
    *,
    deadline: float | None = None,
) -> dict[int, int] | None:
    """A generator bijection matching two facet incidences, or None.

    This decides isomorphism of the invariant monoids of two all-ones
    settings exactly.  Their generators are 0/1 vectors (the simple
    cycles), so for any arrow a of a facet F the form u_a is F's primitive
    support form.  The cone is pointed, so u -> (u_F) over the facets is
    injective on the space it spans and carries the monoid onto the one
    generated by the rows of the 0/1 generator x facet matrix.  A monoid
    isomorphism carries generators to generators and facets to facets
    (Bruns-Gubeladze, *Polytopes, Rings, and K-theory*, 2009, ch. 2), so
    two such monoids are isomorphic iff their incidence matrices agree up
    to a permutation of the rows and one of the columns.

    The search assigns the facets of ``first``, in order of size, to unused
    facets of ``second`` of the same size while the sorted rows restricted
    to the facets assigned so far agree; a full assignment matches the
    generators of ``first`` to those of ``second`` by their equal rows.

    One deadline step is a node of the search.
    """
    if first.key != second.key:
        return None
    m = first.generators
    facets1, facets2 = first.facets, second.facets
    sizes1 = [f.bit_count() for f in facets1]
    sizes2 = [f.bit_count() for f in facets2]
    # rows1[p]: the rows of ``first`` on its first p facets, one int per generator
    rows1 = [[0] * m]
    for f in facets1:
        rows1.append([(r << 1) | (f >> g & 1) for g, r in enumerate(rows1[-1])])
    targets = [sorted(rows) for rows in rows1]
    used = [False] * len(facets2)

    def search(p: int, rows2: list[int]) -> list[int] | None:
        """The rows of ``second`` under a full assignment extending the first p."""
        if deadline is not None:
            _check(deadline, "incidence search ran past its deadline")
        if p == len(facets1):
            return rows2
        for q, f in enumerate(facets2):
            if used[q] or sizes2[q] != sizes1[p]:
                continue
            grown = [(r << 1) | (f >> g & 1) for g, r in enumerate(rows2)]
            if sorted(grown) != targets[p + 1]:
                continue
            used[q] = True
            found = search(p + 1, grown)
            if found is not None:
                return found
            used[q] = False
        return None

    rows2 = search(0, [0] * m)
    if rows2 is None:
        return None
    order1 = sorted(range(m), key=rows1[-1].__getitem__)
    order2 = sorted(range(m), key=rows2.__getitem__)
    return dict(zip(order1, order2))


def old_invariant_generators(
    s: MarkedQuiverSetting, *, deadline: float | None = None
) -> list[Vector]:
    """Hilbert basis of the weight-zero monomials: the simple directed cycles.

    The invariant ring is generated by traces of oriented cycles (Le
    Bruyn-Procesi 1990), here the monomials of their arrows.  W is totally
    unimodular, so the Hilbert basis of ker W meet N^arrows is the set of
    0/1 vectors of the simple directed cycles: flow decomposition writes
    every nonnegative circulation as a sum of simple cycles, and no simple
    cycle is a sum of two nonzero circulations (Sturmfels, *Groebner Bases
    and Convex Polytopes*, 1996, ch. 4 and 8).  A loop is a 1-cycle.  The
    result equals ``hilbert_basis(W)``, sorted.

    One walk per least vertex s0 extends simple paths (visited vertices as
    a bitmask) through vertices above s0; every edge back to s0 closes a
    vertex cycle, expanded over the parallel arrows of its edges.  The path
    is an explicit stack, so a long one needs no recursion.

    One deadline step is a path extended or a cycle emitted.
    """
    _require_all_ones(s)
    k = s.k
    # per vertex its successors w, each with the slots of its arrows to w
    successors: list[list[tuple[int, range]]] = [[] for _ in range(k)]
    for tail, head, slots in _edges(s):
        successors[tail].append((head, slots))
    cycles: list[Vector] = []
    path: list[range] = []
    # the 0/1 vector of the cycle being emitted, cleared after each
    u = [0] * sum(map(sum, s.arrows))
    for s0 in range(k):
        # the path's vertices, and per vertex the successors left to try
        verts, todo, seen = [s0], [iter(successors[s0])], 1 << s0
        while todo:
            v = verts[-1]
            for w, slots in todo[-1]:
                if w == s0:
                    path.append(slots)
                    for chosen in itertools.product(*path):
                        if deadline is not None:
                            _check(deadline, "invariant cycles ran past their deadline")
                        for a in chosen:
                            u[a] = 1
                        cycles.append(tuple(u))
                        for a in chosen:
                            u[a] = 0
                    path.pop()
                elif w > s0 and not seen >> w & 1:
                    if deadline is not None:
                        _check(deadline, "invariant cycles ran past their deadline")
                    path.append(slots)
                    verts.append(w)
                    todo.append(iter(successors[w]))
                    seen |= 1 << w
                    break
            else:
                todo.pop()
                verts.pop()
                seen ^= 1 << v
                if verts:
                    path.pop()
    cycles.sort()
    return cycles


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
        m.setattr(classification, "canonical_encoding", recording(keyed, canonical_encoding))
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


# ---------------------------------------------------------------------------
# the grouping's kernels


@pytest.fixture(scope="module")
def census_incidences():
    """Each all-ones setting of the d <= 7 censuses with its earlier incidence."""
    return [
        (s, old_facet_incidence(old_invariant_generators(s)))
        for d in range(2, 8)
        for s in classification.enumerate_reduced_singular(d)
        if set(s.dims) == {1}
    ]


def assert_same_incidence(s: MarkedQuiverSetting) -> FacetIncidence:
    basis = toric.invariant_generators(s)
    assert basis == old_invariant_generators(s)
    incidence = old_facet_incidence(basis)
    assert toric.facet_incidence(basis) == incidence
    assert toric.invariant_incidence(s) == incidence, s.dumps()
    return incidence


def assert_same_search(first: FacetIncidence, second: FacetIncidence) -> bool:
    new = toric.incidence_isomorphism(first, second)
    old = old_incidence_isomorphism(first, second)
    assert new == old
    # the same bijection, entered in the same order
    assert new is None or list(new.items()) == list(old.items())
    return new is not None


@st.composite
def small_all_ones(draw):
    """All-ones settings on k <= 4 vertices, with loops and parallel arrows."""
    k = draw(st.integers(1, 4))
    entry = st.sampled_from([0, 0, 1, 1, 2])
    return MarkedQuiverSetting.make(
        [1] * k, draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    )


class TestGroupingKernels:
    def test_census_incidences(self, census_incidences):
        assert len(census_incidences) == 1 + 3 + 11 + 63 + 564
        for s, incidence in census_incidences:
            assert assert_same_incidence(s) == incidence

    def test_census_searches(self, census_incidences):
        by_key = defaultdict(list)
        for _, incidence in census_incidences:
            by_key[incidence.key].append(incidence)
        searches = matched = 0
        for group in by_key.values():
            for first, second in itertools.product(group, repeat=2):
                searches += 1
                matched += assert_same_search(first, second)
        assert (searches, matched) == (2280, 2274)

    @given(st.data())
    @hyp_settings(max_examples=60, deadline=None)
    def test_relabelled_bases(self, census_incidences, data):
        s, incidence = data.draw(st.sampled_from(census_incidences[:78]))
        basis = old_invariant_generators(s)
        gens = data.draw(st.permutations(range(len(basis))))
        cols = data.draw(st.permutations(range(len(basis[0]))))
        relabelled = [tuple(basis[g][c] for c in cols) for g in gens]
        other = toric.facet_incidence(relabelled)
        assert other == old_facet_incidence(relabelled)
        assert assert_same_search(incidence, other)
        assert assert_same_search(other, incidence)

    @given(st.data())
    @hyp_settings(max_examples=60, deadline=None)
    def test_relabelled_settings(self, census_incidences, data):
        s, incidence = data.draw(st.sampled_from(census_incidences[:78]))
        other = assert_same_incidence(permuted(s, data.draw(st.permutations(range(s.k)))))
        assert assert_same_search(incidence, other)

    @given(small_all_ones(), small_all_ones())
    @hyp_settings(max_examples=150, deadline=None)
    def test_loops_and_parallel_arrows(self, s, t):
        first, second = assert_same_incidence(s), assert_same_incidence(t)
        if first.key == second.key:
            assert_same_search(first, second)
