"""Defect, smooth list, counting bound, and the singular-setting enumeration."""

from __future__ import annotations

import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from qsing import classification, toric
from qsing.classification import (
    SmoothShape,
    _vertex_contribution,
    defect,
    enumerate_reduced_singular,
    expected_dim,
    is_smooth_setting,
    match_smooth_list,
    singular_type_classes,
)
from qsing.core import (
    MarkedQuiverSetting,
    canonical_key,
    euler_form,
    strongly_connected,
    unit_vector,
)
from qsing.errors import BudgetExhaustedError
from qsing.local_structure import is_simple_dimvector
from qsing.reduction import MoveKind, applicable_moves

from conftest import permuted, random_setting


class TestDefect:
    def test_quantum_plane_fixtures(
        self, quantum_plane_azumaya, quantum_plane_ramified, quantum_plane_origin
    ):
        assert defect(quantum_plane_azumaya, 2) == 0
        assert defect(quantum_plane_ramified, 2) == 0
        assert defect(quantum_plane_origin, 2) == 1

    def test_negative_dim_rejected(self, conifold):
        with pytest.raises(ValueError):
            defect(conifold, -1)

    def test_consistency_with_expected_dim(self):
        rng = random.Random(13)
        checked = 0
        while checked < 40:
            s = random_setting(rng)
            if not is_simple_dimvector(s, s.dims):
                continue
            assert defect(s, expected_dim(s, warn_if_not_simple=False)) == 0
            checked += 1


class TestExpectedDim:
    def test_conifold(self, conifold):
        assert expected_dim(conifold) == 3

    def test_dim4_two_vertex(self, dim4_two_vertex):
        assert expected_dim(dim4_two_vertex) == 4

    def test_plain_vertex(self):
        s = MarkedQuiverSetting.make([1], [[0]])
        assert expected_dim(s) == 0

    def test_warns_without_simples(self):
        s = MarkedQuiverSetting.make([2], [[1]])
        with pytest.warns(UserWarning):
            expected_dim(s)


class TestSmoothList:
    def test_members(self):
        cases = [
            (MarkedQuiverSetting.make([4], [[0]]), SmoothShape.PLAIN_VERTEX),
            (MarkedQuiverSetting.make([3], [[1]]), SmoothShape.ONE_LOOP),
            (MarkedQuiverSetting.make([3], [[0]], [1]), SmoothShape.ONE_MARKED_LOOP),
            (MarkedQuiverSetting.make([2], [[2]]), SmoothShape.TWO_LOOPS_DIM2),
            (MarkedQuiverSetting.make([2], [[1]], [1]), SmoothShape.LOOP_PLUS_MARKED_DIM2),
            (MarkedQuiverSetting.make([2], [[0]], [2]), SmoothShape.TWO_MARKED_LOOPS_DIM2),
        ]
        for setting, shape in cases:
            entry = match_smooth_list(setting)
            assert entry is not None and entry.shape is shape

    def test_non_members(self, conifold):
        assert match_smooth_list(conifold) is None
        assert match_smooth_list(MarkedQuiverSetting.make([3], [[2]])) is None
        assert match_smooth_list(MarkedQuiverSetting.make([2], [[0]], [3])) is None

    def test_two_marked_loops_smooth(self, quantum_plane_origin):
        report = is_smooth_setting(quantum_plane_origin)
        assert report.smooth and not report.azumaya

    def test_conifold_singular(self, conifold):
        report = is_smooth_setting(conifold)
        assert not report.smooth and report.matched_entry is None

    def test_five_loops_azumaya(self):
        report = is_smooth_setting(MarkedQuiverSetting.make([1], [[5]]))
        assert report.smooth and report.azumaya and report.z == 5

    def test_smoothness_permutation_invariant(self):
        rng = random.Random(19)
        for _ in range(25):
            s = random_setting(rng, max_k=4)
            base = is_smooth_setting(s).smooth
            for perm in itertools.permutations(range(s.k)):
                assert is_smooth_setting(permuted(s, perm)).smooth == base


def counting_bound(s: MarkedQuiverSetting) -> int:
    """1 plus the per-vertex counting-bound contributions of a reduced setting."""
    return 1 + sum(
        _vertex_contribution(s.dims[v], s.arrows[v][v], s.marked_loops[v])
        for v in range(s.k)
    )


class TestCountingBound:
    def test_conifold(self, conifold):
        assert counting_bound(conifold) == 3

    def test_marked_loop_contribution(self):
        s = MarkedQuiverSetting.make([2, 1], [[0, 2], [2, 0]], [1, 0])
        assert applicable_moves(s) == []
        assert counting_bound(s) == 1 + (2 * 2 - 1) + 1

    def test_bound_below_dim_on_enumerated(self):
        for d in (3, 4, 5, 6):
            for s in enumerate_reduced_singular(d):
                if s.k >= 2:
                    assert counting_bound(s) <= expected_dim(s, warn_if_not_simple=False)


def naive_enumerate(d: int) -> set[bytes]:
    """Independent oracle: exhaustive filter over a bounded raw grid.

    Covers every setting the pruned search may return for d <= 5: single
    vertices with loops and marks, and multi-vertex settings found by
    distributing the exact arrow budget over all slots without any of the
    search-order pruning used by the real enumerator.
    """
    from qsing.classification import _raw_expected_dim

    found: set[bytes] = set()

    def consider(s: MarkedQuiverSetting):
        if _raw_expected_dim(s) != d:
            return
        if not strongly_connected(s):
            return
        if applicable_moves(s):
            return
        if not is_simple_dimvector(s, s.dims):
            return
        if match_smooth_list(s) is not None:
            return
        found.add(canonical_key(s))

    # single vertex
    for a in range(1, d + 1):
        for loops in range(0, d + 2):
            for marks in range(0, d + 2):
                if marks and a < 2:
                    continue
                consider(MarkedQuiverSetting.make([a], [[loops]], [marks]))

    # multi-vertex: distribute the exact weighted budget over all slots
    for k in range(2, d):
        for dims in itertools.product(range(1, d), repeat=k):
            if sum(dims) > d - 1:
                continue
            budget = d - 1 + sum(x * x for x in dims)
            slots = [(i, j) for i in range(k) for j in range(k)]
            mark_slots = [v for v in range(k) if dims[v] >= 2]
            weights = [dims[i] * dims[j] for i, j in slots] + [
                dims[v] * dims[v] - 1 for v in mark_slots
            ]

            def fill(idx: int, remaining: int, values: list[int]):
                if idx == len(weights):
                    if remaining:
                        return
                    arrows = [[0] * k for _ in range(k)]
                    for (i, j), val in zip(slots, values[: len(slots)]):
                        arrows[i][j] = val
                    marks = [0] * k
                    for v, val in zip(mark_slots, values[len(slots):]):
                        marks[v] = val
                    consider(MarkedQuiverSetting.make(list(dims), arrows, marks))
                    return
                w = weights[idx]
                for val in range(remaining // w, -1, -1):
                    fill(idx + 1, remaining - val * w, values + [val])

            fill(0, budget, [])

    return found


class TestEnumeration:
    def test_dim3_is_conifold(self, conifold):
        found = enumerate_reduced_singular(3)
        assert len(found) == 1
        assert canonical_key(found[0]) == canonical_key(conifold)

    def test_dim4_matches_worked_settings(
        self, dim4_two_vertex, dim4_cycle_pair, dim4_double_triangle
    ):
        found = enumerate_reduced_singular(4)
        keys = {canonical_key(s) for s in found}
        assert keys == {
            canonical_key(dim4_two_vertex),
            canonical_key(dim4_cycle_pair),
            canonical_key(dim4_double_triangle),
        }

    @pytest.mark.parametrize("d", [3, 4])
    def test_against_naive_oracle(self, d):
        pruned = {canonical_key(s) for s in enumerate_reduced_singular(d)}
        assert pruned == naive_enumerate(d)

    def test_dim5_against_naive_oracle(self):
        pruned = {canonical_key(s) for s in enumerate_reduced_singular(5)}
        assert pruned == naive_enumerate(5)

    def test_outputs_are_reduced_unique_simple(self):
        for d in (3, 4, 5):
            found = enumerate_reduced_singular(d)
            keys = [canonical_key(s) for s in found]
            assert len(set(keys)) == len(keys)
            for s in found:
                assert applicable_moves(s) == []
                assert is_simple_dimvector(s, s.dims)
                assert match_smooth_list(s) is None

    def test_move_free_settings_off_the_list_are_simple(self):
        # the enumeration has no simplicity filter: every strongly connected
        # setting with no applicable move that misses the smooth list admits
        # a simple representation of its full dimension vector
        rng = random.Random(29)
        checked = 0
        while checked < 2000:
            s = random_setting(rng, max_k=4)
            if not strongly_connected(s) or applicable_moves(s) or match_smooth_list(s):
                continue
            assert is_simple_dimvector(s, s.dims), s.dumps()
            checked += 1

    def test_budget_exhaustion_carries_partial(self):
        with pytest.raises(BudgetExhaustedError) as info:
            enumerate_reduced_singular(6, deadline=0.0)
        assert isinstance(info.value.partial, list)

    def test_budget_checked_inside_a_dims_block(self, monkeypatch):
        # the clock starts ticking one second per reading once the (1, 1, 1)
        # block begins; with the deadline at 1.5 s the second candidate of
        # that block is past it, long before the next block starts
        ticking = False
        now = 0.0

        def monotonic():
            nonlocal now
            if ticking:
                now += 1.0
            return now

        def progress(dims, _found):
            nonlocal ticking
            ticking = ticking or dims == (1, 1, 1)

        monkeypatch.setattr(classification, "time", SimpleNamespace(monotonic=monotonic))
        with pytest.raises(BudgetExhaustedError) as info:
            enumerate_reduced_singular(5, deadline=1.5, progress=progress)
        assert "dims=(1, 1, 1)" in str(info.value)
        partial = info.value.partial
        full = {canonical_key(s) for s in enumerate_reduced_singular(5)}
        keys = [canonical_key(s) for s in partial]
        assert keys == sorted(keys)
        assert set(keys) <= full
        # the two settings of the earlier blocks, at most one from this one
        assert len(partial) in (2, 3)

    def test_without_deadline_reads_no_clock(self, monkeypatch):
        def no_clock():
            raise AssertionError("the clock is read without a deadline")

        monkeypatch.setattr(classification, "time", SimpleNamespace(monotonic=no_clock))
        assert len(enumerate_reduced_singular(5)) == 11

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            enumerate_reduced_singular(1)

    def test_dim2_has_no_singular_settings(self):
        assert enumerate_reduced_singular(2) == []


def brute_force_offdiag(dims, loops, budget) -> set:
    """Every exact-budget arrow matrix with no removable vertex.

    Distributes the budget over all off-diagonal slots (slot (i, j) costs
    dims[i] * dims[j] per arrow) without pruning, then keeps the matrices in
    which every loop-free vertex of a multi-vertex setting has weighted in-
    and out-degree above its dimension.  The diagonal holds the unmarked
    loops ``loops[v][0]``.
    """
    k = len(dims)
    slots = [(i, j) for i in range(k) for j in range(k) if i != j]
    out = set()

    def fill(idx: int, remaining: int, values: list[int]):
        if idx == len(slots):
            if remaining:
                return
            m = [[loops[v][0] if v == w else 0 for w in range(k)] for v in range(k)]
            for (i, j), val in zip(slots, values):
                m[i][j] = val
            for v in range(k):
                if k < 2 or sum(loops[v]):
                    continue
                w_in = sum(dims[r] * m[r][v] for r in range(k))
                w_out = sum(m[v][c] * dims[c] for c in range(k))
                if w_in <= dims[v] or w_out <= dims[v]:
                    return
            out.add(tuple(tuple(r) for r in m))
            return
        i, j = slots[idx]
        w = dims[i] * dims[j]
        for val in range(remaining // w + 1):
            fill(idx + 1, remaining - val * w, values + [val])

    fill(0, budget, [])
    return out


def slot_sequence(m) -> tuple:
    k = len(m)
    return tuple(m[i][j] for i in range(k) for j in range(k) if i != j)


def survives_tie_break(dims, loops, m) -> bool:
    """No swap of adjacent vertices with equal dim and (loops, marks) makes m larger.

    Each such swap is applied as a vertex permutation and the off-diagonal
    slot sequences, row by row, are compared lexicographically.
    """
    k = len(dims)
    for v in range(k - 1):
        if (dims[v], loops[v]) != (dims[v + 1], loops[v + 1]):
            continue
        perm = list(range(k))
        perm[v], perm[v + 1] = v + 1, v
        swapped = [[m[perm[i]][perm[j]] for j in range(k)] for i in range(k)]
        if slot_sequence(swapped) > slot_sequence(m):
            return False
    return True


def unbroken_loop_configs(dims, budget, d):
    """Every per-vertex (loops, marks) choice, with no symmetry break.

    The same options, costs and counting-bound cut as
    ``classification._loop_configs``, over the full product of the vertices.
    """
    k = len(dims)
    per_vertex = []
    for v in range(k):
        options = [(0, 0, 0)]
        if dims[v] >= 2:
            w_loop, w_mark = dims[v] ** 2, dims[v] ** 2 - 1
            for loops in range(budget // w_loop + 1):
                rem = budget - loops * w_loop
                for marks in range(0 if loops else 1, rem // w_mark + 1):
                    options.append((loops, marks, loops * w_loop + marks * w_mark))
        per_vertex.append(options)
    for combo in itertools.product(*per_vertex):
        cost = sum(c for _, _, c in combo)
        if cost > budget:
            continue
        if k >= 2 and d < 1 + sum(
            classification._vertex_contribution(dims[v], l, m) for v, (l, m, _) in enumerate(combo)
        ):
            continue
        yield tuple((l, m) for l, m, _ in combo), cost


def sorted_within_runs(dims, loops) -> tuple:
    out = []
    for _, run in itertools.groupby(range(len(dims)), key=lambda v: dims[v]):
        out.extend(sorted(loops[v] for v in run))
    return tuple(out)


class TestPrunedGenerator:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_offdiag_matrices_match_brute_force(self, d):
        blocks = 0
        for dims in classification._dims_multisets(d):
            budget = d - 1 + sum(a * a for a in dims)
            for loops, loop_cost in classification._loop_configs(dims, budget, d):
                pruned = list(classification._offdiag_matrices(dims, loops, budget - loop_cost))
                assert len(set(pruned)) == len(pruned)
                expected = {
                    m
                    for m in brute_force_offdiag(dims, loops, budget - loop_cost)
                    if survives_tie_break(dims, loops, m)
                }
                assert set(pruned) == expected, (dims, loops)
                blocks += 1
        assert blocks > 0

    @pytest.mark.parametrize(
        "dims, loops, budget",
        [
            # tied pairs next to untied vertices of the same dimension
            ((2, 2, 2), ((0, 1), (0, 1), (1, 0)), 16),
            ((2, 2, 1, 1), ((1, 0), (0, 1), (0, 0), (0, 0)), 14),
            ((1, 1, 1, 1), ((0, 0),) * 4, 8),
        ],
    )
    def test_tie_break_on_chosen_blocks(self, dims, loops, budget):
        pruned = list(classification._offdiag_matrices(dims, loops, budget))
        assert len(set(pruned)) == len(pruned)
        full = brute_force_offdiag(dims, loops, budget)
        assert set(pruned) == {m for m in full if survives_tie_break(dims, loops, m)}
        assert 0 < len(pruned) < len(full)

    def test_more_slots_than_the_recursion_limit(self):
        # 34 loop-free vertices of dimension 1 have 1,122 slots; every row and
        # every column needs two arrows, and 68 is just enough for that
        k = 34
        m = next(classification._offdiag_matrices((1,) * k, ((0, 0),) * k, 2 * k))
        assert all(m[v][v] == 0 for v in range(k))
        assert all(sum(m[v]) >= 2 for v in range(k))
        assert all(sum(row[v] for row in m) >= 2 for v in range(k))

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_loop_break_drops_only_relabellings(self, d):
        for dims in classification._dims_multisets(d):
            budget = d - 1 + sum(a * a for a in dims)
            kept = list(classification._loop_configs(dims, budget, d))
            full = list(unbroken_loop_configs(dims, budget, d))
            kept_set = set(kept)
            # the kept configurations in their unbroken order
            assert kept == [c for c in full if c in kept_set], dims
            for loops, cost in full:
                assert (sorted_within_runs(dims, loops), cost) in kept_set, (dims, loops)
            for loops, _ in kept:
                assert sorted_within_runs(dims, loops) == loops

    @given(st.integers(0, 10**6))
    @hyp_settings(max_examples=200, deadline=None)
    def test_vertex_removal_matches_euler_form(self, seed):
        s = random_setting(random.Random(seed))
        proposed = {m.vertex for m in applicable_moves(s) if m.kind is MoveKind.VERTEX_REMOVAL}
        expected = {
            v
            for v in range(s.k)
            if s.k >= 2
            and s.loops_at(v) == 0
            and (
                euler_form(s, s.dims, unit_vector(s.k, v)) >= 0
                or euler_form(s, unit_vector(s.k, v), s.dims) >= 0
            )
        }
        assert proposed == expected


def unbroken_enumerate(d: int) -> list[MarkedQuiverSetting]:
    """The enumeration loop with no symmetry break, in the generation order.

    Every within-run relabelling of a setting is a candidate, and each class
    keeps its first candidate.  ``classification._fully_tied`` must be
    patched to find no ties, so that ``_offdiag_matrices`` yields every
    matrix.
    """
    found: dict[bytes, MarkedQuiverSetting] = {}
    for dims in classification._dims_multisets(d):
        budget = d - 1 + sum(a * a for a in dims)
        for loops, loop_cost in unbroken_loop_configs(dims, budget, d):
            marks = tuple(m for _, m in loops)
            for arrows in classification._offdiag_matrices(dims, loops, budget - loop_cost):
                s = MarkedQuiverSetting(dims, arrows, marks)
                if not strongly_connected(s) or applicable_moves(s):
                    continue
                if not is_simple_dimvector(s, s.dims) or match_smooth_list(s) is not None:
                    continue
                found.setdefault(canonical_key(s), s)
    return sorted(found.values(), key=canonical_key)


# sha256 of the newline-joined dumps() of enumerate_reduced_singular(7),
# recorded from the enumeration before the symmetry break
DIM7_DIGEST = "9346330641dc78c5a1f2f7cb9b9c118b81d8b84c6f3ba57577a96d8aa5a034fa"


class TestSymmetryBreak:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_same_representatives_as_unbroken(self, d, monkeypatch):
        broken = [s.dumps() for s in enumerate_reduced_singular(d)]
        with monkeypatch.context() as m:
            m.setattr(classification, "_fully_tied", lambda dims, loops: [])
            unbroken = [s.dumps() for s in unbroken_enumerate(d)]
        assert broken == unbroken

    def test_dim6_canonical_key_calls(self, monkeypatch):
        calls = 0

        def counting(s):
            nonlocal calls
            calls += 1
            return canonical_key(s)

        monkeypatch.setattr(classification, "canonical_key", counting)
        assert len(enumerate_reduced_singular(6)) == 67
        # 1,697 before the break: one per relabelling, one more per setting to sort
        assert calls <= 200

    def test_dim7_census_unchanged(self):
        found = enumerate_reduced_singular(7)
        assert len(found) == 579
        text = "\n".join(s.dumps() for s in found)
        assert hashlib.sha256(text.encode()).hexdigest() == DIM7_DIGEST


class TestTypeClasses:
    def test_dim5_merge(self):
        found = enumerate_reduced_singular(5)
        classes = singular_type_classes(found)
        assert len(found) == 11
        assert len(classes) == 10
        merged = [c for c in classes if len(c.members) > 1]
        assert len(merged) == 1
        dims = sorted(m.k for m in merged[0].members)
        assert dims == [3, 4]
        assert all(c.equivalence_decided for c in classes)

    def test_dim4_no_merges(self):
        found = enumerate_reduced_singular(4)
        classes = singular_type_classes(found)
        assert len(classes) == 3
        assert all(len(c.members) == 1 for c in classes)

    def test_dim5_merge_witness_preserves_additive_relations(self):
        # the isomorphism must carry every coincidence h_i + h_j = h_k + h_l
        # to the corresponding coincidence on the other side
        from qsing.toric import invariant_generators, semigroup_isomorphism

        classes = singular_type_classes(enumerate_reduced_singular(5))
        merged = next(c for c in classes if len(c.members) > 1)
        hb1 = invariant_generators(merged.members[0])
        hb2 = invariant_generators(merged.members[1])
        mapping = semigroup_isomorphism(hb1, hb2)
        assert mapping is not None
        n = len(hb1)
        pair_sum = lambda hb, i, j: tuple(a + b for a, b in zip(hb[i], hb[j]))
        fibers: dict[tuple, list[tuple[int, int]]] = {}
        for i in range(n):
            for j in range(i, n):
                fibers.setdefault(pair_sum(hb1, i, j), []).append((i, j))
        for pairs in fibers.values():
            images = {
                pair_sum(hb2, mapping[i], mapping[j]) for i, j in pairs
            }
            assert len(images) == 1

    def test_classes_follow_the_input_order(self):
        found = enumerate_reduced_singular(6)
        shuffled = found[:]
        random.Random(31).shuffle(shuffled)
        classes = singular_type_classes(shuffled)
        position = {id(s): i for i, s in enumerate(shuffled)}
        firsts = [position[id(c.representative)] for c in classes]
        assert firsts == sorted(firsts)
        for c in classes:
            places = [position[id(m)] for m in c.members]
            assert c.representative is c.members[0] and places == sorted(places)
        partition = lambda cs: {frozenset(canonical_key(m) for m in c.members) for c in cs}
        assert partition(classes) == partition(singular_type_classes(found))
        assert len(classes) == 49

    def test_budget_partial_keeps_the_input_order(self, monkeypatch):
        # the fake clock of the test below: the checks before the first two
        # all-ones settings read 1 s and 2 s, under the deadline at 2.5 s,
        # and the check before the third reads 3 s; settings that are not
        # all-ones read no clock and stay undecided where they stand
        now = 0.0

        def monotonic():
            nonlocal now
            now += 1.0
            return now

        settings = enumerate_reduced_singular(6)[::-1]
        ones = [s for s in settings if s.dims == (1,) * s.k]
        assert ones[:3] != settings[:3]
        monkeypatch.setattr(classification, "time", SimpleNamespace(monotonic=monotonic))
        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=lambda: now))
        with pytest.raises(BudgetExhaustedError) as info:
            singular_type_classes(settings, deadline=2.5)
        assert f"after 2 of {len(ones)}" in str(info.value)
        classes = info.value.partial
        assert [m for c in classes for m in c.members] == settings
        decided = [m for c in classes if c.equivalence_decided for m in c.members]
        assert decided == ones[:2]
        assert all(len(c.members) == 1 for c in classes if not c.equivalence_decided)

    def test_budget_leaves_unplaced_settings_undecided(self, monkeypatch):
        # one second per reading of the grouping's clock: the deadline falls
        # at 2.5 s, the first two settings are placed at 1 s and 2 s, and the
        # check before the third reads 3 s; the Hilbert bases and searches
        # read the same clock without moving it
        now = 0.0

        def monotonic():
            nonlocal now
            now += 1.0
            return now

        found = enumerate_reduced_singular(5)
        assert all(s.dims == (1,) * s.k for s in found)
        monkeypatch.setattr(classification, "time", SimpleNamespace(monotonic=monotonic))
        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=lambda: now))
        with pytest.raises(BudgetExhaustedError) as info:
            singular_type_classes(found, deadline=2.5)
        assert "after 2 of 11" in str(info.value)
        classes = info.value.partial
        keys = [canonical_key(c.representative) for c in classes]
        assert keys == sorted(keys)
        decided = [m for c in classes if c.equivalence_decided for m in c.members]
        undecided = [c for c in classes if not c.equivalence_decided]
        assert decided == found[:2]
        assert sorted(canonical_key(c.members[0]) for c in undecided) == sorted(
            canonical_key(s) for s in found[2:]
        )
        assert all(len(c.members) == 1 for c in undecided)

    @pytest.mark.parametrize("budget", [-1.0, float("nan"), float("-inf")])
    def test_budget_must_not_be_negative_or_nan(self, budget):
        # NaN fails every comparison, so a test for < 0 alone would pass it
        # on and monotonic() + nan would never be past
        with pytest.raises(ValueError, match="budget must be >= 0 seconds"):
            classification.census_report(4, budget_secs=budget)

    def test_census_budget_bounds_the_grouping(self, monkeypatch):
        # the clock stands still through the enumeration and starts ticking
        # one second per reading of the grouping's own checks at the first
        # Hilbert basis of the grouping; toric code reads it without moving it
        ticking = False
        now = 0.0

        def monotonic():
            nonlocal now
            if ticking:
                now += 1.0
            return now

        original = toric.invariant_generators

        def start_ticking(s, **kwargs):
            nonlocal ticking
            ticking = True
            return original(s, **kwargs)

        monkeypatch.setattr(classification, "time", SimpleNamespace(monotonic=monotonic))
        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=lambda: now))
        monkeypatch.setattr(toric, "invariant_generators", start_ticking)
        report, passed = classification.census_report(5, budget_secs=3.5)
        assert not passed
        assert report["budget_exhausted"].startswith("grouping budget exhausted")
        assert report["setting_count"] == 11
        classes = report["type_classes"]
        assert report["type_count"] == len(classes)
        assert sum(len(c["members"]) for c in classes) == 11
        assert any(c["equivalence_decided"] for c in classes)
        assert any(not c["equivalence_decided"] for c in classes)

    def test_budget_bounds_the_hilbert_bases(self, monkeypatch):
        # the grouping's clock stands still and the toric clock ticks one
        # second per reading, so only the once-per-step check inside the
        # first setting's cycle walk can exhaust the budget: its first two
        # steps read 1 s and 2 s, past the deadline at 1.5 s
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return float(readings)

        def no_search(*args, **kwargs):
            raise AssertionError("the first setting needs no search")

        found = enumerate_reduced_singular(5)
        monkeypatch.setattr(classification, "time", SimpleNamespace(monotonic=lambda: 0.0))
        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        monkeypatch.setattr(toric, "incidence_isomorphism", no_search)
        with pytest.raises(BudgetExhaustedError) as info:
            singular_type_classes(found, deadline=1.5)
        assert "after 0 of 11" in str(info.value)
        assert readings == 2
        assert not any(c.equivalence_decided for c in info.value.partial)

    def test_grouping_without_budget_reads_no_clock(self, monkeypatch):
        def no_clock():
            raise AssertionError("the clock is read without a budget")

        found = enumerate_reduced_singular(5)
        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=no_clock))
        monkeypatch.setattr(classification, "time", SimpleNamespace(monotonic=no_clock))
        assert len(singular_type_classes(found)) == 10
