"""Euler form, validation, canonical keys, JSON."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from qsing.core import (
    MarkedQuiverSetting,
    canonical_key,
    euler_form,
    euler_matrix,
    strongly_connected,
    unit_vector,
    validate,
)
from qsing.errors import CapacityError, DimensionMismatchError

from conftest import permuted, random_setting


def brute_force_euler(s: MarkedQuiverSetting, beta, gamma) -> int:
    """Independent oracle: assemble the matrix entrywise and contract."""
    total = 0
    for i in range(s.k):
        for j in range(s.k):
            entry = (1 if i == j else 0) - s.arrows[i][j]
            if i == j:
                entry -= s.marked_loops[i]
            total += beta[i] * entry * gamma[j]
    return total


class TestEulerForm:
    def test_conifold_value(self, conifold):
        # oracle first: direct matrix arithmetic
        assert brute_force_euler(conifold, (1, 1), (1, 1)) == -2
        assert euler_form(conifold, (1, 1), (1, 1)) == -2
        # cross-check: the central dimension 1 - chi is 3
        assert 1 - euler_form(conifold, (1, 1), (1, 1)) == 3

    def test_two_loops_dim_two(self):
        s = MarkedQuiverSetting.make([2], [[2]])
        assert euler_form(s, (2,), (2,)) == -4

    def test_zero_vector(self, conifold):
        assert euler_form(conifold, (0, 0), (1, 1)) == 0
        assert euler_form(conifold, (1, 1), (0, 0)) == 0

    def test_marked_loops_count_as_loops(self, quantum_plane_origin):
        # markings are forgotten by the form: one vertex, two marked loops
        assert euler_matrix(quantum_plane_origin) == ((-1,),)
        assert euler_form(quantum_plane_origin, (2,), (2,)) == -4

    def test_length_mismatch(self, conifold):
        with pytest.raises(DimensionMismatchError):
            euler_form(conifold, (1,), (1, 1))

    def test_non_integer_entries_raise(self, conifold):
        # 0.5 would otherwise be truncated to 0 and give a form value of 0
        with pytest.raises(ValueError):
            euler_form(conifold, [0.5, 0], [1, 1])
        with pytest.raises(ValueError):
            euler_form(conifold, [1, 1], [1, True])

    @given(st.data())
    @hyp_settings(max_examples=60, deadline=None)
    def test_bilinearity(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        s = random_setting(rng, max_k=4)
        vec = st.tuples(*(st.integers(-3, 3) for _ in range(s.k)))
        b1, b2, g = data.draw(vec), data.draw(vec), data.draw(vec)
        lhs = euler_form(s, tuple(x + y for x, y in zip(b1, b2)), g)
        assert lhs == euler_form(s, b1, g) + euler_form(s, b2, g)
        rhs = euler_form(s, g, tuple(x + y for x, y in zip(b1, b2)))
        assert rhs == euler_form(s, g, b1) + euler_form(s, g, b2)

    def test_unit_vector_entries(self):
        rng = random.Random(7)
        for _ in range(25):
            s = random_setting(rng, max_k=4)
            m = euler_matrix(s)
            for i in range(s.k):
                for j in range(s.k):
                    ev_i, ev_j = unit_vector(s.k, i), unit_vector(s.k, j)
                    expected = (1 if i == j else 0) - s.arrows[i][j]
                    if i == j:
                        expected -= s.marked_loops[i]
                    assert euler_form(s, ev_i, ev_j) == expected == m[i][j]

    def test_cycle_rank_identity_all_ones(self):
        # arrows - k + 1 = 1 - chi(alpha, alpha) on strongly connected settings
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            k = rng.randint(1, 4)
            arrows = [[rng.randint(0, 2) for _ in range(k)] for _ in range(k)]
            s = MarkedQuiverSetting.make([1] * k, arrows)
            if not strongly_connected(s):
                continue
            alpha = (1,) * k
            assert 1 - euler_form(s, alpha, alpha) == sum(map(sum, s.arrows)) - s.k + 1
            checked += 1


class TestStronglyConnected:
    def test_support_entries_are_checked(self):
        # arrows 0 -> 1 -> 0; vertex 2 is isolated
        s = MarkedQuiverSetting.make([1, 1, 1], [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert strongly_connected(s, [0, 1]) and not strongly_connected(s)
        for support in [-3, 1], [0, 5], [0, 3]:
            with pytest.raises(ValueError, match="not in range"):
                strongly_connected(s, support)
        for support in [1.0, 0], [True, 0]:
            with pytest.raises(ValueError, match="expected an integer"):
                strongly_connected(s, support)
        assert not strongly_connected(s, [])


class TestValidation:
    def test_conifold_ok(self, conifold):
        assert validate(conifold) == []

    def test_marked_loop_at_dim_one(self):
        s = MarkedQuiverSetting.make([1], [[0]], [1])
        assert any("marked loop requires dim >= 2" in p for p in validate(s))

    def test_zero_dimension(self):
        s = MarkedQuiverSetting.make([0, 1], [[0, 1], [1, 0]])
        assert any("dimension must be >= 1" in p for p in validate(s))

    def test_empty_setting(self):
        s = MarkedQuiverSetting.make([], [])
        assert "setting must have at least one vertex" in validate(s)

    def test_disconnected_is_a_note(self):
        s = MarkedQuiverSetting.make([1, 1], [[0, 1], [0, 0]])
        problems = validate(s)
        assert problems == ["note: support is not strongly connected"]

    def test_negative_multiplicity_rejected(self):
        cases = [
            ([1], [[-1]], None),  # a loop
            ([2, 1], [[1, 1], [1, -3]], None),  # a loop after positive entries
            ([1, 1], [[0, 1], [-1, 0]], None),  # an arrow off the diagonal
            ([1, 1, 1], [[0, 2, 0], [0, 0, -1], [1, 0, 0]], None),
            ([2], [[0]], [-1]),  # a mark
            ([2, 2], [[1, 1], [1, 1]], [1, -2]),
        ]
        for dims, arrows, marks in cases:
            with pytest.raises(ValueError, match="multiplicities must be non-negative"):
                MarkedQuiverSetting.make(dims, arrows, marks)
        # the empty setting has no entry to reject
        assert MarkedQuiverSetting((), (), ()).k == 0
        # the shape checks come first
        with pytest.raises(ValueError, match="k x k"):
            MarkedQuiverSetting((1, 1), ((0, -1), (1,)), (0, 0))
        with pytest.raises(ValueError, match="one entry per vertex"):
            MarkedQuiverSetting((1,), ((-1,),), ())


    @pytest.mark.parametrize(
        "dims, arrows, marks",
        [
            ([2.9], [[1]], None),  # int() would truncate it to dims=(2,)
            ([True, 1], [[0, 1], [1, 0]], None),  # bool is an int subclass
            ([1, 1], [[0, 1.0], [1, 0]], None),
            ([2], [[1]], [False]),
            ([Fraction(2)], [[1]], None),
            (["1"], [[1]], None),
        ],
    )
    def test_make_rejects_non_int_entries(self, dims, arrows, marks):
        with pytest.raises(ValueError, match="expected an integer"):
            MarkedQuiverSetting.make(dims, arrows, marks)


class TestCanonicalKey:
    def test_conifold_swap(self, conifold):
        assert canonical_key(conifold) == canonical_key(permuted(conifold, [1, 0]))

    def test_mirror_two_vs_three(self):
        # oracle: brute force over the 2 permutations
        s = MarkedQuiverSetting.make([1, 1], [[0, 2], [3, 0]])
        mirror = MarkedQuiverSetting.make([1, 1], [[0, 3], [2, 0]])
        assert mirror in (permuted(s, [0, 1]), permuted(s, [1, 0]))
        assert canonical_key(s) == canonical_key(mirror)

    def test_different_dims_differ(self):
        a = MarkedQuiverSetting.make([1, 2], [[0, 1], [1, 0]])
        b = MarkedQuiverSetting.make([1, 1], [[0, 1], [1, 0]])
        assert canonical_key(a) != canonical_key(b)

    def test_permutation_invariance_exhaustive_k6(self):
        rng = random.Random(3)
        for k in range(1, 7):
            for _ in range(3):
                s = random_setting(rng, max_k=k)
                while s.k != k:
                    s = random_setting(rng, max_k=k)
                key = canonical_key(s)
                for perm in itertools.permutations(range(k)):
                    assert canonical_key(permuted(s, perm)) == key

    def test_non_isomorphic_same_signature(self):
        # directed triangle vs its opposite with asymmetric multiplicities
        a = MarkedQuiverSetting.make([1, 1, 1], [[0, 2, 0], [0, 0, 1], [1, 0, 0]])
        b = MarkedQuiverSetting.make([1, 1, 1], [[0, 1, 0], [0, 0, 2], [1, 0, 0]])
        iso = any(
            permuted(a, p) == b for p in itertools.permutations(range(3))
        )
        assert (canonical_key(a) == canonical_key(b)) == iso

    def test_capacity_bound(self):
        s = MarkedQuiverSetting.make([1] * 11, [[0] * 11] * 11)
        with pytest.raises(CapacityError):
            canonical_key(s)

    def test_vertex_transitive_large(self):
        # doubled directed 8-cycle: highly symmetric, still fast
        k = 8
        arrows = [[0] * k for _ in range(k)]
        for v in range(k):
            arrows[v][(v + 1) % k] = 2
        s = MarkedQuiverSetting.make([1] * k, arrows)
        key = canonical_key(s)
        rng = random.Random(5)
        for _ in range(5):
            perm = list(range(k))
            rng.shuffle(perm)
            assert canonical_key(permuted(s, perm)) == key


class TestJson:
    def test_round_trip(self, conifold):
        assert MarkedQuiverSetting.from_json(json.loads(conifold.dumps())) == conifold

    @given(st.integers(0, 10**6))
    @hyp_settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, seed):
        s = random_setting(random.Random(seed))
        assert MarkedQuiverSetting.from_json(s.to_json()) == s

    def test_malformed(self):
        with pytest.raises(ValueError):
            MarkedQuiverSetting.from_json({"dims": [1]})

    @pytest.mark.parametrize(
        "data",
        [
            {"dims": [2.9], "arrows": [[1]]},
            {"dims": [1.5, 1], "arrows": [[0, 1], [1, 0]]},
            {"dims": [True, 1], "arrows": [[0, 1], [1, 0]]},
            {"dims": [1, 1], "arrows": [[0, 1.0], [1, 0]]},
            {"dims": [2], "arrows": [[1]], "marked_loops": [False]},
            {"dims": ["1"], "arrows": [[1]]},
        ],
    )
    def test_non_integer_entries(self, data):
        with pytest.raises(ValueError, match="malformed setting JSON"):
            MarkedQuiverSetting.from_json(data)
