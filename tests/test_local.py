"""Simples, decomposition types, and local settings."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from qsing.classification import expected_dim
from qsing.core import (
    MarkedQuiverSetting,
    canonical_key,
    euler_form,
    strongly_connected,
    unit_vector,
)
from qsing.errors import CapacityError, UnsupportedSettingError
from qsing.local_structure import (
    DecompositionType,
    classify_point,
    enumerate_decomposition_types,
    enumerate_simples_below,
    is_simple_dimvector,
    local_setting,
)

from conftest import random_setting


class TestSimples:
    def test_conifold_full(self, conifold):
        assert is_simple_dimvector(conifold, (1, 1))

    def test_vertex_simple(self, conifold):
        assert is_simple_dimvector(conifold, (1, 0))
        assert is_simple_dimvector(conifold, (0, 1))

    def test_one_loop_no_higher_simples(self):
        s = MarkedQuiverSetting.make([2], [[1]])
        assert not is_simple_dimvector(s, (2,))
        assert is_simple_dimvector(s, (1,))

    def test_marked_loop_counts_as_loop(self):
        s = MarkedQuiverSetting.make([2], [[0]], [1])
        assert not is_simple_dimvector(s, (2,))

    def test_two_loops_all_dims(self):
        s = MarkedQuiverSetting.make([3], [[2]])
        for d in (1, 2, 3):
            assert is_simple_dimvector(s, (d,))

    def test_plain_vertex_only_dim_one(self):
        s = MarkedQuiverSetting.make([3], [[0]])
        assert is_simple_dimvector(s, (1,))
        assert not is_simple_dimvector(s, (2,))

    def test_oriented_cycle_needs_all_ones(self):
        cycle = MarkedQuiverSetting.make(
            [2, 2, 2], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        )
        assert is_simple_dimvector(cycle, (1, 1, 1))
        assert not is_simple_dimvector(cycle, (2, 2, 2))
        assert not is_simple_dimvector(cycle, (1, 1, 0))

    def test_disconnected_support_fails(self, conifold):
        s = MarkedQuiverSetting.make([1, 1], [[0, 2], [0, 0]])
        assert not is_simple_dimvector(s, (1, 1))

    def test_zero_vector(self, conifold):
        assert not is_simple_dimvector(conifold, (0, 0))

    def test_non_integer_entries_raise(self, conifold):
        # 1.5 would otherwise be read as the simple vertex vector (1, 0)
        with pytest.raises(ValueError):
            is_simple_dimvector(conifold, [1.5, 0])


class TestDecompositionTypes:
    def test_conifold_two_types(self, conifold):
        taus = enumerate_decomposition_types(conifold)
        parts = {t.parts for t in taus}
        assert parts == {
            ((1, (0, 1)), (1, (1, 0))),
            ((1, (1, 1)),),
        }

    def test_two_loops_dim_two(self):
        s = MarkedQuiverSetting.make([2], [[2]])
        taus = enumerate_decomposition_types(s)
        assert {t.parts for t in taus} == {((1, (2,)),), ((2, (1,)),)}

    def test_plain_vertex(self):
        s = MarkedQuiverSetting.make([1], [[0]])
        taus = enumerate_decomposition_types(s)
        assert [t.parts for t in taus] == [((1, (1,)),)]

    def test_totals_match(self):
        rng = random.Random(5)
        for _ in range(20):
            s = random_setting(rng, max_k=3, max_dim=2)
            if s.total_dim > 6:
                continue
            for tau in enumerate_decomposition_types(s):
                assert tau.total(s.k) == s.dims

    def test_capacity_guard(self):
        s = MarkedQuiverSetting.make([9], [[2]])
        with pytest.raises(CapacityError):
            enumerate_decomposition_types(s)

    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            DecompositionType.make([(1, (1, 0)), (2, (1, 0))])

    @pytest.mark.parametrize("parts", [[(1, (1.5, 0))], [(1.0, (1, 0))], [(1, (True, 0))]])
    def test_non_int_entries_rejected(self, parts):
        # int() would truncate 1.5 to 1
        with pytest.raises(ValueError, match="expected an integer"):
            DecompositionType.make(parts)


class TestLocalSetting:
    def test_conifold_self_similarity(self, conifold):
        tau = DecompositionType.make([(1, (1, 0)), (1, (0, 1))])
        local = local_setting(conifold, tau)
        assert canonical_key(local) == canonical_key(conifold)

    def test_conifold_generic_point(self, conifold):
        tau = DecompositionType.make([(1, (1, 1))])
        local = local_setting(conifold, tau)
        assert local == MarkedQuiverSetting.make([1], [[3]])

    def test_loop_free_vertex_point(self):
        one = MarkedQuiverSetting.make([1], [[0]])
        local = local_setting(one, DecompositionType.make([(1, (1,))]))
        assert local == MarkedQuiverSetting.make([1], [[0]])

    def test_marked_ambient_rejected(self, quantum_plane_origin):
        tau = DecompositionType.make([(2, (1,))])
        with pytest.raises(UnsupportedSettingError):
            local_setting(quantum_plane_origin, tau)

    def test_wrong_total_rejected(self, conifold):
        tau = DecompositionType.make([(1, (1, 0))])
        with pytest.raises(ValueError):
            local_setting(conifold, tau)

    def test_non_simple_summand_rejected(self):
        # (2, 0) at a loop-free dim-2 vertex is not simple; its self-Ext
        # count 1 - chi((2,0),(2,0)) = -3 would go negative
        s = MarkedQuiverSetting.make([2, 1], [[0, 1], [0, 0]])
        tau = DecompositionType.make([(1, (2, 0)), (1, (0, 1))])
        with pytest.raises(ValueError, match="not a simple dimension vector"):
            local_setting(s, tau)

    @pytest.mark.parametrize(
        "parts, message",
        [
            # a summand longer than the setting; the zero vector, which with
            # (1, 1) sums to dims; negative entries that sum to dims
            ([(1, (1, 0, 5))], "has length 3"),
            ([(1, (0, 0)), (1, (1, 1))], "not a simple dimension vector"),
            ([(1, (2, -1)), (1, (-1, 2))], "non-negative"),
        ],
    )
    def test_invalid_summands_rejected(self, conifold, parts, message):
        with pytest.raises(ValueError, match=message):
            local_setting(conifold, DecompositionType.make(parts))

    def test_finest_decomposition_reconstructs_setting(self):
        # the finest type (vertex simples with multiplicities dims[v]) gives
        # back the setting itself for mark-free ambients
        rng = random.Random(17)
        for _ in range(20):
            s = random_setting(rng, max_k=3, max_dim=2, allow_marks=False)
            parts = [(s.dims[v], unit_vector(s.k, v)) for v in range(s.k)]
            local = local_setting(s, DecompositionType.make(parts))
            assert canonical_key(local) == canonical_key(s)

    def test_expected_dim_preserved_at_generic_point(self):
        rng = random.Random(29)
        checked = 0
        while checked < 15:
            s = random_setting(rng, max_k=3, max_dim=2, allow_marks=False)
            if not is_simple_dimvector(s, s.dims):
                continue
            tau = DecompositionType.make([(1, s.dims)])
            local = local_setting(s, tau)
            assert expected_dim(local, warn_if_not_simple=False) == expected_dim(
                s, warn_if_not_simple=False
            )
            checked += 1


class TestClassifyPoint:
    def test_conifold_singular_point(self, conifold):
        tau = DecompositionType.make([(1, (1, 0)), (1, (0, 1))])
        report = classify_point(conifold, tau)
        assert not report.smooth
        assert report.expected_dim == 3

    def test_conifold_azumaya_point(self, conifold):
        tau = DecompositionType.make([(1, (1, 1))])
        report = classify_point(conifold, tau)
        assert report.smooth and report.azumaya

    def test_loop_free_vertex_point_is_azumaya(self):
        s = MarkedQuiverSetting.make([1], [[0]])
        report = classify_point(s, DecompositionType.make([(1, (1,))]))
        assert report.smooth and report.azumaya and report.expected_dim == 0


def simple_by_euler_form(s: MarkedQuiverSetting, beta) -> bool:
    """The simplicity criterion with its last test spelled with euler_form."""
    support = [v for v in range(s.k) if beta[v] > 0]
    if not support or not strongly_connected(s, support):
        return False
    if len(support) == 1:
        v = support[0]
        return beta[v] == 1 if s.loops_at(v) <= 1 else True
    deg_in = [sum(s.arrows[w][v] for w in support) + s.marked_loops[v] for v in range(s.k)]
    deg_out = [sum(s.arrows[v][w] for w in support) + s.marked_loops[v] for v in range(s.k)]
    if all(deg_in[v] == 1 and deg_out[v] == 1 for v in support):
        return all(beta[v] == 1 for v in support)
    return all(
        euler_form(s, beta, unit_vector(s.k, v)) <= 0
        and euler_form(s, unit_vector(s.k, v), beta) <= 0
        for v in support
    )


class TestSimplesBelow:
    @given(st.data())
    @hyp_settings(max_examples=150, deadline=None)
    def test_matches_euler_form_criterion(self, data):
        s = random_setting(random.Random(data.draw(st.integers(0, 10**6))), max_k=4)
        beta = data.draw(st.tuples(*(st.integers(0, 3) for _ in range(s.k))))
        assert is_simple_dimvector(s, beta) == simple_by_euler_form(s, beta)


    def test_conifold(self, conifold):
        simples = enumerate_simples_below(conifold, (1, 1))
        assert set(simples) == {(1, 0), (0, 1), (1, 1)}

    def test_euler_criterion_consistency(self):
        # for multi-vertex non-cycle supports, the chi conditions decide
        rng = random.Random(31)
        for _ in range(30):
            s = random_setting(rng, max_k=3, max_dim=2)
            for beta in enumerate_simples_below(s, s.dims):
                support = [v for v in range(s.k) if beta[v] > 0]
                if len(support) < 2:
                    continue
                for v in support:
                    ev = unit_vector(s.k, v)
                    assert euler_form(s, beta, ev) <= 0
                    assert euler_form(s, ev, beta) <= 0
