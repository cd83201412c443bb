"""Reduction moves, terminal forms, z bookkeeping."""

from __future__ import annotations

import random
import time

import pytest

from qsing.classification import classify_report, expected_dim
from qsing.core import MarkedQuiverSetting, canonical_key
from qsing.errors import IllegalMoveError
from qsing.local_structure import is_simple_dimvector
from qsing.reduction import (
    Move,
    MoveKind,
    ReductionResult,
    applicable_moves,
    apply_move,
    reduce_setting,
)

from conftest import random_setting, reduce_in_random_order


class TestApplicableMoves:
    def test_conifold_is_terminal(self, conifold):
        assert applicable_moves(conifold) == []

    def test_single_loop_dim_one(self):
        s = MarkedQuiverSetting.make([1], [[1]])
        moves = applicable_moves(s)
        assert [m.kind for m in moves] == [MoveKind.SMALL_LOOP_REMOVAL]

    def test_big_loop_with_marked_loop(self):
        s = MarkedQuiverSetting.make([2, 1], [[0, 1], [2, 0]], [1, 0])
        kinds = {m.kind for m in applicable_moves(s)}
        assert MoveKind.BIG_LOOP_REMOVAL in kinds

    def test_big_loop_needs_dim_one_neighbor(self):
        s = MarkedQuiverSetting.make([2, 2], [[0, 1], [2, 0]], [1, 0])
        assert MoveKind.BIG_LOOP_REMOVAL not in {m.kind for m in applicable_moves(s)}

    def test_vertex_removal_inequality(self):
        # middle vertex of a chain with one arrow in, one out
        s = MarkedQuiverSetting.make([1, 1, 1], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        moves = [m for m in applicable_moves(s) if m.kind is MoveKind.VERTEX_REMOVAL]
        assert {m.vertex for m in moves} == {0, 1, 2}

    def test_no_vertex_removal_on_single_vertex(self):
        s = MarkedQuiverSetting.make([1], [[0]])
        assert applicable_moves(s) == []

    def test_looped_vertex_not_removable(self):
        s = MarkedQuiverSetting.make([1, 1], [[1, 1], [1, 0]])
        vertex_moves = [
            m for m in applicable_moves(s) if m.kind is MoveKind.VERTEX_REMOVAL
        ]
        assert all(m.vertex != 0 for m in vertex_moves)


    def test_moves_come_out_in_order(self):
        # by vertex, then by kind in declaration order, then an outgoing
        # big-loop arrow before an incoming one; the keys never tie
        kinds = list(MoveKind)
        rng = random.Random(17)
        shared = 0
        for _ in range(2000):
            s = random_setting(rng, max_mult=1)
            keys = [(m.vertex, kinds.index(m.kind), m.incoming) for m in applicable_moves(s)]
            assert all(a < b for a, b in zip(keys, keys[1:])), s.to_json()
            shared += len({v for v, _, _ in keys}) < len(keys)
        # two moves at one vertex: big-loop removal along either arrow
        assert shared > 20


class TestApplyMove:
    def test_three_small_loops(self):
        s = MarkedQuiverSetting.make([1], [[3]])
        z = 0
        for _ in range(3):
            move = applicable_moves(s)[0]
            s, dz = apply_move(s, move)
            z += dz
        assert z == 3
        assert s == MarkedQuiverSetting.make([1], [[0]])

    def test_big_loop_marked_worked_example(self):
        # dims (2,1), marked loop at v0, one arrow out, two back
        s = MarkedQuiverSetting.make([2, 1], [[0, 1], [2, 0]], [1, 0])
        assert expected_dim(s) == 5
        move = next(
            m for m in applicable_moves(s) if m.kind is MoveKind.BIG_LOOP_REMOVAL
        )
        after, dz = apply_move(s, move)
        assert dz == 1  # marked loop: dims[v] - 1
        assert after == MarkedQuiverSetting.make([2, 1], [[0, 2], [2, 0]])
        assert expected_dim(after, warn_if_not_simple=False) == 4

    def test_big_loop_genuine_z(self):
        s = MarkedQuiverSetting.make([2, 1], [[1, 1], [2, 0]])
        move = next(
            m for m in applicable_moves(s) if m.kind is MoveKind.BIG_LOOP_REMOVAL
        )
        after, dz = apply_move(s, move)
        assert dz == 2  # genuine loop: dims[v]
        assert after.arrows == ((0, 2), (2, 0))

    def test_chain_vertex_removal(self):
        s = MarkedQuiverSetting.make([1, 1, 1], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        move = Move(MoveKind.VERTEX_REMOVAL, 1)
        after, dz = apply_move(s, move)
        assert dz == 0
        assert after == MarkedQuiverSetting.make([1, 1], [[0, 1], [0, 0]])

    def test_vertex_removal_creates_loops(self):
        # composing through v when an in-neighbor equals an out-neighbor
        s = MarkedQuiverSetting.make([1, 1], [[0, 1], [2, 0]])
        move = Move(MoveKind.VERTEX_REMOVAL, 0)
        after, _ = apply_move(s, move)
        assert after == MarkedQuiverSetting.make([1], [[2]])

    def test_illegal_move(self, conifold):
        with pytest.raises(IllegalMoveError):
            apply_move(conifold, Move(MoveKind.SMALL_LOOP_REMOVAL, 0))

    def test_strict_mode_warns(self):
        # removable sink whose enabling inequalities are both strict
        s = MarkedQuiverSetting.make([1, 2], [[0, 1], [0, 0]])
        move = Move(MoveKind.VERTEX_REMOVAL, 1)
        with pytest.warns(UserWarning):
            apply_move(s, move, strict=True)

    def test_strict_mode_quiet_on_equality(self):
        s = MarkedQuiverSetting.make([1, 1], [[0, 1], [0, 0]])
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            apply_move(s, Move(MoveKind.VERTEX_REMOVAL, 1), strict=True)


class TestReduce:
    def test_conifold_fixed(self, conifold):
        result = reduce_setting(conifold)
        assert result.reduced == conifold
        assert result.z == 0 and result.trace == ()

    def test_two_marked_loops_terminal(self, quantum_plane_origin):
        result = reduce_setting(quantum_plane_origin)
        assert result.reduced == quantum_plane_origin
        assert result.z == 0

    def test_tree_collapses(self):
        s = MarkedQuiverSetting.make(
            [1, 1, 1], [[0, 1, 1], [0, 0, 0], [0, 0, 0]]
        )
        result = reduce_setting(s)
        assert result.reduced == MarkedQuiverSetting.make([1], [[0]])
        assert result.z == 0

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(50):
            s = random_setting(rng)
            reduced = reduce_setting(s).reduced
            again = reduce_setting(reduced)
            assert again.trace == () and again.reduced == reduced

    def test_confluence_small(self):
        # uniqueness of the terminal form lives on strongly connected settings
        from qsing.core import strongly_connected

        rng = random.Random(99)
        checked = 0
        while checked < 60:
            s = random_setting(rng)
            if not strongly_connected(s):
                continue
            a, za = reduce_in_random_order(s, random.Random(rng.randint(0, 10**9)))
            b, zb = reduce_in_random_order(s, random.Random(rng.randint(0, 10**9)))
            assert canonical_key(a) == canonical_key(b)
            assert za == zb
            checked += 1

    def test_uniqueness_fails_without_strong_connectivity(self):
        # documented boundary: a source-sink pair with unequal dimensions can
        # be removed in either order, leaving different bare vertices (both
        # with trivial invariant ring)
        s = MarkedQuiverSetting.make([1, 3], [[0, 3], [0, 0]])
        terminals = set()
        for first in (0, 1):
            move = next(
                m
                for m in applicable_moves(s)
                if m.kind is MoveKind.VERTEX_REMOVAL and m.vertex == first
            )
            current, _ = apply_move(s, move)
            terminals.add(canonical_key(reduce_setting(current).reduced))
        assert len(terminals) == 2

    def test_trace_is_one_move_at_a_time(self):
        rng = random.Random(32)
        for _ in range(200):
            s = random_setting(rng)
            current, z, trace = s, 0, []
            while moves := applicable_moves(current):
                current, dz = apply_move(current, moves[0])
                z += dz
                trace.append(moves[0])
            assert reduce_setting(s) == ReductionResult(s, current, z, tuple(trace))

    def test_million_loops_removed_at_once(self):
        s = MarkedQuiverSetting.make([1], [[10**6]])
        start = time.monotonic()
        report = classify_report(s)
        assert time.monotonic() - start < 1
        assert report["z"] == 10**6 and report["reduced"]["arrows"] == [[0]]

    def test_dimension_bookkeeping_sample(self):
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            s = random_setting(rng)
            if not is_simple_dimvector(s, s.dims):
                continue
            result = reduce_setting(s)
            before = expected_dim(s, warn_if_not_simple=False)
            after = expected_dim(result.reduced, warn_if_not_simple=False)
            assert before == after + result.z
            checked += 1
