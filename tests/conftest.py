"""Shared fixtures: the worked settings and random-instance generators."""

from __future__ import annotations

import random

import pytest

from qsing import classification
from qsing.core import MarkedQuiverSetting, strongly_connected
from qsing.reduction import applicable_moves, apply_move


@pytest.fixture(scope="session", autouse=True)
def rewrite_system_is_confluent():
    """Overlap analysis of the conifold rewrite rules, once per test run."""
    from qsing.conifold import rewrite_critical_pairs

    failures = rewrite_critical_pairs()
    assert failures == [], f"non-confluent critical pairs: {failures}"


@pytest.fixture
def conifold() -> MarkedQuiverSetting:
    return MarkedQuiverSetting.make([1, 1], [[0, 2], [2, 0]])


@pytest.fixture
def quantum_plane_azumaya() -> MarkedQuiverSetting:
    return MarkedQuiverSetting.make([1], [[2]])


@pytest.fixture
def quantum_plane_ramified() -> MarkedQuiverSetting:
    return MarkedQuiverSetting.make([1, 1], [[1, 1], [1, 0]])


@pytest.fixture
def quantum_plane_origin() -> MarkedQuiverSetting:
    return MarkedQuiverSetting.make([2], [[0]], [2])


@pytest.fixture
def dim4_two_vertex() -> MarkedQuiverSetting:
    return MarkedQuiverSetting.make([1, 1], [[0, 2], [3, 0]])


@pytest.fixture
def dim4_cycle_pair() -> MarkedQuiverSetting:
    return MarkedQuiverSetting.make([1, 1, 1], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


@pytest.fixture
def dim4_double_triangle() -> MarkedQuiverSetting:
    return MarkedQuiverSetting.make([1, 1, 1], [[0, 2, 0], [0, 0, 2], [2, 0, 0]])


def random_setting(
    rng: random.Random,
    max_k: int = 5,
    max_dim: int = 3,
    max_mult: int = 3,
    allow_marks: bool = True,
) -> MarkedQuiverSetting:
    """A random valid setting; arrow matrix biased towards sparsity."""
    k = rng.randint(1, max_k)
    dims = [rng.randint(1, max_dim) for _ in range(k)]
    arrows = [
        [rng.randint(0, max_mult) if rng.random() < 0.5 else 0 for _ in range(k)]
        for _ in range(k)
    ]
    marks = [
        rng.randint(0, max_mult) if allow_marks and dims[v] >= 2 and rng.random() < 0.3 else 0
        for v in range(k)
    ]
    return MarkedQuiverSetting.make(dims, arrows, marks)


def permuted(s: MarkedQuiverSetting, perm) -> MarkedQuiverSetting:
    """Relabel vertices: new vertex p is old vertex perm[p]."""
    p = tuple(perm)
    arrows = tuple(tuple(s.arrows[p[i]][p[j]] for j in range(s.k)) for i in range(s.k))
    return MarkedQuiverSetting(
        tuple(s.dims[v] for v in p), arrows, tuple(s.marked_loops[v] for v in p)
    )


def census_stream(d: int):
    """Every setting the census generator yields at dimension d, in generation order.

    These are the candidates ``enumerate_reduced_singular(d)`` tests for
    orbit maxima, before any filter.
    """
    for dims in classification._dims_multisets(d):
        budget = d - 1 + sum(a * a for a in dims)
        for loops, loop_cost in classification._loop_configs(dims, budget, d):
            marks = tuple(m for _, m in loops)
            for arrows in classification._offdiag_matrices(dims, loops, budget - loop_cost):
                yield MarkedQuiverSetting(dims, arrows, marks)


def passes_census_filters(s: MarkedQuiverSetting) -> bool:
    """The census filters: strongly connected, reduced and off the smooth list."""
    return (
        strongly_connected(s)
        and not applicable_moves(s)
        and classification.match_smooth_list(s) is None
    )


def reduce_in_random_order(s: MarkedQuiverSetting, rng: random.Random):
    """The terminal form and z of ``s``, each move picked uniformly among those applicable."""
    z = 0
    while moves := applicable_moves(s):
        s, dz = apply_move(s, rng.choice(moves))
        z += dz
    return s, z


def random_all_ones_setting(
    rng: random.Random, max_k: int = 4, max_arrows: int = 6
) -> MarkedQuiverSetting:
    """A random all-ones setting with a bounded number of arrows."""
    k = rng.randint(1, max_k)
    arrows = [[0] * k for _ in range(k)]
    for _ in range(rng.randint(1, max_arrows)):
        i, j = rng.randrange(k), rng.randrange(k)
        arrows[i][j] += 1
    return MarkedQuiverSetting.make([1] * k, arrows)
