"""Hilbert bases, binomial relations, stability, charts, fibers."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from qsing import classification, linalg, toric
from qsing.core import Arrow, MarkedQuiverSetting, canonical_key, strongly_connected
from qsing.errors import BudgetExhaustedError, EmptyProjError, UnsupportedSettingError
from qsing.toric import (
    central_fiber,
    check_hilbert_minimality,
    facet_incidence,
    hilbert_basis,
    incidence_isomorphism,
    invariant_generators,
    is_theta_semistable,
    proj_charts,
    semi_invariant_generators,
    semigroup_isomorphism,
    semistable_via_semiinvariants,
    toric_relations,
)

from conftest import random_all_ones_setting


def random_charted_settings(seed: int, count: int, max_entry: int):
    """Strongly connected all-ones settings, k <= 3, <= k + 3 arrows, with theta."""
    rng = random.Random(seed)
    while count:
        s = random_all_ones_setting(rng, max_k=3, max_arrows=6)
        if s.k < 2 or s.num_arrows > s.k + 3 or not strongly_connected(s):
            continue
        theta = [rng.randint(-max_entry, max_entry) for _ in range(s.k - 1)]
        theta.append(-sum(theta))
        if not any(theta) or abs(theta[-1]) > max_entry:
            continue
        count -= 1
        yield s, theta


class TestHilbertBasis:
    def test_conifold_four_generators(self, conifold):
        basis = invariant_generators(conifold)
        # arrows: a=(0->1,0), b=(0->1,1), c=(1->0,0), d=(1->0,1)
        assert set(basis) == {
            (1, 0, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 0, 1),
        }
        assert check_hilbert_minimality(basis) == []

    def test_loops_are_free_generators(self):
        s = MarkedQuiverSetting.make([1], [[3]])
        assert invariant_generators(s) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_double_triangle_eight_generators(self, dim4_double_triangle):
        basis = invariant_generators(dim4_double_triangle)
        assert len(basis) == 8
        assert all(sum(u) == 3 for u in basis)
        assert check_hilbert_minimality(basis) == []

    def test_minimality_on_random_settings(self):
        rng = random.Random(3)
        for _ in range(20):
            s = random_all_ones_setting(rng)
            assert check_hilbert_minimality(invariant_generators(s)) == []

    def test_rank_matches_expected_dim(self):
        # rank of the invariant lattice = arrows - k + 1 = 1 - chi(alpha, alpha)
        from qsing.core import euler_form, strongly_connected
        from qsing.linalg import rank

        rng = random.Random(5)
        checked = 0
        while checked < 20:
            s = random_all_ones_setting(rng)
            if not strongly_connected(s):
                continue
            basis = invariant_generators(s)
            alpha = (1,) * s.k
            assert (
                rank(basis)
                == s.num_arrows - s.k + 1
                == 1 - euler_form(s, alpha, alpha)
            )
            checked += 1

    def test_rejects_higher_dims(self):
        s = MarkedQuiverSetting.make([2], [[2]])
        with pytest.raises(UnsupportedSettingError):
            invariant_generators(s)


class TestToricRelations:
    def test_conifold_single_relation(self, conifold):
        basis = invariant_generators(conifold)
        rels = toric_relations(basis)
        assert len(rels) == 1
        (rel,) = rels
        # the two degree-2 monomials multiply to the same arrow exponents
        image = lambda mono: tuple(
            sum(mono[i] * basis[i][a] for i in range(len(basis))) for a in range(4)
        )
        assert image(rel.lhs) == image(rel.rhs)
        assert sorted(rel.degrees()) == [2, 2]

    def test_cycle_pair_single_relation(self, dim4_cycle_pair):
        basis = invariant_generators(dim4_cycle_pair)
        assert len(basis) == 5
        rels = toric_relations(basis)
        assert len(rels) == 1
        assert sorted(rels[0].degrees()) == [2, 3]
        # degree-2 side: the two 3-cycles; degree-3 side: the three 2-cycles
        two_cycles = [i for i, u in enumerate(basis) if sum(u) == 2]
        three_cycles = [i for i, u in enumerate(basis) if sum(u) == 3]
        small = rels[0].lhs if sum(rels[0].lhs) == 2 else rels[0].rhs
        large = rels[0].rhs if small is rels[0].lhs else rels[0].lhs
        assert sorted(i for i in three_cycles for _ in range(small[i])) == three_cycles
        assert sorted(i for i in two_cycles for _ in range(large[i])) == two_cycles

    def test_free_case_empty(self):
        s = MarkedQuiverSetting.make([1], [[2]])
        assert toric_relations(invariant_generators(s)) == []

    def test_double_triangle_all_degree2_pairs(self, dim4_double_triangle):
        """Oracle: enumerate every coincidence of degree-2 monomials directly."""
        basis = invariant_generators(dim4_double_triangle)
        n = len(basis)

        def image(mono):
            return tuple(
                sum(mono[i] * basis[i][a] for i in range(n)) for a in range(6)
            )

        fibers = {}
        for i in range(n):
            for j in range(i, n):
                mono = tuple(
                    (1 if t == i else 0) + (1 if t == j else 0) for t in range(n)
                )
                fibers.setdefault(image(mono), []).append(mono)
        expected_pairs = set()
        for members in fibers.values():
            for a, b in itertools.combinations(sorted(members), 2):
                expected_pairs.add((a, b))
        rels = toric_relations(basis)
        got = {tuple(sorted((r.lhs, r.rhs))) for r in rels}
        assert got == expected_pairs
        assert len(rels) == 12

    def test_double_triangle_contains_2x4_minors(self, dim4_double_triangle):
        """All six 2x2 minors of the 2x4 generator arrangement appear verbatim."""
        basis = invariant_generators(dim4_double_triangle)
        arrows = dim4_double_triangle.arrow_list()
        legs = [(0, 1), (1, 2), (2, 0)]

        def choice(u, leg):
            (i, j) = leg
            idx = [t for t, a in enumerate(arrows) if (a.tail, a.head) == (i, j)]
            return next(s for s, t in enumerate(idx) if u[t])

        # rows: choice on the first leg; columns: choices on the other two
        table = {}
        for g, u in enumerate(basis):
            table[(choice(u, legs[0]), (choice(u, legs[1]), choice(u, legs[2])))] = g
        cols = sorted({key[1] for key in table})
        assert len(cols) == 4 and len(table) == 8
        rels = {tuple(sorted((r.lhs, r.rhs))) for r in toric_relations(basis)}
        n = len(basis)

        def monomial(*gens):
            out = [0] * n
            for g in gens:
                out[g] += 1
            return tuple(out)

        for c1, c2 in itertools.combinations(cols, 2):
            lhs = monomial(table[(0, c1)], table[(1, c2)])
            rhs = monomial(table[(0, c2)], table[(1, c1)])
            assert tuple(sorted((lhs, rhs))) in rels

    def test_higher_degree_consequences_suppressed(self, conifold):
        basis = invariant_generators(conifold)
        # degree bound 6 must not add consequences of the single quadric
        assert len(toric_relations(basis, degree_bound=6)) == 1


class TestSemiInvariants:
    def test_conifold_theta_minus_plus(self, conifold):
        gens = semi_invariant_generators(conifold, (-1, 1))
        degree0 = {g.exponents for g in gens if g.degree == 0}
        degree1 = {g.exponents for g in gens if g.degree}
        assert degree0 == set(invariant_generators(conifold))
        # degree-one generators are the two arrows out of the theta<0 vertex
        assert degree1 == {(1, 0, 0, 0), (0, 1, 0, 0)}
        assert all(g.degree == 1 for g in gens if g.degree)
        assert gens == tuple(sorted(gens, key=lambda g: (g.degree, g.exponents)))

    def test_conifold_theta_plus_minus(self, conifold):
        gens = semi_invariant_generators(conifold, (1, -1))
        degree1 = {g.exponents for g in gens if g.degree}
        assert degree1 == {(0, 0, 1, 0), (0, 0, 0, 1)}

    def test_theta_zero_is_invariants(self, conifold):
        gens = semi_invariant_generators(conifold, (0, 0))
        assert {g.exponents for g in gens} == set(invariant_generators(conifold))
        assert all(g.degree == 0 for g in gens)

    def test_theta_alpha_nonzero_rejected(self, conifold):
        with pytest.raises(ValueError):
            semi_invariant_generators(conifold, (1, 1))

    def test_degrees_are_zero_or_one(self):
        # W is totally unimodular, so every positive degree is 1 (Baum-Trotter),
        # for theta and for each of its multiples
        for s, theta in random_charted_settings(47, 100, 5):
            for m in (1, 2, 3):
                gens = semi_invariant_generators(s, [m * t for t in theta])
                assert {g.degree for g in gens} <= {0, 1}, (s.to_json(), theta, m)


class TestThetaCheck:
    """theta is taken exactly: entries must be ints, never truncated."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: proj_charts(s, [0.5, -0.5]),
            lambda s: is_theta_semistable(s, [], [1.7, -1.2]),
            lambda s: semi_invariant_generators(s, [True, -1]),
            lambda s: semistable_via_semiinvariants(s, [], [1.0, -1]),
            lambda s: central_fiber(s, [-1, Fraction(1)]),
        ],
        ids=["charts-half", "king-float", "semi-bool", "via-float", "fiber-fraction"],
    )
    def test_non_int_entries_rejected(self, conifold, call):
        with pytest.raises(ValueError, match="expected an integer"):
            call(conifold)

    @pytest.mark.parametrize("theta", [(-1, 1, 0), (1,)])
    def test_length_must_be_k(self, conifold, theta):
        with pytest.raises(ValueError, match="length"):
            is_theta_semistable(conifold, [], theta)


class TestStability:
    def test_conifold_exceptional_rep_stable(self, conifold):
        arrows = conifold.arrow_list()
        verdict = is_theta_semistable(conifold, [arrows[0]], (-1, 1))
        assert verdict.semistable and verdict.stable

    def test_zero_rep_unstable(self, conifold):
        verdict = is_theta_semistable(conifold, [], (-1, 1))
        assert not verdict.semistable
        assert verdict.witness == (0,)

    def test_full_support_stable_both_sides(self, conifold):
        arrows = conifold.arrow_list()
        for theta in ((-1, 1), (1, -1)):
            verdict = is_theta_semistable(conifold, arrows, theta)
            assert verdict.stable

    def test_representation_input(self, conifold):
        arrows = conifold.arrow_list()
        assert is_theta_semistable(conifold, [arrows[0]], (-1, 1)).stable
        assert semistable_via_semiinvariants(conifold, [arrows[0]], (-1, 1))

    @pytest.mark.parametrize(
        "arrow",
        [
            Arrow(0, 1, 7),
            Arrow(0, 2, 0),
            Arrow(-1, 1, 0),
            Arrow(0, 1, -1),
            Arrow(0, 1, 0.5),
            Arrow(0, 0, 0, marked=True),
        ],
        ids=["slot-out-of-range", "vertex-out-of-range", "negative-vertex",
             "negative-slot", "fractional-slot", "marked-on-mark-free"],
    )
    def test_arrows_outside_the_setting_rejected(self, conifold, arrow):
        for check in (is_theta_semistable, semistable_via_semiinvariants):
            with pytest.raises(ValueError, match="not an arrow of the setting"):
                check(conifold, [conifold.arrow_list()[0], arrow], (-1, 1))

    def test_loop_slots_come_from_the_diagonal(self):
        s = MarkedQuiverSetting.make([1, 1], [[1, 1], [1, 0]])
        loop = Arrow(0, 0, 0)
        support = [loop, Arrow(0, 1, 0)]
        assert is_theta_semistable(s, support, (-1, 1)).semistable == (
            semistable_via_semiinvariants(s, support, (-1, 1))
        )
        for check in (is_theta_semistable, semistable_via_semiinvariants):
            with pytest.raises(ValueError, match="not an arrow of the setting"):
                check(s, [loop, Arrow(0, 0, 1)], (-1, 1))
            with pytest.raises(ValueError, match="not an arrow of the setting"):
                check(s, [Arrow(1, 1, 0)], (-1, 1))

    def test_repeated_arrows_count_once(self, conifold):
        a = conifold.arrow_list()[0]
        assert is_theta_semistable(conifold, [a, a], (-1, 1)) == (
            is_theta_semistable(conifold, [a], (-1, 1))
        )
        assert semistable_via_semiinvariants(conifold, [a, a], (-1, 1))

    def test_support_may_be_a_one_shot_iterator(self, conifold):
        arrows = conifold.arrow_list()
        assert is_theta_semistable(conifold, iter(arrows[:1]), (-1, 1)).stable
        assert semistable_via_semiinvariants(conifold, iter(arrows[:1]), (-1, 1))
        assert not is_theta_semistable(conifold, iter(arrows[2:3]), (-1, 1)).semistable
        assert not semistable_via_semiinvariants(conifold, iter(arrows[2:3]), (-1, 1))

    def test_semi_invariant_route_examples(self, conifold):
        arrows = conifold.arrow_list()
        assert semistable_via_semiinvariants(conifold, [arrows[0]], (-1, 1))
        assert not semistable_via_semiinvariants(conifold, [], (-1, 1))

    def test_king_equivalence_random(self):
        rng = random.Random(12)
        checked = 0
        while checked < 150:
            s = random_all_ones_setting(rng)
            theta = [rng.randint(-3, 3) for _ in range(s.k - 1)]
            theta.append(-sum(theta))
            if abs(theta[-1]) > 3:
                continue
            arrows = s.arrow_list()
            support = [a for a in arrows if rng.random() < 0.6]
            king = is_theta_semistable(s, support, theta).semistable
            mono = semistable_via_semiinvariants(s, support, theta)
            assert king == mono, (s.to_json(), theta, support)
            checked += 1

    def test_face_basis_matches_full_basis_filter(self):
        # the Hilbert basis of the support's face against the positive-degree
        # generators of the full graded basis that lie inside the support
        rng = random.Random(61)
        checked = 0
        while checked < 200:
            s = random_all_ones_setting(rng, max_k=4, max_arrows=7)
            theta = [rng.randint(-3, 3) for _ in range(s.k - 1)]
            theta.append(-sum(theta))
            if not any(theta):
                continue
            arrows = s.arrow_list()
            chosen = {i for i in range(len(arrows)) if rng.random() < 0.6}
            full_filter = any(
                g.degree and all(e == 0 or i in chosen for i, e in enumerate(g.exponents))
                for g in semi_invariant_generators(s, theta)
            )
            support = [arrows[i] for i in chosen]
            assert semistable_via_semiinvariants(s, support, theta) == full_filter, (
                s.to_json(), theta, sorted(chosen)
            )
            checked += 1


class TestProjCharts:
    def test_conifold_resolution(self, conifold):
        charts = proj_charts(conifold, (-1, 1))
        assert len(charts) == 2
        for chart in charts:
            assert chart.smooth
            assert chart.free_rank == 3
            assert len(chart.monoid_generators) == 3

    def test_conifold_flop(self, conifold):
        charts = proj_charts(conifold, (1, -1))
        assert len(charts) == 2
        assert all(c.smooth and c.free_rank == 3 for c in charts)
        pivots = {c.pivot.exponents for c in charts}
        assert pivots == {(0, 0, 1, 0), (0, 0, 0, 1)}

    def test_chart_contents_match_known_coordinates(self, conifold):
        charts = {c.pivot.exponents: set(c.monoid_generators) for c in proj_charts(conifold, (-1, 1))}
        # chart at the first arrow: two degree-0 cycles through it plus the
        # ratio of the two positive arrows
        assert charts[(1, 0, 0, 0)] == {(1, 0, 1, 0), (1, 0, 0, 1), (-1, 1, 0, 0)}
        assert charts[(0, 1, 0, 0)] == {(0, 1, 1, 0), (0, 1, 0, 1), (1, -1, 0, 0)}

    def test_smooth_chart_rank_is_ambient_dimension(self):
        from qsing.classification import expected_dim
        from qsing.core import strongly_connected

        rng = random.Random(33)
        checked = 0
        while checked < 25:
            s = random_all_ones_setting(rng, max_k=3, max_arrows=6)
            if not strongly_connected(s) or s.k < 2:
                continue
            theta = [rng.choice([-2, -1, 1, 2]) for _ in range(s.k - 1)]
            theta.append(-sum(theta))
            try:
                charts = proj_charts(s, theta)
            except (EmptyProjError, ValueError):
                continue
            dim = expected_dim(s, warn_if_not_simple=False)
            for chart in charts:
                if chart.smooth:
                    assert chart.free_rank == dim
            checked += 1

    @pytest.mark.parametrize("theta", [(-1, 1), (-2, 2), (-3, 3)])
    def test_kronecker_charts_are_smooth_for_every_multiple(self, theta):
        # every multiple of theta gives the same Proj, P^1
        kronecker = MarkedQuiverSetting.make([1, 1], [[0, 2], [0, 0]])
        charts = proj_charts(kronecker, theta)
        assert charts and all(c.smooth and c.free_rank == 1 for c in charts)

    def test_kronecker_chart_with_units(self):
        # at pivot a1*a2 the chart monoid is Z, generated by a1/a2 and a2/a1
        kronecker = MarkedQuiverSetting.make([1, 1], [[0, 2], [0, 0]])
        charts = {c.pivot.exponents: c for c in proj_charts(kronecker, (-2, 2))}
        chart = charts[(1, 1)]
        assert set(chart.monoid_generators) == {(1, -1), (-1, 1)}
        assert chart.smooth

    def test_smoothness_invariant_under_veronese(self):
        # theta and 2 theta give the same Proj (Veronese embedding)
        for s, theta in random_charted_settings(41, 200, 2):
            try:
                charts = proj_charts(s, theta)
            except EmptyProjError:
                with pytest.raises(EmptyProjError):
                    proj_charts(s, [2 * t for t in theta])
                continue
            doubled = proj_charts(s, [2 * t for t in theta])
            assert all(c.smooth for c in charts) == all(c.smooth for c in doubled), (
                s.to_json(),
                theta,
            )

    def test_generators_lie_in_their_chart_monoid(self):
        for s, theta in random_charted_settings(43, 60, 2):
            try:
                charts = proj_charts(s, theta)
            except EmptyProjError:
                continue
            arrows = s.arrow_list()
            for chart in charts:
                outside = [a for a, e in enumerate(chart.pivot.exponents) if e == 0]
                for v in chart.monoid_generators:
                    weight = [0] * s.k
                    for arrow, e in zip(arrows, v):
                        weight[arrow.head] += e
                        weight[arrow.tail] -= e
                    assert not any(weight), (s.to_json(), theta, v)
                    assert all(v[a] >= 0 for a in outside), (s.to_json(), theta, v)
                units = [v for v in chart.monoid_generators if not any(v[a] for a in outside)]
                if not units:
                    # a pointed chart lists its Hilbert basis, which the
                    # coordinates outside the pivot's support determine
                    images = [tuple(v[a] for a in outside) for v in chart.monoid_generators]
                    assert check_hilbert_minimality(images) == []

    def test_one_basis_equals_per_pivot_bases(self):
        # the chart of a degree-1 pivot needs no basis of its own
        compared = 0
        for s, theta in random_charted_settings(53, 150, 2):
            try:
                expected = reference_charts(s, theta)
            except EmptyProjError:
                with pytest.raises(EmptyProjError):
                    proj_charts(s, theta)
                continue
            assert proj_charts(s, theta) == expected, (s.to_json(), theta)
            compared += 1
        assert compared >= 100

    @staticmethod
    def assert_one_hilbert_basis_per_call(monkeypatch, call):
        original = toric.hilbert_basis
        calls = 0

        def counting(matrix, **kwargs):
            nonlocal calls
            calls += 1
            return original(matrix, **kwargs)

        monkeypatch.setattr(toric, "hilbert_basis", counting)
        kronecker = MarkedQuiverSetting.make([1, 1], [[0, 2], [0, 0]])
        cases = [(kronecker, (-2, 2)), (kronecker, (3, -3))]
        cases += list(random_charted_settings(59, 20, 2))
        for s, theta in cases:
            calls = 0
            try:
                call(s, theta)
            except EmptyProjError:
                pass
            assert calls == 1, (s.to_json(), theta)

    def test_one_hilbert_basis_per_call(self, monkeypatch):
        self.assert_one_hilbert_basis_per_call(monkeypatch, proj_charts)

    def test_one_hilbert_basis_per_charts_report(self, monkeypatch):
        # the report reads its degree-zero generators off the graded basis
        # of its charts
        self.assert_one_hilbert_basis_per_call(
            monkeypatch, lambda s, theta: toric.toric_report(s, "charts", theta=theta)
        )

    def test_theta_zero_guard(self, conifold):
        with pytest.raises(EmptyProjError):
            proj_charts(conifold, (0, 0))

    def test_single_vertex_loops_guard(self):
        s = MarkedQuiverSetting.make([1], [[2]])
        with pytest.raises(EmptyProjError):
            proj_charts(s, (0,))


def reference_charts(s, theta):
    """The per-pivot charts, kept as an oracle: one Hilbert basis per pivot.

    The chart at a degree-d pivot f is read off the basis of W u = m * d * theta,
    each solution shifted by -m times f.
    """
    arrows = s.arrow_list()
    n = len(arrows)
    weights = [[0] * s.k for _ in arrows]
    for a, arrow in enumerate(arrows):
        weights[a][arrow.head] += 1
        weights[a][arrow.tail] -= 1
    graded = hilbert_basis([[weights[a][v] for a in range(n)] + [-theta[v]] for v in range(s.k)])
    pivots = sorted(
        (toric.GradedGenerator(u[:n], u[n]) for u in graded if u[n]),
        key=lambda g: (g.degree, g.exponents),
    )
    if not pivots:
        raise EmptyProjError("no positive-degree semi-invariants; semistable locus empty")
    charts = []
    for pivot in pivots:
        rows = [
            [weights[a][v] for a in range(n)] + [-pivot.degree * theta[v]]
            for v in range(s.k)
        ]
        shifted = [
            tuple(sol[a] - sol[n] * pivot.exponents[a] for a in range(n))
            for sol in hilbert_basis(rows)
        ]
        outside = [a for a in range(n) if pivot.exponents[a] == 0]
        gens, smooth = toric._chart_generators(shifted, outside)
        charts.append(toric.ProjChart(pivot, tuple(gens), smooth, linalg.rank(gens)))
    return charts


class TestCentralFiber:
    def test_conifold_exceptional_line(self, conifold):
        strata = central_fiber(conifold, (-1, 1))
        stable = [f for f in strata if f.stable]
        assert len(stable) == 3
        assert {f.support for f in stable} == {(0,), (1,), (0, 1)}
        assert max(f.orbit_space_dim for f in stable) == 1

    def test_conifold_flopped_fiber(self, conifold):
        strata = central_fiber(conifold, (1, -1))
        assert {f.support for f in strata if f.stable} == {(2,), (3,), (2, 3)}

    @pytest.mark.parametrize("theta", [(-1, 1), (1, -1)])
    def test_strata_agree_with_king_test(self, conifold, theta):
        arrows = conifold.arrow_list()
        strata = central_fiber(conifold, theta)
        assert strata
        for f in strata:
            verdict = is_theta_semistable(conifold, [arrows[i] for i in f.support], theta)
            assert verdict.semistable
            assert verdict.stable == f.stable

    @pytest.mark.parametrize(
        "theta,message",
        [((-1, 1, 0), "length"), ((-1, 2), "must vanish")],
        ids=["wrong-length", "nonzero-on-alpha"],
    )
    def test_theta_checked(self, conifold, theta, message):
        with pytest.raises(ValueError, match=message):
            central_fiber(conifold, theta)

    def test_everything_unstable_for_bad_theta(self):
        # two disjoint doubled 2-cycles cannot be connected-support stable
        s = MarkedQuiverSetting.make([1, 1], [[0, 2], [2, 0]])
        strata = central_fiber(s, (-1, 1))
        assert all(f.support for f in strata)

    def test_deadline_checked_once_per_support(self, conifold, monkeypatch):
        # with a clock that never passes the deadline, the fiber search reads
        # it in the invariant cycle walk (once per least vertex) and once per
        # support (2^4)
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return 0.0

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        invariant_generators(conifold, deadline=1.0)
        rounds, readings = readings, 0
        strata = central_fiber(conifold, (-1, 1), deadline=1.0)
        assert readings == rounds + 2**4
        monkeypatch.undo()
        assert strata == central_fiber(conifold, (-1, 1))

    def test_deadline_stops_the_search(self, monkeypatch):
        # the clock passes the deadline at its 50th reading, well inside the
        # 2^20 supports of the complete 5-vertex quiver
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return float(readings)

        complete = MarkedQuiverSetting.make(
            [1] * 5, [[int(i != j) for j in range(5)] for i in range(5)]
        )
        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        with pytest.raises(BudgetExhaustedError, match="central fiber"):
            central_fiber(complete, (1, 1, 1, 1, -4), deadline=49.5)
        assert readings == 50

    def test_without_deadline_reads_no_clock(self, conifold, monkeypatch):
        def no_clock():
            raise AssertionError("the clock is read without a deadline")

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=no_clock))
        assert central_fiber(conifold, (-1, 1))


class TestToricReportBudget:
    @pytest.mark.parametrize("action", ["invariants", "relations", *toric.THETA_ACTIONS])
    def test_budget_bounds_every_action(self, conifold, action, monkeypatch):
        # the clock ticks one second per reading, so a zero budget runs out
        # at the first check of whichever search the action starts
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return float(readings)

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        with pytest.raises(BudgetExhaustedError):
            toric.toric_report(conifold, action, theta=(-1, 1), support=(0,), budget_secs=0)

    def test_negative_budget_rejected(self, conifold):
        with pytest.raises(ValueError, match="budget"):
            toric.toric_report(conifold, "invariants", budget_secs=-1)


class TestSemigroupIsomorphism:
    def test_identity_and_permutation(self, conifold):
        basis = invariant_generators(conifold)
        assert semigroup_isomorphism(basis, basis) is not None
        shuffled = list(reversed(basis))
        assert semigroup_isomorphism(basis, shuffled) is not None

    def test_distinct_rings(self, conifold, dim4_cycle_pair):
        b1 = invariant_generators(conifold)
        b2 = invariant_generators(dim4_cycle_pair)
        assert semigroup_isomorphism(b1, b2) is None

    def test_same_size_non_isomorphic(self):
        # two dim-5 types with nine generators each but different rings
        a = MarkedQuiverSetting.make([1, 1], [[0, 3], [3, 0]])
        b = MarkedQuiverSetting.make(
            [1, 1, 1, 1],
            [[0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1], [1, 0, 1, 0]],
        )
        assert semigroup_isomorphism(
            invariant_generators(a), invariant_generators(b)
        ) is None

    def test_known_dim5_merge(self):
        a = MarkedQuiverSetting.make(
            [1, 1, 1, 1],
            [[0, 2, 0, 0], [1, 0, 1, 0], [0, 0, 0, 2], [1, 0, 1, 0]],
        )
        b = MarkedQuiverSetting.make([1, 1, 1], [[0, 2, 1], [1, 0, 1], [2, 0, 0]])
        match = semigroup_isomorphism(invariant_generators(a), invariant_generators(b))
        assert match is not None


def reference_profiles(basis):
    n = len(basis)
    fibers = {}
    for i in range(n):
        for j in range(i, n):
            key = tuple(a + b for a, b in zip(basis[i], basis[j]))
            fibers.setdefault(key, []).append((i, j))
    profile = [[] for _ in range(n)]
    for pairs in fibers.values():
        size = len(pairs)
        for i, j in pairs:
            profile[i].append((size, i == j))
            if i != j:
                profile[j].append((size, i == j))
    return [tuple(sorted(p)) for p in profile]


def reference_isomorphism(basis1, basis2):
    """The product search over profile-compatible base images, kept as an oracle.

    It tries every tuple of targets for the base generators and tests the
    induced linear map only on a full tuple.
    """
    hb1 = [tuple(v) for v in basis1]
    hb2 = [tuple(v) for v in basis2]
    if len(hb1) != len(hb2):
        return None
    prof1, prof2 = reference_profiles(hb1), reference_profiles(hb2)
    if sorted(prof1) != sorted(prof2):
        return None
    R, base_idx, d = linalg.rref(list(zip(*hb1)))
    coords = [[row[j] for row in R] for j in range(len(hb1))]
    width = len(hb2[0]) if hb2 else 0
    candidates = [
        [j for j in range(len(hb2)) if prof2[j] == prof1[i]] for i in base_idx
    ]
    target_index = {v: j for j, v in enumerate(hb2)}
    for tgt in itertools.product(*candidates):
        if len(set(tgt)) != len(base_idx):
            continue
        targets = [hb2[j] for j in tgt]
        images = {}
        seen = set()
        for src, c in enumerate(coords):
            num = [sum(cq * v[col] for cq, v in zip(c, targets)) for col in range(width)]
            if any(x % d for x in num):
                break
            j = target_index.get(tuple(x // d for x in num))
            if j is None or j in seen or prof2[j] != prof1[src]:
                break
            images[src] = j
            seen.add(j)
        else:
            return images
    return None


@functools.cache
def census_bases() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The Hilbert bases of the all-ones settings of the d = 5 and d = 6 censuses."""
    return tuple(
        tuple(invariant_generators(s))
        for d in (5, 6)
        for s in classification.enumerate_reduced_singular(d)
        if all(x == 1 for x in s.dims)
    )


def assert_monoid_isomorphism(hb1, hb2, match):
    """``match`` is a linear bijection of the bases carrying pair-sum fibers to fibers."""
    n = len(hb1)
    assert sorted(match) == list(range(n))
    assert sorted(match.values()) == list(range(n))
    images = [hb2[match[i]] for i in range(n)]
    # a linear map on the span exists iff the graph has the domain's rank,
    # and it is injective iff the image spans the same rank
    rank = linalg.rank(hb1)
    assert linalg.rank([tuple(g) + tuple(h) for g, h in zip(hb1, images)]) == rank
    assert linalg.rank(hb2) == rank

    def pair_sum(hb, i, j):
        return tuple(a + b for a, b in zip(hb[i], hb[j]))

    fibers = {}
    for i in range(n):
        for j in range(i, n):
            fibers.setdefault(pair_sum(hb1, i, j), []).append((i, j))
    targets = [{pair_sum(hb2, match[i], match[j]) for i, j in pairs} for pairs in fibers.values()]
    assert all(len(t) == 1 for t in targets)
    assert len({t.pop() for t in targets}) == len(fibers)


class TestBacktrackingSearch:
    def test_agrees_with_reference_on_census_pairs(self):
        bases = census_bases()
        pairs = matched = 0
        for b1, b2 in itertools.combinations_with_replacement(bases, 2):
            if len(b1) != len(b2):
                continue
            pairs += 1
            match = semigroup_isomorphism(b1, b2)
            assert (match is None) == (reference_isomorphism(b1, b2) is None), (b1, b2)
            if match is not None:
                matched += 1
                assert_monoid_isomorphism(b1, b2, match)
        # every basis matches itself, and the censuses hold real merges
        assert matched > len(bases)
        assert pairs > matched

    @given(st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_permuted_basis_matches(self, data):
        basis = data.draw(st.sampled_from(census_bases()))
        gens = data.draw(st.permutations(range(len(basis))))
        cols = data.draw(st.permutations(range(len(basis[0]))))
        permuted = [tuple(basis[g][c] for c in cols) for g in gens]
        match = semigroup_isomorphism(basis, permuted)
        assert match is not None
        assert_monoid_isomorphism(basis, permuted, match)
        assert facet_incidence(basis).key == facet_incidence(permuted).key

    def test_deadline_checked_at_every_node(self, monkeypatch):
        basis = max(census_bases(), key=len)
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return float(readings)

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        assert semigroup_isomorphism(basis, basis, deadline=1e9) is not None
        # one reading per node: the root and one per assigned base generator
        nodes = readings
        assert nodes > linalg.rank(basis)
        readings = 0
        with pytest.raises(BudgetExhaustedError):
            semigroup_isomorphism(basis, basis, deadline=nodes - 0.5)
        assert readings == nodes


def reference_key(incidence):
    """The bucket key, recomputed from the facet masks."""
    m, facets = incidence.generators, incidence.facets
    rows = [
        tuple(sorted(bin(f).count("1") for f in facets if f >> g & 1)) for g in range(m)
    ]
    return m, len(facets), tuple(sorted(rows))


def reference_type_classes(settings):
    """The grouping the incidence test replaced, kept as the reference partition.

    A verbatim copy of the former ``singular_type_classes`` without its
    budget: each all-ones setting is compared with the representatives whose
    bases have the same size and sorted pair-sum profiles, by
    ``semigroup_isomorphism``.
    """
    all_ones = [s for s in settings if all(d == 1 for d in s.dims)]
    undecided = [s for s in settings if any(d != 1 for d in s.dims)]
    # per invariant, the classes as (representative's basis, members)
    buckets: dict[tuple, list[tuple[list, list[MarkedQuiverSetting]]]] = {}
    for s in all_ones:
        basis = toric.invariant_generators(s)
        invariant = len(basis), tuple(sorted(toric._PairFibers(basis).profiles))
        bucket = buckets.setdefault(invariant, [])
        for rep_basis, group in bucket:
            if toric.semigroup_isomorphism(rep_basis, basis) is not None:
                group.append(s)
                break
        else:
            bucket.append((basis, [s]))
    out = [
        classification.SingularTypeClass(group[0], tuple(group), True)
        for bucket in buckets.values()
        for _, group in bucket
    ]
    out.extend(classification.SingularTypeClass(s, (s,), False) for s in undecided)
    out.sort(key=lambda c: canonical_key(c.representative))
    return out


class TestFacetIncidence:
    """Facets read off the zeros of the 0/1 invariant basis."""

    def test_conifold(self, conifold):
        # generators ac, ad, bc, bd; each arrow's zero set is a facet of two
        basis = invariant_generators(conifold)
        incidence = facet_incidence(basis)
        assert incidence.generators == 4
        assert sorted(incidence.facets) == sorted(
            sum(1 << g for g, u in enumerate(basis) if not u[a]) for a in range(4)
        )
        assert incidence.key == (4, 4, ((2, 2),) * 4)

    def test_agrees_with_rank_oracle(self):
        # a distinct proper zero set is a facet iff its generators span one
        # dimension less than the whole basis
        kinds = {"random": 0, "acyclic": 0, "disconnected": 0, "loops": 0, "parallel": 0}
        for kind, _, s in cycle_walk_settings(16, 240):
            basis = invariant_generators(s)
            m = len(basis)
            incidence = facet_incidence(basis)
            assert incidence.generators == m
            everyone = (1 << m) - 1
            zero_sets = {
                sum(1 << g for g, u in enumerate(basis) if not u[a]) for a in range(s.num_arrows)
            } - {everyone}
            r = linalg.rank(basis)
            oracle = {
                z
                for z in zero_sets
                if linalg.rank([u for g, u in enumerate(basis) if z >> g & 1]) == r - 1
            }
            assert sorted(incidence.facets) == sorted(oracle), s.dumps()
            if kind == "acyclic":
                assert basis == [] and incidence.facets == ()
            kinds[kind] += 1
            kinds["loops"] += any(s.arrows[v][v] for v in range(s.k))
            kinds["parallel"] += any(c > 1 for row in s.arrows for c in row)
        assert all(kinds.values()), kinds


class TestIncidenceIsomorphism:
    def test_agrees_with_semigroup_isomorphism_on_census_pairs(self):
        bases = census_bases()
        incidences = [facet_incidence(b) for b in bases]
        pairs = matched = 0
        for (b1, i1), (b2, i2) in itertools.combinations_with_replacement(
            zip(bases, incidences), 2
        ):
            if len(b1) != len(b2):
                continue
            pairs += 1
            match = incidence_isomorphism(i1, i2)
            assert (match is None) == (semigroup_isomorphism(b1, b2) is None), (b1, b2)
            if match is not None:
                matched += 1
                assert_monoid_isomorphism(b1, b2, match)
        assert matched > len(bases)
        assert pairs > matched

    @given(st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_permutations_keep_the_key_and_match(self, data):
        basis = data.draw(st.sampled_from(census_bases()))
        gens = data.draw(st.permutations(range(len(basis))))
        cols = data.draw(st.permutations(range(len(basis[0]))))
        permuted = [tuple(basis[g][c] for c in cols) for g in gens]
        first, second = facet_incidence(basis), facet_incidence(permuted)
        assert first.key == second.key
        match = incidence_isomorphism(first, second)
        assert match is not None
        assert_monoid_isomorphism(basis, permuted, match)

    def test_dim7_grouping_matches_reference(self):
        found = classification.enumerate_reduced_singular(7)
        classes = classification.singular_type_classes(found)
        assert len(classes) == 296
        assert classes == reference_type_classes(found)

    def test_one_clock_reading_per_node(self, monkeypatch):
        # matched with itself, every facet's first candidate is itself, so
        # the search runs straight down: the root and one node per facet
        incidence = facet_incidence(max(census_bases(), key=len))
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return float(readings)

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        match = incidence_isomorphism(incidence, incidence, deadline=1e9)
        assert match == {g: g for g in range(incidence.generators)}
        nodes = len(incidence.facets) + 1
        assert readings == nodes
        for stop in range(1, nodes + 1):
            readings = 0
            with pytest.raises(BudgetExhaustedError, match="incidence search"):
                incidence_isomorphism(incidence, incidence, deadline=stop - 0.5)
            assert readings == stop

    def test_without_deadline_reads_no_clock(self, monkeypatch):
        def no_clock():
            raise AssertionError("the clock is read without a deadline")

        incidences = [facet_incidence(b) for b in census_bases()]
        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=no_clock))
        for first, second in itertools.combinations(incidences, 2):
            incidence_isomorphism(first, second)


class TestGroupingCalls:
    def test_search_runs_only_on_equal_keys(self, monkeypatch):
        original = toric.incidence_isomorphism
        calls = []

        def counting(first, second, **kwargs):
            calls.append((first, second))
            return original(first, second, **kwargs)

        def no_search(*args, **kwargs):
            raise AssertionError("the grouping calls semigroup_isomorphism")

        monkeypatch.setattr(toric, "incidence_isomorphism", counting)
        monkeypatch.setattr(toric, "semigroup_isomorphism", no_search)
        classes = classification.singular_type_classes(
            classification.enumerate_reduced_singular(6)
        )
        assert len(classes) == 49
        assert calls
        assert all(reference_key(a) == reference_key(b) for a, b in calls)


class TestHilbertBasisAlgorithm:
    def test_against_bounded_brute_force(self):
        """Oracle: enumerate all bounded solutions and take the minimal ones.

        Within a norm bound B, minimality is decided completely (domination
        only ever involves smaller norms), so the completion must agree with
        the brute-force minimal set on that range.
        """
        rng = random.Random(44)
        bound = 6
        for _ in range(15):
            n = rng.randint(2, 4)
            rows = [
                [rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(1, 3))
            ]
            solutions = [
                u
                for u in itertools.product(range(bound + 1), repeat=n)
                if 0 < sum(u) <= bound
                and all(sum(r[i] * u[i] for i in range(n)) == 0 for r in rows)
            ]
            minimal = {
                u
                for u in solutions
                if not any(
                    v != u and all(a >= b for a, b in zip(u, v)) for v in solutions
                )
            }
            computed = {u for u in hilbert_basis(rows) if sum(u) <= bound}
            assert computed == minimal

    def test_simple_kernel(self):
        # x - y = 0 over N^2: basis {(1,1)}
        assert hilbert_basis([[1, -1]]) == [(1, 1)]

    def test_three_to_two(self):
        # 2x - 3y = 0: minimal solution (3, 2)
        assert hilbert_basis([[2, -3]]) == [(3, 2)]

    def test_zero_matrix(self):
        assert hilbert_basis([[0, 0]]) == [(0, 1), (1, 0)]

    def test_no_nontrivial_solutions(self):
        assert hilbert_basis([[1, 1]]) == []


def _reference_dominates(u, v):
    return all(a >= b for a, b in zip(u, v))


def reference_hilbert_basis(matrix):
    """The completion as it was written before the Gram recurrence, kept as an oracle."""
    _dominates = _reference_dominates
    rows = [tuple(r) for r in matrix]
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")

    def defect(u):
        return tuple(sum(r[i] * u[i] for i in range(n)) for r in rows)

    columns = [defect(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
    basis = []
    frontier = {}
    for i in range(n):
        u = tuple(1 if j == i else 0 for j in range(n))
        frontier[u] = columns[i]
    while frontier:
        next_frontier = {}
        for u, du in frontier.items():
            if all(x == 0 for x in du):
                basis.append(u)
                continue
            for i in range(n):
                if sum(a * b for a, b in zip(du, columns[i])) >= 0:
                    continue
                child = tuple(u[j] + (1 if j == i else 0) for j in range(n))
                if child in next_frontier:
                    continue
                if any(_dominates(child, b) for b in basis):
                    continue
                next_frontier[child] = tuple(a + b for a, b in zip(du, columns[i]))
        # prune against solutions found this round
        frontier = {
            u: du
            for u, du in next_frontier.items()
            if not any(_dominates(u, b) for b in basis)
        }
    return sorted(basis)


def complete_quiver(k: int) -> MarkedQuiverSetting:
    """The all-ones setting with one arrow between every ordered pair of vertices."""
    return MarkedQuiverSetting.make([1] * k, [[int(i != j) for j in range(k)] for i in range(k)])


class TestGramCompletion:
    def test_random_matrices_match_reference(self):
        rng = random.Random(71)
        not_unimodular = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            not_unimodular += any(abs(x) > 1 for r in rows for x in r)
            basis = hilbert_basis(rows)
            assert basis == reference_hilbert_basis(rows), rows
            assert check_hilbert_minimality(basis) == []
        assert not_unimodular > 100

    def test_graded_systems_match_reference(self):
        compared = 0
        for s, theta in random_charted_settings(73, 120, 3):
            rows = [row + [-x] for row, x in zip(toric._weight_rows(s), theta)]
            basis = hilbert_basis(rows)
            assert basis == reference_hilbert_basis(rows), (s.to_json(), theta)
            compared += len(basis) > 0
        assert compared > 100

    def test_census_weight_matrices_match_reference(self):
        settings = [
            s
            for d in (5, 6)
            for s in classification.enumerate_reduced_singular(d)
            if all(x == 1 for x in s.dims)
        ]
        assert len(settings) == 74
        for s in settings:
            rows = toric._weight_rows(s)
            assert hilbert_basis(rows) == reference_hilbert_basis(rows), s.to_json()

    @pytest.mark.parametrize("k,size", [(5, 84), (6, 409)])
    def test_complete_quivers(self, k, size):
        basis = hilbert_basis(toric._weight_rows(complete_quiver(k)))
        assert len(basis) == size
        assert check_hilbert_minimality(basis) == []

    def test_deadline_checked_once_per_round(self, monkeypatch):
        rows = toric._weight_rows(complete_quiver(4))
        basis = hilbert_basis(rows)
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return float(readings)

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        assert hilbert_basis(rows, deadline=1e9) == basis
        # a basis element of degree r is found in round r
        rounds = readings
        assert rounds >= max(sum(u) for u in basis) > 1
        readings = 0
        with pytest.raises(BudgetExhaustedError):
            hilbert_basis(rows, deadline=rounds - 0.5)
        assert readings == rounds

    def test_no_clock_without_deadline(self, monkeypatch):
        def no_clock():
            raise AssertionError("the clock is read without a deadline")

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=no_clock))
        assert len(hilbert_basis(toric._weight_rows(complete_quiver(5)))) == 84


def cycle_walk_settings(seed: int, count: int):
    """(kind, m, setting) for all-ones settings on k = 1..6 vertices with 0..10 arrows.

    The kinds rotate: "random" places arrows anywhere, so loops and parallel
    arrows occur; "acyclic" only from a lower to a higher vertex, parallel
    ones included; "disconnected" never between the first m vertices and
    the rest (m = k for the other kinds).
    """
    rng = random.Random(seed)
    for n in range(count):
        kind = ("random", "acyclic", "disconnected")[n % 3]
        k = rng.randint(1 if kind == "random" else 2, 6)
        m = rng.randint(1, k - 1) if kind == "disconnected" else k
        arrows = [[0] * k for _ in range(k)]
        for _ in range(rng.randint(0, 10)):
            i, j = rng.randrange(k), rng.randrange(k)
            if kind == "acyclic":
                if i == j:
                    continue
                i, j = min(i, j), max(i, j)
            elif kind == "disconnected" and (i < m) != (j < m):
                continue
            arrows[i][j] += 1
        yield kind, m, MarkedQuiverSetting.make([1] * k, arrows)


class TestCycleWalk:
    """The invariant generators are the simple directed cycles of the quiver."""

    def test_matches_hilbert_basis(self):
        loops = parallel = two_sided = 0
        for kind, m, s in cycle_walk_settings(83, 360):
            basis = invariant_generators(s)
            assert basis == hilbert_basis(toric._weight_rows(s)), s.to_json()
            if kind == "acyclic":
                assert basis == []
            loops += any(s.arrows[v][v] for v in range(s.k))
            parallel += any(c > 1 for row in s.arrows for c in row)
            # a cycle on each side of the cut
            below = [tail < m for tail, _ in toric._arrow_ends(s)]
            two_sided += {any(itertools.compress(u, below)) for u in basis} == {False, True}
        assert loops > 100 and parallel > 100 and two_sided > 10

    @pytest.mark.parametrize("k,size", [(5, 84), (6, 409), (7, 2365)])
    def test_complete_quiver_cycle_counts(self, k, size):
        s = complete_quiver(k)
        basis = invariant_generators(s)
        assert len(basis) == len(set(basis)) == size
        rows = toric._weight_rows(s)
        assert all(set(u) <= {0, 1} for u in basis)
        assert all(sum(map(mul, row, u)) == 0 for row in rows for u in basis)

    def test_degree_zero_part_of_semi_invariants(self):
        for s, theta in strongly_connected_settings(89, 150):
            gens = semi_invariant_generators(s, theta)
            assert [g.exponents for g in gens if not g.degree] == invariant_generators(s), (
                s.to_json(),
                theta,
            )

    @staticmethod
    def ticking_clock(monkeypatch):
        """A toric clock that reads 1, 2, 3, ... and the list of its readings."""
        readings = []

        def monotonic():
            readings.append(float(len(readings) + 1))
            return readings[-1]

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        return readings

    def test_reads_once_per_vertex_and_per_1024_cycles(self, monkeypatch):
        readings = self.ticking_clock(monkeypatch)
        assert len(invariant_generators(complete_quiver(7), deadline=1e9)) == 2365
        # 7 least vertices and the 1,024th and 2,048th cycles
        assert len(readings) == 7 + 2
        # parallel arrows count once per cycle they give: 40 arrows each way
        # between two vertices are 1,600 two-cycles
        readings.clear()
        s = MarkedQuiverSetting.make([1, 1], [[0, 40], [40, 0]])
        assert len(invariant_generators(s, deadline=1e9)) == 1600
        assert len(readings) == 2 + 1

    def test_deadline_stops_the_walk_inside_vertex_zero(self, monkeypatch):
        # 13,699 of the 16,064 cycles of the complete 8-vertex quiver pass
        # through vertex 0, so the walk from vertex 0 reads the clock 1 + 13
        # times; the 6th reading, after the 5,120th cycle, is past 5.5
        readings = self.ticking_clock(monkeypatch)
        with pytest.raises(BudgetExhaustedError, match="invariant cycles"):
            invariant_generators(complete_quiver(8), deadline=5.5)
        assert len(readings) == 6

    def test_no_clock_without_deadline(self, monkeypatch):
        def no_clock():
            raise AssertionError("the clock is read without a deadline")

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=no_clock))
        assert len(invariant_generators(complete_quiver(7))) == 2365


# ---------------------------------------------------------------------------
# King's test, the central fiber and the relations against the loops they
# replaced: the bitmask kernels must give the same verdicts, witnesses,
# strata and relations, in the same order


def reference_king_verdict(s, support, t):
    """King's test as it was written before the subset table, kept as an oracle."""
    verts = range(s.k)
    worst = None
    for size in range(1, s.k):
        for subset in itertools.combinations(verts, size):
            inside = set(subset)
            if any(a.tail in inside and a.head not in inside for a in support):
                continue
            value = sum(t[v] for v in subset)
            if worst is None or value < worst[0]:
                worst = (value, subset)
    if worst is None:
        return toric.StabilityVerdict(True, True, None)
    value, subset = worst
    if value < 0:
        return toric.StabilityVerdict(False, False, subset)
    if value == 0:
        return toric.StabilityVerdict(True, False, subset)
    return toric.StabilityVerdict(True, True, None)


def reference_undirected_connected(s, support):
    if s.k == 0:
        return False
    adj = {v: set() for v in range(s.k)}
    for a in support:
        adj[a.tail].add(a.head)
        adj[a.head].add(a.tail)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(range(s.k))


def reference_central_fiber(s, theta):
    """The central fiber as it was written before the bitmask loop, kept as an oracle."""
    _king_verdict = reference_king_verdict
    _undirected_connected = reference_undirected_connected
    FiberStratum = toric.FiberStratum
    t = tuple(theta)
    arrows = s.arrow_list()
    inv_supports = [
        frozenset(i for i, e in enumerate(u) if e)
        for u in invariant_generators(s)
    ]
    out = []
    for size in range(len(arrows) + 1):
        for idx in itertools.combinations(range(len(arrows)), size):
            chosen = frozenset(idx)
            if any(supp <= chosen for supp in inv_supports):
                continue
            support = frozenset(arrows[i] for i in idx)
            verdict = _king_verdict(s, support, t)
            if not verdict.semistable:
                continue
            touched = set()
            for a in support:
                touched.add(a.tail)
                touched.add(a.head)
            spanning = touched == set(range(s.k)) and _undirected_connected(s, support)
            out.append(
                FiberStratum(
                    support=idx,
                    stable=verdict.stable,
                    orbit_space_dim=(size - (s.k - 1)) if spanning else None,
                    non_free_action=not spanning,
                )
            )
    return out


def reference_toric_relations(generators, degree_bound=4):
    """The relations as they were written before the incremental images, kept as an oracle."""
    _dominates = _reference_dominates
    Relation = toric.Relation
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    gens = [tuple(g) for g in generators]
    ng = len(gens)
    if ng == 0:
        return []

    def image(mono):
        return tuple(
            sum(mono[i] * gens[i][a] for i in range(ng)) for a in range(len(gens[0]))
        )

    fibers = {}
    for total in range(1, degree_bound + 1):
        for combo in itertools.combinations_with_replacement(range(ng), total):
            mono = [0] * ng
            for i in combo:
                mono[i] += 1
            fibers.setdefault(image(tuple(mono)), []).append(tuple(mono))

    relations = []

    def connected(members):
        comp = {}
        for idx, m in enumerate(members):
            comp[m] = idx
        # one pass suffices: a merge relabels a whole component, so the two
        # ends of every move visited stay in one component from then on
        for m in members:
            for rel in relations:
                for src, dst in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
                    if _dominates(m, src):
                        m2 = tuple(a - b + c for a, b, c in zip(m, src, dst))
                        if m2 in comp and comp[m2] != comp[m]:
                            old, new = max(comp[m], comp[m2]), min(comp[m], comp[m2])
                            for key in comp:
                                if comp[key] == old:
                                    comp[key] = new
        groups = {}
        for m in members:
            groups.setdefault(comp[m], []).append(m)
        return [sorted(g) for g in groups.values()]

    order = sorted(
        (img for img, members in fibers.items() if len(members) > 1),
        key=lambda img: (min(sum(m) for m in fibers[img]), img),
    )
    for img in order:
        components = connected(fibers[img])
        if len(components) <= 1:
            continue
        reps = sorted(comp[0] for comp in components)
        for a, b in itertools.combinations(reps, 2):
            lhs, rhs = sorted((a, b))
            relations.append(Relation(lhs, rhs))
    return relations


def strongly_connected_settings(seed: int, count: int):
    """Strongly connected all-ones settings, k = 2..5, k..k+4 arrows (a few loops), with theta.

    theta has entries in {-1, 0, 1} and sum 0, so many vertex subsets tie.
    """
    rng = random.Random(seed)
    while count:
        k = 2 + count % 4
        arrows = [[0] * k for _ in range(k)]
        for _ in range(rng.randint(k, k + 4)):
            i = rng.randrange(k)
            j = i if rng.random() < 0.1 else rng.choice([v for v in range(k) if v != i])
            arrows[i][j] += 1
        s = MarkedQuiverSetting.make([1] * k, arrows)
        theta = [rng.choice((-1, 0, 1)) for _ in range(k)]
        if not strongly_connected(s) or sum(theta):
            continue
        count -= 1
        yield s, tuple(theta)


def assert_king_matches_reference(s, theta, supports):
    for support in supports:
        verdict = is_theta_semistable(s, support, theta)
        assert verdict == reference_king_verdict(s, frozenset(support), theta), (
            s.to_json(), theta, support,
        )


class TestBitmaskKernelsMatchReference:
    def test_random_settings(self):
        rng = random.Random(131)
        by_k = {k: 0 for k in range(2, 6)}
        tied = relations_found = 0
        for n, (s, theta) in enumerate(strongly_connected_settings(137, 240)):
            by_k[s.k] += 1
            values = [
                sum(theta[v] for v in subset)
                for size in range(1, s.k)
                for subset in itertools.combinations(range(s.k), size)
            ]
            tied += len(set(values)) < len(values)
            arrows = s.arrow_list()
            supports = [[], list(arrows)] + [
                [a for a in arrows if rng.random() < 0.5] for _ in range(6)
            ]
            assert_king_matches_reference(s, theta, supports)
            assert central_fiber(s, theta) == reference_central_fiber(s, theta), (
                s.to_json(), theta,
            )
            gens = invariant_generators(s)
            degree_bound = 1 + n % 4
            rels = toric_relations(gens, degree_bound)
            assert rels == reference_toric_relations(gens, degree_bound), (
                s.to_json(), degree_bound,
            )
            relations_found += bool(rels)
        assert min(by_k.values()) == 60
        # ties need k >= 3 or theta = 0
        assert tied > 150 and relations_found > 40

    @pytest.mark.parametrize("theta", [(-1, 1), (1, -1), (0, 0), (-2, 2)])
    def test_conifold(self, conifold, theta):
        arrows = conifold.arrow_list()
        supports = [
            [a for i, a in enumerate(arrows) if mask >> i & 1] for mask in range(1 << len(arrows))
        ]
        assert_king_matches_reference(conifold, theta, supports)
        assert central_fiber(conifold, theta) == reference_central_fiber(conifold, theta)
        gens = invariant_generators(conifold)
        for degree_bound in range(1, 5):
            assert toric_relations(gens, degree_bound) == reference_toric_relations(
                gens, degree_bound
            )

    @pytest.mark.parametrize("theta", [(1, 1, 1, -3), (1, -1, 0, 0), (1, 1, -1, -1), (0, 0, 0, 0)])
    def test_complete_4_vertex_fiber(self, theta):
        s = complete_quiver(4)
        rng = random.Random(sum(theta) + 7)
        arrows = s.arrow_list()
        supports = [[a for a in arrows if rng.random() < 0.3] for _ in range(50)]
        assert_king_matches_reference(s, theta, supports)
        assert central_fiber(s, theta) == reference_central_fiber(s, theta)

    def test_complete_4_vertex_relations(self):
        gens = invariant_generators(complete_quiver(4))
        assert len(gens) == 20
        rels = toric_relations(gens, 4)
        assert len(rels) == 61
        assert rels == reference_toric_relations(gens, 4)


class TestRelationsDeadline:
    @staticmethod
    def visited_fibers(gens, degree_bound):
        """The fibers of the monomial image map that hold more than one monomial."""
        images = {}
        for total in range(1, degree_bound + 1):
            for combo in itertools.combinations_with_replacement(range(len(gens)), total):
                image = tuple(sum(gens[i][a] for i in combo) for a in range(len(gens[0])))
                images[image] = images.get(image, 0) + 1
        return sum(count > 1 for count in images.values())

    def test_deadline_checked_once_per_degree_and_fiber(self, dim4_double_triangle, monkeypatch):
        gens = invariant_generators(dim4_double_triangle)
        expected = toric_relations(gens, 3)
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return 0.0

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        assert toric_relations(gens, 3, deadline=1.0) == expected
        assert readings == 3 + self.visited_fibers(gens, 3)

    def test_deadline_stops_the_relations(self, monkeypatch):
        # the clock passes the deadline at its 10th reading, well inside the
        # thousands of fibers of the complete 4-vertex quiver at degree 4
        gens = invariant_generators(complete_quiver(4))
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return float(readings)

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        with pytest.raises(BudgetExhaustedError, match="relations"):
            toric_relations(gens, 4, deadline=9.5)
        assert readings == 10

    def test_without_deadline_reads_no_clock(self, conifold, monkeypatch):
        gens = invariant_generators(conifold)

        def no_clock():
            raise AssertionError("the clock is read without a deadline")

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=no_clock))
        assert len(toric_relations(gens, 4)) == 1

    def test_report_budget_runs_out_inside_the_relations(self, monkeypatch):
        # the clock ticks one second per reading: the report reads it once to
        # set its deadline and the Hilbert basis once per round, so a budget
        # of rounds + 1/2 seconds lets the basis finish and stops the
        # relations at their first check
        s = complete_quiver(4)
        readings = 0

        def monotonic():
            nonlocal readings
            readings += 1
            return float(readings)

        monkeypatch.setattr(toric, "time", SimpleNamespace(monotonic=monotonic))
        invariant_generators(s, deadline=1e9)
        rounds, readings = readings, 0
        with pytest.raises(BudgetExhaustedError, match="relations"):
            toric.toric_report(s, "relations", degree_bound=4, budget_secs=rounds + 0.5)
        assert readings == 1 + rounds + 1
