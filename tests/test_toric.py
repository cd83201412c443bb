"""Hilbert bases, binomial relations, stability, charts, fibers, determinants."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from qsing import classification, linalg, toric
from qsing.core import MarkedQuiverSetting, Representation, strongly_connected
from qsing.errors import (
    BudgetExhaustedError,
    EmptyProjError,
    ShapeError,
    UnsupportedSettingError,
)
from qsing.toric import (
    DeterminantalMatrix,
    block_diagonal,
    central_fiber,
    check_hilbert_minimality,
    evaluate_determinantal_semi_invariant,
    hilbert_basis,
    invariant_generators,
    is_theta_semistable,
    isomorphism_invariant,
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
        rep = Representation.from_scalars(conifold, {arrows[0]: Fraction(2)})
        assert is_theta_semistable(conifold, rep, (-1, 1)).stable
        assert semistable_via_semiinvariants(conifold, rep, (-1, 1))

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

    def test_one_hilbert_basis_per_call(self, monkeypatch):
        original = toric.hilbert_basis
        calls = 0

        def counting(matrix):
            nonlocal calls
            calls += 1
            return original(matrix)

        monkeypatch.setattr(toric, "hilbert_basis", counting)
        kronecker = MarkedQuiverSetting.make([1, 1], [[0, 2], [0, 0]])
        cases = [(kronecker, (-2, 2)), (kronecker, (3, -3))]
        cases += list(random_charted_settings(59, 20, 2))
        for s, theta in cases:
            calls = 0
            try:
                proj_charts(s, theta)
            except EmptyProjError:
                pass
            assert calls == 1, (s.to_json(), theta)

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

    def test_everything_unstable_for_bad_theta(self):
        # two disjoint doubled 2-cycles cannot be connected-support stable
        s = MarkedQuiverSetting.make([1, 1], [[0, 2], [2, 0]])
        strata = central_fiber(s, (-1, 1))
        assert all(f.support for f in strata)


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
    R, base_idx, d, _ = linalg.rref(list(zip(*hb1)))
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
        assert isomorphism_invariant(basis) == isomorphism_invariant(permuted)

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


class TestGroupingCalls:
    def test_search_runs_only_on_equal_invariants(self, monkeypatch):
        original = toric.semigroup_isomorphism
        calls = []

        def counting(basis1, basis2, **kwargs):
            calls.append((basis1, basis2))
            return original(basis1, basis2, **kwargs)

        monkeypatch.setattr(toric, "semigroup_isomorphism", counting)
        classes = classification.singular_type_classes(
            classification.enumerate_reduced_singular(6)
        )
        assert len(classes) == 49
        assert calls

        def invariant(basis):
            return len(basis), sorted(reference_profiles(basis))

        assert all(invariant(b1) == invariant(b2) for b1, b2 in calls)


class TestDeterminantal:
    def test_single_arrow_entry(self, conifold):
        arrows = conifold.arrow_list()
        rep = Representation.from_scalars(
            conifold, {arrows[0]: Fraction(5), arrows[2]: Fraction(7)}
        )
        L = DeterminantalMatrix.make(
            row_vertices=[1],
            col_vertices=[0],
            entries=[[[(1, [arrows[0]])]]],
            weight=1,
        )
        assert evaluate_determinantal_semi_invariant(L, rep) == 5

    def test_identity_diagonal(self, conifold):
        rep = Representation.from_scalars(conifold, {})
        L = DeterminantalMatrix.make(
            row_vertices=[0, 1],
            col_vertices=[0, 1],
            entries=[[[(1, [])], []], [[], [(1, [])]]],
        )
        assert evaluate_determinantal_semi_invariant(L, rep) == 1

    def test_diagonal_product(self, conifold):
        arrows = conifold.arrow_list()
        rep = Representation.from_scalars(
            conifold, {arrows[0]: Fraction(2), arrows[1]: Fraction(3)}
        )
        L = DeterminantalMatrix.make(
            row_vertices=[1, 1],
            col_vertices=[0, 0],
            entries=[
                [[(1, [arrows[0]])], []],
                [[], [(1, [arrows[1]])]],
            ],
        )
        assert evaluate_determinantal_semi_invariant(L, rep) == 6

    def test_block_diagonal_multiplicative(self, conifold):
        arrows = conifold.arrow_list()
        rng = random.Random(8)
        for _ in range(10):
            rep = Representation.from_scalars(
                conifold,
                {a: Fraction(rng.randint(-4, 4)) for a in arrows},
            )
            l1 = DeterminantalMatrix.make(
                [1], [0], [[[(1, [arrows[0]]), (2, [arrows[1]])]]]
            )
            l2 = DeterminantalMatrix.make(
                [0], [1], [[[(1, [arrows[2]]), (-1, [arrows[3]])]]]
            )
            combined = block_diagonal(l1, l2)
            assert evaluate_determinantal_semi_invariant(
                combined, rep
            ) == evaluate_determinantal_semi_invariant(
                l1, rep
            ) * evaluate_determinantal_semi_invariant(l2, rep)

    def test_path_endpoint_validation(self, conifold):
        arrows = conifold.arrow_list()
        with pytest.raises(ShapeError):
            DeterminantalMatrix.make([0], [0], [[[(1, [arrows[0]])]]])

    def test_non_square_rejected(self, conifold):
        arrows = conifold.arrow_list()
        L = DeterminantalMatrix.make(
            [1], [0, 0], [[[(1, [arrows[0]])], [(1, [arrows[1]])]]]
        )
        rep = Representation.from_scalars(conifold, {arrows[0]: 1})
        with pytest.raises(ShapeError):
            evaluate_determinantal_semi_invariant(L, rep)

    def test_longer_paths(self, conifold):
        arrows = conifold.arrow_list()
        a, c = arrows[0], arrows[2]
        rep = Representation.from_scalars(
            conifold, {a: Fraction(2), c: Fraction(3)}
        )
        # cycle 0 -> 1 -> 0 as a single entry from vertex 0 to itself
        L = DeterminantalMatrix.make([0], [0], [[[(1, [a, c])]]])
        assert evaluate_determinantal_semi_invariant(L, rep) == 6


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
