"""Normal forms, center, Clifford identities, and the 2-dimensional scheme."""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from qsing import linalg
from qsing.conifold import (
    BASIS,
    CenterPoly,
    ConifoldElement,
    ONE,
    POLY_X,
    POLY_Y,
    POLY_Z,
    TernaryForm,
    X,
    Y,
    Z,
    ZERO,
    _scaled_point,
    clifford_check,
    commutator_element,
    evaluate_at_point,
    is_central,
    multiply,
    rewrite_critical_pairs,
    trep2_jacobian_rank,
    trep2_residuals,
    trep2_sample,
    verification_battery,
)
from qsing.cli import main
from qsing.errors import QsingError


def random_element(rng: random.Random, max_terms: int = 2) -> ConifoldElement:
    coeffs = {}
    for word in rng.sample(BASIS, rng.randint(1, 4)):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = tuple(rng.randint(0, 1) for _ in range(3))
            terms[mono] = Fraction(rng.randint(-3, 3))
        poly = CenterPoly.from_dict(terms)
        if not poly.is_zero:
            coeffs[word] = poly
    return ConifoldElement(coeffs)


# rational elements: up to 8 words, up to 3 terms each, denominators 1-9;
# an empty draw is the zero element
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(monomials, rationals, max_size=3).map(CenterPoly.from_dict)
rational_elements = st.dictionaries(st.sampled_from(BASIS), polys, max_size=8).map(ConifoldElement)


def reference_combination(*parts: tuple[CenterPoly, ConifoldElement]) -> ConifoldElement:
    """The sum of p * e over the (p, e) parts, word by word in CenterPoly arithmetic.

    This is the ``Fraction`` path that sums, negation and center scaling took
    before they moved to the integer form, kept as an oracle.
    """
    data = {}
    for poly, element in parts:
        for word, coef in element.coeffs.items():
            data[word] = data.get(word, ZERO) + coef * poly
    return ConifoldElement(data)


def reference_multiply(a: ConifoldElement, b: ConifoldElement) -> ConifoldElement:
    """Word by word: reduce each concatenated word, sum with CenterPoly arithmetic."""
    return reference_combination(
        *[
            (p1 * p2, ConifoldElement.from_word(w1 + w2))
            for w1, p1 in a.coeffs.items()
            for w2, p2 in b.coeffs.items()
        ]
    )


@functools.cache
def reference_basis_product(w1: str, w2: str):
    """The normal form of the word w1 w2 as (word, integer terms) pairs."""
    return tuple(
        (word, tuple((mono, c.numerator) for mono, c in poly.terms))
        for word, poly in ConifoldElement.from_word(w1 + w2).coeffs.items()
    )


def reference_integer_terms(a: ConifoldElement):
    """The lcm D of a's coefficient denominators, and a's terms as numerators over D."""
    den = math.lcm(*(c.denominator for poly in a.coeffs.values() for _, c in poly.terms))
    return den, [
        (word, [(mono, c.numerator * (den // c.denominator)) for mono, c in poly.terms])
        for word, poly in a.coeffs.items()
    ]


def reference_integer_multiply(a: ConifoldElement, b: ConifoldElement) -> ConifoldElement:
    """The tuple-monomial integer kernel that the packed kernel replaced, kept as an oracle.

    The product is computed over the integers: with a = A / D_a and
    b = B / D_b for integral A and B, the integral product table gives
    A * B, and each of its coefficients is divided by D_a * D_b once.
    """
    den_a, terms_a = reference_integer_terms(a)
    den_b, terms_b = reference_integer_terms(b)
    acc = {}
    for w1, t1 in terms_a:
        for w2, t2 in terms_b:
            factor = {}
            for (i1, j1, k1), c1 in t1:
                for (i2, j2, k2), c2 in t2:
                    mono = (i1 + i2, j1 + j2, k1 + k2)
                    factor[mono] = factor.get(mono, 0) + c1 * c2
            for word, poly in reference_basis_product(w1, w2):
                out = acc.setdefault(word, {})
                for (i1, j1, k1), c1 in factor.items():
                    for (i2, j2, k2), c2 in poly:
                        mono = (i1 + i2, j1 + j2, k1 + k2)
                        out[mono] = out.get(mono, 0) + c1 * c2
    den = den_a * den_b
    return ConifoldElement(
        {
            word: CenterPoly(tuple(sorted((m, Fraction(n, den)) for m, n in out.items() if n)))
            for word, out in acc.items()
        }
    )


def dense_element(rng: random.Random) -> ConifoldElement:
    """All 8 words, 3 terms each of total degree <= 2, rational coefficients."""
    monos = [m for m in itertools.product(range(3), repeat=3) if sum(m) <= 2]
    coeffs = {}
    for word in BASIS:
        terms = {
            mono: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            for mono in rng.sample(monos, 3)
        }
        coeffs[word] = CenterPoly.from_dict(terms)
    return ConifoldElement(coeffs)


def assert_exact_product(product: ConifoldElement, expected: ConifoldElement):
    """Same words, and per word the same terms in the same order, all Fractions over int exponents."""
    assert product.coeffs.keys() == expected.coeffs.keys()
    for word, poly in product.coeffs.items():
        assert poly.terms == expected.coeffs[word].terms
        monos = [m for m, _ in poly.terms]
        assert all(m1 < m2 for m1, m2 in zip(monos, monos[1:]))
        assert all(type(c) is Fraction for _, c in poly.terms)
        assert all(type(e) is int for m in monos for e in m)


def assert_canonical(element: ConifoldElement):
    """gcd(den, numerators) = 1, no zero terms or words, sorted monomials, and the true top degree."""
    den, top, terms = element.integer_form
    numerators = [n for t in terms.values() for _, n in t]
    assert den > 0 and math.gcd(den, *numerators) == 1
    assert all(numerators) and all(terms.values())
    for t in terms.values():
        monos = [m for m, _ in t]
        assert monos == sorted(set(monos))
    assert top == max((sum(m) for t in terms.values() for m, _ in t), default=0)


def mat_mul2(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2))
        for i in range(2)
    )


def scaled_jacobian(P):
    """q times the Jacobian at the point P / q (its entries are linear)."""
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = P
    return [
        [2 * z1, z3, z2, 0, 0, 0, 2 * x1, x3, x2],
        [0, 0, 0, 2 * z1, z3, z2, 2 * y1, y3, y2],
        [0, 0, 0, 0, 0, 0, 2 * z1, z3, z2],
    ]


def trep2_jacobian(point):
    """The 3 x 9 Jacobian of the defining equations at a point."""
    q, P = _scaled_point(point)
    return [[Fraction(v, q) for v in row] for row in scaled_jacobian(P)]


def trep2_matrices(point):
    """The trace-zero 2x2 images of X, Y, Z at a point of the scheme."""
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = (Fraction(v) for v in point)
    return {
        "X": ((x1, x2), (x3, -x1)),
        "Y": ((y1, y2), (y3, -y1)),
        "Z": ((z1, z2), (z3, -z1)),
    }


class TestRewriting:
    def test_zx_anticommutes(self):
        assert ConifoldElement.from_word("ZX") == -multiply(X, Z)

    def test_yx_gives_center_shift(self):
        expected = ConifoldElement.from_center(POLY_Z.scale(2)) - multiply(X, Y)
        assert ConifoldElement.from_word("YX") == expected

    def test_squares_drop_to_center(self):
        assert ConifoldElement.from_word("XX") == ConifoldElement.from_center(POLY_X)
        assert ConifoldElement.from_word("YY") == ConifoldElement.from_center(POLY_Y)
        assert ConifoldElement.from_word("ZZ") == ConifoldElement.one()

    def test_critical_pairs_confluent(self):
        assert rewrite_critical_pairs() == []

    def test_normal_forms_live_in_basis(self):
        rng = random.Random(2)
        for _ in range(30):
            word = "".join(rng.choice("XYZ") for _ in range(rng.randint(0, 8)))
            element = ConifoldElement.from_word(word)
            assert set(element.coeffs) <= set(BASIS)

    def test_evaluation_oracle(self):
        """Normal forms agree with direct matrix products in 2-dim representations."""
        rng = random.Random(14)
        points = trep2_sample(6, seed=31)
        for _ in range(40):
            word = "".join(rng.choice("XYZ") for _ in range(rng.randint(1, 8)))
            element = ConifoldElement.from_word(word)
            for point in points:
                mats = trep2_matrices(point)
                direct = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
                for letter in word:
                    direct = mat_mul2(direct, mats[letter])
                assert evaluate_at_point(element, point) == direct


class TestMultiplication:
    def test_xy_times_z(self):
        xy = multiply(X, Y)
        assert multiply(xy, Z) == ConifoldElement.from_word("XYZ")

    def test_unit_law(self):
        rng = random.Random(4)
        one = ConifoldElement.one()
        for _ in range(20):
            a = random_element(rng)
            assert multiply(one, a) == a
            assert multiply(a, one) == a

    def test_commutator_square(self):
        d = commutator_element()
        expected = ConifoldElement.from_center(
            (POLY_Z * POLY_Z - POLY_X * POLY_Y).scale(4)
        )
        assert multiply(d, d) == expected

    def test_associativity_sample(self):
        rng = random.Random(6)
        for _ in range(60):
            a, b, c = (random_element(rng) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_basis_products_close(self):
        elements = {
            w: ConifoldElement.from_word(w) if w else ConifoldElement.one() for w in BASIS
        }
        for w1, e1 in elements.items():
            for w2, e2 in elements.items():
                product = multiply(e1, e2)
                assert set(product.coeffs) <= set(BASIS)
                rebuilt = ConifoldElement.zero()
                for word, poly in product.coeffs.items():
                    rebuilt = rebuilt + elements[word].scale_poly(poly)
                assert rebuilt == product

    def test_products_against_representation(self):
        rng = random.Random(21)
        points = trep2_sample(4, seed=9)
        for _ in range(20):
            a, b = random_element(rng), random_element(rng)
            ab = multiply(a, b)
            for point in points:
                lhs = evaluate_at_point(ab, point)
                rhs = mat_mul2(
                    evaluate_at_point(a, point), evaluate_at_point(b, point)
                )
                assert lhs == rhs


class TestRationalMultiplication:
    """``multiply`` clears denominators; these operands are not integral."""

    @given(rational_elements, rational_elements)
    @example(ConifoldElement.zero(), X.scale_poly(CenterPoly.constant(Fraction(2, 3))))
    @example(Y.scale_poly(POLY_X.scale(Fraction(-5, 7))), ConifoldElement.zero())
    @hyp_settings(max_examples=150, deadline=None)
    def test_agrees_with_reference(self, a, b):
        product = multiply(a, b)
        expected = reference_multiply(a, b)
        assert product == expected
        assert str(product) == str(expected)

    def test_operands_over_different_denominators(self):
        half_x = X.scale_poly(CenterPoly.constant(Fraction(1, 2)))
        third_y = Y.scale_poly(CenterPoly.constant(Fraction(1, 3)))
        fifth_y = Y.scale_poly(CenterPoly.constant(Fraction(1, 5)))
        # (X/2 + Y/3) * Y/5 = XY/10 + y/15
        expected = ConifoldElement(
            {"": POLY_Y.scale(Fraction(1, 15)), "XY": CenterPoly.constant(Fraction(1, 10))}
        )
        assert multiply(half_x + third_y, fifth_y) == expected
        assert multiply(half_x, third_y) == ConifoldElement({"XY": CenterPoly.constant(Fraction(1, 6))})

    @given(rational_elements, rational_elements)
    @hyp_settings(max_examples=40, deadline=None)
    def test_products_that_cancel(self, a, b):
        # (1 + Z)(1 - Z) = 1 - Z^2 = 0, so a (1 + Z) * (1 - Z) b cancels to zero
        one = ConifoldElement.one()
        left, right = multiply(a, one + Z), multiply(one - Z, b)
        assert multiply(left, right).is_zero
        assert reference_multiply(left, right).is_zero

    def test_dense_triples_match_the_tuple_kernel(self):
        rng = random.Random(2111)
        for _ in range(4):
            a, b, c = (dense_element(rng) for _ in range(3))
            ab, bc = multiply(a, b), multiply(b, c)
            for left, right, product in (
                (a, b, ab),
                (b, c, bc),
                (ab, c, multiply(ab, c)),
                (a, bc, multiply(a, bc)),
            ):
                expected = reference_integer_multiply(left, right)
                assert list(product.coeffs) == list(expected.coeffs)
                assert_exact_product(product, expected)

    def test_basis_products_shift_by_at_most_one_per_variable(self):
        # the kernel's packing width allows one extra degree per variable
        # from a basis product, each coefficient a single integral term
        for w1, w2 in itertools.product(BASIS, repeat=2):
            for poly in ConifoldElement.from_word(w1 + w2).coeffs.values():
                ((mono, coef),) = poly.terms
                assert max(mono) <= 1 and coef.denominator == 1

    @pytest.mark.parametrize("exponent", [2**20 - 1, 2**21, 2**40, 2**70])
    def test_wide_exponents_and_coefficients(self, exponent):
        # a packing of fixed width would carry between exponent fields here
        big = 2**64 + 13
        wide = ConifoldElement(
            {
                "": CenterPoly.from_dict({(exponent, 0, 0): big}),
                "XY": CenterPoly.from_dict(
                    {(exponent, 0, 1): Fraction(big, 7), (0, exponent, 0): -big, (1, 1, exponent): Fraction(3, big)}
                ),
                "YZ": CenterPoly.from_dict({(exponent, exponent, exponent): big**2}),
            }
        )
        small = dense_element(random.Random(exponent))
        for a, b in ((wide, small), (small, wide), (wide, wide), (wide, X + Y)):
            product = multiply(a, b)
            assert_exact_product(product, reference_multiply(a, b))
            assert_exact_product(product, reference_integer_multiply(a, b))

    def test_cancellation_across_word_pairs(self):
        # X*Y = XY and Y*X = 2z - XY: the XY terms of two word pairs cancel
        square = multiply(X + Y, X + Y)
        assert "XY" not in square.coeffs
        assert_exact_product(square, ConifoldElement.from_center(POLY_X + POLY_Y + POLY_Z.scale(2)))
        one = ConifoldElement.one()
        assert multiply(one + Z, one - Z).coeffs == {}
        half = X.scale_poly(POLY_Y.scale(Fraction(1, 2)))
        for a, b in ((ConifoldElement.zero(), half), (half, ConifoldElement.zero())):
            assert multiply(a, b).coeffs == {}
        assert multiply(ConifoldElement.zero(), ConifoldElement.zero()).coeffs == {}

    def test_integral_products_hold_fractions(self):
        rng = random.Random(2113)
        for _ in range(30):
            a, b = random_element(rng), random_element(rng)
            product = multiply(a, b)
            assert_exact_product(product, reference_integer_multiply(a, b))
            assert all(c.denominator == 1 for p in product.coeffs.values() for _, c in p.terms)

    @given(rational_elements, rational_elements, rational_elements)
    @hyp_settings(max_examples=40, deadline=None)
    def test_associative_and_distributive(self, a, b, c):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)
        assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)


class TestCenter:
    def test_polynomial_center(self):
        for poly in (POLY_X, POLY_Y, POLY_Z):
            assert is_central(ConifoldElement.from_center(poly))

    def test_commutator_central(self):
        assert is_central(commutator_element())

    def test_generators_not_central(self):
        for el in (X, Y, Z, multiply(X, Y), multiply(X, Z), multiply(Y, Z)):
            assert not is_central(el)

    def test_center_is_polynomials_plus_d(self):
        rng = random.Random(10)
        d = commutator_element()
        for _ in range(15):
            p = CenterPoly.from_dict(
                {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3)}
            )
            q = CenterPoly.from_dict(
                {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3)}
            )
            candidate = ConifoldElement.from_center(p) + d.scale_poly(q)
            assert is_central(candidate)


class TestClifford:
    def test_generator_pairs(self):
        for v in (X, Y, Z):
            for w in (X, Y, Z):
                assert clifford_check(v, w)

    def test_random_span_combinations(self):
        rng = random.Random(15)
        for _ in range(25):
            def combo():
                return (
                    X.scale_poly(CenterPoly.constant(rng.randint(-3, 3)))
                    + Y.scale_poly(CenterPoly.constant(rng.randint(-3, 3)))
                    + Z.scale_poly(CenterPoly.constant(rng.randint(-3, 3)))
                )

            assert clifford_check(combo(), combo())

    def test_rejects_elements_outside_span(self):
        with pytest.raises(QsingError):
            clifford_check(multiply(X, Y), X)

    def test_form_determinant(self):
        det = TernaryForm().determinant()
        assert det == POLY_X * POLY_Y - POLY_Z * POLY_Z

    def test_one_dimensional_representations(self):
        # X, Y -> 0 and Z -> +-1 satisfy all five defining relations
        for sign in (1, -1):
            x, y, z = Fraction(0), Fraction(0), Fraction(sign)
            assert z * z == 1
            assert x * z + z * x == 0
            assert y * z + z * y == 0
            assert x * x * y == y * x * x
            assert y * y * x == x * y * y


class TestTrep2:
    def test_sample_check_survives_optimize(self):
        # a sampled point off the scheme raises under python -O too
        code = (
            "import qsing.conifold as c\n"
            "c._scaled_residuals = lambda q, P: (1, 0, 0)\n"
            "c.trep2_sample(1)\n"
        )
        repo = Path(__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, cwd=repo)
        assert proc.returncode == 1
        assert "AssertionError: sampled point" in proc.stderr

    def test_sample_point_from_worked_example(self):
        point = (0, 1, 1, 0, 1, -1, 1, 0, 0)
        assert trep2_residuals(point) == (0, 0, 0)
        assert trep2_jacobian_rank(point) == 3

    def test_zero_xy_point(self):
        point = (0, 0, 0, 0, 0, 0, 1, 0, 0)
        assert trep2_residuals(point) == (0, 0, 0)
        assert trep2_jacobian_rank(point) == 3

    def test_samples_exact_and_rank_three(self):
        points = trep2_sample(100, seed=5)
        assert len(points) == 100
        for point in points:
            assert trep2_residuals(point) == (0, 0, 0)
            assert trep2_jacobian_rank(point) == 3

    def test_chart_rotation_hits_z1_zero(self):
        points = trep2_sample(25, seed=1)
        assert any(p[6] == 0 for p in points)

    def test_off_scheme_rejected(self):
        with pytest.raises(QsingError):
            trep2_jacobian_rank((1, 0, 0, 0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("z1", [1 + Fraction(1, 10**12), 1 + 1e-12])
    def test_nearly_on_scheme_rejected(self, z1):
        # the residual z1^2 - 1 is about 2e-12, below any float tolerance
        # like 1e-9, but the point is off the scheme
        with pytest.raises(QsingError, match="not on the scheme"):
            trep2_jacobian_rank((0, 0, 0, 0, 0, 0, z1, 0, 0))

    def test_jacobian_by_finite_differences(self):
        """Oracle: exact central differences (the equations are quadratic)."""
        points = trep2_sample(5, seed=77)
        h = Fraction(1, 3)
        for point in points:
            jac = trep2_jacobian(point)
            for col in range(9):
                plus = list(point)
                minus = list(point)
                plus[col] += h
                minus[col] -= h
                for row in range(3):
                    fd = (
                        trep2_residuals(plus)[row] - trep2_residuals(minus)[row]
                    ) / (2 * h)
                    assert jac[row][col] == fd


def reference_trep2_sample(count: int, seed: int = 0):
    """The sampler in Fraction arithmetic, drawing from the generator in the same order."""
    rng = random.Random(seed)

    def nonzero_fraction():
        while True:
            num = rng.randint(-4, 4)
            if num:
                return Fraction(num, rng.randint(1, 4))

    def any_fraction():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    points = []
    for n in range(count):
        if n % 5 == 4:
            z1 = Fraction(0)
            z2 = nonzero_fraction()
            z3 = 1 / z2
            x1, x2 = any_fraction(), any_fraction()
            y1, y2 = any_fraction(), any_fraction()
            x3 = -x2 * z3 / z2
            y3 = -y2 * z3 / z2
        else:
            z1 = nonzero_fraction()
            z2 = any_fraction()
            z3 = (1 - z1 * z1) / z2 if z2 else Fraction(0)
            if not z2:
                z1 = Fraction(rng.choice([-1, 1]))
                z3 = any_fraction()
            x2, x3 = any_fraction(), any_fraction()
            y2, y3 = any_fraction(), any_fraction()
            x1 = -(x2 * z3 + x3 * z2) / (2 * z1)
            y1 = -(y2 * z3 + y3 * z2) / (2 * z1)
        points.append((x1, x2, x3, y1, y2, y3, z1, z2, z3))
    return points


class TestIntegerSampler:
    """The sampler solves its charts in integers and returns the Fraction sampler's points."""

    @pytest.mark.parametrize("count", [1, 5, 137])
    def test_matches_fraction_sampler(self, count):
        for seed in range(21):
            points = trep2_sample(count, seed)
            assert points == reference_trep2_sample(count, seed)
            assert all(type(v) is Fraction for p in points for v in p)

    def test_z2_zero_branch_is_reached(self):
        # z2 = 0 occurs only in the z1 != 0 chart, which then sets z1 = +-1
        hits = [p for seed in range(21) for p in trep2_sample(137, seed) if p[7] == 0]
        assert {p[6] for p in hits} == {-1, 1}
        assert all(trep2_residuals(p) == (0, 0, 0) for p in hits)


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


# hand-built points of each chart: z1, z2 != 0; z1 = -1 with z2 = 0; z1 = 0;
# and z1 = 1 with z2 = z3 = 0, where only v_0 = 2 z1 is nonzero
HAND_BUILT_POINTS = [
    (Fraction(-25, 4), 1, 2, 3, 0, -1, Fraction(1, 2), 3, Fraction(1, 4)),
    (Fraction(7, 3), 2, 5, 0, 0, 1, -1, 0, Fraction(7, 3)),
    (5, 1, Fraction(-1, 4), 0, -3, Fraction(3, 4), 0, 2, Fraction(1, 2)),
    (0, 1, 1, 0, 1, -1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
]


class TestJacobianRankLemma:
    """The rank is 3 on the scheme, read off the block structure of q J."""

    @staticmethod
    def assert_rank_three(point):
        assert trep2_residuals(point) == (0, 0, 0)
        jac = scaled_jacobian(_scaled_point(point)[1])
        assert trep2_jacobian_rank(point) == linalg.rank(jac) == 3
        # v = (2 z1, z3, z2) in the blocks 0-2, 3-5, 6-8 of the three rows, zeros left of it
        v = jac[2][6:]
        assert jac[0][:3] == jac[1][3:6] == v and jac[1][:3] + jac[2][:6] == [0] * 9
        t = next(t for t in range(3) if v[t])
        assert det3([[row[t], row[3 + t], row[6 + t]] for row in jac]) == v[t] ** 3

    @pytest.mark.parametrize("seed", [0, 3, 11, 424])
    def test_sampled_points(self, seed):
        for point in trep2_sample(60, seed):
            self.assert_rank_three(point)

    @pytest.mark.parametrize("point", HAND_BUILT_POINTS)
    def test_hand_built_points(self, point):
        self.assert_rank_three(point)

    def test_no_elimination_runs(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the rank ran an elimination")

        monkeypatch.setattr(linalg, "rank", forbidden)
        monkeypatch.setattr(linalg, "rref", forbidden)
        assert all(trep2_jacobian_rank(p) == 3 for p in trep2_sample(50, seed=2))
        assert verification_battery(seed=2, triples=5, points=50)["all_passed"]


def reference_residuals(point):
    """The defining equations in Fraction arithmetic."""
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = (Fraction(v) for v in point)
    return (
        2 * x1 * z1 + x2 * z3 + x3 * z2,
        2 * y1 * z1 + y2 * z3 + y3 * z2,
        z1 * z1 + z2 * z3 - 1,
    )


def reference_evaluate(a: ConifoldElement, point):
    """CenterPoly.evaluate at the center values times the product of trep2_matrices."""
    mats = trep2_matrices(point)
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = (Fraction(v) for v in point)
    x, y, z = x1 * x1 + x2 * x3, y1 * y1 + y2 * y3, x1 * y1 + (x2 * y3 + x3 * y2) / 2
    total = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    for word, poly in a.coeffs.items():
        m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        for letter in word:
            m = mat_mul2(m, mats[letter])
        value = poly.evaluate(x, y, z)
        total = tuple(
            tuple(total[i][j] + value * m[i][j] for j in range(2)) for i in range(2)
        )
    return total


# coordinates: ints, floats, small rationals and rationals with denominators
# above 10^6; z1 = 0 chart points come from the sampler
coordinates = st.one_of(
    st.integers(-50, 50),
    st.floats(-1e3, 1e3, allow_nan=False),
    rationals,
    st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(10**6 + 1, 10**12)),
)
z1_zero_points = [p for p in trep2_sample(40, seed=9) if p[6] == 0]
points = st.one_of(st.tuples(*[coordinates] * 9), st.sampled_from(z1_zero_points))
# center polynomials of degree >= 1 with rational coefficients, on any words
positive_degree_polys = st.dictionaries(
    monomials.filter(any), rationals, min_size=1, max_size=3
).map(CenterPoly.from_dict)
elements = st.one_of(
    rational_elements,
    st.dictionaries(st.sampled_from(BASIS), positive_degree_polys, max_size=8).map(ConifoldElement),
)


class TestIntegerPointKernel:
    """The point layer scales each point to integers once; values stay exact."""

    @given(elements, points)
    @hyp_settings(max_examples=200, deadline=None)
    @example(ConifoldElement.zero(), (0, 1, 1, 0, 1, -1, 1, 0, 0))
    @example(ConifoldElement.one(), (0.5, 1, 1, 0, 1, -1, 1, 0, 0))
    @example(ConifoldElement.from_center(POLY_Z), z1_zero_points[0])
    def test_evaluation_matches_fraction_reference(self, a, point):
        value = evaluate_at_point(a, point)
        assert value == reference_evaluate(a, point)
        assert all(type(v) is Fraction for row in value for v in row)

    def test_zero_element_and_empty_word(self):
        point = trep2_sample(1, seed=4)[0]
        zero = evaluate_at_point(ConifoldElement.zero(), point)
        assert zero == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
        assert all(type(v) is Fraction for row in zero for v in row)
        half = ConifoldElement({"": CenterPoly.constant(Fraction(1, 2))})
        assert evaluate_at_point(half, point) == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))

    def test_z1_zero_chart(self):
        assert z1_zero_points
        d = commutator_element()
        for point in z1_zero_points:
            assert trep2_jacobian_rank(point) == 3
            assert evaluate_at_point(d, point) == reference_evaluate(d, point)

    @given(points)
    @hyp_settings(max_examples=200, deadline=None)
    def test_residuals_match_fraction_reference(self, point):
        residuals = trep2_residuals(point)
        assert residuals == reference_residuals(point)
        assert all(type(r) is Fraction for r in residuals)

    @pytest.mark.parametrize(
        "point",
        [
            (1, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1 + Fraction(1, 10**12), 0, 0),
            (0, 0, 0, 0, 0, 0, 1 + 1e-12, 0, 0),
            (Fraction(1, 3), 0.25, 2, 0, 0, 0, Fraction(1, 7), 0, 0),
        ],
    )
    def test_off_scheme_message(self, point):
        expected = f"point is not on the scheme: residuals {reference_residuals(point)}"
        with pytest.raises(QsingError) as info:
            trep2_jacobian_rank(point)
        assert str(info.value) == expected


class TestIntegerForm:
    """Every element holds only the canonical integer form; ``coeffs`` is a view of it."""

    @given(rational_elements, rational_elements, rational_elements)
    @hyp_settings(max_examples=60, deadline=None)
    def test_equality_and_hash_follow_coeffs(self, a, b, c):
        product = multiply(a, b)
        rebuilt = ConifoldElement(product.coeffs)
        assert product == rebuilt and hash(product) == hash(rebuilt)
        assert product.integer_form == rebuilt.integer_form
        other = multiply(a, c)
        same = product.coeffs == other.coeffs
        assert (product == other) is same
        assert (product == ConifoldElement(other.coeffs)) is same
        if same:
            assert hash(product) == hash(other)

    @given(rational_elements, rational_elements)
    @hyp_settings(max_examples=60, deadline=None)
    def test_products_are_canonical(self, a, b):
        assert_canonical(multiply(a, b))

    @given(rational_elements, rational_elements, polys)
    @example(X, -X, POLY_X)
    @example(
        X.scale_poly(CenterPoly.constant(Fraction(1, 6))),
        X.scale_poly(CenterPoly.constant(Fraction(-1, 3))) + Y,
        CenterPoly.constant(Fraction(3, 2)),
    )
    @example(ConifoldElement.zero(), ConifoldElement.zero(), ZERO)
    @hyp_settings(max_examples=150, deadline=None)
    def test_linear_operations_match_the_fraction_path(self, a, b, p):
        minus_one = ONE.scale(-1)
        for result, expected in (
            (a + b, reference_combination((ONE, a), (ONE, b))),
            (a - b, reference_combination((ONE, a), (minus_one, b))),
            (-a, reference_combination((minus_one, a))),
            (a.scale_poly(p), reference_combination((p, a))),
        ):
            assert result == expected and hash(result) == hash(expected)
            assert list(result.coeffs.items()) == list(expected.coeffs.items())
            assert str(result) == str(expected)
            assert_canonical(result)

    def test_cancelled_denominators_reduce(self):
        # (X/2)(2X) = x: the operands' denominators 2 and 1 cancel
        half_x = X.scale_poly(CenterPoly.constant(Fraction(1, 2)))
        two_x = X.scale_poly(CenterPoly.constant(2))
        assert multiply(half_x, two_x).integer_form == (1, 1, {"": (((1, 0, 0), 1),)})
        # (2X/3)(X/2) = 2x/6 reduces to x/3
        two_thirds_x = X.scale_poly(CenterPoly.constant(Fraction(2, 3)))
        assert multiply(two_thirds_x, half_x).integer_form == (3, 1, {"": (((1, 0, 0), 1),)})
        # (2X/3 + 4Y/3)(3X/2) over 3 * 2 = 6 has numerators 6x + 24z and -12XY
        left = ConifoldElement(
            {"X": CenterPoly.constant(Fraction(2, 3)), "Y": CenterPoly.constant(Fraction(4, 3))}
        )
        right = X.scale_poly(CenterPoly.constant(Fraction(3, 2)))
        product = multiply(left, right)
        assert product.integer_form == (1, 1, {"": (((0, 0, 1), 4), ((1, 0, 0), 1)), "XY": (((0, 0, 0), -2),)})
        assert product == ConifoldElement(product.coeffs)

    def test_cancelling_product_is_zero_before_coeffs(self):
        one = ConifoldElement.one()
        third = CenterPoly.constant(Fraction(1, 3))
        for left, right in ((one + Z, one - Z), ((one + Z).scale_poly(third), (one - Z).scale_poly(third))):
            product = multiply(left, right)
            assert product.is_zero
            assert product.integer_form == (1, 0, {})
            assert product == ConifoldElement.zero()

    def test_terms_are_read_only(self):
        e = X + Y
        before = (str(e), hash(e))
        for element in e, X:
            with pytest.raises(TypeError):
                element.integer_form[2]["Y"] = (((0, 0, 0), 5),)
        assert (str(e), hash(e)) == before and e != X
        assert X.integer_form == (1, 0, {"X": (((0, 0, 0), 1),)})
        assert str(X) == "(1)*X"
        # a read-only mapping still pickles: the form travels as a plain dict
        assert pickle.loads(pickle.dumps(e)) == e and hash(pickle.loads(pickle.dumps(e))) == hash(e)

    @given(rational_elements, rational_elements, points)
    @hyp_settings(max_examples=60, deadline=None)
    def test_evaluation_reads_the_integer_form(self, a, b, point):
        product = multiply(a, b)
        assert evaluate_at_point(product, point) == evaluate_at_point(ConifoldElement(product.coeffs), point)

    def test_mutating_coeffs_leaves_the_element(self):
        built = ConifoldElement({"X": CenterPoly.constant(1)})
        product = multiply(dense_element(random.Random(3)), X + Y)
        for element, equal in ((built, X), (product, multiply(product, ConifoldElement.one()))):
            before = (str(element), hash(element), dict(element.coeffs))
            view = element.coeffs
            view["Y"] = CenterPoly.constant(5)
            view.pop("X", None)
            assert element.coeffs is not view
            assert (str(element), hash(element), element.coeffs) == before
            assert element == equal

    @pytest.mark.parametrize("value", [1, Fraction(1, 2), "x", None, {(0, 0, 0): 1}])
    def test_rejects_coefficients_that_are_not_center_polys(self, value):
        with pytest.raises(ValueError, match="'XY'"):
            ConifoldElement({"X": ONE, "XY": value})


class TestByteIdentity:
    """Digests recorded before the point layer moved to integer arithmetic."""

    def test_verification_report(self, capsys):
        assert main(["conifold-verify", "--seed", "7", "--points", "500"]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "7c437bbc086af64024cf8628d74baa22aa20e91fa4f5209a79a33173699b5edf"

    def test_sampler(self):
        points = trep2_sample(1000, seed=3)
        assert all(type(v) is Fraction for p in points for v in p)
        text = "\n".join(" ".join(map(str, p)) for p in points)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "1e623b631f724ae933071a2d6cee03722354e7f1f399fee1790d387b3b09f231"


class TestCenterPoly:
    def test_arithmetic(self):
        p = POLY_X * POLY_Y - POLY_Z
        q = POLY_Z + POLY_Z
        assert (p + q).evaluate(2, 3, 5) == 2 * 3 - 5 + 10
        assert (p * q).evaluate(1, 1, 1) == 0

    def test_zero_normalization(self):
        assert (POLY_X - POLY_X).is_zero
        assert CenterPoly.from_dict({(0, 0, 0): 0}).is_zero

    @pytest.mark.parametrize("mono", [(1, 0), (-1, 0, 0), (1, 0, 0, 0), (1.0, 0, 0), (True, 0, 0)])
    def test_from_dict_rejects_bad_monomials(self, mono):
        with pytest.raises(ValueError):
            CenterPoly.from_dict({mono: 1})
