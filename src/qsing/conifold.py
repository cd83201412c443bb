"""Exact arithmetic in the conifold algebra.

The algebra is generated by X, Y, Z subject to Z^2 = 1, XZ = -ZX, YZ = -ZY
and the commutation of X^2 and Y^2 with everything; it is the Clifford
algebra of the ternary form [[x, z, 0], [z, y, 0], [0, 0, 1]] over the
polynomial ring C[x, y, z] with x = X^2, y = Y^2, z = (XY + YX)/2, and a
free module of rank 8 over it with basis 1, X, Y, Z, XY, XZ, YZ, XYZ.

An element is a map from the eight basis words to exact polynomial
coefficients, held in one canonical integer form: integer numerators over
one denominator (see :class:`ConifoldElement`).  ``coeffs``, one
``CenterPoly`` of ``Fraction`` coefficients per word, is a view of it.

Words multiply through a six-rule rewrite system oriented by X < Y < Z;
each rule either shortens the word or lowers its inversion count, so
rewriting terminates, and the critical pairs of the system can be checked
by :func:`rewrite_critical_pairs`.

Sums and products are computed over the integers.  Every rewrite
coefficient (x, y, 1, 2z, -1) is integral, so each of the 64 basis products
is a sum of one or two terms c * x^i y^j z^k with integer c and i, j, k in
{0, 1}.  Both operations pack each monomial into one integer with a field
width fitted to the call's own operands, so that multiplying monomials is
adding integers, and end in one canonicalizer, which reduces the
denominator by one gcd.  Negation flips the numerators and scaling by a
center polynomial is a product, so a chain of operations stays integral.

Points of the 2-dimensional trace-zero representation scheme are cleared
the same way, once per point: the lcm q of a point's denominators turns
p into the integer 9-tuple P = q p, and the residuals and the evaluation
of an element (read from its integer form) run on P in integers.  The
sampler solves its charts on integer (numerator, denominator) pairs, and
the Jacobian rank, 3 wherever the residuals vanish, is read off the
Jacobian's block structure.  A ``Fraction`` is made only for a returned value.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import ClassVar, Mapping, Sequence

from .errors import QsingError

Monomial = tuple[int, int, int]  # exponents of x, y, z
IntTerms = tuple[tuple[Monomial, int], ...]  # a polynomial's terms with integer numerators
IntegerForm = tuple[int, int, Mapping[str, IntTerms]]  # (den, top, terms) of a ConifoldElement


@dataclass(frozen=True)
class CenterPoly:
    """Sparse exact-rational polynomial in the commuting variables x, y, z."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    @classmethod
    def from_dict(cls, data: Mapping[Monomial, object]) -> "CenterPoly":
        """Drop zero coefficients and sort the terms.

        A monomial that is not a 3-tuple of non-negative ints raises ``ValueError``.
        """
        cleaned = {}
        for mono, coef in data.items():
            if not (
                type(mono) is tuple
                and len(mono) == 3
                and all(type(e) is int and e >= 0 for e in mono)
            ):
                raise ValueError(f"monomial {mono!r} is not a 3-tuple of non-negative ints")
            c = Fraction(coef)
            if c:
                cleaned[mono] = c
        return cls(tuple(sorted(cleaned.items())))

    @classmethod
    def constant(cls, value) -> "CenterPoly":
        return cls.from_dict({(0, 0, 0): Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "CenterPoly":
        idx = {"x": 0, "y": 1, "z": 2}[name]
        mono = tuple(1 if i == idx else 0 for i in range(3))
        return cls.from_dict({mono: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CenterPoly") -> "CenterPoly":
        data = dict(self.terms)
        for mono, coef in other.terms:
            data[mono] = data.get(mono, Fraction(0)) + coef
        return CenterPoly.from_dict(data)

    def __neg__(self) -> "CenterPoly":
        return CenterPoly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "CenterPoly") -> "CenterPoly":
        return self + (-other)

    def __mul__(self, other: "CenterPoly") -> "CenterPoly":
        data: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                data[mono] = data.get(mono, Fraction(0)) + c1 * c2
        return CenterPoly.from_dict(data)

    def scale(self, value) -> "CenterPoly":
        c = Fraction(value)
        return CenterPoly(tuple((m, c * co) for m, co in self.terms)) if c else ZERO

    def evaluate(self, x, y, z) -> Fraction:
        vals = (Fraction(x), Fraction(y), Fraction(z))
        total = Fraction(0)
        for (a, b, c), coef in self.terms:
            total += coef * vals[0] ** a * vals[1] ** b * vals[2] ** c
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b, c), coef in self.terms:
            body = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip("xyz", (a, b, c))
                if e
            )
            parts.append(f"{coef}" + ("*" + body if body else ""))
        return " + ".join(parts)


ZERO = CenterPoly(())
ONE = CenterPoly.constant(1)
POLY_X = CenterPoly.variable("x")
POLY_Y = CenterPoly.variable("y")
POLY_Z = CenterPoly.variable("z")

# the eight basis words, sorted square-free X-then-Y-then-Z
BASIS: tuple[str, ...] = ("", "X", "Y", "Z", "XY", "XZ", "YZ", "XYZ")

# rewrite rules: left word -> list of (polynomial coefficient, right word)
REWRITE_RULES: dict[str, tuple[tuple[CenterPoly, str], ...]] = {
    "XX": ((POLY_X, ""),),
    "YY": ((POLY_Y, ""),),
    "ZZ": ((ONE, ""),),
    "YX": ((POLY_Z.scale(2), ""), (ONE.scale(-1), "XY")),
    "ZX": ((ONE.scale(-1), "XZ"),),
    "ZY": ((ONE.scale(-1), "YZ"),),
}


def _reduce_word(word: str) -> dict[str, CenterPoly]:
    """Fully rewrite a word in X, Y, Z into the eight-word basis."""
    result: dict[str, CenterPoly] = {}
    pending: list[tuple[CenterPoly, str]] = [(ONE, word)]
    while pending:
        coef, w = pending.pop()
        redex = None
        for pos in range(len(w) - 1):
            if w[pos : pos + 2] in REWRITE_RULES:
                redex = pos
                break
        if redex is None:
            result[w] = result.get(w, ZERO) + coef
            continue
        head, pair, tail = w[:redex], w[redex : redex + 2], w[redex + 2 :]
        for rule_coef, replacement in REWRITE_RULES[pair]:
            pending.append((coef * rule_coef, head + replacement + tail))
    return {w: c for w, c in result.items() if not c.is_zero}


class ConifoldElement:
    """An element in the rank-8 basis with polynomial coefficients.

    An element holds one form, ``integer_form = (den, top, terms)``:
    ``terms`` is a read-only mapping of each nonzero word to its
    ``((i, j, k), numerator)`` pairs over the common denominator ``den`` in
    exponent order, with zero terms dropped; ``den > 0`` and gcd(den, every
    numerator) = 1; ``top`` is the largest total degree of a monomial (0 for
    the zero element).  The form of a value is unique, so ``==`` and
    ``hash`` compare and hash it.

    Building from a mapping of words to ``CenterPoly`` coefficients computes
    the form at once; any other word or coefficient raises ``ValueError``.
    ``coeffs`` is a read-only view: a fresh dict of each nonzero word's
    ``CenterPoly``, in the order the element was built, on every read.
    """

    __slots__ = ("integer_form",)

    def __init__(self, coeffs: Mapping[str, CenterPoly]):
        polys = {}
        for word, poly in coeffs.items():
            if word not in BASIS:
                raise ValueError(f"{word!r} is not a basis word")
            if not isinstance(poly, CenterPoly):
                raise ValueError(f"the coefficient of {word!r} is not a CenterPoly: {poly!r}")
            if poly.terms:
                polys[word] = poly.terms
        # over the lcm of the reduced denominators, gcd(den, every numerator) = 1
        den = math.lcm(*[c.denominator for t in polys.values() for _, c in t])
        top = max([sum(mono) for t in polys.values() for mono, _ in t], default=0)
        self.integer_form: IntegerForm = den, top, MappingProxyType({
            word: tuple([(mono, c.numerator * (den // c.denominator)) for mono, c in t])
            for word, t in polys.items()
        })

    @classmethod
    def _from_form(cls, form: IntegerForm) -> "ConifoldElement":
        den, top, terms = form
        element = cls.__new__(cls)
        element.integer_form = den, top, MappingProxyType(terms)
        return element

    def __reduce__(self):
        den, top, terms = self.integer_form
        return ConifoldElement._from_form, ((den, top, dict(terms)),)

    @property
    def coeffs(self) -> dict[str, CenterPoly]:
        den, _, terms = self.integer_form
        return {
            word: CenterPoly(tuple([(mono, Fraction(n, den)) for mono, n in t]))
            for word, t in terms.items()
        }

    @classmethod
    def from_word(cls, word: str) -> "ConifoldElement":
        """Normal form of a word in X, Y, Z."""
        if any(ch not in "XYZ" for ch in word):
            raise ValueError("words use letters X, Y, Z only")
        return cls(_reduce_word(word))

    @classmethod
    def from_center(cls, poly: CenterPoly) -> "ConifoldElement":
        return cls({"": poly})

    @classmethod
    def zero(cls) -> "ConifoldElement":
        return cls({})

    @classmethod
    def one(cls) -> "ConifoldElement":
        return cls({"": ONE})

    def coefficient(self, word: str) -> CenterPoly:
        return self.coeffs.get(word, ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.integer_form[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConifoldElement):
            return NotImplemented
        den, _, terms = self.integer_form
        other_den, _, other_terms = other.integer_form
        return den == other_den and terms == other_terms

    def __hash__(self):
        den, _, terms = self.integer_form
        return hash((den, frozenset(terms.items())))

    def __add__(self, other: "ConifoldElement") -> "ConifoldElement":
        den_a, top_a, terms_a = self.integer_form
        den_b, top_b, terms_b = other.integer_form
        den = math.lcm(den_a, den_b)
        # no exponent of the sum exceeds the larger top degree
        width = max(top_a, top_b).bit_length()
        acc: dict[str, dict[int, int]] = {}
        for terms, factor in ((terms_a, den // den_a), (terms_b, den // den_b)):
            for word, t in _packed(terms, width):
                out = acc.setdefault(word, {})
                for m, n in t:
                    out[m] = out.get(m, 0) + n * factor
        return _canonical(den, width, acc)

    def __neg__(self) -> "ConifoldElement":
        den, top, terms = self.integer_form
        return ConifoldElement._from_form(
            (den, top, {word: tuple([(mono, -n) for mono, n in t]) for word, t in terms.items()})
        )

    def __sub__(self, other: "ConifoldElement") -> "ConifoldElement":
        return self + (-other)

    def __mul__(self, other: "ConifoldElement") -> "ConifoldElement":
        return multiply(self, other)

    def scale_poly(self, poly: CenterPoly) -> "ConifoldElement":
        # the center is central and "" is the unit of the basis products
        return multiply(ConifoldElement.from_center(poly), self)

    def __str__(self) -> str:
        coeffs = self.coeffs
        parts = [f"({coeffs[word]})*{word or '1'}" for word in BASIS if word in coeffs]
        return " + ".join(parts) or "0"

    __repr__ = __str__


X = ConifoldElement.from_word("X")
Y = ConifoldElement.from_word("Y")
Z = ConifoldElement.from_word("Z")


@functools.cache
def _basis_product(w1: str, w2: str) -> tuple[tuple[str, int, int], ...]:
    """The normal form of the word w1 w2 as flat (word, shift, coefficient) entries.

    Every coefficient of the normal form is a single term c * x^i y^j z^k
    with i, j, k in {0, 1} and c an integer (the rewrite coefficients x, y,
    1, 2z and -1 are), so each entry holds c and the shift packed one bit per
    variable, (i << 2) | (j << 1) | k.  The table is filled lazily and
    shared by every caller.
    """
    entries = []
    for word, poly in _reduce_word(w1 + w2).items():
        (((i, j, k), c),) = poly.terms
        entries.append((word, (i << 2) | (j << 1) | k, c.numerator))
    return tuple(entries)


def _packed(terms: Mapping[str, IntTerms], width: int) -> list[tuple[str, list[tuple[int, int]]]]:
    """Each word's terms with x^i y^j z^k packed as (i << 2S) | (j << S) | k for S = width."""
    wide = 2 * width
    return [(w, [((i << wide) | (j << width) | k, n) for (i, j, k), n in t]) for w, t in terms.items()]


def _canonical(den: int, width: int, acc: dict[str, dict[int, int]]) -> ConifoldElement:
    """The integer form of ``acc / den``, ``acc`` mapping words to packed monomials' numerators.

    One gcd with the numerators reduces den > 1 (a zero result to den == 1),
    and zero terms and words are dropped.  Each packed monomial is unpacked
    once, into exponents shared by the words, and the top degree is read there.
    """
    g = math.gcd(den, *[n for out in acc.values() for n in out.values()]) if den > 1 else 1
    wide, mask = 2 * width, (1 << width) - 1
    top = 0
    exponents: dict[int, tuple[int, int, int]] = {}
    terms = {}
    for word, out in acc.items():
        t = []
        for m in sorted(out):
            n = out[m]
            if n:
                mono = exponents.get(m)
                if mono is None:
                    i, j, k = mono = exponents[m] = (m >> wide, (m >> width) & mask, m & mask)
                    if i + j + k > top:
                        top = i + j + k
                t.append((mono, n // g))
        if t:
            terms[word] = tuple(t)
    return ConifoldElement._from_form((den // g, top, terms))


def multiply(a: ConifoldElement, b: ConifoldElement) -> ConifoldElement:
    """Bilinear extension of the basis product table (coefficients are central).

    The product is computed over the integers on the operands' integer
    forms: with a = A / D_a and b = B / D_b for integral A and B, the
    integral product table gives A * B, and :func:`_canonical` reduces
    D_a * D_b against its numerators.  No ``Fraction`` is made.

    Monomials are packed into one integer, x^i y^j z^k as
    (i << 2S) | (j << S) | k, so that multiplying monomials is adding
    integers.  The width S is the call's own: no exponent of A * B exceeds
    top_a + top_b + 1, the largest total degrees of the operands plus the
    at most one of a basis product, so S = (top_a + top_b + 1).bit_length()
    bits hold every field without a carry, and the packed keys sort in
    the order of the exponent tuples.
    """
    den_a, top_a, terms_a = a.integer_form
    den_b, top_b, terms_b = b.integer_form
    width = (top_a + top_b + 1).bit_length()
    packed_b = _packed(terms_b, width)
    # the packed monomials x and y, and a basis product's shift bits
    # (i << 2) | (j << 1) | k spread to width S
    x, y = 1 << 2 * width, 1 << width
    shifts = (0, 1, y, y | 1, x, x | 1, x | y, x | y | 1)
    acc: dict[str, dict[int, int]] = {}
    for w1, t1 in _packed(terms_a, width):
        for w2, t2 in packed_b:
            for word, bits, t in _basis_product(w1, w2):
                out = acc.get(word)
                if out is None:
                    out = acc[word] = {}
                shift = shifts[bits]
                for m1, c1 in t1:
                    m1 += shift
                    c1 *= t
                    for m2, c2 in t2:
                        m = m1 + m2
                        out[m] = out.get(m, 0) + c1 * c2
    return _canonical(den_a * den_b, width, acc)


def commutator_element() -> ConifoldElement:
    """The central element XYZ - YXZ (square 4(z^2 - xy))."""
    return ConifoldElement.from_word("XYZ") - ConifoldElement.from_word("YXZ")


def is_central(a: ConifoldElement) -> bool:
    """Commutation with the generators X, Y, Z suffices since they generate."""
    return all(multiply(a, g) == multiply(g, a) for g in (X, Y, Z))


def rewrite_critical_pairs() -> list[tuple[str, ConifoldElement, ConifoldElement]]:
    """Overlap analysis of the rewrite system; a nonempty result disproves confluence.

    Each three-letter word that can be rewritten at two positions is reduced
    both ways; the list collects the words where the normal forms disagree.
    """
    failures = []
    for left, right in itertools.product(REWRITE_RULES, REWRITE_RULES):
        if left[1] != right[0]:
            continue
        word = left + right[1]
        first = ConifoldElement.zero()
        for coef, repl in REWRITE_RULES[left]:
            first = first + ConifoldElement.from_word(repl + word[2:]).scale_poly(coef)
        second = ConifoldElement.zero()
        for coef, repl in REWRITE_RULES[right]:
            second = second + ConifoldElement.from_word(word[0] + repl).scale_poly(coef)
        if first != second:
            failures.append((word, first, second))
    return failures


# ---------------------------------------------------------------------------
# the ternary form and Clifford identities


@dataclass(frozen=True)
class TernaryForm:
    """The symmetric matrix [[x, z, 0], [z, y, 0], [0, 0, 1]] over C[x, y, z]."""

    matrix: ClassVar[tuple[tuple[CenterPoly, ...], ...]] = (
        (POLY_X, POLY_Z, ZERO),
        (POLY_Z, POLY_Y, ZERO),
        (ZERO, ZERO, ONE),
    )

    def pairing(self, v: Sequence[CenterPoly], w: Sequence[CenterPoly]) -> CenterPoly:
        total = ZERO
        for i in range(3):
            for j in range(3):
                total = total + v[i] * self.matrix[i][j] * w[j]
        return total

    def determinant(self) -> CenterPoly:
        m = self.matrix
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )


def _span_coordinates(a: ConifoldElement) -> tuple[CenterPoly, CenterPoly, CenterPoly]:
    if set(a.coeffs) - {"X", "Y", "Z"}:
        raise QsingError("element is not in the span of X, Y, Z")
    return (a.coefficient("X"), a.coefficient("Y"), a.coefficient("Z"))


def clifford_check(v: ConifoldElement, w: ConifoldElement) -> bool:
    """Verify v*w + w*v = 2 B(v, w) for elements in the span of X, Y, Z."""
    bv = TernaryForm().pairing(_span_coordinates(v), _span_coordinates(w))
    lhs = multiply(v, w) + multiply(w, v)
    return lhs == ConifoldElement.from_center(bv.scale(2))


# ---------------------------------------------------------------------------
# two-dimensional trace-zero representations


Trep2Point = tuple[Fraction, ...]  # (x1, x2, x3, y1, y2, y3, z1, z2, z3)
IntMatrix2 = tuple[tuple[int, int], tuple[int, int]]
_EXACT = (int, Fraction)


def _scaled_point(point: Sequence) -> tuple[int, list[int]]:
    """The lcm q of a point's denominators and its integer coordinates P = q * p.

    Ints and Fractions are taken as they are and every other coordinate is
    read with ``Fraction(v)``, so a float counts as the rational it stores.
    """
    coords = [v if type(v) in _EXACT else Fraction(v) for v in point]
    q = math.lcm(*(c.denominator for c in coords))
    return q, [c.numerator * (q // c.denominator) for c in coords]


def _scaled_residuals(q: int, P: Sequence[int]) -> tuple[int, int, int]:
    """q^2 times the three defining equations at the point P / q."""
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = P
    return (
        2 * x1 * z1 + x2 * z3 + x3 * z2,
        2 * y1 * z1 + y2 * z3 + y3 * z2,
        z1 * z1 + z2 * z3 - q * q,
    )


def trep2_residuals(point: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """The three defining equations evaluated at a 9-tuple."""
    q, P = _scaled_point(point)
    return tuple(Fraction(r, q * q) for r in _scaled_residuals(q, P))


# sampled coordinates are n / m with |n| <= _SPAN and 1 <= m <= _SPAN
_SPAN = 4


def trep2_sample(count: int, seed: int = 0) -> list[Trep2Point]:
    """Random rational points on the trace-zero representation scheme.

    Solvable charts rotate: mostly z1 != 0 (back-solve x1, y1, with z1 = +-1
    where z2 = 0), with z1 = 0 charts mixed in (z2 z3 = 1, back-solve x3, y3).
    Each chart is solved on integer (numerator, denominator) pairs, and a
    point's nine ``Fraction`` values are made once.  Every returned point is
    checked on the equations; one off the scheme raises ``AssertionError``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    randint = rng.randint

    def draw() -> tuple[int, int]:
        return randint(-_SPAN, _SPAN), randint(1, _SPAN)

    points: list[Trep2Point] = []
    for n in range(count):
        # x_i = a_i / b_i and y_i = c_i / d_i; r / s is the chart's nonzero
        # coordinate, z2 in the z1 = 0 chart and z1 in the others
        while not (r := randint(-_SPAN, _SPAN)):
            pass
        s = randint(1, _SPAN)
        if n % 5 == 4:
            # z1 = 0, z2 = r / s, z3 = s / r; x3 = -x2 z3 / z2 = -x2 s^2 / r^2, y3 alike
            (a1, b1), (a2, b2), (c1, d1), (c2, d2) = draw(), draw(), draw(), draw()
            nums = (a1, a2, -a2 * s * s, c1, c2, -c2 * s * s, 0, r, s)
            dens = (b1, b2, b2 * r * r, d1, d2, d2 * r * r, 1, s, r)
        else:
            # z_i = n_i / m_i
            n1, m1 = r, s
            n2, m2 = draw()
            if n2:
                # z3 = (1 - z1^2) / z2
                n3, m3 = (m1 * m1 - n1 * n1) * m2, m1 * m1 * n2
            else:
                # keep z1^2 + z2 z3 = 1 with z2 = 0
                n1, m1 = rng.choice([-1, 1]), 1
                n3, m3 = draw()
            (a2, b2), (a3, b3), (c2, d2), (c3, d3) = draw(), draw(), draw(), draw()
            # x1 = -(x2 z3 + x3 z2) / (2 z1) = -(a2 b3 n3 m2 + a3 b2 n2 m3) m1 / (b2 b3 2 n1 m2 m3)
            den = 2 * n1 * m2 * m3
            a1 = -(a2 * b3 * n3 * m2 + a3 * b2 * n2 * m3) * m1
            c1 = -(c2 * d3 * n3 * m2 + c3 * d2 * n2 * m3) * m1
            nums = (a1, a2, a3, c1, c2, c3, n1, n2, n3)
            dens = (b2 * b3 * den, b2, b3, d2 * d3 * den, d2, d3, m1, m2, m3)
        point = tuple(map(Fraction, nums, dens))
        if any(_scaled_residuals(*_scaled_point(point))):
            raise AssertionError(f"sampled point {point} is not on the scheme")
        points.append(point)
    return points


def trep2_jacobian_rank(point: Sequence) -> int:
    """Exact rank of the Jacobian at a point of the scheme: always 3.

    The point must satisfy the equations exactly (a float is read as the
    rational it stores); its residuals are tested as the integers q^2 r
    with p = P / q, and any nonzero one raises ``QsingError``.

    Lemma: in the columns x1..x3, y1..y3, z1..z3 the rows of q J carry
    v = (2 z1, z3, z2) in the blocks 0-2, 3-5 and 6-8 respectively, and
    zeros left of them.  On the scheme z1^2 + z2 z3 = 1, so v != 0, and for v_t != 0 the
    columns t, 3 + t, 6 + t form a triangular minor of determinant v_t^3.
    """
    q, P = _scaled_point(point)
    if any(_scaled_residuals(q, P)):
        raise QsingError(f"point is not on the scheme: residuals {trep2_residuals(point)}")
    return 3


def _mat_mul2(a: IntMatrix2, b: IntMatrix2) -> IntMatrix2:
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return (
        (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22),
        (a21 * b11 + a22 * b21, a21 * b12 + a22 * b22),
    )


def evaluate_at_point(a: ConifoldElement, point: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Evaluate an element in the 2-dimensional representation at a point.

    The center values are x = x1^2 + x2 x3, y and z analogously; basis words
    map to the corresponding matrix products.

    The point is scaled to integers once, p = P / q, and everything after
    that is integral: a word w maps to the integer matrix of P, which is
    q^len(w) times its matrix at p; the center values are integers over
    2 q^2 (z carries the 1/2).  All terms are summed over one common
    denominator, and each entry of the result is one ``Fraction``.
    """
    q, (x1, x2, x3, y1, y2, y3, z1, z2, z3) = _scaled_point(point)
    letters = {
        "X": ((x1, x2), (x3, -x1)),
        "Y": ((y1, y2), (y3, -y1)),
        "Z": ((z1, z2), (z3, -z1)),
    }
    center_den = 2 * q * q
    xn = 2 * (x1 * x1 + x2 * x3)
    yn = 2 * (y1 * y1 + y2 * y3)
    zn = 2 * x1 * y1 + x2 * y3 + x3 * y2
    # the common denominator coef_den * center_den^top_deg * q^top_len
    coef_den, top_deg, terms = a.integer_form
    top_len = max(map(len, terms), default=0)
    t11 = t12 = t21 = t22 = 0
    for word, poly in terms.items():
        value = 0
        for (i, j, k), c in poly:
            value += c * xn**i * yn**j * zn**k * center_den ** (top_deg - i - j - k)
        value *= q ** (top_len - len(word))
        if word:
            (m11, m12), (m21, m22) = functools.reduce(_mat_mul2, map(letters.__getitem__, word))
            t11 += value * m11
            t12 += value * m12
            t21 += value * m21
            t22 += value * m22
        else:
            t11 += value
            t22 += value
    den = coef_den * center_den**top_deg * q**top_len
    return (
        (Fraction(t11, den), Fraction(t12, den)),
        (Fraction(t21, den), Fraction(t22, den)),
    )


# ---------------------------------------------------------------------------
# the verification battery


def _phi(a: ConifoldElement, sign: int) -> Fraction:
    """Image of an element under the 1-dimensional representation X, Y -> 0, Z -> sign."""
    images = {"X": 0, "Y": 0, "Z": sign}
    den, _, terms = a.integer_form
    total = 0
    for word, ((mono, n), *_) in terms.items():
        # at x = y = z = 0 a word keeps only its constant term, which sorts first
        if mono == (0, 0, 0):
            total += n * math.prod(images[ch] for ch in word)
    return Fraction(total, den)


def _random_element(rng: random.Random) -> ConifoldElement:
    coeffs = {}
    for word in rng.sample(BASIS, rng.randint(1, 4)):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            mono = tuple(rng.randint(0, 1) for _ in range(3))
            terms[mono] = Fraction(rng.randint(-3, 3))
        coeffs[word] = CenterPoly.from_dict(terms)
    return ConifoldElement(coeffs)


def verification_battery(seed: int = 0, triples: int = 200, points: int = 100) -> dict:
    """The ``conifold-verify`` report: the algebra's defining identities checked.

    ``checks`` holds one record per check with its name and whether it
    passed, plus a counterexample where one is available for a failed
    check; ``all_passed`` says whether every check passed.  ``seed``
    drives the random associativity triples and the sampled points of the
    2-dimensional representation scheme.  Fewer than one triple or one point
    raises ``ValueError``.
    """
    if triples < 1:
        raise ValueError("triples must be >= 1")
    if points < 1:
        raise ValueError("points must be >= 1")
    rng = random.Random(seed)
    checks: list[dict] = []

    def record(name: str, passed: bool, detail=None):
        entry = {"check": name, "passed": passed}
        if detail is not None and not passed:
            entry["counterexample"] = detail
        checks.append(entry)

    record("rewrite_critical_pairs_confluent", not rewrite_critical_pairs())

    relations = [
        ("Z^2 - 1", multiply(Z, Z) - ConifoldElement.one()),
        ("XZ + ZX", multiply(X, Z) + multiply(Z, X)),
        ("YZ + ZY", multiply(Y, Z) + multiply(Z, Y)),
        ("[X^2, Y]", multiply(multiply(X, X), Y) - multiply(Y, multiply(X, X))),
        ("[Y^2, X]", multiply(multiply(Y, Y), X) - multiply(X, multiply(Y, Y))),
    ]
    for name, value in relations:
        record(f"defining relation {name} = 0", value.is_zero, str(value))

    d = commutator_element()
    record("D = XYZ - YXZ central", is_central(d))
    expected = ConifoldElement.from_center((POLY_Z * POLY_Z - POLY_X * POLY_Y).scale(4))
    record("D^2 = 4(z^2 - xy)", multiply(d, d) == expected, str(multiply(d, d)))

    assoc_example = None
    for _ in range(triples):
        a, b, c = _random_element(rng), _random_element(rng), _random_element(rng)
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            assoc_example = [str(a), str(b), str(c)]
            break
    record(f"associativity on {triples} random triples", assoc_example is None, assoc_example)

    basis_elems = {w: ConifoldElement.from_word(w) for w in BASIS}
    products = {
        (w1, w2): multiply(e1, e2)
        for w1, e1 in basis_elems.items()
        for w2, e2 in basis_elems.items()
    }
    closure_ok = True
    for product in products.values():
        rebuilt = ConifoldElement.zero()
        for word, poly in product.coeffs.items():
            rebuilt = rebuilt + basis_elems[word].scale_poly(poly)
        closure_ok = closure_ok and rebuilt == product
    record("64 basis products close in the rank-8 basis", closure_ok)

    cliff_ok = all(clifford_check(v, w) for v in (X, Y, Z) for w in (X, Y, Z))
    record("Clifford identities for all 9 generator pairs", cliff_ok)

    # X, Y -> 0 and Z -> +-1, with the center at x = y = z = 0, must be
    # multiplicative on every product of basis words
    phi_ok = all(
        _phi(product, sign) == _phi(basis_elems[w1], sign) * _phi(basis_elems[w2], sign)
        for sign in (1, -1)
        for (w1, w2), product in products.items()
    )
    record("one-dimensional representations phi+/- satisfy the relations", phi_ok)

    pts = trep2_sample(points, seed=seed)
    ranks = [trep2_jacobian_rank(p) for p in pts]
    record(
        f"jacobian rank 3 at {points} sampled representation points",
        all(r == 3 for r in ranks),
        [list(map(str, p)) for p, r in zip(pts, ranks) if r != 3][:3] or None,
    )

    record(
        "ternary form determinant is xy - z^2",
        TernaryForm().determinant() == POLY_X * POLY_Y - POLY_Z * POLY_Z,
    )
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks), "seed": seed}
