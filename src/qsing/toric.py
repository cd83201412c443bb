"""Toric invariant theory for all-ones settings, plus determinantal evaluation.

With one-dimensional vertex spaces the base-change torus acts on each arrow
coordinate by a character, so invariants and semi-invariants are spanned by
monomials and everything reduces to lattice-point computations: the
invariant ring is the semigroup ring of the kernel of the weight matrix W,
a stability vector theta grades the semi-invariants by the multiple l in
W u = l * theta, and every chart of their proj is a shift of that one graded
Hilbert basis.

The Hilbert-basis computation is a Contejean-Devie completion: breadth-first
growth from unit vectors, extending u by e_i only when the defect vectors
M u and M e_i have negative inner product, pruning anything dominated by a
known solution.  This terminates and returns exactly the minimal nonzero
solutions.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from . import linalg
from .core import (
    Arrow,
    MarkedQuiverSetting,
    Matrix,
    Representation,
    evaluate_path,
    exact_int,
)
from .errors import (
    BudgetExhaustedError,
    EmptyProjError,
    ShapeError,
    UnsupportedSettingError,
)

Vector = tuple[int, ...]


def _require_all_ones(s: MarkedQuiverSetting) -> None:
    if any(d != 1 for d in s.dims):
        raise UnsupportedSettingError("operation requires an all-ones dimension vector")
    if s.num_marked_loops:
        raise UnsupportedSettingError("operation requires a mark-free setting")


def _weight_rows(s: MarkedQuiverSetting) -> list[list[int]]:
    """The weight matrix W, one row per vertex: column a is e_head - e_tail of arrow a."""
    _require_all_ones(s)
    arrows = s.arrow_list()
    rows = [[0] * len(arrows) for _ in range(s.k)]
    for col, a in enumerate(arrows):
        rows[a.head][col] += 1
        rows[a.tail][col] -= 1
    return rows


def _theta(s: MarkedQuiverSetting, theta: Sequence[int]) -> Vector:
    """``theta`` as a tuple of ints of length k with theta . alpha = 0, else ``ValueError``."""
    t = tuple(exact_int(x) for x in theta)
    if len(t) != s.k:
        raise ValueError(f"theta has length {len(t)}, setting has {s.k} vertices")
    if sum(x * d for x, d in zip(t, s.dims)) != 0:
        raise ValueError("theta . alpha must vanish")
    return t


# ---------------------------------------------------------------------------
# Hilbert bases


def _dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(u, v))


def hilbert_basis(matrix: Sequence[Sequence[int]]) -> list[Vector]:
    """Minimal nonzero solutions of M u = 0, u in N^n (Contejean-Devie).

    ``matrix`` is a list of rows of length n.  Always terminates; the result
    is the Hilbert basis of the solution monoid, sorted.
    """
    rows = [tuple(r) for r in matrix]
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")

    def defect(u: Sequence[int]) -> Vector:
        return tuple(sum(r[i] * u[i] for i in range(n)) for r in rows)

    columns = [defect(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
    basis: list[Vector] = []
    frontier: dict[Vector, Vector] = {}
    for i in range(n):
        u = tuple(1 if j == i else 0 for j in range(n))
        frontier[u] = columns[i]
    while frontier:
        next_frontier: dict[Vector, Vector] = {}
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


class _PairFibers:
    """The pair-sum fibers of a Hilbert basis and the generator profiles.

    Every unordered pair {i, j} of generators, i = j included, has its sum
    g_i + g_j in one fiber of the pair-sum map; ``fiber[i][j]`` is that
    fiber's id and ``size[f]`` its number of pairs.  A generator's profile
    is the sorted multiset of (fiber size, is-a-square) over its n pairs,
    each pair written as the int 2 * size + is-a-square.
    """

    __slots__ = ("fiber", "size", "profiles")

    def __init__(self, basis: Sequence[Sequence[int]]):
        n = len(basis)
        ids: dict[Vector, int] = {}
        size: list[int] = []
        fiber = [[0] * n for _ in range(n)]
        for i, gi in enumerate(basis):
            row = fiber[i]
            for j in range(i, n):
                key = tuple(map(add, gi, basis[j]))
                f = ids.get(key)
                if f is None:
                    f = ids[key] = len(size)
                    size.append(0)
                size[f] += 1
                row[j] = fiber[j][i] = f
        self.fiber = fiber
        self.size = size
        self.profiles = [
            tuple(sorted(2 * size[f] + (i == j) for j, f in enumerate(fiber[i])))
            for i in range(n)
        ]


def isomorphism_invariant(basis: Sequence[Sequence[int]]) -> tuple:
    """``(len, sorted generator profiles)`` of a Hilbert basis.

    Equal for the Hilbert bases of isomorphic monoids, so two bases whose
    invariants differ need no :func:`semigroup_isomorphism` call.
    """
    return len(basis), tuple(sorted(_PairFibers(basis).profiles))


def semigroup_isomorphism(
    basis1: Sequence[Sequence[int]],
    basis2: Sequence[Sequence[int]],
    *,
    deadline: float | None = None,
) -> dict[int, int] | None:
    """A monoid isomorphism matching two Hilbert bases, or None.

    Searches for an injective linear map carrying one Hilbert basis
    bijectively onto the other; such a map identifies the (saturated)
    solution monoids, hence the semigroup algebras.  Returns the generator
    matching as a dict.

    The map is fixed by the images of a base, the pivot generators of one
    elimination of ``basis1``, and the search backtracks over those images,
    the base generator with the fewest equal-profile targets first.  A
    monoid isomorphism carries every relation g_i + g_j = g_k + g_l to the
    same relation between the images, and it is injective, so it maps each
    pair-sum fiber onto a fiber of equal size, and distinct fibers to
    distinct ones.  Every assignment is therefore checked at once against
    all generators assigned before it: fibers must match in size and the
    map from fibers to fibers must stay a well-defined bijection.  A
    generator whose base coordinates are all assigned gets its image at
    once, which must be a generator of ``basis2`` that is unused and has an
    equal profile; it then joins the fiber checks.  None of these checks
    rejects a true isomorphism, and a complete assignment that passes them
    all is one, so the search is exact.

    ``deadline`` is a ``time.monotonic()`` reading; past it the search
    raises :class:`~qsing.errors.BudgetExhaustedError` at its next node.
    """
    hb1 = [tuple(v) for v in basis1]
    hb2 = [tuple(v) for v in basis2]
    n = len(hb1)
    if n != len(hb2):
        return None
    fib1, fib2 = _PairFibers(hb1), _PairFibers(hb2)
    prof1, prof2 = fib1.profiles, fib2.profiles
    if sorted(prof1) != sorted(prof2):
        return None
    # one elimination on the columns of hb1: generator j is
    # sum_q R[q][j] / d * hb1[base[q]], so its image is the same combination
    # of the images of the base
    R, base, d, _ = linalg.rref(list(zip(*hb1)))
    if n and linalg.rank(hb2) != len(base):
        # an isomorphism preserves the rank of the group the monoid spans
        return None
    candidates = [[t for t in range(n) if prof2[t] == prof1[i]] for i in base]
    order = sorted(range(len(base)), key=lambda q: (len(candidates[q]), q))
    position = {q: p for p, q in enumerate(order)}
    # per search position, the non-base generators (with their nonzero base
    # coordinates) whose last base coordinate is assigned there
    completes: list[list[tuple[int, list[tuple[int, int]]]]] = [[] for _ in order]
    for j in sorted(set(range(n)) - set(base)):
        support = [q for q in range(len(base)) if R[q][j]]
        completes[max(position[q] for q in support)].append(
            (j, [(base[q], R[q][j]) for q in support])
        )
    F1, F2, size1, size2 = fib1.fiber, fib2.fiber, fib1.size, fib2.size
    target_index = {v: t for t, v in enumerate(hb2)}
    width = len(hb2[0]) if hb2 else 0
    image = [-1] * n
    used = [False] * n
    assigned: list[int] = []
    fmap = [-1] * len(size1)
    finv = [-1] * len(size2)
    trail: list[int] = []

    def bind(i: int, t: int) -> bool:
        """Assign i -> t and extend the fiber map; False on a conflict."""
        row1, row2 = F1[i], F2[t]
        image[i] = t
        used[t] = True
        assigned.append(i)
        for j in assigned:
            a, b = row1[j], row2[image[j]]
            mapped = fmap[a]
            if mapped == b:
                continue
            if mapped >= 0 or finv[b] >= 0 or size1[a] != size2[b]:
                return False
            fmap[a], finv[b] = b, a
            trail.append(a)
        return True

    def undo(depth: int, mark: int) -> None:
        while len(assigned) > depth:
            i = assigned.pop()
            used[image[i]] = False
            image[i] = -1
        while len(trail) > mark:
            a = trail.pop()
            finv[fmap[a]] = -1
            fmap[a] = -1

    def bind_derived(j: int, coords: list[tuple[int, int]]) -> bool:
        """Bind generator j to its image under the assigned base, if that is valid."""
        num = [0] * width
        for i, c in coords:
            for col, x in enumerate(hb2[image[i]]):
                num[col] += c * x
        if any(x % d for x in num):
            return False
        t = target_index.get(tuple(x // d for x in num), -1)
        if t < 0 or used[t] or prof2[t] != prof1[j]:
            return False
        return bind(j, t)

    def search(p: int) -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhaustedError("isomorphism search ran past its deadline")
        if p == len(order):
            return True
        i = base[order[p]]
        depth, mark = len(assigned), len(trail)
        for t in candidates[order[p]]:
            if used[t]:
                continue
            if (
                bind(i, t)
                and all(bind_derived(j, coords) for j, coords in completes[p])
                and search(p + 1)
            ):
                return True
            undo(depth, mark)
        return False

    if not search(0):
        return None
    return {src: image[src] for src in range(n)}


def check_hilbert_minimality(basis: Iterable[Sequence[int]]) -> list[Vector]:
    """Return the basis elements that are sums of other basis elements (should be none)."""
    vecs = [tuple(b) for b in basis]
    bad = []
    for i, b in enumerate(vecs):
        others = [v for j, v in enumerate(vecs) if j != i and _dominates(b, v)]

        def representable(target: Vector, pool: list[Vector]) -> bool:
            if all(x == 0 for x in target):
                return True
            if not pool:
                return False
            head, *rest = pool
            max_c = min(
                (t // h for t, h in zip(target, head) if h > 0), default=0
            )
            for c in range(max_c, -1, -1):
                reduced = tuple(t - c * h for t, h in zip(target, head))
                if min(reduced) >= 0 and representable(reduced, rest):
                    return True
            return False

        if others and representable(b, others):
            bad.append(b)
    return bad


# ---------------------------------------------------------------------------
# invariants and semi-invariants


@dataclass(frozen=True)
class GradedGenerator:
    """A monomial generator: arrow exponents plus its weight multiple."""

    exponents: Vector
    degree: int

    def to_json(self) -> dict:
        return {"exponents": list(self.exponents), "degree": self.degree}


@dataclass(frozen=True)
class Relation:
    """A binomial x^lhs = x^rhs between monomials in the generators."""

    lhs: Vector
    rhs: Vector

    def degrees(self) -> tuple[int, int]:
        return (sum(self.lhs), sum(self.rhs))

    def to_json(self) -> dict:
        return {"lhs": list(self.lhs), "rhs": list(self.rhs)}


def invariant_generators(s: MarkedQuiverSetting) -> list[Vector]:
    """Hilbert basis of the weight-zero monomials (traces along cycles)."""
    return hilbert_basis(_weight_rows(s))


def semi_invariant_generators(
    s: MarkedQuiverSetting, theta: Sequence[int]
) -> tuple[GradedGenerator, ...]:
    """Generators of the graded ring of semi-invariants for theta.

    Solves W u = l * theta for (u, l) in N^(arrows+1); the minimal solutions
    are the algebra generators, graded by the multiple l and sorted by
    (degree, exponents).  theta = 0 returns the plain invariant ring in
    degree zero.

    Every degree is 0 or 1.  W is the incidence matrix of a digraph, hence
    totally unimodular, so {u >= 0 : W u = theta} has the integer
    decomposition property (Baum-Trotter 1977): a solution of degree l is a
    sum of l solutions of degree 1.
    """
    t = _theta(s, theta)
    if not any(t):
        return tuple(GradedGenerator(u, 0) for u in invariant_generators(s))
    basis = hilbert_basis([row + [-x] for row, x in zip(_weight_rows(s), t)])
    gens = (GradedGenerator(u[:-1], u[-1]) for u in basis)
    return tuple(sorted(gens, key=lambda g: (g.degree, g.exponents)))


def toric_relations(
    generators: Sequence[Sequence[int]], degree_bound: int = 4
) -> list[Relation]:
    """Binomial relations among monomial generators up to a degree bound.

    Monomials in the generators (total degree <= degree_bound) are grouped by
    the arrow-exponent vector they evaluate to.  Fibers are visited in order
    of increasing minimal degree; inside a fiber whose monomials are not yet
    all connected by the relations already emitted, every pair of distinct
    connected components contributes one binomial.  Completeness beyond the
    bound is not claimed.  A degree bound below 1 raises ``ValueError``.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    gens = [tuple(g) for g in generators]
    ng = len(gens)
    if ng == 0:
        return []

    def image(mono: Vector) -> Vector:
        return tuple(
            sum(mono[i] * gens[i][a] for i in range(ng)) for a in range(len(gens[0]))
        )

    fibers: dict[Vector, list[Vector]] = {}
    for total in range(1, degree_bound + 1):
        for combo in itertools.combinations_with_replacement(range(ng), total):
            mono = [0] * ng
            for i in combo:
                mono[i] += 1
            fibers.setdefault(image(tuple(mono)), []).append(tuple(mono))

    relations: list[Relation] = []

    def connected(members: list[Vector]) -> list[list[Vector]]:
        comp: dict[Vector, int] = {}
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
        groups: dict[int, list[Vector]] = {}
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


# ---------------------------------------------------------------------------
# stability


@dataclass(frozen=True)
class StabilityVerdict:
    semistable: bool
    stable: bool
    witness: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "semistable": self.semistable,
            "stable": self.stable,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _support_arrows(
    s: MarkedQuiverSetting, rep_or_support: Representation | Iterable[Arrow]
) -> frozenset[Arrow]:
    if isinstance(rep_or_support, Representation):
        if rep_or_support.setting != s:
            raise ValueError("representation belongs to a different setting")
        return rep_or_support.support()
    return frozenset(rep_or_support)


def is_theta_semistable(
    s: MarkedQuiverSetting,
    rep_or_support: Representation | Iterable[Arrow],
    theta: Sequence[int],
) -> StabilityVerdict:
    """King's test for an all-ones setting, exact and combinatorial.

    Every subrepresentation is a coordinate subspace, i.e. a vertex subset
    closed under the nonzero arrows.  Semistable means theta is >= 0 on every
    proper nonempty closed subset, stable means > 0; the witness is a
    minimizing subset when the verdict is negative.
    """
    t = _theta(s, theta)
    _require_all_ones(s)
    support = _support_arrows(s, rep_or_support)
    verts = range(s.k)
    worst: tuple[int, tuple[int, ...]] | None = None
    for size in range(1, s.k):
        for subset in itertools.combinations(verts, size):
            inside = set(subset)
            if any(a.tail in inside and a.head not in inside for a in support):
                continue
            value = sum(t[v] for v in subset)
            if worst is None or value < worst[0]:
                worst = (value, subset)
    if worst is None:
        return StabilityVerdict(True, True, None)
    value, subset = worst
    if value < 0:
        return StabilityVerdict(False, False, subset)
    if value == 0:
        return StabilityVerdict(True, False, subset)
    return StabilityVerdict(True, True, None)


def semistable_via_semiinvariants(
    s: MarkedQuiverSetting,
    rep_or_support: Representation | Iterable[Arrow],
    theta: Sequence[int],
) -> bool:
    """Detect semistability by a nonvanishing positive-weight semi-invariant.

    True when some generator of positive weight of the semi-invariant ring
    has support inside the nonzero arrows.  Testing the generators is exact:
    a monomial semi-invariant of positive weight that does not vanish is a
    product of generators, each supported inside the same arrows, and at
    least one of them has positive weight.
    """
    t = _theta(s, theta)
    _require_all_ones(s)
    if not any(t):
        # the constant 1 is a weight-zero semi-invariant vanishing nowhere
        return True
    support = _support_arrows(s, rep_or_support)
    support_idx = {i for i, a in enumerate(s.arrow_list()) if a in support}
    return any(
        g.degree and all(e == 0 or i in support_idx for i, e in enumerate(g.exponents))
        for g in semi_invariant_generators(s, t)
    )


# ---------------------------------------------------------------------------
# proj charts and the central fiber


@dataclass(frozen=True)
class ProjChart:
    """Affine chart of proj at a positive-degree generator.

    ``smooth`` means the chart monoid is N^a x Z^b.  ``monoid_generators``
    is its minimal generating set when the chart has no units, and otherwise
    a generating set that need not be minimal.  ``free_rank`` is the chart's
    dimension.
    """

    pivot: GradedGenerator
    monoid_generators: tuple[Vector, ...]
    smooth: bool
    free_rank: int

    def to_json(self) -> dict:
        return {
            "pivot": self.pivot.to_json(),
            "monoid_generators": [list(g) for g in self.monoid_generators],
            "smooth": self.smooth,
            "free_rank": self.free_rank,
        }


def _chart_generators(
    shifted: Sequence[Vector], outside: Sequence[int]
) -> tuple[list[Vector], bool]:
    """A generating set of a chart monoid, and whether the monoid is N^a x Z^b.

    ``shifted`` generates S = {v : W v = 0, v_a >= 0 for a in ``outside``},
    the coordinates outside the pivot's support.  The projection
    p(v) = (v_a for a in ``outside``) sends exactly the units of S to 0, and
    p(S) = p(ker W) meet N^outside is saturated and pointed, so a nonzero
    image is irreducible iff no other nonzero image lies below it
    coordinatewise.  S is Z^b x p(S): smooth iff those images are independent.
    """
    image = {v: tuple(v[a] for a in outside) for v in set(shifted) if any(v)}
    nonzero = {w for w in image.values() if any(w)}
    minimal = {w for w in nonzero if not any(u != w and _dominates(w, u) for u in nonzero)}
    gens = sorted(v for v, w in image.items() if w in minimal or not any(w))
    return gens, linalg.rank(list(minimal)) == len(minimal)


def proj_charts(s: MarkedQuiverSetting, theta: Sequence[int]) -> list[ProjChart]:
    """One affine chart per positive-degree generator of the semi-invariant ring.

    The chart at a generator f is the degree-zero part of the localization
    at f.  Every positive degree is 1 (see :func:`semi_invariant_generators`),
    so f is some (e, 1), and the chart is generated by the shifts u - l * e
    of the generators (u, l) of that one graded Hilbert basis.  These
    exponent vectors v are exactly those with W v = 0 and v_a >= 0 wherever
    e is 0.  The chart is flagged smooth when that monoid is N^a x Z^b: the
    units split off, and the irreducible elements of the unit-free quotient
    are linearly independent.
    """
    t = _theta(s, theta)
    if not any(t):
        raise EmptyProjError("theta = 0 has no proj; use invariant_generators")
    graded = semi_invariant_generators(s, t)
    pivots = [g for g in graded if g.degree]
    if not pivots:
        raise EmptyProjError("no positive-degree semi-invariants; semistable locus empty")
    charts = []
    for pivot in pivots:
        # W u = l * theta is the chart system of a degree-1 pivot, and
        # Baum-Trotter leaves no other degree
        shifted = [
            tuple(x - g.degree * e for x, e in zip(g.exponents, pivot.exponents))
            for g in graded
        ]
        outside = [a for a, e in enumerate(pivot.exponents) if e == 0]
        gens, smooth = _chart_generators(shifted, outside)
        charts.append(ProjChart(pivot, tuple(gens), smooth, linalg.rank(gens)))
    return charts


@dataclass(frozen=True)
class FiberStratum:
    support: tuple[int, ...]
    stable: bool
    orbit_space_dim: int | None
    non_free_action: bool = False

    def to_json(self) -> dict:
        return {
            "support": list(self.support),
            "stable": self.stable,
            "orbit_space_dim": self.orbit_space_dim,
            "non_free_action": self.non_free_action,
        }


def central_fiber(s: MarkedQuiverSetting, theta: Sequence[int]) -> list[FiberStratum]:
    """Semistable strata of the fiber over the origin of the quotient.

    Enumerates arrow-support sets on which every nonconstant invariant
    vanishes (no invariant generator's support fits inside) and keeps the
    theta-semistable ones.  The orbit-space dimension |S| - (k - 1) assumes
    the support spans a connected graph on all vertices; otherwise the
    stratum is flagged non_free_action and no dimension is reported.
    """
    _theta(s, theta)
    arrows = s.arrow_list()
    inv_supports = [
        frozenset(i for i, e in enumerate(u) if e) for u in invariant_generators(s)
    ]
    out = []
    for size in range(len(arrows) + 1):
        for idx in itertools.combinations(range(len(arrows)), size):
            chosen = frozenset(idx)
            if any(supp <= chosen for supp in inv_supports):
                continue
            support = frozenset(arrows[i] for i in idx)
            verdict = is_theta_semistable(s, support, theta)
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


# the toric_report actions that need a stability vector
THETA_ACTIONS = ("semistable", "charts", "fiber")


def toric_report(
    s: MarkedQuiverSetting,
    action: str,
    *,
    theta: Sequence[int] | None = None,
    support: Sequence[int] | None = None,
    degree_bound: int = 4,
) -> dict:
    """The ``toric`` report of one action on an all-ones setting.

    Every report starts with the arrow legend, the order of exponent
    vectors.  ``invariants`` adds the invariant generators and ``relations``
    their binomial relations up to ``degree_bound``.  ``semistable`` decides
    King stability of the arrow indices in ``support`` both combinatorially
    and through semi-invariants and says whether the two verdicts agree;
    ``charts`` gives the proj charts and ``fiber`` the central fiber with its
    largest orbit-space dimension.  The last three need ``theta``.
    """
    arrows = s.arrow_list()
    report: dict = {
        "arrow_legend": [
            {"index": i, "tail": a.tail, "head": a.head, "slot": a.slot}
            for i, a in enumerate(arrows)
        ]
    }
    if action in ("invariants", "relations"):
        basis = invariant_generators(s)
        report["generators"] = [list(u) for u in basis]
        if action == "relations":
            report["relations"] = [r.to_json() for r in toric_relations(basis, degree_bound)]
            report["degree_bound"] = degree_bound
        return report
    if action not in THETA_ACTIONS:
        raise ValueError(f"unknown toric action {action!r}")
    if theta is None:
        raise ValueError(f"toric {action} needs a stability vector theta")
    report["theta"] = list(theta)
    if action == "semistable":
        if support is None:
            raise ValueError("toric semistable needs a support")
        if any(not 0 <= i < len(arrows) for i in support):
            raise ValueError(f"support indices must lie in 0..{len(arrows) - 1}")
        chosen = [arrows[i] for i in support]
        verdict = is_theta_semistable(s, chosen, theta)
        via = semistable_via_semiinvariants(s, chosen, theta)
        report["support"] = list(support)
        report["verdict"] = verdict.to_json()
        report["via_semi_invariants"] = via
        report["verdicts_agree"] = verdict.semistable == via
    elif action == "charts":
        report["charts"] = [c.to_json() for c in proj_charts(s, theta)]
        report["degree_zero_generators"] = [list(u) for u in invariant_generators(s)]
    else:
        strata = central_fiber(s, theta)
        report["strata"] = [f.to_json() for f in strata]
        dims = [f.orbit_space_dim for f in strata if f.orbit_space_dim is not None]
        report["max_orbit_space_dim"] = max(dims) if dims else None
    return report


def _undirected_connected(s: MarkedQuiverSetting, support: frozenset[Arrow]) -> bool:
    if s.k == 0:
        return False
    adj: dict[int, set[int]] = {v: set() for v in range(s.k)}
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


# ---------------------------------------------------------------------------
# determinantal semi-invariants


PathCombination = tuple[tuple[Fraction, tuple[Arrow, ...]], ...]


@dataclass(frozen=True)
class DeterminantalMatrix:
    """Block-rectangular matrix of path combinations.

    Block row r accepts paths ending at row_vertices[r]; block column c
    accepts paths starting at col_vertices[c].  Evaluation plugs a
    representation into every path and sums with the coefficients; the result
    must be square.
    """

    row_vertices: tuple[int, ...]
    col_vertices: tuple[int, ...]
    entries: tuple[tuple[PathCombination, ...], ...]
    weight: int | None = None

    @classmethod
    def make(
        cls,
        row_vertices: Sequence[int],
        col_vertices: Sequence[int],
        entries: Sequence[Sequence[Iterable[tuple[object, Sequence[Arrow]]]]],
        weight: int | None = None,
    ) -> "DeterminantalMatrix":
        rows = tuple(int(v) for v in row_vertices)
        cols = tuple(int(v) for v in col_vertices)
        norm = []
        if len(entries) != len(rows):
            raise ShapeError("entry grid must have one row per block row")
        for r, row in enumerate(entries):
            if len(row) != len(cols):
                raise ShapeError("entry grid must have one column per block column")
            norm_row = []
            for c, combo in enumerate(row):
                terms = []
                for coef, path in combo:
                    path_t = tuple(path)
                    if not path_t and rows[r] != cols[c]:
                        raise ShapeError(
                            f"entry ({r},{c}): empty path needs equal row and "
                            f"column vertices, got {rows[r]} and {cols[c]}"
                        )
                    start = path_t[0].tail if path_t else cols[c]
                    end = path_t[-1].head if path_t else rows[r]
                    if start != cols[c] or end != rows[r]:
                        raise ShapeError(
                            f"entry ({r},{c}) contains a path from {start} to {end}; "
                            f"expected {cols[c]} to {rows[r]}"
                        )
                    terms.append((Fraction(coef), path_t))
                norm_row.append(tuple(terms))
            norm.append(tuple(norm_row))
        return cls(rows, cols, tuple(norm), weight)


def evaluate_determinantal_semi_invariant(
    L: DeterminantalMatrix, rep: Representation
) -> Fraction:
    """Assemble the evaluated block matrix and return its determinant."""
    dims = rep.setting.dims
    row_sizes = [dims[v] for v in L.row_vertices]
    col_sizes = [dims[v] for v in L.col_vertices]
    if sum(row_sizes) != sum(col_sizes):
        raise ShapeError(
            f"evaluated matrix is {sum(row_sizes)} x {sum(col_sizes)}, not square"
        )
    size = sum(row_sizes)
    full = [[Fraction(0)] * size for _ in range(size)]
    row_off = [0]
    for sz in row_sizes:
        row_off.append(row_off[-1] + sz)
    col_off = [0]
    for sz in col_sizes:
        col_off.append(col_off[-1] + sz)
    for r, row in enumerate(L.entries):
        for c, combo in enumerate(row):
            block: Matrix | None = None
            for coef, path in combo:
                val = evaluate_path(rep, path, at=L.col_vertices[c])
                scaled = tuple(tuple(coef * x for x in rw) for rw in val)
                if block is None:
                    block = scaled
                else:
                    block = tuple(
                        tuple(a + b for a, b in zip(ra, rb))
                        for ra, rb in zip(block, scaled)
                    )
            if block is None:
                continue
            for i in range(row_sizes[r]):
                for j in range(col_sizes[c]):
                    full[row_off[r] + i][col_off[c] + j] += block[i][j]
    return linalg.det(full)


def block_diagonal(a: DeterminantalMatrix, b: DeterminantalMatrix) -> DeterminantalMatrix:
    """Concatenate two determinantal matrices block-diagonally."""
    rows = a.row_vertices + b.row_vertices
    cols = a.col_vertices + b.col_vertices
    empty: PathCombination = tuple()
    entries = []
    for r, row in enumerate(a.entries):
        entries.append(tuple(row) + tuple(empty for _ in b.col_vertices))
    for r, row in enumerate(b.entries):
        entries.append(tuple(empty for _ in a.col_vertices) + tuple(row))
    weight = None
    if a.weight is not None and b.weight is not None:
        weight = a.weight + b.weight
    return DeterminantalMatrix(rows, cols, tuple(entries), weight)
