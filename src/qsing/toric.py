"""Toric invariant theory for all-ones settings.

With one-dimensional vertex spaces the base-change torus acts on each arrow
coordinate by a character, so invariants and semi-invariants are spanned by
monomials and everything reduces to lattice-point computations: the
invariant ring is the semigroup ring of the kernel of the weight matrix W,
a stability vector theta grades the semi-invariants by the multiple l in
W u = l * theta, and every chart of their proj is a shift of that one graded
Hilbert basis.

W is the incidence matrix of a digraph, hence totally unimodular, so the
Hilbert basis of ker W is exactly the set of 0/1 vectors of the simple
directed cycles (the traces of cycles of Le Bruyn-Procesi 1990).  The
invariant generators are therefore found by a cycle walk, one per least
vertex, over bitmasks of visited vertices; the general completion below
serves the graded systems W u = l * theta and their faces.

The Hilbert-basis computation is a Contejean-Devie completion (Contejean and
Devie 1994): breadth-first growth from unit vectors, extending u by e_i only
when the defect vectors M u and M e_i have negative inner product, pruning
anything dominated by a known solution.  This terminates and returns exactly
the minimal nonzero solutions.  Each vector carries G u with G = M^T M in
place of its defect, so that inner product is the i-th entry of G u and a
child's vector is one addition of a row of G.  Since no frontier vector
dominates a known solution, a child u + e_i can only dominate a solution
whose i-th coordinate is u_i + 1, and the found solutions are indexed by
coordinate and value so that only those are compared.

The other searches work on bitmasks of arrows (bit i for arrow i of
``arrow_list()``).  King's test reads one table per call of the vertex
subsets with theta <= 0, stably sorted by theta, each with the mask of the
arrows leaving it; the first row a support does not leave gives the
verdict.  The central fiber tests each support mask against the masks of
the invariant generators and that one table.  The binomial relations build
their monomials degree by degree, each image its parent's plus one
generator, and split each fiber by a union-find over the moves of the
relations found so far.

The census groups settings by isomorphism of their invariant monoids, and
decides it on the generator-facet incidence.  The facets of the cone are
the maximal proper sets of generators that vanish on one arrow, as bitmasks
over the generators, and two monoids are isomorphic iff their incidence
matrices agree up to a permutation of the rows and one of the columns (see
:func:`incidence_isomorphism`).  :func:`semigroup_isomorphism`, a search
for a linear map between any two Hilbert bases, is the reference that test
is checked against.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from operator import add, ge, itemgetter, mul, sub
from typing import Iterable, Sequence

from . import linalg
from .core import Arrow, MarkedQuiverSetting, exact_int
from .errors import BudgetExhaustedError, EmptyProjError, UnsupportedSettingError

Vector = tuple[int, ...]


def _require_all_ones(s: MarkedQuiverSetting) -> None:
    if any(d != 1 for d in s.dims):
        raise UnsupportedSettingError("operation requires an all-ones dimension vector")
    if s.num_marked_loops:
        raise UnsupportedSettingError("operation requires a mark-free setting")


def _arrow_ends(s: MarkedQuiverSetting) -> list[tuple[int, int]]:
    """(tail, head) of each unmarked arrow, in the order of ``s.arrow_list()``."""
    return [(i, j) for i, row in enumerate(s.arrows) for j, c in enumerate(row) for _ in range(c)]


def _weight_rows(s: MarkedQuiverSetting) -> list[list[int]]:
    """The weight matrix W, one row per vertex: column a is e_head - e_tail of arrow a."""
    _require_all_ones(s)
    ends = _arrow_ends(s)
    rows = [[0] * len(ends) for _ in range(s.k)]
    for col, (tail, head) in enumerate(ends):
        rows[head][col] += 1
        rows[tail][col] -= 1
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


def hilbert_basis(
    matrix: Sequence[Sequence[int]], *, deadline: float | None = None
) -> list[Vector]:
    """Minimal nonzero solutions of M u = 0, u in N^n (Contejean-Devie).

    ``matrix`` is a list of rows of length n.  Always terminates; the result
    is the Hilbert basis of the solution monoid, sorted.

    Round r holds the frontier of degree r.  Each frontier vector u carries
    g(u) = G u with G = M^T M, so the Contejean-Devie condition
    <M u, M e_i> < 0 reads g(u)_i < 0, the child u + e_i carries
    g(u) + G e_i, and u is a solution iff g(u) = 0 (u . g(u) = |M u|^2).
    A round first moves its solutions into the basis and then extends the
    rest, so every solution of lower degree is known when a child is made.
    No frontier vector dominates a known solution, so if u + e_i dominates
    a solution b then b_i = u_i + 1, and only the solutions with that i-th
    coordinate need to be compared.

    ``deadline`` is a ``time.monotonic()`` reading, checked once per round;
    past it the completion raises
    :class:`~qsing.errors.BudgetExhaustedError`.
    """
    rows = [tuple(r) for r in matrix]
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    columns = list(zip(*rows))
    gram = [tuple(sum(map(mul, ci, cj)) for cj in columns) for ci in columns]
    basis: list[Vector] = []
    # by_coord[i][c]: the known solutions b with b_i = c > 0
    by_coord: list[dict[int, list[Vector]]] = [{} for _ in range(n)]
    unit = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
    frontier: dict[Vector, Vector] = dict(zip(unit, gram))
    while frontier:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhaustedError("Hilbert basis ran past its deadline")
        growing = []
        for u, g in frontier.items():
            if any(g):
                growing.append((u, g))
                continue
            basis.append(u)
            for i, c in enumerate(u):
                if c:
                    by_coord[i].setdefault(c, []).append(u)
        frontier = {}
        for u, g in growing:
            for i, x in enumerate(g):
                if x >= 0:
                    continue
                c = u[i] + 1
                child = u[:i] + (c,) + u[i + 1 :]
                if child in frontier or any(
                    all(map(ge, child, b)) for b in by_coord[i].get(c, ())
                ):
                    continue
                frontier[child] = tuple(map(add, g, gram[i]))
    return sorted(basis)


class _PairFibers:
    """The pair-sum fibers of a Hilbert basis and the generator profiles.

    Every unordered pair {i, j} of generators, i = j included, has its sum
    g_i + g_j in one fiber of the pair-sum map; ``fiber[i][j]`` is that
    fiber's id and ``size[f]`` its number of pairs.  A generator's profile
    is the sorted multiset of (fiber size, is-a-square) over its n pairs,
    each pair written as the int 2 * size + is-a-square.

    Only :func:`semigroup_isomorphism` uses it, and it stays with that
    search as part of the reference the census grouping is tested against.
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

    It takes any Hilbert bases, not only the 0/1 bases of all-ones
    settings, and no longer groups the census (:func:`incidence_isomorphism`
    does).  It stays as the independent oracle that the incidence test is
    checked against, and as the public name the benchmark harness wraps.

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
    R, base, d = linalg.rref(list(zip(*hb1)))
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
# isomorphism of invariant monoids


@dataclass(frozen=True)
class FacetIncidence:
    """The generator-facet incidence of an invariant basis.

    ``facets`` holds one bitmask over the generators per facet of the cone
    they span (bit g set iff generator g lies in the facet), sorted by
    (size, mask).  ``key`` is the number of generators, the number of
    facets and the sorted multiset over the generators of the sorted sizes
    of the facets that contain them; it does not depend on the order of the
    generators or of the arrows.
    """

    generators: int
    facets: tuple[int, ...]
    key: tuple


def facet_incidence(basis: Sequence[Sequence[int]]) -> FacetIncidence:
    """The facets of the cone spanned by an invariant basis, read off its zeros.

    ``basis`` is the 0/1 basis of :func:`invariant_generators`, the
    generators of the circulation cone C = ker W meet R>=0^arrows.  For an
    arrow a let Z_a be the set of generators with g_a = 0.  u_a >= 0 on C,
    so every Z_a spans a face of C, and every facet of C is C meet
    {u_a = 0} for some arrow a.  Every proper face lies in a facet, so the
    facets are exactly the inclusion-maximal Z_a that are proper subsets;
    no rank is computed.  An arrow on no cycle has Z_a = every generator
    and names no facet.  With no generators there are no facets.
    """
    m = len(basis)
    everyone = (1 << m) - 1
    bits = [1 << g for g in range(m)]
    zero_sets = {everyone ^ sum(itertools.compress(bits, column)) for column in zip(*basis)}
    zero_sets.discard(everyone)
    # a zero set that is not maximal lies in a larger maximal one, kept before it
    facets: list[int] = []
    for z in sorted(zero_sets, key=int.bit_count, reverse=True):
        if all(z & f != z for f in facets):
            facets.append(z)
    facets.sort(key=lambda z: (z.bit_count(), z))
    # per generator, the sizes of the facets that contain it, in order of size
    sizes: list[list[int]] = [[] for _ in range(m)]
    for f in facets:
        size = f.bit_count()
        while f:
            low = f & -f
            sizes[low.bit_length() - 1].append(size)
            f ^= low
    key = (m, len(facets), tuple(sorted(map(tuple, sizes))))
    return FacetIncidence(m, tuple(facets), key)


def incidence_isomorphism(
    first: FacetIncidence,
    second: FacetIncidence,
    *,
    deadline: float | None = None,
) -> dict[int, int] | None:
    """A generator bijection matching two facet incidences, or None.

    This decides isomorphism of the invariant monoids of two all-ones
    settings exactly.  Their generators are 0/1 vectors (the simple cycles;
    see :func:`invariant_generators`), so for any arrow a of a facet F the
    form u_a takes the values 0 and 1 on the generators: it is F's
    primitive support form, and two arrows of the same facet give the same
    form.  The cone is pointed, so its facet forms span the dual of the
    space it spans, and u -> (u_F) over the facets is injective there.  It
    carries the monoid onto the monoid generated by the rows of the 0/1
    generator x facet matrix.  A monoid isomorphism carries generators to
    generators and facets to facets (Bruns-Gubeladze, *Polytopes, Rings,
    and K-theory*, 2009, ch. 2).  So two such monoids are isomorphic iff
    their incidence matrices agree up to a permutation of the rows and one
    of the columns, and a matching of equal rows is a monoid isomorphism.

    The search assigns the facets of ``first``, in order of size, to unused
    facets of ``second`` of the same size, and goes on only while the
    sorted rows restricted to the facets assigned so far are equal on both
    sides.  A full assignment matches the generators by their equal rows;
    the result maps each generator of ``first`` to one of ``second``.

    ``deadline`` is a ``time.monotonic()`` reading, checked once per node
    of the search; past it the search raises
    :class:`~qsing.errors.BudgetExhaustedError`.
    """
    if first.key != second.key:
        return None
    m = first.generators
    facets1, facets2 = first.facets, second.facets
    sizes1 = [f.bit_count() for f in facets1]
    sizes2 = [f.bit_count() for f in facets2]
    # rows1[p]: the rows of ``first`` on its first p facets, one int per generator
    rows1 = [[0] * m]
    for f in facets1:
        rows1.append([(r << 1) | (f >> g & 1) for g, r in enumerate(rows1[-1])])
    targets = [sorted(rows) for rows in rows1]
    used = [False] * len(facets2)

    def search(p: int, rows2: list[int]) -> list[int] | None:
        """The rows of ``second`` under a full assignment extending the first p."""
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhaustedError("incidence search ran past its deadline")
        if p == len(facets1):
            return rows2
        for q, f in enumerate(facets2):
            if used[q] or sizes2[q] != sizes1[p]:
                continue
            grown = [(r << 1) | (f >> g & 1) for g, r in enumerate(rows2)]
            if sorted(grown) != targets[p + 1]:
                continue
            used[q] = True
            found = search(p + 1, grown)
            if found is not None:
                return found
            used[q] = False
        return None

    rows2 = search(0, [0] * m)
    if rows2 is None:
        return None
    order1 = sorted(range(m), key=rows1[-1].__getitem__)
    order2 = sorted(range(m), key=rows2.__getitem__)
    return dict(zip(order1, order2))


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


# the cycle walk reads the clock after every _CYCLES_PER_CHECK-th cycle it emits
_CYCLES_PER_CHECK = 1024


def invariant_generators(
    s: MarkedQuiverSetting, *, deadline: float | None = None
) -> list[Vector]:
    """Hilbert basis of the weight-zero monomials: the simple directed cycles.

    The invariant ring is generated by traces of oriented cycles (Le
    Bruyn-Procesi 1990), and with one-dimensional vertex spaces the trace of
    a cycle is the monomial of its arrows.  W is a digraph incidence matrix,
    hence totally unimodular, so the Hilbert basis of ker W meet N^arrows is
    exactly the set of 0/1 vectors of the simple directed cycles: flow
    decomposition writes every nonnegative circulation as a sum of simple
    cycles, and no simple cycle is a sum of two nonzero circulations (for a
    unimodular matrix the circuits are the Graver basis; Sturmfels,
    *Groebner Bases and Convex Polytopes*, 1996, ch. 4 and 8).  A loop is
    a 1-cycle.  The result equals ``hilbert_basis(W)``, sorted.

    One walk per least vertex s0 extends simple paths (visited vertices as
    a bitmask) through vertices above s0; every edge back to s0 closes one
    vertex cycle, which expands over the parallel arrows of its edges into
    0/1 vectors indexed by ``s.arrow_list()``.

    ``deadline`` is a ``time.monotonic()`` reading, checked once per least
    vertex and after every 1,024th cycle emitted; past it the walk raises
    :class:`~qsing.errors.BudgetExhaustedError`.
    """
    _require_all_ones(s)
    k = s.k
    # the slots of (tail, head) follow offset[tail * k + head] in arrow order
    offset = list(itertools.accumulate(itertools.chain(*s.arrows), initial=0))
    n = offset[-1]
    slots = [[range(offset[i * k + j], offset[i * k + j + 1]) for j in range(k)] for i in range(k)]
    successors = [[j for j in range(k) if s.arrows[i][j]] for i in range(k)]
    cycles: list[Vector] = []
    path: list[range] = []
    # the 0/1 vector of the cycle being emitted, cleared after each
    u = [0] * n

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhaustedError("invariant cycles ran past their deadline")

    def walk(s0: int, v: int, seen: int) -> None:
        for w in successors[v]:
            if w == s0:
                path.append(slots[v][w])
                for chosen in itertools.product(*path):
                    for a in chosen:
                        u[a] = 1
                    cycles.append(tuple(u))
                    for a in chosen:
                        u[a] = 0
                    if not len(cycles) % _CYCLES_PER_CHECK:
                        check_deadline()
                path.pop()
            elif w > s0 and not seen >> w & 1:
                path.append(slots[v][w])
                walk(s0, w, seen | 1 << w)
                path.pop()

    for s0 in range(k):
        check_deadline()
        walk(s0, s0, 1 << s0)
    cycles.sort()
    return cycles


def semi_invariant_generators(
    s: MarkedQuiverSetting, theta: Sequence[int], *, deadline: float | None = None
) -> tuple[GradedGenerator, ...]:
    """Generators of the graded ring of semi-invariants for theta.

    Solves W u = l * theta for (u, l) in N^(arrows+1); the minimal solutions
    are the algebra generators, graded by the multiple l and sorted by
    (degree, exponents).  theta = 0 returns the plain invariant ring in
    degree zero, from the cycle walk of :func:`invariant_generators`.

    Every degree is 0 or 1.  W is the incidence matrix of a digraph, hence
    totally unimodular, so {u >= 0 : W u = theta} has the integer
    decomposition property (Baum-Trotter 1977): a solution of degree l is a
    sum of l solutions of degree 1.

    ``deadline`` bounds the completion as in :func:`hilbert_basis`, or the
    cycle walk as in :func:`invariant_generators`.
    """
    t = _theta(s, theta)
    if not any(t):
        return tuple(GradedGenerator(u, 0) for u in invariant_generators(s, deadline=deadline))
    basis = hilbert_basis(
        [row + [-x] for row, x in zip(_weight_rows(s), t)], deadline=deadline
    )
    gens = (GradedGenerator(u[:-1], u[-1]) for u in basis)
    return tuple(sorted(gens, key=lambda g: (g.degree, g.exponents)))


def toric_relations(
    generators: Sequence[Sequence[int]],
    degree_bound: int = 4,
    *,
    deadline: float | None = None,
) -> list[Relation]:
    """Binomial relations among monomial generators up to a degree bound.

    Monomials in the generators (total degree <= degree_bound) are grouped by
    the arrow-exponent vector they evaluate to.  Fibers are visited in order
    of increasing minimal degree; inside a fiber whose monomials are not yet
    all connected by the relations already emitted, every pair of distinct
    connected components contributes one binomial.  Completeness beyond the
    bound is not claimed.  A degree bound below 1 raises ``ValueError``.

    The monomials are built degree by degree, each as its parent times one
    generator no smaller than the parent's largest, so its image is the
    parent's image plus that generator's exponents.  A fiber's components
    come from a union-find over the moves of the relations emitted so far,
    each the source lhs a monomial must dominate and the difference
    rhs - lhs it adds.  The union-find is undirected, so the reverse move
    rhs -> lhs would only find the same pairs from their other end.

    ``deadline`` is a ``time.monotonic()`` reading, checked once per degree
    and once per fiber visited; past it the search raises
    :class:`~qsing.errors.BudgetExhaustedError`.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    gens = [tuple(g) for g in generators]
    ng = len(gens)
    if ng == 0:
        return []

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhaustedError("toric relations ran past their deadline")

    # fibers fill in order of degree, so a fiber's first monomial has its
    # minimal degree
    fibers: dict[Vector, list[Vector]] = {}
    # (monomial, image, its largest generator) per monomial of the last degree
    layer = [((0,) * ng, (0,) * len(gens[0]), 0)]
    for _ in range(degree_bound):
        check_deadline()
        children = []
        for mono, img, low in layer:
            for j in range(low, ng):
                child = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                child_img = tuple(map(add, img, gens[j]))
                fibers.setdefault(child_img, []).append(child)
                children.append((child, child_img, j))
        layer = children

    relations: list[Relation] = []
    # (lhs, rhs - lhs) per relation
    moves: list[tuple[Vector, Vector]] = []
    order = sorted(
        (img for img, members in fibers.items() if len(members) > 1),
        key=lambda img: (sum(fibers[img][0]), img),
    )
    for img in order:
        check_deadline()
        members = fibers[img]
        index = {m: i for i, m in enumerate(members)}
        root = list(range(len(members)))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        for i, m in enumerate(members):
            for src, delta in moves:
                if all(map(ge, m, src)):
                    j = index.get(tuple(map(add, m, delta)))
                    if j is not None:
                        root[find(j)] = find(i)
        # the least monomial of each component, in order
        reps: dict[int, Vector] = {}
        for m in sorted(members):
            reps.setdefault(find(index[m]), m)
        if len(reps) <= 1:
            continue
        for lhs, rhs in itertools.combinations(reps.values(), 2):
            relations.append(Relation(lhs, rhs))
            moves.append((lhs, tuple(map(sub, rhs, lhs))))
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


def _support_arrows(s: MarkedQuiverSetting, support: Iterable[Arrow]) -> frozenset[Arrow]:
    """``support`` as a set; an arrow that is not in ``s`` raises ``ValueError``."""
    chosen = frozenset(support)
    for a in chosen:
        if not (
            a.tail in range(s.k)
            and a.head in range(s.k)
            and a.slot in range(s.marked_loops[a.tail] if a.marked else s.arrows[a.tail][a.head])
        ):
            raise ValueError(f"{a} is not an arrow of the setting")
    return chosen


def is_theta_semistable(
    s: MarkedQuiverSetting, support: Iterable[Arrow], theta: Sequence[int]
) -> StabilityVerdict:
    """King's test for an all-ones setting, exact and combinatorial.

    Every subrepresentation is a coordinate subspace, i.e. a vertex subset
    closed under the nonzero arrows ``support``.  Semistable means theta is
    >= 0 on every proper nonempty closed subset, stable means > 0; the
    witness is a minimizing subset when the verdict is negative, the first
    one in the order of (size, vertices).

    The test reads one table of the subsets with theta <= 0, stably sorted
    by theta, each with the bitmask of the arrows leaving it: a subset is
    closed under ``support`` iff that mask misses it, and the first such
    row is the witness (see :func:`_king_table`).
    """
    t = _theta(s, theta)
    _require_all_ones(s)
    # the slots of (tail, head) follow offset[tail * k + head] in arrow order
    offset = list(itertools.accumulate(itertools.chain(*s.arrows), initial=0))
    mask = 0
    for a in _support_arrows(s, support):
        mask |= 1 << (offset[a.tail * s.k + a.head] + a.slot)
    return _king_verdict(_king_table(s, t), mask)


_STABLE = StabilityVerdict(True, True, None)


def _king_table(s: MarkedQuiverSetting, t: Vector) -> list[tuple[int, StabilityVerdict]]:
    """The King's test table of an all-ones setting and a checked theta.

    One row per proper nonempty vertex subset X with theta(X) <= 0: the
    bitmask of the arrows leaving X (tail in X, head outside, bit i for
    arrow i of ``s.arrow_list()``) and the verdict X witnesses.  The rows
    are enumerated by (size, vertices) and stably sorted by theta(X), so
    the first row whose mask misses a support is the first minimizer among
    the subsets closed under it.  A support that no row fits is stable.
    """
    tails = [0] * s.k
    heads = [0] * s.k
    for i, (tail, head) in enumerate(_arrow_ends(s)):
        tails[tail] |= 1 << i
        heads[head] |= 1 << i
    rows = []
    for size in range(1, s.k):
        for subset in itertools.combinations(range(s.k), size):
            value = sum(map(t.__getitem__, subset))
            if value > 0:
                continue
            out = into = 0
            for v in subset:
                out |= tails[v]
                into |= heads[v]
            verdict = StabilityVerdict(value == 0, False, subset)
            rows.append((value, out & ~into, verdict))
    rows.sort(key=itemgetter(0))
    return [(leaving, verdict) for _, leaving, verdict in rows]


def _king_verdict(
    table: Sequence[tuple[int, StabilityVerdict]], support: int
) -> StabilityVerdict:
    """King's test of the arrow bitmask ``support`` against a :func:`_king_table`."""
    for leaving, verdict in table:
        if not leaving & support:
            return verdict
    return _STABLE


def semistable_via_semiinvariants(
    s: MarkedQuiverSetting,
    support: Iterable[Arrow],
    theta: Sequence[int],
    *,
    deadline: float | None = None,
) -> bool:
    """Detect semistability by a nonvanishing positive-weight semi-invariant.

    True when some generator of positive weight of the semi-invariant ring
    has support inside the nonzero arrows S.  Testing the generators is
    exact: a monomial semi-invariant of positive weight that does not vanish
    is a product of generators, each supported inside S, and at least one of
    them has positive weight.  The generators supported inside S are the
    Hilbert basis of W_S u = l * theta, with W_S the columns of S: the
    solutions supported inside S form a face of the solution monoid, and
    the Hilbert basis of a face is the part of the basis that lies in it.

    ``deadline`` bounds the completion as in :func:`hilbert_basis`.
    """
    t = _theta(s, theta)
    _require_all_ones(s)
    chosen = _support_arrows(s, support)
    if not any(t):
        # the constant 1 is a weight-zero semi-invariant vanishing nowhere
        return True
    cols = [i for i, a in enumerate(s.arrow_list()) if a in chosen]
    face = [[row[i] for i in cols] + [-x] for row, x in zip(_weight_rows(s), t)]
    return any(u[-1] for u in hilbert_basis(face, deadline=deadline))


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
    return _charts_and_graded_basis(s, theta)[0]


def _charts_and_graded_basis(
    s: MarkedQuiverSetting, theta: Sequence[int], deadline: float | None = None
) -> tuple[list[ProjChart], tuple[GradedGenerator, ...]]:
    """:func:`proj_charts` and the graded Hilbert basis they are read off."""
    t = _theta(s, theta)
    if not any(t):
        raise EmptyProjError("theta = 0 has no proj; use invariant_generators")
    graded = semi_invariant_generators(s, t, deadline=deadline)
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
    return charts, graded


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


def central_fiber(
    s: MarkedQuiverSetting, theta: Sequence[int], *, deadline: float | None = None
) -> list[FiberStratum]:
    """Semistable strata of the fiber over the origin of the quotient.

    Enumerates arrow-support sets on which every nonconstant invariant
    vanishes (no invariant generator's support fits inside) and keeps the
    theta-semistable ones.  The orbit-space dimension |S| - (k - 1) assumes
    the support spans a connected graph on all vertices; otherwise the
    stratum is flagged non_free_action and no dimension is reported.

    Supports, the supports of the invariant generators and the vertices
    an arrow touches are int bitmasks, so a support S carries an invariant
    iff u & S == u for some generator support u, and each support's King
    verdict comes from one :func:`_king_table` for the call.

    There are 2^arrows supports.  ``deadline`` is a ``time.monotonic()``
    reading, checked once per support and passed to the cycle walk of
    :func:`invariant_generators`; past it the search raises
    :class:`~qsing.errors.BudgetExhaustedError`.
    """
    t = _theta(s, theta)
    invariant_masks = [
        sum(1 << i for i, e in enumerate(u) if e)
        for u in invariant_generators(s, deadline=deadline)
    ]
    table = _king_table(s, t)
    ends = [(1 << tail) | (1 << head) for tail, head in _arrow_ends(s)]
    bits = [1 << i for i in range(len(ends))]
    everyone = (1 << s.k) - 1
    out = []
    for size in range(len(ends) + 1):
        for idx, chosen in zip(
            itertools.combinations(range(len(ends)), size),
            itertools.combinations(bits, size),
        ):
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhaustedError("central fiber ran past its deadline")
            mask = sum(chosen)
            # u & mask == u for an invariant support u iff u & ~mask == 0
            if not all(map((~mask).__and__, invariant_masks)):
                continue
            verdict = _king_verdict(table, mask)
            if not verdict.semistable:
                continue
            spanning = _spans([ends[i] for i in idx], everyone)
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
    budget_secs: float | None = None,
) -> dict:
    """The ``toric`` report of one action on an all-ones setting.

    Every report starts with the arrow legend, the order of exponent
    vectors.  ``invariants`` adds the invariant generators and ``relations``
    their binomial relations up to ``degree_bound``.  ``semistable`` decides
    King stability of the arrow indices in ``support`` both combinatorially
    and through semi-invariants and says whether the two verdicts agree;
    ``charts`` gives the proj charts and ``fiber`` the central fiber with its
    largest orbit-space dimension.  The last three need ``theta``.

    ``budget_secs`` bounds the wall-clock time of the invariant cycle walk,
    the Hilbert bases, the relations and the fiber search; past it they raise
    :class:`~qsing.errors.BudgetExhaustedError`.  A negative budget raises
    ``ValueError``.
    """
    if budget_secs is not None and budget_secs < 0:
        raise ValueError("budget must be >= 0 seconds")
    deadline = None if budget_secs is None else time.monotonic() + budget_secs
    arrows = s.arrow_list()
    report: dict = {
        "arrow_legend": [
            {"index": i, "tail": a.tail, "head": a.head, "slot": a.slot}
            for i, a in enumerate(arrows)
        ]
    }
    if action in ("invariants", "relations"):
        basis = invariant_generators(s, deadline=deadline)
        report["generators"] = [list(u) for u in basis]
        if action == "relations":
            relations = toric_relations(basis, degree_bound, deadline=deadline)
            report["relations"] = [r.to_json() for r in relations]
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
        via = semistable_via_semiinvariants(s, chosen, theta, deadline=deadline)
        report["support"] = list(support)
        report["verdict"] = verdict.to_json()
        report["via_semi_invariants"] = via
        report["verdicts_agree"] = verdict.semistable == via
    elif action == "charts":
        charts, graded = _charts_and_graded_basis(s, theta, deadline)
        report["charts"] = [c.to_json() for c in charts]
        # whatever lies below some (u, 0) has degree 0 too, so the degree-0
        # part of the graded basis is the invariant Hilbert basis, in order
        report["degree_zero_generators"] = [list(g.exponents) for g in graded if not g.degree]
    else:
        strata = central_fiber(s, theta, deadline=deadline)
        report["strata"] = [f.to_json() for f in strata]
        dims = [f.orbit_space_dim for f in strata if f.orbit_space_dim is not None]
        report["max_orbit_space_dim"] = max(dims) if dims else None
    return report


def _spans(ends: Sequence[int], everyone: int) -> bool:
    """Whether the edges ``ends`` (vertex bitmasks) touch and connect all of ``everyone``.

    The search grows from vertex 0, so the empty vertex set (``everyone``
    = 0) is not spanned.
    """
    touched = 0
    for e in ends:
        touched |= e
    if touched != everyone:
        return False
    reach = 1
    while True:
        grown = reach
        for e in ends:
            if e & grown:
                grown |= e
        if grown == reach:
            return reach == everyone
        reach = grown
