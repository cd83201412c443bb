"""Toric invariant theory for all-ones settings.

With one-dimensional vertex spaces the base-change torus acts on each arrow
coordinate by a character, so invariants and semi-invariants are spanned by
monomials: the invariant ring is the semigroup ring of the kernel of the
weight matrix W, a stability vector theta grades the semi-invariants by the
multiple l in W u = l * theta, and every chart of their proj is a shift of
that one graded Hilbert basis.

W is the incidence matrix of a digraph, hence totally unimodular: the
invariant generators are the simple directed cycles (Le Bruyn-Procesi
1990), the positive-degree semi-invariant generators the acyclic integer
theta-flows, and a support carries a nonvanishing one iff a max-flow
solves a transshipment problem.

The kernels number the arrows as ``arrow_list()`` does, through
:func:`_edges`: per edge with arrows its tail, head and the range of its
parallel arrows' numbers.  The cycle walk and the theta-flows step along
its edges; King's test, the max-flow, the chart ranks and the central
fiber work on bitmasks of arrows (bit i for arrow i), and the binomial
relations on monomials packed into ints.

The census groups settings by isomorphism of their invariant monoids,
decided on bitmasks over the generators (see
:func:`incidence_isomorphism`).  The references these kernels are checked
against live in :mod:`qsing.linalg`.

Every ``deadline`` is a ``time.monotonic()`` reading.  A search given one
reads the clock once per step of its own work, through :func:`_check`,
and raises :class:`~qsing.errors.BudgetExhaustedError` at the first
reading past it; without a deadline it reads no clock.  Each search's
docstring names its step.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import ge, itemgetter, lshift, sub
from typing import Iterable, Iterator, Sequence

# the references of the kernels below, re-exported because the tests and the
# benchmark's tracer (perfbench/run.py) look both up on this module
from .linalg import hilbert_basis, semigroup_isomorphism
from .core import Arrow, MarkedQuiverSetting, exact_int
from .errors import BudgetExhaustedError, EmptyProjError, UnsupportedSettingError

Vector = tuple[int, ...]
# (tail, head, slots) of an edge with arrows, as :func:`_edges` lists them
Edge = tuple[int, int, range]


def _require_all_ones(s: MarkedQuiverSetting) -> None:
    if any(d != 1 for d in s.dims):
        raise UnsupportedSettingError("operation requires an all-ones dimension vector")
    if s.num_marked_loops:
        raise UnsupportedSettingError("operation requires a mark-free setting")


def _edges(s: MarkedQuiverSetting) -> list[Edge]:
    """(tail, head, slots) per edge with arrows, in ``s.arrow_list()`` order.

    ``slots`` are the indices of the edge's parallel arrows in that list, so
    the slots of all edges concatenate to ``range(len(s.arrow_list()))``.
    """
    edges, n = [], 0
    cols = range(s.k)
    for i, row in enumerate(s.arrows):
        for j in itertools.compress(cols, row):
            edges.append((i, j, range(n, n + row[j])))
            n += row[j]
    return edges


def _theta(s: MarkedQuiverSetting, theta: Sequence[int]) -> Vector:
    """``theta`` as a tuple of ints of length k with theta . alpha = 0, else ``ValueError``."""
    t = tuple(exact_int(x) for x in theta)
    if len(t) != s.k:
        raise ValueError(f"theta has length {len(t)}, setting has {s.k} vertices")
    if sum(x * d for x, d in zip(t, s.dims)) != 0:
        raise ValueError("theta . alpha must vanish")
    return t


def _check(deadline: float, message: str) -> None:
    """One step's clock reading: ``BudgetExhaustedError(message)`` if past ``deadline``."""
    if time.monotonic() > deadline:
        raise BudgetExhaustedError(message)


# ---------------------------------------------------------------------------
# isomorphism of invariant monoids


@dataclass(frozen=True)
class FacetIncidence:
    """The generator-facet incidence of an invariant basis.

    ``facets`` holds a bitmask over the generators per facet of the cone
    they span (bit g iff generator g lies in it), sorted by (size, mask).
    ``key`` is the number of generators, the number of facets and the sorted
    multiset over the generators of the sorted sizes of their facets,
    independent of generator and arrow order.
    """

    generators: int
    facets: tuple[int, ...]
    key: tuple


def facet_incidence(basis: Sequence[Sequence[int]]) -> FacetIncidence:
    """The facets of the cone spanned by an invariant basis, read off its zeros.

    ``basis`` is the 0/1 basis of :func:`invariant_generators`, the
    generators of the circulation cone C = ker W meet R>=0^arrows.  Let Z_a
    be the generators with g_a = 0.  u_a >= 0 on C, so every Z_a spans a
    face of C, and every facet of C is C meet {u_a = 0} for some arrow a.
    Every proper face lies in a facet, so the facets are exactly the
    inclusion-maximal Z_a that are proper subsets.  An arrow on no cycle
    has Z_a = every generator and names no facet.
    """
    bits = [1 << g for g in range(len(basis))]
    return _incidence(len(bits), [sum(itertools.compress(bits, c)) for c in zip(*basis)])


def invariant_incidence(
    s: MarkedQuiverSetting, *, deadline: float | None = None
) -> FacetIncidence:
    """``facet_incidence(invariant_generators(s))``, from the cycles as masks.

    Arrow a of n is bit n - 1 - a, so int order is the 0/1 vectors' order.
    The deadline steps are those of :func:`invariant_generators`.
    """
    bits = [1 << a for a in reversed(range(sum(map(sum, s.arrows))))]
    cycles = []
    for arrows in _cycle_arrows(s, deadline):
        mask = 0
        for a in arrows:
            mask |= bits[a]
        cycles.append((mask, arrows))
    cycles.sort()
    columns = [0] * len(bits)
    for g, (_, arrows) in enumerate(cycles):
        for a in arrows:
            columns[a] |= 1 << g
    return _incidence(len(cycles), columns)


def _incidence(m: int, columns: Iterable[int]) -> FacetIncidence:
    """The :class:`FacetIncidence` of m generators, given per arrow as masks."""
    everyone = (1 << m) - 1
    zero_sets = set(map(everyone.__xor__, columns))
    zero_sets.discard(everyone)
    # a zero set that is not maximal comes after a larger maximal one
    facets: list[int] = []
    for z in sorted(sorted(zero_sets, reverse=True), key=int.bit_count, reverse=True):
        if z not in map(z.__and__, facets):
            facets.append(z)
    facets.reverse()
    # per generator, the sizes of the facets that contain it, in order of size
    sizes: list[list[int]] = [[] for _ in range(m)]
    for f in facets:
        size = f.bit_count()
        while f:
            g = f.bit_length() - 1
            sizes[g].append(size)
            f ^= 1 << g
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
    settings exactly.  Their generators are the 0/1 vectors of the simple
    cycles, so for any arrow a of a facet F, u_a is F's primitive support
    form.  The cone is pointed, so u -> (u_F) over the facets is
    injective on the space it spans and carries the monoid onto the one
    generated by the rows of the 0/1 generator x facet matrix.  A monoid
    isomorphism carries generators to generators and facets to facets
    (Bruns-Gubeladze, *Polytopes, Rings, and K-theory*, 2009, ch. 2), so
    two such monoids are isomorphic iff their incidence matrices agree up
    to a permutation of the rows and one of the columns.

    The search assigns the facets of ``first``, in order of size, to unused
    facets of ``second`` of the same size while the sorted rows restricted
    to the facets assigned so far agree; a full assignment matches the
    generators by their equal rows.  Each side's generators are held as
    classes of equal rows, paired by row (partition refinement, McKay
    1981), so f may take facet e iff each pair has as many generators in f
    as in e.  The stack is explicit.

    One deadline step is a node of the search.
    """
    if first.key != second.key:
        return None
    m, facets1, facets2 = first.generators, first.facets, second.facets
    n = len(facets1)
    # facet p may take those of its size from lo[p] on; counts[p]: the
    # generators in facet p per class of first
    sizes = list(map(int.bit_count, facets1))
    lo = [bisect_left(sizes, x) for x in sizes] + [0]
    classes1, counts = [(1 << m) - 1], []
    for e in facets1:
        counts.append([(c & e).bit_count() for c in classes1])
        classes1 = [part for c in classes1 for part in (c & ~e, c & e) if part]
    # per node below the root: the facet taken, the classes of second
    taken, classes2 = [], [[(1 << m) - 1]]
    used = [False] * n
    q, late = 0, "incidence search ran past its deadline"
    if deadline is not None:
        _check(deadline, late)
    while len(taken) < n:
        p, rest = len(taken), classes2[-1]
        for q in range(q, bisect_right(sizes, sizes[p])):
            if used[q]:
                continue
            f = facets2[q]
            # most misfits differ in the first classes
            for c, k in zip(rest, counts[p]):
                if (c & f).bit_count() != k:
                    break
            else:
                break
        else:
            # no fit: the parent node tries its next facet
            if not taken:
                return None
            q = taken.pop()
            used[q] = False
            classes2.pop()
            q += 1
            continue
        used[q] = True
        taken.append(q)
        classes2.append([part for c in rest for part in (c & ~f, c & f) if part])
        if deadline is not None:
            _check(deadline, late)
        q = lo[p + 1]
    # the facet forms separate the generators, so each class holds one
    return {a.bit_length() - 1: b.bit_length() - 1 for a, b in zip(classes1, classes2[-1]) if a}


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

    def to_json(self) -> dict:
        return {"lhs": list(self.lhs), "rhs": list(self.rhs)}


def invariant_generators(
    s: MarkedQuiverSetting, *, deadline: float | None = None
) -> list[Vector]:
    """Hilbert basis of the weight-zero monomials: the simple directed cycles.

    The invariant ring is generated by traces of oriented cycles (Le
    Bruyn-Procesi 1990), here the monomials of their arrows.  W is totally
    unimodular, so the Hilbert basis of ker W meet N^arrows is the 0/1
    vectors of the simple directed cycles: flow decomposition writes every
    nonnegative circulation as a sum of simple cycles, and no simple cycle
    is a sum of two nonzero circulations (Sturmfels, *Groebner Bases and
    Convex Polytopes*, 1996, ch. 4 and 8).  A loop is a 1-cycle.  The result
    is ``hilbert_basis(W)``, sorted.

    One deadline step is a path extended or a cycle emitted.
    """
    u = [0] * sum(map(sum, s.arrows))
    cycles: list[Vector] = []
    for chosen in _cycle_arrows(s, deadline):
        for a in chosen:
            u[a] = 1
        cycles.append(tuple(u))
        for a in chosen:
            u[a] = 0
    cycles.sort()
    return cycles


def _cycle_arrows(s: MarkedQuiverSetting, deadline: float | None) -> Iterator[tuple[int, ...]]:
    """The arrows of each simple directed cycle of ``s``.

    One walk per least vertex s0 extends simple paths (visited vertices as
    a bitmask) through vertices above s0; every edge back to s0 closes a
    vertex cycle, expanded over the parallel arrows of its edges.  The path
    is an explicit stack.
    """
    _require_all_ones(s)
    k = s.k
    # per vertex its successors w, each with the slots of its arrows to w
    successors: list[list[tuple[int, range]]] = [[] for _ in range(k)]
    for tail, head, slots in _edges(s):
        successors[tail].append((head, slots))
    path: list[range] = []
    for s0 in range(k):
        # the path's vertices, and per vertex the successors left to try
        verts, todo, seen = [s0], [iter(successors[s0])], 1 << s0
        while todo:
            v = verts[-1]
            for w, slots in todo[-1]:
                if w == s0:
                    path.append(slots)
                    for chosen in itertools.product(*path):
                        if deadline is not None:
                            _check(deadline, "invariant cycles ran past their deadline")
                        yield chosen
                    path.pop()
                elif w > s0 and not seen >> w & 1:
                    if deadline is not None:
                        _check(deadline, "invariant cycles ran past their deadline")
                    path.append(slots)
                    verts.append(w)
                    todo.append(iter(successors[w]))
                    seen |= 1 << w
                    break
            else:
                todo.pop()
                verts.pop()
                seen ^= 1 << v
                if verts:
                    path.pop()


def semi_invariant_generators(
    s: MarkedQuiverSetting, theta: Sequence[int], *, deadline: float | None = None
) -> tuple[GradedGenerator, ...]:
    """Generators of the graded ring of semi-invariants for theta.

    These are the minimal solutions (u, l) in N^(arrows+1) of W u = l * theta,
    sorted by (degree l, exponents).  Degree 0 is the cycle walk of
    :func:`invariant_generators`; theta = 0 has nothing else.

    Every other degree is 1: W is totally unimodular, so {u >= 0 : W u =
    theta} has the integer decomposition property (Baum-Trotter 1977).  And
    (u, 1) is reducible iff the support of u contains a directed cycle:
    subtracting a simple cycle in it reduces it, and (u', 1) + (c, 0) with
    c != 0 has the cycles of c in its support.  So the degree-1 generators
    are the acyclic integer theta-flows, u >= 0 with W u = theta and no
    directed cycle (a loop is one) in the support.

    They are searched depth-first over the edges (tail, head), tail != head,
    each value then spread over the edge's parallel arrows in every way.  An
    acyclic flow is a sum of simple paths from theta < 0 to theta > 0 of
    total weight T, the sum of the positive entries of theta, so no edge
    carries more than T, and no vertex takes in more than T less its supply
    or sends out more than T less its demand.  A value is kept within these
    bounds, if both its vertices can still balance with at most T on each
    later edge, and, if positive, if its head does not reach its tail.

    One deadline step is a step of :func:`invariant_generators`, an edge
    placed or a flow emitted.
    """
    t = _theta(s, theta)
    gens = [GradedGenerator(u, 0) for u in invariant_generators(s, deadline=deadline)]
    k, cap = s.k, sum(x for x in t if x > 0)
    n = sum(map(sum, s.arrows))
    edges = [e for e in _edges(s) if e[0] != e[1]]
    # room[e]: cap times the edges after e into and out of its head and tail
    into, out = [0] * k, [0] * k
    room = [(0, 0, 0, 0)] * len(edges)
    for e in reversed(range(len(edges))):
        tail, head, _ = edges[e]
        room[e] = (into[head] * cap, out[head] * cap, into[tail] * cap, out[tail] * cap)
        into[head] += 1
        out[tail] += 1
    if not cap or any(not -out[v] * cap <= t[v] <= into[v] * cap for v in range(k)):
        return tuple(gens)
    # the flow into and out of each vertex so far, and the most it may reach
    inflow, outflow = [0] * k, [0] * k
    most_in, most_out = [cap - max(-x, 0) for x in t], [cap - max(x, 0) for x in t]
    reach = [1 << v for v in range(k)]  # the vertices v reaches, v included
    values = [0] * len(edges)
    flows: list[Vector] = []

    def place(e: int) -> Iterator:
        if deadline is not None:
            _check(deadline, "theta-flows ran past their deadline")
        if e == len(edges):
            slots = map(itemgetter(2), edges)
            spreads = map(itertools.combinations_with_replacement, slots, values)
            for chosen in itertools.product(*spreads):
                if deadline is not None:
                    _check(deadline, "theta-flows ran past their deadline")
                u = [0] * n
                for a in itertools.chain(*chosen):
                    u[a] += 1
                flows.append(tuple(u))
            return
        tail, head, _ = edges[e]
        in_h, out_h, in_t, out_t = room[e]
        need_h = t[head] - inflow[head] + outflow[head]
        need_t = t[tail] - inflow[tail] + outflow[tail]
        lo = max(0, need_h - in_h, -out_t - need_t)
        hi = min(need_h + out_h, in_t - need_t, most_in[head] - inflow[head])
        hi = min(hi, most_out[tail] - outflow[tail])
        if not lo and hi >= 0:
            yield place(e + 1)
            lo = 1
        if lo > hi or reach[head] >> tail & 1:
            return
        saved = reach[:]
        for v in range(k):
            if reach[v] >> tail & 1:
                reach[v] |= reach[head]
        for x in range(lo, hi + 1):
            values[e] = x
            inflow[head] += x
            outflow[tail] += x
            yield place(e + 1)
            inflow[head] -= x
            outflow[tail] -= x
        values[e] = 0
        reach[:] = saved

    # each level yields its child levels, which wait on an explicit stack
    stack = [place(0)]
    while stack:
        for child in stack[-1]:
            stack.append(child)
            break
        else:
            stack.pop()
    flows.sort()
    return tuple(gens + [GradedGenerator(u, 1) for u in flows])


def toric_relations(
    generators: Sequence[Sequence[int]],
    degree_bound: int = 4,
    *,
    deadline: float | None = None,
) -> list[Relation]:
    """Binomial relations among monomial generators up to a degree bound.

    Monomials in the generators (total degree <= degree_bound) are grouped by
    the arrow-exponent vector they evaluate to.  Fibers are visited in order
    of increasing minimal degree; in a fiber not yet connected by the
    relations already emitted, every pair of distinct connected components
    contributes one binomial.  Completeness beyond the bound is not
    claimed.  A degree bound below 1 raises ``ValueError``, and so do
    generators of unequal length or with an entry that is not an ``int``
    >= 0.

    The monomials are built degree by degree, each as its parent times one
    generator no smaller than the parent's largest.  A fiber's components
    come from an undirected union-find over the moves m -> m - lhs + rhs,
    m >= lhs, of the relations emitted so far.

    Monomials and images are packed into ints, one fixed-width field per
    generator or arrow coordinate, the first one most significant, so int
    order is tuple order and a child is its parent plus one constant.  A
    monomial field holds 2 * degree_bound, as m - lhs + rhs can reach that,
    and its top bit is a guard bit G that no monomial of degree <=
    degree_bound sets: m >= lhs in every field iff ((m | G) - lhs) & G ==
    G, and a move that overflows a field sets its guard bit and names no
    monomial.  An image field holds degree_bound times the largest
    generator entry.  Only the relations returned are unpacked into tuples.

    One deadline step is a parent monomial extended in a layer or a fiber
    member scanned.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    gens = [tuple(map(exact_int, g)) for g in generators]
    ng = len(gens)
    if ng == 0:
        return []
    length = len(gens[0])
    if any(len(g) != length for g in gens):
        raise ValueError("generators must share one length")
    if any(x < 0 for g in gens for x in g):
        raise ValueError("generator entries must be >= 0")
    width = (2 * degree_bound).bit_length()
    # generator j as a monomial: 1 in field j, field 0 the most significant
    units = [1 << shift for shift in range(width * (ng - 1), -1, -width)]
    guard = sum(units) << width - 1
    field = (1 << width) - 1

    def unpack(mono: int) -> Vector:
        return tuple(mono // unit & field for unit in units)

    largest = max(itertools.chain.from_iterable(gens), default=0)
    img_width = max(1, (degree_bound * largest).bit_length())
    shifts = range(img_width * (length - 1), -1, -img_width)
    images = [sum(map(lshift, g, shifts)) for g in gens]
    # (generator, its monomial, its image) per generator
    steps = list(zip(range(ng), units, images))
    fibers: defaultdict[int, list[int]] = defaultdict(list)
    # the number of fibers after each degree: fibers fill in order of
    # degree, so those of one degree are a run, of their minimal degree
    runs = []
    # (monomial, image, its largest generator) per monomial of the last degree
    layer = [(0, 0, 0)]
    for _ in range(degree_bound):
        children = []
        for mono, img, low in layer:
            if deadline is not None:
                _check(deadline, "toric relations ran past their deadline")
            for j, unit, image in steps[low:]:
                child, child_img = mono + unit, img + image
                fibers[child_img].append(child)
                children.append((child, child_img, j))
        layer = children
        runs.append(len(fibers))

    relations: list[Relation] = []
    # (lhs, rhs) per relation
    moves: list[tuple[int, int]] = []
    order: list[int] = []
    keys = list(fibers)
    for start, stop in zip([0, *runs], runs):
        order += sorted(img for img in keys[start:stop] if len(fibers[img]) > 1)
    for img in order:
        members = fibers[img]
        index = {m: i for i, m in enumerate(members)}
        root = list(range(len(members)))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        for i, m in enumerate(members):
            if deadline is not None:
                _check(deadline, "toric relations ran past their deadline")
            high = m | guard
            for lhs, rhs in moves:
                if (high - lhs) & guard == guard:
                    j = index.get(m - lhs + rhs)
                    if j is not None:
                        root[find(j)] = find(i)
        # the least monomial of each component, in order
        reps: dict[int, int] = {}
        for m in sorted(members):
            reps.setdefault(find(index[m]), m)
        if len(reps) <= 1:
            continue
        for lhs, rhs in itertools.combinations(reps.values(), 2):
            relations.append(Relation(unpack(lhs), unpack(rhs)))
            moves.append((lhs, rhs))
    return relations


# ---------------------------------------------------------------------------
# stability


@dataclass(frozen=True)
class StabilityVerdict:
    semistable: bool
    stable: bool
    witness: tuple[int, ...] | None

    def to_json(self) -> dict:
        witness = None if self.witness is None else list(self.witness)
        return {**vars(self), "witness": witness}


def _support_mask(s: MarkedQuiverSetting, support: Iterable[Arrow]) -> int:
    """``support`` as a bitmask over the arrows of a mark-free ``s``, else ``ValueError``.

    Arrow (tail, head, slot) is bit number slot plus the arrows of the rows
    above ``tail`` and of row ``tail`` before ``head``, in ``s.arrow_list()``
    order; a support has a few arrows, so no slot table is built.
    """
    mask = 0
    vertices, rows = range(s.k), s.arrows
    for a in support:
        tail, head, slot = a.tail, a.head, a.slot
        if a.marked or not (
            tail in vertices and head in vertices and slot in range(rows[tail][head])
        ):
            raise ValueError(f"{a} is not an arrow of the setting")
        mask |= 1 << (sum(map(sum, rows[:tail])) + sum(rows[tail][:head]) + slot)
    return mask


def is_theta_semistable(
    s: MarkedQuiverSetting,
    support: Iterable[Arrow],
    theta: Sequence[int],
    *,
    deadline: float | None = None,
) -> StabilityVerdict:
    """King's test for an all-ones setting, exact and combinatorial.

    Every subrepresentation is a coordinate subspace, i.e. a vertex subset
    closed under the nonzero arrows ``support``.  Semistable means theta is
    >= 0 on every proper nonempty closed subset, stable means > 0; the
    witness is a minimizing subset when the verdict is negative, the first
    one in the order of (size, vertices), read off :func:`_king_table`.
    One deadline step is a subset listed there.
    """
    t = _theta(s, theta)
    _require_all_ones(s)
    table = _king_table(s, t, deadline=deadline)
    mask = _support_mask(s, support)
    row = next((row for row in table if not row[1] & mask), None)
    if row is None:
        return _STABLE
    value, _, subset = row
    return StabilityVerdict(value == 0, False, subset)


_STABLE = StabilityVerdict(True, True, None)


def _king_table(
    s: MarkedQuiverSetting, t: Vector, *, deadline: float | None = None
) -> list[tuple[int, int, tuple[int, ...]]]:
    """The King's test table of an all-ones setting and a checked theta.

    One row (theta(X), leaving, X) per proper nonempty vertex subset X with
    theta(X) <= 0, ``leaving`` the bitmask of the arrows leaving X,
    enumerated by (size, vertices) and stably sorted by theta(X), so the
    first row whose mask misses a support is the first minimizer among the
    subsets closed under it: semistable iff its theta(X) is 0, and never
    stable.  A support that no row fits is stable.

    There are 2^k - 2 subsets; one deadline step is a subset listed.
    """
    tails = [0] * s.k
    heads = [0] * s.k
    for tail, head, slots in _edges(s):
        bits = ((1 << len(slots)) - 1) << slots.start
        tails[tail] |= bits
        heads[head] |= bits
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(s.k), size) for size in range(1, s.k)
    )
    rows = []
    for subset in subsets:
        if deadline is not None:
            _check(deadline, "King's test ran past its deadline")
        value = sum(map(t.__getitem__, subset))
        if value > 0:
            continue
        out = into = 0
        for v in subset:
            out |= tails[v]
            into |= heads[v]
        rows.append((value, out & ~into, subset))
    rows.sort(key=itemgetter(0))
    return rows


def semistable_via_semiinvariants(
    s: MarkedQuiverSetting,
    support: Iterable[Arrow],
    theta: Sequence[int],
    *,
    deadline: float | None = None,
) -> bool:
    """Detect semistability by a nonvanishing positive-weight semi-invariant.

    True when some monomial x^u of weight l * theta, l >= 1, is supported
    inside the nonzero arrows S.  By the integer decomposition property
    (see :func:`semi_invariant_generators`) one of weight theta exists iff
    any does: a theta-flow supported in S, the feasibility of an
    uncapacitated transshipment problem with supply -theta_v where
    theta < 0 and demand theta_v where theta > 0 (Gale 1957, Hoffman 1960).

    One max-flow decides it, not King's subset test: augmenting paths found
    breadth-first from the vertices with supply left, until all is shipped
    (the flow is the semi-invariant) or no path reaches a demand.  An arrow
    of S gets capacity T, the sum of the positive entries of theta: an
    acyclic flow, to which any flow cancels, carries no more.

    One deadline step is an augmenting path.
    """
    t = _theta(s, theta)
    _require_all_ones(s)
    mask = _support_mask(s, support)
    if not any(t):
        # the constant 1 is a weight-zero semi-invariant vanishing nowhere
        return True
    k, cap = s.k, sum(x for x in t if x > 0)
    residual = [[0] * k for _ in range(k)]
    for tail, head, slots in _edges(s):
        if tail != head and mask >> slots.start & ((1 << len(slots)) - 1):
            residual[tail][head] = cap
    supply, demand = [max(-x, 0) for x in t], [max(x, 0) for x in t]
    while any(supply):
        if deadline is not None:
            _check(deadline, "semistability flow ran past its deadline")
        prev = [v if supply[v] else -1 for v in range(k)]
        queue = [v for v in range(k) if supply[v]]
        for v in queue:
            if demand[v]:
                break
            for w, left in enumerate(residual[v]):
                if left and prev[w] < 0:
                    prev[w] = v
                    queue.append(w)
        else:
            return False
        path = [v]
        while prev[path[-1]] != path[-1]:
            path.append(prev[path[-1]])
        hops = list(zip(path[1:], path))
        shipped = min(supply[path[-1]], demand[v], *(residual[x][y] for x, y in hops))
        for x, y in hops:
            residual[x][y] -= shipped
            residual[y][x] += shipped
        supply[path[-1]] -= shipped
        demand[v] -= shipped
    return True


# ---------------------------------------------------------------------------
# proj charts and the central fiber


@dataclass(frozen=True)
class ProjChart:
    """Affine chart of proj at a positive-degree generator.

    ``smooth`` means the chart monoid is N^a x Z^b.  ``monoid_generators``
    generates it, minimally when it has no units.  ``free_rank`` is the
    chart's dimension.
    """

    pivot: GradedGenerator
    monoid_generators: tuple[Vector, ...]
    smooth: bool
    free_rank: int

    def to_json(self) -> dict:
        gens = [list(g) for g in self.monoid_generators]
        return {**vars(self), "pivot": self.pivot.to_json(), "monoid_generators": gens}


def _cycle_rank(edges: Sequence[Edge], mask: int) -> int:
    """The cycle rank |E| - |V| + c of the arrows in the bitmask ``mask``.

    ``edges`` is the arrow index of :func:`_edges`.  The rank is the
    dimension of the circulations on those arrows, the kernel of W on their
    columns: it is the number of arrows in ``mask`` less the joins of a
    union-find that joins the ends of each edge ``mask`` hits, once per
    edge and never for a loop.  Every hit arrow but the one that makes a
    join closes one more independent cycle.
    """
    root: dict[int, int] = {}

    def find(v: int) -> int:
        while (up := root.get(v, v)) != v:
            root[v] = v = root.get(up, up)
        return v

    cycles = 0
    for tail, head, slots in edges:
        hits = (mask >> slots.start & ((1 << len(slots)) - 1)).bit_count()
        if not hits:
            continue
        cycles += hits
        if tail != head:
            x, y = find(tail), find(head)
            if x != y:
                root[x] = y
                cycles -= 1
    return cycles


def proj_charts(
    s: MarkedQuiverSetting, theta: Sequence[int], *, deadline: float | None = None
) -> list[ProjChart]:
    """One affine chart per positive-degree generator of the semi-invariant ring.

    The chart at a generator f = (e, 1) (every positive degree is 1) is the
    degree-zero part of the localization at f, generated by the shifts
    u - l * e of the graded generators (u, l): the monoid S of the v with
    W v = 0 and v_a >= 0 wherever e is 0.  Both ranks below are cycle
    ranks (see :func:`_cycle_rank`).

    Free rank.  The semi-invariant ring R is a graded domain whose
    transcendence degree r is the rank of its generators (u, l); R_f has
    the same fraction field and is the chart's ring with the unit f
    adjoined as a free variable, so every chart has monoid rank r - 1.  The
    cone {(u, l) >= 0 : W u = l * theta} has a relative-interior point that
    is positive on the union U of the generators' supports and has l > 0,
    so it spans {(u, l) : supp u in U, W u = l * theta}, of dimension
    1 + dim ker W|_U: r - 1 is the cycle rank of U.

    Smoothness.  The units of S are the integer circulations on supp(e).
    The projection p(v) = (v_a where e_a = 0) sends exactly them to 0, and
    p(S), the generators' exponents restricted there, is pointed and
    saturated of rank r - 1 less the cycle rank of supp(e).  Its Hilbert
    basis, the minimal nonzero images, spans it, so S is N^a x Z^b iff that
    basis has exactly that many elements.  The chart lists the shifts whose
    image is minimal or zero, visited in order of coordinate sum, each
    compared only with the minimal ones kept before it.

    One deadline step is a step of :func:`semi_invariant_generators` or a
    pivot.
    """
    return _graded_charts(s, theta, deadline)[1]


def _graded_charts(
    s: MarkedQuiverSetting, theta: Sequence[int], deadline: float | None
) -> tuple[tuple[GradedGenerator, ...], list[ProjChart]]:
    """The graded basis of :func:`semi_invariant_generators` and the :func:`proj_charts` read off it."""
    t = _theta(s, theta)
    if not any(t):
        raise EmptyProjError("theta = 0 has no proj; use invariant_generators")
    graded = semi_invariant_generators(s, t, deadline=deadline)
    pivots = [g for g in graded if g.degree]
    if not pivots:
        raise EmptyProjError("no positive-degree semi-invariants; semistable locus empty")
    edges = _edges(s)
    bits = [1 << a for a in range(len(graded[0].exponents))]
    union = sum(itertools.compress(bits, map(any, zip(*(g.exponents for g in graded)))))
    free_rank = _cycle_rank(edges, union)
    charts = []
    for pivot in pivots:
        if deadline is not None:
            _check(deadline, "proj charts ran past their deadline")
        e = pivot.exponents
        outside = [not x for x in e]
        # the generators by their image, their exponents where e is 0
        images: dict[Vector, list[GradedGenerator]] = {}
        for g in graded:
            images.setdefault(tuple(itertools.compress(g.exponents, outside)), []).append(g)
        chosen = images.pop((0,) * sum(outside))
        minimal: list[Vector] = []
        for w in sorted(images, key=sum):
            if not any(all(map(ge, w, m)) for m in minimal):
                minimal.append(w)
                chosen += images[w]
        # the shifts; the pivot's own is 0
        gens = sorted(
            tuple(map(sub, g.exponents, e)) if g.degree else g.exponents
            for g in chosen
            if g is not pivot
        )
        units = _cycle_rank(edges, sum(itertools.compress(bits, e)))
        charts.append(ProjChart(pivot, tuple(gens), len(minimal) == free_rank - units, free_rank))
    return graded, charts


@dataclass(frozen=True)
class FiberStratum:
    support: tuple[int, ...]
    stable: bool
    orbit_space_dim: int | None
    non_free_action: bool = False

    def to_json(self) -> dict:
        return {**vars(self), "support": list(self.support)}


def central_fiber(
    s: MarkedQuiverSetting, theta: Sequence[int], *, deadline: float | None = None
) -> list[FiberStratum]:
    """Semistable strata of the fiber over the origin of the quotient.

    Lists the arrow supports on which every nonconstant invariant vanishes
    and keeps the theta-semistable ones, sorted by (size, support).  The
    orbit-space dimension |S| - (k - 1) assumes the support spans a
    connected graph on all vertices; otherwise the stratum is flagged
    non_free_action, without one.

    The supports are searched depth-first, adding arrows in increasing
    order, with an explicit stack, one node per candidate support; three
    lemmas keep the search to the candidates.

    Acyclic iff no invariant.  The invariants are spanned by the simple
    directed cycles (see :func:`invariant_generators`), so S carries a
    nonconstant one iff it contains a directed cycle, a loop included.  The
    search admits arrow (tail, head) only if head does not yet reach tail,
    read off per-vertex bitmasks of the vertices that reach it (an arrow
    changes only those of its head's descendants), so it visits exactly the
    acyclic supports and needs no cycle walk.

    The upward-closed prune.  S is semistable iff it meets the leaving mask
    of every :func:`_king_table` row with theta(X) < 0, and a superset of a
    semistable support is semistable (King 1994).  So the children of S
    take only arrows up to the last arrow of the first row, in order of
    last arrow, that S misses: past it no descendant is semistable.  At
    theta = 0 no row is negative and no table is built: an acyclic support
    on k >= 2 vertices has a sink, a closed singleton with theta 0, so none
    is stable, while k = 1 has no proper subset and every support is stable.

    Spanning by joins.  Adding an arrow (never a loop) joins the components
    of its ends.  Each join merges two components, so S has at most k - 1
    and exactly k - 1 iff it connects all k vertices; S spans iff it does
    and is nonempty (with k = 1 no join is needed, and the empty support
    touches no vertex).

    One deadline step is a node of the search or a subset listed by
    :func:`_king_table`.
    """
    t = _theta(s, theta)
    _require_all_ones(s)
    k = s.k
    if any(t):
        table = _king_table(s, t, deadline=deadline)
        # (last arrow, leaving mask) per negative row, in order of last arrow
        negative = sorted((m.bit_length() - 1, m) for value, m, _ in table if value < 0)
        zero = [m for value, m, _ in table if not value]
    else:
        # a row with no leaving arrow stands for the closed singleton of a sink
        negative, zero = [], [0] * (k > 1)
    ends = [(tail, head) for tail, head, slots in _edges(s) for _ in slots]
    last = len(ends) - 1
    strata = []

    def visit(support: tuple[int, ...], mask: int, joins: int) -> int:
        """Keep the node's support if semistable; the last arrow its children may take."""
        if deadline is not None:
            _check(deadline, "central fiber ran past its deadline")
        for top, m in negative:
            if not m & mask:
                return top
        spanning = bool(support) and joins == k - 1
        dim = len(support) - (k - 1) if spanning else None
        strata.append(FiberStratum(support, all(map(mask.__and__, zero)), dim, not spanning))
        return last

    # per node: its support, mask and joins, per vertex the vertices that
    # reach it and its component, and the arrows left to try as children
    reach = [1 << v for v in range(k)]
    stack = [((), 0, 0, reach, reach, iter(range(visit((), 0, 0) + 1)))]
    while stack:
        support, mask, joins, reach, comp, arrows = stack[-1]
        for a in arrows:
            tail, head = ends[a]
            up = reach[tail]
            if up >> head & 1:
                continue
            child, child_mask = support + (a,), mask | 1 << a
            c = comp[tail]
            if c >> head & 1:
                child_comp, child_joins = comp, joins
            else:
                c |= comp[head]
                child_comp, child_joins = [c if x & c else x for x in comp], joins + 1
            top = visit(child, child_mask, child_joins)
            if top > a:
                child_reach = [x | up if x >> head & 1 else x for x in reach]
                todo = iter(range(a + 1, top + 1))
                stack.append((child, child_mask, child_joins, child_reach, child_comp, todo))
            break
        else:
            stack.pop()
    strata.sort(key=lambda f: (len(f.support), f.support))
    return strata


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
    stability of the arrow indices in ``support`` by King's test and by a
    semi-invariant and says whether the verdicts agree; ``charts`` gives
    the proj charts and ``fiber`` the central fiber with its largest
    orbit-space dimension.  The last three need ``theta``.

    ``budget_secs`` becomes the deadline of every search the action runs;
    the legend is built after them, so no budget waits on it.  A budget that
    is not >= 0, NaN included, raises ``ValueError``.
    """
    if budget_secs is not None and not budget_secs >= 0:
        raise ValueError("budget must be >= 0 seconds")
    deadline = None if budget_secs is None else time.monotonic() + budget_secs
    report: dict = {}
    if action in ("invariants", "relations"):
        basis = invariant_generators(s, deadline=deadline)
        report["generators"] = [list(u) for u in basis]
        if action == "relations":
            relations = toric_relations(basis, degree_bound, deadline=deadline)
            report["relations"] = [r.to_json() for r in relations]
            report["degree_bound"] = degree_bound
    elif action not in THETA_ACTIONS:
        raise ValueError(f"unknown toric action {action!r}")
    elif theta is None:
        raise ValueError(f"toric {action} needs a stability vector theta")
    else:
        report["theta"] = list(theta)
    if action == "semistable":
        if support is None:
            raise ValueError("toric semistable needs a support")
        n = sum(map(sum, s.arrows)) + s.num_marked_loops
        if any(not 0 <= i < n for i in support):
            raise ValueError(f"support indices must lie in 0..{n - 1}")
        # both searches reject a marked setting before they read the support,
        # so a marked loop's index needs no arrow
        wanted = set(support)
        chosen = [
            Arrow(tail, head, i - slots.start)
            for tail, head, slots in _edges(s)
            for i in slots
            if i in wanted
        ]
        verdict = is_theta_semistable(s, chosen, theta, deadline=deadline)
        via = semistable_via_semiinvariants(s, chosen, theta, deadline=deadline)
        report["support"] = list(support)
        report["verdict"] = verdict.to_json()
        report["via_semi_invariants"] = via
        report["verdicts_agree"] = verdict.semistable == via
    elif action == "charts":
        graded, charts = _graded_charts(s, theta, deadline)
        report["charts"] = [c.to_json() for c in charts]
        # the degree-0 part of the graded basis is the cycle walk
        report["degree_zero_generators"] = [list(g.exponents) for g in graded if not g.degree]
    elif action == "fiber":
        strata = central_fiber(s, theta, deadline=deadline)
        report["strata"] = [f.to_json() for f in strata]
        dims = [f.orbit_space_dim for f in strata if f.orbit_space_dim is not None]
        report["max_orbit_space_dim"] = max(dims) if dims else None
    # every search above rejects a marked setting, and the arrows of a
    # mark-free one are the edges' slots
    legend = [
        {"index": i, "tail": tail, "head": head, "slot": i - slots.start}
        for tail, head, slots in _edges(s)
        for i in slots
    ]
    return {"arrow_legend": legend, **report}
