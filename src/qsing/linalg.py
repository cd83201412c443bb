"""The tests' references and the exact algebra they use.

No pipeline code calls this module; the tests check the library's kernels
against it.  :func:`rref` and :func:`rank` use Bareiss's integer-preserving
Gauss-Jordan elimination (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22).  By Sylvester's
identity every division in it is exact, so entries stay minors of the input
and never grow into fractions.  :func:`hilbert_basis` completes the minimal
solutions in N^n of M u = 0; it is the reference of the toric kernels.
:func:`semigroup_isomorphism` searches for a linear map between two Hilbert
bases; it is the reference of ``toric.incidence_isomorphism``.
"""

from __future__ import annotations

from operator import add, ge, mul
from typing import Sequence

Vector = tuple[int, ...]


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced row echelon form: ``(R, pivots, d)``.

    ``R`` has one integer row per pivot with ``R[q][pivots[p]] == d`` when
    p == q and 0 otherwise, so ``R / d`` is the reduced row echelon form of
    ``rows``.  The pivot columns are the greedy choice from the left; every
    column j satisfies column_j = sum_q R[q][j] / d * column_{pivots[q]}.
    ``d`` is the pivot minor of ``rows`` after the row swaps; it is 1 when
    there is no pivot.  A ragged matrix or a non-int entry raises ``ValueError``.
    """
    mat = [list(row) for row in rows]
    ncols = len(mat[0]) if mat else 0
    if any(len(row) != ncols for row in mat):
        raise ValueError("ragged matrix")
    if any(type(x) is not int for row in mat for x in row):
        raise ValueError("matrix entries must be ints")
    pivots: list[int] = []
    d = 1
    for col in range(ncols):
        top = len(pivots)
        if top == len(mat):
            break
        found = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if found is None:
            continue
        if found != top:
            mat[top], mat[found] = mat[found], mat[top]
        prow = mat[top]
        p = prow[col]
        for r, row in enumerate(mat):
            if r != top:
                f = row[col]
                mat[r] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        pivots.append(col)
        d = p
    return mat[: len(pivots)], pivots, d


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals."""
    return len(rref(rows)[1])


def hilbert_basis(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Minimal nonzero solutions of M u = 0, u in N^n, sorted.

    The reference of the toric kernels; ``matrix`` is a list of rows of
    length n.  Round r holds the frontier of degree r, each vector u with
    g(u) = G u for G = M^T M: the condition <M u, M e_i> < 0 reads
    g(u)_i < 0, u + e_i carries g(u) + G e_i, and u is a solution iff
    g(u) = 0.  A round files its solutions before it extends the rest, and
    no frontier vector dominates a known solution, so u + e_i is compared
    only with the solutions whose i-th coordinate is u_i + 1.
    """
    rows = [tuple(r) for r in matrix]
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    columns = list(zip(*rows))
    gram = [tuple(sum(map(mul, ci, cj)) for cj in columns) for ci in columns]
    basis: list[tuple[int, ...]] = []
    # by_coord[i][c]: the known solutions b with b_i = c > 0
    by_coord: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in range(n)]
    unit = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
    frontier: dict[tuple[int, ...], tuple[int, ...]] = dict(zip(unit, gram))
    while frontier:
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
    in one fiber of the pair-sum map; ``fiber[i][j]`` is its id and
    ``size[f]`` its number of pairs.  A generator's profile is the sorted
    multiset of (fiber size, is-a-square) over its n pairs, each pair
    written as the int 2 * size + is-a-square.
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
        self.fiber, self.size = fiber, size
        self.profiles = [
            tuple(sorted(2 * size[f] + (i == j) for j, f in enumerate(fiber[i])))
            for i in range(n)
        ]


def semigroup_isomorphism(
    basis1: Sequence[Sequence[int]],
    basis2: Sequence[Sequence[int]],
) -> dict[int, int] | None:
    """A monoid isomorphism matching two Hilbert bases, or None.

    Searches for an injective linear map carrying one Hilbert basis of any
    kind onto the other, which identifies the semigroup algebras; it is the
    oracle of :func:`incidence_isomorphism`.  The map is fixed by the images
    of a base (the pivots of one elimination of ``basis1``), searched
    fewest equal-profile targets first.  An isomorphism maps each pair-sum
    fiber onto one of equal size, so every assignment is checked against
    all earlier ones, and a generator whose base coordinates are all
    assigned gets its image at once (an unused generator of ``basis2`` with
    an equal profile).  No check rejects a true isomorphism, and a complete
    assignment that passes them all is one.
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
    R, base, d = rref(list(zip(*hb1)))
    if n and rank(hb2) != len(base):
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
