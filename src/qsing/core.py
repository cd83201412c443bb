"""Marked quiver settings, dimension vectors and the Euler form.

A setting is a finite directed multigraph with a positive dimension at every
vertex and an optional number of *marked* loops per vertex.  A representation
of a marked loop is constrained to a trace-zero matrix, which is why marked
loops are only allowed at vertices of dimension at least two (a trace-zero
1x1 matrix is identically zero).

Arrow multiplicities are stored as a k x k matrix; an individual arrow is
identified by (tail, head, slot), see :class:`Arrow`.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, DimensionMismatchError

DimVector = tuple[int, ...]

CANONICAL_KEY_MAX_VERTICES = 10


def as_dim_vector(entries: Sequence[int], k: int) -> DimVector:
    """Normalize a sequence of integers to a dimension vector of length k.

    Entries must be ``int`` (see :func:`exact_int`); anything else raises
    ``ValueError`` instead of being truncated.
    """
    vec = tuple(map(exact_int, entries))
    if len(vec) != k:
        raise DimensionMismatchError(f"expected length {k}, got {len(vec)}")
    if any(e < 0 for e in vec):
        raise ValueError("dimension vector entries must be non-negative")
    return vec


def unit_vector(k: int, v: int) -> DimVector:
    """Standard basis vector at vertex ``v``."""
    return tuple(1 if i == v else 0 for i in range(k))


@dataclass(frozen=True)
class Arrow:
    """One arrow of a setting, identified by (tail, head, slot).

    Marked loops live in their own slot space (``marked=True`` and
    ``tail == head``); they never mix with the unmarked diagonal entries.
    """

    tail: int
    head: int
    slot: int
    marked: bool = False

    def __post_init__(self):
        if self.marked and self.tail != self.head:
            raise ValueError("marked arrows must be loops")


@dataclass(frozen=True)
class MarkedQuiverSetting:
    """A directed multigraph with vertex dimensions and marked-loop counts.

    ``arrows[i][j]`` is the number of (unmarked) arrows from vertex i to
    vertex j; the diagonal holds unmarked loops.  ``marked_loops[v]`` counts
    the marked loops at v.  Vertices are 0-based everywhere, including the
    JSON interchange format.
    """

    dims: tuple[int, ...]
    arrows: tuple[tuple[int, ...], ...]
    marked_loops: tuple[int, ...]

    def __post_init__(self):
        k = len(self.dims)
        if len(self.arrows) != k or any(len(row) != k for row in self.arrows):
            raise ValueError("arrow matrix must be k x k")
        if len(self.marked_loops) != k:
            raise ValueError("marked_loops must have one entry per vertex")
        if min(self.marked_loops, default=0) < 0 or min(map(min, self.arrows), default=0) < 0:
            raise ValueError("multiplicities must be non-negative")

    @classmethod
    def make(
        cls,
        dims: Sequence[int],
        arrows: Sequence[Sequence[int]],
        marked_loops: Sequence[int] | None = None,
    ) -> "MarkedQuiverSetting":
        """Build a setting; every entry must be an ``int`` (a float or bool raises ``ValueError``)."""
        dims_t = tuple(exact_int(d) for d in dims)
        arrows_t = tuple(tuple(exact_int(a) for a in row) for row in arrows)
        marks_t = (
            tuple(exact_int(m) for m in marked_loops)
            if marked_loops is not None
            else tuple(0 for _ in dims_t)
        )
        return cls(dims_t, arrows_t, marks_t)

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def num_marked_loops(self) -> int:
        return sum(self.marked_loops)

    def loops_at(self, v: int) -> int:
        """Total loops at v, marked and unmarked."""
        return self.arrows[v][v] + self.marked_loops[v]

    def arrow_list(self) -> tuple[Arrow, ...]:
        """All arrows in a fixed order: unmarked row-major, then marked loops.

        This order is the legend used for exponent vectors in toric output.
        """
        out: list[Arrow] = []
        cols = range(self.k)
        for i, row in enumerate(self.arrows):
            # one C-level scan of each row, nothing per empty vertex pair
            for j in itertools.compress(cols, row):
                out.extend(Arrow(i, j, s) for s in range(row[j]))
        for v in range(self.k):
            out.extend(Arrow(v, v, s, marked=True) for s in range(self.marked_loops[v]))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "arrows": [list(row) for row in self.arrows],
            "marked_loops": list(self.marked_loops),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MarkedQuiverSetting":
        """Read ``to_json`` output; entries are checked by :meth:`make`."""
        try:
            return cls.make(data["dims"], data["arrows"], data.get("marked_loops"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed setting JSON: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def exact_int(value) -> int:
    """``value`` itself if it is an ``int``; anything else, bool included, raises ``ValueError``."""
    # bool is a subclass of int, so True would otherwise read as 1
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def euler_matrix(s: MarkedQuiverSetting) -> tuple[tuple[int, ...], ...]:
    """Matrix of the Euler form; markings are forgotten (marked loops count as loops)."""
    k = s.k
    return tuple(
        tuple(
            (1 if i == j else 0)
            - s.arrows[i][j]
            - (s.marked_loops[i] if i == j else 0)
            for j in range(k)
        )
        for i in range(k)
    )


def euler_form(s: MarkedQuiverSetting, beta: Sequence[int], gamma: Sequence[int]) -> int:
    """Bilinear Euler form beta^T M gamma of the underlying (unmarked) quiver.

    Defined on all of Z^k x Z^k; dimension vectors are the usual arguments
    but negative entries are fine.  Entries must be ``int`` (see
    :func:`exact_int`).
    """
    b = tuple(map(exact_int, beta))
    g = tuple(map(exact_int, gamma))
    if len(b) != s.k or len(g) != s.k:
        raise DimensionMismatchError(
            f"vectors must have length {s.k}, got {len(b)} and {len(g)}"
        )
    return sum(
        bi * ((1 - m) * gi - sum(map(operator.mul, row, g)))
        for bi, gi, row, m in zip(b, g, s.arrows, s.marked_loops)
        if bi
    )


def strongly_connected(s: MarkedQuiverSetting, support: Iterable[int] | None = None) -> bool:
    """True when the (support-restricted) underlying digraph is strongly connected.

    Loops are irrelevant to connectivity.  An empty support is not connected;
    a single vertex is.  Support entries must be ``int`` in ``range(k)``,
    else ``ValueError``.
    """
    arrows = s.arrows
    k = len(arrows)
    mask = (1 << k) - 1
    if support is not None:
        mask = 0
        for v in map(exact_int, support):
            if not 0 <= v < k:
                raise ValueError(f"support vertex {v} is not in range({k})")
            mask |= 1 << v
    if not mask:
        return False
    root = (mask & -mask).bit_length() - 1
    verts = range(k)
    # reach the support from its first vertex along rows, then along columns
    # (the transpose is built only once the rows reach every vertex)
    for nbrs in arrows, None:
        nbrs = nbrs or tuple(zip(*arrows))
        todo = mask ^ 1 << root  # bitmask of the support vertices not reached yet
        stack = [root]
        while todo and stack:
            for w in itertools.compress(verts, nbrs[stack.pop()]):
                if todo >> w & 1:
                    todo ^= 1 << w
                    stack.append(w)
        if todo:
            return False
    return True


def validate(s: MarkedQuiverSetting) -> list[str]:
    """Check the setting invariants; returns a list of violations (empty = ok).

    Whether the support is strongly connected is informational and reported
    as a note prefixed with "note:" rather than a violation.
    """
    problems = []
    if not s.dims:
        problems.append("setting must have at least one vertex")
    for v, d in enumerate(s.dims):
        if d < 1:
            problems.append(f"vertex {v}: dimension must be >= 1, got {d}")
    for v, m in enumerate(s.marked_loops):
        if m > 0 and s.dims[v] < 2:
            problems.append(f"vertex {v}: marked loop requires dim >= 2")
    if not strongly_connected(s):
        problems.append("note: support is not strongly connected")
    return problems


# ---------------------------------------------------------------------------
# canonical form


def canonical_key(s: MarkedQuiverSetting) -> bytes:
    """The UTF-8 ``repr`` of :func:`canonical_encoding`, a permutation-invariant key."""
    return repr(canonical_encoding(s)).encode("utf-8")


def canonical_encoding(s: MarkedQuiverSetting) -> tuple:
    """Permutation-invariant encoding: equal iff the settings are isomorphic.

    Isomorphism is a vertex permutation matching dims, arrow multiplicities
    and marked-loop counts.  The encoding is the least over all vertex
    orders: the vertex placed in round r adds its signature (dims, marks,
    loops, sorted off-diagonal row and column), then its dims, marks, loops
    and arrows to and from the placed vertices.  Only orders at the running
    minimum are extended, and of two unused twins (their transposition is
    an automorphism) only the smaller.

    A minimal order places the signatures sorted, so round r tries only the
    r-th smallest signature's class.  Twins share a class, so its smallest
    unused vertex stays a candidate, and dims, marks and loops agree in it,
    so the arrows to and from the placed vertices decide.  No skipped vertex
    could reach the minimum, and all surviving orders share one encoding,
    that of the search over every unused vertex.
    """
    k = s.k
    if k > CANONICAL_KEY_MAX_VERTICES:
        raise CapacityError(
            f"canonical_key supports at most {CANONICAL_KEY_MAX_VERTICES} vertices, got {k}"
        )
    dims, arrows, marks = s.dims, s.arrows, s.marked_loops
    cols = tuple(zip(*arrows))
    classes: dict[tuple, list[int]] = {}
    for v, (row, col) in enumerate(zip(arrows, cols)):
        sig = (dims[v], marks[v], row[v], tuple(sorted(row[:v] + row[v + 1 :])),
               tuple(sorted(col[:v] + col[v + 1 :])))
        classes.setdefault(sig, []).append(v)
    # smaller[v]: bitmask of the twins u < v, all inside v's class
    smaller = [0] * k
    for members in classes.values():
        for i, v in enumerate(members):
            for u in members[:i]:
                if arrows[u][v] == arrows[v][u] and all(
                    arrows[u][w] == arrows[v][w] and cols[u][w] == cols[v][w]
                    for w in range(k)
                    if w != u and w != v
                ):
                    smaller[v] |= 1 << u
    encoding: list = []
    partial = [((), 0)]  # the surviving orders: placed vertices, their bitmask
    for sig in sorted(classes):
        members = classes[sig]
        for _ in members:
            best = None
            extended = []
            for placed, used in partial:
                for v in members:
                    if used >> v & 1 or smaller[v] & ~used:
                        continue
                    seg = (tuple(map(arrows[v].__getitem__, placed)),
                           tuple(map(cols[v].__getitem__, placed)))
                    if best is None or seg < best:
                        best = seg
                        extended = [(placed + (v,), used | 1 << v)]
                    elif seg == best:
                        extended.append((placed + (v,), used | 1 << v))
            partial = extended
            encoding += sig, sig[:3] + best
    return tuple(encoding)
