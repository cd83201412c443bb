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
        if any(m < 0 for m in self.marked_loops) or any(
            a < 0 for row in self.arrows for a in row
        ):
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

    def in_weight(self, v: int) -> int:
        """Sum of source dimensions over arrows into v (loops included)."""
        return sum(self.dims[i] * self.arrows[i][v] for i in range(self.k)) + (
            self.dims[v] * self.marked_loops[v]
        )

    def out_weight(self, v: int) -> int:
        return sum(self.arrows[v][j] * self.dims[j] for j in range(self.k)) + (
            self.dims[v] * self.marked_loops[v]
        )

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
    m = euler_matrix(s)
    return sum(b[i] * m[i][j] * g[j] for i in range(s.k) for j in range(s.k))


def strongly_connected(s: MarkedQuiverSetting, support: Iterable[int] | None = None) -> bool:
    """True when the (support-restricted) underlying digraph is strongly connected.

    Loops are irrelevant to connectivity.  An empty support is not connected;
    a single vertex is.
    """
    verts = sorted(set(range(s.k)) if support is None else set(support))
    if not verts:
        return False
    vset = set(verts)

    def reach(start: int, forward: bool) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in verts:
                if w in seen or w not in vset:
                    continue
                edge = s.arrows[v][w] if forward else s.arrows[w][v]
                if edge > 0:
                    seen.add(w)
                    stack.append(w)
        return seen

    root = verts[0]
    return reach(root, True) == vset and reach(root, False) == vset


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


def _vertex_signature(s: MarkedQuiverSetting, v: int) -> tuple:
    row = sorted(s.arrows[v][j] for j in range(s.k) if j != v)
    col = sorted(s.arrows[i][v] for i in range(s.k) if i != v)
    return (s.dims[v], s.marked_loops[v], s.arrows[v][v], tuple(row), tuple(col))


def _twin_pairs(s: MarkedQuiverSetting) -> list[list[bool]]:
    """twins[u][v] is true when swapping u and v is an automorphism."""
    k = s.k
    twins = [[False] * k for _ in range(k)]
    for u in range(k):
        for v in range(u + 1, k):
            if s.dims[u] != s.dims[v] or s.marked_loops[u] != s.marked_loops[v]:
                continue
            if s.arrows[u][u] != s.arrows[v][v] or s.arrows[u][v] != s.arrows[v][u]:
                continue
            if all(
                s.arrows[u][w] == s.arrows[v][w] and s.arrows[w][u] == s.arrows[w][v]
                for w in range(k)
                if w != u and w != v
            ):
                twins[u][v] = twins[v][u] = True
    return twins


def canonical_key(s: MarkedQuiverSetting) -> bytes:
    """Permutation-invariant key: equal keys iff the settings are isomorphic.

    Isomorphism means a vertex permutation matching dims, arrow
    multiplicities and marked-loop counts simultaneously.  The key is the
    lexicographically minimal incremental encoding over all vertex orders,
    found by branch-and-prune: only orders achieving the running minimum are
    extended, and of two unused vertices whose transposition is an
    automorphism only the smaller is placed (the continuations are
    isomorphic), which tames fully symmetric settings.
    """
    k = s.k
    if k > CANONICAL_KEY_MAX_VERTICES:
        raise CapacityError(
            f"canonical_key supports at most {CANONICAL_KEY_MAX_VERTICES} vertices, got {k}"
        )

    sigs = {v: _vertex_signature(s, v) for v in range(k)}
    twins = _twin_pairs(s)

    def segment(v: int, placed: list[int]) -> tuple:
        return (
            s.dims[v],
            s.marked_loops[v],
            s.arrows[v][v],
            tuple(s.arrows[v][w] for w in placed),
            tuple(s.arrows[w][v] for w in placed),
        )

    partial: list[tuple[tuple, list[int]]] = [((), [])]
    for _ in range(k):
        extended: list[tuple[tuple, list[int]]] = []
        best_seg = None
        for prefix, placed in partial:
            used = set(placed)
            unused = [v for v in range(k) if v not in used]
            cands = [
                v
                for v in unused
                if not any(u < v and twins[u][v] for u in unused)
            ]
            for v in cands:
                seg = (sigs[v], segment(v, placed))
                if best_seg is None or seg < best_seg:
                    best_seg = seg
                    extended = [(prefix + seg, placed + [v])]
                elif seg == best_seg:
                    extended.append((prefix + seg, placed + [v]))
        # distinct prefixes can reach this round only with equal encodings,
        # so comparing the per-round segment alone is enough
        partial = extended
    encoding = partial[0][0]
    return repr(encoding).encode("utf-8")

