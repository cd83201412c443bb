"""Smoothness classification and enumeration of singular reduced settings.

The central dimension expected at a defect-zero point is
``1 - chi(alpha, alpha) - #marked loops``; the defect subtracts the actual
dimension from it.  A setting is a smooth point of its quotient exactly when
its reduced form is one of six single-vertex shapes; everything else is
singular, and the singular reduced settings of a given expected dimension
are finitely many and enumerable.
"""

from __future__ import annotations

import enum
import itertools
import time
import warnings
from dataclasses import dataclass

from . import toric
from .core import (
    MarkedQuiverSetting,
    canonical_key,
    euler_form,
    strongly_connected,
    validate,
)
from .errors import BudgetExhaustedError
from .local_structure import is_simple_dimvector
from .reduction import ReductionResult, applicable_moves, reduce_setting


class SmoothShape(enum.Enum):
    PLAIN_VERTEX = "plain_vertex"
    ONE_LOOP = "one_loop"
    ONE_MARKED_LOOP = "one_marked_loop"
    TWO_LOOPS_DIM2 = "two_loops_dim2"
    LOOP_PLUS_MARKED_DIM2 = "loop_plus_marked_dim2"
    TWO_MARKED_LOOPS_DIM2 = "two_marked_loops_dim2"


@dataclass(frozen=True)
class SmoothListEntry:
    shape: SmoothShape
    dim: int

    def describe(self) -> str:
        return f"{self.shape.value}(k={self.dim})"


@dataclass(frozen=True)
class SingularityReport:
    setting: MarkedQuiverSetting
    reduced: MarkedQuiverSetting
    z: int
    expected_dim: int
    smooth: bool
    azumaya: bool
    matched_entry: SmoothListEntry | None

    def to_json(self) -> dict:
        return {
            "setting": self.setting.to_json(),
            "reduced": self.reduced.to_json(),
            "z": self.z,
            "expected_dim": self.expected_dim,
            "smooth": self.smooth,
            "azumaya": self.azumaya,
            "matched_entry": self.matched_entry.describe() if self.matched_entry else None,
        }


_FORMAL_DIM_WARNING = (
    "setting admits no simple representation of its full dimension vector; "
    "expected_dim is formal"
)


def _raw_expected_dim(s: MarkedQuiverSetting) -> int:
    return 1 - euler_form(s, s.dims, s.dims) - s.num_marked_loops


def expected_dim(s: MarkedQuiverSetting, *, warn_if_not_simple: bool = True) -> int:
    """Central dimension 1 - chi(alpha, alpha) - #marks at a defect-zero point.

    The formula is the dimension of the quotient only when alpha admits a
    simple representation; otherwise a warning is emitted and the raw value
    returned.
    """
    if warn_if_not_simple and not is_simple_dimvector(s, s.dims):
        warnings.warn(_FORMAL_DIM_WARNING, stacklevel=2)
    return _raw_expected_dim(s)


def dim_report(s: MarkedQuiverSetting) -> dict:
    """The ``dim`` report: the expected dimension, with a warning when it is formal."""
    report: dict = {"expected_dim": _raw_expected_dim(s)}
    if not is_simple_dimvector(s, s.dims):
        report["warnings"] = [_FORMAL_DIM_WARNING]
    return report


def defect(s: MarkedQuiverSetting, dim_x: int) -> int:
    """1 - chi(alpha, alpha) - #marks - dim_x; >= 0 for settings coming from orders."""
    if dim_x < 0:
        raise ValueError("dim_x must be non-negative")
    return _raw_expected_dim(s) - dim_x


def match_smooth_list(s: MarkedQuiverSetting) -> SmoothListEntry | None:
    """Match a *reduced* setting against the six smooth terminal shapes.

    All six have a single vertex: a bare vertex, one (marked or not) loop at
    any dimension, or exactly two loops in any marked/unmarked combination at
    dimension 2.
    """
    if s.k != 1:
        return None
    dim, loops, marks = s.dims[0], s.arrows[0][0], s.marked_loops[0]
    if (loops, marks) == (0, 0):
        return SmoothListEntry(SmoothShape.PLAIN_VERTEX, dim)
    if (loops, marks) == (1, 0):
        return SmoothListEntry(SmoothShape.ONE_LOOP, dim)
    if (loops, marks) == (0, 1):
        return SmoothListEntry(SmoothShape.ONE_MARKED_LOOP, dim)
    if dim == 2:
        if (loops, marks) == (2, 0):
            return SmoothListEntry(SmoothShape.TWO_LOOPS_DIM2, dim)
        if (loops, marks) == (1, 1):
            return SmoothListEntry(SmoothShape.LOOP_PLUS_MARKED_DIM2, dim)
        if (loops, marks) == (0, 2):
            return SmoothListEntry(SmoothShape.TWO_MARKED_LOOPS_DIM2, dim)
    return None


def is_smooth_setting(s: MarkedQuiverSetting) -> SingularityReport:
    """Reduce the setting and test membership in the smooth terminal list."""
    result: ReductionResult = reduce_setting(s)
    entry = match_smooth_list(result.reduced)
    azumaya = (
        result.reduced.k == 1
        and result.reduced.dims[0] == 1
        and result.reduced.loops_at(0) == 0
    )
    return SingularityReport(
        setting=s,
        reduced=result.reduced,
        z=result.z,
        expected_dim=_raw_expected_dim(s),
        smooth=entry is not None,
        azumaya=azumaya,
        matched_entry=entry,
    )


def classify_report(s: MarkedQuiverSetting, dim_x: int | None = None) -> dict:
    """The ``classify`` report: the smoothness report of ``s``.

    It adds the defect against the central dimension ``dim_x`` when one is
    given, and the findings of :func:`~qsing.core.validate`.
    """
    report = is_smooth_setting(s).to_json()
    if dim_x is not None:
        report["defect"] = defect(s, dim_x)
        report["dim_x"] = dim_x
    report["violations"] = validate(s)
    return report


def _vertex_contribution(dim: int, loops: int, marks: int) -> int:
    """A vertex's share of the counting bound on reduced settings of >= 2 vertices.

    The quotient dimension of such a setting is at least 1 plus these shares:
    a bare vertex of dimension a gives a, a single loop gives 2a (genuine)
    or 2a - 1 (marked), and k_m marked plus l genuine loops with
    k_m + l >= 2 give (k_m + l - 1) a^2 + a - k_m.  Loops only sit at
    vertices of dimension >= 2 in reduced settings.
    """
    total = loops + marks
    if total == 0:
        return dim
    if total == 1:
        return 2 * dim if loops == 1 else 2 * dim - 1
    return (total - 1) * dim * dim + dim - marks


# ---------------------------------------------------------------------------
# enumeration of singular reduced settings by dimension


def _dims_multisets(d: int):
    """Non-increasing dimension tuples compatible with expected dimension d.

    On >= 2 vertices the counting bound forces 1 + sum(dims) <= d; a single
    vertex only needs sum(dims) <= d.
    """
    yield from ((a,) for a in range(1, d + 1))

    def partitions(total: int, parts: int, cap: int):
        if parts == 1:
            if 1 <= total <= cap:
                yield (total,)
            return
        for first in range(min(total - parts + 1, cap), 0, -1):
            for rest in partitions(total - first, parts - 1, first):
                yield (first,) + rest

    for k in range(2, d):
        for total in range(k, d):
            yield from partitions(total, k, total)


def _loop_configs(dims: tuple[int, ...], budget: int, d: int):
    """Per-vertex (loops, marks) choices within the arrow budget, up to symmetry.

    Budget units are the expected-dimension contributions: a loop at v costs
    dims[v]^2, a mark dims[v]^2 - 1.  Dimension-1 vertices stay loop-free
    (reduced settings cannot carry them).  For k >= 2 the counting bound
    prunes configurations whose forced contribution already exceeds d.

    Vertices of equal dimension are interchangeable, so within each run of
    equal dims only non-decreasing (loops, marks) sequences are yielded.  The
    options of a vertex run in ascending (loops, marks) order and
    configurations in lexicographic order, so the sorted relabelling of a
    configuration comes before all its other relabellings: the first
    candidate of every isomorphism class is kept.
    """
    runs: list[list[tuple[int, int, int]]] = []
    for dim, run in itertools.groupby(dims):
        options = [(0, 0, 0)]
        if dim >= 2:
            w_loop, w_mark = dim**2, dim**2 - 1
            max_l = budget // w_loop
            for loops in range(max_l + 1):
                rem = budget - loops * w_loop
                for marks in range(0 if loops else 1, rem // w_mark + 1):
                    options.append((loops, marks, loops * w_loop + marks * w_mark))
        runs.append(list(itertools.combinations_with_replacement(options, len(list(run)))))
    k = len(dims)
    for parts in itertools.product(*runs):
        combo = [option for part in parts for option in part]
        cost = sum(c for _, _, c in combo)
        if cost > budget:
            continue
        if k >= 2 and d < 1 + sum(
            _vertex_contribution(dims[v], loops, marks) for v, (loops, marks, _) in enumerate(combo)
        ):
            continue
        yield tuple((l, m) for l, m, _ in combo), cost


def _fully_tied(dims: tuple[int, ...], loops: tuple[tuple[int, int], ...]) -> list[int]:
    """The vertices v whose swap with v + 1 keeps dims and (loops, marks)."""
    return [v for v in range(len(dims) - 1) if (dims[v], loops[v]) == (dims[v + 1], loops[v + 1])]


def _offdiag_matrices(dims: tuple[int, ...], loops: tuple[tuple[int, int], ...], budget: int):
    """Arrow matrices spending exactly the budget off the diagonal, up to tied swaps.

    The diagonal holds the unmarked loops ``loops[v][0]``; slot (i, j), i != j,
    costs dims[i] * dims[j] per arrow.  Vertex removal applies at a loop-free
    vertex v (k >= 2) whose weighted in-degree or out-degree (the sum of the
    dimensions at the other ends of its arrows) is at most dims[v], so only
    matrices where both exceed dims[v] at every such vertex are yielded.

    One depth-first loop fills the slots row by row, counts descending, from
    per-slot tables built once.  Raising row v's out-weight or column v's
    in-weight by one costs at least dims[v], so the rows still to fill need
    sum dims[v] * (dims[v] + 1) of the budget and the columns dims[v] times
    their in-weight deficit.  One arrow serves one row and one column, so the
    larger of the two bounds any completion; it prunes each row start, and
    the row part caps every count.  A row's out-weight is final at its last
    slot and a column's in-weight at its last row, so there a slot's lowest
    count is the least that clears dims[v].

    Vertices v and v + 1 with equal dims and equal (loops, marks) are fully
    tied: swapping them relabels a setting into an isomorphic one.  Matrices
    come in descending lexicographic order of their slot sequences, so the
    first of a class's relabellings is its lexicographic maximum; only
    matrices that no tied swap makes larger are yielded.  The swap exchanges
    columns v and v + 1 of the rows outside the pair, and rows v and v + 1
    with their entries at v and v + 1 crossed over, so the first slot where
    the two differ is (r, v + 1) of a row r outside the pair, against (r, v),
    or in row v + 1 against its image in row v.  While the pair is undecided
    that reference caps the slot's count, and a lower count settles the pair.
    """
    k = len(dims)
    matrix = [[loops[v][0] if v == w else 0 for w in range(k)] for v in range(k)]
    loop_free = [k >= 2 and sum(loops[v]) == 0 for v in range(k)]
    guarded = [(v, dims[v]) for v in range(k) if loop_free[v]]
    row_cost = [dims[v] * (dims[v] + 1) if loop_free[v] else 0 for v in range(k)]
    rows_left_cost = [sum(row_cost[r:]) for r in range(k + 1)]
    tied = _fully_tied(dims, loops)
    # per slot: i, j, their dims, the weight, the (pair bit, reference slot)
    # comparisons it decides, the rows-left cost at a row start (else None) and
    # after the row, and whether it ends a guarded row or a guarded column
    table = []
    for i in range(k):
        cols = [j for j in range(k) if j != i]
        for j in cols:
            deciders = [
                (1 << p, v, v + 1 if j == v else j) if i == v + 1 else (1 << p, i, v)
                for p, v in enumerate(tied)
                if i == v + 1 or (i != v and j == v + 1)
            ]
            table.append((
                i, j, dims[i], dims[j], dims[i] * dims[j],
                deciders,
                rows_left_cost[i] if j == cols[0] else None,
                rows_left_cost[i + 1],
                loop_free[i] and j == cols[-1],
                loop_free[j] and i == (k - 1 if j != k - 1 else k - 2),
            ))
    last = len(table) - 1
    if last < 0:
        if budget == 0:
            yield tuple(map(tuple, matrix))
        return
    undecided = (1 << len(tied)) - 1  # a bit per tied pair
    col_in = [0] * k  # weighted in-degree of each column over the filled slots
    row_out = [0] * k  # weighted out-degree of each row over the filled slots
    # per filled slot: its count, its lowest count and the pairs its count settled
    counts, lows, settled = [0] * last, [0] * last, [0] * last
    idx, left = 0, budget
    while True:
        i, j, di, dj, w, deciders, start, after, row_end, col_end = table[idx]
        top = (left - after) // w
        if start is not None:
            cols_cost = 0
            for v, dv in guarded:
                gap = dv + 1 - col_in[v]
                if gap > 0:
                    cols_cost += dv * gap
            if left < start or left < cols_cost:
                top = -1
        low = 0
        if row_end:
            low = (di - row_out[i]) // dj + 1
            if low < 0:
                low = 0
        if col_end:
            low_col = (dj - col_in[j]) // di + 1
            if low_col > low:
                low = low_col
        for bit, r, c in deciders:
            if undecided & bit and matrix[r][c] < top:
                top = matrix[r][c]
        if top >= low and idx < last:
            count = counts[idx] = matrix[i][j] = top
            lows[idx] = low
            left -= top * w
            col_in[j] += top * di
            row_out[i] += top * dj
        else:
            # no count fits here, or this is the last slot, which must spend what is left
            if top >= low and top * w == left:
                matrix[i][j] = top
                yield tuple(map(tuple, matrix))
            # back to the nearest slot that can still lower its count
            while True:
                idx -= 1
                if idx < 0:
                    return
                undecided |= settled[idx]
                i, j, di, dj, w, deciders = table[idx][:6]
                count = counts[idx]
                if count > lows[idx]:
                    break
                left += count * w
                col_in[j] -= count * di
                row_out[i] -= count * dj
            count = counts[idx] = matrix[i][j] = count - 1
            left += w
            col_in[j] -= di
            row_out[i] -= dj
        if deciders:
            now = 0
            for bit, r, c in deciders:
                if undecided & bit and count < matrix[r][c]:
                    now |= bit
            undecided ^= now
            settled[idx] = now
        idx += 1


def enumerate_reduced_singular(
    d: int,
    *,
    deadline: float | None = None,
    progress=None,
) -> list[MarkedQuiverSetting]:
    """All reduced singular settings of expected dimension d, up to isomorphism.

    Every returned setting is reduced, strongly connected, has expected
    dimension exactly d and does not match the smooth terminal list.
    Results are deduplicated by canonical key and sorted by it.  Such a
    setting always passes the simple-dimension-vector test of
    :func:`~qsing.local_structure.is_simple_dimvector`: one vertex off the
    smooth list has two or more loops and marks; on k >= 2 vertices a loop
    or mark brings a second in-arrow and a loop-free cycle a vertex removal,
    so the setting is no oriented cycle; and at each v a mark, an unmarked
    loop or the failed vertex removal puts dims[v] * (1 - marks at v) at
    most both weighted degrees of v.

    The generators yield only the candidates that survive the symmetry break
    of :func:`_loop_configs` and :func:`_offdiag_matrices`, which is far
    fewer than every relabelling (167 of 1,630 accepted at d = 6).  The
    break drops no class's first candidate in generation order, and every
    candidate it keeps comes in the same order as before, so each class is
    represented by the same setting with the same vertex labelling.

    ``deadline`` is a ``time.monotonic()`` reading, checked before each dims
    block and before each candidate inside it; past it the enumeration
    raises :class:`BudgetExhaustedError` carrying the sorted partial result.
    Without a deadline no clock is read.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    found: dict[bytes, MarkedQuiverSetting] = {}

    def check_budget(dims: tuple[int, ...]) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhaustedError(
                f"enumeration budget exhausted at dims={dims}",
                partial=[found[key] for key in sorted(found)],
            )

    for dims in _dims_multisets(d):
        check_budget(dims)
        if progress is not None:
            progress(dims, len(found))
        budget = d - 1 + sum(a * a for a in dims)
        for loops, loop_cost in _loop_configs(dims, budget, d):
            marks = tuple(m for _, m in loops)
            for arrows in _offdiag_matrices(dims, loops, budget - loop_cost):
                check_budget(dims)
                s = MarkedQuiverSetting(dims, arrows, marks)
                if not strongly_connected(s):
                    continue
                if applicable_moves(s):
                    continue
                if match_smooth_list(s) is not None:
                    continue
                if _raw_expected_dim(s) != d:
                    raise AssertionError(f"enumerated {s.dumps()} is not of expected dimension {d}")
                found.setdefault(canonical_key(s), s)
    return [found[key] for key in sorted(found)]


@dataclass(frozen=True)
class SingularTypeClass:
    """A group of enumerated settings with provably isomorphic central rings.

    For all-ones settings the invariant ring is a toric semigroup ring, and
    ring isomorphism is decided exactly by matching the generator-facet
    incidences of the invariant monoids (see
    :func:`~qsing.toric.incidence_isomorphism`).  Settings with higher
    vertex dimensions or marks have non-monomial invariant rings; each
    stays in its own class with
    ``equivalence_decided=False``, and so does every all-ones setting that a
    grouping budget ran out before placing.
    """

    representative: MarkedQuiverSetting
    members: tuple[MarkedQuiverSetting, ...]
    equivalence_decided: bool

    def to_json(self) -> dict:
        return {
            "representative": self.representative.to_json(),
            "members": [m.to_json() for m in self.members],
            "equivalence_decided": self.equivalence_decided,
        }


def singular_type_classes(
    settings: list[MarkedQuiverSetting],
    *,
    deadline: float | None = None,
) -> list[SingularTypeClass]:
    """Group settings by isomorphism of their central (invariant) rings.

    This is the equivalence under which the classification counts types: two
    non-isomorphic reduced settings can present the same singularity.  Within
    all-ones settings the grouping is decided exactly: each setting's
    invariant basis gives its generator-facet incidence
    (:func:`~qsing.toric.facet_incidence`), and the setting joins the first
    class whose representative's incidence matches its own under a
    permutation of the generators and one of the facets
    (:func:`~qsing.toric.incidence_isomorphism`).  It is compared only with
    representatives of an equal incidence key.  The match decides monoid
    isomorphism, so a found match is a proof, and a failed search or a
    distinct key a disproof.  Classes come in the order of their first
    members, which represent them.

    ``deadline`` is a ``time.monotonic()`` reading, checked before each
    all-ones setting, in its cycle walk (see
    :func:`~qsing.toric.invariant_generators`) and at every node of the
    incidence search; past it the grouping raises
    :class:`BudgetExhaustedError`.  In its partial result every setting not
    yet placed is a singleton class with ``equivalence_decided=False``.
    Without a deadline no clock is read.
    """
    # each class as (members, equivalence_decided), in order of its first member
    classes: list[tuple[list[MarkedQuiverSetting], bool]] = []
    # per incidence key, the classes as (representative's incidence, members)
    buckets: dict[tuple, list[tuple[toric.FacetIncidence, list[MarkedQuiverSetting]]]] = {}
    ones = [all(d == 1 for d in s.dims) for s in settings]
    exhausted = None
    for index, s in enumerate(settings):
        if not ones[index]:
            classes.append(([s], False))
            continue
        try:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhaustedError("grouping budget exhausted")
            incidence = toric.facet_incidence(toric.invariant_generators(s, deadline=deadline))
            bucket = buckets.setdefault(incidence.key, [])
            for rep, group in bucket:
                if toric.incidence_isomorphism(rep, incidence, deadline=deadline) is not None:
                    group.append(s)
                    break
            else:
                members = [s]
                bucket.append((incidence, members))
                classes.append((members, True))
        except BudgetExhaustedError:
            placed = sum(ones[:index])
            exhausted = f"grouping budget exhausted after {placed} of {sum(ones)} all-ones settings"
            classes.extend(([r], False) for r in settings[index:])
            break
    out = [SingularTypeClass(group[0], tuple(group), decided) for group, decided in classes]
    if exhausted is not None:
        raise BudgetExhaustedError(exhausted, partial=out)
    return out


EXPECTED_SINGULAR_COUNTS = {3: 1, 4: 3, 5: 10, 6: 53}


def census_report(
    d: int, *, budget_secs: float | None = None, progress=None
) -> tuple[dict, bool]:
    """The ``enumerate`` report for dimension d, and whether the census passed.

    The settings of :func:`enumerate_reduced_singular` are grouped into type
    classes and the type count is compared with ``EXPECTED_SINGULAR_COUNTS``.
    ``budget_secs`` becomes one deadline for the enumeration and the
    grouping together, so the grouping gets what the enumeration left of
    it; a budget that is not >= 0, NaN included, raises ``ValueError``.  A
    run out of budget reports its partial census, with the settings it
    could not group as undecided singleton classes, and fails.  A count
    that differs adds a diff report, and fails the census for d <= 5; the
    d = 6 count is a stretch goal.
    """
    if budget_secs is not None and not budget_secs >= 0:
        raise ValueError("budget must be >= 0 seconds")
    deadline = None if budget_secs is None else time.monotonic() + budget_secs
    exhausted = None
    try:
        settings = enumerate_reduced_singular(d, deadline=deadline, progress=progress)
    except BudgetExhaustedError as exc:
        settings, exhausted = exc.partial, str(exc)
    try:
        types = singular_type_classes(settings, deadline=deadline)
    except BudgetExhaustedError as exc:
        types, exhausted = exc.partial, exhausted or str(exc)
    expected = EXPECTED_SINGULAR_COUNTS.get(d)
    matches = expected is None or len(types) == expected
    report = {
        "dim": d,
        "setting_count": len(settings),
        "type_count": len(types),
        "expected_type_count": expected,
        "type_count_matches": matches,
        "settings": [s.to_json() for s in settings],
        "type_classes": [c.to_json() for c in types],
    }
    if exhausted is not None:
        report["budget_exhausted"] = exhausted
    if not matches:
        report["diff_report"] = {
            "expected": expected,
            "found_types": len(types),
            "found_settings": len(settings),
            "note": (
                "counts follow the permutation/ring-equivalence conventions of "
                "this tool; the published classification may group differently"
            ),
        }
    return report, exhausted is None and (matches or d > 5)


def selftest() -> dict:
    """The ``selftest`` report: defect fixtures and conifold sanity checks."""
    fixtures = [
        (MarkedQuiverSetting.make([1], [[2]]), 0),
        (MarkedQuiverSetting.make([1, 1], [[1, 1], [1, 0]]), 0),
        (MarkedQuiverSetting.make([2], [[0]], [2]), 1),
    ]
    checks = []
    for idx, (s, expected) in enumerate(fixtures):
        got = defect(s, 2)
        checks.append(
            {"check": f"defect fixture {idx}", "expected": expected, "got": got, "passed": got == expected}
        )
    conifold = MarkedQuiverSetting.make([1, 1], [[0, 2], [2, 0]])
    got = expected_dim(conifold)
    checks.append(
        {"check": "conifold central dimension", "expected": 3, "got": got, "passed": got == 3}
    )
    reduced_once = reduce_setting(conifold)
    reduced_twice = reduce_setting(reduced_once.reduced)
    checks.append(
        {
            "check": "reduction idempotent on the conifold setting",
            "passed": not reduced_twice.trace and reduced_once.reduced == conifold,
        }
    )
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
