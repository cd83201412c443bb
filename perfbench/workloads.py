"""The benchmark's workloads: seeded inputs, closed-loop items and output checks.

Each workload is built from the imported library (a namespace of qsing's
modules) and a seed, and runs one pass at a time: every item is sent only
after the previous one has finished, as a researcher's script or the CLI
drives the library.  Items call the library through module attributes looked
up at call time, so a tracer that replaces those attributes sees every call.

The checks hold for any correct version of qsing: they test mathematical
properties of the outputs and seed-independent invariants (the d=6 census),
never timing-dependent or implementation-specific values.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import signal
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler when an item overruns its deadline.

    A ``BaseException`` so that no ``except Exception`` in library code can
    swallow it.
    """


def on_alarm(signum, frame):
    raise DeadlineExceeded()


# In traced passes an item's alarm fires only at this multiple of its
# deadline, so the layers of an item that misses it are measured past it; the
# item still counts as missed.  Some proj_charts items on the first version
# take over 30 s, so the multiple stays small enough to bound a traced pass.
TRACED_ALARM_FACTOR = 10


@dataclass
class ItemResult:
    kind: str
    latency_s: float
    outcome: str  # "ok", "deadline", "raised" or "check"
    detail: str = ""
    item_id: int = 0
    span: tuple[float, float] = (0.0, 0.0)  # time.perf_counter at start and end
    deadline_s: float | None = None


def run_item(kind, call, check, deadline_s, tracer=None, clock=time.perf_counter):
    """Run one item under its deadline, then check its output.

    Returns the :class:`ItemResult` and the call's result (``None`` when it
    did not return).  An item that overruns its deadline counts as missed
    even when the alarm could not interrupt it, or, in a traced pass, was
    set later (``TRACED_ALARM_FACTOR``).  ``clock`` times the item.
    """
    traced = tracer.installed() if tracer else nullcontext()
    alarm_s = deadline_s * TRACED_ALARM_FACTOR if tracer and deadline_s else deadline_s
    outcome, detail, result = "ok", "", None
    began = time.perf_counter()
    start = clock()
    try:
        with traced, (tracer.item(kind) if tracer else nullcontext()):
            if alarm_s:
                signal.setitimer(signal.ITIMER_REAL, alarm_s)
            try:
                result = call()
            finally:
                if alarm_s:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        outcome = "deadline"
    except Exception as exc:  # an item that raises is a failed item, not a crash
        outcome, detail = "raised", repr(exc)
    latency = clock() - start
    span = (began, time.perf_counter())
    if outcome == "ok" and deadline_s and latency > deadline_s:
        outcome = "deadline"
    if outcome == "ok":
        problem = check(result)
        if problem:
            outcome, detail = "check", problem
    item_id = tracer.item_id if tracer else 0
    return ItemResult(kind, latency, outcome, detail, item_id, span, deadline_s), result


# ---------------------------------------------------------------------------
# census6


def canonical_form(s) -> tuple:
    """Isomorphism-invariant form of a setting: the least relabelling.

    Brute force over vertex permutations, independent of the library's
    ``canonical_key``; census settings have at most 5 vertices.
    """
    best = None
    for p in itertools.permutations(range(s.k)):
        form = (
            tuple(s.dims[v] for v in p),
            tuple(tuple(s.arrows[p[i]][p[j]] for j in range(s.k)) for i in range(s.k)),
            tuple(s.marked_loops[v] for v in p),
        )
        if best is None or form < best:
            best = form
    return best


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class Census6:
    """``enumerate_reduced_singular(6)`` followed by ``singular_type_classes``.

    The census has a single input, so the seed does not change it.  The two
    calls are its two items; the public ``progress`` callback delimits the
    enumeration's dims blocks, whose longest is reported per layer.
    """

    name = "census6"
    D = 6
    SETTINGS = 67
    CLASSES = 49
    # digests of the sorted canonical forms and of the class partition,
    # computed from the first version of qsing; they are mathematical
    # invariants of the census, not of its implementation
    SETTINGS_DIGEST = "aac7149319f0549f"
    PARTITION_DIGEST = "310923eb1cd0bbc6"

    def __init__(self, lib, seed: int):
        self.lib = lib

    def check_settings(self, settings) -> str | None:
        cls = self.lib.classification
        if len(settings) != self.SETTINGS:
            return f"{len(settings)} settings, expected {self.SETTINGS}"
        for s in settings:
            if cls.expected_dim(s, warn_if_not_simple=False) != self.D:
                return f"expected dimension is not {self.D}: {s.dumps()}"
            if not self.lib.core.strongly_connected(s):
                return f"not strongly connected: {s.dumps()}"
            if self.lib.reduction.applicable_moves(s):
                return f"not reduced: {s.dumps()}"
            if not self.lib.local_structure.is_simple_dimvector(s, s.dims):
                return f"not simple: {s.dumps()}"
            if cls.is_smooth_setting(s).smooth:
                return f"on the smooth list: {s.dumps()}"
        forms = sorted(canonical_form(s) for s in settings)
        if digest(forms) != self.SETTINGS_DIGEST:
            return "canonical forms differ from the census digest"
        return None

    def check_classes(self, classes, settings) -> str | None:
        if len(classes) != self.CLASSES:
            return f"{len(classes)} classes, expected {self.CLASSES}"
        members = [canonical_form(m) for c in classes for m in c.members]
        if sorted(members) != sorted(canonical_form(s) for s in settings):
            return "classes do not partition the enumerated settings"
        partition = sorted(sorted(canonical_form(m) for m in c.members) for c in classes)
        if digest(partition) != self.PARTITION_DIGEST:
            return "class partition differs from the census digest"
        return None

    def run_pass(self, tracer=None, clock=time.perf_counter):
        cls = self.lib.classification
        blocks: list[list] = []

        def progress(dims, found):
            if not blocks or blocks[-1][0] != dims:
                blocks.append([dims, clock()])

        def enumerate_():
            settings = cls.enumerate_reduced_singular(self.D, progress=progress)
            blocks.append([None, clock()])
            return settings

        enum, settings = run_item("enumerate", enumerate_, self.check_settings, None, tracer, clock)
        extras = {"enumerate_s": enum.latency_s, "found": len(settings or ())}
        if enum.outcome == "raised":
            return [enum], extras
        extras["block_max_s"] = max(
            (end[1] - begin[1] for begin, end in zip(blocks, blocks[1:])), default=0.0
        )
        group, _ = run_item(
            "group",
            lambda: cls.singular_type_classes(settings),
            lambda classes: self.check_classes(classes, settings),
            None,
            tracer,
            clock,
        )
        extras["group_s"] = group.latency_s
        return [enum, group], extras


# ---------------------------------------------------------------------------
# toric_queries


def random_all_ones(rng: random.Random, k: int, m: int):
    """m arrows placed uniformly on the k(k-1) off-diagonal slots, strongly connected."""
    slots = [(i, j) for i in range(k) for j in range(k) if i != j]
    while True:
        arrows = [[0] * k for _ in range(k)]
        for _ in range(m):
            i, j = rng.choice(slots)
            arrows[i][j] += 1
        if _strongly_connected(arrows):
            return arrows


def _strongly_connected(arrows) -> bool:
    k = len(arrows)

    def reach(forward: bool) -> int:
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w in range(k):
                edge = arrows[v][w] if forward else arrows[w][v]
                if edge and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen)

    return reach(True) == k and reach(False) == k


def random_theta(rng: random.Random, k: int) -> tuple[int, ...]:
    """Nonzero theta with entries in {-1, 0, 1} and theta . (1, ..., 1) = 0."""
    while True:
        theta = tuple(rng.choice((-1, 0, 1)) for _ in range(k))
        if sum(theta) == 0 and any(theta):
            return theta


def arrow_legend(arrows) -> list[tuple[int, int]]:
    """(tail, head) per arrow in the library's exponent order: row-major."""
    k = len(arrows)
    return [(i, j) for i in range(k) for j in range(k) for _ in range(arrows[i][j])]


def weight_zero(legend, u) -> bool:
    k = 1 + max(max(a) for a in legend)
    w = [0] * k
    for (tail, head), e in zip(legend, u):
        w[head] += e
        w[tail] -= e
    return len(u) == len(legend) and not any(w)


class ToricQueries:
    """Per-setting toric queries on strongly connected all-ones settings.

    The settings and stabilities come from a fixed catalogue drawn once from
    ``CATALOGUE_SEED``; the run's seed draws the supports of the stability
    checks.  The cost of one item changes by a third with the order of its
    arrows alone, so settings redrawn or relabelled per seed made p90 of the
    heavy items a lottery.  Small items cycle through the (vertices, arrows)
    strata; every tenth uses the Veronese multiple 2 theta.  A fixed dense
    tail runs ``invariant_generators`` only.
    """

    name = "toric_queries"
    SMALL = 200
    CATALOGUE_SEED = 0
    STRATA = tuple((k, m) for k in (2, 3, 4) for m in range(k, k + 5))
    SUPPORTS = 3
    RELATION_DEGREE = 3
    # item costs leave a gap from about 50 to 400 ms; a deadline inside it
    # keeps the set of misses the same when the machine's speed drifts.  A
    # missed item costs untraced passes its deadline however slow it is, so
    # only traced passes (which run it up to ten deadlines) see more of it
    DEADLINE_SMALL_S = 0.2
    DEADLINE_DENSE_S = 10.0
    # Hilbert-basis sizes of the dense tail (the basis is unique)
    DENSE = (
        ("complete5", "complete", 5, 1, 84),
        ("complete6", "complete", 6, 1, 409),
        ("cycle3x2", "cycle", 3, 2, 8),
        ("cycle3x3", "cycle", 3, 3, 27),
        ("cycle4x2", "cycle", 4, 2, 16),
        ("cycle4x3", "cycle", 4, 3, 81),
    )

    def __init__(self, lib, seed: int):
        self.lib = lib
        make = lib.core.MarkedQuiverSetting.make
        catalogue = random.Random(self.CATALOGUE_SEED)
        rng = random.Random(seed)
        self.small = []
        counts = {False: 0, True: 0}
        for n in range(self.SMALL):
            veronese = n % 10 == 9
            k, m = self.STRATA[counts[veronese] % len(self.STRATA)]
            counts[veronese] += 1
            arrows = random_all_ones(catalogue, k, m)
            theta = random_theta(catalogue, k)
            if veronese:
                theta = tuple(2 * t for t in theta)
            s = make([1] * k, arrows)
            legend = arrow_legend(arrows)
            supports = [
                [a for a in s.arrow_list() if rng.random() < 0.6] for _ in range(self.SUPPORTS)
            ]
            self.small.append((s, theta, supports, legend))
        self.dense = []
        for label, shape, k, mult, count in self.DENSE:
            if shape == "complete":
                arrows = [[0 if i == j else mult for j in range(k)] for i in range(k)]
            else:
                arrows = [[mult if j == (i + 1) % k else 0 for j in range(k)] for i in range(k)]
            self.dense.append((label, make([1] * k, arrows), arrow_legend(arrows), count))

    def small_call(self, s, theta, supports):
        toric = self.lib.toric
        gens = toric.invariant_generators(s)
        rels = toric.toric_relations(gens, self.RELATION_DEGREE)
        verdicts = [
            (
                toric.is_theta_semistable(s, support, theta).semistable,
                toric.semistable_via_semiinvariants(s, support, theta),
            )
            for support in supports
        ]
        fiber = toric.central_fiber(s, theta)
        charts = toric.proj_charts(s, theta)
        return gens, rels, verdicts, fiber, charts

    @staticmethod
    def check_small(legend, out) -> str | None:
        gens, rels, verdicts, fiber, charts = out
        if not gens:
            return "no invariant generators on a strongly connected setting"
        if not all(weight_zero(legend, u) for u in gens):
            return "an invariant generator has nonzero weight"

        def image(mono):
            return tuple(
                sum(c * g[a] for c, g in zip(mono, gens)) for a in range(len(legend))
            )

        for rel in rels:
            if tuple(rel.lhs) == tuple(rel.rhs) or image(rel.lhs) != image(rel.rhs):
                return f"relation sides differ: {rel.lhs} vs {rel.rhs}"
        for king, semi in verdicts:
            if king != semi:
                return f"King verdict {king} but semi-invariant verdict {semi}"
        if not charts:
            return "no proj charts"
        for chart in charts:
            if chart.free_rank > len(chart.monoid_generators):
                return "chart free rank exceeds its generator count"
        supports = [frozenset(i for i, e in enumerate(u) if e) for u in gens]
        for stratum in fiber:
            inside = frozenset(stratum.support)
            if any(sup <= inside for sup in supports):
                return f"fiber stratum {stratum.support} carries an invariant"
        return None

    @staticmethod
    def check_dense(label, legend, count, gens) -> str | None:
        if len(gens) != count:
            return f"{label}: {len(gens)} generators, expected {count}"
        if not all(weight_zero(legend, u) for u in gens):
            return "an invariant generator has nonzero weight"
        return None

    def run_pass(self, tracer=None, clock=time.perf_counter):
        items = []
        for s, theta, supports, legend in self.small:
            result, _ = run_item(
                "small",
                lambda: self.small_call(s, theta, supports),
                lambda out: self.check_small(legend, out),
                self.DEADLINE_SMALL_S,
                tracer,
                clock,
            )
            items.append(result)
        for label, s, legend, count in self.dense:
            result, _ = run_item(
                "dense",
                lambda: self.lib.toric.invariant_generators(s),
                lambda gens: self.check_dense(label, legend, count, gens),
                self.DEADLINE_DENSE_S,
                tracer,
                clock,
            )
            items.append(result)
        return items, {}


# ---------------------------------------------------------------------------
# conifold_algebra


class ConifoldAlgebra:
    """Exact rank-8 arithmetic: associativity, identities, representation points.

    Light triples follow the ``conifold-verify`` battery's distribution
    (1-4 words, 1-2 terms, exponents in {0, 1}, integer coefficients), except
    that their word counts cycle through the 64 combinations instead of being
    drawn: drawn, they made the 67th percentile of the light triples' number
    of polynomial products differ by a tenth between seeds, and cycled by half
    that.  Dense triples use all 8 words, 3 terms each, total degree <= 2 and
    rational coefficients.  Sample points are evaluated in batches of ten.
    """

    name = "conifold_algebra"
    LIGHT = 384  # six cycles of the word-count combinations
    DENSE = 20
    POINTS = 1000
    POINTS_PER_ITEM = 10

    def __init__(self, lib, seed: int):
        self.lib = lib
        cf = lib.conifold
        rng = random.Random(seed)
        self.seed = seed
        counts = itertools.cycle(itertools.product(range(1, 5), repeat=3))
        self.light = [
            tuple(self._light(rng, words) for words in next(counts)) for _ in range(self.LIGHT)
        ]
        self.dense = [tuple(self._dense(rng) for _ in range(3)) for _ in range(self.DENSE)]
        self.d = cf.commutator_element()
        poly = cf.CenterPoly.from_dict
        # B(v, w) of the ternary form [[x, z, 0], [z, y, 0], [0, 0, 1]]
        x, y, z, one = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
        form = {"XX": x, "YY": y, "ZZ": one, "XY": z, "YX": z}
        self.clifford = []
        for v, w in itertools.product("XYZ", repeat=2):
            mono = form.get(v + w)
            expected = cf.ConifoldElement.from_center(poly({mono: 2} if mono else {}))
            self.clifford.append((cf.ConifoldElement.from_word(v), cf.ConifoldElement.from_word(w), expected))
        self.d_squared = cf.ConifoldElement.from_center(poly({(0, 0, 2): 4, (1, 1, 0): -4}))
        # warm the basis-product table, as any long-running caller would
        for w1, w2 in itertools.product(cf.BASIS, repeat=2):
            cf.multiply(self._word(w1), self._word(w2))

    def _word(self, w):
        cf = self.lib.conifold
        return cf.ConifoldElement.from_word(w) if w else cf.ConifoldElement.one()

    def _light(self, rng, words: int):
        cf = self.lib.conifold
        coeffs = {}
        for word in rng.sample(cf.BASIS, words):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                terms[tuple(rng.randint(0, 1) for _ in range(3))] = Fraction(rng.randint(-3, 3))
            coeffs[word] = cf.CenterPoly.from_dict(terms)
        return cf.ConifoldElement(coeffs)

    def _dense(self, rng):
        cf = self.lib.conifold
        monos = [m for m in itertools.product(range(3), repeat=3) if sum(m) <= 2]
        coeffs = {}
        for word in cf.BASIS:
            terms = {}
            for mono in rng.sample(monos, 3):
                terms[mono] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            coeffs[word] = cf.CenterPoly.from_dict(terms)
        return cf.ConifoldElement(coeffs)

    def associativity(self, a, b, c):
        mul = self.lib.conifold.multiply
        return mul(mul(a, b), c), mul(a, mul(b, c))

    @staticmethod
    def check_equal(pair) -> str | None:
        left, right = pair
        return None if left == right else "sides differ"

    @staticmethod
    def center_values(p):
        x1, x2, x3, y1, y2, y3, z1, z2, z3 = p
        return x1 * x1 + x2 * x3, y1 * y1 + y2 * y3, x1 * y1 + (x2 * y3 + x3 * y2) / 2

    @staticmethod
    def residuals(p):
        x1, x2, x3, y1, y2, y3, z1, z2, z3 = p
        return (2 * x1 * z1 + x2 * z3 + x3 * z2, 2 * y1 * z1 + y2 * z3 + y3 * z2, z1 * z1 + z2 * z3 - 1)

    def check_points(self, out) -> str | None:
        for p, rank, m in out:
            if rank != 3:
                return f"jacobian rank {rank} at {p}"
            x, y, z = self.center_values(p)
            c = 4 * (z * z - x * y)
            square = tuple(
                tuple(sum(m[i][t] * m[t][j] for t in range(2)) for j in range(2)) for i in range(2)
            )
            if square != ((c, 0), (0, c)):
                return f"D(p)^2 != 4(z^2 - xy)(p) at {p}"
        return None

    def check_sample(self, points) -> str | None:
        if len(points) != self.POINTS:
            return f"{len(points)} points, expected {self.POINTS}"
        if any(any(self.residuals(tuple(map(Fraction, p)))) for p in points):
            return "a sampled point is off the scheme"
        return None

    def run_pass(self, tracer=None, clock=time.perf_counter):
        cf = self.lib.conifold
        items = []

        def add(kind, call, check):
            result, value = run_item(kind, call, check, None, tracer, clock)
            items.append(result)
            return value

        for kind, triples in (("light", self.light), ("dense", self.dense)):
            for a, b, c in triples:
                add(kind, lambda: self.associativity(a, b, c), self.check_equal)
        d = self.d
        for g in (cf.X, cf.Y, cf.Z):
            add("central", lambda: (cf.multiply(d, g), cf.multiply(g, d)), self.check_equal)
        add("d_squared", lambda: (cf.multiply(d, d), self.d_squared), self.check_equal)
        for v, w, expected in self.clifford:
            add("clifford", lambda: (cf.multiply(v, w) + cf.multiply(w, v), expected), self.check_equal)
        points = add("sample", lambda: cf.trep2_sample(self.POINTS, seed=self.seed), self.check_sample)
        for start in range(0, len(points or ()), self.POINTS_PER_ITEM):
            batch = [tuple(map(Fraction, p)) for p in points[start : start + self.POINTS_PER_ITEM]]
            add(
                "points",
                lambda: [(p, cf.trep2_jacobian_rank(p), cf.evaluate_at_point(d, p)) for p in batch],
                self.check_points,
            )
        return items, {}


WORKLOADS = {w.name: w for w in (Census6, ToricQueries, ConifoldAlgebra)}
