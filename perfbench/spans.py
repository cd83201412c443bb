"""In-memory span tracer for the qsing benchmark.

The tracer wraps public qsing functions at the module attribute their caller
looks up (for example ``qsing.classification.applicable_moves``), so the
library itself is unchanged.  Every wrapped call maintains a stack of open
frames; a frame's duration is added to its parent's child time, which gives
exact self times even for calls recorded only as counters.  Calls that are
too hot to keep one record each (``euler_form`` runs ~375k times in the d=6
census) are aggregated; the rest also leave a span record

    (span_id, name, item_id, parent_id, start, end, child_s, ok)

where ``child_s`` is the time covered by all wrapped children, spans and
counters alike.  Spans stay in memory; the benchmark writes them out when it
ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

ROOT_SPAN = 0


class LayerStats:
    """Aggregate of one layer: calls, self time and outcome counters."""

    __slots__ = ("calls", "self_s", "hits", "size_max")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0
        self.size_max = 0


class Tracer:
    """Wraps functions at their call sites and records spans and counters.

    ``hit`` is a predicate on a call's result counted in ``LayerStats.hits``
    (a rejection, a match); ``size`` maps a result to a size whose maximum is
    kept.  ``site`` names an extra per-call-site counter in ``site_calls``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.stats: dict[str, LayerStats] = {}
        self.site_calls: dict[str, int] = {}
        self.item_id = 0
        self._next_span = 1
        self._patches: list[tuple] = []

    # -- set-up ------------------------------------------------------------

    def add(self, owner, attr: str, layer: str, *, span=True, hit=None, size=None, site=None):
        original = getattr(owner, attr)
        wrapper = self._wrap(original, layer, span, hit, size, site)
        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _new_span(self) -> int:
        sid = self._next_span
        self._next_span += 1
        return sid

    def _wrap(self, fn, layer, span, hit, size, site):
        stats = self.stats.setdefault(layer, LayerStats())
        stack, spans, clock, tracer = self.stack, self.spans, self.clock, self
        if site is not None:
            self.site_calls.setdefault(site, 0)
        site_calls = self.site_calls

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else ROOT_SPAN
            sid = tracer._new_span() if span else parent
            frame = [0.0, 0.0, sid]
            stack.append(frame)
            ok = False
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if site is not None:
                    site_calls[site] += 1
                if span:
                    spans.append((sid, layer, tracer.item_id, parent, start, end, frame[1], ok))
            if hit is not None and hit(result):
                stats.hits += 1
            if size is not None:
                stats.size_max = max(stats.size_max, size(result))
            return result

        return wrapper

    # -- items -------------------------------------------------------------

    @contextmanager
    def item(self, kind: str):
        """Root span of one benchmark item; every span inside shares its id."""
        self.item_id += 1
        sid = self._new_span()
        frame = [self.clock(), 0.0, sid]
        self.stack[:] = [frame]
        ok = False
        try:
            yield
            ok = True
        finally:
            end = self.clock()
            self.spans.append(
                (sid, "item." + kind, self.item_id, ROOT_SPAN, frame[0], end, frame[1], ok)
            )
            # a deadline signal can land inside a wrapper's bookkeeping
            self.stack.clear()

    # -- results -----------------------------------------------------------

    def layer(self, name: str) -> LayerStats:
        return self.stats.get(name) or LayerStats()

    def open_at(self, moments: dict[int, float]) -> dict[int, set[str]]:
        """Per item id in ``moments``, the layers whose spans were open at its moment."""
        out: dict[int, set[str]] = {}
        for _, name, item, _, start, end, _, _ in self.spans:
            moment = moments.get(item)
            if moment is not None and start <= moment < end and not name.startswith("item."):
                out.setdefault(item, set()).add(name)
        return out
