"""qsing benchmark: run one workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload census6 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

A run imports qsing from ``src/`` of the checkout that holds this file and
repeats passes over the workload's inputs, at least two and then more while
a typical pass still ends within ``--seconds``.  Before every pass it sets
the workload up five times afresh (import, seeded input generation, cache
warm-up).  Times are rescaled to a reference machine speed measured around
them (see ``calibrate.py``); the report line keeps them unscaled as well.

With ``--trace 0`` it reports the end-to-end metrics of untraced passes; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, unscaled and without reference runs,
plus the tracing overhead.  Span records of traced passes go to
``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``report``, holds the full record (environment, per-pass times,
item outcomes).  ``--workload all`` runs every workload in its own process
and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from calibrate import Calibrator  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, on_alarm  # noqa: E402

SETUPS_PER_PASS = 5
# references within this many seconds of a duration rescale it; the host's
# speed changes within a second, and wider windows doubled the quartile
# spread of the conifold and toric percentiles over repeated runs
LOCAL_WINDOW_S = 0.25
MODULES = ("core", "classification", "reduction", "local_structure", "toric", "conifold")

END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_qsing() -> SimpleNamespace:
    """A fresh import of qsing from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "qsing" or m.startswith("qsing.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("qsing")
    return SimpleNamespace(**{m: importlib.import_module("qsing." + m) for m in MODULES})


# ---------------------------------------------------------------------------
# tracing


def instrument(lib, clock=time.perf_counter) -> Tracer:
    """Wrap every layer boundary the per-layer metrics name, at its call site."""
    t = Tracer(clock)
    c, r, ls, tor, cf = lib.classification, lib.reduction, lib.local_structure, lib.toric, lib.conifold
    t.add(c, "enumerate_reduced_singular", "classification.enumerate_reduced_singular")
    t.add(c, "singular_type_classes", "classification.singular_type_classes")
    # hot calls: counters only
    t.add(c, "strongly_connected", "core.strongly_connected", span=False,
          hit=lambda ok: not ok, site="classification.candidates")
    t.add(ls, "strongly_connected", "core.strongly_connected", span=False, hit=lambda ok: not ok)
    t.add(c, "applicable_moves", "reduction.applicable_moves", span=False, hit=bool)
    t.add(c, "is_simple_dimvector", "local_structure.is_simple_dimvector", span=False)
    t.add(c, "match_smooth_list", "classification.match_smooth_list", span=False,
          hit=lambda entry: entry is None)
    t.add(c, "canonical_key", "core.canonical_key", span=False)
    for module in (c, r, ls):
        t.add(module, "euler_form", "core.euler_form", span=False)
    t.add(tor, "is_theta_semistable", "toric.is_theta_semistable", span=False)
    t.add(cf.CenterPoly, "__mul__", "conifold.center_poly_mul", span=False)
    # spans
    for name in ("invariant_generators", "semi_invariant_generators", "toric_relations",
                 "semistable_via_semiinvariants", "central_fiber", "proj_charts"):
        t.add(tor, name, "toric." + name)
    t.add(tor, "hilbert_basis", "toric.hilbert_basis", size=len)
    t.add(tor, "semigroup_isomorphism", "toric.semigroup_isomorphism",
          hit=lambda match: match is not None)
    for name in ("multiply", "trep2_sample", "trep2_jacobian_rank", "evaluate_at_point"):
        t.add(cf, name, "conifold." + name)
    return t


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, items, extras) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    m: dict[str, float] = {}

    def calls_self(layer, calls=True):
        st = t.layer(layer)
        if calls:
            m[layer + ".calls"] = st.calls
        m[layer + ".self_s"] = st.self_s
        return st

    st = calls_self("reduction.applicable_moves")
    m["reduction.applicable_moves.reject_ratio"] = ratio(st.hits, st.calls)
    calls_self("core.euler_form")
    candidates = t.site_calls.get("classification.candidates", 0)
    accepted = t.layer("classification.match_smooth_list").hits
    m["classification.candidates"] = candidates
    m["classification.accept_ratio"] = ratio(accepted, candidates)
    m["classification.dedup_ratio"] = ratio(extras.get("found", 0), accepted)
    st = calls_self("core.strongly_connected")
    m["core.strongly_connected.reject_ratio"] = ratio(st.hits, st.calls)
    calls_self("local_structure.is_simple_dimvector")
    calls_self("core.canonical_key")
    st = calls_self("toric.semigroup_isomorphism")
    m["toric.semigroup_isomorphism.match_ratio"] = ratio(st.hits, st.calls)
    calls_self("toric.proj_charts")
    starts = {s[2]: s[4] for s in t.spans if s[1].startswith("item.")}
    missed = {i.item_id: starts[i.item_id] + i.deadline_s for i in items if i.outcome == "deadline"}
    m["toric.proj_charts.deadline_misses"] = sum(
        "toric.proj_charts" in layers for layers in t.open_at(missed).values()
    )
    st = calls_self("toric.hilbert_basis")
    m["toric.hilbert_basis.basis_size_max"] = st.size_max
    for name in ("semi_invariant_generators", "invariant_generators", "toric_relations",
                 "central_fiber", "is_theta_semistable", "semistable_via_semiinvariants"):
        calls_self("toric." + name, calls=False)
    for name in ("multiply", "center_poly_mul", "trep2_sample", "trep2_jacobian_rank",
                 "evaluate_at_point"):
        calls_self("conifold." + name)
    return m


PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "reject_ratio": "ratio", "accept_ratio": "ratio",
    "dedup_ratio": "ratio", "match_ratio": "ratio", "candidates": "count",
    "deadline_misses": "count", "basis_size_max": "count", "enumerate_s": "s",
    "group_s": "s", "block_max_s": "s", "overhead_s": "s",
}
UNTRACED_LAYER = ("classification.enumerate_s", "classification.group_s", "classification.block_max_s")


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------
# a run


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "qsing").glob("*.py")):
        sources.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": sources.hexdigest()[:16],
    }


@dataclass
class Pass:
    traced: bool
    wall_s: float  # time of the pass, reference runs excluded
    items: list
    extras: dict
    tracer: Tracer | None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cls = WORKLOADS[name]
    cal = Calibrator()
    setups = []  # (seconds, perf_counter span)
    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        with cal:
            # set up afresh before every pass, so set-up samples span the run
            for _ in range(SETUPS_PER_PASS):
                began, start = time.perf_counter(), cal.clock()
                lib = import_qsing()
                workload = cls(lib, seed)
                setups.append((cal.clock() - start, (began, time.perf_counter())))
            # the tracer's clock excludes the references too
            tracer = instrument(lib, cal.clock) if traced else None
            gc.collect()
            start = cal.clock()
            items, extras = workload.run_pass(tracer, cal.clock)
            passes.append(Pass(traced, cal.clock() - start, items, extras, tracer))
        if len(passes) == 1:
            # later set-ups and passes reuse freed memory but fragment it, so
            # the peak up to the end of the first pass is what one pass needs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # at least two passes, then another while a typical one still ends
        # within the run
        projected = time.perf_counter() - begin + statistics.median(p.wall_s for p in passes)
        if projected > seconds and len(passes) >= 2:
            break

    untraced = [p for p in passes if not p.traced]
    items = [i for p in passes for i in p.items]
    outcomes = {}
    for i in items:
        outcomes[i.outcome] = outcomes.get(i.outcome, 0) + 1
    run_factor = cal.factor(begin, time.perf_counter()) or 1.0

    def rescaled(duration, span):
        """A duration at reference speed, from the references run around it."""
        local = cal.factor(span[0] - LOCAL_WINDOW_S, span[1] + LOCAL_WINDOW_S)
        return duration * (local or run_factor)

    def item_times(p: Pass, scale) -> list[float]:
        # a missed item costs its deadline, wall-clock time whatever the
        # machine's speed, also in traced passes, which run it on past it
        return [i.deadline_s if i.outcome == "deadline" else scale(i.latency_s, i.span) for i in p.items]

    def end_to_end(scale) -> dict:
        per_pass = [item_times(p, scale) for p in untraced]
        # each item's median over the passes, so that a burst of host load
        # during one pass does not move the percentiles
        latencies = [statistics.median(times) for times in zip(*per_pass)]
        return {
            "wall_s": statistics.median(sum(times) for times in per_pass),
            "item_p50_ms": 1000 * percentile(latencies, 0.50),
            "item_p90_ms": 1000 * percentile(latencies, 0.90),
            "setup_s": statistics.median(scale(t, span) for t, span in setups),
            "peak_rss_mb": peak_rss_mb,
        }

    metrics = end_to_end(rescaled)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(),
        "pass_wall_s": [p.wall_s for p in untraced],
        "traced_pass_wall_s": [p.wall_s for p in passes if p.traced],
        "items_per_pass": len(untraced[0].items),
        "attempted": len(items),
        "outcomes": outcomes,
        "fail_frac": ratio(len(items) - outcomes.get("ok", 0), len(items)),
        "failures": sorted({f"{i.kind}: {i.outcome} {i.detail}".strip() for i in items if i.outcome != "ok"})[:10],
        "unscaled": end_to_end(lambda duration, span: duration),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
    }
    if trace:
        overhead = statistics.median(
            sum(item_times(p, rescaled)) for p in passes if p.traced
        ) - metrics["wall_s"]
        report["per_layer"] = traced_metrics(passes, overhead)
        report["trace_file"] = dump_spans(name, seed, [p.tracer for p in passes if p.traced])
    return report


def traced_metrics(passes, overhead_s: float) -> dict:
    """Medians over traced passes; untraced timings come from untraced passes."""
    traced = [layer_metrics(p.tracer, p.items, p.extras) for p in passes if p.traced]
    out = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    untraced = [p for p in passes if not p.traced]
    for key in UNTRACED_LAYER:
        extra = key.split(".", 1)[1]
        out[key] = statistics.median(p.extras.get(extra, 0.0) for p in untraced)
    out["trace.overhead_s"] = overhead_s
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(out.items())}


def dump_spans(name: str, seed: int, tracers) -> str:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{name}-seed{seed}.json"
    fields = ("id", "name", "item", "parent", "start", "end", "child_s", "ok")
    with open(path, "w") as fh:
        json.dump([[dict(zip(fields, s)) for s in t.spans] for t in tracers], fh)
    return str(path.relative_to(ROOT))


def summary_line(report: dict) -> dict:
    metrics = report["per_layer"] if report["trace"] else report["metrics"]
    return {
        "correct": not any(k in report["outcomes"] for k in ("check", "raised")),
        "attempted": report["attempted"],
        "failed": report["attempted"] - report["outcomes"].get("ok", 0),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# every workload, each in its own process


def run_child(workload: str, seed: int, seconds, trace: int) -> dict | None:
    """The report of one run in a process of its own; ``None`` if it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed}: no result within 600 s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("report "):
        sys.stderr.write(proc.stderr)
        print(f"{workload} seed {seed}: failed with exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-2][len("report "):])


def run_all(args) -> int:
    reports = []
    for name in WORKLOADS:
        report = run_child(name, args.seed, args.seconds, args.trace)
        if report is None:
            return 1
        reports.append(report)
    for r in reports:
        print_table(r)
    print(json.dumps({
        "correct": all(summary_line(r)["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(summary_line(r)["failed"] for r in reports),
        "metrics": {f"{r['workload']}.{k}": v for r in reports for k, v in summary_line(r)["metrics"].items()},
    }))
    return 0


def print_table(r: dict) -> None:
    print(f"== {r['workload']}  seed={r['seed']}  items={r['attempted']} "
          f"({r['items_per_pass']}/pass x {len(r['pass_wall_s'])} passes)  "
          f"outcomes={r['outcomes']}  fail_frac={r['fail_frac']:.4f}")
    for key, m in r["metrics"].items():
        print(f"   {key:<44} {m['value']:>14.6g} {m['unit']}")
    for key, m in r.get("per_layer", {}).items():
        print(f"   {key:<44} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qsing" / "__init__.py").is_file():
        print(f"qsing sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, on_alarm)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(report)
    print("report " + json.dumps(report))
    print(json.dumps(summary_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
