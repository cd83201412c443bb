"""Command-line interface: one subcommand per pipeline stage.

Every command reads the JSON interchange format for settings
({"dims": [...], "arrows": [[...], ...], "marked_loops": [...]}) and emits a
schema-versioned report on stdout (or to --out).  Reports are byte-identical
for identical inputs and seeds; wall-clock timings are only included when
--timings is passed, since they would break that guarantee.

Exit codes: 0 success, 1 domain error or failed verification, 2 bad input or
usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .classification import (
    EXPECTED_SINGULAR_COUNTS,
    defect,
    enumerate_reduced_singular,
    expected_dim,
    is_smooth_setting,
    singular_type_classes,
)
from .conifold import verification_battery
from .core import MarkedQuiverSetting, validate
from .errors import BudgetExhaustedError, QsingError
from .local_structure import (
    DecompositionType,
    classify_point,
    enumerate_decomposition_types,
    local_setting,
)
from .reduction import reduce_setting
from .toric import (
    central_fiber,
    invariant_generators,
    is_theta_semistable,
    proj_charts,
    semistable_via_semiinvariants,
    toric_relations,
)

SCHEMA_VERSION = 1


def _bad_input(message: str) -> "SystemExit":
    print(f"qsing: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_setting(path: str) -> tuple[MarkedQuiverSetting, str]:
    try:
        raw = Path(path).read_bytes()
        data = json.loads(raw)
        setting = MarkedQuiverSetting.from_json(data)
    except (OSError, ValueError) as exc:
        raise _bad_input(f"cannot read setting from {path}: {exc}")
    violations = [p for p in validate(setting) if not p.startswith("note:")]
    if violations:
        raise _bad_input(f"invalid setting in {path}: {'; '.join(violations)}")
    return setting, hashlib.sha256(raw).hexdigest()


def _digest_params(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _emit(args, command: str, digest: str, result, started: float) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "qsing",
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "result": result,
    }
    if getattr(args, "timings", False):
        report["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _parse_theta(raw: str, k: int) -> tuple[int, ...]:
    try:
        theta = tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise _bad_input(f"malformed theta {raw!r}; expected comma-separated integers")
    if len(theta) != k:
        raise _bad_input(f"theta has length {len(theta)}, setting has {k} vertices")
    return theta


def _cmd_reduce(args) -> int:
    setting, digest = _load_setting(args.setting)
    started = time.perf_counter()
    result = reduce_setting(setting, strict=args.strict)
    _emit(
        args,
        "reduce",
        digest,
        {
            "input": setting.to_json(),
            "reduced": result.reduced.to_json(),
            "z": result.z,
            "trace": [m.to_json() for m in result.trace],
        },
        started,
    )
    return 0


def _cmd_classify(args) -> int:
    setting, digest = _load_setting(args.setting)
    started = time.perf_counter()
    report = is_smooth_setting(setting)
    payload = report.to_json()
    if args.dimx is not None:
        payload["defect"] = defect(setting, args.dimx)
        payload["dim_x"] = args.dimx
    payload["violations"] = validate(setting)
    _emit(args, "classify", digest, payload, started)
    return 0


def _cmd_dim(args) -> int:
    setting, digest = _load_setting(args.setting)
    started = time.perf_counter()
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = expected_dim(setting)
    payload = {"expected_dim": value}
    notes = [str(w.message) for w in caught]
    if notes:
        payload["warnings"] = notes
    _emit(args, "dim", digest, payload, started)
    return 0


def _cmd_local(args) -> int:
    setting, digest = _load_setting(args.setting)
    started = time.perf_counter()
    try:
        tau = DecompositionType.from_json(json.loads(args.tau))
    except (ValueError, TypeError) as exc:
        raise _bad_input(f"malformed --tau: {exc}")
    local = local_setting(setting, tau)
    report = classify_point(setting, tau)
    _emit(
        args,
        "local",
        digest,
        {
            "tau": tau.to_json(),
            "local_setting": local.to_json(),
            "classification": report.to_json(),
        },
        started,
    )
    return 0


def _cmd_strata(args) -> int:
    setting, digest = _load_setting(args.setting)
    started = time.perf_counter()
    rows = []
    for tau in enumerate_decomposition_types(setting):
        report = classify_point(setting, tau)
        rows.append(
            {
                "tau": tau.to_json(),
                "local_setting": report.setting.to_json(),
                "smooth": report.smooth,
                "azumaya": report.azumaya,
                "expected_dim": report.expected_dim,
            }
        )
    _emit(
        args,
        "strata",
        digest,
        {
            "strata": rows,
            "note": "occurrence of each type over a given moduli point is not verified",
        },
        started,
    )
    return 0


def _cmd_enumerate(args) -> int:
    started = time.perf_counter()
    budget = args.budget
    env_budget = os.environ.get("QSING_BUDGET_SECS")
    if env_budget is not None:
        try:
            env_secs = float(env_budget)
        except ValueError:
            raise _bad_input(f"QSING_BUDGET_SECS must be a number of seconds, got {env_budget!r}")
        budget = min(env_secs, budget) if budget else env_secs
    digest = _digest_params("enumerate", args.dim, budget)

    def progress(dims, count):
        if args.dim >= 6:
            print(f"# dims block {dims}, {count} settings so far", file=sys.stderr)

    exhausted = None
    try:
        settings = enumerate_reduced_singular(args.dim, budget_secs=budget, progress=progress)
    except BudgetExhaustedError as exc:
        settings = exc.partial
        exhausted = str(exc)
    types = singular_type_classes(settings)
    expected = EXPECTED_SINGULAR_COUNTS.get(args.dim)
    payload = {
        "dim": args.dim,
        "setting_count": len(settings),
        "type_count": len(types),
        "expected_type_count": expected,
        "type_count_matches": (expected is None or len(types) == expected),
        "settings": [s.to_json() for s in settings],
        "type_classes": [c.to_json() for c in types],
    }
    if exhausted:
        payload["budget_exhausted"] = exhausted
    if expected is not None and len(types) != expected:
        payload["diff_report"] = {
            "expected": expected,
            "found_types": len(types),
            "found_settings": len(settings),
            "note": (
                "counts follow the permutation/ring-equivalence conventions of "
                "this tool; the published classification may group differently"
            ),
        }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for idx, s in enumerate(settings):
            (out_dir / f"setting_{idx:03d}.json").write_text(
                json.dumps(s.to_json(), indent=2, sort_keys=True) + "\n"
            )
        summary_args = argparse.Namespace(out=str(out_dir / "summary.json"), timings=args.timings)
        _emit(summary_args, "enumerate", digest, payload, started)
    else:
        _emit(args, "enumerate", digest, payload, started)
    if exhausted:
        return 1
    if expected is not None and len(types) != expected and args.dim <= 5:
        return 1
    return 0


def _cmd_toric(args) -> int:
    setting, digest = _load_setting(args.setting)
    started = time.perf_counter()
    legend = [
        {"index": i, "tail": a.tail, "head": a.head, "slot": a.slot}
        for i, a in enumerate(setting.arrow_list())
    ]
    payload: dict = {"arrow_legend": legend}
    if args.action == "invariants":
        basis = invariant_generators(setting)
        payload["generators"] = [list(u) for u in basis]
    elif args.action == "relations":
        basis = invariant_generators(setting)
        rels = toric_relations(basis, args.degree_bound)
        payload["generators"] = [list(u) for u in basis]
        payload["relations"] = [r.to_json() for r in rels]
        payload["degree_bound"] = args.degree_bound
    elif args.action == "semistable":
        theta = _parse_theta(args.theta, setting.k)
        if args.support is None:
            raise _bad_input("toric semistable needs --support")
        idx = [int(x) for x in args.support.split(",")] if args.support else []
        arrows = setting.arrow_list()
        if any(not 0 <= i < len(arrows) for i in idx):
            raise _bad_input(f"--support indices must lie in 0..{len(arrows) - 1}")
        support = [arrows[i] for i in idx]
        verdict = is_theta_semistable(setting, support, theta)
        via = semistable_via_semiinvariants(setting, support, theta)
        payload["theta"] = list(theta)
        payload["support"] = idx
        payload["verdict"] = verdict.to_json()
        payload["via_semi_invariants"] = via
        payload["verdicts_agree"] = verdict.semistable == via
    elif args.action == "charts":
        theta = _parse_theta(args.theta, setting.k)
        charts = proj_charts(setting, theta)
        payload["theta"] = list(theta)
        payload["charts"] = [c.to_json() for c in charts]
        payload["degree_zero_generators"] = [
            list(u) for u in invariant_generators(setting)
        ]
    elif args.action == "fiber":
        theta = _parse_theta(args.theta, setting.k)
        strata = central_fiber(setting, theta)
        payload["theta"] = list(theta)
        payload["strata"] = [f.to_json() for f in strata]
        dims = [f.orbit_space_dim for f in strata if f.orbit_space_dim is not None]
        payload["max_orbit_space_dim"] = max(dims) if dims else None
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(2)
    if args.action in ("semistable", "charts", "fiber"):
        digest = _digest_params(digest, args.action, getattr(args, "theta", None), getattr(args, "support", None))
    _emit(args, f"toric {args.action}", digest, payload, started)
    return 0


def _cmd_conifold_verify(args) -> int:
    started = time.perf_counter()
    digest = _digest_params("conifold-verify", args.seed, args.triples, args.points)
    checks = verification_battery(args.seed, args.triples, args.points)
    ok = all(c["passed"] for c in checks)
    _emit(
        args,
        "conifold-verify",
        digest,
        {"checks": checks, "all_passed": ok, "seed": args.seed},
        started,
    )
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    started = time.perf_counter()
    digest = _digest_params("selftest")
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
    checks.append(
        {
            "check": "conifold central dimension",
            "expected": 3,
            "got": expected_dim(conifold),
            "passed": expected_dim(conifold) == 3,
        }
    )
    reduced_once = reduce_setting(conifold)
    reduced_twice = reduce_setting(reduced_once.reduced)
    checks.append(
        {
            "check": "reduction idempotent on the conifold setting",
            "passed": not reduced_twice.trace and reduced_once.reduced == conifold,
        }
    )
    ok = all(c["passed"] for c in checks)
    _emit(args, "selftest", digest, {"checks": checks, "all_passed": ok}, started)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsing",
        description="Classify quotient singularities of quiver settings and compute toric moduli data.",
    )
    parser.add_argument("--version", action="version", version=f"qsing {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report to this file instead of stdout")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")

    p = sub.add_parser("reduce", help="reduce a setting to its terminal form")
    p.add_argument("setting")
    p.add_argument("--strict", action="store_true", help="warn when a vertex removal holds with strict inequality")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("classify", help="smoothness classification of a setting")
    p.add_argument("setting")
    p.add_argument("--dimx", type=int, help="also report the defect against this central dimension")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("dim", help="expected central dimension of a setting")
    p.add_argument("setting")
    common(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("local", help="local setting at a decomposition type")
    p.add_argument("setting")
    p.add_argument("--tau", required=True, help='decomposition type, e.g. "[[1,[1,0]],[1,[0,1]]]"')
    common(p)
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("strata", help="classify every decomposition type of a setting")
    p.add_argument("setting")
    common(p)
    p.set_defaults(func=_cmd_strata)

    p = sub.add_parser("enumerate", help="enumerate singular reduced settings by dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--budget", type=float, help="wall-clock budget in seconds")
    p.add_argument("--out", help="directory for per-setting JSON files plus summary.json")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("toric", help="toric invariant theory for all-ones settings")
    p.add_argument("action", choices=["invariants", "relations", "semistable", "charts", "fiber"])
    p.add_argument("setting")
    p.add_argument("--theta", help='comma-separated stability vector; use --theta=-1,1 for leading minus')
    p.add_argument("--degree-bound", type=int, default=4)
    p.add_argument("--support", help="comma-separated arrow indices (per the arrow legend)")
    common(p)
    p.set_defaults(func=_cmd_toric)

    p = sub.add_parser("conifold-verify", help="run the conifold-algebra verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--triples", type=int, default=200, help="random triples for the associativity check")
    p.add_argument("--points", type=int, default=100, help="sampled representation points for the rank check")
    common(p)
    p.set_defaults(func=_cmd_conifold_verify)

    p = sub.add_parser("selftest", help="run the built-in defect fixtures")
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QsingError as exc:
        print(f"qsing: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"qsing: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
