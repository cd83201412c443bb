"""Command-line interface: one subcommand per pipeline stage.

Every command reads the JSON interchange format for settings
({"dims": [...], "arrows": [[...], ...], "marked_loops": [...]}) and emits a
schema-versioned report on stdout (or to --out).  The report's ``result`` is
the output of one library report function; this module only parses the
arguments, loads the setting and formats the report.  Reports are
byte-identical for identical inputs and seeds; wall-clock timings are only
included when --timings is passed, since they would break that guarantee.

Exit codes: 0 success, 1 domain error or failed verification, 2 bad input or
usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

from . import __version__
from .classification import census_report, classify_report, dim_report, selftest
from .conifold import verification_battery
from .core import MarkedQuiverSetting, validate
from .errors import QsingError
from .local_structure import DecompositionType, local_report, strata_report
from .reduction import reduce_setting
from .toric import THETA_ACTIONS, toric_report

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


def _input_digest(args, file_digest: str | None) -> str:
    """The setting file's sha256, folded with the values of ``digest_args`` if there are any.

    A command that reads no setting folds its name in place of the file's sha256.
    """
    if file_digest is not None and not args.digest_args:
        return file_digest
    options = (getattr(args, name) for name in args.digest_args)
    return _digest_params(file_digest or args.command, *options)


def _int_list(raw: str | None, flag: str) -> list[int] | None:
    if raw is None:
        return None
    try:
        return [int(x) for x in raw.split(",")] if raw else []
    except ValueError:
        raise _bad_input(f"malformed {flag} {raw!r}; expected comma-separated integers")


def _parse_tau(raw: str) -> DecompositionType:
    try:
        return DecompositionType.from_json(json.loads(raw))
    except (ValueError, TypeError) as exc:
        raise _bad_input(f"malformed --tau: {exc}")


def _write_report(report: dict, stream) -> None:
    """``report`` as indented, key-sorted JSON and a newline, encoded a batch at a time.

    The text of a large census report is never held whole, only its dict.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    while batch := list(itertools.islice(chunks, 4096)):
        stream.write("".join(batch))
    stream.write("\n")


def _print_progress(dims, count) -> None:
    print(f"# dims block {dims}, {count} settings so far", file=sys.stderr)


# each command maps (args, setting or None) to (result, passed)


def _cmd_reduce(args, s):
    return reduce_setting(s, strict=args.strict).to_json(), True


def _cmd_classify(args, s):
    return classify_report(s, args.dimx), True


def _cmd_dim(args, s):
    return dim_report(s), True


def _cmd_local(args, s):
    return local_report(s, _parse_tau(args.tau)), True


def _cmd_strata(args, s):
    return strata_report(s), True


def _cmd_enumerate(args, _):
    progress = _print_progress if args.dim >= 6 else None
    return census_report(args.dim, budget_secs=args.budget, progress=progress)


def _cmd_toric(args, s):
    report = toric_report(
        s,
        args.action,
        theta=_int_list(args.theta, "--theta"),
        support=_int_list(args.support, "--support"),
        degree_bound=args.degree_bound,
        budget_secs=args.budget,
    )
    return report, True


def _cmd_conifold_verify(args, _):
    report = verification_battery(args.seed, args.triples, args.points)
    return report, report["all_passed"]


def _cmd_selftest(args, _):
    report = selftest()
    return report, report["all_passed"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsing",
        description="Classify quotient singularities of quiver settings and compute toric moduli data.",
    )
    parser.add_argument("--version", action="version", version=f"qsing {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *, setting=True, digest_args=(), out_help=None):
        """A subcommand with --out and --timings.

        ``digest_args`` name the options that select the result; they are
        folded into the input digest.
        """
        p = sub.add_parser(name, help=help)
        if setting:
            p.add_argument("setting")
        p.add_argument("--out", help=out_help or "write the report to this file instead of stdout")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")
        p.set_defaults(run=run, digest_args=digest_args)
        return p

    p = command("reduce", _cmd_reduce, "reduce a setting to its terminal form")
    p.add_argument("--strict", action="store_true", help="warn when a vertex removal holds with strict inequality")

    p = command("classify", _cmd_classify, "smoothness classification of a setting", digest_args=("dimx",))
    p.add_argument("--dimx", type=int, help="also report the defect against this central dimension")

    command("dim", _cmd_dim, "expected central dimension of a setting")

    p = command("local", _cmd_local, "local setting at a decomposition type", digest_args=("tau",))
    p.add_argument("--tau", required=True, help='decomposition type, e.g. "[[1,[1,0]],[1,[0,1]]]"')

    command("strata", _cmd_strata, "classify every decomposition type of a setting")

    p = command(
        "enumerate",
        _cmd_enumerate,
        "enumerate singular reduced settings by dimension",
        setting=False,
        digest_args=("dim", "budget"),
        out_help="directory for per-setting JSON files plus summary.json",
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--budget", type=float, help="wall-clock budget in seconds")

    # the setting comes after the action here
    p = command(
        "toric",
        _cmd_toric,
        "toric invariant theory for all-ones settings",
        setting=False,
        digest_args=("action", "theta", "support", "degree_bound"),
    )
    p.add_argument("action", choices=["invariants", "relations", *THETA_ACTIONS])
    p.add_argument("setting")
    p.add_argument("--theta", help='comma-separated stability vector; use --theta=-1,1 for leading minus')
    p.add_argument("--degree-bound", type=int, default=4)
    p.add_argument("--support", help="comma-separated arrow indices (per the arrow legend)")
    p.add_argument("--budget", type=float, help="wall-clock budget in seconds")

    p = command(
        "conifold-verify",
        _cmd_conifold_verify,
        "run the conifold-algebra verification battery",
        setting=False,
        digest_args=("seed", "triples", "points"),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--triples", type=int, default=200, help="random triples for the associativity check")
    p.add_argument("--points", type=int, default=100, help="sampled representation points for the rank check")

    command("selftest", _cmd_selftest, "run the built-in defect fixtures", setting=False)
    return parser


def main(argv=None) -> int:
    """Run one command and emit its report; returns the exit code."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    setting, file_digest = _load_setting(args.setting) if "setting" in args else (None, None)
    try:
        result, passed = args.run(args, setting)
    except (QsingError, ValueError) as exc:
        print(f"qsing: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, QsingError) else 2
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "qsing",
        "version": __version__,
        "command": f"toric {args.action}" if args.command == "toric" else args.command,
        "input_digest": _input_digest(args, file_digest),
        "result": result,
    }
    if args.timings:
        report["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    out = args.out
    if out and args.command == "enumerate":
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for idx, s in enumerate(result["settings"]):
            (out_dir / f"setting_{idx:03d}.json").write_text(json.dumps(s, indent=2, sort_keys=True) + "\n")
        out = out_dir / "summary.json"
    if out:
        with open(out, "w") as stream:
            _write_report(report, stream)
    else:
        _write_report(report, sys.stdout)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
