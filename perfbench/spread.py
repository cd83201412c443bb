"""Run workloads on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 --seconds 36
    python3 perfbench/spread.py --workloads toric_queries --seeds 1-5 --out spread.json

Each run is one untraced ``run.py`` process, one after another.  For every
workload and metric it prints the median over the seeds and the spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
the bounds in ``BENCHMARK.json`` are judged against.  ``--out`` writes every run's result line and report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import run_child, summary_line


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="census6,toric_queries,conifold_algebra")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="36")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    runs = []
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            report = run_child(workload, seed, args.seconds, trace=0)
            if report is None:
                return 1
            result = summary_line(report)
            runs.append({"workload": workload, "seed": seed, "result": result, "report": report})
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", flush=True)
    summary = {}
    for workload in args.workloads.split(","):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        summary[workload] = {
            key: summarise([r["metrics"][key]["value"] for r in mine]) for key in mine[0]["metrics"]
        }
        summary[workload]["fail_frac"] = summarise(
            [r["failed"] / r["attempted"] for r in mine]
        )
        for key, s in summary[workload].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:<17} {key:<44} median {s['median']:<12.6g} spread {spread}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
