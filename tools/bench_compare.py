"""Benchmark this checkout against its parent commit in alternating pairs of runs; write BENCH_<short-sha>.json.

Usage, from anywhere:

    python3 tools/bench_compare.py [--pairs 10] [--trace] [--claim METRIC:WORKLOAD]

The change is the working tree of this checkout, committed or not. The parent is HEAD when the working tree
has uncommitted changes and HEAD~1 when it has none. The parent is checked out with `git worktree add
--detach` under `.perfbench_out/`, and the worktree is removed afterwards. The file is named for HEAD and
written at the root of the checkout.

For every workload in BENCHMARK.json, on seed 1, it runs BENCHMARK.json's command, `python3 perfbench/run.py
--workload W --seed 1 --seconds N --trace 0` with N its `run_seconds`, once on each side per pair, one
process at a time; which side goes first alternates from pair to pair. With `--trace` each pair also runs
`--trace 1` once on each side, and the file gets each per-layer metric's median and range.

For each end-to-end metric the file holds each side's q1/median/q3 (inclusive quartiles), how many pairs the
change was better and worse in (a tie counts for neither), the median gap against the parent's IQR, and the
metric's BENCHMARK.json bound (read, never edited) as "pass", "fail" (the change's median is worse than the
parent's by more than the bound), or "unresolved" (the parent's IQR is wider than the bound, so the runs
cannot tell, unless every run of the change reads better than every run of the parent). A move larger than
the parent's IQR that stays inside the bound is listed as a "watch" line, not gated. `--claim METRIC:WORKLOAD`
adds the verdict of the gain rule: the change better in at least nine of ten pairs, and its median better than
the parent's by more than the parent's IQR.

Standard library only. Exit status: 0 when every bound passes, every run exits 0 and any claim is met; else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One end-to-end metric over pairs of runs: ``parent[i]`` and ``change[i]`` are pair i's values."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    gap = cm - pm
    worse_by = -sign * gap / pm if pm else 0.0  # the change's median loss, as a fraction of the parent's
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr > bound * abs(pm) and not every_run_better:
        bound_status = "unresolved"
    elif worse_by > bound:
        bound_status = "fail"
    else:
        bound_status = "pass"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "relative": gap / pm if pm else 0.0,
        "better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "worse_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "median_gap": abs(gap),
        "parent_iqr": iqr,
        "gap_beyond_iqr": abs(gap) > iqr,
        "direction": "better" if sign * gap > 0 else "worse" if sign * gap < 0 else "same",
        "bound": bound,
        "bound_status": bound_status,
    }


def claim_met(summary: dict) -> bool:
    """The gain rule: better in at least nine of ten pairs, and in the median by more than the parent's IQR."""
    return (10 * summary["better_pairs"] >= 9 * summary["pairs"]
            and summary["direction"] == "better" and summary["gap_beyond_iqr"])


def watch_line(workload: str, seed: int, metric: str, summary: dict) -> str | None:
    """A move past the parent's IQR that its bound lets through; None for any other."""
    if summary["bound_status"] != "pass" or not summary["gap_beyond_iqr"]:
        return None
    return (f"{workload} seed {seed} {metric}: {100 * summary['relative']:+.1f}% ({summary['direction']}), "
            f"gap {summary['median_gap']:.4g} against a parent IQR of {summary['parent_iqr']:.4g}, "
            f"better in {summary['better_pairs']}/{summary['pairs']} pairs")


def layer_summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def run_once(command: list[str], checkout: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run in ``checkout``: its exit code and, when it printed a result line, its metrics."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        metrics = {}
    out = {"exit": proc.returncode, "metrics": metrics}
    if proc.returncode:
        out["stderr_tail"] = proc.stderr[-2000:]
    return out


def compare(spec: dict, runs: dict[str, list[dict]], workload: str, seed: int) -> tuple[dict, list[str]]:
    """The end-to-end summaries of one workload and seed over the pairs where both runs gave the metric."""
    summaries, watch = {}, []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            summaries[name] = {"bound_status": "unresolved", "pairs": 0}
            continue
        summary = summarize([p for p, _ in pairs], [c for _, c in pairs], metric["better"], metric["bound"])
        summaries[name] = summary
        if line := watch_line(workload, seed, name, summary):
            watch.append(line)
    return summaries, watch


def print_table(entry: dict) -> None:
    print(f"{entry['workload']} seed {entry['seed']}:")
    print(f"  {'metric':<24} {'parent q1/median/q3':<30} {'change q1/median/q3':<30} "
          f"{'median':>7} {'better':>6}  {'gap vs parent IQR':<24} bound")
    for name, s in entry["end_to_end"].items():
        if not s["pairs"]:
            print(f"  {name:<24} no pair gave this metric")
            continue
        p, c = s["parent"], s["change"]
        print(f"  {name:<24} {p['q1']:.4g}/{p['median']:.4g}/{p['q3']:.4g}".ljust(57)
              + f"{c['q1']:.4g}/{c['median']:.4g}/{c['q3']:.4g}".ljust(31)
              + f"{100 * s['relative']:+6.1f}% {s['better_pairs']:>3}/{s['pairs']:<2}  "
              + f"{s['median_gap']:.4g} vs {s['parent_iqr']:.4g}".ljust(24) + f" {s['bound_status']}")


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true", help="also run --trace 1 once per side in each pair")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    args = parser.parse_args(argv)
    metrics = {m["name"] for m in spec["end_to_end"]}
    for claim in args.claim:
        metric, _, workload = claim.partition(":")
        if metric not in metrics or workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"--claim {claim!r}: expected METRIC:WORKLOAD of BENCHMARK.json")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    args = parse_args(argv, spec)
    seconds = spec["run_seconds"]
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    parent = git("rev-parse", "--verify", ("HEAD" if dirty else "HEAD~1") + "^{commit}")
    head = git("rev-parse", "HEAD")
    out = ROOT / f"BENCH_{head[:7]}.json"

    worktree = ROOT / ".perfbench_out" / f"parent-{parent[:12]}"
    worktree.parent.mkdir(exist_ok=True)
    git("worktree", "add", "--detach", str(worktree), parent)
    checkouts = {"parent": worktree, "change": ROOT}
    results, watch, failed_runs = [], [], []
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            traced: dict[str, list[dict]] = {"parent": [], "change": []}
            kinds = [(False, runs), (True, traced)] if args.trace else [(False, runs)]
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for trace, into in kinds:
                    for side in order:
                        run = run_once(spec["command"], checkouts[side], workload, SEED, seconds, trace)
                        into[side].append(run)
                        print(f"{workload} seed {SEED} pair {pair + 1}/{args.pairs} {side}"
                              f"{' traced' if trace else ''}: exit {run['exit']}", file=sys.stderr)
                        if run["exit"]:
                            failed_runs.append({"workload": workload, "seed": SEED, "pair": pair + 1,
                                                "side": side, "trace": trace, "exit": run["exit"],
                                                "stderr_tail": run.get("stderr_tail", "")})
            summaries, lines = compare(spec, runs, workload, SEED)
            watch.extend(lines)
            entry = {"workload": workload, "seed": SEED, "end_to_end": summaries,
                     "runs": {side: [r["metrics"] for r in rs] for side, rs in runs.items()}}
            if args.trace:
                entry["per_layer"] = {
                    side: {m["name"]: layer_summary([r["metrics"][m["name"]] for r in rs
                                                     if m["name"] in r["metrics"]])
                           for m in spec["per_layer"] if any(m["name"] in r["metrics"] for r in rs)}
                    for side, rs in traced.items()
                }
            results.append(entry)
            print_table(entry)
    finally:
        git("worktree", "remove", "--force", str(worktree))

    claims = []
    for claim in args.claim:
        metric, _, workload = claim.partition(":")
        for entry in results:
            if entry["workload"] == workload and entry["end_to_end"][metric]["pairs"]:
                claims.append({"claim": claim, "seed": entry["seed"], "met": claim_met(entry["end_to_end"][metric])})
    statuses = [s["bound_status"] for entry in results for s in entry["end_to_end"].values()]
    ok = all(s == "pass" for s in statuses) and not failed_runs and all(c["met"] for c in claims)
    report = {
        "parent": parent,
        "change": {"head": head, "uncommitted_changes": dirty},
        "command": spec["command"],
        "pairs": args.pairs,
        "seconds": seconds,
        "quartiles": "statistics.quantiles(method='inclusive')",
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
                 "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "results": results,
        "watch": watch,
        "failed_runs": failed_runs,
        "claims": claims,
        "verdict": "pass" if ok else "fail",
    }
    out.write_text(json.dumps(report, indent=2) + "\n", "utf-8")
    for line in watch:
        print(f"watch: {line}")
    for claim in claims:
        print(f"claim {claim['claim']} seed {claim['seed']}: {'met' if claim['met'] else 'not met'}")
    print(f"{report['verdict']}: wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
