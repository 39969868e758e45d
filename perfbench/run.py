"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload oracle_modes --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the program under test is imported from
its ``src/``. With ``--trace 0`` the run is timed and patches nothing; it
prints the end-to-end metrics. With ``--trace 1`` it alternates untraced and
traced iterations and prints the per-layer metrics with the tracing overhead.
The last line of standard output is the result object. Exit code 0 means
every instance passed the correctness gate, 1 that some did not (or the run
broke), 2 that there is nothing to benchmark. Workloads, phases and metric
definitions are in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
MIN_ITERATIONS = 3  # timed iterations even when they outlast --seconds


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None, help="dataset size (default: the workload's)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or (args.instances is not None and args.instances < 1):
        parser.error("--seed must be >= 0, --seconds and --instances >= 1")
    return args


def timed_run(workload, seed: int, instances: int, seconds: float, work: Path):
    import workloads

    dataset = work / "dataset.jsonl"
    _, reference = workloads.child_setup(SRC, seed, instances, dataset)
    session = workloads.Session(workload, seed, dataset, work)
    session.tally(instances, 0)
    session.fill()
    # warm-up: lazy loads and first-touch costs stay out of the samples. Eval
    # and replay then repeat within each iteration until they have taken as
    # long as the warm-up's run phase, so every phase gets a similar share.
    floor_s = session.iteration()["run"][0].seconds

    setup_s: list[float] = []
    samples: dict[str, list[workloads.Phase]] = {"run": [], "eval": [], "replay": []}
    start = time.perf_counter()
    while len(samples["run"]) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        # one set-up per iteration, so set-ups spread over the run like the phases
        took, digest = workloads.child_setup(SRC, seed, instances, work / "dataset-again.jsonl")
        setup_s.append(took)
        session.tally(instances, instances * (digest != reference))
        for name, phases in session.iteration(floor_s).items():
            samples[name].extend(phases)
    # Each throughput is a total over the whole run, not a median of samples:
    # on a shared host, speed alternates between fast and slow spells lasting
    # seconds. A median of samples flips between the two, while a total moves
    # in proportion to the time spent in each. Set-ups are few and spread over
    # the run, so their median is taken.
    values = {
        "setup_s": statistics.median(setup_s),
        **{
            f"{name}_instances_per_s": sum(p.instances for p in phases) / sum(p.seconds for p in phases)
            for name, phases in samples.items()
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{workload.name}: {instances} instances, seed {seed}, {len(samples['run'])} timed iterations, "
          f"phase floor {floor_s:.3f} s, set-up samples {', '.join(f'{s:.3f}' for s in setup_s)} s")
    for name, phases in samples.items():
        print(f"  {name:<7} instances/s per sample: {', '.join(f'{p.rate:.1f}' for p in phases)}")
    return session, {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}


def traced_run(workload, seed: int, instances: int, seconds: float, work: Path):
    import tracing
    import workloads

    dataset = work / "dataset.jsonl"
    _, reference = workloads.child_setup(SRC, seed, instances, dataset)
    session = workloads.Session(workload, seed, dataset, work)
    session.fill()
    session.iteration()  # warm-up, untraced

    tracer = tracing.Tracer()
    setup_segment = tracer.segment
    with tracing.installed(tracer):
        digest = workloads.traced_setup(tracer, seed, instances, work / "dataset-traced.jsonl")
    session.tally(2 * instances, instances * (digest != reference))

    untraced_s, traced_s, samples = [], [], []
    start = time.perf_counter()
    while len(traced_s) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        untraced_s.append(workloads.iteration_seconds(session.iteration()))
        tracer.segment = tracing.Segment()
        session.tracer = tracer
        try:
            with tracing.installed(tracer):
                traced_s.append(workloads.iteration_seconds(session.iteration()))
        finally:
            session.tracer = None
        samples.append(tracing.layer_metrics([setup_segment, tracer.segment], workload.parallelism))
    overhead = statistics.median(traced_s) - statistics.median(untraced_s)
    ratio = overhead / statistics.median(untraced_s)
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values.update({"trace.overhead_s": overhead, "trace.overhead_ratio": ratio})
    # a metric named in BENCHMARK.json that the tracer does not produce is a KeyError
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["per_layer"]}
    tracing.write_spans([setup_segment, tracer.segment], OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    print(tracing.render_table(workload.name, metrics))
    print(f"  tracing overhead: {overhead:+.4f} s per iteration ({100 * ratio:+.1f}%), "
          f"{len(traced_s)} traced and {len(untraced_s)} untraced iterations")
    return session, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "t3table" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 't3table'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only now: the benchmark's modules import t3table from SRC
    import t3table
    import workloads

    if not Path(t3table.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported t3table from {t3table.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    instances = args.instances or workload.instances

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        run = traced_run if args.trace else timed_run
        session, metrics = run(workload, args.seed, instances, args.seconds, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = session.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
