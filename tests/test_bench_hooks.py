"""The benchmark's patch points still exist and its workloads still pass.

perfbench/tracing.py wraps attributes of t3table's modules by name, so a
rename in src/t3table breaks the benchmark without failing any other test
here (perfbench/tests runs the benchmark itself and is not collected in
this suite). Each workload of BENCHMARK.json runs on a small dataset under
the tracer, through the benchmark's own Session. There is no timing gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# the size and seed of perfbench's smoke test; few-shot needs at least one
# exemplar candidate (an instance where every event occurs) in the dataset
INSTANCES = 40
SEED = 3

# What the trace counts on that run, recorded before the parser read a whole
# text in one pass and the writer stopped copying each transcript: a parser
# or writer change that moves them fails here, not in a benchmark run.
PINNED = {
    "oracle_modes": {
        "tuples.parse_tuples.calls": 560,
        "tuples.parse_tuples.accepted": 39_248,
        "tuples.parse_tuples.rejected": 0,
        "tuples.parse_tuples.unknown": 0,
        "pipeline.transcript_bytes": 4_051_206,
    },
    "latency_cache": {
        "tuples.parse_tuples.calls": 120,
        "tuples.parse_tuples.accepted": 10_704,
        "tuples.parse_tuples.rejected": 0,
        "tuples.parse_tuples.unknown": 0,
        "pipeline.transcript_bytes": 784_701,
    },
}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_workload_passes_gate_and_yields_every_layer_metric(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        dataset = tmp_path / "dataset.jsonl"
        workloads.traced_setup(tracer, SEED, INSTANCES, dataset)
        session = workloads.Session(workload, SEED, dataset, tmp_path)
        session.fill()
        session.tracer = tracer
        session.iteration()
    assert session.attempted > 0
    assert session.failed == 0
    metrics = tracing.layer_metrics([tracer.segment], workload.parallelism)
    # the tracing overhead is measured by run.py, not by the tracer
    expected = {m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("trace.overhead_")}
    assert expected - set(metrics) == set()
    assert {k: metrics[k] for k in PINNED[name]} == PINNED[name]
