"""Span recorder for the traced run.

The recorder wraps the module attributes that callers look up (for example
``pipeline.parse_tuples`` or ``synth.oracle_extract``) and restores them
afterwards; nothing inside ``src/t3table`` knows it is being traced. Each
span keeps its name, start, end, the span that caused it, the instance it
belongs to and the phase it ran in. Self time is computed as the span closes:
its duration minus the durations of its direct children on the same thread.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from t3table import backends, evaluation, pipeline, prompts, synth


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    self_s: float
    instance: str | None
    phase: str
    counts: dict[str, int] | None


@dataclass
class Segment:
    """Spans and side measurements of one traced stretch of work."""

    spans: list[Span] = field(default_factory=list)
    replay_caches: list[backends.CachingBackend] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.extras[name] = self.extras.get(name, 0.0) + value


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.segment = Segment()
        self.phase_name = ""
        self._phase_id = 0

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, instance: str | None = None) -> list[Any]:
        stack = self._stack()
        top = stack[-1] if stack else None
        parent = top[0] if top else self._phase_id
        if instance is None and top is not None:
            instance = top[5]
        frame = [next(self._ids), parent, name, 0.0, 0.0, instance]
        stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def exit(self, frame: list[Any], counts: dict[str, int] | None = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, name, start, child_s, instance = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        self.segment.spans.append(
            Span(span_id, parent, name, start, end, duration - child_s, instance, self.phase_name, counts)
        )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Root span of one benchmark phase; worker-thread spans hang off it."""
        frame = self.enter(f"phase.{name}")
        self.phase_name, self._phase_id = name, frame[0]
        try:
            yield
        finally:
            self.exit(frame)
            self.phase_name, self._phase_id = "", 0

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Callable[[Any], dict[str, int]] | None = None,
        instance_of: Callable[[tuple], str] | None = None,
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(name, instance_of(args) if instance_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(frame, {"failed": 1})
                raise
            self.exit(frame, count(result) if count else None)
            return result

        return traced


class SpanBackend:
    """Opens a span around every ``complete`` call of the backend it wraps."""

    def __init__(self, tracer: Tracer, name: str, inner: backends.Backend) -> None:
        self.complete = tracer.wrap(name, inner.complete)


def span_backend(tracer: Tracer | None, name: str, inner: backends.Backend) -> backends.Backend:
    return inner if tracer is None else SpanBackend(tracer, name, inner)


def _tuple_counts(report: Any) -> dict[str, int]:
    return {
        "accepted": len(report.tuples),
        "rejected": len(report.rejected_lines),
        "unknown": report.unknown_label_count,
    }


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Patch the traced module attributes for the duration of the block."""

    def cache_factory(cache_dir: Any, inner: backends.Backend | None = None) -> backends.Backend:
        # only run phases hand run_batch a cache_dir; replay builds its own cache
        cache = backends.CachingBackend(cache_dir, inner)
        return SpanBackend(tracer, "backends.complete", SpanBackend(tracer, "backends.cache.run", cache))

    patches: list[tuple[Any, str, Any]] = [
        (synth, "generate", tracer.wrap("synth.generate", synth.generate)),
        (synth, "write_dataset", tracer.wrap("synth.write_dataset", synth.write_dataset)),
        (synth, "read_dataset", tracer.wrap("synth.read_dataset", synth.read_dataset)),
        # the oracle imports oracle_extract from synth at call time
        (synth, "oracle_extract", tracer.wrap(
            "synth.oracle_extract", synth.oracle_extract, count=lambda r: {"tuples": len(r)})),
        (pipeline, "run_batch", tracer.wrap("pipeline.run_batch", pipeline.run_batch)),
        (pipeline, "run_instance", tracer.wrap(
            "pipeline.run_instance", pipeline.run_instance, instance_of=lambda args: args[0].id)),
        (pipeline, "pick_exemplars", tracer.wrap("pipeline.pick_exemplars", pipeline.pick_exemplars)),
        (pipeline, "build_prompt", tracer.wrap(
            "prompts.build_prompt", pipeline.build_prompt,
            count=lambda msgs: {"chars": sum(len(text) for _, text in msgs)})),
        (pipeline, "parse_tuples", tracer.wrap("tuples.parse_tuples", pipeline.parse_tuples, count=_tuple_counts)),
        (backends, "parse_tuples", tracer.wrap("tuples.parse_tuples", backends.parse_tuples, count=_tuple_counts)),
        (pipeline, "integrate", tracer.wrap("tuples.integrate", pipeline.integrate)),
        (backends, "integrate", tracer.wrap("tuples.integrate", backends.integrate)),
        (pipeline, "parse_model_table", tracer.wrap(
            "tableio.parse_model_table", pipeline.parse_model_table,
            count=lambda outcome: {"malformed": int(not outcome.is_ok)})),
        (backends, "to_csv", tracer.wrap("tableio.to_csv", backends.to_csv)),
        (prompts, "classify_prompt", tracer.wrap("prompts.classify_prompt", prompts.classify_prompt)),
        (prompts, "render_examples_block", tracer.wrap(
            "prompts.render_examples_block", prompts.render_examples_block)),
        (pipeline, "write_transcripts", tracer.wrap("pipeline.write_transcripts", pipeline.write_transcripts)),
        (pipeline, "read_transcripts", tracer.wrap("pipeline.read_transcripts", pipeline.read_transcripts)),
        (pipeline, "CachingBackend", cache_factory),
        (evaluation, "report", tracer.wrap("evaluation.report", evaluation.report)),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, replacement in patches:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


# --- per-layer metrics -------------------------------------------------------------

# Spans whose calls, self time and counts map one to one onto metrics.
_COUNTED = {
    "synth.generate": ("calls", "self_s"),
    "synth.write_dataset": ("self_s",),
    "synth.read_dataset": ("self_s",),
    "synth.oracle_extract": ("calls", "self_s", "tuples"),
    "prompts.build_prompt": ("calls", "self_s"),
    "prompts.classify_prompt": ("self_s",),
    "prompts.render_examples_block": ("self_s",),
    "backends.complete": ("calls", "failed"),
    "backends.oracle": ("self_s",),
    "backends.cache.run": ("self_s",),
    "backends.cache.replay": ("self_s",),
    "tuples.parse_tuples": ("calls", "self_s", "accepted", "rejected", "unknown"),
    "tuples.integrate": ("calls", "self_s"),
    "tableio.parse_model_table": ("calls", "self_s", "malformed"),
    "tableio.to_csv": ("self_s",),
    "pipeline.run_instance": ("calls", "self_s"),
    "pipeline.pick_exemplars": ("calls", "self_s"),
    "pipeline.write_transcripts": ("self_s",),
    "pipeline.read_transcripts": ("self_s",),
    "evaluation.report": ("calls", "self_s"),
}
# Side measurements that phases add to a segment.
_EXTRAS = ("synth.dataset_bytes", "pipeline.transcript_bytes", "backends.delay.wait_s", "backends.cache.bytes")
_RUN_INSTANCE = ("p50_ms", "tail_ms", "tail_pct", "samples")

_TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    Percentiles are nearest-rank; with fewer than 20 samples it is the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in _TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100.0)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def _under_backend(span: Span, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name.startswith("backends."):
            return True
        parent = by_id.get(parent.parent)
    return False


def layer_metrics(segments: list[Segment], parallelism: int) -> dict[str, float]:
    """Per-layer metrics of the spans and side measurements in ``segments``.

    Every metric this module can measure is present, 0 where the workload
    never calls its layer.
    """
    values = {f"{span}.{f}": 0.0 for span, fields in _COUNTED.items() for f in fields}
    values.update({f"{name}.backend_self_s": 0.0 for name in ("tuples.parse_tuples", "tuples.integrate")})
    values.update({f"pipeline.run_instance.{f}": 0.0 for f in _RUN_INSTANCE})
    values.update({name: 0.0 for name in (*_EXTRAS, "prompts.prompt_chars", "pipeline.busy_fraction")})
    spans = [s for seg in segments for s in seg.spans]
    by_id = {s.id: s for s in spans}
    run_instance_ms: list[float] = []
    run_instance_s = run_batch_s = 0.0
    for s in spans:
        fields = _COUNTED.get(s.name)
        if fields is not None:
            for f in fields:
                if f == "calls":
                    values[f"{s.name}.calls"] += 1
                elif f == "self_s":
                    values[f"{s.name}.self_s"] += s.self_s
                elif s.counts:
                    values[f"{s.name}.{f}"] += s.counts.get(f, 0)
        if s.name in ("tuples.parse_tuples", "tuples.integrate") and _under_backend(s, by_id):
            values[f"{s.name}.backend_self_s"] += s.self_s
        if s.name == "prompts.build_prompt" and s.counts:
            values["prompts.prompt_chars"] += s.counts["chars"]
        if s.phase == "run" and s.name == "pipeline.run_instance":
            run_instance_ms.append(1000.0 * (s.end - s.start))
            run_instance_s += s.end - s.start
        if s.phase == "run" and s.name == "pipeline.run_batch":
            run_batch_s += s.end - s.start
    if run_instance_ms:
        values["pipeline.run_instance.p50_ms"] = statistics.median(run_instance_ms)
        pct, tail = tail_percentile(run_instance_ms)
        values["pipeline.run_instance.tail_pct"] = pct
        values["pipeline.run_instance.tail_ms"] = tail
        values["pipeline.run_instance.samples"] = len(run_instance_ms)
    if run_batch_s > 0:
        values["pipeline.busy_fraction"] = run_instance_s / (parallelism * run_batch_s)
    # replay caches only: the run phase's cache misses on every call by design
    hits = sum(c.hits for seg in segments for c in seg.replay_caches)
    misses = sum(c.misses for seg in segments for c in seg.replay_caches)
    values["backends.cache.hits"] = hits
    values["backends.cache.misses"] = misses
    values["backends.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for seg in segments:
        for name, value in seg.extras.items():
            values[name] += value
    values["trace.spans"] = len(spans)
    return values


def render_table(workload: str, metrics: dict[str, tuple[float, str]]) -> str:
    """Human-readable per-layer table, one metric a line."""
    lines = [f"per-layer metrics, workload {workload} (median over traced iterations)"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<40} {value:>14.6g} {unit}")
    return "\n".join(lines)


def write_spans(segments: list[Segment], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        for seg in segments:
            for s in seg.spans:
                f.write(json.dumps(s._asdict()) + "\n")
