"""Workloads of the benchmark, their phases and the correctness gate.

Every phase drives the public API the way the command line does: set-up is
``t3table gen``, the run phase is ``t3table run``, the eval phase is
``t3table eval`` and the replay phase is ``t3table run --backend replay``.
Load comes from one process as a closed loop: each of ``run_batch``'s
``parallelism`` workers sends its next request only after the previous reply.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from t3table import backends, evaluation, pipeline, prompts, synth

from tracing import Tracer, span_backend

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple[str, ...]
    instances: int
    parallelism: int
    delay_s: float = 0.0  # fixed wait before every backend call
    # the run phase fills a fresh, cold cache, as `run --backend http --cache-dir` does
    run_cache: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle_modes", ("zero-shot", "t2", "t3", "t3m", "t3d", "few-shot:2"), instances=200, parallelism=1
        ),
        Workload("latency_cache", ("t3",), instances=100, parallelism=2, delay_s=0.020, run_cache=True),
    )
}


class DelayBackend:
    """Network-shaped backend: the same fixed wait before every call of ``inner``."""

    def __init__(self, inner: backends.Backend, delay_s: float) -> None:
        self.inner = inner
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self.wait_s = 0.0

    def complete(self, request: backends.LlmRequest) -> backends.LlmResponse:
        start = time.perf_counter()
        time.sleep(self.delay_s)
        waited = time.perf_counter() - start
        with self._lock:
            self.wait_s += waited
        response = self.inner.complete(request)
        return replace(response, latency_s=response.latency_s + self.delay_s)


@dataclass(frozen=True)
class Phase:
    seconds: float
    instances: int

    @property
    def rate(self) -> float:
        return self.instances / self.seconds


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_setup(src: Path, seed: int, instances: int, out: Path) -> tuple[float, str]:
    """Set-up in a fresh interpreter; returns its wall time and the dataset digest."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(src), str(seed), str(instances), str(out)],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return float(json.loads(proc.stdout.splitlines()[-1])["seconds"]), _sha256(out)


def traced_setup(tracer: Tracer, seed: int, instances: int, out: Path) -> str:
    """Set-up in this process under the tracer (``t3table`` is already imported)."""
    with tracer.phase("setup"):
        synth.write_dataset(synth.generate(synth.GeneratorConfig(seed=seed), instances), out)
    tracer.segment.add("synth.dataset_bytes", out.stat().st_size)
    return _sha256(out)


class Session:
    """Runs the phases of one workload over one dataset file and gates them.

    ``attempted`` and ``failed`` count instances over every phase run. An
    instance fails if its outcome is malformed, its table differs from ground
    truth, its transcript does not read back equal, or its replayed outcome
    differs from the cold run's.
    """

    def __init__(self, workload: Workload, seed: int, dataset_path: Path, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.dataset_path = dataset_path
        self.work_dir = work_dir
        self.modes = [prompts.parse_mode(m) for m in workload.modes]
        self.truth = [(inst.id, inst.ground_truth) for inst in synth.read_dataset(dataset_path)]
        self.tracer: Tracer | None = None
        self.fill_dir: Path | None = None
        self.attempted = 0
        self.failed = 0
        self.dataset: list = []

    def _phase(self, name: str):
        return self.tracer.phase(name) if self.tracer else nullcontext()

    def _path(self, phase: str, index: int) -> Path:
        return self.work_dir / f"{phase}-{index}.jsonl"

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def _wrong(self, transcripts: list[pipeline.RunTranscript]) -> int:
        if len(transcripts) != len(self.truth):
            return len(self.truth)
        return sum(
            not (t.instance_id == iid and t.outcome.is_ok and t.outcome.table == table)
            for t, (iid, table) in zip(transcripts, self.truth)
        )

    def run(self, cache_dir: Path | None) -> tuple[Phase, list[list[pipeline.RunTranscript]]]:
        """read_dataset -> run_batch -> write_transcripts for every mode."""
        tracer = self.tracer
        backend: backends.Backend = span_backend(tracer, "backends.oracle", backends.OracleBackend())
        delay = None
        if self.workload.delay_s:
            delay = DelayBackend(backend, self.workload.delay_s)
            backend = span_backend(tracer, "backends.delay", delay)
        if cache_dir is None:  # otherwise run_batch wraps the backend in its cache
            backend = span_backend(tracer, "backends.complete", backend)
        gc.collect()
        with self._phase("run"):
            start = time.perf_counter()
            self.dataset = synth.read_dataset(self.dataset_path)
            runs = []
            for i, mode in enumerate(self.modes):
                transcripts = pipeline.run_batch(
                    self.dataset, mode, backend, self.workload.parallelism, cache_dir=cache_dir, seed=self.seed
                )
                pipeline.write_transcripts(transcripts, self._path("run", i))
                runs.append(transcripts)
            seconds = time.perf_counter() - start
        attempted = len(self.modes) * len(self.truth)
        self.tally(attempted, sum(self._wrong(ts) for ts in runs))
        if tracer is not None:
            tracer.segment.add("pipeline.transcript_bytes", sum(
                self._path("run", i).stat().st_size for i in range(len(self.modes))))
            if delay is not None:
                tracer.segment.add("backends.delay.wait_s", delay.wait_s)
        return Phase(seconds, attempted), runs

    def eval(self, runs: list[list[pipeline.RunTranscript]]) -> Phase:
        """read_transcripts + read_dataset -> report, for every mode."""
        gc.collect()
        with self._phase("eval"):
            start = time.perf_counter()
            read_back = [pipeline.read_transcripts(self._path("run", i)) for i in range(len(self.modes))]
            truth = {inst.id: inst.ground_truth for inst in synth.read_dataset(self.dataset_path)}
            reports = [evaluation.report([(t.outcome, truth[t.instance_id]) for t in ts]) for ts in read_back]
            seconds = time.perf_counter() - start
        attempted = failed = 0
        for written, back, rep in zip(runs, read_back, reports):
            n = len(written)
            overall = rep.groups[evaluation.AVERAGE]
            exact = (
                len(back) == n
                and rep.n_instances == n
                and rep.n_filtered_malformed == 0
                and overall.rmse == 0.0
                and overall.error_rate == 0.0
            )
            attempted += n
            failed += sum(w != b for w, b in zip(written, back)) if exact else n
        self.tally(attempted, failed)
        return Phase(seconds, attempted)

    def replay(self, cache_dir: Path, cold: list[list[pipeline.RunTranscript]]) -> Phase:
        """run_batch over a replay-only cache -> write_transcripts, for every mode.

        Replay runs at parallelism 1, the ``t3table run`` default: it waits on
        nothing, so extra threads would only contend for the interpreter lock,
        and how a shared host schedules that hand-off is noise, not program
        behaviour.
        """
        tracer = self.tracer
        cache = backends.CachingBackend(cache_dir, inner=None)
        backend = span_backend(tracer, "backends.complete", span_backend(tracer, "backends.cache.replay", cache))
        gc.collect()
        with self._phase("replay"):
            start = time.perf_counter()
            runs = []
            for i, mode in enumerate(self.modes):
                transcripts = pipeline.run_batch(self.dataset, mode, backend, 1, seed=self.seed)
                pipeline.write_transcripts(transcripts, self._path("replay", i))
                runs.append(transcripts)
            seconds = time.perf_counter() - start
        attempted = len(self.modes) * len(self.truth)
        failed = sum(
            len(cold_ts) if len(ts) != len(cold_ts)
            else sum(not t.outcome.is_ok or t.outcome != c.outcome for t, c in zip(ts, cold_ts))
            for ts, cold_ts in zip(runs, cold)
        )
        # a miss already fails its instance; the max keeps the gate explicit
        self.tally(attempted, max(failed, cache.misses))
        if tracer is not None:
            tracer.segment.replay_caches.append(cache)
            tracer.segment.add("backends.cache.bytes", sum(p.stat().st_size for p in cache.cache_dir.iterdir()))
        return Phase(seconds, attempted)

    def iteration(self, floor_s: float = 0.0) -> dict[str, list[Phase]]:
        """One run phase, then eval and replay each repeated until they have
        taken ``floor_s`` (at least once), so short phases get more samples.

        Replay always reads the cache that ``fill`` filled before the first
        iteration; the run phase's own cache, if any, is written and dropped.
        """
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)) if self.workload.run_cache else None
        try:
            run, runs = self.run(cache_dir)
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        return {
            "run": [run],
            "eval": _repeat(lambda: self.eval(runs), floor_s),
            "replay": _repeat(lambda: self.replay(self.fill_dir, runs), floor_s),
        }

    def fill(self) -> None:
        """Fill, untimed, the cache that every replay phase reads."""
        self.fill_dir = self.work_dir / "fill-cache"
        self.run(self.fill_dir)


def _repeat(phase: Callable[[], Phase], floor_s: float) -> list[Phase]:
    samples = [phase()]
    while sum(p.seconds for p in samples) < floor_s:
        samples.append(phase())
    return samples


def iteration_seconds(phases: dict[str, list[Phase]]) -> float:
    return sum(p.seconds for samples in phases.values() for p in samples)

