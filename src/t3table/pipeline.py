"""Stage orchestration: drive a backend through a mode's stage graph.

Stage 2 of the three-stage pipeline is always native integration: the
counting rules fully determine it, so no model-emitted code is run. The
direct-execution variant keeps stage 2 as a model call. Every
stage's prompt and raw response land in an append-only transcript that can be
replayed through the parsers.
"""

from __future__ import annotations

import json
import random
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import prompts
from .backends import Backend, BackendError, CachingBackend, LlmRequest, StubBackend, flush_cache_writes
from .config import DEFAULT_MODEL
from .jsonl import bool_field, count_field, load_json, number_field, read_jsonl, string_field
from .jsonl import table_to_rows, to_json, write_lines
from .model import EventTuple, MatchInstance, RawEventLabel, SummaryTable, TeamSide, Unknown
from .prompts import Message, ModeKind, PipelineMode, build_instruction, build_prompt
from .tableio import ParsedTableOutcome, parse_model_table
from .tuples import TupleParseReport, integrate, parse_tuples


@dataclass(frozen=True)
class StageRecord:
    stage: int
    kind: str  # "llm" or "native"
    prompt: tuple[Message, ...] | None
    response: str
    latency_s: float = 0.0


@dataclass(frozen=True)
class RunTranscript:
    instance_id: str
    mode: str
    stages: tuple[StageRecord, ...]
    tuples: tuple[EventTuple, ...] = ()
    rejected_lines: tuple[tuple[str, str], ...] = ()
    unknown_label_count: int = 0
    final_table_text: str = ""
    outcome: ParsedTableOutcome = field(default_factory=lambda: ParsedTableOutcome.malformed("empty", "no stages ran"))
    total_latency_s: float = 0.0


def render_tuples_table(tuples: Iterable[EventTuple]) -> str:
    """The truncated pipeline's output: extracted tuples themselves as a table."""
    lines = ["Player,Team,Event"]
    for t in tuples:
        lines.append(f"{t.player or ''},{t.team.display},{t.label.text}")
    return "\n".join(lines)


class _Run:
    def __init__(self, backend: Backend, model: str, temperature: float) -> None:
        self.backend = backend
        self.model = model
        self.temperature = temperature
        self.stages: list[StageRecord] = []

    def call(self, stage: int, messages: list[Message]) -> str:
        request = LlmRequest(model=self.model, messages=tuple(messages), temperature=self.temperature)
        response = self.backend.complete(request)
        self.stages.append(
            StageRecord(stage=stage, kind="llm", prompt=tuple(messages), response=response.text, latency_s=response.latency_s)
        )
        return response.text

    def native(self, stage: int, text: str) -> None:
        self.stages.append(StageRecord(stage=stage, kind="native", prompt=None, response=text))


# Modes whose stage 1 answers with the table itself; every other mode's stage 1
# answers with tuples (t3m: tuples, then the table).
_TABLE_AT_STAGE_1 = (ModeKind.ZERO_SHOT, ModeKind.ZERO_SHOT_COT, ModeKind.FEW_SHOT)


def run_instance(
    instance: MatchInstance,
    mode: PipelineMode,
    backend: Backend,
    *,
    model: str = DEFAULT_MODEL,
    temperature: float = 0.0,
    examples_block: str | None = None,
) -> RunTranscript:
    """Execute one instance through the mode's stage graph.

    Never raises for one instance's fault: a ``BackendError`` ends it as a
    ``backend_error`` outcome, and any other exception from the backend,
    integration or a parser as ``raised_<ExceptionType>``. Only what is not an
    ``Exception`` (KeyboardInterrupt, SystemExit) propagates.
    """
    instruction = build_instruction()
    run = _Run(backend, model, temperature)
    report = TupleParseReport(())
    final_text = ""
    try:
        text = run.call(1, build_prompt(mode, 1, instruction, instance.commentary, examples_block))
        if mode.kind not in _TABLE_AT_STAGE_1:
            report = parse_tuples(text)
        if mode.kind is ModeKind.T2:
            final_text = render_tuples_table(report.tuples)
            run.native(2, final_text)
            outcome = ParsedTableOutcome.ok(integrate(report.tuples))
        else:
            if mode.kind is ModeKind.T3:
                text = prompts.render_count_tuples(integrate(report.tuples))
                run.native(2, text)
                text = run.call(3, build_prompt(mode, 3, instruction, text))
            elif mode.kind is ModeKind.T3_DIRECT:
                text = run.call(2, build_prompt(mode, 2, instruction, text))
                text = run.call(3, build_prompt(mode, 3, instruction, text))
            final_text = text
            outcome = parse_model_table(final_text)
    except BackendError as exc:
        outcome = ParsedTableOutcome.malformed("backend_error", str(exc))
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        outcome = ParsedTableOutcome.malformed(
            f"raised_{type(exc).__name__}", f"{exc} (at {Path(where.filename).name}:{where.lineno} in {where.name})"
        )
    return RunTranscript(
        instance_id=instance.id,
        mode=mode.name,
        stages=tuple(run.stages),
        tuples=report.tuples,
        rejected_lines=report.rejected_lines,
        unknown_label_count=report.unknown_label_count,
        final_table_text=final_text,
        outcome=outcome,
        total_latency_s=sum(s.latency_s for s in run.stages),
    )


def _all_events_occur(instance: MatchInstance) -> bool:
    table = instance.ground_truth
    if table is None:
        return False
    return all(h + a >= 1 for h, a in zip(table.row(TeamSide.HOME), table.row(TeamSide.AWAY)))


class ExemplarPool:
    """A dataset's few-shot exemplar candidates: its instances in which every event type occurs, in order."""

    def __init__(self, dataset: Sequence[MatchInstance]) -> None:
        self.members = [d for d in dataset if _all_events_occur(d)]
        self.positions: dict[str, list[int]] = {}
        for i, d in enumerate(self.members):
            self.positions.setdefault(d.id, []).append(i)


def pick_exemplars(pool: ExemplarPool, instance: MatchInstance, shots: int, seed: int) -> list[int]:
    """Positions in ``pool.members`` of a seeded choice of up to ``shots`` exemplars without the instance's id;
    none when every member has that id."""
    skipped = pool.positions.get(instance.id, [])
    n = len(pool.members) - len(skipped)
    # sampling range(n) draws the indices that sampling those n candidates, in pool order, draws
    picks = random.Random(f"{seed}:{instance.id}").sample(range(n), k=min(shots, n))
    for position in skipped:  # ascending: candidate j is the member at j plus the skipped positions up to it
        picks = [j + (j >= position) for j in picks]
    return picks


def run_batch(
    dataset: Sequence[MatchInstance],
    mode: PipelineMode,
    backend: Backend,
    parallelism: int = 1,
    *,
    model: str = DEFAULT_MODEL,
    temperature: float = 0.0,
    cache_dir: str | Path | None = None,
    seed: int = 0,
    on_progress: Callable[[int, int], None] | None = None,
) -> list[RunTranscript]:
    """Run the whole dataset; transcripts come back in dataset order. A few-shot mode over a dataset with no
    exemplar candidate is a ValueError, raised before any backend call. With ``cache_dir``, every entry the
    batch wrote is on disk when it returns or raises, and a failed write raises its OSError then."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if cache_dir is not None:
        backend = CachingBackend(cache_dir, backend)
    progress_lock = threading.Lock()
    done = 0
    if mode.kind is ModeKind.FEW_SHOT:  # each candidate is filtered and rendered once, not once per pick
        pool = ExemplarPool(dataset)
        if not pool.members:
            raise ValueError("no few-shot exemplar candidates: need instances where all events occur")
        # render_examples_block joins one block per exemplar with a blank line, as run_one does
        blocks = [prompts.render_examples_block([d], mode.with_cot) for d in pool.members]

    def run_one(index: int) -> RunTranscript:
        nonlocal done
        instance = dataset[index]
        examples_block = None
        if mode.kind is ModeKind.FEW_SHOT:
            examples_block = "\n\n".join(blocks[i] for i in pick_exemplars(pool, instance, mode.shots, seed))
        if examples_block == "":  # every candidate has this instance's id: it alone fails, before any call
            outcome = ParsedTableOutcome.malformed("no_exemplar", "no few-shot exemplar candidate but this instance")
            transcript = RunTranscript(instance_id=instance.id, mode=mode.name, stages=(), outcome=outcome)
        else:
            transcript = run_instance(
                instance, mode, backend, model=model, temperature=temperature, examples_block=examples_block
            )
        if on_progress is not None:
            with progress_lock:
                done += 1
                on_progress(done, len(dataset))
        return transcript

    try:
        if parallelism == 1 or len(dataset) <= 1:
            return [run_one(i) for i in range(len(dataset))]
        with ThreadPoolExecutor(max_workers=parallelism) as executor:  # not "pool": run_one reads the exemplar pool
            return list(executor.map(run_one, range(len(dataset))))
    finally:
        if cache_dir is not None:
            flush_cache_writes(cache_dir)


# Every prompt of a replay fills its template with this instance: each call is answered from the record
_REPLAYED = MatchInstance(id="replay", commentary="recorded")


def replay_outcome(transcript: RunTranscript) -> ParsedTableOutcome:
    """Re-run the transcript's mode, answering each llm call with the next recorded response.

    When the re-run asks for more responses than were recorded (a stage never
    returned), the recorded outcome stands.
    """
    responses = [s.response for s in transcript.stages if s.kind == "llm"]
    recorded = iter(responses)
    backend = StubBackend(lambda request: next(recorded))
    replayed = run_instance(_REPLAYED, prompts.parse_mode(transcript.mode), backend)
    return transcript.outcome if backend.calls > len(responses) else replayed.outcome


# --- transcript files -----------------------------------------------------------

def _tuple_to_dict(team: TeamSide, label: RawEventLabel | Unknown, player: str | None) -> dict:
    return {"player": player, "team": team.display, "event": label.text, "known": isinstance(label, RawEventLabel)}


_FIELDS = attrgetter("team", "label", "player")


def transcript_to_dict(t: RunTranscript) -> dict:
    return _record(t, [_tuple_to_dict(*_FIELDS(tp)) for tp in t.tuples])


def _record(t: RunTranscript, tuples: list) -> dict:
    """transcript_to_dict(t), with ``tuples`` in place of t's encoded tuples."""
    outcome: dict
    if t.outcome.is_ok:
        assert t.outcome.table is not None
        outcome = {"table": table_to_rows(t.outcome.table)}
    else:
        outcome = {"malformed": {"code": t.outcome.reason_code, "detail": t.outcome.detail}}
    return {
        "id": t.instance_id,
        "mode": t.mode,
        "stages": [
            {
                "stage": s.stage,
                "kind": s.kind,
                "prompt": [[role, text] for role, text in s.prompt] if s.prompt is not None else None,
                "response": s.response,
                "latency_s": s.latency_s,
            }
            for s in t.stages
        ],
        "tuples": tuples,
        "rejected_lines": [[line, reason] for line, reason in t.rejected_lines],
        "unknown_label_count": t.unknown_label_count,
        "final_table_text": t.final_table_text,
        "outcome": outcome,
        "latency_s": t.total_latency_s,
    }


# A run repeats few tuples (tags x teams x labels); this caps what a hostile file makes each memo below hold
_TUPLES_KEPT = 4096


# Each distinct tuple is encoded once, keyed by its fields, which hash in C but for an Unknown label
@lru_cache(maxsize=_TUPLES_KEPT)
def _tuple_json(fields: tuple[TeamSide, RawEventLabel | Unknown, str | None]) -> str:
    team, label, player = fields
    return to_json(_tuple_to_dict(team, label, player), (team.display, label.text, player or ""))


# The inverse of _tuple_json, without the braces, for the tuples a full decode gave: never keyed by
# file text, a piece of a line that is a key is that tuple's text. Full, it takes no more until the
# next read_transcripts call, which begins by emptying it.
_TUPLE_BY_JSON: dict[str, EventTuple] = {}


def _transcript_line(t: RunTranscript) -> str:
    """json.dumps(transcript_to_dict(t), ensure_ascii=False), with each tuple's text from _tuple_json.

    The last '"tuples": []' in the record without its tuples is its own key:
    the fields after it hold strings and numbers, and an encoded string
    escapes every quote. (The id before it may be any JSON value.)
    """
    texts = [t.instance_id, t.mode, t.final_table_text, t.outcome.reason_code or "", t.outcome.detail or "",
             *chain.from_iterable(t.rejected_lines)]  # with the stages' below: every value that may be a string
    for s in t.stages:
        texts += (s.kind, s.response, *chain.from_iterable(s.prompt or ()))
    head, _, tail = to_json(_record(t, []), texts).rpartition('"tuples": []')
    return "".join((head, '"tuples": [', ", ".join(map(_tuple_json, map(_FIELDS, t.tuples))), "]", tail))


# Exceptions are not cached: an unknown team or label, or a bad tag, stays a ValueError.
@lru_cache(maxsize=_TUPLES_KEPT)
def _decode_tuple(team: str, event: str, known: bool, player: str | None) -> EventTuple:
    return EventTuple(team=TeamSide(team), label=RawEventLabel(event) if known else Unknown(event), player=player)


def _tuples_from_dicts(records: list | tuple) -> tuple[EventTuple, ...]:
    if type(records) is tuple:  # already decoded by _load_transcript; a JSON array loads as a list
        return records
    out = []
    for d in records:
        # checked before the memo: as cache keys 1 and True are equal, so an unknown label's text 1
        # would read back as True, and a known of 1 as true
        out.append(_decode_tuple(d["team"], string_field(d, "event"), bool_field(d, "known"), d["player"]))
    _TUPLE_BY_JSON.update((_tuple_json(_FIELDS(tp))[1:-1], tp) for tp in out[: _TUPLES_KEPT - len(_TUPLE_BY_JSON)])
    return tuple(out)


def _load_transcript(data: bytes) -> object:
    """load_json(data), with the tuples array taken from _TUPLE_BY_JSON when its every piece is a key.

    Sound: in a line that loads, the token after '"tuples": ' is outside any string, so a lone NaN is
    the one put there and the line held no other constant; as the record's own "tuples" it marks the
    value json.loads keeps; and pieces that are keys make an array of valid JSON for the memo's values.
    """
    text = data.decode("utf-8")
    at = text.rfind('"tuples": [')  # the writer's key, near the tail; a line without tuples finds it too
    end = text.find('}], "rejected_lines": ', at) if at >= 0 and text.startswith("{", at + 11) else -1
    cut = text.find("}, {", at, end) if end >= 0 else -1  # the first piece's end, when there are more
    if end >= 0 and text[at + 12 : cut if cut >= 0 else end] in _TUPLE_BY_JSON:  # a miss gives up before the split
        seen: list[str] = []  # the constants the line holds; the hook returns the list itself as a marker
        try:
            tuples = tuple([_TUPLE_BY_JSON[piece] for piece in text[at + 12 : end].split("}, {")])
            record = json.loads(text[: at + 10] + "NaN" + text[end + 2 :], parse_constant=lambda c: seen.append(c) or seen)
        except (KeyError, ValueError, RecursionError):
            record = None
        if seen == ["NaN"] and isinstance(record, dict) and record.get("tuples") is seen:
            record["tuples"] = tuples
            return record
    return load_json(text)


def _string_pairs(pairs: object, what: str) -> tuple[tuple[str, str], ...]:
    # each pair must be a list: a string or an object of two items would unpack as well
    if type(pairs) is not list or not all(
        type(p) is list and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str) for p in pairs
    ):
        raise TypeError(f"{what} must be a list of [string, string] pairs")
    return tuple(map(tuple, pairs))


def transcript_from_dict(d: dict) -> RunTranscript:
    if "table" in d["outcome"]:
        outcome = ParsedTableOutcome.ok(SummaryTable.from_rows(*d["outcome"]["table"]))
    else:
        m = d["outcome"]["malformed"]
        outcome = ParsedTableOutcome.malformed(string_field(m, "code"), string_field(m, "detail"))
    return RunTranscript(
        instance_id=d["id"],
        mode=string_field(d, "mode"),
        stages=tuple(
            StageRecord(
                stage=count_field(s, "stage", 1, 3),
                kind=string_field(s, "kind"),
                prompt=None if s["prompt"] is None else _string_pairs(s["prompt"], "prompt"),
                response=string_field(s, "response"),
                latency_s=number_field(s, "latency_s"),
            )
            for s in d["stages"]
        ),
        tuples=_tuples_from_dicts(d["tuples"]),
        rejected_lines=_string_pairs(d["rejected_lines"], "rejected_lines"),
        unknown_label_count=count_field(d, "unknown_label_count"),
        final_table_text=string_field(d, "final_table_text"),
        outcome=outcome,
        total_latency_s=number_field(d, "latency_s"),
    )


def write_transcripts(transcripts: Iterable[RunTranscript], path: str | Path) -> None:
    write_lines(map(_transcript_line, transcripts), path)


def read_transcripts(path: str | Path) -> list[RunTranscript]:
    if len(_TUPLE_BY_JSON) >= _TUPLES_KEPT:  # full of an earlier file's tuples: make room for this one's
        _TUPLE_BY_JSON.clear()
    return read_jsonl(path, transcript_from_dict, _load_transcript)
