from __future__ import annotations

import dataclasses
import functools
import json
import random
import re
import threading
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t3table import pipeline, prompts
from t3table.backends import (
    BackendError,
    CachingBackend,
    LlmRequest,
    OracleBackend,
    StubBackend,
    zero_table_stub,
)
from t3table.jsonl import DatasetError, load_json, read_jsonl
from t3table.model import EventTuple, MatchInstance, RawEventLabel, SummaryTable, TeamSide, Unknown
from t3table.pipeline import (
    RunTranscript,
    StageRecord,
    read_transcripts,
    replay_outcome,
    run_batch,
    run_instance,
    transcript_from_dict,
    transcript_to_dict,
    write_transcripts,
)
from t3table.synth import GeneratorConfig, generate, oracle_extract
from t3table.tableio import ParsedTableOutcome, to_csv

from conftest import case_table


@pytest.fixture(scope="module")
def synthetic():
    return generate(GeneratorConfig(seed=11), 6)


def test_t3_oracle_backend_reproduces_ground_truth(synthetic):
    backend = OracleBackend()
    for inst in synthetic:
        t = run_instance(inst, prompts.T3, backend)
        assert t.outcome.is_ok
        assert t.outcome.table == inst.ground_truth
        assert len([s for s in t.stages if s.kind == "llm"]) == 2
        assert len([s for s in t.stages if s.kind == "native"]) == 1


def test_t3_with_scripted_stub_tuples(synthetic):
    # stage 1 emits two scripted tuples; stage 3 is answered by the oracle logic
    def script(request: LlmRequest) -> str:
        template_id, payload = prompts.classify_prompt(request.last_text)
        if template_id == "extract":
            return "(Player9, Home Team, foul)\n(Home Team, corner kick)"
        table = prompts.parse_count_tuples(payload)
        return to_csv(table)

    t = run_instance(synthetic[0], prompts.T3, StubBackend(script))
    assert t.outcome.is_ok
    assert t.outcome.table.row(TeamSide.HOME) == (0, 0, 1, 0, 0, 1, 0, 0)
    assert [tp.label.value for tp in t.tuples] == ["foul", "corner kick"]


def test_zero_shot_stub_emitting_case_study_table(synthetic):
    table_text = to_csv(case_table("claude-2.1/plain"))
    t = run_instance(synthetic[0], prompts.ZERO_SHOT, StubBackend(table_text))
    assert t.outcome.is_ok
    assert t.outcome.table == case_table("claude-2.1/plain")


def test_t3_merged_issues_single_call(synthetic):
    backend = StubBackend(to_csv(SummaryTable.zero()))
    t = run_instance(synthetic[0], prompts.T3_MERGED, backend)
    assert backend.calls == 1
    assert t.outcome.is_ok and t.outcome.table == SummaryTable.zero()


def test_t3_direct_runs_three_llm_stages(synthetic):
    backend = StubBackend(lambda request: OracleBackend().complete(request).text)  # counts the oracle's calls
    t = run_instance(synthetic[0], prompts.T3_DIRECT, backend)
    assert backend.calls == 3
    assert t.outcome.table == synthetic[0].ground_truth


def test_t2_stops_after_stage_one(synthetic):
    backend = StubBackend(lambda request: OracleBackend().complete(request).text)  # counts the oracle's calls
    t = run_instance(synthetic[0], prompts.T2, backend)
    assert backend.calls == 1
    assert t.outcome.is_ok and t.outcome.table == synthetic[0].ground_truth
    assert t.final_table_text.startswith("Player,Team,Event")


def test_backend_error_yields_malformed_not_raise(synthetic):
    class Exploding:
        def complete(self, request):
            raise BackendError("boom")

    t = run_instance(synthetic[0], prompts.T3, Exploding())
    assert not t.outcome.is_ok
    assert t.outcome.reason_code == "backend_error"


def test_batch_isolates_failing_instance(synthetic):
    dataset = synthetic[:3]
    calls = []

    def flaky(request: LlmRequest) -> str:
        payload = prompts.classify_prompt(request.last_text)[1]
        calls.append(payload)
        if dataset[1].commentary in request.last_text:
            raise BackendError("instance 2 always fails")
        return to_csv(SummaryTable.zero())

    class FlakyBackend:
        def complete(self, request):
            from t3table.backends import LlmResponse

            return LlmResponse(text=flaky(request))

    transcripts = run_batch(dataset, prompts.ZERO_SHOT, FlakyBackend())
    assert len(transcripts) == 3
    assert transcripts[0].outcome.is_ok
    assert transcripts[1].outcome.reason_code == "backend_error"
    assert transcripts[2].outcome.is_ok
    assert [t.instance_id for t in transcripts] == [i.id for i in dataset]


@pytest.mark.parametrize("bad", [{"latency_s": "x"}, {"latency_s": True}, {"text": None}],
                         ids=["latency_not_number", "latency_bool", "text_none"])
def test_malformed_response_ends_only_its_instance(tmp_path, bad):
    dataset = generate(GeneratorConfig(seed=3), 3)
    oracle = OracleBackend()

    class SecondCallMalformed:
        calls = 0

        def complete(self, request):
            self.calls += 1
            response = oracle.complete(request)
            return dataclasses.replace(response, **bad) if self.calls == 2 else response

    # at parallelism 1 the second call is the first instance's stage 3
    transcripts = run_batch(dataset, prompts.T3, SecondCallMalformed())
    assert [t.outcome.reason_code for t in transcripts] == ["backend_error", None, None]
    assert "wrong-typed fields" in transcripts[0].outcome.detail
    assert [s.stage for s in transcripts[0].stages] == [1, 2]
    path = tmp_path / "t.jsonl"
    write_transcripts(transcripts, path)
    assert read_transcripts(path) == transcripts


_HUGE_CELL_CSV = to_csv(SummaryTable.zero()).replace(",0", "," + "9" * 5000, 1)


def _with_junk_counts(template_id: str, text: str) -> str:
    return text.replace("0)", "\u00b2)", 1) if template_id == "integrate_direct" else text


# "\u00b2" passes str.isdigit but not int(); 5,000 digits are past int()'s digit limit
@pytest.mark.parametrize("mode, answer, code", [
    (prompts.ZERO_SHOT, lambda t, text: _HUGE_CELL_CSV, "bad_cell"),
    (prompts.ZERO_SHOT, lambda t, text: "Here is the table:\n" + _HUGE_CELL_CSV, "bad_cell"),
    (prompts.T3_DIRECT, _with_junk_counts, None),
], ids=["csv_cell_past_digit_limit", "tolerant_cell_past_digit_limit", "t3d_superscript"])
def test_junk_digits_end_only_as_an_outcome_that_replays(tmp_path, mode, answer, code):
    oracle = OracleBackend()

    class Junk:
        def complete(self, request):
            response = oracle.complete(request)
            template_id = prompts.classify_prompt(request.last_text)[0]
            return dataclasses.replace(response, text=answer(template_id, response.text))

    transcripts = run_batch(generate(GeneratorConfig(seed=3), 2), mode, Junk())
    assert [t.outcome.reason_code for t in transcripts] == [code, code]
    path = tmp_path / "t.jsonl"
    write_transcripts(transcripts, path)
    for back in read_transcripts(path):
        assert replay_outcome(back) == back.outcome


@pytest.mark.parametrize("parallelism", [1, 8])
def test_batch_survives_any_exception_from_the_backend(parallelism):
    dataset = generate(GeneratorConfig(seed=12), 10)
    doomed = {dataset[i].commentary for i in (1, 4, 8)}
    oracle = OracleBackend()

    class KeyErrorBackend:
        def complete(self, request):
            if any(text in request.last_text for text in doomed):
                raise KeyError("no such key")
            return oracle.complete(request)

    transcripts = run_batch(dataset, prompts.T3, KeyErrorBackend(), parallelism=parallelism)
    assert [t.instance_id for t in transcripts] == [i.id for i in dataset]
    for i, (t, inst) in enumerate(zip(transcripts, dataset)):
        if i in (1, 4, 8):
            assert t.outcome.reason_code == "raised_KeyError"
            assert "no such key" in t.outcome.detail and "test_pipeline.py" in t.outcome.detail
        else:
            assert t.outcome.table == inst.ground_truth


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_interrupts_still_propagate(synthetic, interrupt):
    class InterruptingBackend:
        def complete(self, request):
            raise interrupt()

    with pytest.raises(interrupt):
        run_batch(synthetic[:2], prompts.T3, InterruptingBackend())


def test_parallelism_determinism(tmp_path, synthetic):
    backend = StubBackend(zero_table_stub)
    one = run_batch(synthetic, prompts.T3, backend, parallelism=1)
    eight = run_batch(synthetic, prompts.T3, backend, parallelism=8)
    p1, p8 = tmp_path / "p1.jsonl", tmp_path / "p8.jsonl"
    write_transcripts(one, p1)
    write_transcripts(eight, p8)
    assert p1.read_bytes() == p8.read_bytes()


def test_cache_rerun_issues_zero_backend_calls(tmp_path, synthetic):
    inner = StubBackend(zero_table_stub)
    first = run_batch(synthetic, prompts.T3, inner, cache_dir=tmp_path / "cache")
    calls_after_first = inner.calls
    assert calls_after_first > 0
    second = run_batch(synthetic, prompts.T3, inner, cache_dir=tmp_path / "cache")
    assert inner.calls == calls_after_first  # warm cache: no new calls
    assert [t.outcome.table for t in first] == [t.outcome.table for t in second]


def test_replay_backend_without_inner(tmp_path, synthetic):
    inner = StubBackend(zero_table_stub)
    run_batch(synthetic, prompts.ZERO_SHOT, inner, cache_dir=tmp_path / "cache")
    replay = CachingBackend(tmp_path / "cache", inner=None)
    transcripts = run_batch(synthetic, prompts.ZERO_SHOT, replay)
    assert all(t.outcome.is_ok for t in transcripts)
    # a miss (different mode) is a contained backend error
    transcripts = run_batch(synthetic, prompts.T3_MERGED, replay)
    assert all(t.outcome.reason_code == "backend_error" for t in transcripts)


def test_player0_tag_in_commentary_does_not_sink_the_batch(synthetic):
    commentary = re.sub(r"Player\d+\(Home Team\)", "Player0(Home Team)", synthetic[0].commentary, count=1)
    assert commentary != synthetic[0].commentary
    assert all(tp.player != "Player0" for tp in oracle_extract(commentary))
    broken = dataclasses.replace(synthetic[0], commentary=commentary)
    (transcript,) = run_batch([broken], prompts.T3, OracleBackend())
    assert transcript.instance_id == broken.id
    assert transcript.outcome.is_ok


def test_transcript_round_trip_and_replay(tmp_path, synthetic):
    transcripts = run_batch(synthetic, prompts.T3, OracleBackend(), parallelism=4)
    path = tmp_path / "t.jsonl"
    write_transcripts(transcripts, path)
    loaded = read_transcripts(path)
    assert len(loaded) == len(transcripts)
    for original, back in zip(transcripts, loaded):
        assert back.instance_id == original.instance_id
        assert back.outcome.table == original.outcome.table
        assert back.tuples == original.tuples
        assert replay_outcome(back).table == original.outcome.table


# quotes, backslashes, the writer's own key text, non-ASCII, DEL and control characters
_HOSTILE = ['"', "\\", '"tuples": []', '{"tuples": []}', "é ü 日本", "\x7f", "\x00\x1f\n\t", "\u2028"]
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) | st.sampled_from(_HOSTILE)
_labels = st.sampled_from(list(RawEventLabel)) | st.builds(Unknown, _text)
_players = st.none() | st.integers(min_value=1, max_value=10**6).map(lambda n: f"Player{n}")
_tuples = st.builds(EventTuple, st.sampled_from(list(TeamSide)), _labels, _players)
_latency = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_stages = st.builds(
    StageRecord,
    st.integers(min_value=1, max_value=3),
    _text,
    st.none() | st.lists(st.tuples(_text, _text), max_size=3).map(tuple),
    _text,
    _latency,
)
_outcomes = st.builds(ParsedTableOutcome.ok, st.builds(SummaryTable, st.tuples(*[st.integers(0, 99)] * 16))) | st.builds(
    ParsedTableOutcome.malformed, _text, _text
)
_transcripts = st.builds(
    RunTranscript,
    instance_id=_text,
    mode=_text,
    stages=st.lists(_stages, max_size=3).map(tuple),
    tuples=st.lists(_tuples, max_size=6).map(tuple),
    rejected_lines=st.lists(st.tuples(_text, _text), max_size=2).map(tuple),
    unknown_label_count=st.integers(min_value=0, max_value=99),
    final_table_text=_text,
    outcome=_outcomes,
    total_latency_s=_latency,
)
_unknown_only = RunTranscript("u", '"tuples": []', (), (EventTuple(TeamSide.AWAY, Unknown('"tuples": []')),))
# a file may give any JSON value as an id, even one that encodes as the writer's key text
_object_id = RunTranscript({"tuples": []}, "t3", (), (EventTuple(TeamSide.HOME, RawEventLabel.FOUL),))


@settings(deadline=None)
@given(st.lists(_transcripts, max_size=4, unique_by=lambda t: t.instance_id))
@example([RunTranscript("empty", "t3", ())])
@example([_object_id])
@example([_unknown_only, RunTranscript("k", "t3", (), (EventTuple(TeamSide.HOME, RawEventLabel.GOAL, "Player7"),))])
def test_written_lines_are_json_dumps_of_the_dicts_and_read_back(tmp_path_factory, transcripts):
    path = tmp_path_factory.mktemp("written") / "t.jsonl"
    write_transcripts(transcripts, path)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines == [json.dumps(transcript_to_dict(t), ensure_ascii=False) for t in transcripts] + [""]
    assert read_transcripts(path) == transcripts


@functools.cache
def _t3_lines() -> list[str]:
    """Oracle t3 lines of 3 seed-3 instances, then one whose Unknown labels hold
    the writer's separator and one whose prompt holds the writer's tuple text."""
    transcripts = run_batch(generate(GeneratorConfig(seed=3), 3), prompts.T3, OracleBackend())
    first = transcripts[0]
    odd = tuple(EventTuple(TeamSide.AWAY, Unknown(text)) for text in ("a}, {b", '"}, {"', "}], "))
    member = json.dumps({"tuples": [transcript_to_dict(first)["tuples"][0]], "rejected_lines": []})[1:-1]
    transcripts += [
        dataclasses.replace(first, instance_id="odd", tuples=first.tuples[:2] + odd + first.tuples[2:]),
        dataclasses.replace(first, instance_id="prompt", stages=(StageRecord(1, "llm", (("user", member),), member),)),
    ]
    return [json.dumps(transcript_to_dict(t), ensure_ascii=False) for t in transcripts]


def _tuples_member(line: str) -> str:
    return line[line.rindex('"tuples": ['):line.rindex(', "rejected_lines": ')]


def _mutated(line: str, kind: str, draw) -> bytes:
    """``line`` with one mutation of the given kind, as bytes; hypothesis' ``draw`` picks the details."""
    member = _tuples_member(line)
    if kind == "truncate":
        return line.encode()[: draw(st.integers(0, len(line.encode()) - 1))]
    if kind == "flip_a_byte":
        data = bytearray(line.encode())
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    if kind == "duplicate_tuples":
        if draw(st.booleans()):
            line = '{"tuples": ' + draw(st.sampled_from(["[]", "[{}]"])) + ", " + line[1:]
        else:
            line = line[:-1] + ", " + draw(st.sampled_from(['"tuples": []', member])) + "}"
    elif kind == "nest_tuples_under_outcome":
        if draw(st.booleans()):
            line = line.replace(member, '"tuples": []')
        line = line.replace('"outcome": {', '"outcome": {' + member + ', "rejected_lines": [], ')
    elif kind == "constant_elsewhere":
        constant = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
        where = draw(st.sampled_from(["stage", "record", "id", "extra"]))
        if where == "stage":
            line = line.replace('"latency_s": 0.0', f'"latency_s": {constant}', 1)
        elif where == "record":
            head, _, tail = line.rpartition('"latency_s": 0.0')
            line = f'{head}"latency_s": {constant}{tail}'
        elif where == "id":
            line = '{"id": ' + constant + line[line.index(", "):]
        else:
            line = '{"x": ' + constant + ", " + line[1:]
    elif kind == "tuple_text_in_a_string":
        # raw, it ends the string, adds the member and starts another string
        at = draw(st.sampled_from(['"response": "', '"final_table_text": "']))
        line = line.replace(at, at + '", ' + member + ', "rejected_lines": [], "y": "', 1)
    return line.encode()


_MUTATIONS = ["none", "truncate", "flip_a_byte", "duplicate_tuples", "nest_tuples_under_outcome",
              "constant_elsewhere", "tuple_text_in_a_string"]


def _read(read, path):
    try:
        return repr(read(path))
    except DatasetError as exc:
        return f"DatasetError: {exc}"


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_transcript_reader_reads_as_load_json_does(tmp_path_factory, data):
    t3_lines = _t3_lines()
    path = tmp_path_factory.mktemp("mutated") / "t.jsonl"
    path.write_text("\n".join(t3_lines) + "\n", "utf-8")
    pipeline._TUPLE_BY_JSON.clear()  # so that it has room for what the next read puts there
    read_transcripts(path)  # warms the memo
    lines = [line.encode() for line in t3_lines]
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = _mutated(t3_lines[i], data.draw(st.sampled_from(_MUTATIONS)), data.draw)
    path.write_bytes(b"\n".join(lines) + b"\n")
    want = _read(lambda p: read_jsonl(p, transcript_from_dict), path)
    # the second read finds in the memo what the first one's decode put there
    assert _read(read_transcripts, path) == want
    assert _read(read_transcripts, path) == want


def test_replay_of_a_t2_transcript_read_back_integrates_its_tuples(tmp_path, synthetic):
    transcripts = run_batch(synthetic, prompts.T2, OracleBackend())
    path = tmp_path / "t.jsonl"
    write_transcripts(transcripts, path)
    back = read_transcripts(path)
    assert back == transcripts
    for t, inst in zip(back, synthetic):
        assert replay_outcome(t) == t.outcome == ParsedTableOutcome.ok(inst.ground_truth)


def test_second_read_of_a_t3_file_loads_no_line_whole(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    write_transcripts(run_batch(generate(GeneratorConfig(seed=3), 40), prompts.T3, OracleBackend()), path)
    pipeline._TUPLE_BY_JSON.clear()  # so that it has room for what the first read puts there
    first = read_transcripts(path)
    loaded = []
    monkeypatch.setattr(pipeline, "load_json", lambda data: loaded.append(data) or load_json(data))
    assert read_transcripts(path) == first
    assert loaded == []


def test_tuple_text_memo_takes_no_more_once_full(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_TUPLE_BY_JSON", {})
    files = {}
    for team in (TeamSide.AWAY, TeamSide.HOME):
        tuples = tuple(EventTuple(team, RawEventLabel.FOUL, f"Player{i}") for i in range(1, 5_001))
        files[team] = (tmp_path / f"{team.name}.jsonl", tuples)
        write_transcripts([RunTranscript(instance_id="a", mode="t2", stages=(), tuples=tuples)], files[team][0])
    for team in (TeamSide.AWAY, TeamSide.HOME):
        path, tuples = files[team]
        misses = pipeline._tuple_json.cache_info().misses
        assert read_transcripts(path)[0].tuples == tuples
        # within a call the memo takes the first 4,096 tuples and encodes no more; the next call
        # finds it full, so it starts empty and holds only that call's tuples
        assert list(pipeline._TUPLE_BY_JSON.values()) == list(tuples[:4096])
        assert pipeline._tuple_json.cache_info().misses == misses + 4096


def test_a_full_memo_makes_room_for_the_next_file(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_TUPLE_BY_JSON", {})
    distinct = tmp_path / "distinct.jsonl"
    tuples = tuple(EventTuple(TeamSide.HOME, Unknown(f"event {i}")) for i in range(5_000))
    write_transcripts([RunTranscript(instance_id="a", mode="t2", stages=(), tuples=tuples)], distinct)
    path = tmp_path / "t.jsonl"
    write_transcripts(run_batch(generate(GeneratorConfig(seed=3), 40), prompts.T3, OracleBackend()), path)
    read_transcripts(distinct)  # fills the memo
    first = read_transcripts(path)
    loaded = []
    monkeypatch.setattr(pipeline, "load_json", lambda data: loaded.append(data) or load_json(data))
    assert read_transcripts(path) == first
    assert loaded == []


def _failing_from(failing_templates: set[str]):
    """Oracle answers, except that the given templates raise BackendError."""
    oracle = OracleBackend()

    def script(request: LlmRequest) -> str:
        template_id, _ = prompts.classify_prompt(request.last_text)
        if template_id in failing_templates:
            raise BackendError(f"{template_id} is down")
        return oracle.complete(request).text

    return StubBackend(script)


@pytest.mark.parametrize(
    "mode, failing, stages_run",
    [
        (prompts.T3, {"render_table"}, [1, 2]),  # stage 3 fails
        (prompts.T3_DIRECT, {"integrate_direct", "render_table"}, [1]),  # stage 2 fails, 3 never runs
    ],
)
def test_replay_keeps_outcome_when_final_stage_never_returned(tmp_path, synthetic, mode, failing, stages_run):
    transcripts = run_batch(synthetic[:2], mode, _failing_from(failing))
    path = tmp_path / "t.jsonl"
    write_transcripts(transcripts, path)
    for t in transcripts:
        assert [s.stage for s in t.stages] == stages_run
        assert t.outcome.reason_code == "backend_error"
        assert replay_outcome(t) == t.outcome
    for back in read_transcripts(path):
        assert replay_outcome(back) == back.outcome
        assert back.outcome.reason_code == "backend_error"


_JUNK = {
    "empty": "",
    "prose": "Sorry, I cannot count these events.",
    "bad_cell": to_csv(SummaryTable.zero()).replace(",0", ",x", 1),
    "huge_cell": _HUGE_CELL_CSV,
    "huge_count": prompts.render_count_tuples(SummaryTable.zero()).replace("0)", "9" * 5000 + ")", 1),
}
_TEMPLATES = ("extract", "zero_shot", "merged", "integrate_direct", "render_table")


@functools.cache
def _with_exemplars() -> list[MatchInstance]:
    """Six seed-3 instances that hold both exemplar candidates of the first 40 (positions 21 and 23)."""
    return generate(GeneratorConfig(seed=3), 40)[20:26]


@pytest.mark.parametrize("parallelism", [1, 8])
@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from(["zero-shot", "zero-shot-cot", "few-shot:1", "few-shot-cot:1", "t2", "t3", "t3m", "t3d"]),
       template=st.sampled_from(_TEMPLATES), fault=st.sampled_from(["backend_error", "exception", *_JUNK]),
       share=st.integers(1, 3))
def test_a_fault_at_any_stage_ends_as_an_outcome_that_replays(tmp_path_factory, parallelism, mode, template, fault,
                                                              share):
    oracle = OracleBackend()

    def script(request: LlmRequest) -> str:
        # the fault hits 1, 2 or 3 thirds of the drawn template's prompts, chosen by their text
        in_share = zlib.crc32(request.last_text.encode()) % 3 < share
        if in_share and prompts.classify_prompt(request.last_text)[0] == template:
            if fault == "backend_error":
                raise BackendError("scripted outage")
            if fault == "exception":
                raise ZeroDivisionError("scripted fault")
            return _JUNK[fault]
        return oracle.complete(request).text

    dataset = _with_exemplars()
    transcripts = run_batch(dataset, prompts.parse_mode(mode), StubBackend(script), parallelism=parallelism)
    assert [t.instance_id for t in transcripts] == [inst.id for inst in dataset]
    path = tmp_path_factory.mktemp("replay") / "t.jsonl"
    write_transcripts(transcripts, path)
    for t in (*transcripts, *read_transcripts(path)):
        assert replay_outcome(t) == t.outcome


@pytest.mark.parametrize(
    "mode, failing, stages, tuples_kept",
    [
        (prompts.T2, "extract", [], False),
        (prompts.T3, "extract", [], False),
        (prompts.T3, "render_table", [(1, "llm"), (2, "native")], True),
        (prompts.T3_MERGED, "merged", [], False),
        (prompts.T3_DIRECT, "extract", [], False),
        (prompts.T3_DIRECT, "integrate_direct", [(1, "llm")], True),
        (prompts.T3_DIRECT, "render_table", [(1, "llm"), (2, "llm")], True),
        (prompts.ZERO_SHOT, "zero_shot", [], False),
        (prompts.few_shot(1), "zero_shot", [], False),  # the zero-shot family shares one marker
    ],
)
def test_backend_error_at_each_stage_keeps_what_returned(synthetic, mode, failing, stages, tuples_kept):
    inst = synthetic[0]
    examples = prompts.render_examples_block(synthetic[1:2], False) if mode.kind is prompts.ModeKind.FEW_SHOT else None
    t = run_instance(inst, mode, _failing_from({failing}), examples_block=examples)
    assert [(s.stage, s.kind) for s in t.stages] == stages
    assert t.final_table_text == ""  # the stage that answers with the table never returned
    assert t.tuples == (tuple(oracle_extract(inst.commentary)) if tuples_kept else ())
    assert t.outcome.reason_code == "backend_error"
    assert t.outcome.detail == f"{failing} is down"


def test_few_shot_prompts_carry_exemplars():
    # force every event to occur so exemplar candidates exist
    cfg = GeneratorConfig(seed=3).with_means(red_cards=3.0)
    dataset = generate(cfg, 5)
    seen = []

    def script(request: LlmRequest) -> str:
        seen.append(request.last_text)
        return to_csv(SummaryTable.zero())

    transcripts = run_batch(dataset, prompts.few_shot(2), StubBackend(script), seed=5)
    assert all(t.outcome.is_ok for t in transcripts)
    assert all("Here are some examples:" in text for text in seen)
    assert all(text.count("Live text:") == 2 for text in seen)
    # deterministic exemplar choice
    again = []

    def script2(request: LlmRequest) -> str:
        again.append(request.last_text)
        return to_csv(SummaryTable.zero())

    run_batch(dataset, prompts.few_shot(2), StubBackend(script2), seed=5)
    assert sorted(seen) == sorted(again)


def test_few_shot_cot_includes_reasoning():
    cfg = GeneratorConfig(seed=3).with_means(red_cards=3.0)
    dataset = generate(cfg, 3)
    seen = []

    def script(request: LlmRequest) -> str:
        seen.append(request.last_text)
        return to_csv(SummaryTable.zero())

    run_batch(dataset, prompts.few_shot(1, with_cot=True), StubBackend(script), seed=5)
    assert all("Reasoning:" in text for text in seen)
    assert all("Let's think step by step!" in text for text in seen)


def test_run_batch_rejects_bad_parallelism(synthetic):
    with pytest.raises(ValueError):
        run_batch(synthetic, prompts.T3, OracleBackend(), parallelism=0)


def test_stub_backend_is_thread_safe():
    backend = StubBackend("x")
    threads = [
        threading.Thread(
            target=lambda: [backend.complete(LlmRequest("m", (("user", "hi"),))) for _ in range(50)]
        )
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert backend.calls == 400


def _picked_as_first_written(dataset, instance, shots, seed):
    """The exemplar choice a batch made before it filtered and rendered each candidate once."""
    candidates = [d for d in dataset if d.id != instance.id and pipeline._all_events_occur(d)]
    if not candidates:
        raise ValueError("no few-shot exemplar candidates: need instances where all events occur")
    return random.Random(f"{seed}:{instance.id}").sample(candidates, k=min(shots, len(candidates)))


# cells of 0 or 1, mostly 1: some six tables in ten have every event; ids repeat now and then
_ROWS = st.lists(st.integers(0, 1) | st.just(1), min_size=8, max_size=8)
_FEW_SHOT_INSTANCES = st.builds(
    MatchInstance,
    id=st.integers(0, 60).map("i{}".format),
    commentary=st.sampled_from(["a goal.", "a foul, then a corner."]),
    ground_truth=st.none() | st.builds(SummaryTable.from_rows, _ROWS, _ROWS),
)


@settings(max_examples=200, deadline=None)
@given(dataset=st.lists(_FEW_SHOT_INSTANCES, min_size=1, max_size=40), shots=st.integers(1, 4),
       with_cot=st.booleans(), seed=st.integers())
@example(dataset=[MatchInstance("a", "x.", SummaryTable.from_rows([1] * 8, [0] * 8))], shots=1, with_cot=False, seed=0)
def test_a_batch_picks_and_renders_exemplars_as_first_written(dataset, shots, with_cot, seed):
    mode = prompts.few_shot(shots, with_cot)
    if not any(map(pipeline._all_events_occur, dataset)):  # no candidate at all: the batch fails before any call
        with pytest.raises(ValueError, match="no few-shot exemplar candidates"):
            run_batch(dataset, mode, StubBackend(""), seed=seed)
        return
    expected, alone = [], []
    for inst in dataset:
        try:
            block = prompts.render_examples_block(_picked_as_first_written(dataset, inst, shots, seed), with_cot)
        except ValueError:  # no candidate but the instance itself: it alone fails, and sends nothing
            alone.append(inst.id)
            continue
        expected.append(prompts.build_prompt(mode, 1, prompts.build_instruction(), inst.commentary, block))
    seen = []
    transcripts = run_batch(dataset, mode, StubBackend(lambda request: seen.append(list(request.messages)) or ""),
                            seed=seed)
    assert seen == expected
    assert [t.instance_id for t in transcripts if t.outcome.reason_code == "no_exemplar"] == alone


@functools.cache
def _seed3_dataset() -> list[MatchInstance]:
    """`gen --n 40 --seed 3`: its only exemplar candidates are at positions 21 and 23."""
    return generate(GeneratorConfig(seed=3), 40)


def _slice(start, stop, without_truth=None):
    """Instances ``start`` to ``stop`` of the seed-3 dataset; the one at ``without_truth`` loses its ground truth."""
    shape = _seed3_dataset()[start:stop]
    if without_truth is not None:
        shape[without_truth] = dataclasses.replace(shape[without_truth], ground_truth=None)
    return shape


@st.composite
def _dataset_shapes(draw) -> list[MatchInstance]:
    """A slice of one to six instances of the seed-3 dataset, one of them perhaps without ground truth."""
    start = draw(st.integers(0, 39))
    stop = draw(st.integers(start + 1, min(40, start + 6)))
    return _slice(start, stop, draw(st.none() | st.integers(0, stop - start - 1)))


@settings(max_examples=100, deadline=None)
@given(dataset=_dataset_shapes())
@example(dataset=_slice(0, 3))  # no exemplar candidate
@example(dataset=_slice(20, 23))  # one candidate, which has no exemplar but itself
@example(dataset=_slice(20, 26))  # two candidates
@example(dataset=_slice(20, 26, without_truth=3))  # a candidate without ground truth is no candidate
@example(dataset=_slice(21, 22))  # a one-instance dataset of a candidate
@example(dataset=_slice(5, 6, without_truth=0))  # a one-instance dataset without ground truth
def test_no_dataset_shape_sinks_a_batch(tmp_path_factory, dataset):
    """Every mode at parallelism 1 and 8 writes one transcript per instance, the same bytes at both, or raises a
    ValueError before its first backend call."""
    out, oracle = tmp_path_factory.mktemp("shapes"), OracleBackend()
    for mode in ("zero-shot", "zero-shot-cot", "few-shot:1", "few-shot:2", "few-shot-cot:1", "t2", "t3", "t3m",
                 "t3d"):
        written = []
        for parallelism in (1, 8):
            backend = StubBackend(lambda request: oracle.complete(request).text)  # counts the calls
            try:
                transcripts = run_batch(dataset, prompts.parse_mode(mode), backend, parallelism=parallelism)
            except ValueError:
                assert backend.calls == 0, mode
                written.append(None)
                continue
            assert [t.instance_id for t in transcripts] == [inst.id for inst in dataset], mode
            path = out / f"{mode}-{parallelism}.jsonl"
            write_transcripts(transcripts, path)
            written.append(path.read_bytes())
        assert written[0] == written[1], mode
