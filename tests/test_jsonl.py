"""Rules every JSONL file shares: ids are unique, blank lines are skipped, and
each error is a DatasetError that names the line."""

from __future__ import annotations

import json

import pytest

from t3table import prompts
from t3table.autoqa import load_documents, load_tables
from t3table.backends import OracleBackend
from t3table.jsonl import DatasetError
from t3table.model import EventTuple, RawEventLabel, TeamSide
from t3table.pipeline import RunTranscript, _decode_tuple, read_transcripts, run_batch, write_transcripts
from t3table.synth import GeneratorConfig, generate, read_dataset


def test_read_transcripts_rejects_duplicate_id(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcripts([RunTranscript(instance_id="a", mode="t3", stages=())] * 2, path)
    with pytest.raises(DatasetError, match="duplicate id 'a' at line 2"):
        read_transcripts(path)


def test_load_tables_rejects_duplicate_id(tmp_path):
    path = tmp_path / "tables.jsonl"
    path.write_text('{"id": "a", "table": "x"}\n{"id": "a", "table": "y"}\n')
    with pytest.raises(DatasetError, match="duplicate id 'a' at line 2"):
        load_tables(path)


def test_read_transcripts_rejects_unknown_team(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcripts(run_batch(generate(GeneratorConfig(seed=3), 2), prompts.T3, OracleBackend()), path)
    lines = path.read_text("utf-8").splitlines()
    record = json.loads(lines[1])
    record["tuples"][0]["team"] = "Visitors"
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", "utf-8")
    with pytest.raises(DatasetError, match="bad record at line 2 .*KeyError: .Visitors."):
        read_transcripts(path)


def test_equal_tuple_records_decode_to_one_object(tmp_path):
    path = tmp_path / "t.jsonl"
    goal = EventTuple(team=TeamSide.HOME, label=RawEventLabel.GOAL, player="Player3")
    write_transcripts(
        [RunTranscript(instance_id=i, mode="t2", stages=(), tuples=(goal, goal)) for i in "ab"], path
    )
    a, b = read_transcripts(path)
    assert a.tuples == (goal, goal)
    assert a.tuples[0] is a.tuples[1] is b.tuples[0]


def test_tuple_decode_cache_stays_bounded(tmp_path):
    path = tmp_path / "t.jsonl"
    tuples = tuple(
        EventTuple(team=TeamSide.AWAY, label=RawEventLabel.FOUL, player=f"Player{i}") for i in range(1, 10_001)
    )
    write_transcripts([RunTranscript(instance_id="a", mode="t2", stages=(), tuples=tuples)], path)
    _decode_tuple.cache_clear()
    (transcript,) = read_transcripts(path)
    assert transcript.tuples == tuples
    info = _decode_tuple.cache_info()
    assert info.currsize <= info.maxsize == 4096


def test_read_dataset_rejects_meta_that_is_not_an_object(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": "a", "commentary": "x", "table": null, "meta": 5}\n')
    with pytest.raises(DatasetError, match="bad record at line 1 .*AttributeError"):
        read_dataset(path)


@pytest.mark.parametrize(
    "line, problem",
    [
        (b"[1, 2]", "record without an id"),
        (b'{"text": "x"}', "record without an id"),
        (b'{"id": "b"}', "KeyError: 'text'"),
        (b'{"id": "b", "text": "x", "qa": 5}', "bad record .*TypeError"),
        (b'{"id": "b", "text": "\xff"}', "not UTF-8"),
        (b'{"id": "b", "text": 5}', "TypeError: text must be a string"),
        (b'{"id": "b", "text": "x", "qa": ["x"]}', "TypeError: qa must be a list of objects"),
        (b'{"id": "b", "text": "x", "qa": [{"answer": "1"}]}', "KeyError: 'question'"),
        (b'{"id": "b", "text": "x", "qa": [{"question": "", "answer": "1"}]}', "ValueError: question must be non-empty"),
        (b'{"id": "b", "text": "x", "qa": [{"question": "q", "answer": 1}]}', "TypeError: answer must be a string"),
        (b'{"id": "b", "text": "x", "qa": [{"question": "q", "answer": "1", "table_answer": 1}]}',
         "TypeError: table_answer must be a string"),
        (b'{"id": "b", "text": "x", "qa": [{"question": "q", "answer": "1", "prescreen_passed": "false"}]}',
         "TypeError: prescreen_passed must be a bool"),
    ],
)
def test_errors_name_the_line_after_a_blank_one(tmp_path, line, problem):
    path = tmp_path / "docs.jsonl"
    path.write_bytes(b'{"id": "a", "text": "x"}\n\n' + line + b"\n")
    with pytest.raises(DatasetError, match=problem) as caught:
        load_documents(path)
    assert "at line 3 of" in str(caught.value)
