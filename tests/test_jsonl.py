"""Rules every JSONL file shares: ids are unique, blank lines are skipped, and
each error is a DatasetError that names the line."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t3table import pipeline, prompts
from t3table.autoqa import load_documents, load_tables
from t3table.backends import OracleBackend
from t3table.jsonl import _READ_BUFFER, DatasetError, load_json, read_jsonl, to_json, write_whole
from t3table.model import EventTuple, MatchInstance, RawEventLabel, SummaryTable, TeamSide, Unknown
from t3table.pipeline import RunTranscript, StageRecord, _decode_tuple, _load_transcript, _transcript_line
from t3table.pipeline import read_transcripts, run_batch, transcript_from_dict, transcript_to_dict, write_transcripts
from t3table.synth import GeneratorConfig, generate, read_dataset, write_dataset
from t3table.tableio import ParsedTableOutcome


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
    with pytest.raises(DatasetError, match="bad record at line 2 .*ValueError: 'Visitors' is not a valid TeamSide"):
        read_transcripts(path)


_LONE_SURROGATE_LINES = {
    "dataset_id": (read_dataset, '{"id": "b%s", "commentary": "x", "table": null}'),
    "dataset_commentary": (read_dataset, '{"id": "b", "commentary": "x%s", "table": null}'),
    "dataset_meta_key": (read_dataset, '{"id": "b", "commentary": "x", "table": null, "meta": {"k%s": "v"}}'),
    "dataset_meta_value": (read_dataset, '{"id": "b", "commentary": "x", "table": null, "meta": {"k": "v%s"}}'),
    "document_question": (load_documents, '{"id": "b", "text": "x", "qa": [{"question": "q%s", "answer": "1"}]}'),
    "table": (load_tables, '{"id": "b", "table": "x%s"}'),
    "transcript_id": (read_transcripts, '{"id": ["b%s"], "mode": "t3"}'),  # kept as read: any JSON value
}


@pytest.mark.parametrize("kind", sorted(_LONE_SURROGATE_LINES))
@pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFF", "\\ude00\\ud83d"], ids=["high", "low", "pair_reversed"])
def test_a_lone_surrogate_is_an_error_naming_the_file_and_line(tmp_path, kind, escape):
    read, line = _LONE_SURROGATE_LINES[kind]
    path = tmp_path / "f.jsonl"
    path.write_text("\n \n" + line % escape + "\n", "utf-8")
    with pytest.raises(DatasetError, match="lone surrogate, which UTF-8 cannot encode") as caught:
        read(path)
    assert f"at line 3 of {path}" in str(caught.value)


@pytest.mark.parametrize("text, escape", [("\U0001f600", "\\ud83d\\ude00"), ("\\ud800", "\\\\ud800"),
                                          ("é", "\\u00e9")], ids=["pair", "escaped_backslash", "not_a_surrogate"])
def test_an_escape_that_gives_no_lone_surrogate_reads(tmp_path, text, escape):
    path = tmp_path / "tables.jsonl"
    path.write_text('{"id": "a", "table": "x%s"}\n' % escape, "utf-8")
    assert load_tables(path) == {"a": "x" + text}


@pytest.mark.parametrize("field", ['"mode": "', '"kind": "', '"response": "', '"final_table_text": "',
                                   '"prompt": [["user", "', '"rejected_lines": [["'])
@pytest.mark.parametrize("fast", [False, True], ids=["load_json", "fast_path"])
def test_a_lone_surrogate_in_a_transcript_is_an_error_on_either_read_path(tmp_path, monkeypatch, field, fast):
    path = tmp_path / "t.jsonl"
    write_transcripts(run_batch(generate(GeneratorConfig(seed=3), 2), prompts.T3, OracleBackend()), path)
    pipeline._TUPLE_BY_JSON.clear()
    if fast:
        read_transcripts(path)  # fills the memo, so the next read takes each line's tuples from it
    lines = path.read_text("utf-8").splitlines()
    if field.startswith('"rejected_lines"'):
        field = '"rejected_lines": []'
        lines[1] = lines[1].replace(field, '"rejected_lines": [["a line\\ud800", "why"]]')
    else:
        lines[1] = lines[1].replace(field, field + "\\udc00", 1)
    path.write_text("\n".join(lines) + "\n", "utf-8")
    loaded = []
    monkeypatch.setattr(pipeline, "load_json", lambda data: loaded.append(data) or load_json(data))
    with pytest.raises(DatasetError, match="lone surrogate, which UTF-8 cannot encode") as caught:
        read_transcripts(path)
    assert "at line 2 of" in str(caught.value)
    assert len(loaded) == (0 if fast else 2)  # the fast path loads no line whole


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


@pytest.mark.parametrize("meta", ["null", "false", "0", "[]", '""'])
def test_read_dataset_rejects_a_meta_that_is_empty_but_not_an_object(tmp_path, meta):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": "a", "commentary": "x", "table": null, "meta": %s}\n' % meta)
    with pytest.raises(DatasetError, match="bad record at line 1 .*AttributeError"):
        read_dataset(path)


@pytest.mark.parametrize(
    "line, problem",
    [
        (b"[1, 2]", "record without an id"),
        (b'{"text": "x"}', "record without an id"),
        (b'{"id": "b"}', "KeyError: 'text'"),
        (b'{"id": "b", "text": "x", "qa": 5}', "bad record .*TypeError"),
        (b'{"id": "b", "text": "x", "qq": [{"question": "q", "answer": "1"}]}', "unknown document key 'qq'"),
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


def test_read_dataset_rejects_a_misspelled_meta_key(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": "a", "commentary": "x", "table": null, "meta": {"seed": "1"}}\n'
                    '{"id": "b", "commentary": "x", "table": null, "mta": {"seed": "1"}}\n')
    with pytest.raises(DatasetError, match="^unknown dataset key 'mta' at line 2 of "):
        read_dataset(path)


# --- the encoder rule ----------------------------------------------------------------

# ASCII with DEL, C0 controls, quotes and backslashes; or any code point, astral ones and lone surrogates too
_TEXT = st.text(st.sampled_from('ab"\\/\x00\x1f\n\t\x7f~ ')) | st.text(st.characters(exclude_categories=()))
_RECORDS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=12,
)


def _strings(value) -> list[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, dict):
        return [s for key, item in value.items() for s in (key, *_strings(item))]
    if isinstance(value, list):
        return [s for item in value for s in _strings(item)]
    return []


@settings(max_examples=500, deadline=None)
@given(record=_RECORDS)
@example(record={"a": "\x7f"})
@example(record=["\ud800", "\U0001d11e", '"\\\x00'])
def test_to_json_writes_what_json_dumps_writes(record):
    assert to_json(record, _strings(record)) == json.dumps(record, ensure_ascii=False)
    # a text that is not a string takes the encoder that writes any text
    assert to_json(record, [*_strings(record), 5]) == json.dumps(record, ensure_ascii=False)


def _transcripts(text=_TEXT, ids=_TEXT | _RECORDS):
    pairs = st.lists(st.lists(text, min_size=2, max_size=2).map(tuple), max_size=3).map(tuple)
    stages = st.builds(StageRecord, stage=st.integers(1, 3), kind=text, prompt=st.none() | pairs, response=text,
                       latency_s=st.floats(0, 10))
    labels = st.sampled_from(list(RawEventLabel)) | st.builds(Unknown, text)
    tuples = st.builds(EventTuple, team=st.sampled_from(list(TeamSide)), label=labels,
                       player=st.none() | st.integers(1, 99).map("Player{}".format))
    outcomes = st.builds(ParsedTableOutcome.malformed, text, text)
    outcomes |= st.just(ParsedTableOutcome.ok(SummaryTable.zero()))
    return st.builds(RunTranscript, instance_id=ids, mode=text,
                     stages=st.lists(stages, max_size=3).map(tuple), tuples=st.lists(tuples, max_size=3).map(tuple),
                     rejected_lines=pairs, unknown_label_count=st.integers(0, 9), final_table_text=text,
                     outcome=outcomes, total_latency_s=st.floats(0, 10))


@settings(max_examples=300, deadline=None)
@given(transcript=_transcripts())
def test_a_transcript_line_is_what_json_dumps_writes(transcript):
    assert _transcript_line(transcript) == json.dumps(transcript_to_dict(transcript), ensure_ascii=False)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(_TEXT.filter(bool), min_size=2, max_size=2),
       meta=st.dictionaries(_TEXT, _TEXT, max_size=3))
def test_a_dataset_line_is_what_json_dumps_writes(tmp_path_factory, texts, meta):
    path = tmp_path_factory.mktemp("data") / "data.jsonl"
    instance = MatchInstance(id=texts[0], commentary=texts[1], meta=meta)
    try:
        write_dataset([instance], path)
    except UnicodeEncodeError:  # a lone surrogate cannot be written as UTF-8, with either encoder
        return
    record = {"id": texts[0], "commentary": texts[1], "table": None, "meta": meta}
    assert path.read_text("utf-8") == json.dumps(record, ensure_ascii=False) + "\n"


# --- reading a line ------------------------------------------------------------------

def test_long_lines_and_lines_across_buffer_edges_read_back_equal(tmp_path):
    # lines a little shorter and longer than the read buffer start and end at many offsets of its edges
    sizes = [17_000] * 9 + [_READ_BUFFER + k for k in range(-40, 40, 7)] + [1_000_000, 1, 17_000]
    records = [{"id": str(i), "text": "é" * (n // 4) + "x" * (n - n // 2)} for i, n in enumerate(sizes)]
    path = tmp_path / "long.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), "utf-8")
    assert read_jsonl(path, dict) == records
    with path.open("a") as f:
        f.write('{"id": "x", "text": "unterminated\n')
    with pytest.raises(DatasetError, match=f"invalid JSON at line {len(records) + 1} of "):
        read_jsonl(path, dict)


def test_lines_of_ascii_whitespace_are_skipped_and_a_non_ascii_space_is_not(tmp_path):
    path = tmp_path / "tables.jsonl"
    blank = [b"\n", b" \t\n", b"\r\n", b"\x0b\n", b"\x0c \r\n", b"\t"]  # the last one has no newline
    lines = [b'{"id": "a", "table": "x"}\n', *blank[:3], b'{"id": "b", "table": "%s"}\n' % (b"y" * 300_000), *blank]
    path.write_bytes(b"".join(lines))
    assert load_tables(path) == {"a": "x", "b": "y" * 300_000}
    for space in ("\u00a0", "\u2028"):  # not ASCII: a space to str.isspace, yet no JSON
        path.write_bytes(b"".join(lines[:-1]) + space.encode() + b"\n")
        with pytest.raises(DatasetError, match=f"^invalid JSON at line {len(lines)} of "):
            load_tables(path)


# texts that hold what the transcript reader searches for: its keys, the separator of two tuples, a space
_KEY_TEXT = st.lists(st.sampled_from(['"tuples": [{', '"tuples": []', '}], "rejected_lines": ', "}, {", "\u00a0"])
                     | st.text(max_size=3), max_size=4).map("".join)
_KEY_IDS = _KEY_TEXT | st.sampled_from([{"tuples": [{"player": None}]}, {"tuples": []}, ["tuples", "}, {"]])


@settings(max_examples=200, deadline=None)
@given(transcripts=st.lists(_transcripts(_KEY_TEXT, _KEY_IDS), min_size=1, max_size=4,
                            unique_by=lambda t: str(t.instance_id)))
def test_each_transcript_line_reads_as_plain_json_reads_it(tmp_path_factory, transcripts):
    path = tmp_path_factory.mktemp("t") / "t.jsonl"
    write_transcripts(transcripts, path)
    pipeline._TUPLE_BY_JSON.clear()
    assert read_transcripts(path) == transcripts  # which leaves every tuple text of the file in the memo
    for line, transcript in zip(path.read_bytes().splitlines(), transcripts):
        fast, plain = _load_transcript(line), load_json(line)
        # the memo gives a line's tuples unless one of their texts holds the separator
        split = any("}, {" in tp.label.text for tp in transcript.tuples)
        assert (type(fast["tuples"]) is tuple) == (bool(transcript.tuples) and not split)
        assert {**fast, "tuples": None} == {**plain, "tuples": None}
        assert transcript_from_dict(fast) == transcript_from_dict(plain)


def test_a_symlink_at_the_target_is_replaced_not_written_through(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("kept", "utf-8")
    link.symlink_to(target)
    write_whole(link, ["new ", "text"])
    assert not link.is_symlink() and link.read_text("utf-8") == "new text"
    assert target.read_text("utf-8") == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


@pytest.mark.parametrize("failure", [OSError(5, "Input/output error"), KeyboardInterrupt()], ids=["eio", "interrupt"])
def test_a_write_that_fails_midway_leaves_the_earlier_file(tmp_path, failure):
    path = tmp_path / "out.jsonl"
    path.write_text("earlier\n", "utf-8")

    def texts():
        yield "half a line"
        raise failure

    with pytest.raises(type(failure)):
        write_whole(path, texts())
    assert path.read_text("utf-8") == "earlier\n" and list(tmp_path.iterdir()) == [path]
