"""Hostile files: a transcript and the cache entries the oracle loop wrote, a dataset, Auto-QA documents and
tables, and a backend config, each mutated one way.

A transcript, a dataset, a documents or a tables file either fails to read with a DatasetError that names the
line, or reads back as exactly the JSON its lines hold; a cache entry either misses or gives a response whose
fields keep their rules, and another request's entry misses; a backend config either is a usage error or gives
settings that keep theirs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import re
import tempfile
from math import inf
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t3table import pipeline, prompts
from t3table.autoqa import load_documents, load_tables
from t3table.backends import BackendError, CachingBackend, LlmRequest, OracleBackend
from t3table.config import parse_config_file
from t3table.jsonl import DatasetError, table_to_rows
from t3table.pipeline import read_transcripts, run_batch, transcript_to_dict, write_transcripts
from t3table.synth import GeneratorConfig, generate, read_dataset, write_dataset

_SPLICED = "@@spliced@@"
_two_chars = st.text(min_size=2, max_size=2)
_scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _two_chars
# another JSON value, weighted to what unpacks as a pair (a 2-character string, a 2-key object), or a splice
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(_two_chars, _scalars, min_size=2, max_size=2),
    st.sampled_from(["1e400", "9" * 400]).map(lambda token: (_SPLICED, token)),
)


@functools.cache
def _oracle_files() -> tuple[bytes, dict[str, bytes]]:
    """The transcript and the cache entries, by file name, of a seed-3 t3 oracle run over 3 instances."""
    with tempfile.TemporaryDirectory() as root:
        cache = Path(root, "cache")
        transcripts = run_batch(generate(GeneratorConfig(seed=3), 3), prompts.T3, OracleBackend(), cache_dir=cache)
        write_transcripts(transcripts, Path(root, "t.jsonl"))
        return Path(root, "t.jsonl").read_bytes(), {p.name: p.read_bytes() for p in sorted(cache.glob("*.json"))}


def _paths(value, path=()):
    """Every place in a JSON value, as the keys and indexes that reach it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, (*path, key))


def _kind(path) -> str:
    """The field a place is in: the last key on its path, then [] for each index after it."""
    kind = ""
    for key in path:
        kind = key if isinstance(key, str) else kind + "[]"
    return kind


def _at(value, path):
    return functools.reduce(operator.getitem, path, value)


def _swap(value, path, new):
    if not path:
        return new
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return value


def _mutated(records: list[bytes], draw, dumps, loads=json.loads) -> tuple[bytes, int]:
    """``records`` joined by newlines (a file's lines, or a cache entry alone) with one mutation, and the
    offset of its first changed byte. A swap puts another value, or a huge number, in one place of one record,
    and a rename gives one key of one object in it another name; ``loads`` reads the record, ``dumps`` then
    writes it back."""
    data = b"\n".join(records)
    how = draw(st.sampled_from(["truncate", "flip_a_byte", "swap", "rename"]))
    if how == "truncate":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at], at
    if how == "flip_a_byte":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:], at
    i = draw(st.integers(0, len([r for r in records if r]) - 1))
    record = loads(records[i])
    by_kind: dict[str, list] = {}
    for path in _paths(record):
        if how == "swap" or isinstance(_at(record, path), dict) and _at(record, path):
            by_kind.setdefault(_kind(path), []).append(path)
    # each kind of field as likely as any other, however many tuples a line holds
    path = draw(st.sampled_from(sorted(by_kind[draw(st.sampled_from(sorted(by_kind)))], key=repr)))
    if how == "rename":
        keys = _at(record, path)
        old = draw(st.sampled_from(sorted(keys)))
        new_key = draw(st.text(min_size=1, max_size=2).map(old.__add__).filter(lambda key: key not in keys))
        text = dumps(_swap(record, path, {new_key if key == old else key: v for key, v in keys.items()}))
    else:
        new = draw(_values)
        text = dumps(_swap(record, path, _SPLICED if isinstance(new, tuple) else new))
        if isinstance(new, tuple):  # the marker is quoted in JSON, bare in a config line
            text = text.replace(json.dumps(_SPLICED), new[1]).replace(_SPLICED, new[1])
    at = len(b"\n".join(records[:i]))
    return b"\n".join([*records[:i], text.encode(), *records[i + 1:]]), at


def _read_mutated(path: Path, original: bytes, draw, read) -> tuple[list, list[dict]] | None:
    """``read`` of ``path`` holding ``original`` with one mutation, and the JSON of each of its lines; None when
    the read raised a DatasetError, which must name the mutated line or a later one."""
    mutated, at = _mutated(original.split(b"\n"), draw, lambda record: json.dumps(record, ensure_ascii=False))
    path.write_bytes(mutated)
    try:
        objects = read(path)
    except DatasetError as exc:
        named = re.search(rf"at line (\d+) of {re.escape(str(path))}", str(exc))
        assert named and int(named[1]) >= mutated[:at].count(b"\n") + 1, str(exc)
        return None
    return objects, [json.loads(line) for line in mutated.split(b"\n") if line.strip()]


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_a_transcript_reads_back_as_its_json_or_names_the_bad_line(tmp_path_factory, data):
    original, _ = _oracle_files()
    path = tmp_path_factory.mktemp("mutated") / "t.jsonl"
    path.write_bytes(original)
    pipeline._TUPLE_BY_JSON.clear()
    read_transcripts(path)  # so the memo holds this run's tuple texts, as after a first read
    if read := _read_mutated(path, original, data.draw, read_transcripts):
        transcripts, records = read
        assert [transcript_to_dict(t) for t in transcripts] == records


def _keeps_the_rules(response) -> bool:
    """The rules of a response, written out: a text UTF-8 can write, counts from 0 to 2**53, a finite latency."""
    counts = (response.prompt_tokens, response.completion_tokens)
    return (type(response.text) is str and response.text.encode("utf-8", "replace").decode("utf-8") == response.text
            and all(type(n) is int and 0 <= n <= 2**53 for n in counts)
            and type(response.latency_s) in (int, float) and -inf < response.latency_s < inf)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_a_cache_entry_misses_or_gives_a_response_that_keeps_the_rules(tmp_path_factory, data):
    _, entries = _oracle_files()
    name = data.draw(st.sampled_from(sorted(entries)))
    request = json.loads(entries[name])["request"]
    request = LlmRequest(request["model"], tuple(map(tuple, request["messages"])), request["temperature"])
    assert request.cache_key + ".json" == name
    cache = tmp_path_factory.mktemp("cache")
    # two entries swapped: another request's entry, well-formed, under this request's name must miss
    (cache / name).write_bytes(entries[data.draw(st.sampled_from(sorted(set(entries) - {name})))])
    with pytest.raises(BackendError, match=re.escape(name)):
        CachingBackend(cache, inner=None).complete(request)
    mutated, _ = _mutated([entries[name]], data.draw, lambda record: json.dumps(record, ensure_ascii=False, indent=1))
    (cache / name).write_bytes(mutated)
    try:
        response = CachingBackend(cache, inner=None).complete(request)
    except BackendError as exc:
        assert "does not decode" in str(exc)
        return
    assert _keeps_the_rules(response), response


@functools.cache
def _dataset_file() -> bytes:
    """A seed-3 dataset of 3 instances as gen writes it, the last with "table": null."""
    instances = generate(GeneratorConfig(seed=3), 3)
    instances[-1] = dataclasses.replace(instances[-1], ground_truth=None)
    with tempfile.TemporaryDirectory() as root:
        write_dataset(instances, Path(root, "d.jsonl"))
        return Path(root, "d.jsonl").read_bytes()


def _instance_json(inst) -> dict:
    """The JSON line an instance read back stands for, once its fields are checked to be of their types."""
    assert type(inst.id) is str and type(inst.commentary) is str
    assert all(type(k) is str and type(v) is str for k, v in inst.meta.items())
    table = None if inst.ground_truth is None else table_to_rows(inst.ground_truth)
    assert table is None or all(type(n) is int and 0 <= n <= 2**53 for row in table for n in row)
    return {"id": inst.id, "commentary": inst.commentary, "table": table, "meta": dict(inst.meta)}


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_a_dataset_reads_back_as_its_json_or_names_the_bad_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mutated") / "d.jsonl"
    if read := _read_mutated(path, _dataset_file(), data.draw, read_dataset):
        instances, records = read
        for record in records:  # ids and meta values read as their strings
            record["id"] = str(record["id"])
            if isinstance(record.get("meta"), dict):
                record["meta"] = {k: str(v) for k, v in record["meta"].items()}
        assert [_instance_json(inst) for inst in instances] == records


_DOCUMENTS = b"".join(json.dumps(document).encode() + b"\n" for document in [
    {"id": "a", "text": "Player3 scores.", "qa": [
        {"question": "Who scored?", "answer": "Player3", "table_answer": "Player3", "prescreen_passed": True},
        {"question": "How many fouls?", "answer": "0", "prescreen_passed": False},
        {"question": "Which team?", "answer": "Home Team"},
        {"question": "Who scored?", "answer": "Player3", "table_answer": "Player7"}]},
    {"id": "b", "text": "No goals.", "qa": []},
    {"id": "c", "text": "Nothing happens."},
])


def _document_json(document) -> dict:
    """The JSON line a document read back stands for, once its fields are checked."""
    assert type(document.id) is str and type(document.text) is str
    assert all(type(p.question) is str and type(p.reference_answer) is str and type(p.prescreen_passed) is bool
               and type(p.table_answer) in (str, type(None)) for p in document.qa)
    return {"id": document.id, "text": document.text, "qa": [
        {"question": p.question, "answer": p.reference_answer, "prescreen_passed": p.prescreen_passed,
         "table_answer": p.table_answer} for p in document.qa]}


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_auto_qa_documents_read_back_as_their_json_or_name_the_bad_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mutated") / "docs.jsonl"
    if read := _read_mutated(path, _DOCUMENTS, data.draw, load_documents):
        documents, records = read
        for document, record in zip(documents, records):
            record["id"] = str(record["id"])
            items = record.setdefault("qa", [])  # the optional keys left out read as their defaults
            # each pair keeps its own table answer, though another pair asks the same question
            record["qa"] = [{"question": i["question"], "answer": i["answer"],
                             "prescreen_passed": i.get("prescreen_passed", True),
                             "table_answer": i.get("table_answer")} for i in items]
        assert [_document_json(document) for document in documents] == records


_TABLES = b"".join(json.dumps(table, ensure_ascii=False).encode() + b"\n" for table in [
    {"id": "a", "table": "Team,Goals,Shots\nHome Team,1,5\nAway Team,0,3"},
    {"id": "b", "table": ""},
    {"id": "c", "table": "Équipe"},
])


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_auto_qa_tables_read_back_as_their_json_or_name_the_bad_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mutated") / "tables.jsonl"
    if read := _read_mutated(path, _TABLES, data.draw, load_tables):
        tables, records = read
        assert all(type(table) is str for table in tables.values())
        assert tables == {str(record["id"]): record["table"] for record in records}


_CONFIG = b"".join(b"%s = %s\n" % pair for pair in [
    (b"endpoint", b"http://localhost:8000/v1"), (b"model", b"t3-offline"), (b"temperature", b"0.5"),
    (b"parallelism", b"2"), (b"cache_dir", b"cache"), (b"retries", b"3"), (b"backoff_s", b"1.0"),
    (b"timeout_s", b"120"),
])


def _config_text(record) -> str:
    """A key = value line per key of ``record``, each value as str() writes it; anything else as itself."""
    return "\n".join(f"{key} = {value}" for key, value in record.items()) if isinstance(record, dict) else str(record)


def _keeps_the_config_rules(s) -> bool:
    """The rules of backend settings, written out: texts or None, counts from 1, finite times from 0."""
    floats = (s.temperature, s.backoff_s, s.timeout_s)
    return (all(type(text) in (str, type(None)) for text in (s.endpoint, s.cache_dir)) and type(s.model) is str
            and type(s.parallelism) is int and s.parallelism >= 1 and type(s.retries) is int and s.retries >= 1
            and all(type(x) is float for x in floats)
            and 0 <= s.temperature < inf and 0 <= s.backoff_s < inf and 0 < s.timeout_s < inf)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_a_backend_config_gives_settings_that_keep_the_rules_or_a_usage_error(tmp_path_factory, data):
    mutated, _ = _mutated(_CONFIG.split(b"\n"), data.draw, _config_text,
                          lambda line: dict([line.decode().split(" = ", 1)]))
    path = tmp_path_factory.mktemp("mutated") / "backend.cfg"
    path.write_bytes(mutated)
    try:
        backend_settings = parse_config_file(path)
    except ValueError:  # the CLI's usage error, exit 2; no other exception may escape
        return
    assert _keeps_the_config_rules(backend_settings), backend_settings
