from __future__ import annotations

import codecs
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from t3table import backends as b, pipeline, prompts
from t3table.backends import BackendError, CachingBackend, HttpBackend, LlmRequest, OracleBackend
from t3table.config import DEFAULT_MODEL, BackendSettings, parse_config_file
from t3table.pipeline import run_batch, run_instance
from t3table.synth import GeneratorConfig, generate


def _request(text="hello") -> LlmRequest:
    return LlmRequest(model="m", messages=(("user", text),), temperature=0.0)


class _FakeResponse:
    def __init__(self, status_code: int, payload: dict | None = None, text: str = ""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


def _chat_payload(content: str) -> dict:
    return {
        "choices": [{"message": {"role": "assistant", "content": content}}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 2},
    }


def test_http_backend_success_and_auth_header(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured["url"] = url
        captured["headers"] = headers
        captured["body"] = json
        return _FakeResponse(200, _chat_payload("fine"))

    monkeypatch.setenv("T3_API_KEY", "sk-test")
    monkeypatch.setattr("requests.post", fake_post)
    backend = HttpBackend("https://example.invalid/v1/chat/completions")
    response = backend.complete(_request())
    assert response.text == "fine"
    assert response.prompt_tokens == 5
    assert captured["headers"]["Authorization"] == "Bearer sk-test"
    assert captured["body"]["temperature"] == 0.0
    assert captured["body"]["messages"] == [{"role": "user", "content": "hello"}]


def test_http_backend_retries_on_429_then_succeeds(monkeypatch):
    attempts = []
    sleeps = []

    def fake_post(url, **kwargs):
        attempts.append(url)
        if len(attempts) < 3:
            return _FakeResponse(429)
        return _FakeResponse(200, _chat_payload("eventually"))

    monkeypatch.setattr("requests.post", fake_post)
    monkeypatch.setattr(b.time, "sleep", sleeps.append)
    backend = HttpBackend("https://example.invalid/x", retries=3, backoff_s=1.0)
    assert backend.complete(_request()).text == "eventually"
    assert len(attempts) == 3
    assert len(sleeps) == 2
    assert sleeps[0] >= 1.0 and sleeps[1] >= 2.0  # exponential with jitter


def test_http_backend_exhausts_retries(monkeypatch):
    monkeypatch.setattr("requests.post", lambda url, **kw: _FakeResponse(500))
    monkeypatch.setattr(b.time, "sleep", lambda *_: None)
    backend = HttpBackend("https://example.invalid/x", retries=3)
    with pytest.raises(BackendError, match="after 3 attempts"):
        backend.complete(_request())


def test_http_backend_client_error_is_fatal_not_retried(monkeypatch):
    calls = []

    def fake_post(url, **kw):
        calls.append(url)
        return _FakeResponse(400, text="bad request")

    monkeypatch.setattr("requests.post", fake_post)
    backend = HttpBackend("https://example.invalid/x", retries=3)
    with pytest.raises(BackendError, match="HTTP 400"):
        backend.complete(_request())
    assert len(calls) == 1


def test_http_backend_retries_after_a_connection_error(monkeypatch):
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        if len(calls) == 1:
            raise requests.ConnectionError("connection refused")
        return _FakeResponse(200, _chat_payload("reconnected"))

    monkeypatch.setattr("requests.post", fake_post)
    monkeypatch.setattr(b.time, "sleep", lambda *_: None)
    assert HttpBackend("https://example.invalid/x", retries=3).complete(_request()).text == "reconnected"
    assert len(calls) == 2


def test_http_reply_without_choices_is_an_unexpected_shape(monkeypatch):
    monkeypatch.setattr("requests.post", lambda url, **kw: _FakeResponse(200, {"usage": {}}))
    with pytest.raises(BackendError, match="unexpected response shape"):
        HttpBackend("https://example.invalid/x").complete(_request())


def test_http_reply_nested_too_deep_is_an_unexpected_shape(monkeypatch):
    reply = requests.Response()
    reply.status_code, reply._content = 200, b"[" * 100_000 + b"]" * 100_000
    monkeypatch.setattr("requests.post", lambda url, **kw: reply)
    with pytest.raises(BackendError, match="unexpected response shape"):
        HttpBackend("https://example.invalid/x").complete(_request())


def _usage(**counts):
    return lambda payload: payload["usage"].update(counts)


@pytest.mark.parametrize("edit", [
    lambda payload: payload.update(usage=[5, 2]), _usage(prompt_tokens="abc"), _usage(prompt_tokens=None),
    _usage(prompt_tokens=json.loads("1e400")), _usage(prompt_tokens=-5), _usage(completion_tokens=True),
    _usage(completion_tokens=1.5), _usage(completion_tokens=10**21),
    lambda payload: payload["choices"][0]["message"].update(content=None),
    # what a JSON "\ud800" escape decodes to; UTF-8 cannot write it to the cache or the transcript
    lambda payload: payload["choices"][0]["message"].update(content="(Player1, Home Team, goal)\ud800"),
], ids=["usage_list", "tokens_string", "tokens_null", "tokens_overflow", "tokens_negative", "tokens_bool",
        "tokens_float", "tokens_past_max_count", "content_null", "content_lone_surrogate"])
def test_hostile_http_reply_is_a_backend_error_and_is_not_cached(tmp_path, monkeypatch, edit):
    payload = _chat_payload("(Player1, Home Team, goal)")
    edit(payload)
    monkeypatch.setattr("requests.post", lambda url, **kw: _FakeResponse(200, payload))
    dataset = generate(GeneratorConfig(seed=3), 1)
    for cache_dir in (None, tmp_path):
        (transcript,) = run_batch(dataset, prompts.T3, HttpBackend("https://example.invalid/x"), cache_dir=cache_dir)
        assert transcript.outcome.reason_code == "backend_error", transcript.outcome.detail
    assert list(tmp_path.iterdir()) == []


# a lone surrogate too, as a JSON "\udc00" escape gives
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
                    st.characters(categories=["Cs"]))


_json = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_counts = _json | st.integers(-3, 3) | st.integers(2**53 - 1, 2**53 + 1) | st.sampled_from([10**21, 1e400])


def _well_typed(usage, content) -> bool:
    """The rules, written out; a usage that is missing or empty (null, 0, "", [], {}) holds no counts."""
    usage = usage or {}
    if not (isinstance(content, str) and isinstance(usage, dict)):
        return False
    try:
        content.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return False
    counts = usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)
    return all(type(n) is int and 0 <= n <= 2**53 for n in counts)


_ONE = generate(GeneratorConfig(seed=3), 1)


@settings(deadline=None, max_examples=200)
@given(usage=_json | st.fixed_dictionaries({}, optional={"prompt_tokens": _counts, "completion_tokens": _counts}),
       content=_json | st.just("(Player1, Home Team, goal)"))
def test_any_json_for_usage_and_content_ends_ok_or_as_a_backend_error(usage, content):
    payload = {"choices": [{"message": {"role": "assistant", "content": content}}], "usage": usage}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("requests.post", lambda url, **kw: _FakeResponse(200, payload))
        transcript = run_instance(_ONE[0], prompts.T3, HttpBackend("https://example.invalid/x"))
    code = transcript.outcome.reason_code
    assert not (code or "").startswith("raised_"), transcript.outcome.detail
    assert (code == "backend_error") != _well_typed(usage, content), transcript.outcome.detail


def test_caching_backend_stores_request_and_response(tmp_path):
    class Inner:
        def complete(self, request):
            from t3table.backends import LlmResponse

            return LlmResponse(text="cached body", latency_s=0.5)

    backend = CachingBackend(tmp_path, Inner())
    request = _request("store me")
    first = backend.complete(request)
    b.flush_cache_writes(tmp_path)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    record = json.loads(files[0].read_text())
    assert record["request"]["messages"] == [["user", "store me"]]
    assert record["response"]["text"] == "cached body"
    second = backend.complete(request)
    assert second == first  # latency replays from the record too
    assert backend.hits == 1 and backend.misses == 1
    # the entry format is fixed: caches written before stay readable, byte for byte
    assert hashlib.sha256(files[0].read_bytes()).hexdigest() == (
        "7d1ef6bae92b1819dcef5a49f2a019fe270ebb23d218ca06d29657938673bced"
    )


_VALID_ENTRY = '{"response": {"text": "old"}}'


@pytest.mark.parametrize("entry", [b"{not json", b'{"response": {"text": 5}}', b"[]", b"\xff",
                                   b'{"response": {"text": "old", "latency_s": "x"}}',
                                   b'{"response": {"text": "old", "latency_s": true}}',
                                   b'{"response": {"text": "old", "prompt_tokens": "7"}}',
                                   b'{"response": {"text": "old", "completion_tokens": null}}',
                                   _VALID_ENTRY.encode("utf-16"), codecs.BOM_UTF8 + _VALID_ENTRY.encode(),
                                   b"[" * 100_000 + b"]" * 100_000,
                                   b'{"response": {"text": "old", "latency_s": NaN}}',
                                   b'{"response": {"text": "old", "latency_s": -Infinity}}',
                                   b'{"response": {"text": "old", "latency_s": ' + b"9" * 400 + b'.0}}',
                                   b'{"response": {"text": "old", "prompt_tokens": 1e400}}',
                                   b'{"response": {"text": "old\\ud800"}}'],
                         ids=["invalid_json", "text_not_string", "not_an_object", "not_utf8",
                              "latency_not_number", "latency_bool", "tokens_not_number", "tokens_null",
                              "utf16_with_bom", "utf8_with_bom", "nested_too_deep",
                              "latency_nan", "latency_minus_infinity", "latency_overflows", "tokens_overflow",
                              "text_lone_surrogate"])
def test_cache_entry_that_does_not_decode_is_fetched_again(tmp_path, entry):
    inner = b.StubBackend("fresh")
    backend = CachingBackend(tmp_path, inner)
    request = _request("x")
    path = tmp_path / f"{request.cache_key}.json"
    path.write_bytes(entry)
    assert backend.complete(request).text == "fresh"
    b.flush_cache_writes(tmp_path)
    assert inner.calls == 1 and backend.misses == 1 and backend.hits == 0
    assert json.loads(path.read_text("utf-8"))["response"]["text"] == "fresh"
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]  # overwritten, no temp file left


def test_cache_entry_that_does_not_decode_fails_replay(tmp_path):
    request = _request("x")
    path = tmp_path / f"{request.cache_key}.json"
    path.write_text("{not json", "utf-8")
    replay = CachingBackend(tmp_path, inner=None)
    with pytest.raises(BackendError, match=path.name):
        replay.complete(request)
    assert replay.misses == 1 and replay.hits == 0


def _nest_stage_1_entry(cache_dir, instance) -> str:
    """Rewrite the stage-1 cache entry of ``instance`` (its prompt holds the
    commentary) as 100,000 nested arrays; the entry's file name."""
    (entry,) = [p for p in cache_dir.glob("*.json") if instance.commentary in p.read_text("utf-8")]
    entry.write_text("[" * 100_000 + "]" * 100_000, "utf-8")
    return entry.name


def test_entry_nested_too_deep_is_fetched_again_in_a_batch(tmp_path):
    dataset = generate(GeneratorConfig(seed=3), 3)
    run_batch(dataset, prompts.T3, OracleBackend(), cache_dir=tmp_path)
    name = _nest_stage_1_entry(tmp_path, dataset[1])
    inner = b.StubBackend(lambda request: OracleBackend().complete(request).text)  # counts the oracle's calls
    transcripts = run_batch(dataset, prompts.T3, inner, cache_dir=tmp_path)
    assert [t.outcome.reason_code for t in transcripts] == [None] * 3
    assert inner.calls == 1
    assert json.loads((tmp_path / name).read_text("utf-8"))["response"]["text"] == transcripts[1].stages[0].response


def test_entry_nested_too_deep_fails_replay_of_that_instance_only(tmp_path):
    dataset = generate(GeneratorConfig(seed=3), 3)
    run_batch(dataset, prompts.T3, OracleBackend(), cache_dir=tmp_path)
    name = _nest_stage_1_entry(tmp_path, dataset[1])
    transcripts = run_batch(dataset, prompts.T3, CachingBackend(tmp_path, inner=None))
    assert [t.outcome.reason_code for t in transcripts] == [None, "backend_error", None]
    assert name in transcripts[1].outcome.detail and "does not decode" in transcripts[1].outcome.detail


def test_replay_batch_with_a_bad_entry_fails_that_instance_only(tmp_path):
    dataset = generate(GeneratorConfig(seed=3), 3)
    run_batch(dataset, prompts.T3, OracleBackend(), cache_dir=tmp_path)
    # the stage-1 entry of the second instance: its prompt holds the commentary
    entries = [p for p in tmp_path.glob("*.json") if dataset[1].commentary in p.read_text("utf-8")]
    assert len(entries) == 1
    record = json.loads(entries[0].read_text("utf-8"))
    record["response"]["latency_s"] = "x"
    entries[0].write_text(json.dumps(record), "utf-8")
    transcripts = run_batch(dataset, prompts.T3, CachingBackend(tmp_path, inner=None))
    assert [t.outcome.reason_code for t in transcripts] == [None, "backend_error", None]
    assert entries[0].name in transcripts[1].outcome.detail


@pytest.mark.parametrize("bad", [{"latency_s": True}, {"latency_s": "x"}, {"text": None}, {"prompt_tokens": 1.5j},
                                 {"latency_s": float("nan")}, {"latency_s": float("inf")}],
                         ids=["latency_bool", "latency_not_number", "text_none", "tokens_complex",
                              "latency_nan", "latency_infinity"])
def test_cache_stores_only_well_typed_responses(tmp_path, bad):
    oracle = OracleBackend()

    class Malformed:
        calls = 0

        def complete(self, request):
            self.calls += 1
            return dataclasses.replace(oracle.complete(request), **bad)

    dataset = generate(GeneratorConfig(seed=3), 2)
    inner = Malformed()
    for run in (1, 2):
        transcripts = run_batch(dataset, prompts.T3, inner, cache_dir=tmp_path)
        assert [t.outcome.reason_code for t in transcripts] == ["backend_error"] * 2
        assert all("wrong-typed fields" in t.outcome.detail for t in transcripts)
        assert inner.calls == 2 * run  # stage 1 of each instance, asked again each run
        assert list(tmp_path.iterdir()) == []  # no entry and no temp file


def test_cache_key_sensitive_to_model_messages_temperature():
    base = _request("x")
    assert base.cache_key != LlmRequest("m2", base.messages, 0.0).cache_key
    assert base.cache_key != LlmRequest("m", (("user", "y"),), 0.0).cache_key
    assert base.cache_key != LlmRequest("m", base.messages, 0.5).cache_key


def test_oracle_backend_rejects_foreign_prompt():
    with pytest.raises(BackendError):
        OracleBackend().complete(_request("tell me a story"))


def test_oracle_backend_refuses_the_t3_stage_2_prompt_by_its_template():
    # t3's stage 2 is native, so the paper's code-writing prompt is one the oracle does not answer
    prompt = prompts.build_prompt(prompts.T3, 2, prompts.build_instruction(), "(Player3, Home Team, goals)")
    with pytest.raises(BackendError, match="^oracle backend cannot handle template 'integrate_code'$"):
        OracleBackend().complete(LlmRequest(DEFAULT_MODEL, tuple(prompt)))


def test_the_cli_stub_answers_a_prompt_it_does_not_know_with_nothing():
    assert b.zero_table_stub(_request("not a pipeline prompt")) == ""


# The transcripts of `run --backend stub` on 30 seed-2 instances at parallelism 4, as sha256 of the file each mode
# spelling writes: the stub's replies (all-zero tables, no tuples) are fixed, so its runs keep their bytes.
STUB_TRANSCRIPTS_SHA256 = {
    "zero-shot": "e0ab7460c71dd376b0d1e1d41d2dbf6f3b893ca2c7122ac4675df4dac9f2c545",
    "zero-shot-cot": "915d6dc6ac1aa38adb6c35b193efdb92141c11b48fdbc78b0319e24e07efbbf0",
    "few-shot:2": "a35add3d53d1a083a2eaeef363adfdd3697c872b6d72001e6b5781ba841c7a1c",
    "few-shot-cot:1": "a335668e2801aad3988914c420d2636ae6505d2ae25fba67bdee56a94e9dd29b",
    "t2": "37b9d0b2ebd71fa434964f4a647c88a96410d4608db17e7b3ca9288c94e8acc9",
    "t3": "cdb22174e9cf16b84eb37de6b7a30b728ffc4725a4a1874ba9c6f95fd61d1327",
    "t3m": "8bd4e8c7a503cac79250328fda2c93ad5c0d2c1bc721239df499e777fc9308bc",
    "t3d": "6fa04a11ff9a54e3a64fed0e1ac52394b8a691dd1f79142fa70528c063efbce0",
}


@pytest.mark.parametrize("spelling", sorted(STUB_TRANSCRIPTS_SHA256))
def test_the_cli_stub_writes_the_pinned_transcripts_in_every_mode(tmp_path, spelling):
    path = tmp_path / "out.jsonl"
    transcripts = run_batch(generate(GeneratorConfig(seed=2), 30), prompts.parse_mode(spelling),
                            b.StubBackend(b.zero_table_stub), 4)
    pipeline.write_transcripts(transcripts, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STUB_TRANSCRIPTS_SHA256[spelling]


# --- config files ------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    cfg = tmp_path / "backend.cfg"
    cfg.write_text(
        "# comment line\n"
        "endpoint = https://api.example.invalid/v1/chat/completions\n"
        "model = test-model-1\n"
        "temperature = 0.0\n"
        "parallelism = 4\n"
        "cache_dir = /tmp/cache   # trailing comment\n"
        "retries = 5\n"
        "backoff_s = 0.5\n"
    )
    settings = parse_config_file(cfg)
    assert settings.endpoint == "https://api.example.invalid/v1/chat/completions"
    assert settings.model == "test-model-1"
    assert settings.parallelism == 4
    assert settings.retries == 5
    assert settings.backoff_s == 0.5


def test_a_hash_inside_a_value_is_part_of_it(tmp_path):
    cfg = tmp_path / "backend.cfg"
    cfg.write_text("cache_dir = runs/cache#2\nmodel = gpt#4\t# a comment after a tab\n  # an indented comment\n")
    settings = parse_config_file(cfg)
    assert (settings.cache_dir, settings.model) == ("runs/cache#2", "gpt#4")


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "backend.cfg"
    cfg.write_text("endpont = typo\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_file(cfg)


def test_parse_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "backend.cfg"
    cfg.write_text("parallelism = many\n")
    with pytest.raises(ValueError, match="bad value"):
        parse_config_file(cfg)


def test_settings_merge_precedence():
    settings = BackendSettings(model="from-file", parallelism=2)
    merged = settings.merged_with(parallelism=8, cache_dir=None)
    assert merged.parallelism == 8  # flag wins
    assert merged.model == "from-file"  # absent flag keeps file value


def test_cache_entry_larger_than_one_read_still_hits(tmp_path):
    text = "é" * 100_000  # 200 kB as UTF-8: more than one os.read chunk
    CachingBackend(tmp_path, b.StubBackend(text)).complete(_request("big"))
    b.flush_cache_writes(tmp_path)
    replay = CachingBackend(tmp_path, inner=None)
    assert replay.complete(_request("big")).text == text
    assert replay.hits == 1 and replay.misses == 0


# --- the cache's writer: entries land off the request path ---------------------------------------------

# Every entry of a seed-3 t3 oracle batch over 10 instances, as sha256 over each file's name, a NUL and its
# bytes, in name order, at any parallelism: the entry format is fixed, so caches written before stay readable.
BATCH_ENTRIES_SHA256 = "45dd2b6d5be03abadddfaec97f71483a89a4220a80642e5c62541aef760ced28"


@pytest.fixture
def held_writer(monkeypatch, tmp_path):
    """An event that holds the cache's writer before each write until it is set; set and drained at the end."""
    release = threading.Event()
    write = b._write_entry

    def held(*args):
        release.wait(30)  # bounded: a write made on the request path would otherwise hang the test
        write(*args)

    monkeypatch.setattr(b, "_write_entry", held)
    yield release
    release.set()
    b.flush_cache_writes(tmp_path)


def test_a_miss_returns_before_its_entry_is_written_and_is_answered_from_memory(tmp_path, held_writer):
    inner = b.StubBackend("early")
    backend = CachingBackend(tmp_path, inner)
    request = _request("ask once")
    path = tmp_path / f"{request.cache_key}.json"
    first = backend.complete(request)
    assert not path.exists()
    assert backend.complete(request) == first
    assert (backend.hits, backend.misses) == (1, 1)
    for fresh in (CachingBackend(tmp_path, inner), CachingBackend(tmp_path, inner=None)):  # the process's memory
        assert fresh.complete(request) == first
        assert (fresh.hits, fresh.misses) == (1, 0)
    assert inner.calls == 1 and not path.exists()
    held_writer.set()
    b.flush_cache_writes(tmp_path)
    assert json.loads(path.read_text("utf-8")) == {"request": request.as_dict(), "response": dataclasses.asdict(first)}
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_an_unwritten_entry_answers_only_its_own_request(tmp_path, monkeypatch):
    request = _request("asked")
    path = str(tmp_path / f"{request.cache_key}.json")
    monkeypatch.setitem(b._unwritten, path, (_request("another").as_dict(), b.LlmResponse("not for this request")))
    replay = CachingBackend(tmp_path, inner=None)
    with pytest.raises(BackendError, match="replay cache miss"):
        replay.complete(request)
    assert (replay.hits, replay.misses) == (0, 1)


def _release_on_flush(monkeypatch, release: threading.Event) -> None:
    """Let a held writer go only when run_batch flushes: a batch that returns without flushing finds it held."""
    flush = pipeline.flush_cache_writes

    def release_and_flush(cache_dir):
        release.set()
        flush(cache_dir)

    monkeypatch.setattr(pipeline, "flush_cache_writes", release_and_flush)


@pytest.mark.parametrize("parallelism", [1, 8])
def test_a_batch_returns_once_every_entry_is_on_disk(tmp_path, monkeypatch, held_writer, parallelism):
    _release_on_flush(monkeypatch, held_writer)
    run_batch(generate(GeneratorConfig(seed=3), 10), prompts.T3, OracleBackend(), parallelism, cache_dir=tmp_path)
    files = sorted(tmp_path.iterdir())
    assert len(files) == 20 and not [p.name for p in files if ".tmp-" in p.name]  # two llm stages an instance
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == BATCH_ENTRIES_SHA256


def test_an_interrupted_batch_leaves_every_answered_entry_on_disk(tmp_path, monkeypatch, held_writer):
    _release_on_flush(monkeypatch, held_writer)
    oracle, answered = OracleBackend(), []

    def answer(request):
        answered.append(request)
        return oracle.complete(request).text

    def interrupt(done, total):
        if done == 4:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_batch(generate(GeneratorConfig(seed=3), 10), prompts.T3, b.StubBackend(answer), cache_dir=tmp_path,
                  on_progress=interrupt)
    assert len(answered) == 8
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{r.cache_key}.json" for r in answered)


def test_an_entry_is_handed_to_the_writer_when_the_next_miss_goes_to_the_network(tmp_path, monkeypatch):
    b.flush_cache_writes(tmp_path)  # entries an earlier test left queued would be handed over by the first miss
    writing, write = threading.Event(), b._write_entry

    def noted(*args):
        writing.set()
        write(*args)

    monkeypatch.setattr(b, "_write_entry", noted)
    written_while_asked = []

    def answer(request):
        if request.last_text == "second":
            written_while_asked.append(writing.wait(5))
        return "reply"

    backend = CachingBackend(tmp_path, b.StubBackend(answer))
    backend.complete(_request("first"))
    assert not writing.wait(0.3)  # not while the first reply is parsed
    backend.complete(_request("second"))
    assert written_while_asked == [True]  # while the second request waits
    b.flush_cache_writes(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{_request(t).cache_key}.json"
                                                                for t in ("first", "second"))


def test_threads_that_miss_at_once_leave_every_entry_on_disk_and_none_in_memory(tmp_path):
    backend = CachingBackend(tmp_path, b.StubBackend(lambda request: "reply to " + request.last_text))
    asked = [[_request(f"thread {i} ask {k}") for k in range(25)] for i in range(8)]
    answers: dict[int, list] = {}

    def work(i: int) -> None:
        answers[i] = [backend.complete(request).text for request in asked[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hands the lock over often, so queueing and draining interleave
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    b.flush_cache_writes(tmp_path)
    assert all(answers[i] == [f"reply to thread {i} ask {k}" for k in range(25)] for i in range(8))
    paths = {str(tmp_path / f"{r.cache_key}.json") for requests in asked for r in requests}
    assert {str(p) for p in tmp_path.iterdir()} == paths  # every entry written, no temporary file left
    assert not paths & b._unwritten.keys()  # and none answered from memory any more


# A child process answers two misses, each after 50 ms, and exits without a flush.
_EXIT_WITHOUT_FLUSH = """
import sys, time
from t3table import backends as b

def slow(request):
    time.sleep(0.05)
    return "answer to " + request.last_text

cache = b.CachingBackend(sys.argv[1], b.StubBackend(slow))
for text in ("one", "two"):
    cache.complete(b.LlmRequest("m", (("user", text),), 0.0))
"""


def test_the_process_exit_writes_every_queued_entry(tmp_path):
    src = str(Path(b.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _EXIT_WITHOUT_FLUSH, str(tmp_path)], capture_output=True,
                          text=True, timeout=20, env=env)
    assert proc.returncode == 0, proc.stderr
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()} == {
        f"{_request('one').cache_key}.json": "d32e301de1951893785e76fd263225aca6453ba4a70d55a3e352d5bb499f6100",
        f"{_request('two').cache_key}.json": "ba41af7ee9603da3b584fe8da2ce0247e4599396a0f23c237c52b83a65cb6288",
    }  # no temporary file either


def test_a_failed_write_keeps_the_answer_and_is_raised_by_the_flush(tmp_path, first_entry_write_fails):
    failed = first_entry_write_fails
    inner = b.StubBackend("paid for")
    backend = CachingBackend(tmp_path, inner)
    assert backend.complete(_request("one")).text == "paid for"
    backend.complete(_request("two"))
    with pytest.raises(OSError, match="No space left on device") as raised:
        b.flush_cache_writes(tmp_path)
    assert str(raised.value).startswith(f"{failed[0]}: ")
    b.flush_cache_writes(tmp_path)  # raised once
    assert [p.name for p in tmp_path.glob("*.json")] == [f"{_request('two').cache_key}.json"]
    assert backend.complete(_request("one")).text == "paid for" and inner.calls == 3  # not on disk: asked again
    b.flush_cache_writes(tmp_path)


def test_a_batch_whose_write_fails_raises_after_every_instance_ran(tmp_path, first_entry_write_fails):
    progress = []
    with pytest.raises(OSError, match="No space left on device"):
        run_batch(generate(GeneratorConfig(seed=3), 3), prompts.T3, OracleBackend(), cache_dir=tmp_path,
                  on_progress=lambda done, total: progress.append(done))
    assert progress == [1, 2, 3] and len(first_entry_write_fails) == 1
    assert len(list(tmp_path.glob("*.json"))) == 5


def test_a_failed_write_leaves_no_temporary_file(tmp_path, first_entry_write_fails):
    CachingBackend(tmp_path, b.StubBackend("paid for")).complete(_request("one"))
    with pytest.raises(OSError, match="No space left on device"):
        b.flush_cache_writes(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_flush_raises_only_its_own_directorys_failure(tmp_path, monkeypatch, first_entry_write_fails):
    a, cache_b = tmp_path / "a", tmp_path / "b"
    monkeypatch.chdir(tmp_path)  # the cache is given "a/", its flush the absolute path: one directory either way
    CachingBackend("a/", b.StubBackend("paid for")).complete(_request("one"))  # its write fails; a is not flushed
    run_batch(generate(GeneratorConfig(seed=3), 2), prompts.T3, OracleBackend(), cache_dir=cache_b)
    assert len(list(cache_b.glob("*.json"))) == 4  # two llm stages an instance
    with pytest.raises(OSError, match="No space left on device") as raised:
        b.flush_cache_writes(a)
    assert str(raised.value).startswith(f"{first_entry_write_fails[0]}: ")
    b.flush_cache_writes(a)  # raised once
    assert list(a.iterdir()) == []


@pytest.mark.parametrize("inner", [None, b.StubBackend("fresh")], ids=["replay", "with_inner"])
def test_directory_at_an_entry_path_ends_the_instance_as_it_always_did(tmp_path, inner):
    instance = _ONE[0]
    messages = prompts.build_prompt(prompts.T3, 1, prompts.build_instruction(), instance.commentary)
    path = tmp_path / f"{LlmRequest(DEFAULT_MODEL, tuple(messages), 0.0).cache_key}.json"
    path.mkdir()
    transcript = run_instance(instance, prompts.T3, CachingBackend(tmp_path, inner))
    assert transcript.stages == ()
    assert transcript.outcome.reason_code == "raised_IsADirectoryError"
    assert transcript.outcome.detail.startswith(f"[Errno 21] Is a directory: '{path}' (at backends.py:")
    assert transcript.outcome.detail.endswith(" in _read)")
    assert inner is None or inner.calls == 0
