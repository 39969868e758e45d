from __future__ import annotations

import json
import sys

import pytest

from t3table import backends as b, prompts
from t3table.backends import BackendError, CachingBackend, HttpBackend, LlmRequest, OracleBackend
from t3table.config import BackendSettings, parse_config_file
from t3table.model import RawEventLabel, SummaryTable, TeamSide
from t3table.pipeline import run_batch, subprocess_integrator
from t3table.synth import GeneratorConfig, generate
from t3table.model import EventTuple


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


def test_caching_backend_stores_request_and_response(tmp_path):
    class Inner:
        def complete(self, request):
            from t3table.backends import LlmResponse

            return LlmResponse(text="cached body", latency_s=0.5)

    backend = CachingBackend(tmp_path, Inner())
    request = _request("store me")
    first = backend.complete(request)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    record = json.loads(files[0].read_text())
    assert record["request"]["messages"] == [["user", "store me"]]
    assert record["response"]["text"] == "cached body"
    second = backend.complete(request)
    assert second == first  # latency replays from the record too
    assert backend.hits == 1 and backend.misses == 1


@pytest.mark.parametrize("entry", [b"{not json", b'{"response": {"text": 5}}', b"[]", b"\xff",
                                   b'{"response": {"text": "old", "latency_s": "x"}}',
                                   b'{"response": {"text": "old", "latency_s": true}}',
                                   b'{"response": {"text": "old", "prompt_tokens": "7"}}',
                                   b'{"response": {"text": "old", "completion_tokens": null}}'],
                         ids=["invalid_json", "text_not_string", "not_an_object", "not_utf8",
                              "latency_not_number", "latency_bool", "tokens_not_number", "tokens_null"])
def test_cache_entry_that_does_not_decode_is_fetched_again(tmp_path, entry):
    inner = b.StubBackend("fresh")
    backend = CachingBackend(tmp_path, inner)
    request = _request("x")
    path = tmp_path / f"{request.cache_key}.json"
    path.write_bytes(entry)
    assert backend.complete(request).text == "fresh"
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


def test_cache_key_sensitive_to_model_messages_temperature():
    base = _request("x")
    assert base.cache_key != LlmRequest("m2", base.messages, 0.0).cache_key
    assert base.cache_key != LlmRequest("m", (("user", "y"),), 0.0).cache_key
    assert base.cache_key != LlmRequest("m", base.messages, 0.5).cache_key


def test_oracle_backend_rejects_foreign_prompt():
    with pytest.raises(BackendError):
        OracleBackend().complete(_request("tell me a story"))


def test_subprocess_integrator_round_trip():
    script = (
        "import sys\n"
        "from t3table.tuples import parse_tuples, integrate\n"
        "from t3table.prompts import render_count_tuples\n"
        "report = parse_tuples(sys.stdin.read())\n"
        "print(render_count_tuples(integrate(report.tuples)))\n"
    )
    integrate_external = subprocess_integrator([sys.executable, "-c", script])
    tuples = (
        EventTuple(team=TeamSide.HOME, label=RawEventLabel.GOAL, player="Player3"),
        EventTuple(team=TeamSide.AWAY, label=RawEventLabel.SECOND_YELLOW_CARD, player="Player21"),
    )
    table = integrate_external(tuples)
    assert table.row(TeamSide.HOME) == (1, 1, 0, 0, 0, 0, 0, 0)
    assert table.row(TeamSide.AWAY) == (0, 0, 0, 1, 1, 0, 0, 0)


def test_subprocess_integrator_failure_is_backend_error():
    bad = subprocess_integrator([sys.executable, "-c", "import sys; sys.exit(3)"])
    with pytest.raises(BackendError, match="external integrator failed"):
        bad(())


def test_subprocess_integrator_missing_binary_is_backend_error(tmp_path):
    from t3table import prompts
    from t3table.pipeline import run_batch
    from t3table.synth import GeneratorConfig, generate

    missing = subprocess_integrator([str(tmp_path / "no-such-integrator")])
    transcripts = run_batch(generate(GeneratorConfig(seed=31), 2), prompts.T3, OracleBackend(), integrator=missing)
    assert [t.outcome.reason_code for t in transcripts] == ["backend_error", "backend_error"]
    assert "external integrator" in transcripts[0].outcome.detail


def test_subprocess_integrator_timeout_is_backend_error():
    from t3table import prompts
    from t3table.pipeline import run_batch
    from t3table.synth import GeneratorConfig, generate

    slow = subprocess_integrator([sys.executable, "-c", "import time; time.sleep(10)"], timeout_s=0.2)
    transcripts = run_batch(generate(GeneratorConfig(seed=31), 1), prompts.T3, OracleBackend(), integrator=slow)
    assert transcripts[0].outcome.reason_code == "backend_error"
    assert "timed out" in transcripts[0].outcome.detail


def test_run_instance_uses_external_integrator():
    from t3table import prompts
    from t3table.pipeline import run_instance
    from t3table.backends import OracleBackend
    from t3table.synth import GeneratorConfig, generate

    inst = generate(GeneratorConfig(seed=31), 1)[0]

    def fake_integrator(tuples):
        return SummaryTable.zero()  # provably different from the native path

    t = run_instance(inst, prompts.T3, OracleBackend(), integrator=fake_integrator)
    assert t.outcome.is_ok and t.outcome.table == SummaryTable.zero()


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
