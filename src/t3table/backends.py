"""Chat-completion backends: HTTP, scriptable stub, disk cache, and the oracle.

All backends expose one method, complete(request) -> response, over a
chat-completions-shaped request (model, messages, temperature). The oracle
backend answers any pipeline prompt deterministically via the rule-based
extractor, which closes the loop on synthetic data without a network.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Protocol

from . import prompts
from .jsonl import is_number, load_json, write_whole
from .model import SummaryTable, is_count
from .tableio import to_csv
from .tuples import integrate, parse_tuples

API_KEY_ENV = "T3_API_KEY"

# json.dumps with sort_keys builds an encoder per call
_CANONICAL = json.JSONEncoder(sort_keys=True)
_SURROGATE = re.compile("[\ud800-\udfff]")


class BackendError(RuntimeError):
    """A backend could not produce a response (after retries, if any)."""


@dataclass(frozen=True)
class LlmRequest:
    model: str
    messages: tuple[prompts.Message, ...]
    temperature: float = 0.0

    def as_dict(self) -> dict:
        """The request as JSON, keys in sorted order."""
        return {"messages": [[role, text] for role, text in self.messages], "model": self.model,
                "temperature": self.temperature}

    @property
    def cache_key(self) -> str:
        return _cache_key(self.as_dict())

    @property
    def last_text(self) -> str:
        return self.messages[-1][1] if self.messages else ""


@dataclass(frozen=True)
class LlmResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        # every backend's reply and every cache entry is built here, so none with a wrong-typed field gets further;
        # a lone surrogate (a JSON "\ud800" escape gives one) would fail the UTF-8 write of the cache or transcript
        if not (isinstance(self.text, str) and (self.text.isascii() or not _SURROGATE.search(self.text))
                and is_count(self.prompt_tokens) and is_count(self.completion_tokens) and is_number(self.latency_s)):
            raise BackendError(f"backend response has wrong-typed fields: {self!r:.300}")


class Backend(Protocol):
    def complete(self, request: LlmRequest) -> LlmResponse: ...


class StubBackend:
    """Scripted backend for tests: a callable or a fixed reply, plus a call count."""

    def __init__(self, script: Callable[[LlmRequest], str] | str = "") -> None:
        self._script = script
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: LlmRequest) -> LlmResponse:
        with self._lock:
            self.calls += 1
        text = self._script(request) if callable(self._script) else self._script
        return LlmResponse(text=text, completion_tokens=len(text.split()))


class OracleBackend:
    """Answers pipeline prompts with the rule-based extractor and integrator."""

    def complete(self, request: LlmRequest) -> LlmResponse:
        classified = prompts.classify_prompt(request.last_text)
        if classified is None:
            raise BackendError("oracle backend got a prompt it does not recognize")
        template_id, payload = classified
        # looked up at call time, so a wrapper swapped in for synth.oracle_extract
        # (as perfbench/tracing.py does) sees the oracle's calls
        from .synth import oracle_extract

        if template_id == "extract":
            return LlmResponse(text=prompts.render_tuple_lines(oracle_extract(payload)))
        if template_id in ("zero_shot", "merged"):
            table = integrate(oracle_extract(payload))
            return LlmResponse(text=to_csv(table))
        if template_id == "integrate_direct":
            table = integrate(parse_tuples(payload).tuples)
            return LlmResponse(text=prompts.render_count_tuples(table))
        if template_id == "render_table":
            table = prompts.parse_count_tuples(payload)
            if table is None:
                # stage-2 output was raw tuples, not counts; integrate them
                table = integrate(parse_tuples(payload).tuples)
            return LlmResponse(text=to_csv(table))
        raise BackendError(f"oracle backend cannot handle template {template_id!r}")


class HttpBackend:
    """Chat-completions POST client with bounded retries and jittered backoff."""

    def __init__(
        self,
        endpoint: str,
        retries: int = 3,
        backoff_s: float = 1.0,
        timeout_s: float = 120.0,
    ) -> None:
        self.endpoint = endpoint
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s

    def complete(self, request: LlmRequest) -> LlmResponse:
        import requests

        headers = {"Content-Type": "application/json"}
        if api_key := os.environ.get(API_KEY_ENV):
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": request.model,
            "messages": [{"role": role, "content": text} for role, text in request.messages],
            "temperature": request.temperature,
        }
        last_error: Exception | None = None
        for attempt in range(self.retries):
            if attempt:
                delay = self.backoff_s * (2 ** (attempt - 1))
                time.sleep(delay + random.uniform(0.0, 0.25 * delay))
            start = time.monotonic()
            try:
                resp = requests.post(self.endpoint, json=body, headers=headers, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = BackendError(f"HTTP {resp.status_code} from {self.endpoint}")
                continue
            if resp.status_code != 200:
                raise BackendError(f"HTTP {resp.status_code} from {self.endpoint}: {resp.text[:200]}")
            try:
                payload = resp.json()
                text = payload["choices"][0]["message"]["content"]
                usage = payload.get("usage") or {}
                prompt_tokens, completion_tokens = usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)
            except (AttributeError, RecursionError, ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"unexpected response shape from {self.endpoint}: {exc}") from exc
            return LlmResponse(text, prompt_tokens, completion_tokens, latency_s=time.monotonic() - start)
        raise BackendError(f"backend failed after {self.retries} attempts: {last_error}")


def _cache_key(request: dict) -> str:
    return hashlib.sha256(_CANONICAL.encode(request).encode("utf-8")).hexdigest()


# A miss returns as soon as the backend answers; this one thread writes its entry. Until an entry is on
# disk, its request (as_dict) and response wait here by path, so the process answers it from memory.
_writer = ThreadPoolExecutor(max_workers=1)
_unwritten: dict[str, tuple[dict, LlmResponse]] = {}
_failed_writes: dict[str, OSError] = {}  # by absolute cache directory: its first failed write since its flush


def _write_entry(path: str, request: dict, response: LlmResponse) -> None:
    try:
        record = {"request": request, "response": asdict(response)}
        write_whole(path, [json.dumps(record, ensure_ascii=False, indent=1)])
    except Exception as exc:  # an OSError, or a request text that UTF-8 cannot write
        _failed_writes.setdefault(os.path.dirname(os.path.abspath(path)), OSError(f"{path}: {exc}"))
    finally:
        _unwritten.pop(path, None)


def flush_cache_writes(cache_dir: str | Path) -> None:
    """Return once every entry queued before the call is on disk; raise, as an OSError naming its path, the first
    in ``cache_dir`` that failed since that directory's last flush. The process's exit waits too, but keeps errors."""
    _writer.submit(lambda: None).result()  # the one writer runs its jobs in order
    if failed := _failed_writes.pop(os.path.abspath(cache_dir), None):
        raise failed


class CachingBackend:
    """Per-response disk cache keyed by the request hash.

    With inner=None this is a pure replay backend: a cache miss is an error,
    and no network is ever touched. A miss's entry is written off the request
    path; flush_cache_writes(cache_dir) returns once it is on disk.
    """

    def __init__(self, cache_dir: str | Path, inner: Backend | None = None) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._dir = str(self.cache_dir)  # os.path.join on it is cheaper than the Path's "/"
        self.inner = inner
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _read(path: str, request: dict) -> LlmResponse | None:
        """The response a cache entry for ``request`` (as_dict) holds; None if it is missing, does not decode,
        or was written for another request (a renamed or copied file)."""
        try:
            fd = os.open(path, os.O_RDONLY)  # not a file object: a few-kB entry takes one os.read, and one at its end
            try:
                chunks = list(iter(partial(os.read, fd, 1 << 16), b""))
            finally:
                os.close(fd)
            entry = load_json(b"".join(chunks))
            return LlmResponse(**entry["response"]) if entry["request"] == request else None
        except (FileNotFoundError, ValueError, KeyError, TypeError, BackendError):
            return None
        except IsADirectoryError as exc:  # raised by os.read, which does not name the file as open() did
            raise IsADirectoryError(exc.errno, exc.strerror, path) from None

    def complete(self, request: LlmRequest) -> LlmResponse:
        asked = request.as_dict()
        key = _cache_key(asked)
        path = os.path.join(self._dir, key + ".json")
        # looked up before the file: the writer takes an entry from memory only once it is on disk
        unwritten = _unwritten.get(path)
        if unwritten is None:
            response = self._read(path, asked)
        else:
            response = unwritten[1] if unwritten[0] == asked else None
        if response is not None:
            with self._lock:
                self.hits += 1
            return response
        # a missing entry, one that does not decode and one for another request are all misses
        with self._lock:
            self.misses += 1
        if self.inner is None:
            if os.path.exists(path):
                raise BackendError(f"replay cache entry {path} does not decode, or holds another request")
            raise BackendError(f"replay cache miss for request {key}")
        response = self.inner.complete(request)
        _unwritten[path] = (asked, response)
        _writer.submit(_write_entry, path, asked, response)
        return response


def zero_table_stub(request: LlmRequest) -> str:
    """Default CLI stub: an all-zero table for table prompts, nothing for extraction."""
    classified = prompts.classify_prompt(request.last_text)
    if classified is None:
        return ""
    template_id, _ = classified
    if template_id in ("zero_shot", "merged", "render_table"):
        return to_csv(SummaryTable.zero())
    if template_id == "integrate_direct":
        return prompts.render_count_tuples(SummaryTable.zero())
    return ""
