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
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Protocol

from . import prompts
from .model import SummaryTable
from .tableio import to_csv
from .tuples import integrate, parse_tuples

API_KEY_ENV = "T3_API_KEY"


class BackendError(RuntimeError):
    """A backend could not produce a response (after retries, if any)."""


@dataclass(frozen=True)
class LlmRequest:
    model: str
    messages: tuple[prompts.Message, ...]
    temperature: float = 0.0

    def canonical_json(self) -> str:
        return json.dumps(
            {
                "model": self.model,
                "messages": [[role, text] for role, text in self.messages],
                "temperature": self.temperature,
            },
            sort_keys=True,
            ensure_ascii=True,
        )

    @property
    def cache_key(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def last_text(self) -> str:
        return self.messages[-1][1] if self.messages else ""


@dataclass(frozen=True)
class LlmResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_s: float = 0.0


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

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: LlmRequest) -> LlmResponse:
        with self._lock:
            self.calls += 1
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
        if template_id == "integrate_code":
            raise BackendError("oracle backend does not emit code; use native integration")
        raise BackendError(f"oracle backend cannot handle template {template_id!r}")


class HttpBackend:
    """Chat-completions POST client with bounded retries and jittered backoff."""

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        retries: int = 3,
        backoff_s: float = 1.0,
        timeout_s: float = 120.0,
    ) -> None:
        if retries < 1:
            raise ValueError("retries must be >= 1")
        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s

    def complete(self, request: LlmRequest) -> LlmResponse:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
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
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"unexpected response shape from {self.endpoint}: {exc}") from exc
            usage = payload.get("usage") or {}
            return LlmResponse(
                text=text,
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
                latency_s=time.monotonic() - start,
            )
        raise BackendError(f"backend failed after {self.retries} attempts: {last_error}")


class CachingBackend:
    """Per-response disk cache keyed by the request hash.

    With inner=None this is a pure replay backend: a cache miss is an error,
    and no network is ever touched.
    """

    def __init__(self, cache_dir: str | Path, inner: Backend | None = None) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.inner = inner
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _path(self, request: LlmRequest) -> Path:
        return self.cache_dir / f"{request.cache_key}.json"

    @staticmethod
    def _read(path: Path) -> LlmResponse | None:
        """The response a cache entry holds; None if the entry does not decode."""
        try:
            r = LlmResponse(**json.loads(path.read_text("utf-8"))["response"])
        except (ValueError, KeyError, TypeError):  # bad JSON or UTF-8 is a ValueError
            return None
        # counts and latency are int or float; type() keeps out bool, an int subclass
        numbers = (r.prompt_tokens, r.completion_tokens, r.latency_s)
        if not isinstance(r.text, str) or not all(type(n) in (int, float) for n in numbers):
            return None
        return r

    def complete(self, request: LlmRequest) -> LlmResponse:
        path = self._path(request)
        stored = path.exists()
        response = self._read(path) if stored else None
        if response is not None:
            with self._lock:
                self.hits += 1
            return response
        # a missing entry and one that does not decode are both misses
        with self._lock:
            self.misses += 1
        if self.inner is None:
            if stored:
                raise BackendError(f"replay cache entry {path} does not decode")
            raise BackendError(f"replay cache miss for request {request.cache_key}")
        response = self.inner.complete(request)
        record = {"request": json.loads(request.canonical_json()), "response": asdict(response)}
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
        tmp.write_text(json.dumps(record, ensure_ascii=False, indent=1), "utf-8")
        os.replace(tmp, path)
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
