"""Plain key=value config files for backend settings.

Precedence is resolved by the CLI: flags override file values, which override
built-in defaults; the API key always comes from the environment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from math import inf
from pathlib import Path

DEFAULT_MODEL = "t3-offline"


@dataclass(frozen=True)
class BackendSettings:
    endpoint: str | None = None
    model: str = DEFAULT_MODEL
    temperature: float = 0.0
    parallelism: int = 1
    cache_dir: str | None = None
    retries: int = 3
    backoff_s: float = 1.0
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        # replace() runs this again, so merged_with is checked too; NaN fails every comparison
        for key, ok, want in (
            ("parallelism", self.parallelism >= 1, ">= 1"),
            ("retries", self.retries >= 1, ">= 1"),
            ("backoff_s", 0 <= self.backoff_s < inf, "finite and >= 0"),
            ("temperature", 0 <= self.temperature < inf, "finite and >= 0"),
            ("timeout_s", 0 < self.timeout_s < inf, "finite and > 0"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {want}, got {getattr(self, key)!r}")

    def merged_with(self, **overrides: object) -> "BackendSettings":
        present = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **present)  # type: ignore[arg-type]


# A key's value is read as the type of its field's default; text where that is None.
_FIELD_TYPES = {f.name: str if f.default is None else type(f.default) for f in fields(BackendSettings)}


def parse_config_file(path: str | Path) -> BackendSettings:
    """Read key=value lines; a # at a line's start or after whitespace starts a comment; unknown keys are an error."""
    values: dict[str, object] = {}
    # a byte that is not UTF-8 reads as a lone surrogate, which the line's encode below rejects
    for line_no, raw in enumerate(Path(path).read_text("utf-8", "surrogateescape").splitlines(), start=1):
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{path}:{line_no}: text that is not UTF-8") from None
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()  # so a value may hold one: runs/cache#2
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: bad value for {key}: {value!r}") from exc
    return BackendSettings().merged_with(**values)
