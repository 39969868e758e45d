"""JSONL files: one JSON object per line, each with an id unique in its file.

Datasets, transcripts and Auto-QA inputs share the format; their modules map
records to objects, and every problem with a file is a DatasetError naming
the line.
"""

from __future__ import annotations

import json
import os
import re
import threading
from math import inf
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, TypeVar

from .model import MAX_COUNT, TEAM_ORDER, SummaryTable, is_count

T = TypeVar("T")


class DatasetError(ValueError):
    """Raised for malformed JSONL files; message names the offending line."""


def load_json(data: bytes | str) -> object:
    """The JSON value in ``data``, bytes decoded as UTF-8 first (json.loads of bytes
    would also take UTF-16). Anything Python cannot load is a ValueError: bytes
    that are not UTF-8, bad JSON, a number past int()'s digit limit, deep nesting."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"nested too deep: {exc}") from exc


_SURROGATE = re.compile("[\ud800-\udfff]")


def has_lone_surrogate(value: object) -> bool:
    """Whether a string in ``value``, a string or JSON as loaded, holds a lone surrogate: a JSON "\\ud800" escape
    gives one, and UTF-8 cannot encode it. Values of other types hold none."""
    todo = [value]  # a loop, not recursion: JSON as deep as json.loads takes does not overflow the stack
    while todo:
        item = todo.pop()
        if type(item) is str:
            if not item.isascii() and _SURROGATE.search(item):
                return True
        elif type(item) is dict:
            todo += item
            todo += item.values()
        elif type(item) is list:
            todo += item
    return False


def writable(value: T, what: str) -> T:
    """``value``, a string or JSON as loaded, unless has_lone_surrogate finds one in it: then a ValueError naming
    ``what``. Every string a reader keeps passes here, so no output fails on a text a reader took."""
    if has_lone_surrogate(value):
        raise ValueError(f"{what} holds a lone surrogate, which UTF-8 cannot encode")
    return value


# The default 8 KiB takes several raw reads and a join per 17 KB transcript line; 256 KiB gains little more
_READ_BUFFER = 128 * 1024


def read_jsonl(path: str | Path, decode: Callable[[dict], T], load: Callable[[bytes], object] = load_json) -> list[T]:
    """``decode`` of every record in the file, in file order; ``load`` reads a line as load_json does.

    Blank lines are skipped. Invalid JSON, a line that is not an object, a
    missing or duplicate id, an id that writable refuses, and an
    AttributeError, KeyError, TypeError or ValueError raised by ``decode`` (a
    field of the wrong type or value, or a text writable refuses) all raise
    DatasetError.
    """
    out: list[T] = []
    seen: set[str] = set()
    with Path(path).open("rb", buffering=_READ_BUFFER) as f:
        for line_no, line in enumerate(f, start=1):
            if line.isspace():  # the six ASCII spaces strip() takes, tested without a copy; a line is never b""
                continue
            at = f"at line {line_no} of {path}"
            try:
                record = load(line)
            except UnicodeDecodeError as exc:
                raise DatasetError(f"text that is not UTF-8 {at}") from exc
            except ValueError as exc:
                raise DatasetError(f"invalid JSON {at}: {getattr(exc, 'msg', exc)}") from exc
            if not isinstance(record, dict) or "id" not in record:
                raise DatasetError(f"record without an id {at}")
            if has_lone_surrogate(record["id"]):  # a transcript keeps its id as read
                raise DatasetError(f"id with a lone surrogate, which UTF-8 cannot encode, {at}")
            record_id = str(record["id"])
            if record_id in seen:
                raise DatasetError(f"duplicate id {record_id!r} {at}")
            seen.add(record_id)
            try:
                out.append(decode(record))
            except DatasetError as exc:
                raise DatasetError(f"{exc} {at}") from exc
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise DatasetError(f"bad record {at}: {type(exc).__name__}: {exc}") from exc
    return out


def known_keys(record: dict, keys: AbstractSet[str], what: str) -> dict:
    """``record``, each of whose keys must be in ``keys``: a misspelled optional key is not one left out."""
    if unknown := record.keys() - keys:
        raise DatasetError(f"unknown {what} key {min(unknown)!r}")
    return record


def is_number(value: object) -> bool:
    """Whether ``value`` is an int or a finite float; ``type()`` keeps out bool.
    Unlike math.isfinite, the comparison takes an int of any size."""
    return type(value) in (int, float) and -inf < value < inf


def string_field(record: dict, key: str) -> str:
    """``record[key]``, which must be a string that writable takes; any other type is a TypeError, a missing key a
    KeyError. str.isascii is O(1), so an ASCII string pays no scan."""
    value = record[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {type(value).__name__}")
    return value if value.isascii() else writable(value, key)


def number_field(record: dict, key: str) -> float:
    """``record[key]``, which must pass is_number, as string_field."""
    value = record[key]
    if not is_number(value):
        raise TypeError(f"{key} must be a number (an int or a finite float), got {value!r:.40}")
    return value


def count_field(record: dict, key: str, low: int = 0, high: int = MAX_COUNT) -> int:
    """``record[key]``, which must pass is_count from ``low`` to ``high``; any other value is a ValueError."""
    value = record[key]
    if not is_count(value, low, high):
        raise ValueError(f"{key} must be an int from {low} to {high}, got {value!r:.40}")
    return value


def bool_field(record: dict, key: str, default: bool | None = None) -> bool:
    """``record[key]`` (``default`` when the key is missing, if given), which must be true or false, as string_field."""
    value = record[key] if default is None else record.get(key, default)
    if type(value) is not bool:
        raise TypeError(f"{key} must be a bool, got {type(value).__name__}")
    return value


# Built once. Both write ASCII text alike but for DEL, which only the second, the faster, escapes.
_UNICODE_JSON, _ASCII_JSON = json.JSONEncoder(ensure_ascii=False).encode, json.JSONEncoder().encode


def to_json(record: object, texts: Iterable[str]) -> str:
    """json.dumps(record, ensure_ascii=False); ``texts`` holds every string in ``record`` but keys of ASCII.
    When all are ASCII without DEL, the ASCII encoder writes the same text: the test reads them, not an output
    (str.isascii is O(1)), so no record costs two encodes."""
    try:
        text = "".join(texts)
    except TypeError:  # a value that is not a string, such as an id read from a transcript
        return _UNICODE_JSON(record)
    return (_ASCII_JSON if text.isascii() and "\x7f" not in text else _UNICODE_JSON)(record)


def write_whole(path: str | Path, texts: Iterable[str]) -> None:
    """``texts`` in UTF-8 to ``<name>.tmp-<pid>-<thread id>`` beside ``path``, renamed over it: the file lands whole
    or not at all, and no temporary file stays. Makes the directory; replaces a symlink; refuses a non-regular file."""
    if os.path.exists(path) and not os.path.isfile(path):  # a FIFO or /dev/stdout would take the write itself
        raise OSError(f"not a regular file: {path}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(texts)
        os.replace(tmp, path)
    finally:  # after the rename there is nothing to remove
        Path(tmp).unlink(missing_ok=True)


def write_lines(lines: Iterable[str], path: str | Path) -> None:
    """Each of ``lines`` (in a JSONL file, a record's compact JSON from to_json) and a newline, by write_whole."""
    write_whole(path, (line + "\n" for line in lines))


def table_to_rows(table: SummaryTable) -> list[list[int]]:
    """A table as JSON: the home row, then the away row."""
    return [list(table.row(team)) for team in TEAM_ORDER]
