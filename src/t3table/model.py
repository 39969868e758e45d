"""Core domain types: event taxonomy, team sides, tuples, and summary tables.

Everything here is an immutable value; all other modules build on these.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Iterator, Mapping


class EventType(Enum):
    """The eight summary-table columns, in canonical order.

    Members of EventType, TeamSide and RawEventLabel hash by identity and
    carry their text as a plain attribute: Enum's own ``__hash__`` and
    ``value`` run as Python code, and every per-tuple loop would pay for them.
    """

    GOALS = "Goals"
    SHOTS = "Shots"
    FOULS = "Fouls"
    YELLOW_CARDS = "Yellow Cards"
    RED_CARDS = "Red Cards"
    CORNER_KICKS = "Corner Kicks"
    FREE_KICKS = "Free Kicks"
    OFFSIDES = "Offsides"

    __hash__ = object.__hash__

    def __init__(self, text: str) -> None:
        self.column_header = text


# Canonical column order; all serialization and indexing uses this.
EVENT_ORDER: tuple[EventType, ...] = tuple(EventType)


class DifficultyGroup(Enum):
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"


_DIFFICULTY: dict[EventType, DifficultyGroup] = {
    EventType.GOALS: DifficultyGroup.EASY,
    EventType.RED_CARDS: DifficultyGroup.EASY,
    EventType.SHOTS: DifficultyGroup.HARD,
    EventType.FOULS: DifficultyGroup.HARD,
    EventType.YELLOW_CARDS: DifficultyGroup.MEDIUM,
    EventType.CORNER_KICKS: DifficultyGroup.MEDIUM,
    EventType.FREE_KICKS: DifficultyGroup.MEDIUM,
    EventType.OFFSIDES: DifficultyGroup.MEDIUM,
}


def difficulty_of(event: EventType) -> DifficultyGroup:
    """Difficulty group of a summary column (fixed partition)."""
    return _DIFFICULTY[event]


class TeamSide(Enum):
    HOME = "Home Team"
    AWAY = "Away Team"

    __hash__ = object.__hash__

    def __init__(self, text: str) -> None:
        self.display = text


TEAM_ORDER: tuple[TeamSide, ...] = (TeamSide.HOME, TeamSide.AWAY)

# The cells of a SummaryTable in table order: the home row, then the away
# row, each in EVENT_ORDER. This is the one statement of the layout; every
# other module reads cells by position in it or through SummaryTable.
CELLS: tuple[tuple[TeamSide, EventType], ...] = tuple((team, event) for team in TEAM_ORDER for event in EVENT_ORDER)
CELL_POS: dict[tuple[TeamSide, EventType], int] = {cell: i for i, cell in enumerate(CELLS)}
# Each team's row, as a slice of a table's cells.
_ROWS: dict[TeamSide, slice] = {
    team: slice(CELL_POS[team, EVENT_ORDER[0]], CELL_POS[team, EVENT_ORDER[-1]] + 1) for team in TEAM_ORDER
}


def team_named(text: str) -> TeamSide | None:
    """The team a free-text field names: "home" anywhere wins, then "away"."""
    folded = text.lower()
    if "home" in folded:
        return TeamSide.HOME
    if "away" in folded:
        return TeamSide.AWAY
    return None


_NOT_ALNUM = re.compile(r"[^a-z0-9]+")

# Event names compare lowercase alphanumeric, singular accepted: "Yellow Cards", "yellow_card".
_EVENT_BY_NAME: dict[str, EventType] = {
    _NOT_ALNUM.sub("", name.lower()): e for e in EVENT_ORDER for name in (e.column_header, e.column_header.rstrip("s"))
}


def event_named(text: str) -> EventType | None:
    """The event a header cell, count-tuple field or ``--mean`` name names, if any."""
    return _EVENT_BY_NAME.get(_NOT_ALNUM.sub("", text.lower()))


class RawEventLabel(Enum):
    """Surface event labels as they appear in extracted tuples."""

    GOAL = "goal"
    SHOT = "shot"
    SAVED_ATTEMPT = "saved attempt"
    BLOCKED_ATTEMPT = "blocked attempt"
    MISSED_ATTEMPT = "missed attempt"
    FOUL = "foul"
    HANDBALL = "handball"
    DANGEROUS_PLAY = "dangerous play"
    YELLOW_CARD = "yellow card"
    RED_CARD = "red card"
    SECOND_YELLOW_CARD = "second yellow card"
    CORNER_KICK = "corner kick"
    FREE_KICK = "free kick"
    PENALTY = "penalty"
    OFFSIDE = "offside"

    __hash__ = object.__hash__

    def __init__(self, text: str) -> None:
        self.text = text  # as Unknown.text, so label.text reads the same for both kinds


@dataclass(frozen=True, slots=True)
class Unknown:
    """An event label that did not resolve; carried as a value, never an error."""

    text: str


def _fold(text: str) -> str:
    # lowercase, strip punctuation, collapse whitespace
    return _NOT_ALNUM.sub(" ", text.lower()).strip()


def _load_synonyms() -> dict[str, RawEventLabel]:
    raw = resources.files("t3table.assets").joinpath("event_synonyms.json").read_text("utf-8")
    table: dict[str, RawEventLabel] = {}
    for canonical, synonyms in json.loads(raw).items():
        label = RawEventLabel(canonical)
        table[_fold(canonical)] = label
        for s in synonyms:
            key = _fold(s)
            if key in table and table[key] is not label:
                raise ValueError(f"synonym {s!r} maps to two labels")
            table[key] = label
    return table


_SYNONYMS: dict[str, RawEventLabel] = _load_synonyms()


def normalize_label(text: str) -> RawEventLabel | Unknown:
    """Resolve a surface event string to a canonical label, else Unknown(text)."""
    return _SYNONYMS.get(_fold(text), Unknown(text))


# Player<n> with n >= 1; every pattern that finds player tags builds on it.
PLAYER_TAG_PATTERN = r"Player[1-9]\d*"
_PLAYER_TAG = re.compile(PLAYER_TAG_PATTERN + r"\Z")
# A tag decorated with its side, as tagged commentary writes it:
# Player5(Home Team). The groups are (tag, side).
DECORATED_TAG = re.compile(rf"({PLAYER_TAG_PATTERN})\((Home|Away) Team\)")


def is_player_tag(text: str) -> bool:
    """Whether ``text`` is exactly one Player<n> tag."""
    return _PLAYER_TAG.match(text) is not None


@dataclass(frozen=True, slots=True)
class EventTuple:
    """One extracted event: optional player tag, team side, raw label."""

    team: TeamSide
    label: RawEventLabel | Unknown
    player: str | None = None

    def __post_init__(self) -> None:
        if self.player is not None and not is_player_tag(self.player):
            raise ValueError(f"player must look like Player<n>, got {self.player!r}")


MAX_COUNT = 2**53  # the largest count a cell holds: scores take counts as floats, which hold every int up to it


@dataclass(frozen=True, slots=True)
class SummaryTable:
    """2 (teams) x 8 (event types) integer counts from 0 to MAX_COUNT, flat in CELLS order."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != len(CELLS):
            raise ValueError(f"summary table must have {len(CELLS)} cells")
        for cell in self.counts:
            if not isinstance(cell, int) or isinstance(cell, bool) or not 0 <= cell <= MAX_COUNT:
                raise ValueError(f"cells must be integers from 0 to {MAX_COUNT}, got {cell!r:.40}")

    @classmethod
    def zero(cls) -> "SummaryTable":
        return cls((0,) * len(CELLS))

    @classmethod
    def from_rows(cls, home: Iterator[int] | list[int], away: Iterator[int] | list[int]) -> "SummaryTable":
        home, away = tuple(home), tuple(away)
        if len(home) != len(EVENT_ORDER) or len(away) != len(EVENT_ORDER):
            raise ValueError("summary table must be 2x8")
        return cls(home + away)

    @classmethod
    def from_cells(cls, cells: Mapping[tuple[TeamSide, EventType], int]) -> "SummaryTable":
        return cls(tuple(cells.get(cell, 0) for cell in CELLS))

    def get(self, team: TeamSide, event: EventType) -> int:
        return self.counts[CELL_POS[team, event]]

    def row(self, team: TeamSide) -> tuple[int, ...]:
        return self.counts[_ROWS[team]]

    def add(self, other: "SummaryTable") -> "SummaryTable":
        return SummaryTable(tuple(a + b for a, b in zip(self.counts, other.counts)))

    def cells(self) -> Iterator[tuple[TeamSide, EventType, int]]:
        for (team, event), value in zip(CELLS, self.counts):
            yield team, event, value


@dataclass(frozen=True)
class MatchInstance:
    """One dataset entry: commentary text plus optional ground-truth table."""

    id: str
    commentary: str
    ground_truth: SummaryTable | None = None
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.commentary:
            raise ValueError("commentary must be non-empty")
