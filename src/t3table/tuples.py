"""Tuple-line parsing and deterministic integration into summary tables."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .model import (
    CELL_POS,
    CELLS,
    DECORATED_TAG,
    EventTuple,
    EventType,
    RawEventLabel,
    SummaryTable,
    TeamSide,
    Unknown,
    is_player_tag,
    normalize_label,
    team_named,
)

# Column increments applied per label. A goal is also a shot; a second yellow
# is also a red; handball and dangerous play count as fouls; a penalty counts
# as a free kick.
LABEL_EFFECTS: dict[RawEventLabel, tuple[EventType, ...]] = {
    RawEventLabel.GOAL: (EventType.GOALS, EventType.SHOTS),
    RawEventLabel.SHOT: (EventType.SHOTS,),
    RawEventLabel.SAVED_ATTEMPT: (EventType.SHOTS,),
    RawEventLabel.BLOCKED_ATTEMPT: (EventType.SHOTS,),
    RawEventLabel.MISSED_ATTEMPT: (EventType.SHOTS,),
    RawEventLabel.FOUL: (EventType.FOULS,),
    RawEventLabel.HANDBALL: (EventType.FOULS,),
    RawEventLabel.DANGEROUS_PLAY: (EventType.FOULS,),
    RawEventLabel.YELLOW_CARD: (EventType.YELLOW_CARDS,),
    RawEventLabel.RED_CARD: (EventType.RED_CARDS,),
    RawEventLabel.SECOND_YELLOW_CARD: (EventType.RED_CARDS, EventType.YELLOW_CARDS),
    RawEventLabel.CORNER_KICK: (EventType.CORNER_KICKS,),
    RawEventLabel.FREE_KICK: (EventType.FREE_KICKS,),
    RawEventLabel.PENALTY: (EventType.FREE_KICKS,),
    RawEventLabel.OFFSIDE: (EventType.OFFSIDES,),
}

# LABEL_EFFECTS as positions in a table's cells: one map per team, so
# counting hashes only the label.
_CELL_OFFSETS: dict[TeamSide, dict[RawEventLabel, tuple[int, ...]]] = {
    team: {label: tuple(CELL_POS[team, e] for e in effects) for label, effects in LABEL_EFFECTS.items()}
    for team in TeamSide
}


def primary_event(label: RawEventLabel | Unknown) -> EventType | None:
    """Column a label is filed under in diagnostic reports (first increment)."""
    if isinstance(label, Unknown):
        return None
    return LABEL_EFFECTS[label][0]


@dataclass(frozen=True)
class TupleParseReport:
    tuples: tuple[EventTuple, ...]
    rejected_lines: tuple[tuple[str, str], ...] = ()
    unknown_label_count: int = 0


# one parenthesised group, the unit of both tuple and count-tuple listings
PAREN_GROUP = re.compile(r"\(([^()]*)\)")
# PAREN_GROUP with no str.splitlines boundary between its parens, so its
# matches over a whole text are PAREN_GROUP's matches line by line, in order
_LINE_GROUP = re.compile(r"\(([^()\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*)\)")


# Model output spells a small tuple vocabulary (player tags x teams x labels)
# over and over; the bound caps what junk output can make the cache hold.
@lru_cache(maxsize=4096)
def _read_group(group: str) -> EventTuple | str | None:
    """The tuple a group spells, the reason it is rejected, or None for prose."""
    parts = [p.strip() for p in group.split(",")]
    if len(parts) < 2:
        return None  # prose parenthetical, e.g. a player tag
    if len(parts) > 3:
        return "expected 2 or 3 fields"
    if len(parts) == 3:
        player_text, team_text, event_text = parts
    else:
        player_text = None
        team_text, event_text = parts
    team = team_named(team_text)
    if team is None:
        return "unresolvable team"
    player = player_text if player_text and is_player_tag(player_text) else None
    return EventTuple(team=team, label=normalize_label(event_text), player=player)


def parse_tuples(text: str) -> TupleParseReport:
    """Recover (player, team, event) / (team, event) tuples from model output.

    Tolerates numbering, bullets, and surrounding prose. Parenthesized groups
    with fewer than two comma-separated fields are treated as prose, not
    rejected. Player fields that are not Player<n> tags are dropped (the team
    still counts); teams that resolve to neither home nor away reject the line.
    Equal groups give the same (immutable) tuple object.

    The groups of the whole text are read in one pass; only a text with a
    rejected group is read again line by line, to name each rejected line.
    """
    # the commentary's tags sometimes leak into tuples as Player5(Home Team);
    # their parens break the tuple grammar, so strip the decoration first. A
    # tag never spans lines, so this equals stripping it line by line.
    stripped = DECORATED_TAG.sub(r"\1", text) if " Team)" in text else text  # every decorated tag ends so
    tuples: list[EventTuple] = []
    unknown = 0
    for read in map(_read_group, _LINE_GROUP.findall(stripped)):
        if read is None:
            continue
        if isinstance(read, str):
            return _parse_lines(stripped)
        if isinstance(read.label, Unknown):
            unknown += 1
        tuples.append(read)
    return TupleParseReport(tuple(tuples), (), unknown)


def _parse_lines(stripped: str) -> TupleParseReport:
    """parse_tuples line by line on its tag-stripped text, which names the line of each rejected group."""
    tuples: list[EventTuple] = []
    rejected: list[tuple[str, str]] = []
    unknown = 0
    for line in stripped.splitlines():
        for group in PAREN_GROUP.findall(line):
            read = _read_group(group)
            if read is None:
                continue
            if isinstance(read, str):
                rejected.append((line.strip(), read))
                continue
            if isinstance(read.label, Unknown):
                unknown += 1
            tuples.append(read)
    return TupleParseReport(tuple(tuples), tuple(rejected), unknown)


def integrate(tuples: Iterable[EventTuple]) -> SummaryTable:
    """Count tuples into a summary table. Unknown labels add nothing."""
    cells = [0] * len(CELLS)
    home, away = _CELL_OFFSETS[TeamSide.HOME], _CELL_OFFSETS[TeamSide.AWAY]
    for t in tuples:
        for k in (home if t.team is TeamSide.HOME else away).get(t.label, ()):
            cells[k] += 1
    return SummaryTable(tuple(cells))

