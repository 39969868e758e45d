"""Summary-table serialization and tolerant recovery from raw model output.

The emitter is exact (golden CSV shape); the parser accepts CSV and markdown
pipe tables with reordered columns or rows and never raises on junk input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import EVENT_ORDER, MAX_COUNT, TEAM_ORDER, EventType, SummaryTable, TeamSide, event_named, is_count
from .model import team_named

CSV_HEADER = "Team," + ",".join(e.column_header for e in EVENT_ORDER)


def to_csv(table: SummaryTable) -> str:
    """Exactly three LF-separated lines: header, Home Team row, Away Team row."""
    lines = [CSV_HEADER]
    for team in TEAM_ORDER:
        lines.append(team.display + "," + ",".join(str(v) for v in table.row(team)))
    return "\n".join(lines)


# What to_csv emits; its 16 groups are the counts in CELLS order.
_EMITTED_CSV = re.compile(
    "\n".join([re.escape(CSV_HEADER)] + [re.escape(team.display) + ",([0-9]+)" * len(EVENT_ORDER) for team in TEAM_ORDER])
)


@dataclass(frozen=True, slots=True)
class ParsedTableOutcome:
    """Either a recovered table or a malformed marker with a reason code."""

    table: SummaryTable | None
    reason_code: str | None = None
    detail: str | None = None

    @property
    def is_ok(self) -> bool:
        return self.table is not None

    @classmethod
    def ok(cls, table: SummaryTable) -> "ParsedTableOutcome":
        return cls(table=table)

    @classmethod
    def malformed(cls, code: str, detail: str) -> "ParsedTableOutcome":
        return cls(table=None, reason_code=code, detail=detail)


# Filler cells make the whole table malformed: every cell is a required count.
_FILLERS = {"", "-", "--", "n/a", "na", "none", "nil", "unknown", "not mentioned", "notmentioned"}

_SEPARATOR_CELL = re.compile(r"\A:?-{2,}:?\Z")


def count_of(cell: str) -> int | None:
    """``cell`` as a count: None unless it is decimal digits (any script) whose value is at most MAX_COUNT."""
    try:
        count = int(cell) if cell.isdecimal() else -1
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None
    return count if is_count(count) else None


def _cell_error(code: str, side: TeamSide, event: EventType, cell: str, why: str) -> ParsedTableOutcome:
    """The malformed outcome of ``cell``, quoted whole up to 40 characters and by its first 40 past that."""
    cell = cell.strip()
    quoted = repr(cell) if len(cell) <= 40 else f"{cell[:40]!r}... ({len(cell)} characters)"
    return ParsedTableOutcome.malformed(code, f"{side.display} {event.column_header} is {quoted}, {why}")


def _split_row(line: str) -> list[str]:
    if "|" in line:
        cells = [c.strip() for c in line.split("|")]
        # leading/trailing pipes produce empty edge cells
        if cells and cells[0] == "":
            cells = cells[1:]
        if cells and cells[-1] == "":
            cells = cells[:-1]
        return cells
    return [c.strip() for c in line.split(",")]


def _is_rowish(line: str) -> bool:
    return "|" in line or line.count(",") >= 2


def _clean_cell(cell: str) -> str:
    return cell.strip().strip("*`'\"").strip()


def _find_header(rows: list[list[str]]) -> tuple[int, dict[EventType, int]] | None:
    for i, row in enumerate(rows):
        columns: dict[EventType, int] = {}
        for j, cell in enumerate(row):
            event = event_named(cell)
            if event is not None and event not in columns:
                columns[event] = j
        if len(columns) == 8:
            return i, columns
    return None


def _team_of_row(row: list[str]) -> TeamSide | None:
    for cell in row:
        team = team_named(cell)
        if team is not None:
            return team
    return None


def parse_model_table(text: str) -> ParsedTableOutcome:
    """Recover the first structurally valid 2x8 table from free-form output.

    Structural validity needs a header row resolving all eight event columns
    plus a home row and an away row; cell problems in a structurally valid
    table are reported as malformed rather than searching further. Text in
    to_csv's exact shape is read by one regex, with the same outcome.
    """
    emitted = _EMITTED_CSV.fullmatch(text)
    if emitted is not None:
        try:
            return ParsedTableOutcome.ok(SummaryTable(tuple(map(int, emitted.groups()))))
        except ValueError:  # a count past MAX_COUNT or int()'s digit limit: the tolerant parser reports it
            pass
    return _parse_tolerant(text)


def _parse_tolerant(text: str) -> ParsedTableOutcome:
    lines = text.splitlines()
    blocks: list[list[list[str]]] = []
    current: list[list[str]] = []
    for line in lines:
        if _is_rowish(line):
            cells = _split_row(line)
            if all(_SEPARATOR_CELL.match(c) or c == "" for c in cells):
                continue  # markdown header separator
            current.append(cells)
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)

    saw_header = False
    for block in blocks:
        found = _find_header(block)
        if found is None:
            continue
        saw_header = True
        header_idx, columns = found
        team_rows: dict[TeamSide, list[str]] = {}
        for i, row in enumerate(block):
            if i == header_idx:
                continue
            side = _team_of_row(row)
            if side is not None and side not in team_rows:
                team_rows[side] = row
        if len(team_rows) < 2:
            continue
        cells: dict[tuple[TeamSide, EventType], int] = {}
        for side, row in team_rows.items():
            for event, j in columns.items():
                if j >= len(row):
                    return ParsedTableOutcome.malformed(
                        "bad_cell", f"{side.display} row has no {event.column_header} cell"
                    )
                value = _clean_cell(row[j])
                if value.lower() in _FILLERS:
                    return _cell_error("filler_cell", side, event, row[j], "not a count")
                count = count_of(value)
                if count is None:
                    why = f"a count past {MAX_COUNT}" if value.isdecimal() else "not a non-negative integer"
                    return _cell_error("bad_cell", side, event, row[j], why)
                cells[(side, event)] = count
        return ParsedTableOutcome.ok(SummaryTable.from_cells(cells))

    if saw_header:
        return ParsedTableOutcome.malformed("missing_team_rows", "found event columns but fewer than 2 team rows")
    return ParsedTableOutcome.malformed("no_table_found", "no table with the eight event columns found")
