"""Prompt assembly for every pipeline mode and stage.

Templates are versioned assets with literal <Instruction>/<Text>/<Tuples>
slots; assembly is pure string substitution so golden tests can pin every
byte. The inverse helpers (classify_prompt, payload extraction) exist for the
deterministic oracle backend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

from .model import EVENT_ORDER, TEAM_ORDER, EventTuple, EventType, MatchInstance, SummaryTable, TeamSide, event_named, team_named
from .tableio import count_of, to_csv
from .tuples import PAREN_GROUP

Message = tuple[str, str]


class ModeKind(Enum):
    ZERO_SHOT = "zero-shot"
    ZERO_SHOT_COT = "zero-shot-cot"
    FEW_SHOT = "few-shot"
    T3 = "t3"
    T3_MERGED = "t3m"
    T3_DIRECT = "t3d"
    T2 = "t2"


@dataclass(frozen=True)
class PipelineMode:
    kind: ModeKind
    shots: int = 0
    with_cot: bool = False

    @property
    def name(self) -> str:
        if self.kind is ModeKind.FEW_SHOT:
            base = "few-shot-cot" if self.with_cot else "few-shot"
            return f"{base}:{self.shots}"
        return self.kind.value


ZERO_SHOT = PipelineMode(ModeKind.ZERO_SHOT)
ZERO_SHOT_COT = PipelineMode(ModeKind.ZERO_SHOT_COT)
T3 = PipelineMode(ModeKind.T3)
T3_MERGED = PipelineMode(ModeKind.T3_MERGED)
T3_DIRECT = PipelineMode(ModeKind.T3_DIRECT)
T2 = PipelineMode(ModeKind.T2)


def few_shot(shots: int, with_cot: bool = False) -> PipelineMode:
    if shots < 1:
        raise ValueError("few-shot needs at least one exemplar")
    return PipelineMode(ModeKind.FEW_SHOT, shots=shots, with_cot=with_cot)


_MODE_STRINGS = {
    "zero-shot": ZERO_SHOT,
    "zero-shot-cot": ZERO_SHOT_COT,
    "cot": ZERO_SHOT_COT,
    "t3": T3,
    "t3m": T3_MERGED,
    "t3d": T3_DIRECT,
    "t2": T2,
}


def mode_names() -> list[str]:
    return [*_MODE_STRINGS, "few-shot[:k]", "few-shot-cot[:k]"]


def parse_mode(text: str) -> PipelineMode:
    """Parse a CLI mode string; few-shot takes an optional :k suffix."""
    folded = text.strip().lower()
    if folded in _MODE_STRINGS:
        return _MODE_STRINGS[folded]
    m = re.fullmatch(r"few-shot(-cot)?(?::(\d+))?", folded)
    if m:
        return few_shot(int(m.group(2) or 1), with_cot=bool(m.group(1)))
    raise ValueError(f"unknown mode {text!r}; valid modes: {', '.join(mode_names())}")


@lru_cache(maxsize=None)
def _asset(name: str) -> str:
    text = resources.files("t3table.assets").joinpath(name).read_text("utf-8")
    return text[:-1] if text.endswith("\n") else text


def build_instruction() -> str:
    """The task instruction block, verbatim from the versioned asset."""
    return _asset("instruction.txt")


# Template ids by (mode kind, 1-based stage).
_TEMPLATE_FOR: dict[tuple[ModeKind, int], str] = {
    (ModeKind.ZERO_SHOT, 1): "zero_shot",
    (ModeKind.ZERO_SHOT_COT, 1): "zero_shot_cot",
    (ModeKind.T3, 1): "extract",
    (ModeKind.T3, 2): "integrate_code",
    (ModeKind.T3, 3): "render_table",
    (ModeKind.T3_MERGED, 1): "merged",
    (ModeKind.T3_DIRECT, 1): "extract",
    (ModeKind.T3_DIRECT, 2): "integrate_direct",
    (ModeKind.T3_DIRECT, 3): "render_table",
    (ModeKind.T2, 1): "extract",
}

def template_text(template_id: str) -> str:
    return _asset(f"prompts/{template_id}.txt")


def template_for(mode: PipelineMode, stage: int) -> str:
    if mode.kind is ModeKind.FEW_SHOT:
        if stage != 1:
            raise ValueError(f"mode {mode.name} has no stage {stage}")
        return "few_shot_cot" if mode.with_cot else "few_shot"
    key = (mode.kind, stage)
    if key not in _TEMPLATE_FOR:
        raise ValueError(f"mode {mode.name} has no stage {stage}")
    return _TEMPLATE_FOR[key]


def build_prompt(
    mode: PipelineMode,
    stage: int,
    instruction: str,
    payload: str,
    examples: str | None = None,
) -> list[Message]:
    """Fill the (mode, stage) template; returns chat messages."""
    text = template_text(template_for(mode, stage))
    text = text.replace("<Instruction>", instruction)
    if "<Examples>" in text:
        text = text.replace("<Examples>", examples or "")
    text = text.replace("<Text>", payload).replace("<Tuples>", payload)
    return [("user", text)]


# Last fixed sentence of each template, used to classify a prompt and slice
# off its payload without re-running assembly.
_PAYLOAD_MARKERS: tuple[tuple[str, str], ...] = (
    ("extract", "Constrain the event names to only the following options: 1.goals, 2.shots, 3.fouls, 4.yellow cards, 5.red cards, 6.corner kicks, 7.free kicks, and 8.offsides:"),
    ("render_table", "Please only output a table with the team name in CSV format with 2 rows based on the following tuples:"),
    ("integrate_code", "Please develop a Python code to consolidate these tuples as specified:"),
    ("integrate_direct", "Please count all the information required and integrate these tuples:"),
    ("merged", "3. Output a table with 2 rows in CSV format."),
    ("zero_shot", "in CSV format according to the following live text:"),
)


def classify_prompt(text: str) -> tuple[str, str] | None:
    """Map an assembled prompt back to (template family, payload).

    The zero-shot family (plain, CoT, few-shot) shares one marker; callers
    that only need the payload never have to tell them apart.
    """
    for template_id, marker in _PAYLOAD_MARKERS:
        pos = text.rfind(marker)
        if pos >= 0:
            return template_id, text[pos + len(marker):].lstrip("\n")
    return None


def render_tuple_lines(tuples: Iterable[EventTuple]) -> str:
    """Stage-1 style tuple listing, one (player, team, event) per line."""
    lines = []
    for t in tuples:
        if t.player:
            lines.append(f"({t.player}, {t.team.display}, {t.label.text})")
        else:
            lines.append(f"({t.team.display}, {t.label.text})")
    return "\n".join(lines)


_COUNT_NAMES: dict[EventType, str] = {e: e.column_header.lower() for e in EVENT_ORDER}


def render_count_tuples(table: SummaryTable) -> str:
    """Integrated counts as (team, event, count) lines, canonical order."""
    return "\n".join(f"({team.display}, {_COUNT_NAMES[event]}, {n})" for team, event, n in table.cells())


def parse_count_tuples(text: str) -> SummaryTable | None:
    """Inverse of render_count_tuples, tolerant of extra prose lines."""
    cells: dict[tuple[TeamSide, EventType], int] = {}
    for group in PAREN_GROUP.findall(text):
        parts = [p.strip() for p in group.split(",")]
        if len(parts) != 3:
            continue
        team, event, count = team_named(parts[0]), event_named(parts[1]), count_of(parts[2])
        if team is None or event is None or count is None:
            continue
        cells[(team, event)] = count
    if len(cells) < 16:
        return None
    return SummaryTable.from_cells(cells)


def render_examples_block(exemplars: Sequence[MatchInstance], with_cot: bool) -> str:
    """Few-shot exemplar block: live text plus its table, reasoning when CoT."""
    blocks = []
    for inst in exemplars:
        if inst.ground_truth is None:
            raise ValueError(f"exemplar {inst.id} has no ground truth")
        parts = [f"Live text:\n{inst.commentary}"]
        if with_cot:
            parts.append(f"Reasoning:\n{_reasoning_text(inst.ground_truth)}")
        parts.append(f"Table:\n{to_csv(inst.ground_truth)}")
        blocks.append("\n\n".join(parts))
    return "\n\n".join(blocks)


def _reasoning_text(table: SummaryTable) -> str:
    sentences = []
    for team in TEAM_ORDER:
        counted = ", ".join(
            f"{table.get(team, event)} {_COUNT_NAMES[event]}" for event in EVENT_ORDER
        )
        sentences.append(f"The {team.display} has {counted}.")
    return " ".join(sentences)
