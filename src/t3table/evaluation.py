"""Metrics: per-cell scoring, pooled RMSE / error rate by difficulty group,
Auto-QA coverage with pre-screening, and tuple-level error taxonomy."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from .model import CELLS, DifficultyGroup, EventTuple, EventType, SummaryTable, Unknown, difficulty_of
from .tableio import ParsedTableOutcome
from .tuples import primary_event

GROUP_ORDER = (DifficultyGroup.EASY, DifficultyGroup.MEDIUM, DifficultyGroup.HARD)
AVERAGE = "Average"


# Cells are positions in model.CELLS.
ALL_CELLS: tuple[int, ...] = tuple(range(len(CELLS)))
# The cells each group of a report pools: the difficulty groups, then all
# cells for the average.
_SELECTIONS: tuple[tuple[str, tuple[int, ...]], ...] = (
    *((g.value, tuple(i for i, (_, event) in enumerate(CELLS) if difficulty_of(event) is g)) for g in GROUP_ORDER),
    (AVERAGE, ALL_CELLS),
)


@dataclass(frozen=True)
class CellScores:
    """Per-cell squared errors and exact-match flags for one instance, in CELLS order."""

    squared_errors: tuple[float, ...]
    matches: tuple[bool, ...]

    def rmse(self, cells: Iterable[int] = ALL_CELLS) -> float:
        cells = tuple(cells)
        return math.sqrt(sum(self.squared_errors[c] for c in cells) / len(cells))

    def error_rate(self, cells: Iterable[int] = ALL_CELLS) -> float:
        cells = tuple(cells)
        return 100.0 * sum(not self.matches[c] for c in cells) / len(cells)


def score_instance(pred: SummaryTable, truth: SummaryTable) -> CellScores:
    pairs = tuple(zip(pred.counts, truth.counts))
    return CellScores(tuple(float((p - t) ** 2) for p, t in pairs), tuple(p == t for p, t in pairs))


@dataclass(frozen=True)
class GroupMetrics:
    rmse: float | None
    error_rate: float | None
    n_cells: int


@dataclass(frozen=True)
class EvalReport:
    """Pooled metrics per difficulty group plus the all-cells average."""

    groups: Mapping[str, GroupMetrics]
    n_instances: int
    n_filtered_malformed: int
    scores: Sequence[CellScores | None]  # per pair, in input order; None for a malformed outcome

    def to_json_dict(self) -> dict:
        return {
            "n_instances": self.n_instances,
            "n_filtered_malformed": self.n_filtered_malformed,
            "groups": {
                name: {"rmse": g.rmse, "error_rate": g.error_rate, "n_cells": g.n_cells}
                for name, g in self.groups.items()
            },
        }


def report(
    pairs: Iterable[tuple[ParsedTableOutcome, SummaryTable]],
    per_instance_average: bool = False,
) -> EvalReport:
    """Pool cells over all scored instances; malformed outcomes are filtered.

    With per_instance_average=True, group metrics are the unweighted mean of
    per-instance metrics instead of pooled over cells.
    """
    per_pair = [None if outcome.table is None else score_instance(outcome.table, truth) for outcome, truth in pairs]
    scored = [s for s in per_pair if s is not None]

    groups: dict[str, GroupMetrics] = {}
    for name, cells in _SELECTIONS:
        n_cells = len(cells) * len(scored)
        if not scored:
            groups[name] = GroupMetrics(rmse=None, error_rate=None, n_cells=0)
            continue
        if per_instance_average:
            rmse = sum(s.rmse(cells) for s in scored) / len(scored)
            er = sum(s.error_rate(cells) for s in scored) / len(scored)
        else:
            total_sq = sum(s.squared_errors[c] for s in scored for c in cells)
            mismatches = sum(not s.matches[c] for s in scored for c in cells)
            rmse = math.sqrt(total_sq / n_cells)
            er = 100.0 * mismatches / n_cells
        groups[name] = GroupMetrics(rmse=rmse, error_rate=er, n_cells=n_cells)
    return EvalReport(groups, len(scored), len(per_pair) - len(scored), per_pair)


def render_report_text(rep: EvalReport) -> str:
    """Aligned plain-text table of the grouped metrics."""
    headers = ["", *(g.value for g in GROUP_ORDER), AVERAGE]
    rows = [["RMSE"], ["Error Rate"]]
    for name in headers[1:]:
        g = rep.groups[name]
        rows[0].append("-" if g.rmse is None else f"{g.rmse:.3f}")
        rows[1].append("-" if g.error_rate is None else f"{g.error_rate:.2f}%")
    widths = [max(len(r[i]) for r in [headers, *rows]) for i in range(len(headers))]
    lines = []
    for row in [headers, *rows]:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
    lines.append(f"scored instances: {rep.n_instances}; filtered: {rep.n_filtered_malformed} malformed")
    return "\n".join(lines)


# --- Auto-QA coverage -------------------------------------------------------------

@dataclass(frozen=True)
class QaPair:
    question: str
    reference_answer: str
    prescreen_passed: bool = True

    def __post_init__(self) -> None:
        if not self.question:
            raise ValueError("question must be non-empty")


class QaGenerator(Protocol):
    def __call__(self, doc: str) -> Sequence[QaPair]: ...


class TableAnswerer(Protocol):
    def __call__(self, table_render: str, pair: QaPair) -> str: ...


Judge = Callable[[str, str, str], bool]  # (question, answer, reference) -> equivalent?


def exact_match_judge(question: str, answer: str, reference: str) -> bool:
    del question
    return answer.strip().lower() == reference.strip().lower()


def substring_table_answerer(table_render: str, pair: QaPair) -> str:
    """Deterministic stub: answers correctly iff the reference appears in the table."""
    return pair.reference_answer if pair.reference_answer in table_render else ""


def autoqa_coverage(
    doc: str,
    table_render: str,
    qa_gen: QaGenerator,
    table_answerer: TableAnswerer,
    judge: Judge,
) -> float:
    """Fraction of surviving QA pairs answered correctly from the table.

    Pairs failing the pre-screen are excluded from numerator and denominator.
    """
    pairs = list(qa_gen(doc))
    surviving = [p for p in pairs if p.prescreen_passed]
    if not surviving:
        raise ValueError("no valid QA pairs")
    correct = 0
    for pair in surviving:
        answer = table_answerer(table_render, pair)
        if judge(pair.question, answer, pair.reference_answer):
            correct += 1
    return correct / len(surviving)


DEFAULT_CURVE_GRID: tuple[int, ...] = tuple(range(0, 101, 10))


@dataclass(frozen=True)
class CurvePoint:
    threshold: float  # C, in percent
    percent: float  # P, in percent


def coverage_curve(coverages: Sequence[float]) -> list[CurvePoint]:
    """P percent of documents reach coverage of at least C percent, per threshold in DEFAULT_CURVE_GRID."""
    if not coverages:
        raise ValueError("no coverages")
    points = []
    for c in DEFAULT_CURVE_GRID:
        reached = sum(1 for cov in coverages if cov >= c / 100.0)
        points.append(CurvePoint(threshold=float(c), percent=100.0 * reached / len(coverages)))
    return points


def curve_to_csv(points: Sequence[CurvePoint]) -> str:
    lines = ["threshold,percent"]
    lines.extend(f"{p.threshold:g},{p.percent:g}" for p in points)
    return "\n".join(lines)


# --- error taxonomy ---------------------------------------------------------------

@dataclass(frozen=True)
class ErrorTaxonomy:
    """Multiset difference between extracted and truth tuples, by event type."""

    missing: Mapping[EventType, int] = field(default_factory=dict)
    wrong: Mapping[EventType, int] = field(default_factory=dict)
    spurious: Mapping[EventType, int] = field(default_factory=dict)

    @property
    def total_missing(self) -> int:
        return sum(self.missing.values())

    @property
    def total_wrong(self) -> int:
        return sum(self.wrong.values())

    @property
    def total_spurious(self) -> int:
        return sum(self.spurious.values())


def _key(t: EventTuple) -> tuple:
    return (t.player, t.team, t.label)


def _walk_order(item: tuple[tuple, int]) -> tuple:
    (player, team, label), _ = item
    return (player or "", team.display, label.text, isinstance(label, Unknown))


def diagnose_tuples(
    extracted: Iterable[EventTuple], truth: Iterable[EventTuple]
) -> ErrorTaxonomy:
    """Classify tuple-level differences as missing / wrong / spurious.

    Exact matches cancel first; leftovers sharing an actor (player and team)
    pair up as wrong-label extractions; the rest are missing (truth only) or
    spurious (extracted only). Counts are filed under the label's primary
    column, with wrong counted under the truth label. Leftovers are walked in
    one sorted order, so the order of either input moves no count.
    """
    ext = Counter(_key(t) for t in extracted)
    tru = Counter(_key(t) for t in truth)
    ext_left = sorted((ext - tru).items(), key=_walk_order)
    tru_left = sorted((tru - ext).items(), key=_walk_order)

    missing: Counter[EventType] = Counter()
    wrong: Counter[EventType] = Counter()
    spurious: Counter[EventType] = Counter()

    by_actor_ext: Counter[tuple] = Counter()
    for (player, team, _label), n in ext_left:
        by_actor_ext[(player, team)] += n

    for (player, team, label), n in tru_left:
        event = primary_event(label)
        paired = min(n, by_actor_ext[(player, team)])
        by_actor_ext[(player, team)] -= paired
        if event is not None:
            if paired:
                wrong[event] += paired
            if n - paired:
                missing[event] += n - paired

    # whatever extracted leftovers were not paired to a truth tuple
    for (player, team, label), n in ext_left:
        take = min(n, by_actor_ext[(player, team)])
        by_actor_ext[(player, team)] -= take
        event = primary_event(label)
        if event is not None and take:
            spurious[event] += take
    return ErrorTaxonomy(missing=dict(missing), wrong=dict(wrong), spurious=dict(spurious))
