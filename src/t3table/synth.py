"""Seeded synthetic commentary with known ground truth, and its exact inverse.

The generator and the oracle extractor share one committed template bank, so
every generated sentence is recoverable by pattern match without any NLP. On
text that did not come from the bank the oracle degrades to best-effort
keyword matching with no guarantee.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# DatasetError is what read_dataset raises; importers catch it from here too
from .jsonl import DatasetError, read_jsonl, string_field, table_from_rows, table_to_rows, write_jsonl
from .model import (
    EVENT_ORDER,
    PLAYER_TAG_PATTERN,
    EventTuple,
    EventType,
    MatchInstance,
    RawEventLabel,
    TeamSide,
)
from .tuples import integrate

DEFAULT_MEANS: Mapping[EventType, float] = {
    EventType.GOALS: 1.38,
    EventType.SHOTS: 12.71,
    EventType.FOULS: 10.60,
    EventType.YELLOW_CARDS: 1.74,
    EventType.RED_CARDS: 0.04,
    EventType.CORNER_KICKS: 5.25,
    EventType.FREE_KICKS: 10.34,
    EventType.OFFSIDES: 1.86,
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic commentary generator.

    Means are per-team Poisson rates for scripted event classes; the shots
    rate covers non-goal attempts (goals imply shots only through the derived
    counting rule). Linkage probabilities shape phrasing, never counts.
    """

    seed: int = 42
    means: Mapping[EventType, float] = field(default_factory=lambda: dict(DEFAULT_MEANS))
    foul_free_kick_link: float = 0.6
    combo_sentence_share: float = 0.5
    through_ball_offside_share: float = 0.6
    second_yellow_share: float = 0.5
    penalty_share: float = 0.08
    handball_share: float = 0.05
    dangerous_play_share: float = 0.05
    filler_rate: float = 0.08
    bank_version: str = "v1"

    def with_means(self, **overrides: float) -> "GeneratorConfig":
        means = dict(self.means)
        for name, value in overrides.items():
            means[EventType[name.upper()]] = value
        return replace(self, means=means)


@dataclass(frozen=True, slots=True)
class ScriptedEvent:
    team: TeamSide
    label: RawEventLabel
    player: str | None
    template_id: str


EventScript = tuple[ScriptedEvent, ...]


def tuples_of(script: Iterable[ScriptedEvent]) -> tuple[EventTuple, ...]:
    return tuple(EventTuple(team=e.team, label=e.label, player=e.player) for e in script)


# --- template bank -----------------------------------------------------------

_PLACEHOLDER = re.compile(r"\{([a-z0-9_]+)\}")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_NAMED_SLOTS = {"player", "player2", "team", "opponent", "scoreline"}


@dataclass(frozen=True)
class _Entry:
    id: str
    text: str
    events: tuple[tuple[RawEventLabel, str], ...]  # (label, who)
    actor2: str  # "same" | "opponent"
    pattern: re.Pattern[str]
    keyword: str


def _pattern_for(text: str, slots: Mapping[str, Sequence[str]]) -> re.Pattern[str]:
    pat = re.escape(text)
    named = {
        "player": rf"(?P<p1>{PLAYER_TAG_PATTERN})\((?P<p1t>Home|Away) Team\)",
        "player2": rf"(?P<p2>{PLAYER_TAG_PATTERN})\((?P<p2t>Home|Away) Team\)",
        "team": r"(?P<team>Home|Away) Team",
        "opponent": r"(?P<opp>Home|Away) Team",
        "scoreline": r"Home Team \d+, Away Team \d+",
    }
    for name, group in named.items():
        pat = pat.replace(re.escape("{" + name + "}"), group)
    for name, options in slots.items():
        alt = "(?:" + "|".join(re.escape(o) for o in options) + ")"
        pat = pat.replace(re.escape("{" + name + "}"), alt)
    return re.compile(pat)


def _keyword_for(text: str) -> str:
    chunks = [c.strip() for c in _PLACEHOLDER.split(text)[::2]]
    return max(chunks, key=len)


def _literal_words(text: str) -> list[str]:
    """Template words with whitespace or a template edge on both sides.

    Any sentence the template matches has each of them as a whole
    whitespace-separated token, whatever fills the slots.
    """
    return [w for w in text.split() if not _PLACEHOLDER.search(w)]


class TemplateBank:
    """Committed sentence templates shared by the generator and the oracle."""

    def __init__(self, data: Mapping) -> None:
        self.version: str = data["version"]
        self.slots: dict[str, list[str]] = {k: list(v) for k, v in data["slots"].items()}
        self.events: dict[RawEventLabel, list[_Entry]] = {}
        self.combos: dict[str, list[_Entry]] = {}
        entries: list[_Entry] = []

        def build(item: Mapping, events: tuple[tuple[RawEventLabel, str], ...]) -> _Entry:
            text = item["text"]
            for name in _PLACEHOLDER.findall(text):
                if name not in _NAMED_SLOTS and name not in self.slots:
                    raise ValueError(f"template {item['id']} uses undefined slot {name!r}")
            if re.search(r"[.!?].", text):
                raise ValueError(f"template {item['id']} has internal sentence punctuation")
            return _Entry(
                id=item["id"],
                text=text,
                events=events,
                actor2=item.get("actor2", "same"),
                pattern=_pattern_for(text, self.slots),
                keyword=_keyword_for(text),
            )

        for label_text, items in data["events"].items():
            label = RawEventLabel(label_text)
            self.events[label] = [
                build(i, tuple((RawEventLabel(e["label"]), e["who"]) for e in i["events"]))
                for i in items
            ]
            entries.extend(self.events[label])
        for combo_name, items in data["combos"].items():
            self.combos[combo_name] = [
                build(i, tuple((RawEventLabel(e["label"]), e["who"]) for e in i["events"]))
                for i in items
            ]
            entries.extend(self.combos[combo_name])
        for item in data["fillers"]:
            entries.append(build(item, ()))
        self.boilerplate: dict[str, list[str]] = {k: list(v) for k, v in data["boilerplate"].items()}
        for name, lines in self.boilerplate.items():
            for j, line in enumerate(lines):
                entries.append(build({"id": f"{name}-{j}", "text": line}, ()))
        self.entries: tuple[_Entry, ...] = tuple(entries)

        # Index for oracle_extract: each entry is filed under the literal word
        # of its template that the fewest entries share.
        words = [set(_literal_words(e.text)) for e in self.entries]
        share = Counter(w for ws in words for w in ws)
        self._by_word: dict[str, list[int]] = {}
        for pos, (entry, ws) in enumerate(zip(self.entries, words)):
            if not ws:
                raise ValueError(f"template {entry.id} has no literal word to index it by")
            key = min(sorted(ws), key=share.__getitem__)
            self._by_word.setdefault(key, []).append(pos)

    def candidates(self, sentence: str) -> list[_Entry]:
        """Entries that could fullmatch ``sentence``, in bank order.

        Every entry that matches is among them: its index word is a
        whitespace-separated token of any sentence it matches.
        """
        # an entry sits under one word only, so the positions are distinct
        found: list[int] = []
        for word in self._by_word.keys() & sentence.split():
            found += self._by_word[word]
        found.sort()
        return [self.entries[pos] for pos in found]


@lru_cache(maxsize=None)
def default_bank() -> TemplateBank:
    raw = resources.files("t3table.assets").joinpath("template_bank.json").read_text("utf-8")
    return TemplateBank(json.loads(raw))


# --- generation ---------------------------------------------------------------

_HOME_NUMBERS = (1, 18)
_AWAY_NUMBERS = (19, 36)

_SHOT_SPLIT = (
    (0.35, RawEventLabel.SAVED_ATTEMPT),
    (0.60, RawEventLabel.BLOCKED_ATTEMPT),
    (0.85, RawEventLabel.MISSED_ATTEMPT),
    (1.01, RawEventLabel.SHOT),
)


@dataclass
class _Unit:
    events: list[ScriptedEvent]
    combo: str | None = None  # combo pool name when rendered as one sentence


class _Renderer:
    def __init__(self, bank: TemplateBank, rng: np.random.Generator) -> None:
        self.bank = bank
        self.rng = rng
        self.score = {TeamSide.HOME: 0, TeamSide.AWAY: 0}
        self.sentences: list[str] = []
        self.script: list[ScriptedEvent] = []

    def _player_tag(self, team: TeamSide) -> str:
        lo, hi = _HOME_NUMBERS if team is TeamSide.HOME else _AWAY_NUMBERS
        return f"Player{int(self.rng.integers(lo, hi + 1))}"

    def _fill(self, text: str, ctx: Mapping[str, str]) -> str:
        def sub(m: re.Match[str]) -> str:
            name = m.group(1)
            if name in ctx:
                return ctx[name]
            options = self.bank.slots[name]
            return options[int(self.rng.integers(len(options)))]

        return _PLACEHOLDER.sub(sub, text)

    def scoreline(self) -> str:
        return f"Home Team {self.score[TeamSide.HOME]}, Away Team {self.score[TeamSide.AWAY]}"

    def boilerplate(self, name: str) -> None:
        for line in self.bank.boilerplate[name]:
            self.sentences.append(self._fill(line, {"scoreline": self.scoreline()}))

    def filler(self) -> None:
        fillers = [e for e in self.bank.entries if e.id.startswith("filler-")]
        entry = fillers[int(self.rng.integers(len(fillers)))]
        team = TeamSide.HOME if self.rng.random() < 0.5 else TeamSide.AWAY
        ctx = {"player": f"{self._player_tag(team)}({team.display})"}
        self.sentences.append(self._fill(entry.text, ctx))

    def _pick(self, pool: list[_Entry], prefer: str | None = None) -> _Entry:
        if prefer is not None:
            narrowed = [e for e in pool if prefer in e.id]
            if narrowed:
                pool = narrowed
        return pool[int(self.rng.integers(len(pool)))]

    def single(self, event: ScriptedEvent, prefer: str | None = None) -> None:
        pool = self.bank.events[event.label]
        entry = self._pick(pool, prefer)
        if event.label is RawEventLabel.GOAL:
            self.score[event.team] += 1
        ctx: dict[str, str] = {
            "team": event.team.display,
            "opponent": event.team.opponent.display,
            "scoreline": self.scoreline(),
        }
        if event.player:
            ctx["player"] = f"{event.player}({event.team.display})"
        if "{player2}" in entry.text:
            side = event.team if entry.actor2 == "same" else event.team.opponent
            ctx["player2"] = f"{self._player_tag(side)}({side.display})"
        self.sentences.append(self._fill(entry.text, ctx))
        self.script.append(replace(event, template_id=entry.id))

    def combo(self, pool_name: str, first: ScriptedEvent, second: ScriptedEvent) -> None:
        entry = self._pick(self.bank.combos[pool_name])
        ctx = {
            "player": f"{first.player}({first.team.display})",
            "player2": f"{second.player}({second.team.display})",
        }
        self.sentences.append(self._fill(entry.text, ctx))
        # script order follows the template's declared event order
        for label, who in entry.events:
            src = first if who == "player" else second
            self.script.append(replace(src, label=label, template_id=entry.id))


def _sample_events(cfg: GeneratorConfig, rng: np.random.Generator) -> list[_Unit]:
    def draw_label(team: TeamSide, cls: EventType) -> ScriptedEvent:
        if cls is EventType.GOALS:
            label = RawEventLabel.GOAL
        elif cls is EventType.SHOTS:
            r = rng.random()
            label = next(lab for cut, lab in _SHOT_SPLIT if r < cut)
        elif cls is EventType.FOULS:
            r = rng.random()
            if r < cfg.handball_share:
                label = RawEventLabel.HANDBALL
            elif r < cfg.handball_share + cfg.dangerous_play_share:
                label = RawEventLabel.DANGEROUS_PLAY
            else:
                label = RawEventLabel.FOUL
        elif cls is EventType.YELLOW_CARDS:
            label = RawEventLabel.YELLOW_CARD
        elif cls is EventType.RED_CARDS:
            label = (
                RawEventLabel.SECOND_YELLOW_CARD
                if rng.random() < cfg.second_yellow_share
                else RawEventLabel.RED_CARD
            )
        elif cls is EventType.CORNER_KICKS:
            label = RawEventLabel.CORNER_KICK
        elif cls is EventType.FREE_KICKS:
            label = (
                RawEventLabel.PENALTY if rng.random() < cfg.penalty_share else RawEventLabel.FREE_KICK
            )
        else:
            label = RawEventLabel.OFFSIDE
        player: str | None = None
        if label is not RawEventLabel.CORNER_KICK:
            lo, hi = _HOME_NUMBERS if team is TeamSide.HOME else _AWAY_NUMBERS
            player = f"Player{int(rng.integers(lo, hi + 1))}"
        return ScriptedEvent(team=team, label=label, player=player, template_id="")

    events: list[ScriptedEvent] = []
    for team in (TeamSide.HOME, TeamSide.AWAY):
        for cls in EVENT_ORDER:
            n = int(rng.poisson(cfg.means.get(cls, 0.0)))
            events.extend(draw_label(team, cls) for _ in range(n))

    # Linkage: pair plain fouls with an unpaired opposing free kick so the
    # narration flows; the pair still contributes exactly its two tuples.
    free_kicks: dict[TeamSide, list[int]] = {t: [] for t in TeamSide}
    for i, e in enumerate(events):
        if e.label is RawEventLabel.FREE_KICK:
            free_kicks[e.team].append(i)
    paired: dict[int, int] = {}
    taken: set[int] = set()
    for i, e in enumerate(events):
        if e.label is not RawEventLabel.FOUL:
            continue
        pool = [j for j in free_kicks[e.team.opponent] if j not in taken]
        if pool and rng.random() < cfg.foul_free_kick_link:
            j = pool[0]
            taken.add(j)
            paired[i] = j

    units: list[_Unit] = []
    consumed = set(paired) | set(taken)
    for i, e in enumerate(events):
        if i in paired:
            combo = rng.random() < cfg.combo_sentence_share
            units.append(_Unit([e, events[paired[i]]], combo="foul+free kick" if combo else None))
        elif i not in consumed:
            units.append(_Unit([e]))
    return units


def generate_one(cfg: GeneratorConfig, index: int) -> tuple[MatchInstance, EventScript]:
    """One deterministic instance; the script is the ground-truth event list."""
    bank = default_bank()
    if bank.version != cfg.bank_version:
        raise ValueError(f"template bank {bank.version} != config {cfg.bank_version}")
    rng = np.random.default_rng([cfg.seed, index])
    units = _sample_events(cfg, rng)
    rng.shuffle(units)
    split = int(round(len(units) * (0.45 + 0.1 * rng.random())))

    r = _Renderer(bank, rng)
    r.boilerplate("kickoff")
    for pos, unit in enumerate(units):
        if pos == split:
            r.boilerplate("halftime")
            r.boilerplate("second_half")
        if rng.random() < cfg.filler_rate:
            r.filler()
        if unit.combo is not None:
            r.combo(unit.combo, unit.events[0], unit.events[1])
        elif len(unit.events) == 2:
            r.single(unit.events[0])
            r.single(unit.events[1], prefer="freekick")
        elif unit.events[0].label is RawEventLabel.OFFSIDE:
            through = rng.random() < cfg.through_ball_offside_share
            r.single(unit.events[0], prefer="through" if through else "plain")
        else:
            r.single(unit.events[0])
    if split >= len(units):
        r.boilerplate("halftime")
        r.boilerplate("second_half")
    r.boilerplate("fulltime")

    script = tuple(r.script)
    instance = MatchInstance(
        id=f"synth-{cfg.seed}-{index:05d}",
        commentary=" ".join(r.sentences),
        ground_truth=integrate(tuples_of(script)),
        meta={"seed": str(cfg.seed), "index": str(index), "bank": bank.version},
    )
    return instance, script


def generate_with_scripts(cfg: GeneratorConfig, n: int) -> list[tuple[MatchInstance, EventScript]]:
    if n < 1:
        raise ValueError("n must be >= 1")
    return [generate_one(cfg, i) for i in range(n)]


def generate(cfg: GeneratorConfig, n: int) -> list[MatchInstance]:
    return [inst for inst, _ in generate_with_scripts(cfg, n)]


# --- oracle extraction ---------------------------------------------------------

_PLAYER_IN_TEXT = re.compile(rf"({PLAYER_TAG_PATTERN})\((Home|Away) Team\)")

_SIDE = {"Home": TeamSide.HOME, "Away": TeamSide.AWAY}

# Best-effort keyword fallback for text that is not from the template bank;
# priority matters (e.g. "second yellow" before "yellow card").
_FALLBACK_KEYWORDS: tuple[tuple[str, RawEventLabel], ...] = (
    ("second yellow", RawEventLabel.SECOND_YELLOW_CARD),
    ("yellow card", RawEventLabel.YELLOW_CARD),
    ("red card", RawEventLabel.RED_CARD),
    ("sent off", RawEventLabel.RED_CARD),
    ("penalty", RawEventLabel.PENALTY),
    ("free kick", RawEventLabel.FREE_KICK),
    ("corner", RawEventLabel.CORNER_KICK),
    ("offside", RawEventLabel.OFFSIDE),
    ("handball", RawEventLabel.HANDBALL),
    ("dangerous play", RawEventLabel.DANGEROUS_PLAY),
    ("foul", RawEventLabel.FOUL),
    ("scores", RawEventLabel.GOAL),
    ("goal", RawEventLabel.GOAL),
    ("saved", RawEventLabel.SAVED_ATTEMPT),
    ("blocked", RawEventLabel.BLOCKED_ATTEMPT),
    ("miss", RawEventLabel.MISSED_ATTEMPT),
    ("shot", RawEventLabel.SHOT),
)


# Bank sentences name a small tuple vocabulary (sides x labels x player tags);
# the bound caps what foreign text can make the cache hold.
@lru_cache(maxsize=4096)
def _tuple_of(side_text: str, label: RawEventLabel, player: str | None) -> EventTuple:
    return EventTuple(team=_SIDE[side_text], label=label, player=player)


def _entry_tuples(entry: _Entry, m: re.Match[str]) -> list[EventTuple]:
    out = []
    for label, who in entry.events:
        if who == "player":
            side_text, player = m.group("p1t", "p1")
        elif who == "player2":
            side_text, player = m.group("p2t", "p2")
        else:
            side_text, player = m.group("team"), None
        out.append(_tuple_of(side_text, label, player))
    return out


def _best_effort(sentence: str) -> list[EventTuple]:
    folded = sentence.lower()
    for keyword, label in _FALLBACK_KEYWORDS:
        if keyword in folded:
            m = _PLAYER_IN_TEXT.search(sentence)
            if m:
                return [EventTuple(team=_SIDE[m.group(2)], label=label, player=m.group(1))]
            if "home team" in folded:
                return [EventTuple(team=TeamSide.HOME, label=label)]
            if "away team" in folded:
                return [EventTuple(team=TeamSide.AWAY, label=label)]
            return []
    return []


def oracle_extract(commentary: str, bank: TemplateBank | None = None) -> list[EventTuple]:
    """Recover event tuples from commentary.

    Exact on generator output (one tuple per scripted event); best effort
    elsewhere. Each sentence takes the first bank entry that fullmatches it.
    Only the bank's index candidates are tried, but they include every entry
    that could match and come in bank order, so the first match is the same
    as in a scan of the whole bank.
    """
    bank = bank or default_bank()
    tuples: list[EventTuple] = []
    for sentence in _SENTENCE_SPLIT.split(commentary.strip()):
        if not sentence:
            continue
        for entry in bank.candidates(sentence):
            if entry.keyword and entry.keyword not in sentence:
                continue
            m = entry.pattern.fullmatch(sentence)
            if m:
                tuples.extend(_entry_tuples(entry, m))
                break
        else:
            tuples.extend(_best_effort(sentence))
    return tuples


# --- anonymization -------------------------------------------------------------

@dataclass(frozen=True)
class AnonymizedText:
    text: str
    unmatched: tuple[str, ...]


_CAP_RUN = re.compile(r"\b[A-Z][a-z]+(?:\s+[A-Z][a-z]+)*\b")
_SENTENCE_START = re.compile(r"(?:\A|[.!?]\s+)\Z")
_CAP_STOPWORDS = frozenset({
    "Home", "Away", "Team", "The", "A", "An", "And", "Final", "Goal", "Foul",
    "Offside", "Yellow", "Red", "Card", "Players", "Handball", "Dangerous",
})


def anonymize(
    text: str,
    roster: Mapping[str, tuple[TeamSide, int]],
    team_names: Mapping[str, TeamSide] | None = None,
) -> AnonymizedText:
    """Replace roster names with Player<n>(<side> Team) tags, longest match first.

    Team names map to "Home Team"/"Away Team". Idempotent; capitalized names
    that matched nothing are left intact and reported.
    """
    replacements: dict[str, str] = {}
    for name, (side, number) in roster.items():
        if number < 1:
            raise ValueError(f"player number for {name!r} must be positive")
        replacements[name] = f"Player{number}({side.display})"
    for name, side in (team_names or {}).items():
        replacements[name] = side.display
    result = text
    if replacements:
        ordered = sorted(replacements, key=len, reverse=True)
        pattern = re.compile(r"\b(?:" + "|".join(re.escape(n) for n in ordered) + r")\b")
        result = pattern.sub(lambda m: replacements[m.group(0)], text)

    unmatched: list[str] = []
    for m in _CAP_RUN.finditer(result):
        words = m.group(0).split()
        if all(w in _CAP_STOPWORDS for w in words):
            continue
        at_sentence_start = bool(_SENTENCE_START.search(result[: m.start()]))
        if len(words) == 1 and at_sentence_start:
            continue
        unmatched.append(m.group(0))
    return AnonymizedText(text=result, unmatched=tuple(dict.fromkeys(unmatched)))


# --- dataset files ---------------------------------------------------------------

def _instance_to_record(inst: MatchInstance) -> dict:
    return {
        "id": inst.id,
        "commentary": inst.commentary,
        "table": table_to_rows(inst.ground_truth) if inst.ground_truth else None,
        "meta": dict(inst.meta),
    }


def _instance_from_record(record: dict) -> MatchInstance:
    table = record.get("table")
    return MatchInstance(
        id=str(record["id"]),
        commentary=string_field(record, "commentary"),
        ground_truth=None if table is None else table_from_rows(table),
        meta={str(k): str(v) for k, v in (record.get("meta") or {}).items()},
    )


def write_dataset(instances: Iterable[MatchInstance], path: str | Path) -> None:
    write_jsonl(map(_instance_to_record, instances), path)


def read_dataset(path: str | Path) -> list[MatchInstance]:
    return read_jsonl(path, _instance_from_record)
