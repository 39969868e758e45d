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
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

# DatasetError is what read_dataset raises; importers catch it from here too
from .jsonl import DatasetError, known_keys, read_jsonl, string_field, table_to_rows, to_json, write_lines
from .model import (
    DECORATED_TAG,
    EVENT_ORDER,
    PLAYER_TAG_PATTERN,
    TEAM_ORDER,
    EventTuple,
    EventType,
    MatchInstance,
    RawEventLabel,
    SummaryTable,
    TeamSide,
    event_named,
)
from .rng import Rng
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
MAX_MEAN = 1000.0  # the largest per-team rate of one event class per match; the defaults are below 13


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

    def __post_init__(self) -> None:
        # replace() runs this again, so with_means is checked too
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for event, mean in self.means.items():
            if not 0 <= mean <= MAX_MEAN:  # NaN fails too
                raise ValueError(f"the {event.name.lower()} mean must be from 0 to {MAX_MEAN:g}, got {mean!r}")

    def with_means(self, **overrides: float) -> "GeneratorConfig":
        means = dict(self.means)
        for name, value in overrides.items():
            event = event_named(name)
            if event is None:
                raise ValueError(f"unknown event {name!r}; valid: {', '.join(e.name.lower() for e in EVENT_ORDER)}")
            means[event] = value
        return replace(self, means=means)


@dataclass(frozen=True, slots=True)
class ScriptedEvent:
    team: TeamSide
    label: RawEventLabel
    player: str | None
    template_id: str


EventScript = tuple[ScriptedEvent, ...]


# --- template bank -----------------------------------------------------------

_PLACEHOLDER = re.compile(r"\{([a-z0-9_]+)\}")
# a sentence ends at . ! or ? that whitespace follows; the mark is captured
# so that _sentences can give it back to its sentence
_SENTENCE_END = re.compile(r"([.!?])\s+")
# What each named slot matches in the oracle's patterns; the generator fills
# named slots from its context and draws the bank's flavor slots.
_NAMED_GROUPS = {
    "player": rf"(?P<p1>{PLAYER_TAG_PATTERN})\((?P<p1t>Home|Away) Team\)",
    "player2": rf"(?P<p2>{PLAYER_TAG_PATTERN})\((?P<p2t>Home|Away) Team\)",
    "team": r"(?P<team>Home|Away) Team",
    "opponent": r"(?P<opp>Home|Away) Team",
    "scoreline": r"Home Team \d+, Away Team \d+",
}


@dataclass(frozen=True)
class _Entry:
    id: str
    text: str
    events: tuple[tuple[RawEventLabel, str], ...]  # (label, who)
    actor2: str  # "same" | "opponent"
    # the text split at its placeholders: literal, slot, literal, ..., literal,
    # where a slot is a named slot's name or a flavor slot's options
    parts: tuple[str | tuple[str, ...], ...]
    named: frozenset[str]  # the named slots the text uses


def _pattern(entry: _Entry) -> re.Pattern[str]:
    """The oracle's fullmatch pattern of ``entry``; generation compiles none."""
    return re.compile("".join(
        re.escape(part) if i % 2 == 0
        else _NAMED_GROUPS[part] if isinstance(part, str)
        else "(?:" + "|".join(re.escape(o) for o in part) + ")"
        for i, part in enumerate(entry.parts)
    ))


# how many word sets TemplateBank.candidates keeps the candidates of; bank
# text holds a few dozen
_WORD_SETS_KEPT = 4096
_SENTENCES_KEPT = 16384  # how many sentences' tuples a TemplateBank keeps; 200 generated instances hold ~7,400


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

        def build(item: Mapping) -> _Entry:
            text = item["text"]
            parts = _PLACEHOLDER.split(text)
            for name in parts[1::2]:
                if name not in _NAMED_GROUPS and name not in self.slots:
                    raise ValueError(f"template {item['id']} uses undefined slot {name!r}")
            named = [name for name in parts[1::2] if name in _NAMED_GROUPS]
            if len(set(named)) != len(named):
                raise ValueError(f"template {item['id']} uses a named slot twice")
            if re.search(r"[.!?].", text):
                raise ValueError(f"template {item['id']} has internal sentence punctuation")
            return _Entry(
                id=item["id"],
                text=text,
                events=tuple((RawEventLabel(e["label"]), e["who"]) for e in item.get("events", ())),
                actor2=item.get("actor2", "same"),
                parts=tuple(
                    part if i % 2 == 0 or part in _NAMED_GROUPS else tuple(self.slots[part])
                    for i, part in enumerate(parts)
                ),
                named=frozenset(named),
            )

        self.events: dict[RawEventLabel, list[_Entry]] = {
            RawEventLabel(label): list(map(build, items)) for label, items in data["events"].items()
        }
        self.combos: dict[str, list[_Entry]] = {name: list(map(build, items)) for name, items in data["combos"].items()}
        self.fillers: tuple[_Entry, ...] = tuple(map(build, data["fillers"]))
        self.boilerplate: dict[str, list[_Entry]] = {
            name: [build({"id": f"{name}-{j}", "text": line}) for j, line in enumerate(lines)]
            for name, lines in data["boilerplate"].items()
        }
        # bank order: the oracle takes the first entry that matches
        self.entries: tuple[_Entry, ...] = tuple(chain(
            *self.events.values(), *self.combos.values(), self.fillers, *self.boilerplate.values()
        ))
        self._pools: dict[tuple[RawEventLabel, str | None], list[_Entry]] = {}

        # Index for oracle_extract: each entry is filed under the literal word
        # of its template that the fewest entries share.
        words = [set(_literal_words(e.text)) for e in self.entries]
        share = Counter(w for ws in words for w in ws)
        index_words = []
        for entry, ws in zip(self.entries, words):
            if not ws:
                raise ValueError(f"template {entry.id} has no literal word to index it by")
            index_words.append(min(sorted(ws), key=share.__getitem__))
        self._index_words: tuple[str, ...] = tuple(index_words)
        self._index_word_set = frozenset(index_words)
        # the candidates of each set of index words that a sentence held
        self._candidates_of: dict[frozenset[str], tuple[tuple[_Entry, re.Pattern[str]], ...]] = {}
        # the tuples oracle_extract read from each sentence
        self._tuples_of: dict[str, tuple[EventTuple, ...]] = {}

    def pool(self, label: RawEventLabel, prefer: str | None = None) -> list[_Entry]:
        """The templates of ``label``; those whose id contains ``prefer`` if there are any."""
        pool = self._pools.get((label, prefer))
        if pool is None:
            pool = self.events[label]
            if prefer is not None:
                pool = [e for e in pool if prefer in e.id] or pool
            self._pools[label, prefer] = pool
        return pool

    def candidates(self, sentence: str) -> tuple[tuple[_Entry, re.Pattern[str]], ...]:
        """(entry, pattern) pairs of the entries that could fullmatch ``sentence``, in bank order.

        Every entry that matches is among them: its index word is a
        whitespace-separated token of any sentence it matches. A pattern is
        compiled when a word set that names its entry is first merged.
        """
        words = self._index_word_set.intersection(sentence.split())
        found = self._candidates_of.get(words)
        if found is None:
            found = tuple((e, _pattern(e)) for e, w in zip(self.entries, self._index_words) if w in words)
            if len(self._candidates_of) < _WORD_SETS_KEPT:  # foreign text can hold any word set
                self._candidates_of[words] = found
        return found


@lru_cache(maxsize=None)
def default_bank() -> TemplateBank:
    raw = resources.files("t3table.assets").joinpath("template_bank.json").read_text("utf-8")
    return TemplateBank(json.loads(raw))


# --- generation ---------------------------------------------------------------

_SHOT_SPLIT = (
    (0.35, RawEventLabel.SAVED_ATTEMPT),
    (0.60, RawEventLabel.BLOCKED_ATTEMPT),
    (0.85, RawEventLabel.MISSED_ATTEMPT),
    (1.01, RawEventLabel.SHOT),
)
_ALWAYS = float("inf")
_FOUL_FREE_KICK = "foul+free kick"  # the combo pool of a paired foul and free kick


class _Side:
    """One team's fixed facts, read as plain attributes in the generator's loops."""

    def __init__(self, team: TeamSide, numbers: tuple[int, int]) -> None:
        self.team = team
        self.text = team.display
        self.numbers = numbers  # (low, high + 1), as Rng.integers takes them
        self.tags = tuple(f"Player{n}" for n in range(*numbers))
        self.opponent = self  # set to the other side once both exist

    def draw_tag(self, rng: Rng) -> str:
        lo, hi = self.numbers
        return self.tags[rng.integers(lo, hi) - lo]


_HOME, _AWAY = _Side(TeamSide.HOME, (1, 19)), _Side(TeamSide.AWAY, (19, 37))
_HOME.opponent, _AWAY.opponent = _AWAY, _HOME
_SIDE_OF = {TeamSide.HOME: _HOME, TeamSide.AWAY: _AWAY}

# A sampled event: (side, label, player tag or None)
_Event = tuple[_Side, RawEventLabel, "str | None"]


class _Renderer:
    def __init__(self, bank: TemplateBank, rng: Rng) -> None:
        self.bank = bank
        self.rng = rng
        self.goals = {_HOME: 0, _AWAY: 0}
        self.sentences: list[str] = []
        self.script: list[ScriptedEvent] = []

    def _fill(self, entry: _Entry, ctx: Mapping[str, str]) -> str:
        # flavor slots draw left to right, as they stand in the text
        parts = list(entry.parts)
        for i in range(1, len(parts), 2):
            slot = parts[i]
            parts[i] = ctx[slot] if isinstance(slot, str) else slot[self.rng.integers(len(slot))]
        return "".join(parts)

    def _pick(self, pool: Sequence[_Entry]) -> _Entry:
        return pool[self.rng.integers(len(pool))]

    def scoreline(self) -> str:
        return f"Home Team {self.goals[_HOME]}, Away Team {self.goals[_AWAY]}"

    def boilerplate(self, name: str) -> None:
        for entry in self.bank.boilerplate[name]:
            ctx = {"scoreline": self.scoreline()} if "scoreline" in entry.named else {}
            self.sentences.append(self._fill(entry, ctx))

    def filler(self) -> None:
        entry = self._pick(self.bank.fillers)
        side = _HOME if self.rng.random() < 0.5 else _AWAY
        ctx = {"player": f"{side.draw_tag(self.rng)}({side.text})"}
        self.sentences.append(self._fill(entry, ctx))

    def single(self, event: _Event, prefer: str | None = None) -> None:
        side, label, player = event
        entry = self._pick(self.bank.pool(label, prefer))
        if label is RawEventLabel.GOAL:
            self.goals[side] += 1
        ctx = {"team": side.text, "opponent": side.opponent.text}
        if player:
            ctx["player"] = f"{player}({side.text})"
        if "scoreline" in entry.named:
            ctx["scoreline"] = self.scoreline()
        if "player2" in entry.named:
            other = side if entry.actor2 == "same" else side.opponent
            ctx["player2"] = f"{other.draw_tag(self.rng)}({other.text})"
        self.sentences.append(self._fill(entry, ctx))
        self.script.append(ScriptedEvent(side.team, label, player, entry.id))

    def combo(self, first: _Event, second: _Event) -> None:
        entry = self._pick(self.bank.combos[_FOUL_FREE_KICK])
        ctx = {"player": f"{first[2]}({first[0].text})", "player2": f"{second[2]}({second[0].text})"}
        self.sentences.append(self._fill(entry, ctx))
        # script order follows the template's declared event order
        for label, who in entry.events:
            side, _, player = first if who == "player" else second
            self.script.append(ScriptedEvent(side.team, label, player, entry.id))


def _label_cuts(cfg: GeneratorConfig) -> tuple[tuple[tuple[float, RawEventLabel], ...], ...]:
    """Per class in EVENT_ORDER, (cut, label) pairs in order.

    A class with one pair always gives its label and draws nothing; otherwise
    one uniform draw gives the label of the first cut above it.
    """
    handball = cfg.handball_share
    cuts = {
        EventType.GOALS: ((_ALWAYS, RawEventLabel.GOAL),),
        EventType.SHOTS: _SHOT_SPLIT,
        EventType.FOULS: (
            (handball, RawEventLabel.HANDBALL),
            (handball + cfg.dangerous_play_share, RawEventLabel.DANGEROUS_PLAY),
            (_ALWAYS, RawEventLabel.FOUL),
        ),
        EventType.YELLOW_CARDS: ((_ALWAYS, RawEventLabel.YELLOW_CARD),),
        EventType.RED_CARDS: (
            (cfg.second_yellow_share, RawEventLabel.SECOND_YELLOW_CARD),
            (_ALWAYS, RawEventLabel.RED_CARD),
        ),
        EventType.CORNER_KICKS: ((_ALWAYS, RawEventLabel.CORNER_KICK),),
        EventType.FREE_KICKS: ((cfg.penalty_share, RawEventLabel.PENALTY), (_ALWAYS, RawEventLabel.FREE_KICK)),
        EventType.OFFSIDES: ((_ALWAYS, RawEventLabel.OFFSIDE),),
    }
    return tuple(cuts[cls] for cls in EVENT_ORDER)


# A unit of narration: one event, or a foul and the free kick it gave, with
# whether the pair is told in one combo sentence.
_Unit = tuple[tuple[_Event, ...], bool]


def _sample_events(cfg: GeneratorConfig, rng: Rng) -> list[_Unit]:
    events: list[_Event] = []
    label_cuts = _label_cuts(cfg)
    for team in TEAM_ORDER:
        side = _SIDE_OF[team]
        for cls, cuts in zip(EVENT_ORDER, label_cuts):
            for _ in range(rng.poisson(cfg.means.get(cls, 0.0))):
                if len(cuts) == 1:
                    label = cuts[0][1]
                else:
                    r = rng.random()
                    for cut, label in cuts:  # stops at the first cut above r
                        if r < cut:
                            break
                player = None if label is RawEventLabel.CORNER_KICK else side.draw_tag(rng)
                events.append((side, label, player))

    # Linkage: pair plain fouls with the first unpaired opposing free kick so
    # the narration flows; the pair still contributes exactly its two tuples.
    # Kicks are taken in order, so each side's taken kicks are a prefix.
    free_kicks: dict[_Side, list[int]] = {_HOME: [], _AWAY: []}
    for i, (side, label, _) in enumerate(events):
        if label is RawEventLabel.FREE_KICK:
            free_kicks[side].append(i)
    taken = {_HOME: 0, _AWAY: 0}
    paired: dict[int, int] = {}
    for i, (side, label, _) in enumerate(events):
        if label is not RawEventLabel.FOUL:
            continue
        kicks, k = free_kicks[side.opponent], taken[side.opponent]
        if k < len(kicks) and rng.random() < cfg.foul_free_kick_link:
            paired[i] = kicks[k]
            taken[side.opponent] = k + 1

    units: list[_Unit] = []
    consumed = set(paired.values())
    for i, e in enumerate(events):
        if i in paired:
            units.append(((e, events[paired[i]]), rng.random() < cfg.combo_sentence_share))
        elif i not in consumed:
            units.append(((e,), False))
    return units


def generate_one(cfg: GeneratorConfig, index: int) -> tuple[MatchInstance, EventScript]:
    """One deterministic instance; the script is the ground-truth event list."""
    bank = default_bank()
    rng = Rng([cfg.seed, index])
    units = _sample_events(cfg, rng)
    rng.shuffle(units)
    split = round(len(units) * (0.45 + 0.1 * rng.random()))

    r = _Renderer(bank, rng)
    r.boilerplate("kickoff")
    for pos, (events, combo) in enumerate(units):
        if pos == split:
            r.boilerplate("halftime")
            r.boilerplate("second_half")
        if rng.random() < cfg.filler_rate:
            r.filler()
        if combo:
            r.combo(*events)
        elif len(events) == 2:
            r.single(events[0])
            r.single(events[1], prefer="freekick")
        elif events[0][1] is RawEventLabel.OFFSIDE:
            through = rng.random() < cfg.through_ball_offside_share
            r.single(events[0], prefer="through" if through else "plain")
        else:
            r.single(events[0])
    if split >= len(units):
        r.boilerplate("halftime")
        r.boilerplate("second_half")
    r.boilerplate("fulltime")

    script = tuple(r.script)
    instance = MatchInstance(
        id=f"synth-{cfg.seed}-{index:05d}",
        commentary=" ".join(r.sentences),
        ground_truth=integrate(script),  # integrate reads team and label, which a ScriptedEvent has
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
            m = DECORATED_TAG.search(sentence)
            if m:
                return [EventTuple(team=_SIDE[m.group(2)], label=label, player=m.group(1))]
            if "home team" in folded:
                return [EventTuple(team=TeamSide.HOME, label=label)]
            if "away team" in folded:
                return [EventTuple(team=TeamSide.AWAY, label=label)]
            return []
    return []


def _sentences(text: str) -> list[str]:
    """``text`` split after each sentence mark that whitespace follows, the whitespace dropped."""
    parts = _SENTENCE_END.split(text)  # sentence, mark, sentence, mark, ..., sentence
    parts.append("")  # the last sentence's mark
    return list(map(str.__add__, parts[::2], parts[1::2]))


def oracle_extract(commentary: str, bank: TemplateBank | None = None) -> list[EventTuple]:
    """Recover event tuples from commentary.

    Exact on generator output (one tuple per scripted event); best effort
    elsewhere. Each sentence takes the first bank entry that fullmatches it.
    Only the bank's index candidates are tried, but they include every entry
    that could match and come in bank order, so the first match is the same
    as in a scan of the whole bank. The bank remembers each sentence's tuples.
    """
    bank = bank or default_bank()
    memo = bank._tuples_of
    tuples: list[EventTuple] = []
    for sentence in _sentences(commentary.strip()):
        found = memo.get(sentence)
        if found is None:
            found = _read_sentence(bank, sentence)
            if len(memo) < _SENTENCES_KEPT:  # foreign text can hold any sentence
                memo[sentence] = found
        tuples.extend(found)
    return tuples


def _read_sentence(bank: TemplateBank, sentence: str) -> tuple[EventTuple, ...]:
    for entry, pattern in bank.candidates(sentence):
        m = pattern.fullmatch(sentence)
        if m:
            return tuple(_entry_tuples(entry, m))
    return tuple(_best_effort(sentence))


# --- dataset files ---------------------------------------------------------------

def _instance_to_record(inst: MatchInstance) -> dict:
    return {
        "id": inst.id,
        "commentary": inst.commentary,
        "table": table_to_rows(inst.ground_truth) if inst.ground_truth else None,
        "meta": dict(inst.meta),
    }


def _instance_from_record(record: dict) -> MatchInstance:
    table = record["table"]  # required: null, not a missing key, is no ground truth
    known_keys(record, {"id", "commentary", "table", "meta"}, "dataset")
    return MatchInstance(
        id=str(record["id"]),
        commentary=string_field(record, "commentary"),
        ground_truth=None if table is None else SummaryTable.from_rows(*table),
        meta={k: str(v) for k, v in record.get("meta", {}).items()},
    )


def write_dataset(instances: Iterable[MatchInstance], path: str | Path) -> None:
    write_lines((to_json(_instance_to_record(inst), (inst.id, inst.commentary, *inst.meta, *inst.meta.values()))
                 for inst in instances), path)


def read_dataset(path: str | Path) -> list[MatchInstance]:
    return read_jsonl(path, _instance_from_record)
