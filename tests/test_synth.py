from __future__ import annotations

import itertools
import json
import re
import sys
import threading
from collections import Counter
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t3table import synth
from t3table.jsonl import DatasetError
from t3table.model import EventTuple, EventType, RawEventLabel, SummaryTable, TeamSide
from t3table.synth import (
    GeneratorConfig,
    default_bank,
    generate,
    generate_one,
    generate_with_scripts,
    oracle_extract,
    read_dataset,
    write_dataset,
    _best_effort,
    _entry_tuples,
    _sentences,
    _tuple_of,
)
from t3table.tuples import integrate, primary_event

HOME, AWAY = TeamSide.HOME, TeamSide.AWAY


# --- template bank sanity ---------------------------------------------------------

def test_every_label_has_three_or_more_templates():
    bank = default_bank()
    for label in RawEventLabel:
        assert len(bank.events[label]) >= 3, label


def test_templates_have_no_internal_sentence_breaks():
    bank = default_bank()
    for entry in bank.entries:
        assert not re.search(r"[.!?].", entry.text), entry.id


@pytest.mark.parametrize("text, message", [
    ("{nosuch} fouls.", "template t uses undefined slot 'nosuch'"),
    ("{player} fouls {player}.", "template t uses a named slot twice"),
    ("{player} fouls. Again", "template t has internal sentence punctuation"),
    ("{player}.", "template t has no literal word to index it by"),
], ids=["undefined_slot", "named_slot_twice", "internal_punctuation", "no_literal_word"])
def test_a_bad_template_is_a_value_error_naming_it(text, message):
    raw = {"version": "t", "slots": {}, "events": {"foul": [{"id": "t", "text": text}]}, "combos": {},
           "fillers": [], "boilerplate": {}}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synth.TemplateBank(raw)


def test_each_render_matches_exactly_one_pattern():
    # a render of every template, over every flavor-slot choice, must be
    # claimed by that template only
    bank = default_bank()
    ctx = {
        "player": "Player7(Home Team)",
        "player2": "Player21(Away Team)",
        "team": "Home Team",
        "opponent": "Away Team",
        "scoreline": "Home Team 1, Away Team 0",
    }
    placeholder = re.compile(r"\{([a-z0-9_]+)\}")
    for entry in bank.entries:
        slot_names = [n for n in placeholder.findall(entry.text) if n not in ctx]
        option_lists = [bank.slots[n] for n in slot_names]
        for combo in itertools.product(*option_lists) if option_lists else [()]:
            chosen = dict(zip(slot_names, combo))

            def fill(m):
                name = m.group(1)
                return ctx.get(name) or chosen[name]

            sentence = placeholder.sub(fill, entry.text)
            claimants = [e.id for e in bank.entries if synth._pattern(e).fullmatch(sentence)]
            assert claimants == [entry.id], f"{sentence!r} matched {claimants}"


# --- indexed oracle vs a scan of the whole bank ----------------------------------------

_BANK = default_bank()


def _raw_bank() -> dict:
    """The committed bank's JSON, to build a TemplateBank with a memo of its own."""
    return json.loads(resources.files("t3table.assets").joinpath("template_bank.json").read_text("utf-8"))


_SLOT = re.compile(r"\{([a-z0-9_]+)\}")
# the reference sentence split: after . ! or ?, at the whitespace that follows
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="ab.!? \t\n", max_size=40))
@example("")
@example(" .  a")
@example("a. . b!? \n")
def test_sentences_equal_the_lookbehind_split(text):
    assert _sentences(text) == _SENTENCE_SPLIT.split(text)


def linear_oracle_extract(commentary: str) -> list[EventTuple]:
    """Reference oracle: try every bank entry in bank order, first match wins."""
    tuples: list[EventTuple] = []
    for sentence in _SENTENCE_SPLIT.split(commentary.strip()):
        if not sentence:
            continue
        for entry in _BANK.entries:
            m = synth._pattern(entry).fullmatch(sentence)
            if m:
                tuples.extend(_entry_tuples(entry, m))
                break
        else:
            tuples.extend(_best_effort(sentence))
    return tuples


@st.composite
def _tagged_player(draw) -> str:
    return f"Player{draw(st.integers(1, 40))}({draw(st.sampled_from(['Home', 'Away']))} Team)"


@st.composite
def _bank_sentence(draw) -> str:
    """A render of any bank entry, boilerplate included, with random slot fills."""

    def fill(m: re.Match[str]) -> str:
        name = m.group(1)
        if name in ("player", "player2"):
            return draw(_tagged_player())
        if name in ("team", "opponent"):
            return draw(st.sampled_from(["Home Team", "Away Team"]))
        if name == "scoreline":
            return f"Home Team {draw(st.integers(0, 9))}, Away Team {draw(st.integers(0, 9))}"
        return draw(st.sampled_from(_BANK.slots[name]))

    return _SLOT.sub(fill, draw(st.sampled_from(_BANK.entries)).text)


@st.composite
def _keyword_mix(draw) -> str:
    """Foreign sentence carrying the longest literals of two bank entries."""
    first, second = (
        max((literal.strip() for literal in _SLOT.split(entry.text)[::2]), key=len)
        for entry in (draw(st.sampled_from(_BANK.entries)), draw(st.sampled_from(_BANK.entries)))
    )
    tail = draw(st.sampled_from(["", " Home Team", " from close range", " is saved"]))
    return f"{draw(_tagged_player())} {first} {second}{tail}."


_foreign = st.text(alphabet="abcdefHPTlayerom ()0123456789.,!?-'", max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_bank_sentence(), _keyword_mix(), _foreign), max_size=12).flatmap(st.permutations))
@example([])
@example(["   "])
@example(["Player3(Away Team) scores with a left-footed shot from close range, Home Team 0, Away Team 1."])
@example(["Player3(Away Team)'s left-footed shot from close range is saved in the top left corner."])
def test_indexed_oracle_equals_linear_scan(sentences):
    commentary = " ".join(sentences)
    expected = linear_oracle_extract(commentary)
    assert oracle_extract(commentary) == expected
    bank = synth.TemplateBank(_raw_bank())
    assert oracle_extract(commentary, bank) == expected  # cold: each sentence read from the templates
    assert oracle_extract(commentary, bank) == expected  # warm: each sentence from the bank's memo


def test_oracle_is_exact_when_the_candidate_memo_is_full(monkeypatch):
    monkeypatch.setattr(synth, "_WORD_SETS_KEPT", 0)
    bank = synth.TemplateBank(_raw_bank())
    for inst in generate(GeneratorConfig(seed=19), 5):
        assert oracle_extract(inst.commentary, bank) == oracle_extract(inst.commentary)
    assert bank._candidates_of == {}


def test_oracle_is_exact_when_the_sentence_memo_is_full(monkeypatch):
    monkeypatch.setattr(synth, "_SENTENCES_KEPT", 0)
    bank = synth.TemplateBank(_raw_bank())
    for inst in generate(GeneratorConfig(seed=19), 5):
        assert oracle_extract(inst.commentary, bank) == linear_oracle_extract(inst.commentary)
    assert bank._tuples_of == {}


def test_sentence_memo_stays_bounded():
    bank = synth.TemplateBank(_raw_bank())
    foreign = " ".join(f"Minute {i} passes quietly." for i in range(20_000))
    assert oracle_extract(foreign + " Foul by Player7(Away Team).", bank) == [
        EventTuple(AWAY, RawEventLabel.FOUL, "Player7")
    ]  # a sentence past the bound is still read
    assert len(bank._tuples_of) == synth._SENTENCES_KEPT  # the first sentences are kept
    assert "Minute 0 passes quietly." in bank._tuples_of


def test_oracle_reads_each_distinct_sentence_once(monkeypatch):
    bank = synth.TemplateBank(_raw_bank())
    commentary = " ".join(inst.commentary for inst in generate(GeneratorConfig(seed=19), 5))
    read = Counter()
    real = synth._read_sentence

    def counted(bank, sentence):
        read[sentence] += 1
        return real(bank, sentence)

    monkeypatch.setattr(synth, "_read_sentence", counted)
    first = oracle_extract(commentary, bank)
    assert oracle_extract(commentary, bank) == first == linear_oracle_extract(commentary)
    assert read == Counter(set(_sentences(commentary)))


def test_threads_sharing_a_bank_read_what_one_thread_reads(monkeypatch):
    monkeypatch.setattr(synth, "_SENTENCES_KEPT", 64)  # the bound is reached while threads race
    commentaries = [inst.commentary for inst in generate(GeneratorConfig(seed=23), 8)]
    expected = [linear_oracle_extract(c) for c in commentaries]
    bank = synth.TemplateBank(_raw_bank())
    results: dict[int, list] = {}

    def work(i: int) -> None:
        for _ in range(3):
            results[i] = [oracle_extract(c, bank) for c in commentaries[i:] + commentaries[:i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[i] == expected[i:] + expected[:i] for i in range(8))
    # a race can only read a sentence twice, or let each thread past the bound once
    assert len(bank._tuples_of) < 64 + 8
    assert all(bank._tuples_of[s] == synth._read_sentence(bank, s) for s in bank._tuples_of)


def test_a_bank_reads_only_its_own_memo(monkeypatch):
    monkeypatch.setattr(default_bank(), "_tuples_of", {})  # room to keep the sentence, whatever ran before
    raw = _raw_bank()
    for item in raw["events"]["foul"]:
        for event in item["events"]:
            event["label"] = "handball"
    custom = synth.TemplateBank(raw)
    sentence = "Foul by Player7(Away Team)."
    foul, handball = (EventTuple(AWAY, label, "Player7") for label in (RawEventLabel.FOUL, RawEventLabel.HANDBALL))
    assert oracle_extract(sentence) == [foul]  # the default bank's memo now holds the sentence
    assert oracle_extract(sentence, custom) == [handball]
    assert oracle_extract(sentence, custom) == [handball]
    assert oracle_extract(sentence) == [foul]
    assert default_bank()._tuples_of[sentence] == (foul,) and custom._tuples_of[sentence] == (handball,)


def test_generation_compiles_no_oracle_pattern(monkeypatch):
    def refuse(entry):
        raise RuntimeError(f"compiled the pattern of {entry.id}")

    monkeypatch.setattr(synth, "_pattern", refuse)
    raw = resources.files("t3table.assets").joinpath("template_bank.json").read_text("utf-8")
    bank = synth.TemplateBank(json.loads(raw))
    monkeypatch.setattr(synth, "default_bank", lambda: bank)
    instances = generate(GeneratorConfig(seed=23), 3)
    # the oracle on the same bank does compile, so the patch is in effect
    with pytest.raises(RuntimeError, match="compiled the pattern"):
        oracle_extract(instances[0].commentary, bank)


# --- generator ---------------------------------------------------------------------

def test_all_zero_means_yields_boilerplate_only():
    cfg = GeneratorConfig(seed=1).with_means(
        goals=0, shots=0, fouls=0, yellow_cards=0, red_cards=0,
        corner_kicks=0, free_kicks=0, offsides=0,
    )
    inst, script = generate_one(cfg, 0)
    assert script == ()
    assert inst.ground_truth == SummaryTable.zero()
    assert "Final score, Home Team 0, Away Team 0." in inst.commentary
    assert oracle_extract(inst.commentary) == []


def test_with_means_resolves_names_as_event_named_does():
    cfg = GeneratorConfig().with_means(**{"Yellow Cards": 0.5, "red_card": 2.0, "GOALS": 3.0})
    assert (cfg.means[EventType.YELLOW_CARDS], cfg.means[EventType.RED_CARDS], cfg.means[EventType.GOALS]) == (0.5, 2.0, 3.0)
    with pytest.raises(ValueError, match="unknown event 'throwins'; valid: goals, shots, .*, offsides"):
        GeneratorConfig().with_means(throwins=1.0)


def test_generation_deterministic_bytes():
    cfg = GeneratorConfig(seed=42)
    a = generate(cfg, 8)
    b = generate(cfg, 8)
    assert [x.commentary for x in a] == [y.commentary for y in b]
    assert [x.ground_truth for x in a] == [y.ground_truth for y in b]
    assert [x.id for x in a] == [y.id for y in b]


def test_different_seeds_differ():
    a = generate(GeneratorConfig(seed=1), 1)[0]
    b = generate(GeneratorConfig(seed=2), 1)[0]
    assert a.commentary != b.commentary


def test_ground_truth_is_integration_of_script():
    for inst, script in generate_with_scripts(GeneratorConfig(seed=5), 10):
        assert integrate([EventTuple(team=e.team, label=e.label, player=e.player) for e in script]) == inst.ground_truth


def test_closed_loop_small_batch():
    for inst, script in generate_with_scripts(GeneratorConfig(seed=17), 50):
        extracted = oracle_extract(inst.commentary)
        assert integrate(extracted) == inst.ground_truth
        assert Counter(EventTuple(team=e.team, label=e.label, player=e.player) for e in script) == Counter(extracted)


def test_score_boilerplate_carries_final_score():
    inst, script = generate_one(GeneratorConfig(seed=23), 4)
    truth = inst.ground_truth
    expected = (
        f"Final score, Home Team {truth.get(HOME, EventType.GOALS)}, "
        f"Away Team {truth.get(AWAY, EventType.GOALS)}."
    )
    assert inst.commentary.endswith(expected)
    assert "At the end of the first half, the score is Home Team " in inst.commentary


def test_generated_corpus_covers_derived_rules():
    scripts = [s for _, s in generate_with_scripts(GeneratorConfig(seed=42), 400)]
    labels = Counter(e.label for s in scripts for e in s)
    for needed in (
        RawEventLabel.GOAL,
        RawEventLabel.SECOND_YELLOW_CARD,
        RawEventLabel.RED_CARD,
        RawEventLabel.PENALTY,
        RawEventLabel.HANDBALL,
        RawEventLabel.DANGEROUS_PLAY,
    ):
        assert labels[needed] > 0, needed


def test_empirical_rates_track_configured_means():
    # law-of-large-numbers check against the configured per-class Poisson rates
    cfg = GeneratorConfig(seed=42)
    counts: Counter[EventType] = Counter()
    n = 10_000
    for _, script in generate_with_scripts(cfg, n):
        for event in script:
            counts[primary_event(event.label)] += 1
    for event_type, mean in cfg.means.items():
        empirical = counts[event_type] / (2 * n)
        assert abs(empirical - mean) / mean < 0.05, (event_type, empirical, mean)


def test_generate_rejects_bad_n():
    with pytest.raises(ValueError):
        generate(GeneratorConfig(), 0)


def test_oracle_extract_example_sentences():
    assert oracle_extract("Player9(Home Team) commits a foul.") == [
        EventTuple(team=HOME, label=RawEventLabel.FOUL, player="Player9")
    ]
    assert oracle_extract("Final score, Home Team 0, Away Team 3.") == []


def test_oracle_best_effort_on_foreign_text():
    tuples = oracle_extract("PlayerX(Home Team) commits a foul.")
    assert len(tuples) == 1
    assert tuples[0].team is HOME and tuples[0].label is RawEventLabel.FOUL
    assert oracle_extract("The referee checks his watch.") == []
    # unlike model.team_named, which reads "home" or "away" anywhere in the
    # text, the fallback takes a side only from a tagged player or a named team
    assert oracle_extract("The ball is cleared away for a corner.") == []
    assert oracle_extract("Home fans cheer as the Away Team wins a corner.") == [
        EventTuple(team=AWAY, label=RawEventLabel.CORNER_KICK)
    ]


def test_combo_sentences_carry_two_tuples():
    sentence = "Player6(Home Team) commits a foul on Player23(Away Team), resulting in a free kick being awarded on the left wing."
    extracted = oracle_extract(sentence)
    assert Counter((t.team, t.label) for t in extracted) == Counter(
        [(HOME, RawEventLabel.FOUL), (AWAY, RawEventLabel.FREE_KICK)]
    )


# --- dataset files ---------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    instances = generate(GeneratorConfig(seed=9), 100)
    path = tmp_path / "data.jsonl"
    write_dataset(instances, path)
    loaded = read_dataset(path)
    assert loaded == instances


def test_dataset_null_table(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": "a", "commentary": "text", "table": null, "meta": {}}\n')
    loaded = read_dataset(path)
    assert loaded[0].ground_truth is None


def test_dataset_bad_table_shape(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": "a", "commentary": "x", "table": [[0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0]]}\n')
    with pytest.raises(DatasetError, match="bad record at line 1 .*ValueError: summary table must be 2x8"):
        read_dataset(path)


def test_dataset_fuzzed_table_shapes(tmp_path):
    import json
    import random as rnd_mod

    rnd = rnd_mod.Random(3)
    path = tmp_path / "data.jsonl"
    for _ in range(50):
        rows = rnd.randint(0, 4)
        table = [[0] * rnd.randint(0, 10) for _ in range(rows)]
        good = rows == 2 and all(len(r) == 8 for r in table)
        path.write_text(json.dumps({"id": "a", "commentary": "x", "table": table}) + "\n")
        if good:
            read_dataset(path)
        else:
            # a row too many or too few is a TypeError of the call, a row of another length a ValueError
            with pytest.raises(DatasetError, match=r"bad record at line 1 .*(from_rows\(\)|summary table must be 2x8)"):
                read_dataset(path)


def test_dataset_duplicate_id(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"id": "a", "commentary": "x", "table": null}\n'
        '{"id": "a", "commentary": "y", "table": null}\n'
    )
    with pytest.raises(DatasetError, match="duplicate id 'a' at line 2"):
        read_dataset(path)


def test_dataset_invalid_json_names_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": "a", "commentary": "x", "table": null}\n{broken\n')
    with pytest.raises(DatasetError, match="line 2"):
        read_dataset(path)


def test_tuple_cache_stays_bounded():
    # 10,000 distinct player tags through one bank template
    _tuple_of.cache_clear()
    tuples = oracle_extract(" ".join(f"Player{i}(Home Team) commits a foul." for i in range(1, 10_001)))
    assert [t.player for t in tuples] == [f"Player{i}" for i in range(1, 10_001)]
    info = _tuple_of.cache_info()
    assert info.currsize <= info.maxsize == 4096
