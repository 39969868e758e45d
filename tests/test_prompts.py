from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from t3table.prompts import (
    T2,
    T3,
    T3_DIRECT,
    T3_MERGED,
    ZERO_SHOT,
    ZERO_SHOT_COT,
    build_instruction,
    build_prompt,
    classify_prompt,
    few_shot,
    parse_count_tuples,
    parse_mode,
    render_count_tuples,
)
from t3table.model import SummaryTable

GOLDEN = Path(__file__).parent / "golden"

# pinned once from the committed asset
INSTRUCTION_SHA256 = "d531c932535bd634a288e7bbf5239de37b5e6c0a2577043f23a99f665b5a027f"

TEXT = "Player9(Home Team) commits a foul. The Away Team wins a corner kick."
TUPLES = "(Player9, Home Team, foul)\n(Away Team, corner kick)"
EXAMPLES = (
    "Live text:\nExample text.\n\nTable:\n"
    "Team,Goals,Shots,Fouls,Yellow Cards,Red Cards,Corner Kicks,Free Kicks,Offsides\n"
    "Home Team,1,1,0,0,0,0,0,0\nAway Team,0,0,0,0,0,0,0,0"
)


def test_instruction_contains_required_sentences():
    instruction = build_instruction()
    assert "please count the number of: 1.goals, 2. shots" in instruction
    assert "The second yellow card is also considered a red card." in instruction
    assert "Penalty is also considered as free kicks." in instruction
    assert "Handball and dangerous play are also considered foul." in instruction
    assert "goals and saved attempts and blocked attempts and missed attempts are considered shots" in instruction


def test_instruction_hash_pinned():
    assert hashlib.sha256(build_instruction().encode()).hexdigest() == INSTRUCTION_SHA256


GOLDEN_CASES = [
    ("zero-shot", ZERO_SHOT, 1, TEXT, None),
    ("zero-shot-cot", ZERO_SHOT_COT, 1, TEXT, None),
    ("few-shot", few_shot(1), 1, TEXT, EXAMPLES),
    ("few-shot-cot", few_shot(1, with_cot=True), 1, TEXT, EXAMPLES),
    ("t3", T3, 1, TEXT, None),
    ("t3", T3, 2, TUPLES, None),
    ("t3", T3, 3, TUPLES, None),
    ("t3m", T3_MERGED, 1, TEXT, None),
    ("t3d", T3_DIRECT, 1, TEXT, None),
    ("t3d", T3_DIRECT, 2, TUPLES, None),
    ("t3d", T3_DIRECT, 3, TUPLES, None),
    ("t2", T2, 1, TEXT, None),
]


@pytest.mark.parametrize(("name", "mode", "stage", "payload", "examples"), GOLDEN_CASES)
def test_prompt_matches_golden(name, mode, stage, payload, examples):
    messages = build_prompt(mode, stage, build_instruction(), payload, examples)
    assert [role for role, _ in messages] == ["user"]
    golden = (GOLDEN / f"prompt_{name}_stage{stage}.txt").read_text("utf-8")
    assert messages[0][1] == golden


def test_stage3_prompt_quotes_csv_sentence():
    (_, text), = build_prompt(T3, 3, build_instruction(), TUPLES)
    assert "Please only output a table with the team name in CSV format with 2 rows" in text


def test_cot_prompt_quotes_step_by_step():
    (_, text), = build_prompt(ZERO_SHOT_COT, 1, build_instruction(), TEXT)
    assert "Let's think step by step!" in text


def test_stage1_prompt_quotes_extraction_sentence():
    (_, text), = build_prompt(T3, 1, build_instruction(), TEXT)
    assert "Please extract all the relevant event from the following passage" in text


def test_empty_payload_is_fine():
    (_, text), = build_prompt(T3, 2, build_instruction(), "")
    assert text.endswith("as specified:\n\n")


@pytest.mark.parametrize(
    ("mode", "stage"),
    [(ZERO_SHOT, 2), (ZERO_SHOT, 0), (T3, 4), (T3_MERGED, 2), (T2, 3), (few_shot(2), 2)],
)
def test_invalid_mode_stage_pairs(mode, stage):
    with pytest.raises(ValueError):
        build_prompt(mode, stage, build_instruction(), TEXT)


def test_parse_mode_strings():
    assert parse_mode("t3") == T3
    assert parse_mode("T3M") == T3_MERGED
    assert parse_mode("zero-shot") == ZERO_SHOT
    assert parse_mode("few-shot:3").shots == 3
    assert parse_mode("few-shot-cot").with_cot
    with pytest.raises(ValueError, match="valid modes"):
        parse_mode("four-shot")


def test_classify_prompt_recovers_payload():
    for name, mode, stage, payload, examples in GOLDEN_CASES:
        (_, text), = build_prompt(mode, stage, build_instruction(), payload, examples)
        classified = classify_prompt(text)
        assert classified is not None, name
        template_id, recovered = classified
        assert recovered == payload
        if mode is T3 and stage == 1:
            assert template_id == "extract"


def test_count_tuple_round_trip():
    table = SummaryTable.from_rows([0, 5, 6, 1, 0, 5, 6, 6], [3, 12, 6, 0, 0, 3, 6, 2])
    rendered = render_count_tuples(table)
    assert "(Home Team, goals, 0)" in rendered
    assert parse_count_tuples(rendered) == table


@pytest.mark.parametrize("count", ["\u00b2", "9" * 5000, str(2**53 + 1), "2.5", "-1", ""],
                         ids=["superscript", "past_digit_limit", "past_max_count", "float", "negative", "empty"])
def test_parse_count_tuples_skips_a_group_whose_count_is_not_one(count):
    table = SummaryTable.from_rows([0, 5, 6, 1, 0, 5, 6, 6], [3, 12, 6, 0, 0, 3, 6, 2])
    lines = render_count_tuples(table).split("\n")
    bad = f"(Home Team, goals, {count})"
    assert parse_count_tuples("\n".join([bad] + lines[1:])) is None  # 15 cells left
    assert parse_count_tuples("\n".join([bad] + lines)) == table


def test_parse_count_tuples_needs_all_cells():
    assert parse_count_tuples("(Home Team, goals, 1)") is None
