from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from t3table.model import EVENT_ORDER, MAX_COUNT, SummaryTable, TeamSide
from t3table.tableio import _EMITTED_CSV, CSV_HEADER, _parse_tolerant, count_of, parse_model_table, to_csv

from conftest import EXAMPLE_TRUTH

tables = st.builds(
    SummaryTable.from_rows,
    st.lists(st.integers(min_value=0, max_value=30), min_size=8, max_size=8),
    st.lists(st.integers(min_value=0, max_value=30), min_size=8, max_size=8),
)


def test_to_csv_zero_table():
    assert to_csv(SummaryTable.zero()) == (
        "Team,Goals,Shots,Fouls,Yellow Cards,Red Cards,Corner Kicks,Free Kicks,Offsides\n"
        "Home Team,0,0,0,0,0,0,0,0\n"
        "Away Team,0,0,0,0,0,0,0,0"
    )


def test_to_csv_example_ground_truth():
    lines = to_csv(EXAMPLE_TRUTH).splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "Home Team,0,5,6,1,0,5,6,6"
    assert lines[2] == "Away Team,3,12,6,0,0,3,6,2"


def test_to_csv_has_no_trailing_whitespace():
    text = to_csv(EXAMPLE_TRUTH)
    assert "\r" not in text
    assert all(line == line.rstrip() for line in text.splitlines())


@given(tables)
def test_round_trip(table):
    outcome = parse_model_table(to_csv(table))
    assert outcome.is_ok and outcome.table == table


# the zero digit of Arabic-Indic, Devanagari and fullwidth digits
_UNICODE_ZEROS = ("\u0660", "\u0966", "\uff10")


def _spelled(value: str, kind: str, zero: str) -> str:
    if kind == "leading_zeros":
        return "00" + value
    if kind == "unicode_digits":
        return value.translate({ord("0") + i: ord(zero) + i for i in range(10)})
    return f" {value} "  # padded


@st.composite
def perturbed_csv(draw) -> str:
    """to_csv of a table, then any of: cells respelled, columns reordered, a row
    added, a trailing newline, CRLF line ends, a markdown code fence."""
    rows = [line.split(",") for line in to_csv(draw(tables)).split("\n")]
    for _ in range(draw(st.integers(0, 3))):
        row, col = draw(st.integers(1, 2)), draw(st.integers(1, 8))
        kind = draw(st.sampled_from(["leading_zeros", "unicode_digits", "padded"]))
        rows[row][col] = _spelled(rows[row][col], kind, draw(st.sampled_from(_UNICODE_ZEROS)))
    if draw(st.booleans()):
        order = draw(st.permutations(range(9)))
        rows = [[row[i] for i in order] for row in rows]
    if draw(st.booleans()):
        extra = [draw(st.sampled_from(["Total", "Home Team", "Away Team"]))] + [str(draw(st.integers(0, 9)))] * 8
        rows.insert(draw(st.integers(1, len(rows))), extra)
    text = "\n".join(",".join(row) for row in rows)
    if draw(st.booleans()):
        text += "\n"
    if draw(st.booleans()):
        text = "```csv\n" + text + "\n```"
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text


@given(tables)
def test_emitted_csv_takes_the_fast_path(table):
    assert _EMITTED_CSV.fullmatch(to_csv(table)) is not None


@given(perturbed_csv())
def test_fast_path_agrees_with_the_tolerant_parser(text):
    assert parse_model_table(text) == _parse_tolerant(text)


def test_parse_markdown_pipe_table():
    text = """Sure! Here is the summary table:

| Team | Goals | Shots | Fouls | Yellow Cards | Red Cards | Corner Kicks | Free Kicks | Offsides |
|------|-------|-------|-------|--------------|-----------|--------------|------------|----------|
| Home Team | 0 | 5 | 6 | 1 | 0 | 5 | 6 | 6 |
| Away Team | 3 | 12 | 6 | 0 | 0 | 3 | 6 | 2 |
"""
    outcome = parse_model_table(text)
    assert outcome.is_ok and outcome.table == EXAMPLE_TRUTH


def test_parse_markdown_equals_csv_parse():
    md_rows = "\n".join(
        "| " + " | ".join([team.display] + [str(v) for v in EXAMPLE_TRUTH.row(team)]) + " |"
        for team in TeamSide
    )
    md = "| " + " | ".join(["Team"] + [e.column_header for e in EVENT_ORDER]) + " |\n" + md_rows
    assert parse_model_table(md).table == parse_model_table(to_csv(EXAMPLE_TRUTH)).table


def test_parse_prose_only_is_malformed():
    outcome = parse_model_table("The home team played well and scored three goals.")
    assert not outcome.is_ok
    assert outcome.reason_code == "no_table_found"


def test_parse_column_permutation_invariance():
    rnd = random.Random(13)
    base_cols = list(range(8))
    for _ in range(25):
        perm = base_cols[:]
        rnd.shuffle(perm)
        header = "Team," + ",".join(EVENT_ORDER[i].column_header for i in perm)
        rows = [
            team.display + "," + ",".join(str(EXAMPLE_TRUTH.row(team)[i]) for i in perm)
            for team in TeamSide
        ]
        outcome = parse_model_table("\n".join([header, *rows]))
        assert outcome.is_ok and outcome.table == EXAMPLE_TRUTH


def test_parse_row_order_invariance():
    lines = to_csv(EXAMPLE_TRUTH).splitlines()
    swapped = "\n".join([lines[0], lines[2], lines[1]])
    outcome = parse_model_table(swapped)
    assert outcome.is_ok and outcome.table == EXAMPLE_TRUTH


def test_parse_header_case_and_spacing_fuzzy():
    text = "team,goals,shots,fouls,yellowcards,RED CARDS,Corner kicks,free_kicks,OffSides\nhome,1,2,3,4,5,6,7,8\nthe away side,8,7,6,5,4,3,2,1"
    outcome = parse_model_table(text)
    assert outcome.is_ok
    assert outcome.table.row(TeamSide.HOME) == (1, 2, 3, 4, 5, 6, 7, 8)
    assert outcome.table.row(TeamSide.AWAY) == (8, 7, 6, 5, 4, 3, 2, 1)


@pytest.mark.parametrize("filler", ["unknown", "not mentioned", "N/A", "-", ""])
def test_parse_filler_cells_malformed(filler):
    text = to_csv(EXAMPLE_TRUTH).replace("Home Team,0", f"Home Team,{filler}")
    outcome = parse_model_table(text)
    assert not outcome.is_ok
    assert outcome.reason_code == "filler_cell"
    assert outcome.detail


def test_parse_negative_or_float_cells_malformed():
    for bad in ("-3", "2.5", "three"):
        text = to_csv(EXAMPLE_TRUTH).replace("Home Team,0", f"Home Team,{bad}")
        outcome = parse_model_table(text)
        assert not outcome.is_ok


# int() takes 4,300 digits but no float holds such a count: past MAX_COUNT a cell is not one
@pytest.mark.parametrize("cell, count", [
    ("7", 7), ("007", 7), ("\u0663", 3), ("\uff19\uff10", 90),
    pytest.param(str(MAX_COUNT), MAX_COUNT, id="at_max_count"),
    pytest.param(str(MAX_COUNT + 1), None, id="past_max_count"),
    pytest.param("9" * 4300, None, id="at_digit_limit"),
    ("", None), ("-1", None), ("2.5", None), (" 1", None), ("\u00b2", None), ("\u2460", None),
    pytest.param("9" * 5000, None, id="past_digit_limit"),
])
def test_count_of(cell, count):
    assert count_of(cell) == count


def _markdown(csv_text: str) -> str:
    rows = ["| " + " | ".join(line.split(",")) + " |" for line in csv_text.split("\n")]
    return "\n".join(rows[:1] + ["|" + "---|" * 9] + rows[1:])


# "\u00b2" (superscript two) passes str.isdigit but not int(); 5,000 digits are past int()'s limit;
# 10**400 is a count that no float holds
@pytest.mark.parametrize("cell", ["9" * 5000, "\u0669" * 5000, "\u00b2", str(10**400), str(MAX_COUNT + 1)],
                         ids=["ascii_digits", "arabic_indic_digits", "superscript", "float_overflow", "past_max_count"])
@pytest.mark.parametrize("shape", [str, _markdown], ids=["csv", "markdown"])
def test_junk_digits_are_a_bad_cell_on_both_paths(cell, shape):
    text = shape(to_csv(EXAMPLE_TRUTH).replace("Home Team,0", f"Home Team,{cell}"))
    for parse in (parse_model_table, _parse_tolerant):
        outcome = parse(text)
        assert (outcome.table, outcome.reason_code) == (None, "bad_cell")
        assert "Home Team Goals is" in outcome.detail


# a cell of up to 40 characters is quoted whole; a longer one by its first 40 and its length
@pytest.mark.parametrize("cell, code, detail", [
    ("three", "bad_cell", "'three', not a non-negative integer"),
    ("n/a", "filler_cell", "'n/a', not a count"),
    ("x" * 40, "bad_cell", f"{'x' * 40!r}, not a non-negative integer"),
    ("x" * 41, "bad_cell", f"{'x' * 40!r}... (41 characters), not a non-negative integer"),
    ("*" * 50 + "n/a", "filler_cell", f"{'*' * 40!r}... (53 characters), not a count"),
    (str(MAX_COUNT + 1), "bad_cell", f"'{MAX_COUNT + 1}', a count past {MAX_COUNT}"),
    ("9" * 5000, "bad_cell", f"{'9' * 40!r}... (5000 characters), a count past {MAX_COUNT}"),
    ("\u0669" * 5000, "bad_cell", repr("\u0669" * 40) + f"... (5000 characters), a count past {MAX_COUNT}"),
], ids=["word", "filler", "40_chars", "41_chars", "long_filler", "past_max_count", "5000_digits", "5000_arabic_indic"])
def test_cell_detail_quotes_at_most_40_characters(cell, code, detail):
    outcome = _parse_tolerant(to_csv(EXAMPLE_TRUTH).replace("Home Team,0", f"Home Team,{cell}"))
    assert (outcome.reason_code, outcome.detail) == (code, f"Home Team Goals is {detail}")


def test_parse_single_team_row_malformed():
    text = "\n".join(to_csv(EXAMPLE_TRUTH).splitlines()[:2])
    outcome = parse_model_table(text)
    assert not outcome.is_ok
    assert outcome.reason_code == "missing_team_rows"


def test_first_structurally_valid_table_wins():
    first = to_csv(EXAMPLE_TRUTH)
    second = to_csv(SummaryTable.zero())
    outcome = parse_model_table(first + "\n\nAnd another attempt:\n\n" + second)
    assert outcome.table == EXAMPLE_TRUTH


def test_parse_table_with_surrounding_chatter():
    text = (
        "Based on the tuples, the counts are as follows.\n\n"
        + to_csv(EXAMPLE_TRUTH)
        + "\n\nLet me know if you need anything else!"
    )
    assert parse_model_table(text).table == EXAMPLE_TRUTH


@given(st.text(max_size=300))
def test_parse_never_raises_on_junk(text):
    outcome = parse_model_table(text)
    assert outcome.is_ok or outcome.reason_code
