from __future__ import annotations

import copy
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from t3table.model import (
    EVENT_ORDER,
    MAX_COUNT,
    DifficultyGroup,
    EventTuple,
    EventType,
    MatchInstance,
    RawEventLabel,
    SummaryTable,
    TeamSide,
    Unknown,
    difficulty_of,
    event_named,
    normalize_label,
    team_named,
)


def test_event_order_is_canonical():
    assert [e.column_header for e in EVENT_ORDER] == [
        "Goals", "Shots", "Fouls", "Yellow Cards",
        "Red Cards", "Corner Kicks", "Free Kicks", "Offsides",
    ]


@pytest.mark.parametrize(
    ("event", "group"),
    [
        (EventType.GOALS, DifficultyGroup.EASY),
        (EventType.RED_CARDS, DifficultyGroup.EASY),
        (EventType.SHOTS, DifficultyGroup.HARD),
        (EventType.FOULS, DifficultyGroup.HARD),
        (EventType.YELLOW_CARDS, DifficultyGroup.MEDIUM),
        (EventType.CORNER_KICKS, DifficultyGroup.MEDIUM),
        (EventType.FREE_KICKS, DifficultyGroup.MEDIUM),
        (EventType.OFFSIDES, DifficultyGroup.MEDIUM),
    ],
)
def test_difficulty_partition(event, group):
    assert difficulty_of(event) is group


def test_difficulty_groups_partition_all_events():
    by_group = {g: [e for e in EVENT_ORDER if difficulty_of(e) is g] for g in DifficultyGroup}
    assert sorted(e.value for es in by_group.values() for e in es) == sorted(e.value for e in EVENT_ORDER)
    assert len(by_group[DifficultyGroup.EASY]) == 2
    assert len(by_group[DifficultyGroup.MEDIUM]) == 4
    assert len(by_group[DifficultyGroup.HARD]) == 2


@pytest.mark.parametrize(
    ("text", "label"),
    [
        ("second yellow card", RawEventLabel.SECOND_YELLOW_CARD),
        ("GOAL", RawEventLabel.GOAL),
        ("Goals", RawEventLabel.GOAL),
        ("free kicks", RawEventLabel.FREE_KICK),
        ("Yellow Card", RawEventLabel.YELLOW_CARD),
        ("saved attempt", RawEventLabel.SAVED_ATTEMPT),
        ("hand ball", RawEventLabel.HANDBALL),
        ("Corner-Kick", RawEventLabel.CORNER_KICK),
    ],
)
def test_normalize_label_synonyms(text, label):
    assert normalize_label(text) is label


def test_normalize_label_unknown_keeps_text():
    # the second call is answered from the memo and must be equal
    for _ in range(2):
        assert normalize_label("throw-in") == Unknown("throw-in")
    assert Unknown("throw-in").text == "throw-in"


def test_throw_in_absent_from_synonym_map():
    # the map must not quietly absorb non-events
    assert isinstance(normalize_label("throw in"), Unknown)


def test_normalize_label_idempotent_on_canonical():
    for label in RawEventLabel:
        assert normalize_label(label.value) is label


@given(st.text(max_size=30))
def test_normalize_label_total(text):
    result = normalize_label(text)
    assert isinstance(result, (RawEventLabel, Unknown))


@pytest.mark.parametrize("member, text", [
    *((e, e.column_header) for e in EventType),
    *((t, t.display) for t in TeamSide),
    *((label, label.text) for label in RawEventLabel),
])
def test_enum_members_are_plain_objects(member, text):
    # the text is a plain attribute, the hash is the object's identity, and
    # copies are the member itself, so identity hashes stay consistent
    assert text == member.value
    assert type(member).__hash__ is object.__hash__
    assert pickle.loads(pickle.dumps(member)) is member
    assert copy.deepcopy(member) is member
    assert copy.copy(member) is member


def test_team_side_display():
    assert TeamSide.HOME.display == "Home Team"
    assert TeamSide.AWAY.display == "Away Team"


@pytest.mark.parametrize(
    "text, team",
    [
        ("Home Team", TeamSide.HOME),
        ("the AWAY side", TeamSide.AWAY),
        ("home vs away", TeamSide.HOME),  # home wins
        ("Visitors", None),
        ("", None),
    ],
)
def test_team_named(text, team):
    assert team_named(text) is team


# \d is any Unicode decimal digit; no such character folds to a letter, so a
# table cell of digits never names a team
@given(st.from_regex(r"\A\s*\d+\s*\Z"))
def test_team_named_ignores_integer_cells(cell):
    assert team_named(cell) is None


def test_event_tuple_player_pattern():
    EventTuple(team=TeamSide.HOME, label=RawEventLabel.GOAL, player="Player28")
    with pytest.raises(ValueError):
        EventTuple(team=TeamSide.HOME, label=RawEventLabel.GOAL, player="Smith")
    with pytest.raises(ValueError):
        EventTuple(team=TeamSide.HOME, label=RawEventLabel.GOAL, player="Player0")
    # the verdict is memoized: a repeated bad value must raise again
    for _ in range(2):
        with pytest.raises(ValueError):
            EventTuple(team=TeamSide.HOME, label=RawEventLabel.GOAL, player="Player0x")


def test_summary_table_validation():
    SummaryTable.zero()
    with pytest.raises(ValueError):
        SummaryTable((0,) * 15)
    with pytest.raises(ValueError):
        SummaryTable.from_rows([0, 0, 0, 0, 0, 0, 0, -1], [0] * 8)
    with pytest.raises(ValueError):
        SummaryTable.from_rows([True, 0, 0, 0, 0, 0, 0, 0], [0] * 8)


def test_summary_table_holds_counts_up_to_max_count():
    # scores take counts as floats, which hold every integer up to MAX_COUNT
    assert float(MAX_COUNT) == MAX_COUNT and float(MAX_COUNT + 1) != MAX_COUNT + 1
    assert SummaryTable.from_rows([MAX_COUNT] + [0] * 7, [0] * 8).counts[0] == MAX_COUNT
    for count in (MAX_COUNT + 1, 10**400):
        with pytest.raises(ValueError, match="cells must be integers from 0 to"):
            SummaryTable.from_rows([count] + [0] * 7, [0] * 8)


@pytest.mark.parametrize("text, event", [
    ("Goals", EventType.GOALS), ("goal", EventType.GOALS), ("Yellow Cards", EventType.YELLOW_CARDS),
    ("yellow_cards", EventType.YELLOW_CARDS), (" YELLOW-CARD ", EventType.YELLOW_CARDS),
    ("**Free Kicks**", EventType.FREE_KICKS), ("offside", EventType.OFFSIDES),
    ("throwins", None), ("", None), ("Team", None),
])
def test_event_named(text, event):
    assert event_named(text) is event


def test_summary_table_indexing_total():
    table = SummaryTable.from_rows(list(range(8)), list(range(8, 16)))
    assert {v for _, _, v in table.cells()} == set(range(16))
    assert all(table.get(team, event) == v for team, event, v in table.cells())


def test_match_instance_requires_commentary():
    with pytest.raises(ValueError):
        MatchInstance(id="x", commentary="")


class _Asset:
    """An assets directory whose every file holds ``text``."""

    def __init__(self, text: str) -> None:
        self.text = text

    def joinpath(self, name: str) -> "_Asset":
        return self

    def read_text(self, encoding: str) -> str:
        return self.text


@pytest.mark.parametrize("synonyms, clash", [({"goal": ["strike", "Strike!"]}, None),
                                             ({"goal": ["strike"], "shot": ["Strike!"]}, "Strike!")],
                         ids=["same_label_twice", "two_labels"])
def test_a_synonym_of_two_labels_is_a_value_error(monkeypatch, synonyms, clash):
    from importlib import resources

    from t3table import model

    monkeypatch.setattr(resources, "files", lambda package: _Asset(json.dumps(synonyms)))
    if clash is None:
        assert set(model._load_synonyms().values()) == {RawEventLabel.GOAL}
        return
    with pytest.raises(ValueError, match=f"synonym {clash!r} maps to two labels"):
        model._load_synonyms()
