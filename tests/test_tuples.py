from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t3table.model import (
    EventTuple,
    RawEventLabel,
    SummaryTable,
    TeamSide,
    Unknown,
    is_player_tag,
    normalize_label,
    team_named,
)
from t3table.tuples import TupleParseReport, _read_group, integrate, parse_tuples

HOME, AWAY = TeamSide.HOME, TeamSide.AWAY


# Literal transcription of the reference counting rules, kept independent of
# the library's label-effects table on purpose.
def naive_recount(tuples):
    stats = {
        team: {
            "goals": 0, "shots": 0, "fouls": 0, "yellow cards": 0,
            "red cards": 0, "corner kicks": 0, "free kicks": 0, "offsides": 0,
        }
        for team in (HOME, AWAY)
    }
    for t in tuples:
        if isinstance(t.label, Unknown):
            continue
        event = t.label.value
        row = stats[t.team]
        if event == "goal":
            row["goals"] += 1
            row["shots"] += 1
        elif event in ("shot", "saved attempt", "blocked attempt", "missed attempt"):
            row["shots"] += 1
        elif event in ("foul", "handball", "dangerous play"):
            row["fouls"] += 1
        elif event == "yellow card":
            row["yellow cards"] += 1
        elif event in ("red card", "second yellow card"):
            row["red cards"] += 1
            if event == "second yellow card":
                row["yellow cards"] += 1
        elif event == "corner kick":
            row["corner kicks"] += 1
        elif event in ("free kick", "penalty"):
            row["free kicks"] += 1
        elif event == "offside":
            row["offsides"] += 1
    order = ["goals", "shots", "fouls", "yellow cards", "red cards", "corner kicks", "free kicks", "offsides"]
    return SummaryTable.from_rows([stats[HOME][k] for k in order], [stats[AWAY][k] for k in order])


tuple_strategy = st.builds(
    EventTuple,
    team=st.sampled_from([HOME, AWAY]),
    label=st.one_of(st.sampled_from(list(RawEventLabel)), st.builds(Unknown, st.text(max_size=5))),
    player=st.one_of(st.none(), st.integers(min_value=1, max_value=40).map(lambda n: f"Player{n}")),
)
tuple_lists = st.lists(tuple_strategy, max_size=30)


# --- parse_tuples -------------------------------------------------------------

def test_parse_three_element_tuple():
    report = parse_tuples("(Player28, Away Team, goal)")
    assert report.tuples == (EventTuple(team=AWAY, label=RawEventLabel.GOAL, player="Player28"),)
    assert report.rejected_lines == ()


def test_parse_two_element_tuple_with_numbering():
    report = parse_tuples("1. (Home Team, corner kick)")
    assert report.tuples == (EventTuple(team=HOME, label=RawEventLabel.CORNER_KICK),)


def test_parse_rejects_unresolvable_team():
    report = parse_tuples("(Player5, Blue Team, foul)")
    assert report.tuples == ()
    assert report.rejected_lines == (("(Player5, Blue Team, foul)", "unresolvable team"),)


def test_parse_tolerates_prose_and_bullets():
    text = """Here are the events:
- (Player3, Home Team, shots)
Some prose with a parenthetical (not a tuple).
* (Away Team, offside)
"""
    report = parse_tuples(text)
    assert [t.label for t in report.tuples] == [RawEventLabel.SHOT, RawEventLabel.OFFSIDE]
    assert report.rejected_lines == ()


def test_parse_unknown_label_is_value_not_error():
    report = parse_tuples("(Home Team, throw-in)")
    assert report.unknown_label_count == 1
    assert report.tuples[0].label == Unknown("throw-in")


def test_parse_non_tag_player_becomes_none():
    report = parse_tuples("(John Smith, Home Team, goal)")
    assert report.tuples == (EventTuple(team=HOME, label=RawEventLabel.GOAL, player=None),)


def test_parse_tolerates_decorated_player_tags():
    report = parse_tuples("(Player28(Away Team), Away Team, goal)")
    assert report.tuples == (EventTuple(team=AWAY, label=RawEventLabel.GOAL, player="Player28"),)


def test_parse_rejects_four_fields():
    report = parse_tuples("(a, b, c, d)")
    assert report.tuples == ()
    assert report.rejected_lines[0][1] == "expected 2 or 3 fields"


def test_parse_empty_text():
    report = parse_tuples("")
    assert report.tuples == () and report.rejected_lines == ()


# --- memoised group reading ------------------------------------------------------

_REF_PAREN_GROUP = re.compile(r"\(([^()]*)\)")
_REF_TAG_DECORATION = re.compile(r"(Player[1-9]\d*)\((?:Home|Away) Team\)")


def reference_parse_tuples(text: str) -> TupleParseReport:
    """parse_tuples as it was before groups were memoised: every group read afresh."""
    tuples, rejected, unknown = [], [], 0
    for line in text.splitlines():
        if " Team)" in line:
            line = _REF_TAG_DECORATION.sub(r"\1", line)
        for group in _REF_PAREN_GROUP.findall(line):
            parts = [p.strip() for p in group.split(",")]
            if len(parts) < 2:
                continue
            if len(parts) > 3:
                rejected.append((line.strip(), "expected 2 or 3 fields"))
                continue
            if len(parts) == 3:
                player_text, team_text, event_text = parts
            else:
                player_text = None
                team_text, event_text = parts
            team = team_named(team_text)
            if team is None:
                rejected.append((line.strip(), "unresolvable team"))
                continue
            player = player_text if player_text and is_player_tag(player_text) else None
            label = normalize_label(event_text)
            if isinstance(label, Unknown):
                unknown += 1
            tuples.append(EventTuple(team=team, label=label, player=player))
    return TupleParseReport(tuple(tuples), tuple(rejected), unknown)


_decorated_tag = st.builds(
    "Player{}({} Team)".format, st.integers(0, 40), st.sampled_from(["Home", "Away"])
)
_player_field = st.one_of(
    st.integers(0, 40).map("Player{}".format),
    _decorated_tag,
    st.sampled_from(["", "John Smith", "player3", "Player01", " Player7 "]),
)
_team_field = st.sampled_from(
    ["Home Team", "Away Team", " home ", "AWAY side", "Home and Away", "Blue Team", "Visitors", ""]
)
_label_field = st.one_of(
    st.sampled_from([label.value for label in RawEventLabel]),
    st.sampled_from(["Yellow Card!", "shots", " GOAL ", "throw-in", ""]),
    st.text(alphabet="abcfgilorstuy -!", max_size=8),
)
_group = st.one_of(
    st.builds("({}, {})".format, _team_field, _label_field),
    st.builds("({}, {}, {})".format, _player_field, _team_field, _label_field),
    st.builds("({}, {}, {}, {})".format, _player_field, _team_field, _label_field, _label_field),
    st.sampled_from(["(what a game)", "(Player3)", "()", "(,)", "(Home Team)"]),
    _decorated_tag.map("{} scores".format),
    st.text(alphabet="(), HomeAwayTmfl1\t", max_size=12),
)
_line = st.builds(
    lambda prefix, groups: prefix + " ".join(groups),
    st.sampled_from(["", "1. ", "- ", "* ", "  "]),
    st.lists(_group, max_size=4),
)


# Every line boundary of str.splitlines (checked over all of Unicode below),
# "\r\n", which it reads as one, and three characters that are not boundaries
_BOUNDARIES = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_separator = st.sampled_from(_BOUNDARIES + ("\r\n", "\x1f", "\t", " "))
_rejected_group = st.one_of(
    st.builds("({}, {}, {}, {})".format, _player_field, _team_field, _label_field, _label_field),
    st.builds("({}, {}, {})".format, _player_field, st.sampled_from(["Blue Team", "Visitors", ""]), _label_field),
)
# a group that opens on one line and closes on the next; on one line its team
# would resolve, so it is never rejected
_spanning_group = st.builds(
    "({},{}{})".format, st.sampled_from(["Home Team", "Away Team"]), st.sampled_from(_BOUNDARIES + ("\r\n",)), _label_field
)
_pieces_without_rejects = st.one_of(
    _spanning_group,
    st.builds("({}, {})".format, st.sampled_from(["Home Team", "Away Team"]), _label_field),
    # a decorated tag at a line's end, and one decorated twice
    _decorated_tag,
    st.builds("{}({} Team)".format, _decorated_tag, st.sampled_from(["Home", "Away"])),
)
_pieces = st.one_of(
    _pieces_without_rejects,
    _group,
    _rejected_group,
    st.builds("({},{}{}, {})".format, _player_field, _separator, _team_field, _label_field),
)


def _texts(pieces):
    """Pieces, each followed by a separator."""
    return st.lists(st.tuples(pieces, _separator).map("".join), max_size=10).map("".join)


def test_boundaries_are_every_splitlines_boundary():
    found = tuple(c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2)
    assert sorted(found) == sorted(_BOUNDARIES)


@pytest.mark.parametrize("boundary", _BOUNDARIES + ("\r\n",), ids=lambda b: f"U+{ord(b[0]):04X}")
def test_a_group_never_spans_a_line_boundary(boundary):
    text = f"(Home Team, goal)(Home Team,{boundary}corner kick)(Away Team, foul)"
    assert parse_tuples(text) == reference_parse_tuples(text)
    assert [t.label for t in parse_tuples(text).tuples] == [RawEventLabel.GOAL, RawEventLabel.FOUL]


def test_a_rejected_line_is_named_with_its_tag_stripped_once():
    text = "(Home Team, goal)\nPlayer5(Home Team)(Away Team) (Player5, Blue Team, goal)"
    assert parse_tuples(text).rejected_lines == (("Player5(Away Team) (Player5, Blue Team, goal)", "unresolvable team"),)
    assert parse_tuples(text) == reference_parse_tuples(text)


@settings(max_examples=300)
@given(st.one_of(
    st.lists(_line, max_size=6).map("\n".join),
    # with no rejected group, the one-pass reading is the whole answer
    _texts(_pieces_without_rejects),
    _texts(_pieces),
    # a rejected group after accepted ones
    st.builds("{}{}{}{}{}".format, st.lists(_group, max_size=4).map("\n".join), _separator, _rejected_group,
              _separator, _texts(_pieces)),
))
def test_parse_tuples_matches_reference_cold_and_warm(text):
    expected = reference_parse_tuples(text)
    _read_group.cache_clear()
    assert parse_tuples(text) == expected
    assert parse_tuples(text) == expected


def test_equal_groups_share_one_tuple():
    report = parse_tuples("(Player3, Home Team, goal)\n(Player3, Home Team, goal)")
    assert report.tuples[0] is report.tuples[1]


def test_group_cache_stays_bounded():
    _read_group.cache_clear()
    report = parse_tuples("\n".join(f"(junk{i}, Home Team, thing{i})" for i in range(10_000)))
    assert report.unknown_label_count == 10_000
    info = _read_group.cache_info()
    assert info.currsize <= info.maxsize == 4096


# --- integrate ----------------------------------------------------------------

def test_integrate_goal_counts_goal_and_shot():
    table = integrate([EventTuple(team=AWAY, label=RawEventLabel.GOAL)])
    assert table.row(AWAY) == (1, 1, 0, 0, 0, 0, 0, 0)
    assert table.row(HOME) == (0,) * 8


def test_integrate_empty_is_zero():
    assert integrate([]) == SummaryTable.zero()


def test_integrate_second_yellow_adds_yellow_and_red():
    table = integrate([
        EventTuple(team=HOME, label=RawEventLabel.SECOND_YELLOW_CARD),
        EventTuple(team=HOME, label=RawEventLabel.FOUL),
    ])
    assert table.row(HOME) == (0, 0, 1, 1, 1, 0, 0, 0)


def test_integrate_straight_red_does_not_add_yellow():
    table = integrate([EventTuple(team=HOME, label=RawEventLabel.RED_CARD)])
    assert table.row(HOME) == (0, 0, 0, 0, 1, 0, 0, 0)


@pytest.mark.parametrize(
    ("label", "column"),
    [
        (RawEventLabel.SAVED_ATTEMPT, 1),
        (RawEventLabel.BLOCKED_ATTEMPT, 1),
        (RawEventLabel.MISSED_ATTEMPT, 1),
        (RawEventLabel.HANDBALL, 2),
        (RawEventLabel.DANGEROUS_PLAY, 2),
        (RawEventLabel.PENALTY, 6),
    ],
)
def test_integrate_derived_rules(label, column):
    table = integrate([EventTuple(team=HOME, label=label)])
    expected = [0] * 8
    expected[column] = 1
    assert table.row(HOME) == tuple(expected)


@given(tuple_lists)
def test_integrate_matches_naive_recount(tuples):
    assert integrate(tuples) == naive_recount(tuples)


@given(tuple_lists, st.randoms())
def test_integrate_order_invariant(tuples, rnd):
    shuffled = list(tuples)
    rnd.shuffle(shuffled)
    assert integrate(shuffled) == integrate(tuples)


@given(tuple_lists, tuple_lists)
def test_integrate_additive(a, b):
    assert integrate(list(a) + list(b)) == integrate(a).add(integrate(b))


@given(tuple_lists)
def test_integrate_conservation(tuples):
    known = [t for t in tuples if not isinstance(t.label, Unknown)]
    doubles = sum(
        1 for t in known if t.label in (RawEventLabel.GOAL, RawEventLabel.SECOND_YELLOW_CARD)
    )
    assert sum(integrate(tuples).counts) == len(known) + doubles

