from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from t3table.autoqa import LlmQa
from t3table.backends import LlmRequest, StubBackend
from t3table.evaluation import (
    ALL_CELLS,
    QaPair,
    autoqa_coverage,
    coverage_curve,
    diagnose_tuples,
    exact_match_judge,
    render_report_text,
    report,
    score_instance,
    substring_table_answerer,
)
from t3table.model import (
    CELLS,
    DifficultyGroup,
    EventTuple,
    EventType,
    RawEventLabel,
    SummaryTable,
    TeamSide,
    Unknown,
    difficulty_of,
)
from t3table.tableio import ParsedTableOutcome

from conftest import CASE_STUDY, EXAMPLE_TRUTH, case_table

HOME, AWAY = TeamSide.HOME, TeamSide.AWAY


def random_table(rnd: random.Random, hi: int = 15) -> SummaryTable:
    return SummaryTable.from_rows(
        [rnd.randint(0, hi) for _ in range(8)], [rnd.randint(0, hi) for _ in range(8)]
    )


# --- score_instance ---------------------------------------------------------------

def test_identical_tables_score_zero():
    scores = score_instance(EXAMPLE_TRUTH, EXAMPLE_TRUTH)
    assert scores.rmse() == 0.0
    assert scores.error_rate() == 0.0
    assert all(scores.matches)


@pytest.mark.parametrize("name", sorted(CASE_STUDY))
def test_case_study_fixture_metrics(name):
    _, _, rmse, er = CASE_STUDY[name]
    scores = score_instance(case_table(name), EXAMPLE_TRUTH)
    assert abs(scores.rmse() - rmse) <= 0.001
    assert scores.error_rate() == er


def test_row_swap_invariance():
    rnd = random.Random(5)
    for _ in range(50):
        pred, truth = random_table(rnd), random_table(rnd)
        swapped_pred = SummaryTable.from_rows(pred.row(AWAY), pred.row(HOME))
        swapped_truth = SummaryTable.from_rows(truth.row(AWAY), truth.row(HOME))
        a = score_instance(pred, truth)
        b = score_instance(swapped_pred, swapped_truth)
        assert a.rmse() == b.rmse() and a.error_rate() == b.error_rate()


def test_rmse_zero_iff_error_rate_zero():
    rnd = random.Random(6)
    for _ in range(100):
        pred, truth = random_table(rnd, hi=3), random_table(rnd, hi=3)
        scores = score_instance(pred, truth)
        assert (scores.rmse() == 0.0) == (scores.error_rate() == 0.0)


# --- report ----------------------------------------------------------------------

def ok(table: SummaryTable) -> ParsedTableOutcome:
    return ParsedTableOutcome.ok(table)


def test_report_identity_pair():
    rep = report([(ok(EXAMPLE_TRUTH), EXAMPLE_TRUTH)])
    for group in rep.groups.values():
        assert group.rmse == 0.0 and group.error_rate == 0.0
    assert rep.n_instances == 1 and rep.n_filtered_malformed == 0


def test_report_case_study_per_instance_values():
    expected = {
        "claude-2.1/t3": (0.661, 25.00),
        "mistral-large/t3": (0.612, 18.75),
        "gpt-4/t3": (0.433, 18.75),
        "claude-3-opus/t3": (0.000, 0.00),
    }
    for name, (rmse, er) in expected.items():
        rep = report([(ok(case_table(name)), EXAMPLE_TRUTH)])
        avg = rep.groups["Average"]
        assert abs(avg.rmse - rmse) <= 0.001
        assert avg.error_rate == er


def test_report_filters_malformed():
    rep = report([
        (ok(EXAMPLE_TRUTH), EXAMPLE_TRUTH),
        (ParsedTableOutcome.malformed("no_table_found", "nothing"), EXAMPLE_TRUTH),
    ])
    assert rep.n_filtered_malformed == 1
    assert rep.n_instances == 1
    assert rep.groups["Average"].rmse == 0.0


def test_report_empty_scored_set_has_absent_metrics():
    rep = report([(ParsedTableOutcome.malformed("no_table_found", "x"), EXAMPLE_TRUTH)])
    assert rep.n_instances == 0
    for group in rep.groups.values():
        assert group.rmse is None and group.error_rate is None
    assert "filtered: 1" in render_report_text(rep)


def test_group_recombination_identity():
    # Average MSE must equal the cell-count weighted mean of group MSEs.
    rnd = random.Random(7)
    group_cells = {
        g: [c for c in ALL_CELLS if difficulty_of(CELLS[c][1]) is g] for g in DifficultyGroup
    }
    assert {g: len(cs) for g, cs in group_cells.items()} == {
        DifficultyGroup.EASY: 4, DifficultyGroup.MEDIUM: 8, DifficultyGroup.HARD: 4,
    }
    for _ in range(200):
        pairs = [(ok(random_table(rnd)), random_table(rnd)) for _ in range(rnd.randint(1, 5))]
        rep = report(pairs)
        weighted = sum(
            rep.groups[g.value].rmse ** 2 * len(group_cells[g]) for g in DifficultyGroup
        ) / 16.0
        assert abs(rep.groups["Average"].rmse ** 2 - weighted) < 1e-12


def test_report_per_instance_average_flag():
    pairs = [
        (ok(case_table("claude-2.1/t3")), EXAMPLE_TRUTH),
        (ok(case_table("gpt-4/t3")), EXAMPLE_TRUTH),
    ]
    pooled = report(pairs)
    averaged = report(pairs, per_instance_average=True)
    a = score_instance(case_table("claude-2.1/t3"), EXAMPLE_TRUTH)
    b = score_instance(case_table("gpt-4/t3"), EXAMPLE_TRUTH)
    assert averaged.groups["Average"].rmse == pytest.approx((a.rmse() + b.rmse()) / 2)
    pooled_expected = math.sqrt((a.rmse() ** 2 + b.rmse() ** 2) / 2)
    assert pooled.groups["Average"].rmse == pytest.approx(pooled_expected)


# --- Auto-QA ----------------------------------------------------------------------

def _pairs(n_total: int, n_prescreen_fail: int) -> list[QaPair]:
    pairs = []
    for i in range(n_total):
        pairs.append(
            QaPair(
                question=f"q{i}?",
                reference_answer=f"answer-{i}",
                prescreen_passed=i >= n_prescreen_fail,
            )
        )
    return pairs


def test_coverage_saturating_case():
    pairs = _pairs(5, 0)
    table = "\n".join(p.reference_answer for p in pairs)
    cov = autoqa_coverage("doc", table, lambda _: pairs, substring_table_answerer, exact_match_judge)
    assert cov == 1.0


def test_coverage_hand_fixture_point75():
    # 20 generated, 4 fail pre-screen, 12 of the surviving 16 answerable
    pairs = _pairs(20, 4)
    surviving = [p for p in pairs if p.prescreen_passed]
    table = "\n".join(p.reference_answer for p in surviving[:12])
    cov = autoqa_coverage("doc", table, lambda _: pairs, substring_table_answerer, exact_match_judge)
    assert cov == 0.75


def test_coverage_empty_table_zero():
    pairs = _pairs(4, 0)
    cov = autoqa_coverage("doc", "", lambda _: pairs, substring_table_answerer, exact_match_judge)
    assert cov == 0.0


def test_coverage_no_surviving_pairs_errors():
    pairs = _pairs(3, 3)
    with pytest.raises(ValueError, match="no valid QA pairs"):
        autoqa_coverage("doc", "t", lambda _: pairs, substring_table_answerer, exact_match_judge)
    with pytest.raises(ValueError, match="no valid QA pairs"):
        autoqa_coverage("doc", "t", lambda _: [], substring_table_answerer, exact_match_judge)


def test_coverage_monotone_in_correct_flips():
    pairs = _pairs(10, 2)
    surviving = [p for p in pairs if p.prescreen_passed]
    previous = -1.0
    for n_correct in range(len(surviving) + 1):
        table = "\n".join(p.reference_answer for p in surviving[:n_correct])
        cov = autoqa_coverage("doc", table, lambda _: pairs, substring_table_answerer, exact_match_judge)
        assert cov > previous
        previous = cov


# numbered two ways, unnumbered, and a line that is no pair
_GENERATED = """1. Q: Who scored? | A: Player9
2) Q: How many corners? | A: 4
some prose
Q: Which team won? | A: Home Team"""


def test_llm_qa_parses_numbered_pairs_and_prescreens_with_the_judge():
    passage = {"Who scored?": "Player9", "How many corners?": "five", "Which team won?": "Home Team"}
    table = {"Who scored?": "UNKNOWN", "Which team won?": "Home Team"}

    def script(request: LlmRequest) -> str:
        prompt = request.last_text
        if prompt.startswith("Read the passage"):
            return _GENERATED
        if prompt.startswith("Question:"):  # the judge
            reference, candidate = re.findall(r"answer: (.*)$", prompt, re.MULTILINE)
            return "YES" if candidate == reference else "NO"
        question = re.search(r"^Question: (.*)$", prompt, re.MULTILINE)[1]
        return (passage if "the passage" in prompt else table)[question]

    backend = StubBackend(script)
    qa = LlmQa(backend, "m", n_pairs=3)
    pairs = qa.qa_gen("the match report")
    assert [(p.question, p.reference_answer, p.prescreen_passed) for p in pairs] == [
        ("Who scored?", "Player9", True), ("How many corners?", "4", False), ("Which team won?", "Home Team", True)]
    assert backend.calls == 1 + 3 * 2  # the pairs, then per pair a passage answer and a pre-screen judgement
    assert autoqa_coverage("the match report", "Team,Goals", lambda _: pairs, qa.answerer, qa.judge) == 0.5
    assert backend.calls == 7 + 2 * 2  # per surviving pair a table answer and a judgement


def test_coverage_curve_values():
    points = coverage_curve([0.8, 0.6, 0.4, 0.2])
    by_threshold = {p.threshold: p.percent for p in points}
    assert by_threshold[50.0] == 50.0
    assert by_threshold[0.0] == 100.0
    assert by_threshold[100.0] == 0.0


def test_coverage_curve_all_ones_flat():
    points = coverage_curve([1.0, 1.0, 1.0])
    assert all(p.percent == 100.0 for p in points)


def test_coverage_curve_non_increasing_and_direct_count():
    covs = [0.75, 1.0, 0.0]
    points = coverage_curve(covs)
    percents = [p.percent for p in points]
    assert percents == sorted(percents, reverse=True)
    for p in points:
        direct = 100.0 * sum(1 for c in covs if c >= p.threshold / 100) / len(covs)
        assert p.percent == direct


def test_coverage_curve_empty_errors():
    with pytest.raises(ValueError):
        coverage_curve([])


# --- diagnose ----------------------------------------------------------------------

def t(team, label, player=None):
    return EventTuple(team=team, label=label, player=player)


def test_diagnose_identical_is_clean():
    truth = [t(HOME, RawEventLabel.GOAL, "Player1"), t(AWAY, RawEventLabel.FOUL, "Player20")]
    taxonomy = diagnose_tuples(truth, truth)
    assert taxonomy.total_missing == taxonomy.total_wrong == taxonomy.total_spurious == 0


def test_diagnose_missing_tuple():
    truth = [t(AWAY, RawEventLabel.FOUL, "Player20")]
    taxonomy = diagnose_tuples([], truth)
    assert taxonomy.total_missing == 1
    assert taxonomy.missing == {EventType.FOULS: 1}


def test_diagnose_wrong_label_same_actor():
    truth = [t(HOME, RawEventLabel.FREE_KICK, "Player9")]
    extracted = [t(HOME, RawEventLabel.FOUL, "Player9")]
    taxonomy = diagnose_tuples(extracted, truth)
    assert taxonomy.total_wrong == 1
    assert taxonomy.wrong == {EventType.FREE_KICKS: 1}
    assert taxonomy.total_missing == 0 and taxonomy.total_spurious == 0


def test_diagnose_spurious_extraction():
    extracted = [t(HOME, RawEventLabel.CORNER_KICK)]
    taxonomy = diagnose_tuples(extracted, [])
    assert taxonomy.total_spurious == 1
    assert taxonomy.spurious == {EventType.CORNER_KICKS: 1}


def test_diagnose_mixed_case():
    truth = [
        t(HOME, RawEventLabel.FOUL, "Player4"),
        t(HOME, RawEventLabel.FOUL, "Player4"),
        t(AWAY, RawEventLabel.GOAL, "Player28"),
    ]
    extracted = [
        t(HOME, RawEventLabel.FOUL, "Player4"),
        t(HOME, RawEventLabel.YELLOW_CARD, "Player4"),  # wrong label for second foul
        t(AWAY, RawEventLabel.OFFSIDE, "Player23"),  # spurious
    ]
    taxonomy = diagnose_tuples(extracted, truth)
    assert taxonomy.wrong == {EventType.FOULS: 1}
    assert taxonomy.missing == {EventType.GOALS: 1}
    assert taxonomy.spurious == {EventType.OFFSIDES: 1}


_small_tuple_lists = st.lists(
    st.builds(
        EventTuple,
        team=st.sampled_from(TeamSide),
        label=st.sampled_from(
            [RawEventLabel.GOAL, RawEventLabel.CORNER_KICK, RawEventLabel.FOUL, Unknown("foul"), Unknown("throw in")]
        ),
        player=st.sampled_from([None, "Player1", "Player2"]),
    ),
    max_size=8,
)


@given(_small_tuple_lists, _small_tuple_lists, st.randoms(use_true_random=False))
@example(
    [t(HOME, RawEventLabel.GOAL, "Player1"), t(HOME, RawEventLabel.CORNER_KICK, "Player1")],
    [t(HOME, RawEventLabel.FOUL, "Player1")],
    random.Random(0),
)
def test_diagnose_ignores_tuple_order(extracted, truth, rnd):
    expected = diagnose_tuples(extracted, truth)
    assert diagnose_tuples(extracted[::-1], truth[::-1]) == expected
    shuffled = diagnose_tuples(rnd.sample(extracted, len(extracted)), rnd.sample(truth, len(truth)))
    assert shuffled == expected
