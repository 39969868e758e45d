from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from t3table.cli import main
from t3table.pipeline import read_transcripts
from t3table.synth import read_dataset


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def test_gen_is_deterministic(tmp_path, runner):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    r1 = invoke(runner, ["gen", "--out", str(a), "--n", "20", "--seed", "42"])
    r2 = invoke(runner, ["gen", "--out", str(b), "--n", "20", "--seed", "42"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    assert "per-team event rates" in r1.output


def test_gen_rejects_zero_n(tmp_path, runner):
    result = runner.invoke(main, ["gen", "--out", str(tmp_path / "x.jsonl"), "--n", "0"])
    assert result.exit_code == 2


def test_gen_mean_override(tmp_path, runner):
    out = tmp_path / "zeros.jsonl"
    means = [item for e in (
        "goals", "shots", "fouls", "yellow_cards", "red_cards",
        "corner_kicks", "free_kicks", "offsides",
    ) for item in ("--mean", f"{e}=0")]
    result = invoke(runner, ["gen", "--out", str(out), "--n", "3", *means])
    assert result.exit_code == 0
    assert all(sum(inst.ground_truth.counts) == 0 for inst in read_dataset(out))


def test_gen_unknown_mean_is_usage_error(tmp_path, runner):
    result = runner.invoke(main, ["gen", "--out", str(tmp_path / "x.jsonl"), "--n", "1",
                                  "--mean", "throwins=1"])
    assert result.exit_code == 2


# a name reads as a table header does (model.event_named), in the singular too
@pytest.mark.parametrize("pair", ["Yellow Cards=0", "yellow card=0"], ids=["column_header", "singular"])
def test_gen_mean_takes_an_event_by_its_column_header(tmp_path, runner, pair):
    result = invoke(runner, ["gen", "--out", str(tmp_path / "x.jsonl"), "--n", "3", "--mean", pair])
    assert result.exit_code == 0
    assert "Yellow Cards   0.000 vs 0.000" in result.output


@pytest.mark.parametrize("pair, message", [
    ("goals", "--mean expects name=value, got 'goals'"),
    ("goals=many", "--mean value for 'goals' must be a number"),
], ids=["no_equals", "not_a_number"])
def test_gen_bad_mean_names_the_problem(tmp_path, runner, pair, message):
    out = tmp_path / "x.jsonl"
    result = runner.invoke(main, ["gen", "--out", str(out), "--n", "1", "--mean", pair])
    assert result.exit_code == 2
    assert message in result.output
    assert not out.exists()


def test_run_oracle_then_eval_closed_loop(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    transcripts = tmp_path / "t.jsonl"
    report_json = tmp_path / "report.json"
    assert invoke(runner, ["gen", "--out", str(data), "--n", "10", "--seed", "7"]).exit_code == 0
    run_result = invoke(runner, [
        "run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
        "--out", str(transcripts), "--quiet",
    ])
    assert run_result.exit_code == 0
    assert "malformed: 0" in run_result.output
    eval_result = invoke(runner, [
        "eval", "--transcripts", str(transcripts), "--dataset", str(data),
        "--out", str(report_json),
    ])
    assert eval_result.exit_code == 0
    assert "0.00%" in eval_result.output
    payload = json.loads(report_json.read_text())
    assert payload["groups"]["Average"]["rmse"] == 0.0
    assert payload["groups"]["Average"]["error_rate"] == 0.0


def test_run_unknown_mode_lists_valid_modes(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "1"])
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "nope",
                                  "--out", str(tmp_path / "t.jsonl")])
    assert result.exit_code == 2
    assert "valid modes" in result.output


def test_run_replay_over_warm_cache_issues_no_calls(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "3", "--seed", "3"])
    cache = tmp_path / "cache"
    config = tmp_path / "backend.cfg"
    config.write_text(f"cache_dir = {cache}\n")

    # warm the cache through the http-wrapping path is not needed; the replay
    # backend itself errors on a cold cache, so warm it with a stub run first
    from t3table import prompts
    from t3table.backends import StubBackend, zero_table_stub
    from t3table.pipeline import run_batch

    dataset = read_dataset(data)
    stub = StubBackend(zero_table_stub)
    run_batch(dataset, prompts.ZERO_SHOT, stub, cache_dir=cache, model="t3-offline")
    warm_calls = stub.calls

    result = invoke(runner, [
        "run", "--dataset", str(data), "--mode", "zero-shot", "--backend", "replay",
        "--config", str(config), "--out", str(tmp_path / "t.jsonl"), "--quiet",
    ])
    assert result.exit_code == 0
    assert stub.calls == warm_calls  # replay never touched the stub
    assert "malformed: 0" in result.output


def test_run_replay_cold_cache_exhausts_backend(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "3"])
    result = runner.invoke(main, [
        "run", "--dataset", str(data), "--mode", "zero-shot", "--backend", "replay",
        "--cache-dir", str(tmp_path / "empty-cache"),
        "--out", str(tmp_path / "t.jsonl"), "--quiet",
    ])
    assert result.exit_code == 4


def test_run_t3m_with_stub_records_single_call(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "1", "--seed", "3"])
    out = tmp_path / "t.jsonl"
    result = invoke(runner, [
        "run", "--dataset", str(data), "--mode", "t3m", "--backend", "stub",
        "--out", str(out), "--quiet",
    ])
    assert result.exit_code == 0
    (transcript,) = read_transcripts(out)
    assert len([s for s in transcript.stages if s.kind == "llm"]) == 1


def test_eval_missing_ids_is_data_error(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    other = tmp_path / "other.jsonl"
    transcripts = tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    invoke(runner, ["gen", "--out", str(other), "--n", "2", "--seed", "2"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                    "--out", str(transcripts), "--quiet"])
    result = runner.invoke(main, ["eval", "--transcripts", str(transcripts),
                                  "--dataset", str(other)])
    assert result.exit_code == 3
    assert "synth-1-00000" in result.output


@pytest.mark.parametrize("record_id", [5, None, ["a"]], ids=["int", "null", "list"])
def test_transcript_id_that_is_not_a_string_is_data_error(tmp_path, runner, record_id):
    data = tmp_path / "data.jsonl"
    transcripts = tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "3", "--seed", "3"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                    "--out", str(transcripts), "--quiet"])
    _corrupt_line(transcripts, 2, lambda r: r.update(id=record_id))
    shown = str(record_id)
    result = runner.invoke(main, ["eval", "--transcripts", str(transcripts), "--dataset", str(data)])
    assert result.exit_code == 3
    assert f"missing from dataset ground truth: {shown}" in result.output
    # inspect finds the transcript by the same str(), and still shows the others
    result = runner.invoke(main, ["inspect", "--id", shown, "--transcripts", str(transcripts), "--dataset", str(data)])
    assert result.exit_code == 3
    assert f"no dataset instance for id {shown!r}" in result.output
    result = runner.invoke(main, ["inspect", "--id", "synth-3-00000", "--transcripts", str(transcripts),
                                  "--dataset", str(data)])
    assert result.exit_code == 0


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda r: r.update(stages=5), "TypeError", id="stages"),
    pytest.param(lambda r: r.update(rejected_lines=[[5, 6]]), "rejected_lines must be", id="rejected_lines"),
    pytest.param(lambda r: r.update(latency_s="x"), "latency_s must be a number", id="latency_s"),
    pytest.param(lambda r: r.update(final_table_text=5), "final_table_text must be a string", id="final_table_text"),
    pytest.param(lambda r: r.update(unknown_label_count="x"), "unknown_label_count must be a number",
                 id="unknown_label_count"),
    pytest.param(lambda r: r.update(unknown_label_count=2.5), "unknown_label_count must be an int >= 0",
                 id="unknown_label_count_float"),
    pytest.param(lambda r: r.update(unknown_label_count=-1), "unknown_label_count must be an int >= 0",
                 id="unknown_label_count_negative"),
    pytest.param(lambda r: r.update(unknown_label_count=True), "unknown_label_count must be a number",
                 id="unknown_label_count_bool"),
    pytest.param(lambda r: r["stages"][0].update(kind=5), "kind must be a string", id="stage_kind"),
    pytest.param(lambda r: r["stages"][0].update(latency_s="x"), "latency_s must be a number", id="stage_latency_s"),
    pytest.param(lambda r: r.update(outcome={"malformed": {"code": 5, "detail": "x"}}), "code must be a string",
                 id="malformed_code"),
    pytest.param(lambda r: r.update(outcome={"malformed": {"code": "x", "detail": 5}}), "detail must be a string",
                 id="malformed_detail"),
    pytest.param(lambda r: r["stages"][2].update(stage="3"), "stage must be an int from 1 to 3", id="stage_string"),
    pytest.param(lambda r: r["stages"][0].update(stage=True), "stage must be an int from 1 to 3", id="stage_bool"),
    pytest.param(lambda r: r["stages"][0].update(stage=4), "stage must be an int from 1 to 3", id="stage_range"),
    pytest.param(lambda r: r["tuples"][0].update(known="no"), "known must be a bool", id="known_string"),
    pytest.param(lambda r: r["tuples"][0].update(known=1), "known must be a bool", id="known_int"),
])
def test_corrupted_transcript_is_data_error(tmp_path, runner, edit, message):
    data = tmp_path / "data.jsonl"
    transcripts = tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                    "--out", str(transcripts), "--quiet"])
    _corrupt_line(transcripts, 2, edit)
    for args in (["eval"], ["inspect", "--id", "synth-1-00000"]):
        result = runner.invoke(main, [*args, "--transcripts", str(transcripts), "--dataset", str(data)])
        assert result.exit_code == 3
        assert "line 2" in result.output and message in result.output


def _corrupt_line(path, line_no, edit):
    lines = path.read_text("utf-8").splitlines()
    record = json.loads(lines[line_no - 1])
    edit(record)
    lines[line_no - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", "utf-8")


def test_run_with_non_string_commentary_is_data_error(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    _corrupt_line(data, 2, lambda r: r.update(commentary=5))
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                                  "--out", str(tmp_path / "t.jsonl"), "--quiet"])
    assert result.exit_code == 3
    assert "line 2" in result.output and "commentary must be a string" in result.output


def test_inspect_with_non_string_response_is_data_error(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    transcripts = tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                    "--out", str(transcripts), "--quiet"])
    _corrupt_line(transcripts, 2, lambda r: r["stages"][0].update(response=5))
    result = runner.invoke(main, ["inspect", "--id", "synth-1-00000", "--transcripts", str(transcripts),
                                  "--dataset", str(data)])
    assert result.exit_code == 3
    assert "line 2" in result.output and "response must be a string" in result.output


def test_autoqa_with_non_string_table_is_data_error(tmp_path, runner):
    docs, tables = _write_autoqa_fixtures(tmp_path)
    _corrupt_line(tables, 3, lambda r: r.update(table=5))
    result = runner.invoke(main, [
        "autoqa", "--documents", str(docs), "--tables", str(tables),
        "--out", str(tmp_path / "c.json"),
    ])
    assert result.exit_code == 3
    assert "line 3" in result.output and "table must be a string" in result.output


# json.loads raises a ValueError, not a JSONDecodeError, for an int of more than 4,300 digits,
# and a RecursionError for deep nesting
@pytest.mark.parametrize("file, field, spliced, message", [
    ("t.jsonl", '"latency_s": 0.0', '"latency_s": ' + "9" * 5000, "digits"),
    ("data.jsonl", '"table": [[', '"table": [[' + "9" * 5000, "digits"),  # digits put before the first cell's
    ("data.jsonl", '"meta": {', '"meta": {"x": ' + "[" * 100_000 + "]" * 100_000 + ", ", "recursion"),
], ids=["transcript_number_past_digit_limit", "dataset_number_past_digit_limit", "dataset_deep_nesting"])
def test_json_that_python_cannot_load_is_data_error(tmp_path, runner, file, field, spliced, message):
    data = tmp_path / "data.jsonl"
    transcripts = tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                    "--out", str(transcripts), "--quiet"])
    path = tmp_path / file
    lines = path.read_text("utf-8").splitlines()
    assert field in lines[1]
    lines[1] = lines[1].replace(field, spliced, 1)
    path.write_text("\n".join(lines) + "\n", "utf-8")
    result = runner.invoke(main, ["eval", "--transcripts", str(transcripts), "--dataset", str(data)])
    assert result.exit_code == 3
    assert f"line 2 of {path}" in result.output and message in result.output


# json.loads reads NaN and Infinity, and a float too large for a double as inf
@pytest.mark.parametrize("spliced", ["NaN", "Infinity", "-Infinity", "9" * 400 + ".0", "1e400"],
                         ids=["nan", "infinity", "minus_infinity", "overflowing_decimal", "overflowing_exponent"])
@pytest.mark.parametrize("which", ["stage", "record"])
def test_non_finite_number_in_a_transcript_is_data_error(tmp_path, runner, spliced, which):
    data = tmp_path / "data.jsonl"
    transcripts = tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                    "--out", str(transcripts), "--quiet"])
    lines = transcripts.read_text("utf-8").splitlines()
    # the first latency is stage 1's, the last the record's own
    split = lines[1].partition if which == "stage" else lines[1].rpartition
    head, sep, tail = split('"latency_s": 0.0')
    assert sep
    lines[1] = f'{head}"latency_s": {spliced}{tail}'
    transcripts.write_text("\n".join(lines) + "\n", "utf-8")
    result = runner.invoke(main, ["eval", "--transcripts", str(transcripts), "--dataset", str(data)])
    assert result.exit_code == 3
    assert f"line 2 of {transcripts}" in result.output and "latency_s must be a number" in result.output


def test_a_count_no_float_holds_is_a_bad_cell_that_eval_scores(tmp_path, runner):
    from t3table import prompts
    from t3table.backends import StubBackend
    from t3table.model import SummaryTable
    from t3table.pipeline import run_batch, write_transcripts
    from t3table.tableio import to_csv

    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    huge = to_csv(SummaryTable.zero()).replace("Home Team,0", f"Home Team,{10**400}")
    transcripts = run_batch(read_dataset(data), prompts.ZERO_SHOT, StubBackend(lambda request: huge))
    assert [t.outcome.reason_code for t in transcripts] == ["bad_cell", "bad_cell"]
    path = tmp_path / "t.jsonl"
    write_transcripts(transcripts, path)
    result = invoke(runner, ["eval", "--transcripts", str(path), "--dataset", str(data)])
    assert result.exit_code == 0
    assert "filtered: 2" in result.output


def test_a_count_no_float_holds_in_a_dataset_is_data_error(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    transcripts = tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                    "--out", str(transcripts), "--quiet"])
    _corrupt_line(data, 2, lambda r: r["table"][0].__setitem__(0, 10**400))
    for args in (["eval"], ["inspect", "--id", "synth-1-00000"]):
        result = runner.invoke(main, [*args, "--transcripts", str(transcripts), "--dataset", str(data)])
        assert result.exit_code == 3
        assert f"line 2 of {data}" in result.output and "cells must be integers from 0 to" in result.output


def test_eval_reports_filtered_count(tmp_path, runner):
    from t3table import prompts
    from t3table.backends import StubBackend
    from t3table.pipeline import run_batch, write_transcripts
    from t3table.tableio import to_csv

    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    dataset = read_dataset(data)

    def script(request):
        if dataset[0].commentary in request.last_text:
            return to_csv(dataset[0].ground_truth)
        return "no table here"

    transcripts = run_batch(dataset, prompts.ZERO_SHOT, StubBackend(script))
    path = tmp_path / "t.jsonl"
    write_transcripts(transcripts, path)
    result = invoke(runner, ["eval", "--transcripts", str(path), "--dataset", str(data)])
    assert result.exit_code == 0
    assert "filtered: 1" in result.output


def test_eval_json_reports_case_study_per_instance_rmse(tmp_path, runner):
    from conftest import CASE_STUDY, EXAMPLE_TRUTH, case_table
    from t3table.model import MatchInstance
    from t3table.pipeline import RunTranscript, write_transcripts
    from t3table.synth import write_dataset
    from t3table.tableio import ParsedTableOutcome

    names = ["claude-2.1/plain", "mistral-large/plain", "gpt-4/plain", "claude-3-opus/plain"]
    dataset = [
        MatchInstance(id=f"case-{i}", commentary="commentary", ground_truth=EXAMPLE_TRUTH)
        for i in range(len(names))
    ]
    transcripts = [
        RunTranscript(
            instance_id=f"case-{i}",
            mode="zero-shot",
            stages=(),
            outcome=ParsedTableOutcome.ok(case_table(name)),
        )
        for i, name in enumerate(names)
    ]
    data, tpath, out = tmp_path / "d.jsonl", tmp_path / "t.jsonl", tmp_path / "r.json"
    write_dataset(dataset, data)
    write_transcripts(transcripts, tpath)
    result = invoke(runner, ["eval", "--transcripts", str(tpath), "--dataset", str(data),
                             "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    got = [round(entry["rmse"], 3) for entry in payload["instances"]]
    assert got == [1.887, 1.458, 1.785, 2.046] or got == [1.888, 1.458, 1.785, 2.046]
    for entry, name in zip(payload["instances"], names):
        assert abs(entry["rmse"] - CASE_STUDY[name][2]) <= 0.001


def test_inspect_shows_stage_diffs(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    transcripts = tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "9"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                    "--out", str(transcripts), "--quiet"])
    result = invoke(runner, ["inspect", "--transcripts", str(transcripts),
                             "--dataset", str(data), "--id", "synth-9-00001"])
    assert result.exit_code == 0
    assert "all 16 cells match ground truth" in result.output
    assert "stage 1 [llm]" in result.output
    assert "stage 2 [native]" in result.output
    missing = invoke(runner, ["inspect", "--transcripts", str(transcripts),
                              "--dataset", str(data), "--id", "nope"])
    assert missing.exit_code == 3


# --- autoqa -----------------------------------------------------------------------

def _write_autoqa_fixtures(tmp_path):
    docs = tmp_path / "docs.jsonl"
    tables = tmp_path / "tables.jsonl"

    def pair(i, passed=True, wrong=False):
        p = {"question": f"q{i}?", "answer": f"ans-{i}", "prescreen_passed": passed}
        if wrong:
            p["table_answer"] = "(wrong)"
        return p

    doc_a = {  # 20 pairs, 4 fail pre-screen, 4 of the surviving answered wrong -> 0.75
        "id": "a",
        "text": "document a",
        "qa": [pair(i, passed=i >= 4, wrong=4 <= i < 8) for i in range(20)],
    }
    doc_b = {"id": "b", "text": "document b", "qa": [pair(i) for i in range(5)]}
    doc_c = {"id": "c", "text": "document c", "qa": [pair(i) for i in range(5)]}
    doc_d = {"id": "d", "text": "document d", "qa": [pair(0, passed=False)]}
    with docs.open("w") as f:
        for doc in (doc_a, doc_b, doc_c, doc_d):
            f.write(json.dumps(doc) + "\n")
    with tables.open("w") as f:
        f.write(json.dumps({"id": "a", "table": "\n".join(f"ans-{i}" for i in range(20))}) + "\n")
        f.write(json.dumps({"id": "b", "table": "\n".join(f"ans-{i}" for i in range(5))}) + "\n")
        f.write(json.dumps({"id": "c", "table": ""}) + "\n")
        f.write(json.dumps({"id": "d", "table": "ans-0"}) + "\n")
    return docs, tables


def test_autoqa_stub_coverages_and_curve(tmp_path, runner):
    docs, tables = _write_autoqa_fixtures(tmp_path)
    out = tmp_path / "coverage.json"
    curve = tmp_path / "curve.csv"
    result = invoke(runner, [
        "autoqa", "--documents", str(docs), "--tables", str(tables),
        "--backend", "stub", "--out", str(out), "--curve-out", str(curve),
    ])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["documents"]["a"] == 0.75
    assert payload["documents"]["b"] == 1.0
    assert payload["documents"]["c"] == 0.0
    assert payload["documents"]["d"] is None  # no surviving pairs
    assert "no valid QA pairs" in result.output
    lines = curve.read_text().splitlines()
    assert lines[0] == "threshold,percent"
    by_threshold = dict(line.split(",") for line in lines[1:])
    # direct count over {0.75, 1.0, 0.0}
    assert by_threshold["0"] == "100"
    assert by_threshold["50"].startswith("66.66")
    assert by_threshold["80"].startswith("33.33")
    assert by_threshold["100"].startswith("33.33")


def test_autoqa_misaligned_tables_is_data_error(tmp_path, runner):
    docs, tables = _write_autoqa_fixtures(tmp_path)
    tables.write_text('{"id": "a", "table": "x"}\n')
    result = runner.invoke(main, [
        "autoqa", "--documents", str(docs), "--tables", str(tables),
        "--out", str(tmp_path / "c.json"),
    ])
    assert result.exit_code == 3
    assert "without a table" in result.output
