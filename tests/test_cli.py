from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import t3table
from t3table import cli, jsonl
from t3table.backends import StubBackend
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
    ("goals=-1", "the goals mean must be from 0 to 1000, got -1.0"),
    ("goals=nan", "the goals mean must be from 0 to 1000, got nan"),
    ("goals=inf", "the goals mean must be from 0 to 1000, got inf"),
    ("goals=1e30", "the goals mean must be from 0 to 1000, got 1e+30"),
], ids=["no_equals", "not_a_number", "negative", "nan", "infinite", "past_max_mean"])
def test_gen_bad_mean_names_the_problem(tmp_path, runner, pair, message):
    out = tmp_path / "x.jsonl"
    result = runner.invoke(main, ["gen", "--out", str(out), "--n", "1", "--mean", pair])
    assert result.exit_code == 2
    assert message in result.output
    assert not out.exists()


def test_gen_negative_seed_is_usage_error(tmp_path, runner):
    out = tmp_path / "x.jsonl"
    result = runner.invoke(main, ["gen", "--out", str(out), "--n", "1", "--seed", "-1"])
    assert result.exit_code == 2
    assert "seed must be >= 0, got -1" in result.output
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


def test_run_few_shot_of_no_exemplar_is_usage_error(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "1"])
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "few-shot:0",
                                  "--out", str(tmp_path / "t.jsonl")])
    assert result.exit_code == 2
    assert "few-shot needs at least one exemplar" in result.output


def test_a_config_that_cannot_be_read_is_data_error(tmp_path, runner, monkeypatch):
    # a read the file's mode forbids, faked: chmod does not stop a process that runs as root
    data, config = tmp_path / "data.jsonl", tmp_path / "backend.cfg"
    invoke(runner, ["gen", "--out", str(data), "--n", "1"])
    config.write_text("model = m\n")
    read_text = Path.read_text

    def unreadable(path, *args, **kwargs):
        if path == config:
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", unreadable)
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--config", str(config),
                                  "--out", str(tmp_path / "t.jsonl")])
    assert result.exit_code == 3
    assert f"cannot read config: [Errno 13] Permission denied: '{config}'" in result.output
    assert not (tmp_path / "t.jsonl").exists()


def test_python_m_runs_the_cli():
    src = str(Path(t3table.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "t3table.cli", "--help"], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Usage: python -m t3table.cli [OPTIONS] COMMAND [ARGS]...")
    assert all(f"  {command} " in proc.stdout for command in ("autoqa", "eval", "gen", "inspect", "run"))


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


def test_a_replay_over_a_missing_cache_dir_makes_no_directory(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "3", "--seed", "1"])
    result = runner.invoke(main, [
        "run", "--dataset", str(data), "--mode", "t3", "--backend", "replay",
        "--cache-dir", str(tmp_path / "no" / "such" / "cache"), "--out", str(tmp_path / "t.jsonl"), "--quiet",
    ])
    assert result.exit_code == 4
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("key, value", [("retries", "0"), ("retries", "-2"), ("parallelism", "0"), ("backoff_s", "-1"),
                                        ("timeout_s", "nan"), ("temperature", "nan")])
def test_backend_setting_out_of_range_is_usage_error(tmp_path, runner, monkeypatch, key, value):
    def unreachable(url, **kwargs):
        raise requests.ConnectionError(f"cannot reach {url}")

    monkeypatch.setattr("requests.post", unreachable)
    data, config, out = tmp_path / "data.jsonl", tmp_path / "backend.cfg", tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "3", "--seed", "1"])
    # backoff_s = 0 keeps retries quick; for backoff_s itself, the later line wins
    config.write_text(f"endpoint = http://127.0.0.1:9/v1/chat/completions\nbackoff_s = 0\n{key} = {value}\n")
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "http",
                                  "--config", str(config), "--out", str(out), "--quiet"])
    assert result.exit_code == 2
    assert f"{key} must be" in result.output
    assert not out.exists()


def test_a_config_that_is_not_utf8_is_usage_error_naming_the_line(tmp_path, runner):
    data, config, out = tmp_path / "data.jsonl", tmp_path / "backend.cfg", tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "1", "--seed", "1"])
    config.write_bytes(b"model = m\n# a comment\nmodel = \xff\n")
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--config", str(config),
                                  "--out", str(out), "--quiet"])
    assert result.exit_code == 2
    assert f"{config}:3: text that is not UTF-8" in result.output
    assert not out.exists()


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
    pytest.param(lambda r: r.update(unknown_label_count="x"), "unknown_label_count must be an int from 0 to",
                 id="unknown_label_count"),
    pytest.param(lambda r: r.update(unknown_label_count=2.5), "unknown_label_count must be an int from 0 to",
                 id="unknown_label_count_float"),
    pytest.param(lambda r: r.update(unknown_label_count=-1), "unknown_label_count must be an int from 0 to",
                 id="unknown_label_count_negative"),
    pytest.param(lambda r: r.update(unknown_label_count=True), "unknown_label_count must be an int from 0 to",
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
    # a string or an object of two items unpacks as a pair too, and would read back as other text
    pytest.param(lambda r: r["stages"][0].update(prompt=["ab"]), "prompt must be a list of [string, string] pairs",
                 id="prompt_pair_string"),
    pytest.param(lambda r: r.update(rejected_lines=["xy"]), "rejected_lines must be", id="rejected_line_string"),
    pytest.param(lambda r: r.update(rejected_lines={"xy": 1}), "rejected_lines must be", id="rejected_lines_object"),
    # every key is required, so a misspelled one does not read back as a default
    pytest.param(lambda r: r["tuples"][0].update(plyer=r["tuples"][0].pop("player")), "KeyError: 'player'",
                 id="tuple_player_misspelled"),
    pytest.param(lambda r: r.update(unknown_label_cout=r.pop("unknown_label_count")),
                 "KeyError: 'unknown_label_count'", id="unknown_label_count_misspelled"),
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


def test_dataset_line_without_a_table_key_is_data_error_at_run(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "3", "--seed", "1"])
    _corrupt_line(data, 2, lambda r: r.update(tabel=r.pop("table")))
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                                  "--out", str(tmp_path / "t.jsonl"), "--quiet"])
    assert result.exit_code == 3
    assert "line 2" in result.output and "KeyError: 'table'" in result.output


@pytest.mark.parametrize("key, exit_code", [("prescreen_passed", 0), ("prescreen_pased", 3)],
                         ids=["spelled_right", "misspelled"])
def test_autoqa_misspelled_qa_key_is_data_error(tmp_path, runner, key, exit_code):
    docs = tmp_path / "docs.jsonl"
    tables = tmp_path / "tables.jsonl"
    out = tmp_path / "coverage.json"
    qa = [{"question": "q0?", "answer": "ans-0", key: False}, {"question": "q1?", "answer": "ans-1"}]
    docs.write_text(json.dumps({"id": "a", "text": "document a", "qa": qa}) + "\n")
    tables.write_text(json.dumps({"id": "a", "table": "ans-1"}) + "\n")
    result = runner.invoke(main, ["autoqa", "--documents", str(docs), "--tables", str(tables),
                                  "--backend", "stub", "--out", str(out)])
    assert result.exit_code == exit_code, result.output
    if exit_code:
        assert "unknown qa key 'prescreen_pased' at line 1" in result.output
    else:
        assert json.loads(out.read_text())["documents"]["a"] == 1.0


def test_autoqa_pairs_that_ask_one_question_keep_their_own_table_answers(tmp_path, runner):
    docs, tables, out = tmp_path / "docs.jsonl", tmp_path / "tables.jsonl", tmp_path / "coverage.json"
    qa = [{"question": "q?", "answer": "x", "table_answer": "x"},
          {"question": "q?", "answer": "y", "table_answer": "wrong"}]
    docs.write_text(json.dumps({"id": "d", "text": "document d", "qa": qa}) + "\n")
    tables.write_text(json.dumps({"id": "d", "table": "x y"}) + "\n")
    result = invoke(runner, ["autoqa", "--documents", str(docs), "--tables", str(tables),
                             "--backend", "stub", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "d: coverage 0.500" in result.output  # the first pair answered right, the second wrong
    assert json.loads(out.read_text())["documents"]["d"] == 0.5


def test_misspelled_top_level_key_is_data_error(tmp_path, runner):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    _corrupt_line(data, 2, lambda r: r.update(mta=r.pop("meta")))
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "oracle",
                                  "--out", str(tmp_path / "t.jsonl"), "--quiet"])
    assert result.exit_code == 3
    assert f"unknown dataset key 'mta' at line 2 of {data}" in result.output
    docs, tables = _write_autoqa_fixtures(tmp_path)
    _corrupt_line(docs, 3, lambda r: r.update(qq=r.pop("qa")))
    result = runner.invoke(main, ["autoqa", "--documents", str(docs), "--tables", str(tables),
                                  "--backend", "stub", "--out", str(tmp_path / "c.json")])
    assert result.exit_code == 3
    assert f"unknown document key 'qq' at line 3 of {docs}" in result.output


# --- inspect and eval --out on what a stub run leaves -----------------------------

def _scripted_run():
    """A dataset and its transcripts from scripted stubs: a t3 table off in two cells with a rejected tuple line,
    a zero-shot reply with no table, and a table for an instance whose dataset line has "table": null."""
    from conftest import EXAMPLE_TRUTH
    from t3table import prompts
    from t3table.backends import StubBackend
    from t3table.model import MatchInstance, SummaryTable
    from t3table.pipeline import run_instance
    from t3table.tableio import to_csv

    off = SummaryTable.from_rows([2, 5, 6, 1, 0, 5, 6, 6], [3, 12, 6, 0, 0, 3, 6, 4])
    replies = {"extract": "(Player3, Home Team, goals)\n(Player5, Blue Team, fouls)", "render_table": to_csv(off)}
    t3_stub = StubBackend(lambda request: replies[prompts.classify_prompt(request.last_text)[0]])
    dataset = [MatchInstance("diff", "c", EXAMPLE_TRUTH), MatchInstance("bad", "c", EXAMPLE_TRUTH),
               MatchInstance("null", "c", None)]
    transcripts = [run_instance(dataset[0], prompts.T3, t3_stub),
                   run_instance(dataset[1], prompts.ZERO_SHOT, StubBackend("no table here")),
                   run_instance(dataset[2], prompts.ZERO_SHOT, StubBackend(to_csv(EXAMPLE_TRUTH)))]
    return dataset, transcripts


def test_inspect_shows_diffs_rejected_lines_malformed_outcomes_and_missing_truth(tmp_path, runner):
    from t3table.pipeline import write_transcripts
    from t3table.synth import write_dataset

    dataset, transcripts = _scripted_run()
    data, path = tmp_path / "d.jsonl", tmp_path / "t.jsonl"
    write_dataset(dataset, data)
    write_transcripts(transcripts, path)
    assert '"table": null' in data.read_text().splitlines()[2]
    shown = {}
    for instance_id in ("diff", "bad", "null"):
        result = invoke(runner, ["inspect", "--transcripts", str(path), "--dataset", str(data), "--id", instance_id])
        assert result.exit_code == 0
        shown[instance_id] = result.output.splitlines()
    assert [line.partition(" response: ")[0] for line in shown["diff"][1:4]] == [
        "  stage 1 [llm]", "  stage 2 [native]", "  stage 3 [llm]"]
    assert shown["diff"][4:6] == ["  tuples: 1 parsed, 1 rejected, 0 unknown labels",
                                  "    rejected (unresolvable team): (Player5, Blue Team, fouls)"]
    assert shown["diff"][-3:] == ["  RMSE 0.707  error rate 12.50%",
                                  "    Home Team Goals: predicted 2, truth 0",
                                  "    Away Team Offsides: predicted 4, truth 2"]
    assert shown["bad"][-1] == "  outcome: malformed [no_table_found] no table with the eight event columns found"
    assert not any("predicted" in line for line in shown["bad"])
    assert shown["null"][-1] == "  no ground truth in dataset; nothing to diff"
    assert shown["null"][-3:-1] == ["    Home Team,0,5,6,1,0,5,6,6", "    Away Team,3,12,6,0,0,3,6,2"]


def test_eval_out_lists_a_malformed_instance_by_its_reason(tmp_path, runner):
    from t3table.pipeline import write_transcripts
    from t3table.synth import write_dataset

    dataset, transcripts = _scripted_run()
    data, path, out = tmp_path / "d.jsonl", tmp_path / "t.jsonl", tmp_path / "r.json"
    write_dataset(dataset, data)
    write_transcripts(transcripts[:2], path)
    result = invoke(runner, ["eval", "--transcripts", str(path), "--dataset", str(data), "--out", str(out)])
    assert result.exit_code == 0 and f"report written to {out}" in result.output
    instances = json.loads(out.read_text())["instances"]
    assert instances == [{"id": "diff", "rmse": pytest.approx(0.5 ** 0.5), "error_rate": 12.5},
                         {"id": "bad", "malformed": "no_table_found"}]


# --- paths no other test runs: the http and LLM Auto-QA backends, t3d on the stub, write and data errors -----

def test_run_http_builds_its_backend_from_the_config_file(tmp_path, runner, monkeypatch):
    from t3table.backends import LlmRequest, OracleBackend

    oracle, timeouts = OracleBackend(), []

    def fake_post(url, **kwargs):
        timeouts.append(kwargs["timeout"])
        body = kwargs["json"]
        request = LlmRequest(body["model"], tuple((m["role"], m["content"]) for m in body["messages"]))
        reply = requests.Response()
        reply.status_code = 200
        reply._content = json.dumps({"choices": [{"message": {"content": oracle.complete(request).text}}]}).encode()
        return reply

    monkeypatch.setattr("requests.post", fake_post)
    data, config, out, cache = tmp_path / "data.jsonl", tmp_path / "backend.cfg", tmp_path / "t.jsonl", tmp_path / "c"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    config.write_text(f"endpoint = http://127.0.0.1:9/v1/chat/completions\ntimeout_s = 7.5\ncache_dir = {cache}\n")
    result = invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "http",
                             "--config", str(config), "--out", str(out), "--quiet"])
    assert result.exit_code == 0 and "wrote 2 transcripts" in result.output and "malformed: 0" in result.output
    assert timeouts == [7.5] * 4  # two llm stages per instance
    assert len(list(cache.glob("*.json"))) == 4  # the http backend's replies go through the cache


def test_run_http_without_a_cache_dir_posts_every_request_again(tmp_path, runner, monkeypatch):
    from t3table.backends import LlmRequest, OracleBackend

    oracle, posts = OracleBackend(), []

    def fake_post(url, **kwargs):
        body = kwargs["json"]
        posts.append(LlmRequest(body["model"], tuple((m["role"], m["content"]) for m in body["messages"])))
        reply = requests.Response()
        reply.status_code = 200
        reply._content = json.dumps({"choices": [{"message": {"content": oracle.complete(posts[-1]).text}}]}).encode()
        return reply

    monkeypatch.setattr("requests.post", fake_post)
    data, config, out = tmp_path / "data.jsonl", tmp_path / "backend.cfg", tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    config.write_text("endpoint = http://127.0.0.1:9/v1/chat/completions\n")
    for _ in range(2):
        result = invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "http",
                                 "--config", str(config), "--out", str(out), "--quiet"])
        assert result.exit_code == 0 and "malformed: 0" in result.output
    assert len(posts) == 8 and len(set(posts)) == 4  # two llm stages per instance, asked again on the rerun
    assert list(tmp_path.rglob("*.json")) == []  # no cache entry anywhere


@pytest.mark.parametrize("kind, message", [("http", "http backend needs an endpoint"),
                                           ("replay", "replay backend needs a cache directory")])
def test_a_backend_without_its_setting_is_usage_error(tmp_path, runner, kind, message):
    data, config, out = tmp_path / "data.jsonl", tmp_path / "backend.cfg", tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "1", "--seed", "1"])
    config.write_text("timeout_s = 7.5\n")
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--backend", kind,
                                  "--config", str(config), "--out", str(out), "--quiet"])
    assert result.exit_code == 2 and message in result.output
    assert not out.exists()


def _qa_script(request) -> str:
    """Scripted Auto-QA model: two pairs, of which the second fails its pre-screen; the table answers what it holds."""
    prompt = request.last_text
    if prompt.startswith("Read the passage"):
        return "1. Q: Who scored? | A: Player3\n2) Q: How many corners? | A: 4\nno pair on this line"
    if prompt.startswith("Answer the question using only the passage"):
        return "Player3" if "Who scored?" in prompt else "five"
    if prompt.startswith("Answer the question using only this table"):
        return "Player3" if "Player3" in prompt else "UNKNOWN"
    reference = prompt.split("Reference answer: ")[1].split("\n")[0]
    candidate = prompt.split("Candidate answer: ")[1].split("\n")[0]
    return "YES" if candidate == reference else "NO"


def test_autoqa_replay_drives_the_llm_components_from_a_warm_cache(tmp_path, runner):
    from t3table import evaluation
    from t3table.autoqa import LlmQa
    from t3table.backends import CachingBackend, StubBackend
    from t3table.config import DEFAULT_MODEL

    docs, tables, out, cache, config = (tmp_path / name for name in (
        "docs.jsonl", "tables.jsonl", "coverage.json", "c", "backend.cfg"))
    docs.write_text("".join(json.dumps({"id": i, "text": f"document {i}"}) + "\n" for i in "ab"))
    table_of = {"a": "Player3 scored", "b": "nobody scored"}
    tables.write_text("".join(json.dumps({"id": i, "table": t}) + "\n" for i, t in table_of.items()))
    stub = StubBackend(_qa_script)
    llm = LlmQa(CachingBackend(cache, stub), DEFAULT_MODEL)
    for doc_id, table in table_of.items():
        evaluation.autoqa_coverage(f"document {doc_id}", table, llm.qa_gen, llm.answerer, llm.judge)
    calls = stub.calls
    config.write_text(f"cache_dir = {cache}\n")
    result = invoke(runner, ["autoqa", "--documents", str(docs), "--tables", str(tables), "--backend", "replay",
                             "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert stub.calls == calls  # every answer came from the cache
    assert json.loads(out.read_text())["documents"] == {"a": 1.0, "b": 0.0}


def test_autoqa_over_http_fills_the_cache_that_replay_reads(tmp_path, runner, monkeypatch):
    from t3table.backends import LlmRequest

    posts = []

    def fake_post(url, **kwargs):
        body = kwargs["json"]
        posts.append(LlmRequest(body["model"], tuple((m["role"], m["content"]) for m in body["messages"])))
        reply = requests.Response()
        reply.status_code = 200
        reply._content = json.dumps({"choices": [{"message": {"content": _qa_script(posts[-1])}}]}).encode()
        return reply

    monkeypatch.setattr("requests.post", fake_post)
    docs, tables, cache, config = (tmp_path / name for name in ("docs.jsonl", "tables.jsonl", "c", "backend.cfg"))
    docs.write_text("".join(json.dumps({"id": i, "text": f"document {i}"}) + "\n" for i in "ab"))
    tables.write_text("".join(json.dumps({"id": i, "table": t}) + "\n"
                              for i, t in {"a": "Player3 scored", "b": "nobody scored"}.items()))
    config.write_text(f"endpoint = http://127.0.0.1:9/v1/chat/completions\ncache_dir = {cache}\n")
    for kind in ("http", "replay"):
        out = tmp_path / f"{kind}.json"
        result = invoke(runner, ["autoqa", "--documents", str(docs), "--tables", str(tables), "--backend", kind,
                                 "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["documents"] == {"a": 1.0, "b": 0.0}
        assert posts and sorted(p.name for p in cache.glob("*.json")) == sorted(f"{r.cache_key}.json" for r in posts)
    assert len(posts) == len(set(posts))  # the replay posted nothing, and the http run asked each request once


@pytest.mark.parametrize("command", ["run", "autoqa"])
def test_a_cache_entry_that_cannot_be_written_is_data_error_after_the_output(tmp_path, runner, monkeypatch, command,
                                                                           first_entry_write_fails):
    from t3table.backends import LlmRequest, OracleBackend

    oracle, posts = OracleBackend(), []

    def fake_post(url, **kwargs):
        body = kwargs["json"]
        posts.append(LlmRequest(body["model"], tuple((m["role"], m["content"]) for m in body["messages"])))
        text = oracle.complete(posts[-1]).text if command == "run" else _qa_script(posts[-1])
        reply = requests.Response()
        reply.status_code = 200
        reply._content = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
        return reply

    monkeypatch.setattr("requests.post", fake_post)
    data, config, out, cache = tmp_path / "data.jsonl", tmp_path / "backend.cfg", tmp_path / "out", tmp_path / "c"
    config.write_text(f"endpoint = http://127.0.0.1:9/v1/chat/completions\ncache_dir = {cache}\n")
    if command == "run":
        invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
        args = ["run", "--dataset", str(data), "--mode", "t3"]
    else:
        docs, tables = tmp_path / "docs.jsonl", tmp_path / "tables.jsonl"
        docs.write_text("".join(json.dumps({"id": i, "text": f"document {i}"}) + "\n" for i in "ab"))
        tables.write_text("".join(json.dumps({"id": i, "table": t}) + "\n"
                                  for i, t in {"a": "Player3 scored", "b": "nobody scored"}.items()))
        args = ["autoqa", "--documents", str(docs), "--tables", str(tables)]
    result = runner.invoke(main, [*args, "--backend", "http", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
    assert f"cannot write cache entry: {first_entry_write_fails[0]}: [Errno 28] No space left on device" in result.output
    # the output is written first, and every answer kept, the unwritten one's too
    if command == "run":
        assert [t.outcome.reason_code for t in read_transcripts(out)] == [None, None]
    else:
        assert json.loads(out.read_text())["documents"] == {"a": 1.0, "b": 0.0}
    assert len(list(cache.glob("*.json"))) == len(posts) - 1


def test_run_t3d_on_the_stub_answers_each_stage(tmp_path, runner):
    from t3table import prompts
    from t3table.model import SummaryTable
    from t3table.tableio import to_csv

    data, out = tmp_path / "data.jsonl", tmp_path / "t.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "1", "--seed", "3"])
    result = invoke(runner, ["run", "--dataset", str(data), "--mode", "t3d", "--backend", "stub", "--out", str(out)])
    assert result.exit_code == 0 and "malformed: 0" in result.output
    assert "  1/1" in result.output  # progress, on standard error, without --quiet
    (transcript,) = read_transcripts(out)
    zero = SummaryTable.zero()
    assert [s.response for s in transcript.stages] == ["", prompts.render_count_tuples(zero), to_csv(zero)]
    assert transcript.outcome.table == zero


def test_a_few_shot_instance_without_another_candidate_fails_alone(tmp_path, runner):
    data, part = tmp_path / "data.jsonl", tmp_path / "part.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "40", "--seed", "3"])
    # lines 21-23: of these, only the middle instance has every event, so it has no exemplar but itself
    part.write_text("".join(data.read_text("utf-8").splitlines(keepends=True)[20:23]), "utf-8")
    for parallelism in ("1", "8"):
        result = invoke(runner, ["run", "--dataset", str(part), "--mode", "few-shot:1", "--parallelism", parallelism,
                                 "--out", str(tmp_path / f"p{parallelism}.jsonl")])
        assert result.exit_code == 0 and "wrote 3 transcripts" in result.output and "(malformed: 1)" in result.output
        assert "  3/3" in result.output  # the instance that failed counts as done
    assert (tmp_path / "p1.jsonl").read_bytes() == (tmp_path / "p8.jsonl").read_bytes()
    transcripts = read_transcripts(tmp_path / "p1.jsonl")
    assert [t.outcome.reason_code for t in transcripts] == [None, "no_exemplar", None]
    assert transcripts[1].stages == ()


def _under_a_file(tmp_path):
    (tmp_path / "afile").write_text("")
    return str(tmp_path / "afile" / "x.jsonl")


def _oracle_transcripts(tmp_path, data):
    out = tmp_path / "oracle.jsonl"
    invoke(CliRunner(), ["run", "--dataset", data, "--mode", "t3", "--out", str(out), "--quiet"])
    return ["--transcripts", str(out), "--dataset", data]


def _autoqa_inputs(tmp_path):
    docs, tables = _write_autoqa_fixtures(tmp_path)
    return ["--documents", str(docs), "--tables", str(tables)]


@pytest.mark.parametrize("args, message", [
    (lambda tmp_path, data: ["gen", "--out", _under_a_file(tmp_path), "--n", "1"], "cannot write"),
    (lambda tmp_path, data: ["run", "--dataset", data, "--mode", "t3", "--out", _under_a_file(tmp_path), "--quiet"],
     "cannot write"),
    (lambda tmp_path, data: ["eval", *_oracle_transcripts(tmp_path, data), "--out", _under_a_file(tmp_path)],
     "cannot write"),
    (lambda tmp_path, data: ["autoqa", *_autoqa_inputs(tmp_path), "--out", _under_a_file(tmp_path)], "cannot write"),
    (lambda tmp_path, data: ["autoqa", *_autoqa_inputs(tmp_path), "--out", str(tmp_path / "c.json"),
                             "--curve-out", _under_a_file(tmp_path)], "cannot write"),
    (lambda tmp_path, data: ["run", "--dataset", data, "--mode", "few-shot:1", "--backend", "stub",
                             "--out", str(tmp_path / "t.jsonl"), "--quiet"], "no few-shot exemplar candidates"),
], ids=["gen_out_under_a_file", "run_out_under_a_file", "eval_out_under_a_file", "autoqa_out_under_a_file",
        "autoqa_curve_out_under_a_file", "few_shot_without_exemplars"])
def test_what_cannot_be_written_or_run_is_data_error(tmp_path, runner, args, message):
    data = tmp_path / "data.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1", "--mean", "red_cards=0"])
    result = runner.invoke(main, args(tmp_path, str(data)))
    assert result.exit_code == 3 and message in result.output
    assert isinstance(result.exception, SystemExit)  # click's own exit, not an uncaught exception
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("args", [
    lambda tmp_path, data, out: ["gen", "--out", out, "--n", "1"],
    lambda tmp_path, data, out: ["run", "--dataset", data, "--mode", "t3", "--out", out, "--quiet"],
    lambda tmp_path, data, out: ["eval", *_oracle_transcripts(tmp_path, data), "--out", out],
    lambda tmp_path, data, out: ["autoqa", *_autoqa_inputs(tmp_path), "--out", out],
    lambda tmp_path, data, out: ["autoqa", *_autoqa_inputs(tmp_path), "--out", str(tmp_path / "c.json"),
                                 "--curve-out", out],
], ids=["gen", "run", "eval_out", "autoqa_out", "autoqa_curve_out"])
def test_an_output_that_cannot_be_put_in_place_leaves_the_earlier_file(tmp_path, runner, monkeypatch, args):
    data, out = tmp_path / "data.jsonl", tmp_path / "out" / "earlier.txt"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    out.parent.mkdir()
    out.write_bytes(b"an earlier output\n")
    argv = args(tmp_path, str(data), str(out))
    replace = os.replace

    def replace_but_not_the_output(src, dst):
        if os.fspath(dst) == str(out):
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_but_not_the_output)
    result = runner.invoke(main, argv)
    assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
    assert f"cannot write {out}: [Errno 28] No space left on device" in result.output
    assert out.read_bytes() == b"an earlier output\n"
    assert list(out.parent.iterdir()) == [out]  # no temporary file left beside it


_OUTPUT_COMMANDS = {
    "gen": lambda inputs, out: ["gen", "--out", out, "--n", "2", "--seed", "4"],
    "run": lambda inputs, out: ["run", "--dataset", str(inputs / "data.jsonl"), "--mode", "t3", "--out", out, "--quiet"],
    "eval": lambda inputs, out: ["eval", "--transcripts", str(inputs / "oracle.jsonl"),
                                 "--dataset", str(inputs / "data.jsonl"), "--out", out],
}
# the file operations of writing an output, each as (object, attribute): the temporary file's open, its rename
# over the output, and the making of the output's directory
_WRITE_OPERATIONS = {"open": (jsonl, "open"), "replace": (os, "replace"), "mkdir": (Path, "mkdir")}


@pytest.fixture(scope="module")
def output_inputs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    data = str(inputs / "data.jsonl")
    invoke(CliRunner(), ["gen", "--out", data, "--n", "2", "--seed", "1"])
    _oracle_transcripts(inputs, data)
    return inputs


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(sorted(_OUTPUT_COMMANDS)), operation=st.sampled_from(sorted(_WRITE_OPERATIONS)),
       code=st.sampled_from([errno.ENOSPC, errno.EACCES, errno.EIO]), data=st.data())
def test_an_output_write_that_fails_at_any_step_exits_3_and_leaves_the_earlier_file(
        output_inputs, tmp_path_factory, command, operation, code, data):
    out = tmp_path_factory.mktemp("out") / "earlier.txt"
    argv = _OUTPUT_COMMANDS[command](output_inputs, str(out))
    owner, name = _WRITE_OPERATIONS[operation]
    real = getattr(owner, name, None) or open  # jsonl's open is the builtin one
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        if len(calls) == fail_at:
            raise OSError(code, os.strerror(code))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, counted, raising=False)
        fail_at = 0  # a clean run first, to count the operation's calls
        invoke(CliRunner(), argv)
        assert calls
        fail_at, calls = data.draw(st.integers(1, len(calls)), label="fail_at"), []
        out.write_bytes(b"an earlier output\n")
        result = CliRunner().invoke(main, argv)
    assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
    assert f"cannot write {out}: [Errno {code}] {os.strerror(code)}" in result.output
    assert out.read_bytes() == b"an earlier output\n"
    assert list(out.parent.iterdir()) == [out]  # no temporary file left beside it


def test_a_transcript_that_cannot_be_encoded_leaves_the_earlier_file(tmp_path, runner, monkeypatch):
    data, prev = tmp_path / "data.jsonl", tmp_path / "prev.jsonl"
    invoke(runner, ["gen", "--out", str(data), "--n", "5", "--seed", "1"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--out", str(prev), "--quiet"])
    earlier = prev.read_bytes()
    assert len(earlier.splitlines()) == 5
    lines = data.read_text("utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    record["commentary"] += "\ud800"  # a lone surrogate: json.dumps writes the JSON escape, UTF-8 cannot write it
    lines[2] = json.dumps(record) + "\n"
    data.write_text("".join(lines), "utf-8")
    stubs = []
    monkeypatch.setattr(cli, "StubBackend", lambda script: stubs.append(StubBackend(script)) or stubs[-1])
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--backend", "stub",
                                  "--out", str(prev), "--quiet"])
    assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
    assert (f"cannot load inputs: bad record at line 3 of {data}: ValueError: commentary holds a lone surrogate, "
            "which UTF-8 cannot encode") in result.output
    assert [stub.calls for stub in stubs] == [0]  # the dataset is refused before any backend call
    assert prev.read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "prev.jsonl"]


def test_a_text_that_utf8_cannot_write_is_a_data_error():
    """The readers refuse a lone surrogate; an output that holds one all the same still exits 3."""
    with pytest.raises(cli.DataError, match="cannot write out: 'utf-8' codec can't encode") as raised:
        cli._file("cannot write out", "\ud800".encode, "utf-8")
    assert raised.value.exit_code == 3


def test_an_output_that_is_not_a_regular_file_is_refused(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    src = str(Path(t3table.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # bounded: a writer that opens the FIFO waits for a reader that never comes
    proc = subprocess.run([sys.executable, "-m", "t3table.cli", "gen", "--out", str(fifo), "--n", "1"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 3, proc.stderr
    assert f"cannot write {fifo}: not a regular file: {fifo}" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


def test_eval_counts_dataset_instances_without_a_transcript(tmp_path, runner):
    data, full, part, report_json = (tmp_path / n for n in ("data.jsonl", "t.jsonl", "part.jsonl", "r.json"))
    invoke(runner, ["gen", "--out", str(data), "--n", "5", "--seed", "1"])
    invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--out", str(full), "--quiet"])
    part.write_text("".join(full.read_text("utf-8").splitlines(keepends=True)[:2]), "utf-8")
    result = invoke(runner, ["eval", "--transcripts", str(part), "--dataset", str(data), "--out", str(report_json)])
    assert result.exit_code == 0
    assert "scored instances: 2; filtered: 0 malformed\ndataset instances without a transcript: 3\n" in result.output
    assert json.loads(report_json.read_text("utf-8"))["without_transcript"] == [i.id for i in read_dataset(data)[2:]]
    result = invoke(runner, ["eval", "--transcripts", str(full), "--dataset", str(data)])
    assert "dataset instances without a transcript: 0\n" in result.output


@pytest.mark.parametrize("kind", ["replay", "http"])
def test_a_cache_dir_that_is_a_regular_file_is_data_error(tmp_path, runner, monkeypatch, kind):
    posts = []
    monkeypatch.setattr("requests.post", lambda url, **kwargs: posts.append(url))
    data, config, cache, out = (tmp_path / name for name in ("data.jsonl", "backend.cfg", "cache", "t.jsonl"))
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    cache.write_text("")
    config.write_text(f"endpoint = http://127.0.0.1:9/v1/chat/completions\ncache_dir = {cache}\n")
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--backend", kind,
                                  "--config", str(config), "--out", str(out), "--quiet"])
    assert result.exit_code == 3 and f"cannot make cache directory {cache}" in result.output
    assert isinstance(result.exception, SystemExit)  # click's own exit, not an uncaught exception
    assert posts == [] and not out.exists()


@pytest.mark.parametrize("kind", ["replay", "http"])
def test_a_cache_dir_under_a_regular_file_is_data_error(tmp_path, runner, monkeypatch, kind):
    posts = []
    monkeypatch.setattr("requests.post", lambda url, **kwargs: posts.append(url))
    data, config, cache, out = (tmp_path / name for name in ("data.jsonl", "backend.cfg", "file/cache", "t.jsonl"))
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    cache.parent.write_text("")
    config.write_text(f"endpoint = http://127.0.0.1:9/v1/chat/completions\ncache_dir = {cache}\n")
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mode", "t3", "--backend", kind,
                                  "--config", str(config), "--out", str(out), "--quiet"])
    assert result.exit_code == 3 and f"cannot make cache directory {cache}" in result.output
    assert isinstance(result.exception, SystemExit)
    assert posts == [] and not out.exists()


@pytest.mark.parametrize("args", [
    lambda tmp_path, data, out: ["eval", *_oracle_transcripts(tmp_path, data), "--out", out],
    lambda tmp_path, data, out: ["autoqa", *_autoqa_inputs(tmp_path), "--out", out],
], ids=["eval", "autoqa"])
def test_an_output_in_a_missing_directory_is_written(tmp_path, runner, args):
    data, out = tmp_path / "data.jsonl", tmp_path / "new" / "out.json"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    result = invoke(runner, args(tmp_path, str(data), str(out)))
    assert result.exit_code == 0 and f"written to {out}\n" in result.output
    assert json.loads(out.read_text("utf-8"))


@pytest.mark.parametrize("kind", ["oracle", "stub"])
def test_oracle_and_stub_replies_never_enter_a_cache(tmp_path, runner, kind):
    data, cache = tmp_path / "data.jsonl", tmp_path / "cache"
    invoke(runner, ["gen", "--out", str(data), "--n", "2", "--seed", "1"])
    result = invoke(runner, ["run", "--dataset", str(data), "--mode", "t3", "--backend", kind,
                             "--cache-dir", str(cache), "--out", str(tmp_path / "t.jsonl"), "--quiet"])
    assert result.exit_code == 0 and "wrote 2 transcripts" in result.output
    assert list(cache.rglob("*")) == []  # a later http or replay run would serve these as the model's replies


def test_autoqa_curve_out_without_a_valid_pair_is_data_error(tmp_path, runner):
    docs, tables, curve = tmp_path / "docs.jsonl", tmp_path / "tables.jsonl", tmp_path / "curve.csv"
    docs.write_text(json.dumps({"id": "d", "text": "t", "qa": [{"question": "q?", "answer": "a",
                                                                 "prescreen_passed": False}]}) + "\n")
    tables.write_text(json.dumps({"id": "d", "table": "a"}) + "\n")
    result = runner.invoke(main, ["autoqa", "--documents", str(docs), "--tables", str(tables),
                                  "--out", str(tmp_path / "c.json"), "--curve-out", str(curve)])
    assert result.exit_code == 3 and "no documents with valid QA pairs" in result.output
    assert not curve.exists()
