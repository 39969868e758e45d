"""Command-line entry point: gen, run, eval, autoqa, inspect.

Exit codes: 0 success, 2 usage error, 3 I/O or data error, 4 backend
exhaustion. Metric values never affect the exit code.
"""

from __future__ import annotations

import json

import click

from . import evaluation, prompts
from .autoqa import DEFAULT_QA_PAIRS, LlmQa, load_documents, load_tables, stub_components
from .backends import CachingBackend, HttpBackend, OracleBackend, StubBackend, flush_cache_writes, zero_table_stub
from .config import BackendSettings, parse_config_file
from .evaluation import curve_to_csv, render_report_text, report
from .jsonl import DatasetError, write_lines
from .model import CELLS, EVENT_ORDER, EventType
from .pipeline import read_transcripts, run_batch, write_transcripts
from .synth import GeneratorConfig, generate_with_scripts, oracle_extract, read_dataset, write_dataset
from .tableio import to_csv
from .tuples import primary_event


class DataError(click.ClickException):
    exit_code = 3


class BackendExhausted(click.ClickException):
    exit_code = 4


def _file(failure: str, io, *args):
    """``io(*args)``: a read or write of a command's file, or the making or flushing of a cache. Any OSError,
    DatasetError or UnicodeError (a text UTF-8 cannot write) it raises is a data error, "``failure``: <error>",
    where ``failure`` or the error names the path. Every writer makes a missing directory."""
    try:
        return io(*args)
    except (OSError, DatasetError, UnicodeError) as exc:
        raise DataError(f"{failure}: {exc}")


@click.group()
def main() -> None:
    """Text-to-table pipeline toolkit: synthesize, run, and score match tables."""


def _mean_override(pair: str) -> tuple[str, float]:
    name, eq, value = pair.partition("=")
    if not eq:
        raise ValueError(f"--mean expects name=value, got {pair!r}")
    try:
        return name, float(value)
    except ValueError:
        raise ValueError(f"--mean value for {name!r} must be a number") from None


@main.command()
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--n", required=True, type=click.IntRange(min=1))
@click.option("--seed", default=42, show_default=True, type=int)
@click.option("--mean", "means", multiple=True, help="Override a per-team event rate, e.g. goals=2.0")
def gen(out: str, n: int, seed: int, means: tuple[str, ...]) -> None:
    """Generate a synthetic dataset and print empirical event rates."""
    try:
        cfg = GeneratorConfig(seed=seed).with_means(**dict(map(_mean_override, means)))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    pairs = generate_with_scripts(cfg, n)
    _file(f"cannot write {out}", write_dataset, (inst for inst, _ in pairs), out)

    counts: dict[EventType, int] = {e: 0 for e in EVENT_ORDER}
    for _, script in pairs:
        for event in script:
            cls = primary_event(event.label)
            if cls is not None:
                counts[cls] += 1
    click.echo(f"wrote {n} instances to {out}")
    click.echo("per-team event rates (empirical vs configured):")
    for event in EVENT_ORDER:
        empirical = counts[event] / (2 * n)
        click.echo(f"  {event.column_header:<12} {empirical:7.3f} vs {cfg.means[event]:.3f}")


def _load_settings(config_path: str | None) -> BackendSettings:
    if config_path is None:
        return BackendSettings()
    try:
        return parse_config_file(config_path)
    except OSError as exc:
        raise DataError(f"cannot read config: {exc}")
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _build_backend(kind: str, settings: BackendSettings):
    """The backend of ``kind``. Only http replies are cached (when ``cache_dir`` is set), and replay reads that
    cache: a stub or oracle reply cached under the model's name would later be served as the model's answer."""
    if kind == "stub":
        return StubBackend(zero_table_stub)
    if kind == "oracle":
        return OracleBackend()
    inner = None
    if kind == "http":
        if not settings.endpoint:
            raise click.UsageError("http backend needs an endpoint (config file key 'endpoint')")
        inner = HttpBackend(
            settings.endpoint,
            retries=settings.retries,
            backoff_s=settings.backoff_s,
            timeout_s=settings.timeout_s,
        )
        if not settings.cache_dir:
            return inner
    elif not settings.cache_dir:  # replay: the commands' click.Choice admits no other kind
        raise click.UsageError("replay backend needs a cache directory (config key 'cache_dir' or --cache-dir)")
    return _file(f"cannot make cache directory {settings.cache_dir}", CachingBackend, settings.cache_dir, inner)


@main.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", "mode_text", required=True)
@click.option("--backend", "backend_kind", default="oracle", show_default=True,
              type=click.Choice(["http", "stub", "replay", "oracle"]))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--parallelism", type=click.IntRange(min=1), default=None)
@click.option("--cache-dir", type=click.Path(file_okay=False), default=None)
@click.option("--seed", default=0, show_default=True, type=int, help="Seed for few-shot exemplar choice.")
@click.option("--quiet", is_flag=True, default=False)
def run(dataset_path: str, mode_text: str, backend_kind: str, config_path: str | None,
        out: str, parallelism: int | None, cache_dir: str | None, seed: int, quiet: bool) -> None:
    """Run a pipeline mode over a dataset and write transcripts."""
    try:
        mode = prompts.parse_mode(mode_text)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    settings = _load_settings(config_path).merged_with(parallelism=parallelism, cache_dir=cache_dir)
    backend = _build_backend(backend_kind, settings)
    dataset = _file("cannot load inputs", read_dataset, dataset_path)

    def progress(done: int, total: int) -> None:
        if not quiet and (done % 25 == 0 or done == total):
            click.echo(f"  {done}/{total}", err=True)

    try:
        transcripts = run_batch(
            dataset,
            mode,
            backend,
            parallelism=settings.parallelism,
            model=settings.model,
            temperature=settings.temperature,
            seed=seed,
            on_progress=progress,
        )
    except ValueError as exc:
        raise DataError(str(exc))
    _file(f"cannot write {out}", write_transcripts, transcripts, out)
    malformed = sum(1 for t in transcripts if not t.outcome.is_ok)
    click.echo(f"wrote {len(transcripts)} transcripts to {out} (malformed: {malformed})")
    if settings.cache_dir:
        _file("cannot write cache entry", flush_cache_writes, settings.cache_dir)
    if transcripts and all(t.outcome.reason_code == "backend_error" for t in transcripts):
        raise BackendExhausted("every instance failed with a backend error")


@main.command(name="eval")
@click.option("--transcripts", "transcripts_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report as JSON.")
@click.option("--per-instance-average", is_flag=True, default=False,
              help="Average per-instance metrics instead of pooling cells.")
def eval_cmd(transcripts_path: str, dataset_path: str, out: str | None, per_instance_average: bool) -> None:
    """Score transcripts against dataset ground truth."""
    transcripts = _file("cannot load inputs", read_transcripts, transcripts_path)
    dataset = _file("cannot load inputs", read_dataset, dataset_path)
    truth = {inst.id: inst.ground_truth for inst in dataset if inst.ground_truth is not None}
    missing = [str(t.instance_id) for t in transcripts if str(t.instance_id) not in truth]
    if missing:
        raise DataError(
            "transcript ids missing from dataset ground truth: " + ", ".join(sorted(missing))
        )
    rep = report(
        [(t.outcome, truth[str(t.instance_id)]) for t in transcripts],
        per_instance_average=per_instance_average,
    )
    click.echo(render_report_text(rep))
    ran = {str(t.instance_id) for t in transcripts}
    without_transcript = [inst.id for inst in dataset if inst.id not in ran]
    click.echo(f"dataset instances without a transcript: {len(without_transcript)}")
    if out is not None:
        payload = rep.to_json_dict()
        payload["instances"] = [
            {"id": t.instance_id, "malformed": t.outcome.reason_code} if s is None
            else {"id": t.instance_id, "rmse": s.rmse(), "error_rate": s.error_rate()}
            for t, s in zip(transcripts, rep.scores)
        ]
        payload["without_transcript"] = without_transcript
        _file(f"cannot write {out}", write_lines, [json.dumps(payload, indent=2)], out)
        click.echo(f"report written to {out}")


@main.command()
@click.option("--documents", "documents_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tables", "tables_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--backend", "backend_kind", default="stub", show_default=True,
              type=click.Choice(["http", "stub", "replay"]))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--curve-out", type=click.Path(dir_okay=False), default=None)
@click.option("--n-pairs", type=click.IntRange(min=1), default=DEFAULT_QA_PAIRS, show_default=True)
def autoqa(documents_path: str, tables_path: str, backend_kind: str, config_path: str | None,
           out: str, curve_out: str | None, n_pairs: int) -> None:
    """Auto-QA coverage of generated tables against their source documents."""
    documents = _file("cannot load inputs", load_documents, documents_path)
    tables = _file("cannot load inputs", load_tables, tables_path)
    missing = [d.id for d in documents if d.id not in tables]
    if missing:
        raise DataError("documents without a table: " + ", ".join(sorted(missing)))

    settings = _load_settings(config_path)
    llm: LlmQa | None = None
    if backend_kind != "stub":
        llm = LlmQa(_build_backend(backend_kind, settings), settings.model, settings.temperature, n_pairs=n_pairs)

    results: dict[str, float | None] = {}
    coverages: list[float] = []
    for doc in documents:
        if llm is None:
            qa_gen, answerer, judge = stub_components(doc)
        else:
            qa_gen, answerer, judge = llm.qa_gen, llm.answerer, llm.judge
        try:
            cov = evaluation.autoqa_coverage(doc.text, tables[doc.id], qa_gen, answerer, judge)
        except ValueError:
            click.echo(f"warning: {doc.id}: no valid QA pairs; excluded from curve", err=True)
            results[doc.id] = None
            continue
        results[doc.id] = cov
        coverages.append(cov)
        click.echo(f"  {doc.id}: coverage {cov:.3f}")

    payload = {
        "documents": {k: v for k, v in results.items()},
        "mean_coverage": (sum(coverages) / len(coverages)) if coverages else None,
        "n_documents": len(documents),
        "n_excluded": sum(1 for v in results.values() if v is None),
    }
    _file(f"cannot write {out}", write_lines, [json.dumps(payload, indent=2)], out)
    click.echo(f"coverage written to {out}")
    if coverages:
        curve_path = curve_out or f"{out}.curve.csv"
        curve = curve_to_csv(evaluation.coverage_curve(coverages))
        _file(f"cannot write {curve_path}", write_lines, [curve], curve_path)
        click.echo(f"curve written to {curve_path}")
    if settings.cache_dir:
        _file("cannot write cache entry", flush_cache_writes, settings.cache_dir)
    if not coverages and curve_out is not None:
        raise DataError("no documents with valid QA pairs; cannot write curve")


@main.command()
@click.option("--transcripts", "transcripts_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--id", "instance_id", required=True)
def inspect(transcripts_path: str, dataset_path: str, instance_id: str) -> None:
    """Pretty-print one transcript with stage-by-stage diffs against ground truth."""
    transcripts = {str(t.instance_id): t for t in _file("cannot load inputs", read_transcripts, transcripts_path)}
    dataset = {inst.id: inst for inst in _file("cannot load inputs", read_dataset, dataset_path)}
    if instance_id not in transcripts:
        raise DataError(f"no transcript for id {instance_id!r}")
    if instance_id not in dataset:
        raise DataError(f"no dataset instance for id {instance_id!r}")
    t = transcripts[instance_id]
    inst = dataset[instance_id]

    click.echo(f"instance {instance_id} mode={t.mode} latency={t.total_latency_s:.3f}s")
    for s in t.stages:
        preview = s.response.replace("\n", " ")[:100]
        click.echo(f"  stage {s.stage} [{s.kind}] response: {preview}")
    click.echo(f"  tuples: {len(t.tuples)} parsed, {len(t.rejected_lines)} rejected, "
               f"{t.unknown_label_count} unknown labels")
    for line, reason in t.rejected_lines:
        click.echo(f"    rejected ({reason}): {line[:80]}")

    if not t.outcome.is_ok:
        click.echo(f"  outcome: malformed [{t.outcome.reason_code}] {t.outcome.detail}")
        return
    table = t.outcome.table
    assert table is not None
    click.echo("  predicted table:")
    for line in to_csv(table).splitlines():
        click.echo(f"    {line}")
    if inst.ground_truth is None:
        click.echo("  no ground truth in dataset; nothing to diff")
        return
    scores = evaluation.score_instance(table, inst.ground_truth)
    click.echo(f"  RMSE {scores.rmse():.3f}  error rate {scores.error_rate():.2f}%")
    diffs = [
        (team, event, got, want)
        for (team, event), got, want, match in zip(CELLS, table.counts, inst.ground_truth.counts, scores.matches)
        if not match
    ]
    if not diffs:
        click.echo("  all 16 cells match ground truth")
    for team, event, got, want in diffs:
        click.echo(f"    {team.display} {event.column_header}: predicted {got}, truth {want}")
    if inst.meta.get("bank"):
        taxonomy = evaluation.diagnose_tuples(t.tuples, oracle_extract(inst.commentary))
        click.echo(
            "  tuple diff vs oracle extraction: "
            f"missing {taxonomy.total_missing}, wrong {taxonomy.total_wrong}, "
            f"spurious {taxonomy.total_spurious}"
        )


if __name__ == "__main__":
    main()
