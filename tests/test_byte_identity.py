"""Byte-identity gate: a fixed-seed dataset and every mode's oracle transcripts.

The digests were recorded before the oracle path's hot loops were optimized.
Any change to generation, prompt assembly, the oracle, the parsers or the
transcript codec that moves a single output byte fails here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from t3table.backends import OracleBackend
from t3table.pipeline import run_batch, write_transcripts
from t3table.prompts import parse_mode
from t3table.synth import GeneratorConfig, generate, read_dataset, write_dataset

SEED = 2404
N = 40

DATASET_SHA256 = "13f8c892718ed86017c289bce89a2c21e9297020607ad0088ea7abf985792342"

TRANSCRIPT_SHA256 = {
    "zero-shot": "2f15445452c09034d26566bd10a6a851de1d097cc52d2024a7202a20ea6bedcc",
    "zero-shot-cot": "7e6c0442ba3b67f59476455dc02275d321597d834b7665710c55da42f7cf05ac",
    "t2": "04d4503c313ed37067999a7522e5a81ecaf304308934e3510b891e88a58bbd88",
    "t3": "171f4031409d8385ce0c5882e1bb667db314f077e4bf2d527367b6521f2bd859",
    "t3m": "70f8e71c91de9c509c0faba957ea58ade883f3999aa7c9ecda71c846c13f5e87",
    "t3d": "b7eb3bb2d3fe00c94f81661df346af2e7fc174a754334ad37d516b25591718f6",
    "few-shot:2": "edb8596e8901343eaef416b219ce2f0b511878bfdb64d4e6cbece7ba2d6bd6ad",
    "few-shot-cot:1": "06d83332205556cebb8303f8fbebd1991a1e367ec57aacad19ceca20a75a04a8",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory: pytest.TempPathFactory) -> Path:
    path = tmp_path_factory.mktemp("gate") / "dataset.jsonl"
    write_dataset(generate(GeneratorConfig(seed=SEED), N), path)
    return path


def test_dataset_bytes_unchanged(dataset_file: Path) -> None:
    assert _sha256(dataset_file) == DATASET_SHA256


@pytest.mark.parametrize("mode_name", list(TRANSCRIPT_SHA256))
def test_oracle_transcript_bytes_unchanged(dataset_file: Path, tmp_path: Path, mode_name: str) -> None:
    dataset = read_dataset(dataset_file)
    transcripts = run_batch(dataset, parse_mode(mode_name), OracleBackend(), seed=SEED)
    out = tmp_path / "transcripts.jsonl"
    write_transcripts(transcripts, out)
    assert _sha256(out) == TRANSCRIPT_SHA256[mode_name]
