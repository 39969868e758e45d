"""Outputs do not depend on the interpreter's hash seed or memory layout.

Enum members hash by identity, that is by address, so any output that
followed set or dict order of hashed members would differ between
processes. Two fresh interpreters with different hash seeds run the same
commands on the same seed and must write the same bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import t3table

SRC = Path(t3table.__file__).resolve().parents[1]
# few-shot needs an exemplar candidate (an instance where every event
# occurs); seed 3 with 40 instances has one
SEED, INSTANCES = 3, 40
MODES = ("t3", "t3d", "few-shot:2")


def _run_commands(out: Path, hash_seed: str) -> None:
    commands = [["gen", "--out", str(out / "data.jsonl"), "--n", str(INSTANCES), "--seed", str(SEED)]]
    for mode in MODES:
        name = mode.replace(":", "-")
        commands += [
            ["run", "--dataset", str(out / "data.jsonl"), "--mode", mode, "--backend", "oracle",
             "--seed", str(SEED), "--out", str(out / f"{name}.jsonl"), "--quiet"],
            ["eval", "--transcripts", str(out / f"{name}.jsonl"), "--dataset", str(out / "data.jsonl"),
             "--out", str(out / f"{name}-report.json")],
        ]
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "from t3table.cli import main\n"
        f"for args in {commands!r}:\n"
        "    main(args, standalone_mode=False)\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    (out / "stdout.txt").write_text(proc.stdout, "utf-8")


def test_outputs_are_identical_across_hash_seeds(tmp_path):
    first, second = tmp_path / "seed0", tmp_path / "seed1"
    first.mkdir()
    second.mkdir()
    _run_commands(first, "0")
    _run_commands(second, "1")
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len(names) == 2 + 2 * len(MODES)  # dataset, stdout, and each mode's transcripts and report

    def text(out: Path, name: str) -> str:
        # stdout names the files, which sit in different directories
        return (out / name).read_text("utf-8").replace(str(out), "<out>")

    # names only: a diff of two transcript files would take pytest minutes
    assert [name for name in names if text(first, name) != text(second, name)] == []
