"""What each command loads: numpy only when generating.

Each case runs in a fresh interpreter, since this test session has long
since imported everything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import t3table

SRC = Path(t3table.__file__).resolve().parents[1]


def _run(code: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_reading_a_dataset_does_not_load_numpy(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": "a", "commentary": "Player9(Home Team) commits a foul.", "table": null}\n', "utf-8")
    loaded = _run(
        "import json, t3table.cli\n"
        "from t3table import synth\n"
        f"n = len(synth.read_dataset({str(path)!r}))\n"
        "print(json.dumps({'n': n, 'numpy': 'numpy' in sys.modules}))"
    )
    assert loaded == {"n": 1, "numpy": False}


def test_synth_loads_no_module_of_the_run_or_eval_path():
    # `t3table gen` and the benchmark's set-up load synth; what it imports is their start-up cost
    loaded = _run(
        "import json\n"
        "from t3table import synth\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('t3table.'))))"
    )
    for name in ("tableio", "prompts", "backends", "pipeline", "evaluation", "autoqa", "cli"):
        assert f"t3table.{name}" not in loaded


def test_gen_still_writes_a_dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    loaded = _run(
        "import json\n"
        "from t3table.cli import main\n"
        f"main(['gen', '--out', {str(path)!r}, '--n', '2', '--seed', '1'], standalone_mode=False)\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules}))"
    )
    assert loaded == {"numpy": True}
    assert len(path.read_text("utf-8").splitlines()) == 2
