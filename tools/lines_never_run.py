"""Print each line of src/t3table that the tier-1 tests never run, next to `wc -l src/t3table/*.py`.

Usage, from anywhere, with any extra pytest arguments after it:

    python tools/lines_never_run.py [PYTEST_ARGS...]

It runs `python -m pytest -q --continue-on-collection-errors` at the repository root with `src` on PYTHONPATH.
A `sitecustomize` module put first on PYTHONPATH sets a `sys.settrace` and `threading.settrace` hook in that
process and in every Python process it starts with the same environment, so a test's subprocess counts too.
Each process records the lines it runs in src/t3table and writes them out when it exits. A line is executable
when a code object compiled from its file lists it in `co_lines()`. Tracing makes the tests several times
slower. Standard library only. The exit status is 1 when a line is never run or a test fails, 2 when a file
in src/t3table changed while the tests ran, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "t3table"


def trace_this_process(out_dir: str) -> None:
    """Record the lines this process runs in PACKAGE; write them to a file of its own in ``out_dir`` at exit."""
    import atexit
    import threading

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    local_of: dict[types.CodeType, object] = {}  # each code object's line tracer, or None outside PACKAGE

    def local_for(code: types.CodeType):
        path = os.path.realpath(code.co_filename)
        if not path.startswith(prefix):
            return None
        add = ran.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in local_of:
            local_of[code] = local_for(code)
        return local_of[code]

    def write() -> None:
        sys.settrace(None)
        out = Path(out_dir, f"{os.getpid()}.json")
        out.write_text(json.dumps({path: sorted(lines) for path, lines in ran.items()}), "utf-8")

    atexit.register(write)
    threading.settrace(tracer)
    sys.settrace(tracer)


def executable_lines(text: str, path: Path) -> set[int]:
    """The lines of any code object compiled from ``text``, the source of ``path``."""
    lines: set[int] = set()
    todo = [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(pytest_args: list[str]) -> int:
    texts = {path: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    with tempfile.TemporaryDirectory() as hook_dir, tempfile.TemporaryDirectory() as out_dir:
        Path(hook_dir, "sitecustomize.py").write_text(
            f"import runpy\nrunpy.run_path({__file__!r})['trace_this_process']({out_dir!r})\n", "utf-8"
        )
        paths = [hook_dir, str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
        status = subprocess.run([*command, *pytest_args], cwd=ROOT, env=env).returncode
        ran: dict[str, set[int]] = {}
        for part in Path(out_dir).glob("*.json"):
            for path, lines in json.loads(part.read_text("utf-8")).items():
                ran.setdefault(path, set()).update(lines)

    if changed := [str(path) for path, text in texts.items() if path.read_text("utf-8") != text]:
        print(f"changed while the tests ran, so their lines do not match: {', '.join(changed)}")
        return 2
    total_lines = total_executable = 0
    never_run = []
    for path, text in texts.items():
        rel, count, executable = path.relative_to(ROOT), text.count("\n"), executable_lines(text, path)
        source = text.splitlines()
        print(f"{count:7d} {rel}")
        total_lines += count
        total_executable += len(executable)
        never_run += [f"{rel}:{n}: {source[n - 1].strip()}" for n in sorted(executable - ran.get(str(path), set()))]
    print(f"{total_lines:7d} total")
    print(f"executable lines: {total_executable}; never run under the tests: {len(never_run)}; pytest status {status}")
    sys.stdout.writelines(f"{line}\n" for line in never_run)
    return 1 if never_run or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
