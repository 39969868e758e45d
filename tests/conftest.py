from __future__ import annotations

import os

import pytest

from t3table.model import SummaryTable

# Ground truth for the worked example match (home row, away row, canonical
# column order) and the eight case-study predictions with their published
# (RMSE, error rate) pairs.
EXAMPLE_TRUTH = SummaryTable.from_rows([0, 5, 6, 1, 0, 5, 6, 6], [3, 12, 6, 0, 0, 3, 6, 2])

CASE_STUDY = {
    "claude-2.1/plain": ([0, 10, 7, 1, 0, 5, 6, 3], [3, 13, 10, 0, 0, 3, 5, 4], 1.888, 43.75),
    "claude-2.1/t3": ([0, 5, 7, 1, 0, 6, 6, 5], [3, 12, 4, 0, 0, 3, 6, 2], 0.661, 25.00),
    "mistral-large/plain": ([0, 8, 7, 1, 0, 4, 7, 5], [3, 10, 7, 0, 0, 3, 10, 2], 1.458, 50.00),
    "mistral-large/t3": ([0, 5, 5, 1, 0, 5, 5, 6], [3, 12, 6, 0, 0, 3, 4, 2], 0.612, 18.75),
    "gpt-4/plain": ([0, 11, 9, 1, 0, 5, 7, 6], [3, 10, 6, 0, 0, 3, 5, 2], 1.785, 31.25),
    "gpt-4/t3": ([0, 5, 6, 1, 0, 5, 5, 6], [3, 12, 5, 0, 0, 3, 5, 2], 0.433, 18.75),
    "claude-3-opus/plain": ([0, 9, 7, 1, 0, 5, 9, 5], [3, 18, 7, 0, 0, 2, 7, 3], 2.046, 56.25),
    "claude-3-opus/t3": ([0, 5, 6, 1, 0, 5, 6, 6], [3, 12, 6, 0, 0, 3, 6, 2], 0.000, 0.00),
}


def case_table(name: str) -> SummaryTable:
    home, away, _, _ = CASE_STUDY[name]
    return SummaryTable.from_rows(home, away)


@pytest.fixture
def example_truth() -> SummaryTable:
    return EXAMPLE_TRUTH


@pytest.fixture
def first_entry_write_fails(monkeypatch) -> list[str]:
    """os.replace fails, as on a full disk, for the first cache entry it would put in place; the list gets its path."""
    replace, failed = os.replace, []

    def replace_but_once(src, dst):
        if not failed and str(dst).endswith(".json"):
            failed.append(dst)
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_but_once)
    return failed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    del exitstatus, config
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::")[-1], "PASS" if status == "passed" else "FAIL"))
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, status in sorted(set(rows)):
            terminalreporter.write_line(f"{status}  {name}")
