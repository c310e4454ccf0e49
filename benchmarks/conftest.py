"""Shared helpers for the benchmark harness.

The paper benchmarks (``bench_fig*``, ``bench_lem*``, ``bench_thm*`` and
``bench_upper_vs_lower``) each regenerate one table, figure or lemma check
of the paper and, as a side effect of the benchmarked call, assert the
reproduction facts, so one run both times the harness and verifies the
numbers; the other modules time the engines, the search and the fault
layer.  Benchmarks are collected by explicit path only, e.g.
``pytest benchmarks/bench_fig4_general_bound.py``.  The tables recorded
through :func:`record_report` are printed at the end of the run; the
paper-table ones render from the declarations in
:mod:`repro.experiments.runner`, as the sections of ``python -m repro
all`` do.  EXPERIMENTS.md is that command's output.
"""

from __future__ import annotations

import json
import os

import pytest

_REPORTS: list[tuple[str, str]] = []


def merge_bench_json(
    section: str, rows: list[dict], *, env_var: str = "BENCH_JSON"
) -> None:
    """Merge ``rows`` under ``section`` into the JSON file named by ``env_var``.

    The single merge helper behind every benchmark script's CI artifact dump
    (``BENCH_JSON`` for the engine comparison, ``BENCH_SEARCH_JSON`` for the
    search benchmarks, ``BENCH_FAULTS_JSON`` for the fault benchmarks — the
    per-script env vars are just different ``env_var`` arguments).  A no-op
    when the variable is unset, so local runs never write files; existing
    sections written by earlier tests of the same session are preserved.
    """
    path = os.environ.get(env_var)
    if not path:
        return
    data: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data[section] = rows
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


@pytest.fixture(scope="session")
def bench_json():
    """Fixture exposing :func:`merge_bench_json` to benchmark modules."""
    return merge_bench_json


def pytest_configure(config):
    """Register the markers the benchmarks share with the test suite."""
    config.addinivalue_line(
        "markers",
        "slow: long-running benchmark (the CI perf job runs them all)",
    )
    config.addinivalue_line(
        "markers",
        "perf_regression: comparative wall-clock assertion; runs in the CI perf "
        "job (cron/dispatch) only, never as a per-PR gate",
    )


def record_report(title: str, body: str) -> None:
    """Store a text table to be echoed after the benchmark session."""
    _REPORTS.append((title, body))


@pytest.fixture(scope="session")
def report_sink():
    """Fixture exposing :func:`record_report` to benchmark modules."""
    return record_report


def pytest_sessionfinish(session, exitstatus):  # noqa: D401 - pytest hook
    """Print all recorded tables after the benchmark run."""
    if not _REPORTS:
        return
    terminal = session.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is None:  # pragma: no cover - defensive
        return
    terminal.write_line("")
    terminal.write_sep("=", "reproduced paper tables")
    for title, body in _REPORTS:
        terminal.write_line("")
        terminal.write_line(f"--- {title} ---")
        for line in body.splitlines():
            terminal.write_line(line)
