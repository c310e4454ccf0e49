"""Tests for the regression detector, the trajectory recorder's dedupe,
and the ``report``/``compare`` commands that read the trajectory (no
benchmark battery is run — entries are synthesised).
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.telemetry.regress import (
    Observation,
    analyze_section,
    analyze_trajectory,
    main as regress_main,
    trajectory_observations,
)

_BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
_TRAJECTORY = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_trajectory.json"
)
_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _load_record_trajectory():
    spec = importlib.util.spec_from_file_location(
        "record_trajectory", os.path.join(_BENCHMARKS, "record_trajectory.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(date, rev, seconds=1.0, counters=None, section="bench"):
    return {
        "date": date,
        "rev": rev,
        "sections": {
            section: {
                "instance": "C(8)",
                "seconds": seconds,
                "counters": counters or {"work": 100},
                "histograms": {"lat": {"1": 3, "9": 1}},
            }
        },
        "telemetry": dict(counters or {"work": 100}),
    }


# --------------------------------------------------------------------- #
# Regression detector


def _series(*seconds, counters=None):
    return [
        Observation(
            date=f"2026-08-{i + 1:02d}",
            rev="r",
            seconds=value,
            counters=(counters[i] if counters else {"work": 100}),
        )
        for i, value in enumerate(seconds)
    ]


def test_clean_series_has_no_findings():
    assert analyze_section("s", _series(1.0, 1.02, 0.98, 1.01, 1.0)) == []


def test_single_observation_is_vacuous():
    assert analyze_section("s", _series(1.0)) == []


def test_timing_regression_flagged():
    findings = analyze_section("s", _series(1.0, 1.0, 1.0, 2.0))
    assert [f.kind for f in findings] == ["timing_regression"]
    assert findings[0].failing
    assert findings[0].ratio == pytest.approx(2.0)
    # Baseline is the trailing median: a single old outlier cannot mask it.
    outlier = analyze_section("s", _series(1.0, 5.0, 1.0, 1.0, 1.0, 2.0))
    assert [f.kind for f in outlier] == ["timing_regression"]


def test_workload_shift_flagged_when_timing_flat():
    counters = [{"work": 100}, {"work": 100}, {"work": 100}, {"work": 200}]
    findings = analyze_section("s", _series(1.0, 1.0, 1.0, 1.05, counters=counters))
    assert [f.kind for f in findings] == ["workload_shift"]
    assert not findings[0].failing
    assert findings[0].metric == "work"
    # Shifts *down* count too.
    counters[-1] = {"work": 50}
    down = analyze_section("s", _series(1.0, 1.0, 1.0, 1.0, counters=counters))
    assert [f.kind for f in down] == ["workload_shift"]


def test_timing_shift_flagged_when_counters_flat():
    findings = analyze_section("s", _series(1.0, 1.0, 1.0, 1.2))
    assert [f.kind for f in findings] == ["timing_shift"]
    assert not findings[0].failing


def test_regression_with_matching_workload_is_not_doubly_reported():
    # Twice the work in twice the time: a regression in wall-clock terms,
    # but the counter movement explains it — one failing finding, no
    # spurious workload_shift on top.
    counters = [{"work": 100}, {"work": 100}, {"work": 100}, {"work": 200}]
    findings = analyze_section("s", _series(1.0, 1.0, 1.0, 2.0, counters=counters))
    assert [f.kind for f in findings] == ["timing_regression"]


def test_analyze_trajectory_old_format_rows():
    # Early rows: no rev, no per-section counters -> timing-only.
    rows = [
        {"date": "2026-08-01", "sections": {"bench": {"seconds": 1.0}}},
        {"date": "2026-08-02", "sections": {"bench": {"seconds": 2.0}}},
    ]
    findings = analyze_trajectory(rows)
    assert [f.kind for f in findings] == ["timing_regression"]


def test_analyze_trajectory_engine_sections_use_best_seconds():
    def row(date, best):
        return {
            "date": date,
            "sections": {
                "plain": {"seconds": {"a": best + 0.1, "b": best}, "best_seconds": best}
            },
        }

    clean = analyze_trajectory([row("2026-08-01", 1.0), row("2026-08-02", 1.0)])
    assert clean == []
    regressed = analyze_trajectory([row("2026-08-01", 1.0), row("2026-08-02", 3.0)])
    assert [f.kind for f in regressed] == ["timing_regression"]


def test_trajectory_observations_map_sections():
    bench = _entry("2026-08-01", "abc", seconds=0.5)
    bench["sections"]["engines"] = {
        "instance": "C(1024)",
        "seconds": {"vectorized": 0.2, "frontier": 0.4},
        "best_engine": "vectorized",
        "best_seconds": 0.2,
        "counters": {"engine.vectorized.runs": 1},
        "histograms": {},
    }
    early = {"date": "2026-07-01", "sections": {"bench": {"seconds": 0.7}}}
    sections = trajectory_observations([early, bench])
    assert sorted(sections) == ["bench", "engines"]
    # Rows keep their file order; an early row without rev or counters
    # reads as rev "?" with no counters.
    assert sections["bench"] == [
        Observation(date="2026-07-01", rev="?", seconds=0.7, counters={}),
        Observation(date="2026-08-01", rev="abc", seconds=0.5, counters={"work": 100}),
    ]
    # Engine sections time each backend; their scalar is the best one.
    (engines,) = sections["engines"]
    assert engines.seconds == 0.2
    assert engines.counters == {"engine.vectorized.runs": 1}


def test_committed_trajectory_is_quiet():
    with open(_TRAJECTORY) as handle:
        rows = json.load(handle)
    assert not any(f.failing for f in analyze_trajectory(rows))


def test_regress_cli_check(tmp_path, capsys):
    clean = [
        _entry("2026-08-01", "a"),
        _entry("2026-08-02", "b"),
    ]
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(clean))
    assert regress_main(["--check", str(path)]) == 0
    slow = clean + [_entry("2026-08-03", "c", seconds=2.5)]
    path.write_text(json.dumps(slow))
    assert regress_main(["--check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "timing_regression" in out


def test_regress_cli_requires_a_trajectory():
    with pytest.raises(SystemExit):
        regress_main([])


def test_regress_cli_rejects_unreadable_trajectory(tmp_path, capsys):
    not_a_list = tmp_path / "object.json"
    not_a_list.write_text(json.dumps({"not": "a list"}))
    not_json = tmp_path / "broken.json"
    not_json.write_text("[{")
    for path in (tmp_path / "missing.json", not_a_list, not_json):
        with pytest.raises(SystemExit) as info:
            regress_main(["--check", str(path)])
        # Exit 2 (unusable input) is distinct from 1 (regression found).
        assert info.value.code == 2, path
        assert "cannot read trajectory" in capsys.readouterr().err, path


def test_import_loads_no_sqlite3():
    # The trajectory JSON is the only history store; importing the package
    # and its report/compare/regress entry points must not pull in sqlite3.
    script = (
        "import sys, repro, repro.cli, repro.telemetry.regress; "
        "print('sqlite3' in sys.modules)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    assert completed.stdout.strip() == "False"


# --------------------------------------------------------------------- #
# record_trajectory integration (no battery run)


def test_append_entry_dedupes_same_date(tmp_path):
    module = _load_record_trajectory()
    output = str(tmp_path / "traj.json")
    module.append_entry(_entry("2026-08-01", "a", seconds=1.0), output)
    module.append_entry(_entry("2026-08-02", "a", seconds=1.1), output)
    rows = json.load(open(output))
    assert [row["date"] for row in rows] == ["2026-08-01", "2026-08-02"]
    # A same-date re-run replaces the earlier row, keeping the latest.
    module.append_entry(_entry("2026-08-02", "b", seconds=9.9), output)
    rows = json.load(open(output))
    assert [row["date"] for row in rows] == ["2026-08-01", "2026-08-02"]
    assert rows[-1]["rev"] == "b"
    assert rows[-1]["sections"]["bench"]["seconds"] == 9.9


def test_append_entry_refuses_non_list(tmp_path):
    module = _load_record_trajectory()
    output = str(tmp_path / "traj.json")
    with open(output, "w") as fh:
        json.dump({"not": "a list"}, fh)
    with pytest.raises(SystemExit):
        module.append_entry(_entry("2026-08-01", "a"), output)


def test_git_rev_short_hash():
    module = _load_record_trajectory()
    rev = module._git_rev()
    assert rev == "unknown" or (4 <= len(rev) <= 40 and rev.isalnum())


# --------------------------------------------------------------------- #
# CLI report / compare


def _cli(argv):
    from repro.cli import main

    return main(argv)


def _trajectory(tmp_path, *entries):
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(list(entries)))
    return str(path)


def test_cli_report_empty_and_populated(tmp_path, capsys):
    empty = _trajectory(tmp_path)
    assert _cli(["report", "--trajectory", empty]) == 0
    assert "no recorded runs" in capsys.readouterr().out
    path = _trajectory(
        tmp_path, _entry("2026-08-01", "a"), _entry("2026-08-02", "b", seconds=2.5)
    )
    assert _cli(["report", "--trajectory", path]) == 0
    out = capsys.readouterr().out
    assert "section bench" in out
    assert "2026-08-01" in out and "2026-08-02" in out
    assert "timing_regression" in out
    assert _cli(["report", "--trajectory", path, "--section", "bench", "--last", "1"]) == 0
    out = capsys.readouterr().out
    assert "2026-08-01" not in out  # --last 1 keeps only the newest row


def test_cli_report_rejects_unreadable_trajectory(tmp_path, capsys):
    assert _cli(["report", "--trajectory", str(tmp_path / "missing.json")]) == 1
    assert "cannot read trajectory" in capsys.readouterr().err
    not_a_list = tmp_path / "object.json"
    not_a_list.write_text(json.dumps({"not": "a list"}))
    assert _cli(["report", "--trajectory", str(not_a_list)]) == 1
    assert "cannot read trajectory" in capsys.readouterr().err


def test_cli_compare(tmp_path, capsys):
    path = _trajectory(
        tmp_path,
        _entry("2026-08-01", "aaa", counters={"work": 100}),
        _entry("2026-08-02", "bbb", seconds=2.0, counters={"work": 300}),
    )
    assert _cli(["compare", "aaa", "bbb", "--trajectory", path]) == 0
    out = capsys.readouterr().out
    assert "2.00x" in out
    assert "work: 100 -> 300" in out
    assert _cli(["compare", "aaa", "nosuch", "--trajectory", path]) == 1
    assert "nosuch" in capsys.readouterr().err


def test_cli_compare_needs_a_shared_section(tmp_path, capsys):
    path = _trajectory(
        tmp_path,
        _entry("2026-08-01", "aaa", section="plain"),
        _entry("2026-08-02", "bbb", section="tracked"),
    )
    assert _cli(["compare", "aaa", "bbb", "--trajectory", path]) == 1
    assert "no section recorded under both 'aaa' and 'bbb'" in capsys.readouterr().err
    # The latest row of a revision recorded twice is the one compared.
    path = _trajectory(
        tmp_path,
        _entry("2026-08-01", "aaa"),
        _entry("2026-08-02", "bbb", seconds=3.0),
        _entry("2026-08-03", "bbb", seconds=1.5),
    )
    assert _cli(["compare", "aaa", "bbb", "--trajectory", path]) == 0
    assert "1.0000 -> 1.5000  (1.50x)" in capsys.readouterr().out
