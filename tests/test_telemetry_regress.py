"""Tests for the benchmark history: the recorder, the same-host regression
gate, and the ``report``/``compare`` commands that read the trajectory.

No benchmark is run: rows are synthesised, and the recorder reads canned
``perfbench/run.py`` output.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.telemetry.regress import WINDOW, analyze_trajectory, main as regress_main

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_TRAJECTORY = os.path.join(_ROOT, "BENCH_trajectory.json")
_SRC = os.path.join(_ROOT, "src")

HOST_A = {"cpu": "Xeon A", "nproc": 2, "python": "3.12.3", "numpy": "2.4.6"}
HOST_B = {**HOST_A, "cpu": "Epyc B"}


def _load_record_trajectory():
    spec = importlib.util.spec_from_file_location(
        "record_trajectory", os.path.join(_ROOT, "benchmarks", "record_trajectory.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(rev, wall=1.0, host=HOST_A, date="2026-10-01", workload="simulate-large", **extra):
    """One trajectory row with a ``wall_s`` metric (plus ``extra`` ones)."""
    metrics = {"wall_s": {"value": wall, "unit": "s", "better": "lower", "bound": 0.25}}
    for name, (value, better, bound) in extra.items():
        metrics[name] = {"value": value, "unit": "count", "better": better, "bound": bound}
    row = {"date": date, "rev": rev, "source_sha256": "0" * 16, "workloads": {workload: metrics}}
    if host is not None:
        row["host"] = dict(host)
    return row


def _write(tmp_path, *rows):
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(list(rows)))
    return str(path)


# --------------------------------------------------------------------- #
# Same-host regression gate


def test_single_row_is_vacuous():
    assert analyze_trajectory([_row("a")]) == []


def test_same_host_row_past_its_bound_fails_check(tmp_path, capsys):
    rows = [_row("a", 1.0), _row("b", 1.02), _row("c", 0.98)]
    assert regress_main(["--check", _write(tmp_path, *rows)]) == 0
    assert "no regressions" in capsys.readouterr().out
    rows.append(_row("d", 1.3))
    assert regress_main(["--check", _write(tmp_path, *rows)]) == 1
    out = capsys.readouterr().out
    assert "simulate-large: wall_s regression at d" in out
    assert "bound 25%" in out


def test_bound_is_relative_to_the_same_host_median():
    base = [_row("a", 1.0), _row("b", 1.0), _row("c", 1.0)]
    assert analyze_trajectory(base + [_row("d", 1.24)]) == []
    (finding,) = analyze_trajectory(base + [_row("d", 1.26)])
    assert (finding.workload, finding.metric, finding.rev) == ("simulate-large", "wall_s", "d")
    assert finding.baseline == pytest.approx(1.0)
    assert finding.latest == pytest.approx(1.26)
    # The latest row's own bound decides: 0.1 flags a 12 % growth.
    tight = _row("d", 1.0, peak_rss_mb=(112.0, "lower", 0.1))
    loose = [_row(rev, 1.0, peak_rss_mb=(100.0, "lower", 0.1)) for rev in "abc"]
    assert [f.metric for f in analyze_trajectory(loose + [tight])] == ["peak_rss_mb"]


def test_baseline_is_the_median_of_the_trailing_window():
    # One slow outlier cannot drag the median; rows older than the window
    # do not count at all.
    outlier = [_row("a", 1.0), _row("b", 5.0), _row("c", 1.0), _row("d", 1.0)]
    assert len(analyze_trajectory(outlier + [_row("e", 1.3)])) == 1
    old = [_row(f"old{i}", 10.0) for i in range(3)]
    recent = [_row(f"new{i}", 1.0) for i in range(WINDOW)]
    assert len(analyze_trajectory(old + recent + [_row("z", 1.3)])) == 1


def test_a_row_from_another_host_is_not_compared(tmp_path):
    rows = [_row("a", 1.0), _row("b", 1.0), _row("c", 5.0, host=HOST_B)]
    assert analyze_trajectory(rows) == []
    assert regress_main(["--check", _write(tmp_path, *rows)]) == 0


def test_each_host_is_gated_on_its_own_rows():
    # Host A's latest row regressed; a later row from host B does not hide it.
    rows = [_row("a", 1.0), _row("b", 2.0), _row("c", 9.0, host=HOST_B)]
    (finding,) = analyze_trajectory(rows)
    assert finding.rev == "b"


def test_a_higher_is_better_metric_regresses_when_it_falls():
    base = [_row(rev, proposals=(100.0, "higher", 0.25)) for rev in "abc"]
    assert analyze_trajectory(base + [_row("d", proposals=(130.0, "higher", 0.25))]) == []
    (finding,) = analyze_trajectory(base + [_row("d", proposals=(70.0, "higher", 0.25))])
    assert (finding.metric, finding.better) == ("proposals", "higher")
    assert "30.0% worse" in finding.format()


def test_rows_without_a_host_are_never_compared(tmp_path):
    battery_row = {"date": "2026-08-07", "rev": "1324a2b", "sections": {"plain": {"seconds": 1}}}
    hostless = [_row("a", 1.0, host=None), _row("b", 9.0, host=None)]
    assert analyze_trajectory([battery_row, *hostless]) == []
    # Nor does a hostless row serve as another row's baseline.
    assert analyze_trajectory([*hostless, _row("c", 9.0)]) == []
    assert regress_main(["--check", _write(tmp_path, battery_row, *hostless)]) == 0


def test_committed_trajectory_passes_check(capsys):
    assert regress_main(["--check", _TRAJECTORY]) == 0
    assert "no regressions" in capsys.readouterr().out


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


def _modules_after(statement):
    script = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    return set(json.loads(completed.stdout))


def test_import_loads_no_sqlite3():
    # The trajectory JSON is the only history store; importing the package
    # and its report/compare/regress entry points must not pull in sqlite3.
    assert "sqlite3" not in _modules_after("import repro, repro.cli, repro.telemetry.regress")


def test_import_repro_loads_neither_the_cli_nor_the_gate():
    loaded = _modules_after("import repro")
    assert not {"repro.cli", "repro.telemetry.regress"} & loaded


# --------------------------------------------------------------------- #
# The recorder (canned perfbench output, no benchmark run)

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 40,
    "workloads": [{"name": "simulate-large"}, {"name": "faults-mc"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
}


def _stdout(correct=True, host=HOST_A, wall=1.5, source="abcd" * 4):
    fingerprint = {**host, "git_rev": "f" * 40, "source_sha256": source}
    result = {
        "correct": correct,
        "attempted": 9,
        "failed": 0 if correct else 1,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": 95.9, "unit": "MiB"},
        },
    }
    return (
        "pass 0: traced=0 wall=1.500s setup=0.300s rss=95.9MiB failed=0\n"
        f"wall_s {wall} s\n"
        "host " + json.dumps(fingerprint, sort_keys=True) + "\n" + json.dumps(result) + "\n"
    )


def test_recorder_parses_the_last_two_lines():
    module = _load_record_trajectory()
    host, result = module.parse_output(_stdout())
    assert host["cpu"] == "Xeon A" and host["source_sha256"] == "abcd" * 4
    assert result["correct"] is True
    with pytest.raises(ValueError):
        module.parse_output(json.dumps({"correct": True}))


def test_recorder_builds_one_row_with_declared_bounds():
    module = _load_record_trajectory()
    calls = []

    def run(spec, name):
        calls.append(name)
        return _stdout(wall=2.0 if name == "faults-mc" else 1.5)

    row = module.build_row(SPEC, run, date="2026-10-18", rev="abc1234")
    assert calls == ["simulate-large", "faults-mc"]
    assert row["host"] == HOST_A  # git_rev and source_sha256 are not host fields
    assert row["source_sha256"] == "abcd" * 4
    assert (row["date"], row["rev"]) == ("2026-10-18", "abc1234")
    assert row["workloads"]["faults-mc"]["wall_s"] == {
        "value": 2.0, "unit": "s", "better": "lower", "bound": 0.25,
    }
    assert row["workloads"]["simulate-large"]["peak_rss_mb"]["bound"] == 0.1


def test_recorder_refuses_an_incorrect_workload(tmp_path):
    module = _load_record_trajectory()
    output = _write(tmp_path, _row("old"))
    before = open(output).read()

    def run(spec, name):
        return _stdout(correct=name != "faults-mc")

    with pytest.raises(SystemExit) as info:
        module.append_row(module.build_row(SPEC, run), output)
    assert "faults-mc: correct is false" in str(info.value.code)
    assert open(output).read() == before


def test_recorder_refuses_runs_from_two_sources():
    module = _load_record_trajectory()

    def run(spec, name):
        return _stdout(source="1234" * 4 if name == "faults-mc" else "abcd" * 4)

    with pytest.raises(SystemExit):
        module.build_row(SPEC, run)


def test_recorder_replaces_a_same_rev_same_host_row(tmp_path):
    module = _load_record_trajectory()
    output = str(tmp_path / "traj.json")
    module.append_row(_row("a", 1.0), output)
    module.append_row(_row("b", 1.1), output)
    module.append_row(_row("b", 1.2, host=HOST_B), output)
    module.append_row(_row("b", 1.3), output)
    rows = json.load(open(output))
    assert [(row["rev"], row["host"]["cpu"]) for row in rows] == [
        ("a", "Xeon A"), ("b", "Epyc B"), ("b", "Xeon A"),
    ]
    assert rows[-1]["workloads"]["simulate-large"]["wall_s"]["value"] == 1.3


def test_recorder_refuses_a_non_list_trajectory(tmp_path):
    module = _load_record_trajectory()
    output = str(tmp_path / "traj.json")
    with open(output, "w") as fh:
        json.dump({"not": "a list"}, fh)
    with pytest.raises(SystemExit):
        module.append_row(_row("a"), output)


def test_recorder_reads_the_repository_benchmark():
    module = _load_record_trajectory()
    spec = module.load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    assert names == ["simulate-large", "optimize-small", "faults-mc"]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_git_rev_short_hash():
    rev = _load_record_trajectory()._git_rev()
    rev = rev.removesuffix("+")
    assert rev == "unknown" or (4 <= len(rev) <= 40 and rev.isalnum())


# --------------------------------------------------------------------- #
# CLI report / compare


def _cli(argv):
    from repro.cli import main

    return main(argv)


def test_report_lists_each_workloads_last_rows_and_the_findings(tmp_path, capsys):
    assert _cli(["report", "--trajectory", _write(tmp_path)]) == 0
    assert "no recorded runs" in capsys.readouterr().out
    path = _write(
        tmp_path,
        _row("aaa", 1.0, date="2026-10-01"),
        _row("bbb", 1.0, date="2026-10-02"),
        _row("ccc", 2.5, date="2026-10-03"),
        _row("ddd", 1.0, date="2026-10-04", workload="faults-mc"),
    )
    assert _cli(["report", "--trajectory", path]) == 0
    out = capsys.readouterr().out
    assert "workload simulate-large" in out and "workload faults-mc" in out
    assert "2026-10-01" in out and "2026-10-03" in out
    assert "host h1: cpu Xeon A" in out
    assert "simulate-large: wall_s regression at ccc" in out
    assert _cli(["report", "--trajectory", path, "--last", "1"]) == 0
    out = capsys.readouterr().out
    assert "2026-10-01" not in out  # --last 1 keeps each workload's newest row
    assert "2026-10-03" in out and "2026-10-04" in out


def test_report_lists_a_row_without_host_and_never_compares_it(tmp_path, capsys):
    battery_row = {"date": "2026-08-07", "rev": "1324a2b", "sections": {}}
    path = _write(tmp_path, battery_row, _row("aaa", 1.0, host=None), _row("bbb", 9.0))
    assert _cli(["report", "--trajectory", path]) == 0
    out = capsys.readouterr().out
    assert "row 2026-08-07 1324a2b: no host, never compared" in out
    assert "aaa       -" in out  # listed under its workload, host "-"
    assert "no regressions" in out


def test_report_rejects_unreadable_trajectory(tmp_path, capsys):
    assert _cli(["report", "--trajectory", str(tmp_path / "missing.json")]) == 1
    assert "cannot read trajectory" in capsys.readouterr().err
    not_a_list = tmp_path / "object.json"
    not_a_list.write_text(json.dumps({"not": "a list"}))
    assert _cli(["report", "--trajectory", str(not_a_list)]) == 1
    assert "cannot read trajectory" in capsys.readouterr().err


def test_compare_shows_metrics_side_by_side_with_ratio_and_bound(tmp_path, capsys):
    path = _write(tmp_path, _row("aaa", 1.0), _row("bbb", 2.0), _row("bbb", 1.1, host=HOST_B))
    # bbb's latest row is on host B, where aaa has no row.
    assert _cli(["compare", "aaa", "bbb", "--trajectory", path]) == 1
    path = _write(tmp_path, _row("aaa", 1.0), _row("bbb", 2.0))
    assert _cli(["compare", "aaa", "bbb", "--trajectory", path]) == 0
    out = capsys.readouterr().out
    assert "workload simulate-large" in out
    assert "wall_s" in out and "2.00x  bound 25% (lower is better)" in out
    assert _cli(["compare", "aaa", "aaa", "--trajectory", path]) == 0
    assert "1.00x  bound 25%" in capsys.readouterr().out
    assert _cli(["compare", "aaa", "nosuch", "--trajectory", path]) == 1
    assert "nosuch" in capsys.readouterr().err


def test_compare_refuses_rows_from_two_hosts(tmp_path, capsys):
    path = _write(tmp_path, _row("aaa", 1.0), _row("bbb", 1.0, host=HOST_B))
    assert _cli(["compare", "aaa", "bbb", "--trajectory", path]) == 1
    assert "different hosts" in capsys.readouterr().err
    hostless = _write(tmp_path, _row("aaa", 1.0, host=None))
    assert _cli(["compare", "aaa", "aaa", "--trajectory", hostless]) == 1
    assert "different hosts" in capsys.readouterr().err


def test_compare_needs_a_shared_workload(tmp_path, capsys):
    path = _write(tmp_path, _row("aaa"), _row("bbb", workload="faults-mc"))
    assert _cli(["compare", "aaa", "bbb", "--trajectory", path]) == 1
    assert "no workload recorded under both 'aaa' and 'bbb'" in capsys.readouterr().err
