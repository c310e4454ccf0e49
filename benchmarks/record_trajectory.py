"""Record one row of repository-benchmark results in the JSON trajectory.

Usage (from the repository root)::

    python benchmarks/record_trajectory.py [--output PATH]

Runs every workload that ``BENCHMARK.json`` declares once through its
``command`` (``perfbench/run.py --workload W --seed 1 --seconds
<run_seconds> --trace 0``: several fresh-process passes, host-speed
corrected, outputs checked against oracles) and appends one row ::

    {"date": "2026-10-18", "rev": "fa0fd3a",
     "host": {"cpu": ..., "nproc": 2, "python": "3.12.3", "numpy": "2.4.6"},
     "source_sha256": "…",
     "workloads": {"simulate-large": {"wall_s": {"value": 4.5, "unit": "s",
                                                 "better": "lower", "bound": 0.25},
                                      ...}, ...}}

to ``BENCH_trajectory.json`` at the repository root (``--output``
overrides the path).  The host fingerprint and the result come from the
last two lines of each run's standard output; ``better`` and ``bound``
come from the ``end_to_end`` list of ``BENCHMARK.json``.  ``rev`` is the
checked-out commit, with a ``+`` when tracked files differ from it.

A re-run at the same rev on the same host replaces that row.  A workload
whose result reads ``correct: false`` appends nothing and exits 1.
:mod:`repro.telemetry.regress` gates the rows per host, and
``python -m repro report`` / ``compare`` read them.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
DEFAULT_OUTPUT = os.path.join(ROOT, "BENCH_trajectory.json")


def _git_rev() -> str:
    """Short commit of this checkout, ``+`` when dirty (or "unknown")."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty=+", "--exclude=*"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=10,
        )
    except OSError:  # pragma: no cover - git missing entirely
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def load_spec() -> dict:
    """The repository's ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(spec: dict, name: str) -> str:
    """One benchmark run of workload ``name``; its standard output."""
    command = [
        *spec["command"],
        "--workload", name,
        "--seed", "1",
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: benchmark exited {proc.returncode}; nothing recorded")
    return proc.stdout


def parse_output(stdout: str) -> tuple[dict, dict]:
    """``(host fingerprint, result)`` from the last two lines of a run."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("host "):
        raise ValueError("benchmark output does not end with a host line and a result line")
    return json.loads(lines[-2][len("host "):]), json.loads(lines[-1])


def build_row(
    spec: dict, run=run_workload, date: str | None = None, rev: str | None = None
) -> dict:
    """Run every workload through ``run`` and build one row (no I/O).

    Raises ``SystemExit`` as soon as a workload reads ``correct: false``
    or the runs disagree on the host or the source.
    """
    declared = {m["name"]: m for m in spec["end_to_end"]}
    fingerprint = None
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        host, result = parse_output(run(spec, name))
        if not result["correct"]:
            raise SystemExit(
                f"{name}: correct is false ({result['failed']} of "
                f"{result['attempted']} jobs failed); nothing recorded"
            )
        # The fields that decide whether two rows' timings compare.
        machine = {field: host[field] for field in ("cpu", "nproc", "python", "numpy")}
        key = (machine, host["source_sha256"])
        if fingerprint not in (None, key):
            raise SystemExit(f"{name}: ran on another host or source; nothing recorded")
        fingerprint = key
        workloads[name] = {
            metric: {
                "value": measured["value"],
                "unit": measured["unit"],
                "better": declared[metric]["better"],
                "bound": declared[metric]["bound"],
            }
            for metric, measured in result["metrics"].items()
        }
    return {
        "date": date or datetime.date.today().isoformat(),
        "rev": rev or _git_rev(),
        "host": fingerprint[0],
        "source_sha256": fingerprint[1],
        "workloads": workloads,
    }


def append_row(row: dict, output: str) -> None:
    """Write ``row`` into the trajectory, replacing its rev's row on its host."""
    trajectory: list = []
    if os.path.exists(output):
        with open(output) as fh:
            trajectory = json.load(fh)
        if not isinstance(trajectory, list):
            raise SystemExit(f"{output} does not hold a JSON list; refusing to append")
    trajectory = [
        old for old in trajectory
        if (old.get("rev"), old.get("host")) != (row["rev"], row["host"])
    ]
    trajectory.append(row)
    with open(output, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record one row of repository-benchmark results in the JSON trajectory."
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="trajectory file to append to (default: BENCH_trajectory.json at the repo root)",
    )
    args = parser.parse_args(argv)
    row = build_row(load_spec())
    append_row(row, args.output)
    print(f"recorded {row['date']} ({row['rev']}) -> {os.path.abspath(args.output)}")
    for name, metrics in row["workloads"].items():
        values = "  ".join(
            f"{metric} {m['value']:.4g} {m['unit']}" for metric, m in metrics.items()
        )
        print(f"  {name}: {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
