"""Same-host perf-regression gate over the benchmark trajectory.

``BENCH_trajectory.json`` is a JSON list of rows, oldest first, that
``benchmarks/record_trajectory.py`` appends: one per recorded run of the
repository benchmark, with its ``host`` fingerprint and, per workload,
each end-to-end metric as ``{value, unit, better, bound}``.

For every host, :func:`analyze_trajectory` compares the latest value of
each workload metric with the median of its values in up to :data:`WINDOW`
earlier rows **from the same host**.  A value worse than that median, in
the metric's ``better`` direction, by more than the latest row's relative
``bound`` (0.25 = 25 %) is a :class:`Finding`.  Rows from another host are
never compared, and neither are rows without a ``host`` (such as the
2026-08-07 row, recorded by an earlier single-shot battery): timings from
different machines say nothing about the code.  ``python -m repro report``
and ``python -m repro compare`` read the same rows.  Run as a module for
the CI gate::

    python -m repro.telemetry.regress --check BENCH_trajectory.json

which exits 1 when it finds a regression, 0 otherwise (a host with a
single row passes: there is nothing to compare yet), and 2 with a one-line
error when the file is missing, not JSON or not a list of rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from statistics import median
from typing import Any, Mapping, Sequence

__all__ = [
    "Finding",
    "WINDOW",
    "analyze_trajectory",
    "host_key",
    "read_trajectory",
    "main",
]

#: Earlier same-host rows the baseline median is taken over.
WINDOW = 5


@dataclass(frozen=True)
class Finding:
    """A metric whose latest value on a host is worse than its bound allows."""

    workload: str
    metric: str
    rev: str
    latest: float
    baseline: float
    better: str
    bound: float

    def format(self) -> str:
        return (
            f"[FAIL] {self.workload}: {self.metric} regression at {self.rev} — "
            f"{self.latest:.6g} vs same-host median {self.baseline:.6g} "
            f"({_worsening(self.latest, self.baseline, self.better):+.1%} worse, "
            f"bound {self.bound:.0%}, {self.better} is better)"
        )


def _worsening(value: float, baseline: float, better: str) -> float:
    """How much worse ``value`` is than ``baseline``, relative to it
    (negative when it is better)."""
    change = value / baseline - 1.0
    return change if better == "lower" else -change


def host_key(row: Mapping[str, Any]) -> str | None:
    """The identity of a row's host, or ``None`` for a row without one."""
    host = row.get("host")
    return json.dumps(host, sort_keys=True) if host else None


def read_trajectory(path: str) -> list[Mapping[str, Any]]:
    """The rows of a ``BENCH_trajectory.json`` file, oldest first.

    Raises ``OSError`` when the file cannot be read and ``ValueError`` when
    it is not JSON or does not hold a list.
    """
    with open(path) as handle:
        rows = json.load(handle)
    if not isinstance(rows, list):
        raise ValueError(f"{path} does not hold a JSON list of trajectory rows")
    return rows


def analyze_trajectory(rows: Sequence[Mapping[str, Any]]) -> list[Finding]:
    """Findings for a loaded trajectory: each host's metrics, each against
    its own earlier values on that host."""
    series: dict[tuple[str, str, str], list[tuple[str, Mapping[str, Any]]]] = {}
    for row in rows:
        key = host_key(row)
        if key is None:
            continue
        for workload, metrics in row.get("workloads", {}).items():
            for name, metric in metrics.items():
                series.setdefault((key, workload, name), []).append((row.get("rev", "?"), metric))
    findings: list[Finding] = []
    for (_, workload, name), values in series.items():
        (rev, latest), earlier = values[-1], values[:-1][-WINDOW:]
        baseline = median(metric["value"] for _, metric in earlier) if earlier else 0.0
        if baseline <= 0:
            continue
        if _worsening(latest["value"], baseline, latest["better"]) > latest["bound"]:
            findings.append(
                Finding(
                    workload=workload,
                    metric=name,
                    rev=rev,
                    latest=latest["value"],
                    baseline=baseline,
                    better=latest["better"],
                    bound=latest["bound"],
                )
            )
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.regress",
        description="Gate each host's latest benchmark row on its own history.",
    )
    parser.add_argument(
        "--check",
        metavar="TRAJECTORY_JSON",
        required=True,
        help="trajectory file to analyse; exit 1 on a regression",
    )
    args = parser.parse_args(argv)
    try:
        rows = read_trajectory(args.check)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read trajectory: {exc}")
    findings = analyze_trajectory(rows)
    if not findings:
        print("regress: no regressions")
        return 0
    for finding in findings:
        print(finding.format())
    return 1


if __name__ == "__main__":
    sys.exit(main())
