"""Trailing-median perf-regression detection over the run trajectory.

Compares each benchmark section's **latest** observation against the
median of its up-to-:data:`WINDOW` preceding observations — a baseline
that single outlier days cannot drag — and classifies what moved:

``timing_regression``
    The latest timing exceeds :data:`TIMING_THRESHOLD` × the baseline
    median.  The only finding kind that fails ``--check`` (CI gates on
    confirmed slowdowns, not on warnings).
``workload_shift``
    A telemetry counter moved by more than :data:`COUNTER_THRESHOLD` ×
    in either direction while the timing stayed within
    :data:`TIMING_NOISE` — the code is doing *different work* in the
    same time (e.g. an engine heuristic now picks a different backend,
    or checkpoint reuse silently collapsed).  Warning only.
``timing_shift``
    The timing moved beyond :data:`TIMING_NOISE` (but not past the
    regression threshold) while every counter stayed flat — the same
    work got slower/faster, which usually means environment noise or a
    creeping code-path cost.  Warning only.

The input is ``BENCH_trajectory.json`` (the committed JSON written by
``benchmarks/record_trajectory.py``; early rows without per-section
counters are analysed on timings alone).  ``repro-gossip report`` and
``repro-gossip compare`` read the same rows through
:func:`trajectory_observations`.  Run as a module for the CI gate::

    python -m repro.telemetry.regress --check BENCH_trajectory.json

which exits 1 when a ``timing_regression`` is found, 0 otherwise (a
trajectory with fewer than two observations for every section passes
vacuously — there is nothing to compare yet), and 2 with a one-line
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
    "COUNTER_THRESHOLD",
    "Finding",
    "Observation",
    "TIMING_NOISE",
    "TIMING_THRESHOLD",
    "WINDOW",
    "analyze_sections",
    "analyze_trajectory",
    "read_trajectory",
    "trajectory_observations",
    "main",
]

#: Latest/median timing ratio above which a section is a regression.
TIMING_THRESHOLD = 1.3

#: Counter ratio (either direction) treated as a workload change.
COUNTER_THRESHOLD = 1.25

#: Timing ratio band treated as "did not move" for anomaly classification.
TIMING_NOISE = 1.15

#: Trailing observations the baseline median is taken over.
WINDOW = 5


@dataclass(frozen=True)
class Observation:
    """One dated data point of one section."""

    date: str
    rev: str
    seconds: float | None
    counters: Mapping[str, int]


@dataclass(frozen=True)
class Finding:
    """One detected anomaly (see the module docstring for the kinds)."""

    section: str
    kind: str
    metric: str
    latest: float
    baseline: float
    ratio: float

    #: Finding kinds that should fail a CI check.
    FAILING_KINDS = ("timing_regression",)

    @property
    def failing(self) -> bool:
        return self.kind in self.FAILING_KINDS

    def format(self) -> str:
        flag = "FAIL" if self.failing else "warn"
        return (
            f"[{flag}] {self.section}: {self.kind} — {self.metric} "
            f"{self.latest:.6g} vs baseline {self.baseline:.6g} "
            f"({self.ratio:.2f}x)"
        )


def _ratio(latest: float, baseline: float) -> float | None:
    if baseline <= 0 or latest <= 0:
        return None
    return latest / baseline


def _shifted(ratio: float | None, threshold: float) -> bool:
    return ratio is not None and (ratio > threshold or ratio < 1.0 / threshold)


def analyze_section(
    section: str,
    series: Sequence[Observation],
    *,
    window: int = WINDOW,
    timing_threshold: float = TIMING_THRESHOLD,
) -> list[Finding]:
    """Findings for one section's observation series (oldest first)."""
    if len(series) < 2:
        return []
    latest = series[-1]
    baseline = series[max(0, len(series) - 1 - window) : -1]

    findings: list[Finding] = []
    timing_ratio = None
    base_seconds = [obs.seconds for obs in baseline if obs.seconds is not None]
    if latest.seconds is not None and base_seconds:
        base_median = median(base_seconds)
        timing_ratio = _ratio(latest.seconds, base_median)
        if timing_ratio is not None and timing_ratio > timing_threshold:
            findings.append(
                Finding(
                    section=section,
                    kind="timing_regression",
                    metric="seconds",
                    latest=latest.seconds,
                    baseline=base_median,
                    ratio=timing_ratio,
                )
            )

    # Counter medians over the same baseline, per name; names missing from
    # an older observation simply don't contribute to that median.
    counter_shifts: list[Finding] = []
    for name in sorted(latest.counters):
        base_values = [
            float(obs.counters[name]) for obs in baseline if name in obs.counters
        ]
        if not base_values:
            continue
        base_median = median(base_values)
        ratio = _ratio(float(latest.counters[name]), base_median)
        if _shifted(ratio, COUNTER_THRESHOLD):
            counter_shifts.append(
                Finding(
                    section=section,
                    kind="workload_shift",
                    metric=name,
                    latest=float(latest.counters[name]),
                    baseline=base_median,
                    ratio=ratio,  # type: ignore[arg-type]
                )
            )

    timing_flat = timing_ratio is None or not _shifted(timing_ratio, TIMING_NOISE)
    if timing_flat:
        # Counters moved while timing did not: genuine workload shifts.
        findings.extend(counter_shifts)
    elif not counter_shifts and timing_ratio is not None:
        if timing_ratio <= timing_threshold:
            # Timing moved while every counter stayed flat — not (yet) a
            # regression, but the work/time relationship changed.
            findings.append(
                Finding(
                    section=section,
                    kind="timing_shift",
                    metric="seconds",
                    latest=latest.seconds,  # type: ignore[arg-type]
                    baseline=median(base_seconds),
                    ratio=timing_ratio,
                )
            )
    return findings


def analyze_sections(
    sections: Mapping[str, Sequence[Observation]],
    *,
    window: int = WINDOW,
    timing_threshold: float = TIMING_THRESHOLD,
) -> list[Finding]:
    """Findings across a per-section observation map."""
    findings: list[Finding] = []
    for name in sorted(sections):
        findings.extend(
            analyze_section(
                name,
                sections[name],
                window=window,
                timing_threshold=timing_threshold,
            )
        )
    return findings


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


def trajectory_observations(
    rows: Sequence[Mapping[str, Any]],
) -> dict[str, list[Observation]]:
    """Per-section observation series from ``BENCH_trajectory.json`` rows.

    Engine sections report per-backend timing dicts; their scalar is the
    recorded ``best_seconds``.  Rows predating the per-section ``counters``
    block contribute timing-only observations.
    """
    sections: dict[str, list[Observation]] = {}
    for row in rows:
        for name, section in sorted(row.get("sections", {}).items()):
            seconds = section.get("seconds")
            if isinstance(seconds, dict):
                seconds = section.get("best_seconds")
            sections.setdefault(name, []).append(
                Observation(
                    date=row.get("date", "?"),
                    rev=row.get("rev", "?"),
                    seconds=seconds,
                    counters=section.get("counters") or {},
                )
            )
    return sections


def analyze_trajectory(
    rows: Sequence[Mapping[str, Any]],
    *,
    window: int = WINDOW,
    timing_threshold: float = TIMING_THRESHOLD,
) -> list[Finding]:
    """Findings for a loaded ``BENCH_trajectory.json`` list."""
    return analyze_sections(
        trajectory_observations(rows),
        window=window,
        timing_threshold=timing_threshold,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.regress",
        description="Detect perf regressions in the benchmark trajectory.",
    )
    parser.add_argument(
        "--check",
        metavar="TRAJECTORY_JSON",
        required=True,
        help="trajectory file to analyse; exit 1 on a timing regression",
    )
    parser.add_argument(
        "--window", type=int, default=WINDOW, help="baseline median window"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=TIMING_THRESHOLD,
        help="timing ratio that counts as a regression",
    )
    args = parser.parse_args(argv)
    try:
        rows = read_trajectory(args.check)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read trajectory: {exc}")
    findings = analyze_trajectory(
        rows, window=args.window, timing_threshold=args.threshold
    )

    if not findings:
        print("regress: no anomalies detected")
        return 0
    for finding in findings:
        print(finding.format())
    return 1 if any(f.failing for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
