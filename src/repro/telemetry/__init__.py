"""``repro.telemetry`` — zero-dependency run telemetry and profiling.

Hierarchical spans (``perf_counter_ns`` timers with parent attribution via
context variables), monotonic run counters with flush-once semantics,
mergeable log-spaced :class:`Histogram` distributions plus point-in-time
gauges, and a recorder registry whose default :class:`NullRecorder` keeps
disabled telemetry near-free.  See :mod:`repro.telemetry.core` for the
overhead contract and the shared bucket layout, :mod:`repro.telemetry.sinks`
for the JSONL stream format (schema ``repro-telemetry/2``),
:mod:`repro.telemetry.trace` for validation / summaries / the Chrome
trace-event exporter, and :mod:`repro.telemetry.regress` for the same-host
regression gate over ``BENCH_trajectory.json``, the repository benchmark's
history (which ``python -m repro report`` and ``python -m repro compare``
also read).

Quick start::

    from repro import telemetry

    with telemetry.recording(telemetry.StatsRecorder()) as rec:
        result = simulate(...)            # engines self-report
    print(rec.stats.format_table())       # counters + histogram quantiles

or stream to a file (what the CLI's ``--trace PATH`` / ``REPRO_TRACE`` do)::

    with telemetry.recording(telemetry.JsonlRecorder("run.jsonl")) as rec:
        ...
    rec.close()

Multi-process runs (island search) record worker-side and ship frozen
:class:`RunStats` back to the driver, which re-parents worker spans under
its own span tree (:func:`reparented`) and replays them through the active
recorder (:meth:`Recorder.absorb`) — so merged accounting is identical for
any worker count.

``REPRO_TRACE`` names a JSONL trace destination the CLI writes when
``--trace`` is absent.
"""

from __future__ import annotations

import os

from repro.telemetry.core import (
    NULL_RECORDER,
    EventRecord,
    Histogram,
    NullRecorder,
    Recorder,
    RunStats,
    SpanRecord,
    StatsRecorder,
    counters,
    current_span_id,
    event,
    gauge,
    get_recorder,
    histogram,
    next_span_id,
    record_span,
    recording,
    reparented,
    span,
)
from repro.telemetry.sinks import FLUSH_POLICIES, SCHEMA_TAG, JsonlRecorder
from repro.telemetry.trace import (
    EVENT_TYPES,
    SUPPORTED_SCHEMAS,
    TraceError,
    chrome_trace,
    iter_trace,
    read_stats,
    validate_event,
    write_chrome_trace,
)

#: Environment variable naming a JSONL trace path (CLI fallback for --trace).
TRACE_ENV_VAR = "REPRO_TRACE"


def trace_path_from_env() -> str | None:
    """The ``REPRO_TRACE`` trace destination, if configured and non-empty."""
    path = os.environ.get(TRACE_ENV_VAR, "").strip()
    return path or None


__all__ = [
    "EVENT_TYPES",
    "EventRecord",
    "FLUSH_POLICIES",
    "Histogram",
    "JsonlRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "RunStats",
    "SCHEMA_TAG",
    "SUPPORTED_SCHEMAS",
    "SpanRecord",
    "StatsRecorder",
    "TRACE_ENV_VAR",
    "TraceError",
    "chrome_trace",
    "counters",
    "current_span_id",
    "event",
    "gauge",
    "get_recorder",
    "histogram",
    "iter_trace",
    "next_span_id",
    "read_stats",
    "record_span",
    "recording",
    "reparented",
    "span",
    "trace_path_from_env",
    "validate_event",
    "write_chrome_trace",
]
