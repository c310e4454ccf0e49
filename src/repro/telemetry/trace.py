"""Trace-file tooling: schema validation, summaries, Chrome export.

Consumes the JSONL stream written by
:class:`repro.telemetry.sinks.JsonlRecorder` and powers the
``python -m repro stats`` subcommand plus the CI smoke step that validates a
traced run against the event schema.  The Chrome exporter emits the
`trace-event format <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto / ``chrome://tracing``: complete (``"ph": "X"``)
events for spans, instant (``"ph": "i"``) events for point annotations.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

from repro.telemetry.core import Histogram, RunStats, SpanRecord, EventRecord
from repro.telemetry.sinks import SCHEMA_TAG

__all__ = [
    "EVENT_TYPES",
    "SUPPORTED_SCHEMAS",
    "TraceError",
    "chrome_trace",
    "iter_trace",
    "read_stats",
    "validate_event",
    "write_chrome_trace",
]

#: Recognised values of each line's ``"type"`` field, with their required keys.
EVENT_TYPES: dict[str, tuple[str, ...]] = {
    "meta": ("schema",),
    "span": ("name", "id", "parent", "start_ns", "dur_ns", "attrs"),
    "counters": ("component", "counters"),
    "histogram": ("name", "buckets", "count", "total", "min", "max"),
    "gauge": ("name", "value", "ts_ns"),
    "event": ("name", "ts_ns", "attrs"),
}

#: Meta-line schema tags this reader accepts.  ``repro-telemetry/1``
#: traces (pre-histogram) remain readable; new traces are written as
#: :data:`~repro.telemetry.sinks.SCHEMA_TAG` (``repro-telemetry/2``).
SUPPORTED_SCHEMAS = ("repro-telemetry/1", SCHEMA_TAG)


class TraceError(ValueError):
    """A trace line that does not conform to the event schema."""


def validate_event(obj: Any, lineno: int | None = None) -> dict[str, Any]:
    """Check one parsed JSONL object against the schema; return it.

    Raises :class:`TraceError` naming the offending line and field.
    """
    where = f"line {lineno}: " if lineno is not None else ""
    if not isinstance(obj, dict):
        raise TraceError(f"{where}expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind not in EVENT_TYPES:
        raise TraceError(f"{where}unknown event type {kind!r}")
    missing = [key for key in EVENT_TYPES[kind] if key not in obj]
    if missing:
        raise TraceError(f"{where}{kind} event missing keys {missing}")
    if kind == "meta" and obj["schema"] not in SUPPORTED_SCHEMAS:
        raise TraceError(f"{where}unsupported schema {obj['schema']!r}")
    if kind == "span":
        if not isinstance(obj["id"], int) or not (
            obj["parent"] is None or isinstance(obj["parent"], int)
        ):
            raise TraceError(f"{where}span id/parent must be int (parent may be null)")
        if not isinstance(obj["start_ns"], int) or not isinstance(obj["dur_ns"], int):
            raise TraceError(f"{where}span start_ns/dur_ns must be integers")
    if kind == "counters":
        counts = obj["counters"]
        if not isinstance(counts, dict) or not all(
            isinstance(v, int) for v in counts.values()
        ):
            raise TraceError(f"{where}counters must map names to integers")
    if kind == "histogram":
        buckets = obj["buckets"]
        if not isinstance(buckets, dict) or not all(
            isinstance(k, str) and k.lstrip("-").isdigit() and isinstance(v, int)
            for k, v in buckets.items()
        ):
            raise TraceError(
                f"{where}histogram buckets must map stringified indices to integers"
            )
        if not isinstance(obj["count"], int):
            raise TraceError(f"{where}histogram count must be an integer")
    if kind == "gauge" and not isinstance(obj["value"], (int, float)):
        raise TraceError(f"{where}gauge value must be a number")
    return obj


def iter_trace(path: str) -> Iterator[dict[str, Any]]:
    """Yield validated events from a JSONL trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {lineno}: invalid JSON ({exc})") from exc
            yield validate_event(obj, lineno)


def read_stats(path: str) -> RunStats:
    """Reconstruct a :class:`RunStats` roll-up from a trace file."""
    stats = RunStats()
    for obj in iter_trace(path):
        kind = obj["type"]
        if kind == "counters":
            stats.add_counters(obj["component"], obj["counters"])
        elif kind == "histogram":
            stats.add_histogram(obj["name"], Histogram.from_dict(obj))
        elif kind == "gauge":
            stats.set_gauge(obj["name"], obj["value"])
        elif kind == "span":
            stats.spans.append(
                SpanRecord(
                    name=obj["name"],
                    span_id=obj["id"],
                    parent_id=obj["parent"],
                    start_ns=obj["start_ns"],
                    duration_ns=obj["dur_ns"],
                    attrs=obj["attrs"],
                )
            )
        elif kind == "event":
            stats.events.append(
                EventRecord(name=obj["name"], ts_ns=obj["ts_ns"], attrs=obj["attrs"])
            )
    return stats


def chrome_trace(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Convert validated trace events to a Chrome trace-event JSON object."""
    trace_events: list[dict[str, Any]] = []
    for obj in events:
        kind = obj["type"]
        if kind == "span":
            args = dict(obj["attrs"])
            if obj["parent"] is not None:
                args["parent_span"] = obj["parent"]
            trace_events.append(
                {
                    "name": obj["name"],
                    "cat": "repro",
                    "ph": "X",
                    "ts": obj["start_ns"] / 1000.0,
                    "dur": obj["dur_ns"] / 1000.0,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        elif kind == "event":
            trace_events.append(
                {
                    "name": obj["name"],
                    "cat": "repro",
                    "ph": "i",
                    "s": "g",
                    "ts": obj["ts_ns"] / 1000.0,
                    "pid": 0,
                    "tid": 0,
                    "args": dict(obj["attrs"]),
                }
            )
        elif kind == "gauge":
            trace_events.append(
                {
                    "name": obj["name"],
                    "cat": "repro",
                    "ph": "C",
                    "ts": obj["ts_ns"] / 1000.0,
                    "pid": 0,
                    "args": {obj["name"]: obj["value"]},
                }
            )
        # counters/histogram/meta lines carry no timestamped series;
        # summarized instead.
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace_path: str, out_path: str) -> int:
    """Export a JSONL trace to Chrome trace-event JSON; return event count."""
    converted = chrome_trace(iter_trace(trace_path))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(converted, handle, indent=1)
        handle.write("\n")
    return len(converted["traceEvents"])
