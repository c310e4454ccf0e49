"""Streaming sinks: the JSONL trace recorder.

The JSONL format is the interchange surface — one self-describing JSON
object per line, validated by :mod:`repro.telemetry.trace` (which also
converts it to Chrome trace-event JSON for Perfetto / ``chrome://tracing``).

Line types (see :data:`repro.telemetry.trace.EVENT_TYPES`):

``{"type": "meta", "schema": "repro-telemetry/2", ...}``
    First line of every trace; carries the schema tag and creation time.
``{"type": "span", "name", "id", "parent", "start_ns", "dur_ns", "attrs"}``
    A finished timed region; ``parent`` is ``null`` for roots.
``{"type": "counters", "component", "counters": {name: int, ...}}``
    One run's flushed counter dict for one component.
``{"type": "histogram", "name", "buckets", "count", "total", "min", "max"}``
    One flushed distribution over the shared log-spaced bucket layout
    (bucket indices are stringified ints; merge lines of one name by
    summing buckets).  Schema ``repro-telemetry/2``.
``{"type": "gauge", "name", "value", "ts_ns"}``
    One point-in-time value (last line of a name wins).  Schema ``2``.
``{"type": "event", "name", "ts_ns", "attrs"}``
    A point annotation (e.g. ``engine.resolve`` with the auto rationale).

Readers accept both the original ``repro-telemetry/1`` tag (no
histogram/gauge lines) and the current ``repro-telemetry/2``.

Concurrent writers
------------------
Every record is serialised to one string (newline included) and handed to
the handle in a **single** ``write()`` call, and the buffer is flushed
immediately after — so a line never sits half-written in a userspace
buffer where an interleaved writer could split it.  That makes sharing one ``REPRO_TRACE`` path
across processes *practically* safe on POSIX appends, but it is not a
kernel-level guarantee (only ``O_APPEND`` writes below ``PIPE_BUF`` are
atomic).  The robust alternative for heavy multi-process tracing is one
file per process — e.g. ``REPRO_TRACE=run.$$.jsonl`` — merged afterwards;
``iter_trace`` accepts each shard independently.  Island workers avoid
the problem entirely: they record in memory and ship frozen stats back to
the driver, which streams them through its own single recorder.
"""

from __future__ import annotations

import json
import time
from typing import Any, Mapping, TextIO

from repro.telemetry.core import EventRecord, Histogram, Recorder, SpanRecord

__all__ = ["JsonlRecorder", "SCHEMA_TAG"]

SCHEMA_TAG = "repro-telemetry/2"


def _jsonable(attrs: Mapping[str, Any]) -> dict[str, Any]:
    """Best-effort conversion of span/event attrs to JSON-safe values."""
    out: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


class JsonlRecorder(Recorder):
    """Recording sink that also streams every record as a JSONL line.

    Keeps the in-memory :class:`~repro.telemetry.core.RunStats` roll-up from
    the base class, so one recorder serves both ``--trace`` and
    ``--metrics``.  Accepts a path or an open text handle (handy for
    in-memory tests via ``io.StringIO``).  Every record is flushed as it is
    written, which keeps lines whole in practice (see the module docstring).
    """

    def __init__(self, path_or_handle: "str | TextIO") -> None:
        super().__init__()
        if isinstance(path_or_handle, str):
            self._handle: TextIO = open(path_or_handle, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = path_or_handle
            self._owns_handle = False
        self._write(
            {"type": "meta", "schema": SCHEMA_TAG, "created": time.time()}
        )

    def _write(self, obj: dict[str, Any]) -> None:
        # One write() per record keeps each line contiguous in the buffer;
        # the per-line flush hands it to the OS before anyone else can
        # interleave.
        self._handle.write(json.dumps(obj, sort_keys=True) + "\n")
        self._handle.flush()

    def counters(self, component: str, counts: Mapping[str, int]) -> None:
        super().counters(component, counts)
        self._write(
            {
                "type": "counters",
                "component": component,
                "counters": {k: int(v) for k, v in counts.items()},
            }
        )

    def histogram(self, name: str, hist: Histogram) -> None:
        super().histogram(name, hist)
        self._write({"type": "histogram", "name": name, **hist.to_dict()})

    def gauge(self, name: str, value: float) -> None:
        super().gauge(name, value)
        self._write(
            {
                "type": "gauge",
                "name": name,
                "value": value,
                "ts_ns": time.perf_counter_ns(),
            }
        )

    def span(self, record: SpanRecord) -> None:
        super().span(record)
        self._write(
            {
                "type": "span",
                "name": record.name,
                "id": record.span_id,
                "parent": record.parent_id,
                "start_ns": record.start_ns,
                "dur_ns": record.duration_ns,
                "attrs": _jsonable(record.attrs),
            }
        )

    def event(self, record: EventRecord) -> None:
        super().event(record)
        self._write(
            {
                "type": "event",
                "name": record.name,
                "ts_ns": record.ts_ns,
                "attrs": _jsonable(record.attrs),
            }
        )

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()
