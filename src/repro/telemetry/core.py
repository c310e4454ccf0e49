"""Recorder registry, hierarchical spans, and run counters.

Everything here is stdlib-only and built around one invariant: **disabled
telemetry must cost one context-variable read per run**, never per-round or
per-slot work.  The moving parts:

* A :class:`Recorder` installed in a :class:`contextvars.ContextVar`; the
  default is a shared :data:`NULL_RECORDER` whose ``enabled`` flag is
  ``False``.  Hot code reads the flag once at run start and keeps counters
  as plain local ints, flushing a single dict at run end via
  :meth:`Recorder.counters` — the "flush once" contract.
* :func:`span` — a context manager timing a region with
  :func:`time.perf_counter_ns` and attributing it to the enclosing span via
  a second context variable, so traces form a tree even across the
  CLI → search → engine call stack.
* :func:`record_span` — the allocation-free variant for leaf regions
  (engine runs, fault kernels): callers snapshot ``perf_counter_ns()``
  themselves *only when telemetry is enabled* and report the finished span
  in one call, without touching the current-span context variable.
* :class:`Histogram` — a fixed log-spaced bucket layout shared by every
  histogram in the process, so two histograms of the same name merge
  bucket-wise no matter which process (or island worker) produced them.
  Hot code accumulates into a local :class:`Histogram` and flushes it once
  at run end through :meth:`Recorder.histogram`, mirroring the counter
  discipline; :func:`histogram` is the convenience for one observation on
  a non-hot path.  :func:`gauge` records a point-in-time value
  (last-write-wins).
* :class:`RunStats` — the in-memory aggregation every recording sink
  maintains; simulation and search results carry one in their ``run_stats``
  field when a recorder was active.
* :func:`reparented` / :meth:`Recorder.absorb` — the cross-process seam:
  a frozen :class:`RunStats` shipped back from a worker process is given
  fresh span ids (worker-local ids collide across processes), its root
  spans are attached under a driver-side parent span, and the whole
  roll-up is replayed through the driver's recorder so streaming sinks
  see worker records too.

Counter vocabulary (component → counters) is documented in
:mod:`repro.gossip.engines` and ROADMAP.md's Telemetry section.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "EventRecord",
    "Histogram",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "RunStats",
    "SpanRecord",
    "StatsRecorder",
    "counters",
    "current_span_id",
    "event",
    "gauge",
    "get_recorder",
    "histogram",
    "next_span_id",
    "record_span",
    "recording",
    "reparented",
    "span",
]

_log = logging.getLogger("repro.telemetry")

_DEBUG = logging.DEBUG


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished timed region."""

    name: str
    span_id: int
    parent_id: int | None
    start_ns: int
    duration_ns: int
    attrs: Mapping[str, Any]


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One point-in-time annotation (e.g. an engine-resolution decision)."""

    name: str
    ts_ns: int
    attrs: Mapping[str, Any]


#: Sub-buckets per power of two in the shared histogram layout.  Eight
#: sub-buckets give a worst-case bucket width of ~9 % of the value
#: (ratio 2^(1/8) between boundaries) — tight enough for p50/p90/p99
#: summaries of latencies and round counts, coarse enough that a whole
#: run's distribution stays a handful of integers.
HIST_SUBBUCKETS = 8


class Histogram:
    """A distribution over one fixed, process-global log-spaced bucket layout.

    Bucket ``0`` covers every value below ``1``; bucket ``1 + 8·o + s``
    covers ``[2^o · (1 + s/8), 2^o · (1 + (s+1)/8))`` — eight geometric
    sub-buckets per octave.  Because the layout is a pure function of the
    value (no per-histogram configuration), histograms of the same name
    merge **bucket-wise**: summing counts per bucket index is exact, which
    is what lets island workers ship their distributions back to the
    driver.

    Exact ``count`` / ``total`` / ``min`` / ``max`` ride along, so means
    are exact and quantile estimates (:meth:`quantile`) are clamped to the
    observed range.  Instances are plain containers — cheap to create per
    run, picklable across process boundaries, JSON-portable via
    :meth:`to_dict` / :meth:`from_dict`.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    @classmethod
    def of(cls, *values: float) -> "Histogram":
        """A histogram holding exactly ``values`` (flush-site convenience)."""
        hist = cls()
        for value in values:
            hist.add(value)
        return hist

    @staticmethod
    def bucket_index(value: float) -> int:
        """The fixed layout: which bucket ``value`` falls into."""
        if value < 1:
            return 0
        mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
        sub = int((mantissa * 2.0 - 1.0) * HIST_SUBBUCKETS)
        if sub >= HIST_SUBBUCKETS:  # pragma: no cover - float guard
            sub = HIST_SUBBUCKETS - 1
        return 1 + (exponent - 1) * HIST_SUBBUCKETS + sub

    @staticmethod
    def bucket_lower(index: int) -> float:
        """Inclusive lower boundary of bucket ``index``."""
        if index <= 0:
            return 0.0
        octave, sub = divmod(index - 1, HIST_SUBBUCKETS)
        return math.ldexp(1.0 + sub / HIST_SUBBUCKETS, octave)

    @staticmethod
    def bucket_upper(index: int) -> float:
        """Exclusive upper boundary of bucket ``index``."""
        return Histogram.bucket_lower(index + 1) if index > 0 else 1.0

    def add(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "Histogram | None") -> "Histogram":
        """Fold ``other`` in bucket-wise (no-op for ``None``); returns self."""
        if other is not None:
            for index, count in other.buckets.items():
                self.buckets[index] = self.buckets.get(index, 0) + count
            self.count += other.count
            self.total += other.total
            if other.min is not None and (self.min is None or other.min < self.min):
                self.min = other.min
            if other.max is not None and (self.max is None or other.max > self.max):
                self.max = other.max
        return self

    def copy(self) -> "Histogram":
        return Histogram().merge(self)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile: the covering bucket's upper boundary,
        clamped to the exact observed ``[min, max]`` range."""
        if not self.count:
            return None
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                estimate = self.bucket_upper(index)
                assert self.min is not None and self.max is not None
                return min(self.max, max(self.min, estimate))
        return self.max  # pragma: no cover - rank <= count by construction

    def summary(self) -> dict[str, float | int | None]:
        """``count``/``mean``/``p50``/``p90``/``p99``/``min``/``max`` digest."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "min": self.min,
            "max": self.max,
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-portable form (bucket indices become string keys)."""
        return {
            "buckets": {str(index): count for index, count in sorted(self.buckets.items())},
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        hist = cls()
        hist.buckets = {int(index): int(count) for index, count in data["buckets"].items()}
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist.min = None if data["min"] is None else float(data["min"])
        hist.max = None if data["max"] is None else float(data["max"])
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.buckets == other.buckets
            and self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, min={self.min}, max={self.max})"


@dataclass(slots=True)
class RunStats:
    """In-memory roll-up of counters, spans, and events for one run.

    ``counters`` maps component name (``"engine.frontier"``,
    ``"search.hill_climb"``, ``"faults.montecarlo"``, ...) to a dict of
    monotonic integer counters; ``histograms`` maps metric name
    (``"search.eval_ns"``, ``"faults.completion_rounds"``, ...) to a
    :class:`Histogram`; ``gauges`` maps name to the last recorded value.
    Merging sums counters, merges histograms bucket-wise, and
    concatenates span/event lists, so per-phase stats compose into
    whole-run stats — and per-*process* stats compose across the island
    pool.
    """

    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)

    @classmethod
    def single(cls, component: str, counts: Mapping[str, int]) -> "RunStats":
        return cls(counters={component: dict(counts)})

    def add_counters(self, component: str, counts: Mapping[str, int]) -> None:
        bucket = self.counters.setdefault(component, {})
        for name, value in counts.items():
            bucket[name] = bucket.get(name, 0) + int(value)

    def counter(self, component: str, name: str, default: int = 0) -> int:
        return self.counters.get(component, {}).get(name, default)

    def add_histogram(self, name: str, hist: Histogram) -> None:
        """Merge ``hist`` into the named histogram (never aliases ``hist``)."""
        existing = self.histograms.get(name)
        if existing is None:
            self.histograms[name] = hist.copy()
        else:
            existing.merge(hist)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def merge(self, other: "RunStats | None") -> "RunStats":
        """Fold ``other`` into ``self`` (no-op for ``None``); returns self."""
        if other is not None:
            for component, counts in other.counters.items():
                self.add_counters(component, counts)
            for name, hist in other.histograms.items():
                self.add_histogram(name, hist)
            self.gauges.update(other.gauges)
            self.spans.extend(other.spans)
            self.events.extend(other.events)
        return self

    def span_totals(self) -> dict[str, tuple[int, int]]:
        """Aggregate spans by name → ``(count, total_ns)``."""
        totals: dict[str, tuple[int, int]] = {}
        for record in self.spans:
            count, total = totals.get(record.name, (0, 0))
            totals[record.name] = (count + 1, total + record.duration_ns)
        return totals

    def format_table(self) -> str:
        """Human-readable metrics table (the CLI ``--metrics`` output)."""
        lines: list[str] = []
        if self.spans:
            lines.append("span                              count      total")
            lines.append("-" * 50)
            for name, (count, total_ns) in sorted(self.span_totals().items()):
                lines.append(f"{name:<32} {count:>6} {total_ns / 1e6:>9.2f}ms")
        if self.counters:
            if lines:
                lines.append("")
            lines.append("counter                                      value")
            lines.append("-" * 50)
            for component in sorted(self.counters):
                for name in sorted(self.counters[component]):
                    label = f"{component}.{name}"
                    lines.append(f"{label:<40} {self.counters[component][name]:>9}")
        if self.histograms:
            if lines:
                lines.append("")
            lines.append(
                "histogram                        count       p50       p90       p99"
            )
            lines.append("-" * 68)
            for name in sorted(self.histograms):
                hist = self.histograms[name]
                lines.append(
                    f"{name:<30} {hist.count:>7} "
                    f"{_format_metric(name, hist.quantile(0.5)):>9} "
                    f"{_format_metric(name, hist.quantile(0.9)):>9} "
                    f"{_format_metric(name, hist.quantile(0.99)):>9}"
                )
        if self.gauges:
            if lines:
                lines.append("")
            lines.append("gauge                                        value")
            lines.append("-" * 50)
            for name in sorted(self.gauges):
                lines.append(f"{name:<40} {_format_metric(name, self.gauges[name]):>9}")
        for record in self.events:
            if record.name == "engine.resolve":
                lines.append("")
                lines.append(
                    "engine.resolve: {resolved} [{source}] — {rationale}".format(
                        resolved=record.attrs.get("resolved", "?"),
                        source=record.attrs.get("source", "?"),
                        rationale=record.attrs.get("rationale", ""),
                    )
                )
        return "\n".join(lines) if lines else "(no telemetry recorded)"


def _format_metric(name: str, value: float | None) -> str:
    """Render one histogram/gauge value; ``*_ns`` metrics read as ms."""
    if value is None:
        return "-"
    if name.endswith("_ns"):
        return f"{value / 1e6:.2f}ms"
    return f"{value:.4g}"


class Recorder:
    """Base recording sink: accumulates a :class:`RunStats` roll-up.

    Subclasses extend :meth:`counters` / :meth:`span` / :meth:`event` to
    stream records elsewhere (JSONL, sockets, ...) but should call
    ``super()`` so the in-memory summary stays available for ``--metrics``.
    """

    enabled = True

    def __init__(self) -> None:
        self.stats = RunStats()

    def counters(self, component: str, counts: Mapping[str, int]) -> None:
        self.stats.add_counters(component, counts)
        if _log.isEnabledFor(_DEBUG):
            _log.debug("counters %s %s", component, dict(counts))

    def histogram(self, name: str, hist: Histogram) -> None:
        """Merge one flushed local histogram accumulator into the roll-up."""
        self.stats.add_histogram(name, hist)
        if _log.isEnabledFor(_DEBUG):
            _log.debug("histogram %s %s", name, hist.summary())

    def gauge(self, name: str, value: float) -> None:
        self.stats.set_gauge(name, value)
        if _log.isEnabledFor(_DEBUG):
            _log.debug("gauge %s %s", name, value)

    def absorb(self, stats: "RunStats | None") -> None:
        """Replay a frozen roll-up (e.g. from a worker process) through this
        recorder's own record methods, so streaming subclasses emit it too.

        Span ids are taken verbatim — re-map them first with
        :func:`reparented` when ``stats`` came from another process.
        """
        if stats is None:
            return
        for component, counts in stats.counters.items():
            if counts:
                self.counters(component, counts)
        for name, hist in stats.histograms.items():
            self.histogram(name, hist)
        for name, value in stats.gauges.items():
            self.gauge(name, value)
        for record in stats.spans:
            self.span(record)
        for record in stats.events:
            self.event(record)

    def span(self, record: SpanRecord) -> None:
        self.stats.spans.append(record)
        if _log.isEnabledFor(_DEBUG):
            _log.debug(
                "span %s %.3fms parent=%s %s",
                record.name,
                record.duration_ns / 1e6,
                record.parent_id,
                dict(record.attrs),
            )

    def event(self, record: EventRecord) -> None:
        self.stats.events.append(record)
        if _log.isEnabledFor(_DEBUG):
            _log.debug("event %s %s", record.name, dict(record.attrs))

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class StatsRecorder(Recorder):
    """In-memory-only recording sink (``--metrics`` without ``--trace``)."""


class NullRecorder:
    """The default sink: telemetry off.  Every method is a no-op.

    ``enabled`` is the one attribute hot paths consult; while this recorder
    is installed, instrumented code skips timer reads, counter increments,
    and record construction entirely.
    """

    enabled = False
    stats = None

    def counters(self, component: str, counts: Mapping[str, int]) -> None:
        pass

    def histogram(self, name: str, hist: Histogram) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def absorb(self, stats: "RunStats | None") -> None:
        pass

    def span(self, record: SpanRecord) -> None:
        pass

    def event(self, record: EventRecord) -> None:
        pass

    def close(self) -> None:
        pass


NULL_RECORDER = NullRecorder()

_RECORDER: ContextVar["Recorder | NullRecorder"] = ContextVar(
    "repro_telemetry_recorder", default=NULL_RECORDER
)
_CURRENT_SPAN: ContextVar[int | None] = ContextVar(
    "repro_telemetry_span", default=None
)
_NEXT_SPAN_ID = itertools.count(1)


def get_recorder() -> "Recorder | NullRecorder":
    """The recorder installed for the current context (NullRecorder when off)."""
    return _RECORDER.get()


def current_span_id() -> int | None:
    """Identifier of the innermost active :func:`span`, if any."""
    return _CURRENT_SPAN.get()


def next_span_id() -> int:
    """Allocate a fresh span id from the process-wide sequence.

    For callers that must know a span's id *before* reporting it — the
    island driver hands its span id to :func:`reparented` so worker spans
    can be attached under it, then reports the span itself via
    :func:`record_span` with ``span_id=``.
    """
    return next(_NEXT_SPAN_ID)


def reparented(stats: RunStats, parent_id: int | None) -> RunStats:
    """A copy of ``stats`` with spans re-numbered into this process's id space.

    Worker processes allocate span ids from their own counters, so ids
    collide across workers and with the driver.  Every span gets a fresh
    id; internal parent/child links are preserved, and spans whose parent
    is unknown here (worker roots) are attached under ``parent_id``.
    Worker span *timestamps* are kept verbatim — ``perf_counter_ns``
    origins are per-process, so cross-process durations are comparable
    but absolute starts are not.
    """
    mapping = {record.span_id: next(_NEXT_SPAN_ID) for record in stats.spans}
    spans = [
        SpanRecord(
            name=record.name,
            span_id=mapping[record.span_id],
            parent_id=mapping.get(record.parent_id, parent_id),
            start_ns=record.start_ns,
            duration_ns=record.duration_ns,
            attrs=record.attrs,
        )
        for record in stats.spans
    ]
    return RunStats(
        counters={component: dict(counts) for component, counts in stats.counters.items()},
        histograms={name: hist.copy() for name, hist in stats.histograms.items()},
        gauges=dict(stats.gauges),
        spans=spans,
        events=list(stats.events),
    )


@contextmanager
def recording(recorder: "Recorder | NullRecorder") -> Iterator["Recorder | NullRecorder"]:
    """Install ``recorder`` for the duration of the ``with`` block."""
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[int | None]:
    """Time a region; nested spans record this span as their parent.

    Yields the span id (``None`` when telemetry is disabled, in which case
    the context manager is as close to free as a generator can be).
    """
    rec = _RECORDER.get()
    if not rec.enabled:
        yield None
        return
    span_id = next(_NEXT_SPAN_ID)
    parent_id = _CURRENT_SPAN.get()
    token = _CURRENT_SPAN.set(span_id)
    start_ns = time.perf_counter_ns()
    try:
        yield span_id
    finally:
        duration_ns = time.perf_counter_ns() - start_ns
        _CURRENT_SPAN.reset(token)
        rec.span(SpanRecord(name, span_id, parent_id, start_ns, duration_ns, attrs))


def record_span(
    name: str, start_ns: int, *, span_id: int | None = None, **attrs: Any
) -> None:
    """Report an already-finished leaf region started at ``start_ns``.

    For hot run loops that cannot afford a ``with`` frame: snapshot
    ``time.perf_counter_ns()`` at entry (only when the recorder is enabled)
    and call this once on the way out.  The span is attributed to the
    innermost active :func:`span` as parent.  ``span_id`` lets a caller
    report under an id it pre-allocated with :func:`next_span_id` (so
    child records could reference it before the span was finished).
    """
    rec = _RECORDER.get()
    if not rec.enabled:
        return
    duration_ns = time.perf_counter_ns() - start_ns
    if span_id is None:
        span_id = next(_NEXT_SPAN_ID)
    rec.span(
        SpanRecord(name, span_id, _CURRENT_SPAN.get(), start_ns, duration_ns, attrs)
    )


def counters(component: str, counts: Mapping[str, int]) -> None:
    """Flush one run's accumulated counters (no-op when telemetry is off)."""
    rec = _RECORDER.get()
    if rec.enabled:
        rec.counters(component, counts)


def event(name: str, **attrs: Any) -> None:
    """Record a point event (no-op when telemetry is off)."""
    rec = _RECORDER.get()
    if rec.enabled:
        rec.event(EventRecord(name, time.perf_counter_ns(), attrs))


def histogram(name: str, value: float) -> None:
    """Record one histogram observation (no-op when telemetry is off).

    Convenience for non-hot paths.  Hot loops should accumulate into a
    local :class:`Histogram` and flush it once via
    :meth:`Recorder.histogram`, exactly like the counter discipline.
    """
    rec = _RECORDER.get()
    if rec.enabled:
        rec.histogram(name, Histogram.of(value))


def gauge(name: str, value: float) -> None:
    """Record a point-in-time value, last-write-wins (no-op when off)."""
    rec = _RECORDER.get()
    if rec.enabled:
        rec.gauge(name, value)
