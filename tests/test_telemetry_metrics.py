"""Tests for the metrics layer added on top of counters-and-spans:
histograms, gauges, cross-process aggregation (``reparented``/``absorb``)
and the ``repro-telemetry/2`` trace schema.
"""

from __future__ import annotations

import io
import json
import pickle

import pytest

from repro import telemetry
from repro.telemetry.core import HIST_SUBBUCKETS, Histogram
from repro.telemetry.trace import SUPPORTED_SCHEMAS, TraceError, read_stats, validate_event


# --------------------------------------------------------------------- #
# Histogram primitives


def test_bucket_layout_is_fixed_and_monotonic():
    # Bucket 0 is everything below 1; boundaries never overlap.
    assert Histogram.bucket_index(0) == 0
    assert Histogram.bucket_index(0.999) == 0
    assert Histogram.bucket_index(1) == 1
    previous_upper = None
    for index in range(0, 4 * HIST_SUBBUCKETS):
        lower, upper = Histogram.bucket_lower(index), Histogram.bucket_upper(index)
        assert lower < upper
        if previous_upper is not None:
            assert lower == previous_upper
        previous_upper = upper


@pytest.mark.parametrize("value", [1, 1.5, 2, 3, 7, 100, 1e6, 1e12, 0.25])
def test_values_land_inside_their_bucket(value):
    index = Histogram.bucket_index(value)
    assert Histogram.bucket_lower(index) <= value < Histogram.bucket_upper(index)


def test_histogram_counts_and_exact_stats():
    hist = Histogram.of(1, 2, 3, 100)
    assert hist.count == 4
    assert hist.total == 106
    assert hist.min == 1 and hist.max == 100
    assert hist.mean == 26.5
    assert sum(hist.buckets.values()) == 4


def test_quantiles_are_clamped_to_observed_range():
    hist = Histogram.of(*([10] * 99), 1000)
    assert hist.quantile(0.5) <= hist.quantile(0.99)
    # p50 cannot exceed the bucket holding the bulk; estimates stay in range.
    for q in (0.01, 0.5, 0.9, 0.99, 1.0):
        assert hist.min <= hist.quantile(q) <= hist.max
    empty = Histogram()
    assert empty.quantile(0.5) is None
    assert empty.mean is None


def test_merge_is_bucketwise_and_exact():
    a = Histogram.of(1, 2, 3)
    b = Histogram.of(3, 4, 1000)
    merged = a.copy().merge(b)
    direct = Histogram.of(1, 2, 3, 3, 4, 1000)
    assert merged == direct
    assert merged.buckets == direct.buckets
    # merge(None) is a no-op; merging empties changes nothing.
    assert a.copy().merge(None) == a
    assert a.copy().merge(Histogram()) == a


def test_histogram_dict_round_trip_and_pickle():
    hist = Histogram.of(0.5, 1, 7, 300)
    assert Histogram.from_dict(hist.to_dict()) == hist
    assert pickle.loads(pickle.dumps(hist)) == hist


# --------------------------------------------------------------------- #
# Recorder integration


def test_histogram_and_gauge_module_helpers():
    rec = telemetry.StatsRecorder()
    with telemetry.recording(rec):
        telemetry.histogram("x.latency", 10)
        telemetry.histogram("x.latency", 20)
        telemetry.gauge("x.level", 0.5)
        telemetry.gauge("x.level", 0.75)  # last write wins
    assert rec.stats.histograms["x.latency"].count == 2
    assert rec.stats.gauges["x.level"] == 0.75
    # Disabled: no recorder installed, nothing recorded, no error.
    telemetry.histogram("x.latency", 30)
    telemetry.gauge("x.level", 1.0)
    assert rec.stats.histograms["x.latency"].count == 2


def test_add_histogram_copies_not_aliases():
    stats = telemetry.RunStats()
    hist = Histogram.of(1)
    stats.add_histogram("h", hist)
    hist.add(2)
    assert stats.histograms["h"].count == 1


def test_run_stats_merge_includes_histograms_and_gauges():
    a = telemetry.RunStats()
    a.add_histogram("h", Histogram.of(1, 2))
    a.set_gauge("g", 1.0)
    b = telemetry.RunStats()
    b.add_histogram("h", Histogram.of(3))
    b.set_gauge("g", 2.0)
    a.merge(b)
    assert a.histograms["h"] == Histogram.of(1, 2, 3)
    assert a.gauges["g"] == 2.0


def test_format_table_renders_histograms_and_gauges():
    stats = telemetry.RunStats()
    stats.add_histogram("search.eval_ns", Histogram.of(2_000_000))
    stats.set_gauge("best", 12.0)
    table = stats.format_table()
    assert "search.eval_ns" in table
    assert "p99" in table
    assert "ms" in table  # *_ns metrics render as milliseconds
    assert "best" in table


def test_absorb_replays_into_recorder():
    worker = telemetry.StatsRecorder()
    with telemetry.recording(worker):
        telemetry.counters("c", {"n": 2})
        telemetry.histogram("h", 5)
        telemetry.gauge("g", 1.5)
        with telemetry.span("w.root"):
            pass
        telemetry.event("e")
    driver = telemetry.StatsRecorder()
    driver.absorb(worker.stats)
    driver.absorb(None)  # no-op
    assert driver.stats.counters["c"]["n"] == 2
    assert driver.stats.histograms["h"].count == 1
    assert driver.stats.gauges["g"] == 1.5
    assert [s.name for s in driver.stats.spans] == ["w.root"]
    assert [e.name for e in driver.stats.events] == ["e"]


def test_reparented_remaps_span_ids_under_parent():
    worker = telemetry.StatsRecorder()
    with telemetry.recording(worker):
        with telemetry.span("w.root"):
            with telemetry.span("w.child"):
                pass
    parent_id = telemetry.next_span_id()
    shipped = telemetry.reparented(worker.stats, parent_id)
    by_name = {s.name: s for s in shipped.spans}
    root, child = by_name["w.root"], by_name["w.child"]
    # Worker roots attach under the driver's span; internal links survive.
    assert root.parent_id == parent_id
    assert child.parent_id == root.span_id
    # Fresh ids, strictly after the pre-allocated parent.
    assert {root.span_id, child.span_id}.isdisjoint(
        {s.span_id for s in worker.stats.spans}
    )
    # The original stats are untouched and the copies are independent.
    assert worker.stats.spans[-1].parent_id is None
    shipped.histograms.clear()


# --------------------------------------------------------------------- #
# Trace schema v2


def _traced(fn):
    buffer = io.StringIO()
    rec = telemetry.JsonlRecorder(buffer)
    with telemetry.recording(rec):
        fn()
    rec.close()
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def test_jsonl_emits_histogram_and_gauge_lines():
    def body():
        telemetry.histogram("h", 3)
        telemetry.gauge("g", 0.25)

    lines = _traced(body)
    kinds = [obj["type"] for obj in lines]
    assert kinds == ["meta", "histogram", "gauge"]
    for lineno, obj in enumerate(lines, start=1):
        validate_event(obj, lineno)
    hist_line = lines[1]
    assert Histogram.from_dict(hist_line) == Histogram.of(3)


def test_v1_traces_still_accepted(tmp_path):
    path = tmp_path / "v1.jsonl"
    path.write_text(
        "\n".join(
            [
                json.dumps({"type": "meta", "schema": "repro-telemetry/1"}),
                json.dumps({"type": "counters", "component": "c", "counters": {"n": 1}}),
            ]
        )
        + "\n"
    )
    stats = read_stats(str(path))
    assert stats.counters["c"]["n"] == 1
    assert "repro-telemetry/1" in SUPPORTED_SCHEMAS


def test_unknown_schema_rejected():
    with pytest.raises(TraceError):
        validate_event({"type": "meta", "schema": "repro-telemetry/99"})


def test_bad_histogram_line_rejected():
    with pytest.raises(TraceError):
        validate_event(
            {
                "type": "histogram",
                "name": "h",
                "buckets": {"not-an-int": 1},
                "count": 1,
                "total": 1,
                "min": 1,
                "max": 1,
            }
        )
    with pytest.raises(TraceError):
        validate_event({"type": "gauge", "name": "g", "value": "high", "ts_ns": 0})


def test_read_stats_round_trips_new_kinds(tmp_path):
    path = tmp_path / "trace.jsonl"
    rec = telemetry.JsonlRecorder(str(path))
    with telemetry.recording(rec):
        telemetry.histogram("h", 4)
        telemetry.histogram("h", 8)
        telemetry.gauge("g", 2.0)
    rec.close()
    stats = read_stats(str(path))
    assert stats.histograms["h"] == Histogram.of(4, 8)
    assert stats.gauges["g"] == 2.0


def test_jsonl_lines_are_single_writes():
    """Every record reaches the handle as exactly one write() call."""

    class OneWriteProbe(io.StringIO):
        def __init__(self):
            super().__init__()
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return super().write(text)

    probe = OneWriteProbe()
    rec = telemetry.JsonlRecorder(probe)
    with telemetry.recording(rec):
        telemetry.histogram("h", 1)
        telemetry.gauge("g", 1.0)
        telemetry.counters("c", {"n": 1})
    rec.close()
    # One write per line, each newline-terminated and parseable alone.
    assert len(probe.writes) == 4  # meta + 3 records
    for chunk in probe.writes:
        assert chunk.endswith("\n")
        json.loads(chunk)
