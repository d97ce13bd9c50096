"""Windowed telemetry: bucketing, the flight-recorder ring, determinism.

Pins the :class:`~repro.obs.timeseries.WindowedTelemetry` contract the
hub snapshot (and hence ``BENCH_tail.json``) depends on: samples land in
``floor(ts / window_cycles)``, the ring evicts the lowest index first,
late samples for evicted windows are dropped deterministically instead
of resurrecting the window, and a seeded sample stream snapshots
byte-identically on rerun.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs import WindowedTelemetry


def _snapshot_json(telemetry):
    return json.dumps(telemetry.snapshot(), sort_keys=True)


def _series(telemetry, name):
    """``(index, value)`` pairs of one counter across the ring."""
    return [(w.index, w.counters[name]) for w in telemetry.windows()
            if name in w.counters]


class TestWindowing:
    def test_samples_land_in_their_window(self):
        t = WindowedTelemetry(window_cycles=100.0)
        t.bump("x", 1.0, ts=0.0)
        t.bump("x", 2.0, ts=99.0)
        t.bump("x", 4.0, ts=100.0)
        assert _series(t, "x") == [(0, 3.0), (1, 4.0)]

    def test_observe_tracks_count_sum_min_max(self):
        t = WindowedTelemetry(window_cycles=100.0)
        for value in (5.0, 1.0, 9.0):
            t.observe("lat", value, ts=50.0)
        stats = t.windows()[0].to_dict()["latency"]["lat"]
        assert stats == {"count": 3, "sum": 15.0, "min": 1.0,
                         "max": 9.0, "mean": 5.0}

    def test_out_of_order_timestamps_accepted(self):
        """SMP warps the clock backwards between slices: samples arrive
        out of timestamp order and still land in the right windows."""
        t = WindowedTelemetry(window_cycles=100.0)
        t.bump("x", 1.0, ts=250.0)
        t.bump("x", 1.0, ts=50.0)
        t.bump("x", 1.0, ts=150.0)
        assert _series(t, "x") == [(0, 1.0), (1, 1.0), (2, 1.0)]
        assert t.dropped == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ReproError):
            WindowedTelemetry(window_cycles=0.0)
        with pytest.raises(ReproError):
            WindowedTelemetry(window_cycles=100.0, ring=0)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_width(self, width):
        with pytest.raises(ReproError, match="finite"):
            WindowedTelemetry(window_cycles=width)


class TestFlightRecorder:
    def test_lowest_window_evicted_first(self):
        t = WindowedTelemetry(window_cycles=100.0, ring=2)
        t.bump("x", 1.0, ts=0.0)
        t.bump("x", 1.0, ts=100.0)
        t.bump("x", 1.0, ts=200.0)
        assert [w.index for w in t.windows()] == [1, 2]
        assert t.evicted == 1

    def test_late_sample_for_evicted_window_is_dropped(self):
        t = WindowedTelemetry(window_cycles=100.0, ring=2)
        for ts in (0.0, 100.0, 200.0):
            t.bump("x", 1.0, ts=ts)
        t.bump("x", 5.0, ts=10.0)       # window 0 is gone
        assert t.dropped == 1
        assert [w.index for w in t.windows()] == [1, 2]
        assert t.samples == 3           # the dropped one never counted

    def test_ring_holds_most_recent_span_of_activity(self):
        t = WindowedTelemetry(window_cycles=10.0, ring=4)
        for i in range(12):
            t.bump("x", 1.0, ts=i * 10.0)
        assert [w.index for w in t.windows()] == [8, 9, 10, 11]
        assert t.evicted == 8


class TestSnapshotDeterminism:
    def _feed(self, telemetry):
        # Interleave counters and observations across warped timestamps.
        for ts in (120.0, 40.0, 260.0, 40.0, 199.0):
            telemetry.bump("gate.crossings", 2.0, ts=ts)
            telemetry.observe("request.latency_cycles", ts * 3.0, ts=ts)
            telemetry.bump("requests.completed", 1.0, ts=ts)

    def test_rerun_is_byte_identical(self):
        a = WindowedTelemetry(window_cycles=100.0, ring=8)
        b = WindowedTelemetry(window_cycles=100.0, ring=8)
        self._feed(a)
        self._feed(b)
        assert _snapshot_json(a) == _snapshot_json(b)

    def test_snapshot_orders_windows_and_keys(self):
        t = WindowedTelemetry(window_cycles=100.0)
        self._feed(t)
        snap = t.snapshot()
        indices = [w["index"] for w in snap["windows"]]
        assert indices == sorted(indices)
        for window in snap["windows"]:
            keys = list(window["counters"])
            assert keys == sorted(keys)
        assert json.loads(_snapshot_json(t)) == snap   # JSON-serialisable

    def test_snapshot_carries_bookkeeping(self):
        t = WindowedTelemetry(window_cycles=100.0, ring=1)
        t.bump("x", 1.0, ts=0.0)
        t.bump("x", 1.0, ts=100.0)
        t.bump("x", 1.0, ts=0.0)        # dropped
        snap = t.snapshot()
        assert snap["samples"] == 2
        assert snap["dropped"] == 1
        assert snap["evicted"] == 1
        assert snap["ring"] == 1
        assert snap["window_cycles"] == 100.0

    @given(
        ring=st.integers(1, 8),
        stream=st.lists(st.tuples(st.floats(0.0, 5000.0),
                                  st.booleans()), max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_accounting_invariants_over_any_stream(self, ring, stream):
        """However samples arrive: every ingest is either counted or
        dropped, the ring never exceeds its depth, and only a full ring
        evicts."""
        t = WindowedTelemetry(window_cycles=100.0, ring=ring)
        for ts, is_counter in stream:
            if is_counter:
                t.bump("x", 1.0, ts=ts)
            else:
                t.observe("lat", ts, ts=ts)
        assert t.samples + t.dropped == len(stream)
        windows = t.windows()
        assert len(windows) <= ring
        indices = [w.index for w in windows]
        assert indices == sorted(indices)
        assert t.evicted == 0 or len(windows) == ring
        rerun = WindowedTelemetry(window_cycles=100.0, ring=ring)
        for ts, is_counter in stream:
            if is_counter:
                rerun.bump("x", 1.0, ts=ts)
            else:
                rerun.observe("lat", ts, ts=ts)
        assert _snapshot_json(rerun) == _snapshot_json(t)


@st.composite
def warped_streams(draw):
    """A window width (often non-integer) and a sample stream whose
    timestamps jump backwards or sit exactly on window edges or one ulp
    either side."""
    width = draw(st.one_of(
        st.sampled_from([100.0, 0.1, 1.0 / 3.0, 7.3, 1e-3 * 1234.5]),
        st.floats(0.05, 400.0, allow_nan=False, allow_infinity=False),
    ))
    edge = st.integers(0, 40).map(lambda k: k * width)
    timestamp = st.one_of(
        st.floats(0.0, 40.0 * width, allow_nan=False,
                  allow_infinity=False),
        edge,
        edge.map(lambda ts: math.nextafter(ts, math.inf)),
        edge.filter(bool).map(lambda ts: math.nextafter(ts, -math.inf)),
    )
    stream = draw(st.lists(
        st.tuples(timestamp, st.integers(0, 1000)), max_size=120,
    ))
    return width, stream


class TestWarpedTimestamps:
    @given(case=warped_streams())
    @settings(max_examples=200, deadline=None)
    def test_every_sample_lands_in_its_floor_window(self, case):
        """With a ring deep enough to evict nothing, each window holds
        exactly the samples whose ``floor(ts / width)`` is its index,
        however the timestamps are ordered."""
        width, stream = case
        t = WindowedTelemetry(window_cycles=width, ring=64)
        expected = {}
        for ts, value in stream:
            t.bump("x", float(value), ts=ts)
            index = int(ts // width)
            expected[index] = expected.get(index, 0.0) + value
        assert dict(_series(t, "x")) == expected
        assert t.samples == len(stream)
        assert t.dropped == t.evicted == 0


class TestCachedWindow:
    """Late samples at the eviction edge: a sample for a window evicted
    before or on its arrival is dropped, never resurrecting it."""

    def test_sample_after_its_window_is_evicted_is_dropped(self):
        t = WindowedTelemetry(window_cycles=100.0, ring=1)
        t.bump("x", 1.0, ts=50.0)        # window 0
        t.bump("x", 1.0, ts=150.0)       # evicts window 0
        t.bump("x", 1.0, ts=60.0)        # window 0 is below the floor
        assert t.dropped == 1
        assert t.samples == 2

    def test_late_window_evicted_on_arrival_is_not_cached(self):
        t = WindowedTelemetry(window_cycles=100.0, ring=1)
        t.bump("x", 1.0, ts=250.0)       # window 2
        t.bump("x", 1.0, ts=150.0)       # window 1 is below the full ring
        t.bump("x", 1.0, ts=160.0)       # ... and still is
        assert [w.index for w in t.windows()] == [2]
        assert t.evicted == 0           # window 1 was never retained
        assert t.dropped == 2
        assert t.samples == 1
