"""SLO burn rates, the slow-request sampler, and the telemetry hub.

Pins :mod:`repro.obs.slo` (burn arithmetic, windowing, deterministic
exemplar retention) and the :class:`~repro.obs.TelemetryHub` read API —
the snapshot and ``evaluator_input`` shapes that ``BENCH_tail.json``,
the ``live`` explorer evaluator and the autotune loop consume.
"""

import json
import math

import pytest

from repro.bench.load import run_load
from repro.errors import ReproError
from repro.obs import (
    SloEvaluator,
    SloTarget,
    SlowSampler,
    TelemetryHub,
)
from repro.obs.hub import HUB_SCHEMA_VERSION
from repro.obs.spans import RequestSpan


def _span(span_id, arrival, latency, gate=0.0):
    """A completed, unclaimed span: latency is pure queueing."""
    span = RequestSpan(span_id, "req-%d" % span_id, "feed", arrival)
    span.complete_cycles = arrival + latency
    if gate:
        # Claimed shape: service covers the gate overhead exactly.
        span.serve_begin_cycles = arrival
        span.serve_end_cycles = arrival + latency
        span.ready_at_cycles = arrival
        span.add_gate("a->b", "call", arrival, gate, gate, 1, "ok")
    return span


class TestSloTarget:
    def test_validates_objective_and_threshold(self):
        with pytest.raises(ReproError):
            SloTarget("bad", 100.0, objective=1.0)
        with pytest.raises(ReproError):
            SloTarget("bad", 100.0, objective=0.0)
        with pytest.raises(ReproError):
            SloTarget("bad", 0.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ReproError, match="finite"):
            SloTarget("bad", threshold)

    def test_error_budget_is_complement(self):
        assert SloTarget("p99", 100.0, objective=0.99).error_budget \
            == pytest.approx(0.01)


class TestSloEvaluator:
    def _evaluator(self, objective=0.5, window=100.0):
        return SloEvaluator(SloTarget("t", 10.0, objective=objective),
                            window_cycles=window)

    def test_burn_is_bad_fraction_over_budget(self):
        ev = self._evaluator(objective=0.9)          # budget 0.1
        for latency in (5.0, 5.0, 5.0, 50.0):        # 1 bad of 4
            ev.record(_span(1, 0.0, latency))
        assert ev.overall_burn == pytest.approx(0.25 / 0.1)
        assert not ev.met
        assert ev.good == 3 and ev.bad == 1

    def test_threshold_is_inclusive(self):
        ev = self._evaluator()
        ev.record(_span(1, 0.0, 10.0))               # exactly on target
        assert ev.bad == 0 and ev.good == 1

    def test_windows_key_by_completion_time(self):
        ev = self._evaluator(window=100.0)
        ev.record(_span(1, 40.0, 5.0))               # completes at 45
        ev.record(_span(2, 140.0, 50.0))             # completes at 190
        snap = ev.snapshot()
        assert [w["index"] for w in snap["windows"]] == [0, 1]
        assert snap["windows"][0]["bad"] == 0
        assert snap["windows"][1]["bad"] == 1

    def test_quiet_window_burns_nothing(self):
        ev = self._evaluator()
        assert ev.burn_rate(7) == 0.0
        assert ev.overall_burn == 0.0
        assert ev.met

    def test_worst_window_none_when_clean(self):
        ev = self._evaluator()
        ev.record(_span(1, 0.0, 5.0))
        assert ev.worst_window() is None

    def test_worst_window_picks_highest_burn(self):
        ev = self._evaluator(objective=0.5, window=100.0)
        ev.record(_span(1, 0.0, 50.0))               # window 0: all bad
        ev.record(_span(2, 100.0, 50.0))             # window 1: 1 bad
        ev.record(_span(3, 100.0, 5.0))              #           1 good
        index, burn = ev.worst_window()
        assert index == 0
        assert burn == pytest.approx(2.0)

    def test_worst_window_tie_breaks_to_earliest(self):
        ev = self._evaluator(objective=0.5, window=100.0)
        ev.record(_span(1, 0.0, 50.0))
        ev.record(_span(2, 100.0, 50.0))
        assert ev.worst_window()[0] == 0


class TestSlowSampler:
    def test_below_threshold_rejected(self):
        sampler = SlowSampler(100.0, capacity=4)
        assert not sampler.offer(_span(1, 0.0, 50.0))
        assert sampler.offered == 1 and sampler.admitted == 0

    def test_keeps_k_slowest(self):
        sampler = SlowSampler(10.0, capacity=2)
        for span_id, latency in ((1, 20.0), (2, 80.0), (3, 50.0)):
            sampler.offer(_span(span_id, 0.0, latency))
        assert [s.latency_cycles for s in sampler.samples] == [80.0, 50.0]
        assert sampler.admitted == 3                 # 20.0 was evicted

    def test_full_ring_rejects_faster_spans(self):
        sampler = SlowSampler(10.0, capacity=2)
        sampler.offer(_span(1, 0.0, 80.0))
        sampler.offer(_span(2, 0.0, 50.0))
        assert not sampler.offer(_span(3, 0.0, 40.0))
        assert sampler.admitted == 2

    def test_latency_ties_break_to_oldest_span(self):
        sampler = SlowSampler(10.0, capacity=2)
        sampler.offer(_span(2, 0.0, 50.0))
        sampler.offer(_span(1, 0.0, 50.0))
        assert [s.span_id for s in sampler.samples] == [1, 2]

    def test_retention_is_order_independent(self):
        spans = [(1, 30.0), (2, 90.0), (3, 60.0), (4, 90.0), (5, 45.0)]
        a = SlowSampler(10.0, capacity=3)
        b = SlowSampler(10.0, capacity=3)
        for span_id, latency in spans:
            a.offer(_span(span_id, 0.0, latency))
        for span_id, latency in reversed(spans):
            b.offer(_span(span_id, 0.0, latency))
        assert [s.span_id for s in a.samples] \
            == [s.span_id for s in b.samples] == [2, 4, 3]

    def test_capacity_validated(self):
        with pytest.raises(ReproError):
            SlowSampler(10.0, capacity=0)

    def test_span_at_threshold_is_not_admitted(self):
        """At the threshold a span is good for the SLO evaluator
        (``test_threshold_is_inclusive``), so the sampler must not keep
        it as budget-burning evidence."""
        sampler = SlowSampler(50.0, capacity=4)
        assert not sampler.offer(_span(1, 0.0, 50.0))
        assert sampler.offer(_span(2, 0.0, 50.5))
        assert [s.span_id for s in sampler.samples] == [2]

    def test_snapshot_carries_full_span_trees(self):
        sampler = SlowSampler(10.0, capacity=2)
        sampler.offer(_span(1, 0.0, 50.0, gate=20.0))
        snap = sampler.snapshot()
        (sample,) = snap["samples"]
        assert sample["gate_crossings"] == 1
        assert sample["children"][0]["overhead"] == 20.0


class TestTelemetryHub:
    def _hub(self, **kwargs):
        kwargs.setdefault("window_cycles", 100.0)
        kwargs.setdefault(
            "slo_targets", (SloTarget("p99", 10.0, objective=0.5),))
        return TelemetryHub(**kwargs)

    def _complete(self, hub, span_id, arrival, latency):
        hub.spans.spans.append(_span(span_id, arrival, latency))
        hub._on_span_complete(hub.spans.spans[-1])

    def test_span_completion_feeds_windows_slos_and_sampler(self):
        hub = self._hub()
        self._complete(hub, 1, 40.0, 5.0)
        self._complete(hub, 2, 140.0, 50.0)
        window_counts = {
            w.index: w.counters["requests.completed"]
            for w in hub.timeseries.windows()
        }
        assert window_counts == {0: 1.0, 1: 1.0}
        assert hub.slos[0].bad == 1
        assert [s.span_id for s in hub.sampler.samples] == [2]

    def test_default_samples_are_exactly_the_bad_requests(self):
        hub = self._hub()
        for span_id, latency in ((1, 5.0), (2, 10.0), (3, 11.0),
                                 (4, 40.0)):
            self._complete(hub, span_id, 100.0 * span_id, latency)
        assert hub.slos[0].bad == hub.sampler.admitted == 2
        assert sorted(s.span_id for s in hub.sampler.samples) == [3, 4]

    def test_default_slow_threshold_is_tightest_slo(self):
        hub = TelemetryHub(slo_targets=(
            SloTarget("loose", 500.0), SloTarget("tight", 50.0)))
        assert hub.sampler.threshold_cycles == 50.0

    def test_no_slo_means_no_sampler(self):
        assert TelemetryHub().sampler is None

    def test_decomposition_shares_sum_to_one(self):
        hub = self._hub()
        self._complete(hub, 1, 0.0, 40.0)
        shares = hub.decomposition()["shares"]
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_snapshot_shape_and_serialisability(self):
        hub = self._hub()
        self._complete(hub, 1, 0.0, 40.0)
        snap = hub.snapshot()
        assert snap["schema"] == HUB_SCHEMA_VERSION
        assert set(snap) == {"schema", "timeseries", "requests",
                             "decomposition", "slo", "slow_samples"}
        assert json.loads(json.dumps(snap, sort_keys=True)) == snap

    def test_evaluator_input_rows_cover_retained_windows(self):
        hub = self._hub()
        self._complete(hub, 1, 40.0, 5.0)
        self._complete(hub, 2, 140.0, 50.0)
        payload = hub.evaluator_input()
        assert [row["index"] for row in payload["windows"]] == [0, 1]
        first, second = payload["windows"]
        assert first["requests"] == 1.0
        assert first["burn"]["p99"] == 0.0
        assert second["burn"]["p99"] == pytest.approx(2.0)
        assert second["latency_max_cycles"] == 50.0
        assert payload["slo"]["p99"] == {
            "overall_burn": pytest.approx(1.0), "met": True,
            "target": {"name": "p99", "threshold_cycles": 10.0,
                       "objective": 0.5}}

    def test_evaluator_input_counts_gate_crossings(self):
        hub = self._hub()
        span = _span(1, 0.0, 40.0, gate=20.0)
        hub.spans.spans.append(span)
        hub._on_span_complete(span)
        (row,) = hub.evaluator_input()["windows"]
        assert row["gate_crossings"] == 1.0

    def test_tail_report_renders_the_whole_story(self):
        hub = self._hub()
        self._complete(hub, 1, 0.0, 5.0)
        self._complete(hub, 2, 100.0, 50.0)
        report = hub.tail_report(headline={"app": "redis"})
        assert "app=redis" in report
        assert "2 requests completed" in report
        assert "SLO p99" in report
        assert "slowest requests" in report
        assert "worst window" in report

    def test_tail_report_omits_worst_window_when_clean(self):
        hub = self._hub()
        self._complete(hub, 1, 0.0, 5.0)
        assert "worst window" not in hub.tail_report()


class TestHubBoundLoad:
    """Span completions are the only producer of windowed data: the
    tracer's registry owns every whole-run counter."""

    RUN = dict(rate_rps=20_000.0, n_requests=16, seed=1, cores=2,
               connections=2)
    SERIES = {"requests.completed", "requests.queue_cycles",
              "requests.gate_cycles", "requests.gate_crossings",
              "requests.app_cycles", "request.latency_cycles"}

    @pytest.fixture(scope="class")
    def hub_run(self):
        hub = TelemetryHub(window_cycles=100_000.0, slo_targets=(
            SloTarget("p99-3us", 6_600.0),))
        result = run_load("redis", "intel-mpk", hub=hub, **self.RUN)
        return result, hub

    def test_windows_hold_only_request_series(self, hub_run):
        _, hub = hub_run
        windows = hub.timeseries.windows()
        assert windows
        for window in windows:
            assert set(window.counters) | set(window.latency) <= self.SERIES
            assert window.counters["requests.completed"] >= 1.0
        assert hub.timeseries.samples == 6 * 16

    def test_every_evaluator_row_saw_a_request(self, hub_run):
        _, hub = hub_run
        rows = hub.evaluator_input()["windows"]
        assert rows and all(row["requests"] > 0 for row in rows)
        assert sum(row["requests"] for row in rows) == 16

    def test_registry_is_the_same_with_or_without_a_hub(self, hub_run):
        result, hub = hub_run
        assert not hasattr(hub, "metrics")
        plain = run_load("redis", "intel-mpk", trace=True, **self.RUN)
        assert result.tracer.metrics.snapshot() == \
            plain.tracer.metrics.snapshot()
