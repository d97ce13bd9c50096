"""Observability layer: tracer, metrics, exporters, CLI, retry ceiling.

The two load-bearing invariants (module docstring of
:mod:`repro.obs.tracer`) are pinned down to the cycle here:

* tracing never perturbs the system — a traced functional run charges
  exactly the same virtual cycles, does the same per-library work and
  takes the same gate transitions as an untraced one;
* with the default :class:`~repro.obs.NullTracer` installed the
  instrumentation is invisible: zero virtual cycles, zero events.
"""

import io
import json

import pytest

from repro.bench.functional import run_functional_redis
from repro.bench.load import run_load
from repro.cli import main as cli_main
from repro.errors import AllocationError, TransientFault
from repro.faults.campaign import (
    CampaignConfig,
    lwip_alloc_probe,
    lwip_probe,
    run_campaign,
)
from repro.faults.supervisor import Decision, Policy
from repro.hw.mpk import PKRU
from repro.kernel.lib import entrypoint
from repro.obs import (
    NULL_TRACER,
    Histogram,
    SloTarget,
    TelemetryHub,
    Tracer,
    chrome_trace,
    chrome_trace_json,
    flamegraph,
    get_tracer,
    install_tracer,
    metrics_json,
    tracing,
    uninstall_tracer,
)
from repro.obs import tracer as tracer_module
from repro.obs.tracer import TraceEvent
from tests.conftest import make_config
from tests.test_faults import armed_instance, boot


@entrypoint("lwip")
def obs_probe(token=0):
    """A well-behaved lwip entry used by the overhead tests."""
    return token + 1


class TestTracerLifecycle:
    def test_null_tracer_is_default(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_install_and_uninstall(self):
        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            uninstall_tracer()
        assert previous is NULL_TRACER
        assert get_tracer() is NULL_TRACER

    def test_tracing_nests_and_restores(self):
        with tracing() as outer:
            assert get_tracer() is outer
            with tracing() as inner:
                assert get_tracer() is inner
            assert get_tracer() is outer
        assert get_tracer() is NULL_TRACER

    def test_keep_events_false_still_aggregates(self):
        instance = boot(make_config())
        with tracing(Tracer(clock=instance.clock,
                            keep_events=False)) as tracer:
            with instance.run():
                obs_probe(token=1)
        assert tracer.events == []
        assert tracer.metrics.total_crossings() == 1


class TestZeroOverhead:
    def test_disabled_tracer_costs_zero_virtual_cycles(self):
        """Same instance, same call: cycles with the null tracer match
        cycles with a live tracer exactly."""
        instance = boot(make_config())
        with instance.run():
            obs_probe(token=0)  # warm any lazy state (stacks)
            before = instance.clock.cycles
            obs_probe(token=1)
            untraced = instance.clock.cycles - before
            with tracing(Tracer(clock=instance.clock)) as tracer:
                before = instance.clock.cycles
                obs_probe(token=2)
                traced = instance.clock.cycles - before
        assert untraced == traced
        assert len(tracer.events_in("gate")) == 1

    def test_tracing_does_not_perturb_functional_redis(self):
        untraced = run_functional_redis("intel-mpk", n_requests=20)
        traced = run_functional_redis("intel-mpk", n_requests=20,
                                      trace=True)
        assert traced.elapsed_cycles == untraced.elapsed_cycles
        assert traced.ctx.work_by_library == untraced.ctx.work_by_library
        assert traced.ctx.transitions == untraced.ctx.transitions


class TestGateSpans:
    def test_span_pairs_cover_every_transition(self):
        run = run_functional_redis("intel-mpk", n_requests=20, trace=True)
        assert run.tracer.gate_pairs() == set(run.ctx.transitions)

    def test_span_count_matches_transition_count(self):
        run = run_functional_redis("intel-mpk", n_requests=20, trace=True)
        assert len(run.tracer.events_in("gate")) == \
            sum(run.ctx.transitions.values())

    def test_span_args_name_caller_and_callee(self):
        instance = boot(make_config())
        with instance.trace() as tracer, instance.run():
            obs_probe(token=1)
        (event,) = tracer.events_in("gate")
        assert event.args["library"] == "lwip"   # callee micro-library
        assert event.args["src_library"] is None  # called from app context
        assert event.args["kind"] == "mpk-full"
        assert event.args["status"] == "ok"
        assert event.args["dst"] == "comp2"
        assert event.dur > 0

    def test_faulting_span_records_status(self):
        instance, injector, _ = armed_instance()
        lwip = instance.image.compartment_of("lwip").index
        from repro.faults.injector import FaultSpec

        injector.arm(FaultSpec("stray-read", dst=lwip))
        with instance.trace() as tracer, instance.run():
            with pytest.raises(Exception):
                lwip_probe(token=1)
        statuses = {e.args["status"] for e in tracer.events_in("gate")}
        assert "ProtectionFault" in statuses
        assert tracer.metrics.faults.get("ProtectionFault", 0) >= 1


class TestMetricsInvariants:
    def test_histogram_totals_equal_crossing_counters(self):
        run = run_functional_redis("intel-mpk", n_requests=20, trace=True)
        metrics = run.tracer.metrics
        assert metrics.gate_latency  # at least one pair observed
        for (src, dst), histogram in metrics.gate_latency.items():
            assert histogram.total == metrics.crossings_for_pair(src, dst)
            assert histogram.total == sum(histogram.counts)
        assert sum(h.total for h in metrics.gate_latency.values()) == \
            metrics.total_crossings()

    def test_snapshot_round_trips_and_sums(self):
        run = run_functional_redis("intel-mpk", n_requests=20, trace=True)
        snapshot = json.loads(metrics_json(run.tracer.metrics))
        crossings = snapshot["counters"]["gate_crossings"]
        histograms = snapshot["histograms"]["gate_latency_cycles"]
        for pair_label, histogram in histograms.items():
            expected = sum(
                count for label, count in crossings.items()
                if label.rsplit("/", 1)[0] == pair_label
            )
            assert histogram["total"] == expected

    def test_histogram_overflow_bucket(self):
        histogram = Histogram((10.0, 20.0))
        for value in (5.0, 15.0, 1000.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]
        assert histogram.total == 3
        assert histogram.mean == pytest.approx(340.0)


class TestExporters:
    def test_chrome_trace_round_trips(self):
        run = run_functional_redis("intel-mpk", n_requests=20, trace=True)
        payload = json.loads(chrome_trace_json(run.tracer))
        assert payload["traceEvents"]
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {(e["args"]["src_comp"], e["args"]["dst_comp"])
                for e in spans} == set(run.ctx.transitions)
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "i")
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_chrome_trace_timestamps_are_microseconds(self):
        clock_less = Tracer()
        clock_less.instant("x", "fault")
        payload = chrome_trace(clock_less)
        assert payload["traceEvents"][0]["ts"] == 0

    def test_flamegraph_folds_by_stack(self):
        run = run_functional_redis("intel-mpk", n_requests=20, trace=True)
        text = flamegraph(run.tracer)
        assert text
        total = 0
        for line in text.splitlines():
            path, _, cycles = line.rpartition(" ")
            assert path  # "a;b;c cycles" shape
            total += int(cycles)
        spans = run.tracer.events_in("gate")
        # Self-cycles across all paths sum to the root spans' durations.
        roots = sum(e.dur for e in spans if e.args["depth"] == 0)
        assert total == pytest.approx(roots, abs=len(spans))


class TestInstantHooks:
    def test_pkru_allocator_sched_net_events(self):
        run = run_functional_redis("intel-mpk", n_requests=20, trace=True)
        tracer = run.tracer
        metrics = tracer.metrics
        assert metrics.pkru_writes == len(tracer.events_in("pkru"))
        assert metrics.pkru_writes > 0
        assert metrics.context_switches == len(tracer.events_in("sched"))
        assert metrics.context_switches > 0
        assert metrics.tcp_segments["tx"] > 0
        assert metrics.tcp_segments["rx"] > 0
        assert metrics.tcp_segments["tx"] + metrics.tcp_segments["rx"] == \
            len(tracer.events_in("net"))

    def test_alloc_paths_counted(self):
        instance = boot(make_config())
        lwip = instance.image.compartment_of("lwip").index
        heap = instance.memmgr.heap_of(lwip)
        with instance.trace() as tracer, instance.run():
            lwip_alloc_probe(heap)
        metrics = tracer.metrics
        assert metrics.alloc_fast + metrics.alloc_slow == 1
        assert metrics.frees == 1
        assert metrics.alloc_sizes.total == 1

    def test_injected_faults_traced(self):
        config = CampaignConfig(mechanism="intel-mpk", seed=3, n_faults=10)
        with tracing(Tracer()) as tracer:
            run_campaign(config)
        injected = [name for name in tracer.metrics.faults
                    if name.startswith("injected:")]
        assert injected
        assert tracer.metrics.supervision  # decisions were traced too


def _record_pkru_words(monkeypatch):
    """Log ``(op, register masks)`` after every gate transition and restore."""
    log = []
    transition, restore = PKRU.apply_transition, PKRU.restore

    def logged_transition(self, deny_mask, allow_mask):
        transition(self, deny_mask, allow_mask)
        log.append(("transition", self.snapshot()))

    def logged_restore(self, snap):
        restore(self, snap)
        log.append(("restore", self.snapshot()))

    monkeypatch.setattr(PKRU, "apply_transition", logged_transition)
    monkeypatch.setattr(PKRU, "restore", logged_restore)
    return log


class TestSinglePkruPath:
    """Traced or not, an MPK crossing is one ``wrpkru`` in and one out."""

    @pytest.fixture(params=["light", "full"])
    def runs(self, request, monkeypatch):
        words = {}
        results = {}
        for trace in (False, True):
            log = _record_pkru_words(monkeypatch)
            results[trace] = run_functional_redis(
                "intel-mpk", n_requests=20, mpk_gate=request.param,
                trace=trace)
            words[trace] = log
            monkeypatch.undo()
        return results, words

    def test_tracing_moves_no_virtual_cycle(self, runs):
        results, _ = runs
        assert results[True].elapsed_cycles == results[False].elapsed_cycles
        assert results[True].ctx.transitions == results[False].ctx.transitions

    def test_same_register_word_after_every_write(self, runs):
        _, words = runs
        assert words[True] == words[False]
        assert words[True]

    def test_two_writes_per_crossing(self, runs):
        results, words = runs
        tracer = results[True].tracer
        metrics = tracer.metrics
        crossings = metrics.total_crossings()
        assert crossings == sum(results[True].ctx.transitions.values()) > 0
        assert metrics.pkru_writes == 2 * crossings
        assert metrics.pkru_writes == len(tracer.events_in("pkru"))
        assert metrics.pkru_writes == len(words[True])
        names = [event.name for event in tracer.events_in("pkru")]
        assert names.count("pkru-transition") == crossings
        assert names.count("pkru-restore") == crossings


class CountedTraceEvent(TraceEvent):
    """A TraceEvent that counts its constructions."""

    built = 0

    def __init__(self, *args, **kwargs):
        CountedTraceEvent.built += 1
        super().__init__(*args, **kwargs)


class TestEventlessTracer:
    """``keep_events=False`` builds no event yet aggregates the same."""

    @pytest.fixture
    def counted(self, monkeypatch):
        monkeypatch.setattr(CountedTraceEvent, "built", 0)
        monkeypatch.setattr(tracer_module, "TraceEvent", CountedTraceEvent)
        return CountedTraceEvent

    @staticmethod
    def _hub():
        return TelemetryHub(window_cycles=100_000.0, slo_targets=(
            SloTarget("p99-5us", 11_000.0, objective=0.99),))

    def _load(self, app, mechanism, keep_events):
        tracer = Tracer(keep_events=keep_events)
        run_load(app, mechanism, rate_rps=400_000.0, n_requests=48,
                 seed=1, cores=2, connections=2, tracer=tracer)
        return tracer

    @pytest.mark.parametrize("app,mechanism", [
        ("redis", "intel-mpk"), ("sqlite", "vm-ept"),
    ])
    def test_load_run_builds_no_event(self, counted, app, mechanism):
        quiet = self._load(app, mechanism, keep_events=False)
        assert counted.built == 0
        assert quiet.events == []
        kept = self._load(app, mechanism, keep_events=True)
        assert counted.built == len(kept.events) > 0
        assert quiet.metrics.snapshot() == kept.metrics.snapshot()

    def test_fault_campaign_builds_no_event(self, counted):
        config = CampaignConfig(mechanism="intel-mpk", seed=3, n_faults=10)
        with tracing(Tracer(keep_events=False)) as quiet:
            run_campaign(config)
        assert counted.built == 0
        with tracing(Tracer()) as kept:
            run_campaign(config)
        assert kept.events_in("fault") and kept.events_in("supervisor")
        assert quiet.metrics.snapshot() == kept.metrics.snapshot()

    def test_hub_run_is_unchanged_by_keeping_events(self, counted):
        snapshots = {}
        for keep_events in (False, True):
            hub = self._hub()
            result = run_load("redis", "intel-mpk", rate_rps=400_000.0,
                              n_requests=48, seed=1, cores=2,
                              connections=2, hub=hub, trace=keep_events)
            if not keep_events:
                assert counted.built == 0
            assert result.tracer.keep_events is keep_events
            assert hub.spans.check_all() == 48
            snapshots[keep_events] = (hub.snapshot(), hub.metrics.snapshot())
        assert snapshots[False] == snapshots[True]


class AlwaysRetryPolicy(Policy):
    """Pathological policy: answers retry no matter what."""

    name = "always-retry"

    def decide(self, fault, attempt, supervisor, comp_index):
        return Decision("retry", note="retry forever")


class TestRetryCeiling:
    def test_always_retry_policy_cannot_wedge_gate(self):
        """Regression: a custom policy that never stops answering
        ``retry`` used to spin Gate.call forever; the gate-level attempt
        ceiling now converts to propagate."""
        instance = boot(make_config())
        instance.set_fault_policy("lwip", AlwaysRetryPolicy())
        lwip = instance.image.compartment_of("lwip").index
        heap = instance.memmgr.heap_of(lwip)
        heap.fail_next(50)  # outlasts the ceiling; pre-fix: 50 replays
        from repro.core.gates import Gate

        with instance.trace() as tracer, instance.run():
            with pytest.raises(AllocationError):
                lwip_alloc_probe(heap)
        attempts = [e for e in instance.supervisor.events
                    if e.compartment == lwip]
        assert len(attempts) == Gate.MAX_SUPERVISED_ATTEMPTS
        ceiling = [e for e in tracer.events_in("supervisor")
                   if e.name == "gate-retry-ceiling"]
        assert len(ceiling) == 1
        assert ceiling[0].args["attempts"] == Gate.MAX_SUPERVISED_ATTEMPTS
        assert ceiling[0].args["fault"] == "AllocationError"

    def test_builtin_retry_policy_unaffected_by_ceiling(self):
        instance = boot(make_config())
        instance.set_fault_policy("lwip", "retry")
        lwip = instance.image.compartment_of("lwip").index
        heap = instance.memmgr.heap_of(lwip)
        heap.fail_next(2)
        with instance.run():
            assert lwip_alloc_probe(heap) == 64  # third attempt succeeds
        actions = [e.action for e in instance.supervisor.events]
        assert actions == ["retry", "retry"]

    def test_retry_on_transient_entry(self):
        instance = boot(make_config())
        instance.set_fault_policy("lwip", AlwaysRetryPolicy())
        calls = {"n": 0}

        @entrypoint("lwip")
        def flaky():
            calls["n"] += 1
            raise TransientFault("link", "always down")

        with instance.run():
            with pytest.raises(TransientFault):
                flaky()
        from repro.core.gates import Gate

        assert calls["n"] == Gate.MAX_SUPERVISED_ATTEMPTS


class TestCli:
    def run_cli(self, argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    def test_trace_command_writes_chrome_trace(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        flame_path = tmp_path / "flame.txt"
        code, output = self.run_cli([
            "trace", "redis", "--requests", "10",
            "--out", str(trace_path), "--flamegraph", str(flame_path),
        ])
        assert code == 0
        assert "gate spans" in output
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        assert flame_path.read_text().strip()

    def test_metrics_command_writes_artifacts(self, tmp_path):
        out_dir = tmp_path / "art"
        code, output = self.run_cli([
            "metrics", "sqlite", "--requests", "10",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        metrics = json.loads((out_dir / "metrics-sqlite.json").read_text())
        assert metrics["app"] == "sqlite"
        assert metrics["counters"]["gate_crossings"]
        json.loads((out_dir / "trace-sqlite.json").read_text())

    def test_metrics_command_prints_snapshot(self):
        code, output = self.run_cli(["metrics", "redis",
                                     "--requests", "10"])
        assert code == 0
        payload = json.loads(output)
        assert payload["n_requests"] == 10
        assert payload["counters"]["tcp_segments"]["tx"] > 0

    def test_tracer_uninstalled_after_cli_run(self):
        self.run_cli(["metrics", "redis", "--requests", "10"])
        assert get_tracer() is NULL_TRACER


class TestCampaignTiming:
    def test_records_carry_cycles(self):
        config = CampaignConfig(mechanism="intel-mpk", seed=1, n_faults=10)
        result = run_campaign(config)
        assert all(r.cycles > 0 for r in result.records)
        assert "cycles=" in result.records[0].line()
        assert result.mean_cycles_per_fault() > 0

    def test_timing_is_deterministic(self):
        config = CampaignConfig(mechanism="intel-mpk", seed=5, n_faults=8)
        first = run_campaign(config)
        second = run_campaign(config)
        assert [r.cycles for r in first.records] == \
            [r.cycles for r in second.records]

    def test_scorecard_shows_cycles_per_fault(self):
        from repro.bench.containment import format_scorecard, run_scorecard

        results = run_scorecard(seed=1, n_faults=6)
        assert "cycles/fault" in format_scorecard(results)


class TestHistogramBucketEdges:
    """Pin the inclusive-upper-bound rule the Histogram docstring
    documents: the cost model produces exact round values, so edge hits
    are the common case and their bucket must be deterministic."""

    def test_value_on_bound_lands_in_that_bucket(self):
        histogram = Histogram((50.0, 100.0, 250.0))
        histogram.observe(50.0)
        assert histogram.counts == [1, 0, 0, 0]
        histogram.observe(100.0)
        assert histogram.counts == [1, 1, 0, 0]

    def test_value_just_above_bound_spills_to_the_next(self):
        histogram = Histogram((50.0, 100.0))
        histogram.observe(50.0000001)
        assert histogram.counts == [0, 1, 0]

    def test_last_bound_is_not_overflow(self):
        histogram = Histogram((50.0, 100.0))
        histogram.observe(100.0)
        assert histogram.counts == [0, 1, 0]
        histogram.observe(100.0000001)
        assert histogram.counts == [0, 1, 1]

    def test_every_builtin_bucket_table_obeys_the_rule(self):
        from repro.obs.metrics import (
            ALLOC_SIZE_BUCKETS,
            GATE_LATENCY_BUCKETS,
            RECONFIG_BLACKOUT_BUCKETS,
            RUNQUEUE_DEPTH_BUCKETS,
        )
        for buckets in (GATE_LATENCY_BUCKETS, ALLOC_SIZE_BUCKETS,
                        RECONFIG_BLACKOUT_BUCKETS,
                        RUNQUEUE_DEPTH_BUCKETS):
            histogram = Histogram(buckets)
            for i, bound in enumerate(buckets):
                histogram.observe(bound)
                assert histogram.counts[i] == 1, (buckets, bound)
            assert histogram.counts[-1] == 0   # no edge hit overflowed

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram((100.0, 50.0))


class TestChromeCoreLanes:
    """SMP chrome traces draw one lane per virtual core (tid = core)."""

    @pytest.fixture(scope="class")
    def smp_trace(self):
        from repro.obs import TelemetryHub

        hub = TelemetryHub()
        result = run_load("redis", "intel-mpk", rate_rps=20000.0,
                          n_requests=12, seed=1, cores=2,
                          connections=2, trace=True, hub=hub)
        return chrome_trace(result.tracer)

    def test_one_lane_per_core_plus_spare(self, smp_trace):
        lanes = {
            event["tid"]: event["args"]["name"]
            for event in smp_trace["traceEvents"]
            if event.get("ph") == "M"
        }
        assert lanes == {0: "core 0", 1: "core 1", 2: "boot/off-core"}
        assert smp_trace["otherData"]["cores"] == 2

    def test_core_stamped_events_ride_their_lane(self, smp_trace):
        tids = {
            event["tid"] for event in smp_trace["traceEvents"]
            if event.get("ph") != "M"
        }
        assert {0, 1} <= tids           # both cores saw work
        assert tids <= {0, 1, 2}        # nothing outside the lanes

    def test_serial_trace_keeps_legacy_single_lane(self):
        run = run_functional_redis("intel-mpk", n_requests=5, trace=True)
        payload = chrome_trace(run.tracer)
        assert all(event["tid"] == 1
                   for event in payload["traceEvents"])
        assert payload["otherData"]["cores"] == 0
        assert not [event for event in payload["traceEvents"]
                    if event.get("ph") == "M"]


class TestTailCli:
    """`obs tail` and `obs slo`: the hub's CLI surface."""

    def run_cli(self, argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    def test_tail_renders_the_decomposition(self):
        code, output = self.run_cli([
            "obs", "tail", "redis", "--requests", "16", "--cores", "2",
            "--slo-us", "3",
        ])
        assert code == 0
        assert "16 requests completed (16 claimed" in output
        assert "latency decomposition" in output
        assert "SLO p99-3us" in output

    def test_tail_json_carries_hub_snapshot(self):
        code, output = self.run_cli([
            "obs", "tail", "redis", "--requests", "16", "--cores", "2",
            "--format", "json", "--evaluator-input",
        ])
        assert code == 0
        payload = json.loads(output)
        assert payload["requests"]["completed"] == 16
        assert payload["evaluator_input"]["windows"]
        assert payload["load"]["p99_us"] > 0

    def test_tail_trace_writes_per_core_lanes(self, tmp_path):
        trace_path = tmp_path / "tail-trace.json"
        report_path = tmp_path / "tail.txt"
        code, _ = self.run_cli([
            "obs", "tail", "redis", "--requests", "12", "--cores", "2",
            "--trace", str(trace_path), "--out", str(report_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["otherData"]["cores"] == 2
        assert "latency decomposition" in report_path.read_text()

    def test_slo_compares_mechanisms(self):
        code, output = self.run_cli([
            "obs", "slo", "redis", "--requests", "16", "--slo-us", "3",
            "--mechanisms", "none,intel-mpk",
        ])
        assert code == 0
        assert "none" in output and "intel-mpk" in output
        assert "queue" in output and "gate" in output

    def test_tail_serial_reference_with_zero_cores(self):
        code, output = self.run_cli([
            "obs", "tail", "redis", "--requests", "12", "--cores", "0",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(output)
        assert payload["requests"]["causality_clamps"] == 0

    def test_tracer_uninstalled_after_tail_run(self):
        self.run_cli(["obs", "tail", "redis", "--requests", "8"])
        assert get_tracer() is NULL_TRACER
