"""Open-loop load harness tests: determinism, percentiles, the
serial-vs-SMP differential on the full stack, and the SMP obs metrics."""

import pytest

from repro.bench.load import (
    LoadResult,
    _percentile,
    measure_saturation,
    poisson_offsets_cycles,
    run_load,
)
from repro.errors import ReproError
from repro.hw.clock import Clock

REQUESTS = 32
RATE = 250_000.0  # comfortably below every config's saturation


class TestArrivals:
    def test_seeded_schedule_is_deterministic(self):
        clock = Clock()
        a = poisson_offsets_cycles(1e5, 50, seed=3, clock=clock)
        b = poisson_offsets_cycles(1e5, 50, seed=3, clock=clock)
        c = poisson_offsets_cycles(1e5, 50, seed=4, clock=clock)
        assert a == b
        assert a != c

    def test_offsets_ascend_at_mean_rate(self):
        clock = Clock()
        offsets = poisson_offsets_cycles(1e5, 400, seed=1, clock=clock)
        assert offsets == sorted(offsets)
        mean_gap = offsets[-1] / len(offsets)
        expected = clock.freq_hz / 1e5  # cycles per arrival
        assert 0.8 * expected < mean_gap < 1.2 * expected

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ReproError):
            poisson_offsets_cycles(0, 10, seed=1, clock=Clock())


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert _percentile(values, 50) == 50
        assert _percentile(values, 99) == 99
        assert _percentile(values, 99.9) == 100
        assert _percentile(values, 100) == 100
        assert _percentile([], 50) == 0.0


class TestOpenLoopRedis:
    @pytest.fixture(scope="class")
    def result(self):
        return run_load("redis", "intel-mpk", rate_rps=RATE,
                        n_requests=REQUESTS, seed=5, cores=2,
                        connections=4)

    def test_all_requests_complete(self, result):
        assert result.completed == REQUESTS
        assert result.mode == "open"
        assert result.reply_bytes == REQUESTS * len(b"$-1\r\n")

    def test_latencies_positive_and_ordered(self, result):
        assert all(lat > 0 for lat in result.latencies_cycles)
        assert result.percentile_us(50) <= result.percentile_us(99) \
            <= result.percentile_us(99.9) <= result.percentile_us(100)

    def test_cores_ran(self, result):
        assert result.cores == 2
        assert len(result.core_stats) == 2
        assert sum(c["dispatches"] for c in result.core_stats) \
            == result.switches

    def test_same_seed_same_latencies(self, result):
        again = run_load("redis", "intel-mpk", rate_rps=RATE,
                         n_requests=REQUESTS, seed=5, cores=2,
                         connections=4)
        assert again.latencies_cycles == result.latencies_cycles
        assert again.elapsed_cycles == result.elapsed_cycles


class TestOtherApps:
    def test_nginx_open_loop(self):
        result = run_load("nginx", "intel-mpk", rate_rps=100_000.0,
                          n_requests=16, seed=2, cores=2, connections=2)
        assert result.completed == 16
        assert result.reply_bytes > 16 * 20  # headers + body per reply

    def test_sqlite_worker_pool(self):
        result = run_load("sqlite", "intel-mpk", rate_rps=RATE,
                          n_requests=24, seed=2, cores=2, connections=3)
        assert result.completed == 24
        assert result.percentile_us(50) > 0

    def test_unknown_app_rejected(self):
        with pytest.raises(ReproError):
            run_load("memcached", "none")


class TestSchedule:
    @pytest.mark.parametrize("app", ["sqlite", "redis"])
    def test_one_phase_schedule_is_the_rate(self, app):
        # One phase is one Poisson process: the same arrivals, so the
        # same latencies, as the single-rate run.
        common = dict(seed=2, cores=2, connections=2)
        by_rate = run_load(app, "intel-mpk", rate_rps=RATE, n_requests=24,
                           **common)
        by_schedule = run_load(app, "intel-mpk", schedule=[(RATE, 24)],
                               **common)
        assert by_schedule.mode == by_rate.mode == "open"
        assert by_schedule.latencies_cycles == by_rate.latencies_cycles


class TestSaturation:
    def test_closed_loop_probe(self):
        result = run_load("redis", "none", rate_rps=None,
                          n_requests=REQUESTS, cores=2, connections=4)
        assert result.mode == "closed"
        assert result.completed == REQUESTS
        assert result.achieved_rps > 0

    def test_helper_returns_rps(self):
        rps = measure_saturation("redis", "none", n_requests=REQUESTS)
        assert rps > 0


def _strip_smp_sections(snapshot):
    counters = dict(snapshot["counters"])
    counters.pop("sched", None)
    histograms = dict(snapshot["histograms"])
    histograms.pop("runqueue_depth", None)
    return {"counters": counters, "histograms": histograms}


class TestSerialDifferential:
    """The acceptance criterion: N=1 SMP is identical to serial on the
    full stack — cycles, reply bytes, latencies, faults, metrics."""

    @pytest.fixture(scope="class")
    def pair(self):
        kwargs = dict(rate_rps=RATE, n_requests=REQUESTS, seed=9,
                      connections=4, trace=True)
        serial = run_load("redis", "intel-mpk", cores=None, **kwargs)
        smp = run_load("redis", "intel-mpk", cores=1, **kwargs)
        return serial, smp

    def test_cycles_identical(self, pair):
        serial, smp = pair
        assert serial.elapsed_cycles == smp.elapsed_cycles
        assert serial.first_cycles == smp.first_cycles
        assert serial.last_cycles == smp.last_cycles

    def test_latencies_identical(self, pair):
        serial, smp = pair
        assert serial.latencies_cycles == smp.latencies_cycles

    def test_reply_bytes_identical(self, pair):
        serial, smp = pair
        assert serial.reply_bytes == smp.reply_bytes

    def test_switches_identical(self, pair):
        serial, smp = pair
        assert serial.switches == smp.switches

    def test_metrics_identical_modulo_smp_sections(self, pair):
        """Every aggregate — gate crossings, faults, tcp segments,
        context switches — matches; the SMP run only adds its own
        ``sched`` / ``runqueue_depth`` sections."""
        serial, smp = pair
        serial_snap = serial.tracer.metrics.snapshot()
        smp_snap = smp.tracer.metrics.snapshot()
        assert "sched" not in serial_snap["counters"]
        assert "runqueue_depth" not in serial_snap["histograms"]
        assert _strip_smp_sections(serial_snap) \
            == _strip_smp_sections(smp_snap)
        assert serial_snap["counters"]["faults"] \
            == smp_snap["counters"]["faults"]


class TestSmpMetrics:
    def test_traced_smp_run_records_core_metrics(self):
        result = run_load("redis", "intel-mpk", rate_rps=RATE,
                          n_requests=REQUESTS, seed=5, cores=2,
                          connections=4, trace=True)
        snapshot = result.tracer.metrics.snapshot()
        sched_section = snapshot["counters"]["sched"]
        assert set(sched_section) == {"core-0", "core-1"}
        assert sum(entry["dispatches"]
                   for entry in sched_section.values()) == result.switches
        depth = snapshot["histograms"]["runqueue_depth"]
        assert depth["total"] == result.switches
