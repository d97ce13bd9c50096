"""Tail-latency observatory point: windowed telemetry + span decomposition.

Not a paper figure — the observability experiment on top of the FlexOS
reproduction.  Serves Redis over the real TCP stack on the SMP
scheduler while a :class:`~repro.obs.TelemetryHub` ingests the run:
one request span per injected request (claimed by the serving thread,
decomposed into queueing / gate-crossing / app cycles and windowed by
completion time), SLO burn rates, and slow-request exemplars.

The trajectory point records the full hub snapshot per isolation
config plus the ``evaluator_input`` contract the ``live`` explorer
evaluator and the autotune loop consume — pinning both the numbers and
the shape.  Everything derives from the virtual clock and the seeded
arrival schedule, so the point is rerun-byte-identical and safe for
the ``obs check`` perf gate; the benchmark itself asserts that by
running one config twice and comparing snapshots structurally.
"""

import json

from benchmarks.common import run_recorded, write_result
from repro.bench.load import run_load
from repro.hw.clock import XEON_4114_HZ
from repro.obs import SloTarget, TelemetryHub

APP = "redis"
N_REQUESTS = 64
CONNECTIONS = 4
CORES = 2
SEED = 1
RATE_RPS = 20000.0
WINDOW_CYCLES = 100_000.0
SLO_US = 3.0

#: Isolation configs: (mechanism, mpk_gate).
CONFIGS = (("none", "full"), ("intel-mpk", "full"))


def _slo_target():
    return SloTarget("p99-%gus" % SLO_US,
                     SLO_US * 1e-6 * XEON_4114_HZ, objective=0.99)


def _run_point(mechanism, mpk_gate):
    hub = TelemetryHub(window_cycles=WINDOW_CYCLES,
                       slo_targets=(_slo_target(),))
    result = run_load(APP, mechanism, rate_rps=RATE_RPS,
                      n_requests=N_REQUESTS, seed=SEED, cores=CORES,
                      connections=CONNECTIONS, mpk_gate=mpk_gate,
                      hub=hub)
    assert result.completed == N_REQUESTS, result
    hub.spans.check_all()
    return result, hub


def _run_observatory():
    points = {}
    for mechanism, mpk_gate in CONFIGS:
        result, hub = _run_point(mechanism, mpk_gate)
        points[mechanism] = {
            "load": result.summary(),
            "hub": hub.snapshot(),
            "evaluator_input": hub.evaluator_input(),
        }
    return points


def _render(points):
    lines = [
        "Tail-latency observatory — %s, %d requests at %.0f rps, "
        "%d cores, seed %d, SLO %gus @ p99"
        % (APP, N_REQUESTS, RATE_RPS, CORES, SEED, SLO_US),
        "%-10s %8s %8s %8s %8s %8s %8s %8s" % (
            "config", "p99 us", "queue%", "gate%", "app%", "crossings",
            "burn", "clamps"),
    ]
    for mechanism, point in points.items():
        shares = point["hub"]["decomposition"]["shares"]
        requests = point["hub"]["requests"]
        slo = point["hub"]["slo"][0]
        lines.append("%-10s %8.2f %8.1f %8.1f %8.1f %8d %8.2f %8d" % (
            mechanism, point["load"]["p99_us"],
            100.0 * shares["queue_cycles"],
            100.0 * shares["gate_cycles"],
            100.0 * shares["app_cycles"],
            requests["gate_crossings"], slo["overall_burn"],
            requests["causality_clamps"]))
    return "\n".join(lines)


def test_tail_observatory(benchmark):
    points = run_recorded(
        benchmark, "tail", _run_observatory,
        config={"app": APP, "requests": N_REQUESTS, "seed": SEED,
                "cores": CORES, "connections": CONNECTIONS,
                "rate_rps": RATE_RPS, "window_cycles": WINDOW_CYCLES,
                "slo_us": SLO_US,
                "mechanisms": ["%s/%s" % pair for pair in CONFIGS]},
        pedantic={"rounds": 1, "iterations": 1},
    )
    write_result("tail", _render(points))
    for mechanism, point in points.items():
        requests = point["hub"]["requests"]
        assert requests["completed"] == N_REQUESTS
        assert requests["claimed"] == N_REQUESTS
        totals = point["hub"]["decomposition"]["totals"]
        parts = (totals["queue_cycles"] + totals["gate_cycles"]
                 + totals["app_cycles"])
        assert abs(parts - totals["latency_cycles"]) <= 1e-6 * max(
            1.0, totals["latency_cycles"])
        assert point["evaluator_input"]["windows"], mechanism
    # Isolation's per-request gate cycles are visible only when gates
    # exist: the monolithic config books zero, MPK books every reply's
    # transport crossings.
    assert points["none"]["hub"]["requests"]["gate_crossings"] == 0
    assert points["intel-mpk"]["hub"]["requests"]["gate_crossings"] > 0
    # Determinism: the same seeded point reruns to an identical snapshot.
    _, rerun = _run_point("intel-mpk", "full")
    first = points["intel-mpk"]["hub"]
    assert json.dumps(rerun.snapshot(), sort_keys=True) == \
        json.dumps(first, sort_keys=True)
