"""Latency under load: open-loop Poisson arrivals per isolation config.

Not a paper figure — the scaling experiment on top of the FlexOS
reproduction.  The paper's evaluation prices isolation per gate
crossing under closed-loop benchmarks; this benchmark instead serves
each app over its real substrate on the SMP scheduler
(:mod:`repro.kernel.smp`) — Redis and nginx over the TCP stack, SQLite
over the journalled VFS — while seeded Poisson arrivals inject requests
at fixed fractions of the measured saturation throughput, so isolation
cost competes with queueing delay the way it would in production.

For each isolation config (including the EPT rung, whose RPC gates are
an order of magnitude pricier than MPK's) and each core count the
trajectory point records the closed-loop saturation throughput plus
p50/p99/p999 latency at three arrival rates anchored to the
*uncompartmentalised* config's saturation at that core count — the same
absolute rates for every config, so the latency curves are comparable.
Everything is virtual-clock-derived and seed-deterministic: the point
regenerates byte-identically, so any ``git diff`` of it is a behaviour
change.
"""

from benchmarks.common import run_recorded, write_result
from repro.bench.load import run_load

APPS = ("redis", "nginx", "sqlite")
N_REQUESTS = 96
CONNECTIONS = 4
SEED = 1

#: Isolation configs: (mechanism, mpk_gate).
CONFIGS = (("none", "full"), ("intel-mpk", "full"), ("vm-ept", "full"))

#: SMP scheduler widths the curves are swept over.
CORE_COUNTS = (2, 4)

#: Open-loop arrival rates as fractions of the baseline saturation.
RATE_FRACTIONS = (0.3, 0.6, 0.9)


def _sched_metrics(result):
    """The SMP sections of a traced run's metrics snapshot."""
    snapshot = result.tracer.metrics.snapshot()
    return {
        "sched": snapshot["counters"].get("sched", {}),
        "runqueue_depth": snapshot["histograms"].get("runqueue_depth", {}),
    }


def _app_curves(app):
    curves = {}
    for cores in CORE_COUNTS:
        baseline = run_load(app, CONFIGS[0][0], rate_rps=None,
                            n_requests=N_REQUESTS, cores=cores,
                            connections=CONNECTIONS,
                            mpk_gate=CONFIGS[0][1])
        rates = [fraction * baseline.achieved_rps
                 for fraction in RATE_FRACTIONS]
        per_config = {}
        for mechanism, mpk_gate in CONFIGS:
            saturation = (
                baseline if mechanism == CONFIGS[0][0]
                else run_load(app, mechanism, rate_rps=None,
                              n_requests=N_REQUESTS, cores=cores,
                              connections=CONNECTIONS, mpk_gate=mpk_gate)
            )
            points = []
            for fraction, rate in zip(RATE_FRACTIONS, rates):
                result = run_load(app, mechanism, rate_rps=rate,
                                  n_requests=N_REQUESTS, seed=SEED,
                                  cores=cores, connections=CONNECTIONS,
                                  mpk_gate=mpk_gate, trace=True)
                assert result.completed == N_REQUESTS, result
                point = result.summary()
                point["rate_fraction"] = fraction
                point["metrics"] = _sched_metrics(result)
                points.append(point)
            per_config[mechanism] = {
                "saturation_rps": saturation.achieved_rps,
                "points": points,
            }
        curves["cores_%d" % cores] = per_config
    return curves


def _run_curves():
    return {app: _app_curves(app) for app in APPS}


def _render(by_app):
    lines = [
        "Latency under open-loop load — %s; %d requests, "
        "%d connections, seed %d"
        % (", ".join(by_app), N_REQUESTS, CONNECTIONS, SEED),
    ]
    for app, curves in by_app.items():
        for cores_key, per_config in curves.items():
            lines.append("")
            lines.append("-- %s, %s --" % (app, cores_key.replace("_", " ")))
            lines.append("%-10s %12s %12s %10s %10s %10s" % (
                "config", "offered", "achieved", "p50", "p99", "p999"))
            lines.append("%-10s %12s %12s %10s %10s %10s" % (
                "", "rps", "rps", "us", "us", "us"))
            for mechanism, curve in per_config.items():
                lines.append("%-10s %12s %12.0f %10s %10s %10s" % (
                    mechanism, "saturation", curve["saturation_rps"],
                    "-", "-", "-"))
                for point in curve["points"]:
                    lines.append(
                        "%-10s %12.0f %12.0f %10.2f %10.2f %10.2f" % (
                            mechanism, point["offered_rps"],
                            point["achieved_rps"], point["p50_us"],
                            point["p99_us"], point["p999_us"]))
    return "\n".join(lines)


def test_load_latency_curves(benchmark):
    curves = run_recorded(
        benchmark, "load", _run_curves,
        config={"apps": list(APPS), "requests": N_REQUESTS, "seed": SEED,
                "cores": list(CORE_COUNTS),
                "connections": CONNECTIONS,
                "mechanisms": ["%s/%s" % pair for pair in CONFIGS],
                "rate_fractions": list(RATE_FRACTIONS)},
        pedantic={"rounds": 1, "iterations": 1},
    )
    write_result("load", _render(curves))
    for app, app_curves in curves.items():
        for per_config in app_curves.values():
            for mechanism, curve in per_config.items():
                assert curve["saturation_rps"] > 0, (app, mechanism)
                for point in curve["points"]:
                    assert point["completed"] == N_REQUESTS
                    assert (point["p50_us"] <= point["p99_us"]
                            <= point["p999_us"])
                    assert point["metrics"]["runqueue_depth"].get(
                        "total", 0) > 0
        for cores_key, per_config in app_curves.items():
            # Isolation costs latency at identical offered load: at the
            # lowest shared rate the compartmentalised configs may not
            # beat the monolithic one, and the EPT rung's RPC gates
            # price it above MPK.
            none_p50 = per_config["none"]["points"][0]["p50_us"]
            mpk_p50 = per_config["intel-mpk"]["points"][0]["p50_us"]
            ept_p50 = per_config["vm-ept"]["points"][0]["p50_us"]
            assert mpk_p50 >= none_p50, (app, cores_key, mpk_p50,
                                         none_p50)
            assert ept_p50 >= mpk_p50, (app, cores_key, ept_p50,
                                        mpk_p50)
