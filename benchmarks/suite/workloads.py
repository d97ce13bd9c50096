"""The suite's four workloads and the fixed sizes of a run.

Each workload loads one layer heavily and leaves another alone, so a
change to a layer has a workload that exercises it and one on which the
prediction is "no change" (the reasons are in ``BENCHMARK.json`` and the
README).  The seed only changes Poisson arrivals, so closed-loop
workloads serve the same requests for every seed.

Nothing here imports ``repro``: the child measures set-up time from
before its first ``repro`` import.
"""

import collections

#: Virtual cores of each simulated instance (the SMP scheduler).
CORES = 2
#: Client connections, or SQLite workers.
CONNECTIONS = 2
#: Requests served before the timed run, so lazy set-up has finished.
WARMUP_REQUESTS = 200
#: Samples (fresh child processes) per workload in a full run.
ROUNDS = 7

#: The bound TelemetryHub of ``redis-get-hub``: window width and a p99
#: SLO tight enough to burn, so windows, SLO accounting and slow-request
#: exemplars all do work, as under ``obs tail`` and the autotuner.
HUB_WINDOW_CYCLES = 100_000.0
HUB_SLO_US = 5.0

Workload = collections.namedtuple(
    "Workload", "name app mechanism rate_rps n_requests hub")
Workload.__doc__ = """One workload: a ``run_load`` point.

``rate_rps`` is the open-loop Poisson rate in virtual requests per
second over the whole run (see ``child.arrival_rate``), or None for the
closed-loop saturation probe; ``n_requests`` is N, the size of the timed
run; ``hub`` binds a TelemetryHub."""

#: Open-loop N is twice what a 1-2 s run needs: the work per request
#: depends on the seed's arrival pattern, less so the larger N is.
WORKLOADS = (
    # Smallest messages: per-packet kernel.net work and MPK gates.
    Workload("redis-get-mpk", "redis", "intel-mpk", None, 4000, False),
    # No gates at all; open-loop polling shows the scheduler and libc.
    Workload("nginx-get-open", "nginx", "none", 300_000.0, 3000, False),
    # No network: EPT RPC gates, the router and filesystem writes.
    Workload("sqlite-insert-ept", "sqlite", "vm-ept", None, 3500, False),
    # The only workload with observability work.
    Workload("redis-get-hub", "redis", "intel-mpk", 400_000.0, 2400, True),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
