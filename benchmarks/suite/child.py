"""One sample of one workload, taken in a fresh interpreter.

Run by the suite as ``python -m benchmarks.suite.child SPEC`` with
``src`` on ``PYTHONPATH``; SPEC is a JSON object with ``workload``,
``seed``, ``n_requests`` and ``trace_path`` (None for an untraced
sample).  The child

1. measures set-up: from before the first ``repro`` import through
   ``build_image`` and ``boot()`` of the workload's configuration;
2. serves a warm-up of :data:`~benchmarks.suite.workloads.WARMUP_REQUESTS`;
3. times one ``run_load`` of N requests (inside a root span when traced),
   open-loop at :func:`arrival_rate`;
4. checks the outputs and prints one JSON object as its last line.

A failed check raises, so the child exits non-zero and prints no result.
"""

import json
import resource
import sys
import time

from benchmarks.suite import spans
from benchmarks.suite.stats import percentile
from benchmarks.suite.workloads import (
    BY_NAME,
    CONNECTIONS,
    CORES,
    HUB_SLO_US,
    HUB_WINDOW_CYCLES,
    WARMUP_REQUESTS,
)


def main(argv):
    spec = json.loads(argv[1])
    started = time.perf_counter()
    from repro.bench.functional import config_for
    from repro.bench.load import LOAD_ISOLATE, run_load
    from repro.core.toolchain.build import build_image
    from repro.core.vm import FlexOSInstance, Machine
    from repro.hw.costs import CostModel
    from repro.kernel.net.device import LinkedDevices

    workload = BY_NAME[spec["workload"]]
    costs = CostModel.xeon_4114()
    FlexOSInstance(
        build_image(config_for(workload.mechanism,
                               LOAD_ISOLATE[workload.app])),
        machine=Machine(costs),
        net_device=None if workload.app == "sqlite"
        else LinkedDevices(costs).a,
        cores=CORES,
    ).boot()
    setup_s = time.perf_counter() - started

    # The timed run's instance, for its exact counters.
    booted = []
    boot = FlexOSInstance.boot

    def capture_boot(instance):
        booted.append(instance)
        return boot(instance)

    FlexOSInstance.boot = capture_boot

    n = spec["n_requests"]
    rate_rps = arrival_rate(workload, n, spec["seed"])

    def load(n_requests, call=run_load):
        hub = _hub() if workload.hub else None
        result = call(workload.app, workload.mechanism,
                      rate_rps=rate_rps, n_requests=n_requests,
                      seed=spec["seed"], cores=CORES,
                      connections=CONNECTIONS, hub=hub)
        return result, hub

    load(WARMUP_REQUESTS)
    recorder = None
    call = run_load
    if spec["trace_path"] is not None:
        recorder = spans.SpanRecorder()
        spans.install(recorder)
        call = recorder.root(run_load)
    start = time.perf_counter()
    result, hub = load(n, call)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    instance = booted[-1]
    _check(workload, n, result, instance, hub)
    sample = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "virtual": _virtual(workload, n, result, instance, hub),
        "per_layer": None,
    }
    if recorder is not None:
        sample["per_layer"] = recorder.summary(n)
        recorder.write_chrome_trace(spec["trace_path"])
    print(json.dumps(sample))
    return 0


def arrival_rate(workload, n, seed):
    """The Poisson rate at which the seed's N arrivals span exactly
    N / ``workload.rate_rps`` virtual seconds (None for a closed loop).

    Gaps drawn at rate r are the gaps drawn at rate 1 divided by r, so
    this rescales the seed's schedule to a fixed span.  The seed then
    moves where arrivals fall, not how many arrive per virtual second
    over the run; the latter changes the polling work per request by
    about 1/sqrt(N), which would make the wall time depend on the seed.
    """
    from repro.bench.load import poisson_offsets_cycles
    from repro.hw.clock import Clock

    if workload.rate_rps is None:
        return None
    clock = Clock()
    span_s = poisson_offsets_cycles(workload.rate_rps, n, seed,
                                    clock)[-1] / clock.freq_hz
    return workload.rate_rps * workload.rate_rps * span_s / n


def _hub():
    from repro.hw.clock import XEON_4114_HZ
    from repro.obs import SloTarget, TelemetryHub

    target = SloTarget("p99-%gus" % HUB_SLO_US,
                       HUB_SLO_US * 1e-6 * XEON_4114_HZ, objective=0.99)
    return TelemetryHub(window_cycles=HUB_WINDOW_CYCLES,
                        slo_targets=(target,))


def _check(workload, n, result, instance, hub):
    """Outputs beyond what ``run_load`` itself checks (it raises on a
    wrong reply byte or a request count that does not add up)."""
    if result.completed != n or len(result.latencies_cycles) != n:
        raise AssertionError("%s completed %d of %d requests"
                             % (workload.name, result.completed, n))
    if workload.app == "sqlite":
        _check_table(instance, n)
    if hub is not None:
        checked = hub.spans.check_all()  # queue + gate + app == latency
        summary = hub.spans.summary()
        if checked != n or summary["claimed"] != n:
            raise AssertionError("hub decomposed %d and claimed %d of %d "
                                 "requests" % (checked, summary["claimed"],
                                               n))


def _check_table(instance, n):
    """Every committed INSERT is durably in the database file, in order,
    and no transaction journal is left behind."""
    from repro.apps.sqlite import PAGE_SIZE, Table

    files = instance.vfs.driver.root.children
    if "db.sqlite-journal" in files:
        raise AssertionError("sqlite left its journal behind")
    data = files["db.sqlite"].data
    table = Table("load", ("k", "v"))
    rows_per_page = PAGE_SIZE // Table.ROW_BYTES
    for row in range(n):
        offset = ((1 + row // rows_per_page) * PAGE_SIZE
                  + (row % rows_per_page) * Table.ROW_BYTES)
        stored = bytes(data[offset:offset + Table.ROW_BYTES])
        if stored != table.encode_row((row, "v%d" % row)):
            raise AssertionError("sqlite row %d reads %r" % (row, stored))


def _virtual(workload, n, result, instance, hub):
    """Virtual-clock results and exact counters: identical on every run
    of a seed, traced or not, unless the cost model changes."""
    metrics = {"virt_rps": result.achieved_rps,
               "virt_n": len(result.latencies_cycles)}
    if workload.rate_rps is not None:
        # From each request's scheduled arrival (open loop).
        for p in (50, 99):
            cycles = percentile(result, p)
            if cycles is not None:
                metrics["virt_p%d_us" % p] = \
                    result.clock.cycles_to_ns(cycles) / 1e3
    busy = sum(core["busy_cycles"] for core in result.core_stats)
    idle = sum(core["idle_cycles"] for core in result.core_stats)
    tlbs = {id(tlb): tlb
            for tlb in [instance.ctx.tlb] + [core.tlb for core in
                                              instance.sched.cores]
            if tlb is not None}
    lookups = sum(tlb.lookups for tlb in tlbs.values())
    memmgr = instance.memmgr
    heaps = [memmgr.heap_of(comp) for comp in memmgr.compartments()]
    if memmgr.has_shared_heap:
        heaps.append(memmgr.shared_heap)
    metrics.update({
        "core.gates.crossings_per_req": instance.gate_crossings() / n,
        "core.image.gated_calls_per_req": instance.router.gated_calls / n,
        "core.image.direct_calls_per_req": instance.router.direct_calls / n,
        "kernel.sched.switches_per_req": result.switches / n,
        "kernel.smp.busy_share": busy / (busy + idle),
        "hw.mmu.checks_per_req": instance.mmu.checks / n,
        "kernel.allocators.allocs_per_req":
            sum(heap.stats.allocs for heap in heaps) / n,
    })
    if lookups:
        metrics["hw.tlb.hit_rate"] = \
            sum(tlb.hits for tlb in tlbs.values()) / lookups
    if hub is not None:
        for part, share in hub.decomposition()["shares"].items():
            metrics["obs.spans.%s_share" % part.split("_")[0]] = share
        metrics["obs.spans.causality_clamps"] = hub.spans.causality_clamps
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv))
