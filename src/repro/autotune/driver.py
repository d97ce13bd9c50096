"""End-to-end closed-loop runs: redis under a shifting load schedule.

:func:`run_autotune_redis` boots a live-migratable two-compartment redis
instance (via :func:`~repro.reconfig.driver.reconfig_config`), offers a
piecewise-Poisson schedule through the open-loop harness, and runs the
:class:`~repro.autotune.loop.AutotuneLoop` as a background thread inside
the same cooperative scheduler — so sampling, ranking and migration all
happen on the virtual clock and the whole run is a deterministic
function of its seed.

Optionally a second background thread injects a burst of contained
allocator faults into the isolated compartment mid-run (the
``fault_burst`` knob), driving the supervisor's HardenPolicy and, through
it, the loop's harden path: the instance climbs the ladder and the
autotune floor rises with it.
"""

from __future__ import annotations

from repro.autotune.loop import AutotuneLoop
from repro.autotune.policy import AutotunePolicy, rung_name
from repro.bench.load import run_load
from repro.errors import ReproError
from repro.faults.campaign import lwip_alloc_probe
from repro.faults.injector import FaultInjector, FaultSpec
from repro.faults.supervisor import make_policy
from repro.hw.clock import XEON_4114_HZ
from repro.kernel.sched import yield_
from repro.obs import SloTarget, TelemetryHub
from repro.reconfig.driver import DEFAULT_ISOLATE, reconfig_config
from repro.reconfig.engine import ReconfigurationEngine

#: Quiet — spike — quiet: the canonical load-shift scenario.
DEFAULT_SCHEDULE = ((9000.0, 48), (26000.0, 96), (9000.0, 48))


class AutotuneRun:
    """One completed closed-loop run and everything it produced."""

    __slots__ = ("result", "hub", "loop", "engine")

    def __init__(self, result, hub, loop, engine):
        self.result = result
        self.hub = hub
        self.loop = loop
        self.engine = engine

    @property
    def journal(self):
        return self.loop.journal

    @property
    def migrations(self):
        return self.loop.migrations

    def final_layout(self):
        image = self.engine.instance.image
        return rung_name(image.backend_name, image.config.mpk_gate)

    def summary(self):
        """Deterministic plain-data dump (cache statistics excluded)."""
        return {
            "load": self.result.summary(),
            "autotune": {
                "steps": self.loop.steps,
                "migrations": self.loop.migrations,
                "final_layout": self.final_layout(),
                "journal": self.journal.to_payload(),
            },
        }

    def __repr__(self):
        return "AutotuneRun(%d steps, %d migrations, final=%s)" % (
            self.loop.steps, self.loop.migrations, self.final_layout())


def run_autotune_redis(mechanism="intel-mpk", mpk_gate="full",
                       schedule=DEFAULT_SCHEDULE, slo_us=3.0,
                       slo_objective=0.99, seed=1, connections=4,
                       window_cycles=100_000.0, every_windows=4,
                       cooldown_windows=8, burn_threshold=1.0,
                       gate_share_threshold=0.6, min_improvement=0.02,
                       fault_burst=None, harden_after=3, cache=None,
                       isolate=DEFAULT_ISOLATE):
    """Serve a redis load schedule with the autotune loop closed over it.

    Args:
        mechanism / mpk_gate: the rung the instance boots on.
        schedule: piecewise ``(rate_rps, n_requests)`` Poisson phases.
        slo_us: p99 latency SLO in virtual microseconds.
        slo_objective: fraction of requests that must meet it.
        fault_burst: ``(at_request, n_faults)`` — inject that many
            contained allocator OOMs into the isolated compartment once
            that many requests completed, or ``None`` for no faults.
        harden_after: supervisor HardenPolicy trip count.
        cache: an :class:`~repro.explore.cache.EvaluationCache` (or
            directory path) shared across decisions; a warm rerun then
            reproduces every ranking without a single fresh evaluation.
        isolate: libraries in the isolated compartment.

    Returns an :class:`AutotuneRun`.
    """
    threshold_cycles = slo_us * XEON_4114_HZ / 1e6
    hub = TelemetryHub(
        window_cycles=window_cycles,
        slo_targets=(SloTarget("p99", threshold_cycles, slo_objective),),
    )
    holder = {}

    def autotune_factory(ctx):
        instance = ctx["instance"]
        engine = ReconfigurationEngine(instance)
        policy = AutotunePolicy(
            burn_threshold=burn_threshold,
            gate_share_threshold=gate_share_threshold,
            min_improvement=min_improvement, isolate=isolate,
            cache=cache,
        )
        harden = None
        if fault_burst is not None:
            harden = make_policy("harden", after=harden_after,
                                 inner="degrade")
            instance.supervisor.set_default_policy(harden)
            holder["injector"] = instance.attach_injector(FaultInjector())
        loop = AutotuneLoop(hub, engine, policy, harden_policy=harden,
                            every_windows=every_windows,
                            cooldown_windows=cooldown_windows)
        holder["loop"] = loop
        holder["engine"] = engine
        return loop.thread_body(ctx)

    background = [("autotune", autotune_factory)]
    if fault_burst is not None:
        at_request, n_faults = fault_burst

        def burst_factory(ctx):
            instance = ctx["instance"]
            served = ctx["served"]
            comp_index = instance.image.compartment_of(isolate[0]).index

            def body():
                while served() < at_request:
                    yield yield_()
                injector = holder["injector"]
                for _ in range(n_faults):
                    # Arm and probe in the same slice: the probe's own
                    # crossing consumes the one-shot fault, so no live
                    # request can ever absorb it.
                    heap = instance.memmgr.heap_of(comp_index)
                    injector.arm(FaultSpec("alloc-oom", dst=comp_index))
                    try:
                        lwip_alloc_probe(heap)
                    except ReproError:
                        pass
                    finally:
                        injector.disarm()
                        heap.fail_next(0)
                    yield yield_()
                return n_faults

            return body

        background.append(("fault-burst", burst_factory))

    result = run_load(
        "redis", mechanism, mpk_gate=mpk_gate, schedule=schedule,
        seed=seed, connections=connections, cores=None, hub=hub,
        config=reconfig_config(mechanism, mpk_gate, isolate=isolate),
        background=background,
    )
    return AutotuneRun(result, hub, holder["loop"], holder["engine"])
