"""The telemetry hub: one read API over the streaming observability.

:class:`TelemetryHub` composes the streaming half of ``repro.obs`` —
windowed request series (:mod:`repro.obs.timeseries`), request spans
(:mod:`repro.obs.spans`), SLO burn rates and slow-request exemplars
(:mod:`repro.obs.slo`) — behind one object the load harness feeds and a
policy loop reads:

* :meth:`tracer` hands out a :class:`~repro.obs.Tracer` whose span
  hooks drive the tracker; install it for the run
  (``run_load(..., hub=hub)`` does this).  The tracer keeps its own
  metrics registry for the whole-run counters; the hub's windows hold
  only what span completions write (see :meth:`_on_span_complete`).
* :meth:`snapshot` is the deterministic, JSON-serialisable state dump —
  rerun-byte-identical for a seeded workload, which ``BENCH_tail.json``
  and the ``tail-smoke`` CI job pin.
* :meth:`evaluator_input` is what the ``live`` explorer evaluator
  (:class:`~repro.explore.evaluators.LiveEvaluator`) and the autotune policy
  loop (:class:`~repro.autotune.loop.AutotuneLoop`) rank layouts by:
  per-window completion/latency/burn series plus the aggregate latency
  decomposition, i.e. *why* the tail is where it is (queueing vs. gate
  crossings vs. app work).

The hub never charges the virtual clock (tracer rules) and binds the
instance clock late (:meth:`bind_clock`), because the clock exists only
after the instance under test boots.  Every windowed sample carries the
completion timestamp stamped on its span, so the windows themselves
need no clock.
"""

from __future__ import annotations

from repro.obs.slo import SloEvaluator, SlowSampler
from repro.obs.spans import SpanTracker
from repro.obs.timeseries import (
    DEFAULT_RING,
    DEFAULT_WINDOW_CYCLES,
    WindowedTelemetry,
)
from repro.obs.tracer import Tracer

#: Snapshot schema version for the hub's own snapshot payloads.
HUB_SCHEMA_VERSION = 1


class TelemetryHub:
    """Windowed telemetry + spans + SLOs behind one read API."""

    def __init__(self, window_cycles=DEFAULT_WINDOW_CYCLES,
                 ring=DEFAULT_RING, slo_targets=(),
                 slow_threshold_cycles=None, sampler_capacity=16,
                 clock=None):
        self.clock = clock
        self.timeseries = WindowedTelemetry(window_cycles=window_cycles,
                                            ring=ring)
        self.spans = SpanTracker(clock=clock)
        self.spans.on_complete = self._on_span_complete
        # SLO windows are the telemetry windows: evaluator_input() reads
        # each evaluator's burn by the hub's window index.
        self.slos = [SloEvaluator(target, window_cycles=window_cycles)
                     for target in slo_targets]
        if slow_threshold_cycles is None and self.slos:
            # Default the exemplar threshold to the tightest SLO: the
            # samples are then exactly the requests burning budget.
            slow_threshold_cycles = min(
                evaluator.target.threshold_cycles
                for evaluator in self.slos
            )
        self.sampler = (
            SlowSampler(slow_threshold_cycles, capacity=sampler_capacity)
            if slow_threshold_cycles is not None else None
        )

    def bind_clock(self, clock):
        """Attach the instance clock (call after boot, before traffic)."""
        self.clock = clock
        self.spans.bind_clock(clock)

    def tracer(self, keep_events=False):
        """A tracer wired into this hub; install it for the run."""
        tracer = Tracer(clock=self.clock, keep_events=keep_events)
        tracer.spans = self.spans
        return tracer

    # -- span sink ---------------------------------------------------------------
    def _on_span_complete(self, span):
        ts = span.complete_cycles
        telemetry = self.timeseries
        telemetry.bump("requests.completed", 1.0, ts=ts)
        telemetry.bump("requests.queue_cycles", span.queue_cycles, ts=ts)
        telemetry.bump("requests.gate_cycles", span.gate_cycles, ts=ts)
        telemetry.bump("requests.gate_crossings",
                       float(span.gate_crossings), ts=ts)
        telemetry.bump("requests.app_cycles", span.app_cycles, ts=ts)
        telemetry.observe("request.latency_cycles", span.latency_cycles,
                          ts=ts)
        for evaluator in self.slos:
            evaluator.record(span)
        if self.sampler is not None:
            self.sampler.offer(span)

    # -- read API ----------------------------------------------------------------
    def decomposition(self):
        """Aggregate latency split with per-part shares of total latency."""
        totals = self.spans.summary()["totals"]
        latency = totals["latency_cycles"]
        shares = {
            part: (totals[part] / latency if latency > 0 else 0.0)
            for part in ("queue_cycles", "gate_cycles", "app_cycles")
        }
        return {"totals": totals, "shares": shares}

    def snapshot(self):
        """Deterministic JSON-serialisable dump of the whole hub."""
        return {
            "schema": HUB_SCHEMA_VERSION,
            "timeseries": self.timeseries.snapshot(),
            "requests": self.spans.summary(),
            "decomposition": self.decomposition(),
            "slo": [evaluator.snapshot() for evaluator in self.slos],
            "slow_samples": (self.sampler.snapshot()
                             if self.sampler is not None else None),
        }

    def evaluator_input(self):
        """The windowed series :class:`~repro.explore.evaluators.LiveEvaluator`
        and :class:`~repro.autotune.loop.AutotuneLoop` rank layouts by.

        One row per retained telemetry window: request count, latency
        stats, the decomposition counters, and each SLO's burn in that
        window — plus run-level aggregates.  Windows exist only where a
        request completed, so every row has ``requests > 0``.
        """
        rows = []
        for window in self.timeseries.windows():
            stats = window.latency.get("request.latency_cycles")
            row = {
                "index": window.index,
                "requests": window.counters.get("requests.completed", 0.0),
                "queue_cycles": window.counters.get(
                    "requests.queue_cycles", 0.0),
                "gate_cycles": window.counters.get(
                    "requests.gate_cycles", 0.0),
                "gate_crossings": window.counters.get(
                    "requests.gate_crossings", 0.0),
                "app_cycles": window.counters.get(
                    "requests.app_cycles", 0.0),
                "latency_max_cycles": stats[3] if stats else 0.0,
                "latency_mean_cycles": (stats[1] / stats[0]
                                        if stats else 0.0),
                "burn": {
                    evaluator.target.name: evaluator.burn_rate(window.index)
                    for evaluator in self.slos
                },
            }
            rows.append(row)
        return {
            "window_cycles": self.timeseries.window_cycles,
            "windows": rows,
            "decomposition": self.decomposition(),
            "slo": {
                evaluator.target.name: {
                    "overall_burn": evaluator.overall_burn,
                    "met": evaluator.met,
                    "target": evaluator.target.to_dict(),
                }
                for evaluator in self.slos
            },
        }

    # -- rendering ---------------------------------------------------------------
    def tail_report(self, headline=None, max_windows=12, max_samples=3):
        """Human-readable tail report (the ``obs tail`` CLI output)."""
        lines = []
        head = ", ".join("%s=%s" % item for item in (headline or {}).items())
        lines.append("== obs tail%s ==" % ((": " + head) if head else ""))
        summary = self.spans.summary()
        decomposition = self.decomposition()
        totals = decomposition["totals"]
        shares = decomposition["shares"]
        lines.append(
            "%d requests completed (%d claimed, %d migrations, "
            "%d wake-ups)" % (
                summary["completed"], summary["claimed"],
                summary["migrations"], summary["wakeups"]))
        lines.append("latency decomposition (totals over all requests):")
        for part in ("queue_cycles", "gate_cycles", "app_cycles"):
            label = part.split("_")[0]
            lines.append("  %-6s %14.0f cycles  %5.1f%%" % (
                label, totals[part], 100.0 * shares[part]))
        lines.append("  %-6s %14.0f cycles" % (
            "total", totals["latency_cycles"]))
        windows = self.timeseries.windows()
        if windows:
            lines.append("")
            lines.append(
                "last %d windows of %d (width %.0f cycles; %d evicted, "
                "%d samples dropped):" % (
                    min(max_windows, len(windows)), len(windows),
                    self.timeseries.window_cycles, self.timeseries.evicted,
                    self.timeseries.dropped))
            lines.append("  %8s %9s %14s %14s" % (
                "window", "requests", "mean lat (cyc)", "max lat (cyc)"))
            for window in windows[-max_windows:]:
                stats = window.latency.get("request.latency_cycles")
                lines.append("  %8d %9.0f %14.0f %14.0f" % (
                    window.index,
                    window.counters.get("requests.completed", 0.0),
                    stats[1] / stats[0] if stats else 0.0,
                    stats[3] if stats else 0.0))
        for evaluator in self.slos:
            snap = evaluator.snapshot()
            worst = evaluator.worst_window()
            lines.append("")
            lines.append(
                "SLO %s: %s (burn %.2f, %d good / %d bad%s)" % (
                    evaluator.target.name,
                    "met" if snap["met"] else "VIOLATED",
                    snap["overall_burn"], snap["good"], snap["bad"],
                    ", worst window %d at burn %.2f" % worst
                    if worst else ""))
        if self.sampler is not None and self.sampler.samples:
            lines.append("")
            lines.append("slowest requests (of %d over threshold):"
                         % self.sampler.admitted)
            for span in self.sampler.samples[:max_samples]:
                decomp = span.decomposition()
                lines.append(
                    "  %-16s lat=%.0f queue=%.0f gate=%.0f app=%.0f "
                    "crossings=%d thread=%s core=%s" % (
                        span.name, decomp["latency_cycles"],
                        decomp["queue_cycles"], decomp["gate_cycles"],
                        decomp["app_cycles"], span.gate_crossings,
                        span.thread, span.core))
        return "\n".join(lines)

    def __repr__(self):
        return "TelemetryHub(%d spans, %d windows, %d slos)" % (
            len(self.spans.spans), len(self.timeseries.windows()),
            len(self.slos),
        )
