"""SLO targets, windowed burn rates, and the slow-request sampler.

An :class:`SloTarget` is the classic latency SLO: "``objective`` of
requests complete within ``threshold_cycles``".  The
:class:`SloEvaluator` scores completed request spans against a target
per telemetry window (same windowing as
:mod:`repro.obs.timeseries`), producing the **burn rate** the SRE
workbook defines: the fraction of the error budget consumed per unit of
traffic.  Burn 1.0 means the budget is being spent exactly as fast as
it accrues; sustained burn above 1.0 means the SLO will be violated.

The :class:`SlowSampler` keeps the *evidence*: the K slowest
above-threshold spans — full span trees, so a p99 exemplar shows which
gates, queueing, and app work made that particular request slow.
Retention is deterministic: ordered by (latency desc, span id asc), so
reruns keep byte-identical samples.

Everything is driven from span completions (the
:class:`~repro.obs.hub.TelemetryHub` wires
:attr:`~repro.obs.spans.SpanTracker.on_complete` to both classes) and
reads only the virtual clock values already stamped on the span.
"""

from __future__ import annotations

import bisect

from repro.errors import ReproError
from repro.obs.timeseries import DEFAULT_WINDOW_CYCLES


class SloTarget:
    """``objective`` of requests within ``threshold_cycles``."""

    __slots__ = ("name", "threshold_cycles", "objective")

    def __init__(self, name, threshold_cycles, objective=0.99):
        if not 0.0 < objective < 1.0:
            raise ReproError(
                "SLO objective must be in (0, 1): %r" % objective)
        if threshold_cycles <= 0:
            raise ReproError(
                "SLO threshold must be positive: %r" % threshold_cycles)
        self.name = name
        self.threshold_cycles = float(threshold_cycles)
        self.objective = objective

    @property
    def error_budget(self):
        """Tolerated fraction of bad requests (1 - objective)."""
        return 1.0 - self.objective

    def to_dict(self):
        return {"name": self.name,
                "threshold_cycles": self.threshold_cycles,
                "objective": self.objective}

    def __repr__(self):
        return "SloTarget(%s <= %.0f cycles for %.3f)" % (
            self.name, self.threshold_cycles, self.objective,
        )


class SloEvaluator:
    """Windowed burn-rate evaluation of one target."""

    def __init__(self, target, window_cycles=DEFAULT_WINDOW_CYCLES):
        self.target = target
        self.window_cycles = float(window_cycles)
        #: window index -> [good, bad].
        self._windows = {}
        self.good = 0
        self.bad = 0

    def record(self, span):
        """Score one completed span (windowed by its completion time)."""
        index = int(span.complete_cycles // self.window_cycles)
        counts = self._windows.setdefault(index, [0, 0])
        if span.latency_cycles <= self.target.threshold_cycles:
            counts[0] += 1
            self.good += 1
        else:
            counts[1] += 1
            self.bad += 1

    @staticmethod
    def _burn(good, bad, budget):
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / budget

    def burn_rate(self, index):
        """Budget-burn rate of one window (0.0 when it saw no traffic)."""
        good, bad = self._windows.get(index, (0, 0))
        return self._burn(good, bad, self.target.error_budget)

    @property
    def overall_burn(self):
        return self._burn(self.good, self.bad, self.target.error_budget)

    @property
    def met(self):
        """Whether the run as a whole met the objective."""
        return self.overall_burn <= 1.0

    def worst_window(self):
        """``(index, burn)`` of the worst *burning* window (None when no
        window burned any budget).

        Ties break to the earliest window, deterministically.
        """
        worst = None
        for index in sorted(self._windows):
            burn = self.burn_rate(index)
            if burn > 0.0 and (worst is None or burn > worst[1]):
                worst = (index, burn)
        return worst

    def snapshot(self):
        windows = [
            {"index": index,
             "good": counts[0],
             "bad": counts[1],
             "burn": self._burn(counts[0], counts[1],
                                self.target.error_budget)}
            for index, counts in sorted(self._windows.items())
        ]
        return {
            "target": self.target.to_dict(),
            "window_cycles": self.window_cycles,
            "good": self.good,
            "bad": self.bad,
            "overall_burn": self.overall_burn,
            "met": self.met,
            "windows": windows,
        }

    def __repr__(self):
        return "SloEvaluator(%s burn=%.2f)" % (
            self.target.name, self.overall_burn,
        )


class SlowSampler:
    """Keeps the K slowest above-threshold spans, deterministically."""

    def __init__(self, threshold_cycles, capacity=16):
        if capacity < 1:
            raise ReproError("sampler capacity must be >= 1")
        self.threshold_cycles = float(threshold_cycles)
        self.capacity = capacity
        #: Ascending (-latency, span_id) keys alongside the spans, so the
        #: slowest request sits first and ties break to the oldest span.
        self._keys = []
        self._spans = []
        self.offered = 0
        self.admitted = 0

    def offer(self, span):
        """Consider one completed span; keep it if slow enough."""
        self.offered += 1
        if span.latency_cycles < self.threshold_cycles:
            return False
        key = (-span.latency_cycles, span.span_id)
        if len(self._spans) >= self.capacity and key >= self._keys[-1]:
            return False
        at = bisect.bisect_left(self._keys, key)
        self._keys.insert(at, key)
        self._spans.insert(at, span)
        if len(self._spans) > self.capacity:
            self._keys.pop()
            self._spans.pop()
        self.admitted += 1
        return True

    @property
    def samples(self):
        """Retained spans, slowest first."""
        return list(self._spans)

    def snapshot(self):
        return {
            "threshold_cycles": self.threshold_cycles,
            "capacity": self.capacity,
            "offered": self.offered,
            "admitted": self.admitted,
            "samples": [span.to_dict() for span in self._spans],
        }

    def __repr__(self):
        return "SlowSampler(%d/%d kept of %d offered)" % (
            len(self._spans), self.capacity, self.offered,
        )
