"""Windowed telemetry: the streaming half of the observability layer.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what did the
whole run cost?"; this module answers "what was happening *around cycle
T*?" — the question a tail-latency explorer or an online re-exploration
policy has to ask.  :class:`WindowedTelemetry` buckets the per-request
latency decomposition that span completions write (see
:meth:`~repro.obs.hub.TelemetryHub._on_span_complete`) into fixed-width
virtual-clock windows and keeps a bounded **flight recorder** of the
most recent ones.  Whole-run counters live only in the registry.

Design constraints, in order:

* **Deterministic.**  Windows are keyed by ``floor(ts / window_cycles)``
  on the virtual clock; snapshots sort every key.  Two runs of the same
  seeded workload produce byte-identical snapshots.
* **Warp-tolerant.**  The SMP scheduler moves the shared clock backwards
  between slices (:meth:`~repro.hw.clock.Clock.warp_to`), so samples do
  *not* arrive in timestamp order.  Windows therefore live in a dict
  keyed by index, not an append-only list; a sample for an
  already-evicted window is counted in :attr:`dropped` (deterministic —
  eviction depends only on the sample stream) rather than resurrecting
  the window.
* **Bounded.**  At most ``ring`` windows are retained; the lowest index
  is evicted first, so the recorder always holds the most recent span of
  activity regardless of run length.
* **Free in virtual time.**  Every sample carries its own timestamp
  (the span's completion cycle); this module never reads or charges a
  clock.

See ``docs/observability.md`` ("Windowed telemetry") for the snapshot
schema.
"""

from __future__ import annotations

import math

from repro.errors import ReproError

#: Default window width: 100k cycles ~ 45us at the Xeon 4114's 2.2 GHz,
#: a few requests per window at the load harness's default rates.
DEFAULT_WINDOW_CYCLES = 100_000.0

#: Default flight-recorder depth (windows retained).
DEFAULT_RING = 64


class _Window:
    """One telemetry window: counters plus per-series latency stats."""

    __slots__ = ("index", "counters", "latency")

    def __init__(self, index):
        self.index = index
        self.counters = {}
        self.latency = {}

    def observe(self, name, value):
        stats = self.latency.get(name)
        if stats is None:
            self.latency[name] = [1, value, value, value]
        else:
            stats[0] += 1
            stats[1] += value
            if value < stats[2]:
                stats[2] = value
            if value > stats[3]:
                stats[3] = value

    def to_dict(self):
        return {
            "index": self.index,
            "counters": dict(sorted(self.counters.items())),
            "latency": {
                name: {"count": s[0], "sum": s[1], "min": s[2], "max": s[3],
                       "mean": s[1] / s[0]}
                for name, s in sorted(self.latency.items())
            },
        }


class WindowedTelemetry:
    """Fixed-window counters and latency stats on the virtual clock.

    Args:
        window_cycles: window width in virtual cycles; finite and
            positive.
        ring: flight-recorder depth — windows retained before the oldest
            is evicted.
    """

    def __init__(self, window_cycles=DEFAULT_WINDOW_CYCLES,
                 ring=DEFAULT_RING):
        if not (math.isfinite(window_cycles) and window_cycles > 0):
            raise ReproError(
                "window width must be finite and positive: %r"
                % window_cycles)
        if ring < 1:
            raise ReproError("need at least one window: %r" % ring)
        self.window_cycles = float(window_cycles)
        self.ring = ring
        #: window index -> :class:`_Window`, at most ``ring`` entries.
        self._windows = {}
        #: Lowest index a sample may still land in; anything below has
        #: been evicted and is counted in :attr:`dropped` instead.
        self._floor = 0
        #: Samples that arrived for an already-evicted window.
        self.dropped = 0
        #: Total samples accepted (counter bumps + latency observations).
        self.samples = 0
        #: Windows evicted from the ring so far.
        self.evicted = 0

    # -- ingest ----------------------------------------------------------------
    def window_index(self, ts):
        """The window a virtual timestamp falls in."""
        return int(ts // self.window_cycles)

    def _window_at(self, ts):
        index = self.window_index(ts)
        if index < self._floor:
            self.dropped += 1
            return None
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window(index)
            while len(self._windows) > self.ring:
                evict = min(self._windows)
                del self._windows[evict]
                self.evicted += 1
                self._floor = evict + 1
        return window

    def bump(self, name, value, ts):
        """Add ``value`` to counter ``name`` in the window of ``ts``."""
        window = self._window_at(ts)
        if window is None:
            return
        self.samples += 1
        counters = window.counters
        counters[name] = counters.get(name, 0.0) + value

    def observe(self, name, value, ts):
        """Record one latency observation in the window of ``ts``."""
        window = self._window_at(ts)
        if window is None:
            return
        self.samples += 1
        window.observe(name, value)

    # -- read API ---------------------------------------------------------------
    def windows(self):
        """Retained windows in ascending index order."""
        return [self._windows[i] for i in sorted(self._windows)]

    def snapshot(self):
        """A JSON-serialisable, deterministically ordered snapshot."""
        return {
            "window_cycles": self.window_cycles,
            "ring": self.ring,
            "samples": self.samples,
            "dropped": self.dropped,
            "evicted": self.evicted,
            "windows": [w.to_dict() for w in self.windows()],
        }

    def __repr__(self):
        return "WindowedTelemetry(%d windows, %d samples, %d dropped)" % (
            len(self._windows), self.samples, self.dropped,
        )
