"""Windowed telemetry: the streaming half of the observability layer.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what did the
whole run cost?"; this module answers "what was happening *around cycle
T*?" — the question a tail-latency explorer or an online re-exploration
policy has to ask.  :class:`WindowedTelemetry` buckets every counter the
registry sees (plus request latencies) into fixed-width virtual-clock
windows and keeps a bounded **flight recorder** of the most recent ones.

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
* **Cheap per sample.**  The window the last sample resolved to stays
  cached; a sample that falls in it costs one index check and one dict
  add.  Any other sample takes the full lookup, so warps, eviction and
  :attr:`~WindowedTelemetry.dropped` behave exactly as without the cache.
* **Free in virtual time.**  Like the tracer, this module only *reads*
  ``clock.cycles``; it never charges.

See ``docs/observability.md`` ("Windowed telemetry") for the snapshot
schema.
"""

from __future__ import annotations

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
        clock: the :class:`~repro.hw.clock.Clock` samples are stamped
            with.  May be ``None`` at construction and attached later
            with :meth:`bind_clock` (the :class:`~repro.obs.hub.TelemetryHub`
            does this because the instance clock exists only after boot);
            samples taken unbound land in window 0.
        window_cycles: window width in virtual cycles.
        ring: flight-recorder depth — windows retained before the oldest
            is evicted.
    """

    def __init__(self, clock=None, window_cycles=DEFAULT_WINDOW_CYCLES,
                 ring=DEFAULT_RING):
        if window_cycles <= 0:
            raise ReproError(
                "window width must be positive: %r" % window_cycles)
        if ring < 1:
            raise ReproError("need at least one window: %r" % ring)
        self.clock = clock
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
        #: The retained window the last accepted sample resolved to (None
        #: until the first sample).  Only :meth:`_window_at` sets it, and
        #: it evicts nothing but the lowest index, so the cached window is
        #: always still in the ring.
        self._current = None

    def bind_clock(self, clock):
        """Attach the clock samples are stamped with (idempotent)."""
        self.clock = clock

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
        if index >= self._floor:
            # Not the window just evicted (a late sample below every
            # retained index, ring full): that one still takes this
            # sample but must not serve the next.
            self._current = window
        return window

    def bump(self, name, value=1.0, ts=None):
        """Add ``value`` to counter ``name`` in the current window."""
        if ts is None:
            ts = self.clock.cycles if self.clock is not None else 0.0
        window = self._current
        if window is None or ts // self.window_cycles != window.index:
            window = self._window_at(ts)
            if window is None:
                return
        self.samples += 1
        counters = window.counters
        counters[name] = counters.get(name, 0.0) + value

    def observe(self, name, value, ts=None):
        """Record one latency/size observation in the current window."""
        if ts is None:
            ts = self.clock.cycles if self.clock is not None else 0.0
        window = self._current
        if window is None or ts // self.window_cycles != window.index:
            window = self._window_at(ts)
            if window is None:
                return
        self.samples += 1
        window.observe(name, value)

    # -- read API ---------------------------------------------------------------
    def windows(self):
        """Retained windows in ascending index order."""
        return [self._windows[i] for i in sorted(self._windows)]

    def window_series(self, name):
        """``(index, value)`` pairs of one counter across the ring."""
        return [
            (w.index, w.counters[name]) for w in self.windows()
            if name in w.counters
        ]

    def rate_per_window(self, name):
        """Mean of counter ``name`` over the retained windows."""
        series = self.window_series(name)
        if not series:
            return 0.0
        return sum(value for _, value in series) / len(series)

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
