"""Profile recording: derive request profiles from functional runs.

The Fig. 6 sweeps use analytic :class:`~repro.apps.base.RequestProfile`
objects.  This module closes the loop: a :class:`ProfileRecorder` watches
a functional run (per-library work charged, gate transitions taken) and
derives a profile from it, so the analytic inputs can be regenerated from
— and checked against — the system actually executing.

Crossing attribution rides on the observability layer: ``recording()``
keeps a :class:`~repro.obs.Tracer` active for the block (reusing one the
caller already installed), and each recorded gate span names the exact
caller and callee micro-library — so a compartment hosting several
profile components (say lwip *and* uksched) attributes each crossing to
the component actually called, not to an arbitrary representative.

Usage::

    recorder = ProfileRecorder(instance)
    with recorder.recording():
        ... serve N requests functionally ...
    profile = recorder.derive_profile("redis-get", n_requests=N)
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from repro.apps.base import RequestProfile
from repro.errors import ReproError
from repro.obs import Tracer, get_tracer, tracing

#: Library -> profile-component mapping (profiles speak in the four
#: Fig. 6 component names plus "app").
LIBRARY_TO_COMPONENT = {
    "lwip": "lwip",
    "newlib": "newlib",
    "uksched": "uksched",
    "vfscore": "filesystem",
    "ramfs": "filesystem",
    "uktime": "uktime",
}


class ProfileRecorder:
    """Derives a :class:`RequestProfile` from functional execution."""

    def __init__(self, instance, app_library=None):
        self.instance = instance
        self.app_library = app_library
        self._work_before = None
        self.work_delta = {}
        #: Gate spans recorded during the block (per-crossing library
        #: attribution for :meth:`component_crossings`).
        self.gate_events = []

    @contextmanager
    def recording(self):
        ctx = self.instance.ctx
        active = get_tracer()
        if active.enabled and active.keep_events:
            # Ride along on the caller's tracer instead of displacing it.
            tracer, scope = active, nullcontext()
            events_before = len(active.events)
        else:
            tracer = Tracer(clock=self.instance.clock)
            scope, events_before = tracing(tracer), 0
        self._work_before = dict(ctx.work_by_library)
        try:
            with scope:
                yield self
        finally:
            self.gate_events = [
                event for event in tracer.events[events_before:]
                if event.cat == "gate"
            ]
            self.work_delta = {
                lib: cycles - self._work_before.get(lib, 0.0)
                for lib, cycles in ctx.work_by_library.items()
                if cycles - self._work_before.get(lib, 0.0) > 0
            }

    def _component_of(self, library):
        if library == self.app_library:
            return "app"
        return LIBRARY_TO_COMPONENT.get(library, "app")

    @staticmethod
    def _check_requests(n_requests):
        if n_requests <= 0:
            raise ReproError(
                "profile derivation needs n_requests > 0, got %r"
                % (n_requests,)
            )

    def component_work(self, n_requests):
        """Per-request work by component, from the recorded run."""
        self._check_requests(n_requests)
        work = {}
        for library, cycles in self.work_delta.items():
            component = self._component_of(library)
            work[component] = work.get(component, 0.0) + cycles / n_requests
        return work

    def component_crossings(self, n_requests):
        """Per-request crossings by component pair.

        Each gate span recorded during the block names the caller and
        callee micro-library, so crossings into a compartment hosting
        several components land on the component actually entered.
        Every gate transition opens such a span, and ``recording()``
        always keeps them, so the spans are the complete crossing record.
        """
        self._check_requests(n_requests)
        crossings = {}
        for event in self.gate_events:
            key = frozenset({
                self._component_of(event.args["src_library"]),
                self._component_of(event.args["library"]),
            })
            if len(key) == 1:
                continue
            crossings[key] = crossings.get(key, 0) + 1.0 / n_requests
        return crossings

    def derive_profile(self, name, n_requests, **kwargs):
        """Build a :class:`RequestProfile` from the recorded run."""
        self._check_requests(n_requests)
        if not self.work_delta:
            raise ReproError("nothing recorded; run inside recording()")
        work = self.component_work(n_requests)
        crossings = {
            tuple(sorted(pair)): count
            for pair, count in self.component_crossings(n_requests).items()
        }
        return RequestProfile(name, work, crossings, **kwargs)

    def communicating_pairs(self):
        """The component pairs that actually exchanged gated calls."""
        return set(self.component_crossings(1))
