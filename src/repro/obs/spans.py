"""Request spans: per-request latency decomposition on the virtual clock.

The load harness (:mod:`repro.bench.load`) measures a request's latency
as *completion minus scheduled arrival* — the open-loop discipline.  A
:class:`RequestSpan` splits that same interval into the three parts a
tail-latency explorer has to tell apart:

* **queueing** — arrival until the serving thread actually begins the
  request, plus reply delivery after service; the run-queue component is
  additionally broken out via :attr:`~repro.kernel.thread.Thread.ready_at_cycles`
  (:attr:`RequestSpan.dispatch_wait_cycles`);
* **gate** — the exact crossing overhead of every gate taken while
  serving, measured by :meth:`repro.core.gates.Gate.call` as the
  cycles charged entering and leaving each domain (*not* span durations,
  which include callee work);
* **app** — the residual: service time minus gate overhead.

The decomposition identity ``queue + gate + app == latency`` holds by
construction (each term is defined from the same four clock readings),
so the *substantive* invariants :meth:`RequestSpan.check` enforces are
the ones that could actually break: every part is non-negative, the
clock readings are ordered, and gate overhead never exceeds service time
(crossings are counted once, on the serving thread, inside the service
interval).

Span context travels with the request, not the control flow: a
:class:`SpanTracker` *feed* is a FIFO of injected spans keyed by the
serving thread's name (several threads may share one feed — a worker
pool draining a shared queue).  When a serving thread makes its first
entry-point call into the feed's library (hooked in
:meth:`repro.core.image.Router.route`, so it works for direct
same-compartment calls and gated calls alike), the tracker claims the
next span from the feed and pins it to the thread
(:attr:`Thread.span`); the claim therefore survives ``Sleep``/``Block``
reschedules and SMP core migrations in between requests, and the
harness completes the span when the reply is observed.  FIFO claiming is
sound because every transport in the tree delivers requests to a given
serving thread in injection order (per-connection TCP byte streams, the
sqlite worker queue).

When the entry-point call returns, the span *lingers* on the thread for
the rest of the run-to-yield slice: the serve loops send the reply right
after the app call and before yielding, so the reply's transport
crossings (e.g. ``redis -> lwip`` for the RESP bytes) book to the
request that produced the reply, extending its service window.  The
linger window closes at the next scheduler dispatch (any thread — the
slice is over), the thread's next claim, or the span's completion,
whichever the tracker sees first; because it never outlives one slice,
the clock inside it is strictly monotonic even under SMP.  Crossings
made while *polling* for a request that has not arrived yet book to no
span — that isolation tax is visible in the windowed ``gate.*``
counters and surfaces in the span as queueing delay.

SMP and causal order: slices on different virtual cores *overlap* in
virtual time (:mod:`repro.kernel.smp` warps the shared clock to the
earliest core between slices), so a cross-thread handoff can read a
core-local clock that sits behind the upstream event — the reply reaper
may observe a completion "before" the server's send, even though Python
execution order (and hence causality) is correct.  The tracker clamps
the two cross-thread handoffs — claim (``serve_begin >= arrival``) and
completion (``complete >= serve_end``) — to causal order, counts the
clamps (:attr:`SpanTracker.causality_clamps`, :attr:`RequestSpan.clamped`),
and leaves the harness's own raw latency lists untouched.  Under the
serial scheduler the clock is monotonic and no clamp ever fires.

Nothing here charges the clock; see :mod:`repro.obs.tracer` for the
zero-perturbation rules.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ReproError

#: Per-span bound on retained child gate records (a span tree of more
#: crossings keeps counting but stops storing nodes).
MAX_CHILDREN = 512

#: Tolerance for the decomposition identity under float re-association.
_EPS = 1e-6


class RequestSpan:
    """One request's life: arrival, service, completion, decomposition."""

    __slots__ = (
        "span_id", "name", "feed", "arrival_cycles", "serve_begin_cycles",
        "serve_end_cycles", "complete_cycles", "gate_cycles",
        "gate_crossings", "children", "dropped_children", "thread",
        "core", "migrated", "wakeups", "ready_at_cycles", "status",
        "clamped", "_linger",
    )

    def __init__(self, span_id, name, feed, arrival_cycles):
        self.span_id = span_id
        self.name = name
        self.feed = feed
        self.arrival_cycles = arrival_cycles
        self.serve_begin_cycles = None
        self.serve_end_cycles = None
        self.complete_cycles = None
        #: Exact gate crossing overhead charged while serving.
        self.gate_cycles = 0.0
        self.gate_crossings = 0
        #: Child gate records: the span tree the slow sampler retains.
        self.children = []
        self.dropped_children = 0
        self.thread = None              # serving thread name
        self.core = None                # core the service slice ran on
        self.migrated = False           # thread changed cores since its
        #                                 previous claim
        self.wakeups = 0                # serving-thread wake-ups since
        #                                 its previous claim
        self.ready_at_cycles = None     # thread.ready_at_cycles at claim
        self.status = "open"
        #: A cross-thread handoff read a core-local clock behind the
        #: upstream event (SMP slice overlap) and was clamped to causal
        #: order; see the module docstring.
        self.clamped = False
        #: The entry-point call returned but the span still rides the
        #: serving thread: crossings in the remainder of the slice (the
        #: reply's transport work) book here and extend ``serve_end``.
        self._linger = False

    # -- lifecycle (driven by the tracker) --------------------------------------
    def _serve_begin(self, now, thread, core, migrated, wakeups):
        self.serve_begin_cycles = now
        self.thread = thread.name
        self.core = core
        self.migrated = migrated
        self.wakeups = wakeups
        self.ready_at_cycles = thread.ready_at_cycles

    def _serve_end(self, now):
        self.serve_end_cycles = now

    def add_gate(self, label, kind, begin, duration, overhead, depth,
                 status):
        self.gate_crossings += 1
        self.gate_cycles += overhead
        if len(self.children) < MAX_CHILDREN:
            self.children.append({
                "label": label, "kind": kind, "begin": begin,
                "dur": duration, "overhead": overhead, "depth": depth,
                "status": status,
            })
        else:
            self.dropped_children += 1

    # -- the decomposition -------------------------------------------------------
    @property
    def claimed(self):
        return self.serve_begin_cycles is not None

    @property
    def completed(self):
        return self.complete_cycles is not None

    @property
    def latency_cycles(self):
        return self.complete_cycles - self.arrival_cycles

    @property
    def service_cycles(self):
        """Time on the serving thread, entry to return of the app call."""
        if not self.claimed:
            return 0.0
        return self.serve_end_cycles - self.serve_begin_cycles

    @property
    def queue_pre_cycles(self):
        """Arrival until the serving thread begins the request."""
        if not self.claimed:
            return self.latency_cycles
        return self.serve_begin_cycles - self.arrival_cycles

    @property
    def queue_post_cycles(self):
        """Service end until the reply is observed complete."""
        if not self.claimed:
            return 0.0
        return self.complete_cycles - self.serve_end_cycles

    @property
    def queue_cycles(self):
        return self.queue_pre_cycles + self.queue_post_cycles

    @property
    def app_cycles(self):
        """Residual service time once gate overhead is taken out."""
        return self.service_cycles - self.gate_cycles

    @property
    def dispatch_wait_cycles(self):
        """Run-queue wait: the later of arrival and the serving thread's
        last ``ready_at_cycles`` until the service slice began."""
        if not self.claimed:
            return 0.0
        since = max(self.arrival_cycles, self.ready_at_cycles)
        return max(0.0, self.serve_begin_cycles - since)

    def decomposition(self):
        """The three-way split whose parts sum to the measured latency."""
        return {
            "queue_cycles": self.queue_cycles,
            "gate_cycles": self.gate_cycles,
            "app_cycles": self.app_cycles,
            "latency_cycles": self.latency_cycles,
        }

    def check(self):
        """Assert the decomposition invariants; raises on violation."""
        if not self.completed:
            raise ReproError("span %s checked before completion"
                             % self.span_id)
        if self.claimed:
            ordered = (self.arrival_cycles <= self.serve_begin_cycles
                       <= self.serve_end_cycles
                       <= self.complete_cycles + _EPS)
            if not ordered:
                raise ReproError(
                    "span %s clock readings out of order: %r" % (
                        self.span_id,
                        (self.arrival_cycles, self.serve_begin_cycles,
                         self.serve_end_cycles, self.complete_cycles),
                    ))
        parts = (self.queue_pre_cycles, self.queue_post_cycles,
                 self.gate_cycles, self.app_cycles)
        if min(parts) < -_EPS:
            raise ReproError(
                "span %s has a negative part: queue_pre=%r queue_post=%r "
                "gate=%r app=%r" % ((self.span_id,) + parts))
        total = self.queue_cycles + self.gate_cycles + self.app_cycles
        latency = self.latency_cycles
        if abs(total - latency) > _EPS * max(1.0, abs(latency)):
            raise ReproError(
                "span %s decomposition does not sum: %r != %r"
                % (self.span_id, total, latency))
        return True

    def to_dict(self):
        """JSON-serialisable span (the full tree, for slow samples)."""
        payload = {
            "span_id": self.span_id,
            "name": self.name,
            "feed": self.feed,
            "status": self.status,
            "thread": self.thread,
            "core": self.core,
            "migrated": self.migrated,
            "clamped": self.clamped,
            "wakeups": self.wakeups,
            "arrival_cycles": self.arrival_cycles,
            "serve_begin_cycles": self.serve_begin_cycles,
            "serve_end_cycles": self.serve_end_cycles,
            "complete_cycles": self.complete_cycles,
            "dispatch_wait_cycles": self.dispatch_wait_cycles,
            "gate_crossings": self.gate_crossings,
            "dropped_children": self.dropped_children,
            "children": list(self.children),
        }
        payload.update(self.decomposition())
        return payload

    def __repr__(self):
        state = "completed" if self.completed else (
            "claimed" if self.claimed else "pending")
        return "RequestSpan(%s %s %s)" % (self.span_id, self.name, state)


class _Feed:
    """One FIFO of spans awaiting service by a set of threads."""

    __slots__ = ("name", "library", "pending", "inflight")

    def __init__(self, name, library):
        self.name = name
        self.library = library
        self.pending = deque()      # injected, not yet claimed
        self.inflight = deque()     # injected, not yet completed


class SpanTracker:
    """Claims, measures, and completes request spans.

    Wire-up: set :attr:`repro.obs.tracer.Tracer.spans` to a tracker (the
    :class:`~repro.obs.hub.TelemetryHub` does this) and the tracer's
    entry/gate/scheduler hooks drive it; the harness injects spans into
    feeds and completes them as replies are observed.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self._feeds = {}            # feed name -> _Feed
        self._threads = {}          # thread name -> _Feed
        #: Completed spans in completion order.
        self.spans = []
        #: Optional callable(span) fired on completion (the hub's sink).
        self.on_complete = None
        #: Wake-ups per thread name since that thread's last claim.
        self._wakes = {}
        #: Last core each thread name was dispatched on.
        self._thread_cores = {}
        self._current_core = None
        #: The one span (at most) in its post-entry linger window — the
        #: tail of the serving slice after the entry-point returned,
        #: during which reply-transport crossings still book to it.  The
        #: window closes at the next scheduler dispatch (any thread), the
        #: thread's next claim, or the span's completion.
        self._lingering = None
        self._linger_thread = None
        self._next_id = 0
        self.claims = 0
        self.migrations = 0
        self.unclaimed_completions = 0
        #: Cross-thread handoffs whose raw timestamp ran behind the
        #: upstream event under SMP slice overlap (clamped to causal
        #: order; always 0 under the serial scheduler).
        self.causality_clamps = 0

    def bind_clock(self, clock):
        self.clock = clock

    # -- feeds -------------------------------------------------------------------
    def register_feed(self, name, library, threads=None):
        """Create a span feed served by ``threads`` (default: ``name``).

        ``library`` is the claim trigger: the first entry-point call a
        feed thread makes into that library claims the feed's next span.
        """
        if name in self._feeds:
            raise ReproError("span feed %r already registered" % name)
        feed = self._feeds[name] = _Feed(name, library)
        for thread_name in (threads if threads is not None else (name,)):
            if thread_name in self._threads:
                raise ReproError(
                    "thread %r already serves feed %r"
                    % (thread_name, self._threads[thread_name].name))
            self._threads[thread_name] = feed
        return feed

    def inject(self, feed_name, name=None, arrival_cycles=None):
        """Enqueue one request span on a feed; returns the span."""
        feed = self._feeds[feed_name]
        if arrival_cycles is None:
            arrival_cycles = self.clock.cycles if self.clock else 0.0
        self._next_id += 1
        span = RequestSpan(self._next_id,
                           name if name is not None else
                           "%s#%d" % (feed_name, self._next_id),
                           feed_name, arrival_cycles)
        feed.pending.append(span)
        feed.inflight.append(span)
        return span

    # -- tracer hooks ------------------------------------------------------------
    def _unpin(self):
        """Close the linger window: detach the lingering span, if any."""
        span = self._lingering
        if span is None:
            return
        thread = self._linger_thread
        if thread is not None and thread.span is span:
            thread.span = None
        span._linger = False
        self._lingering = None
        self._linger_thread = None

    def on_entry_begin(self, library, ctx):
        """Entry-point call observed; claim a span when it is a feed
        thread's first entry into the trigger library.  Returns a token
        for :meth:`on_entry_end` (None when nothing was claimed)."""
        thread = ctx.current_thread
        if thread is None:
            return None
        feed = self._threads.get(thread.name)
        if feed is None or feed.library != library:
            return None
        span = getattr(thread, "span", None)
        if span is not None:
            if not span._linger:
                return None         # nested entry while actively serving
            # A fresh entry into the trigger library means new work: the
            # previous request's reply window is over.
            self._unpin()
        if not feed.pending:
            return None
        span = feed.pending.popleft()
        now = ctx.clock.cycles
        if now < span.arrival_cycles:
            # The serving core's local clock is behind the injection
            # point (SMP overlap); service cannot causally precede
            # arrival.
            now = span.arrival_cycles
            span.clamped = True
            self.causality_clamps += 1
        core = self._current_core
        previous_core = self._thread_cores.get(thread.name)
        migrated = (core is not None and previous_core is not None
                    and core != previous_core)
        if migrated:
            self.migrations += 1
        self._thread_cores[thread.name] = core
        wakeups = self._wakes.pop(thread.name, 0)
        span._serve_begin(now, thread, core, migrated, wakeups)
        thread.span = span
        self.claims += 1
        return (span, thread)

    def on_entry_end(self, token, ctx):
        """The claimed entry-point call returned.  The span is not
        released yet: it *lingers* on the thread for the rest of the
        slice, so the reply's transport crossings (the ``send`` right
        after the app call, in the same run-to-yield slice) still book
        to the request that produced the reply."""
        span, thread = token
        now = ctx.clock.cycles
        if now < span.serve_begin_cycles:
            # Only reachable when the claim itself was clamped forward
            # (thread-local time is otherwise monotonic).
            now = span.serve_begin_cycles
            span.clamped = True
            self.causality_clamps += 1
        span._serve_end(now)
        span._linger = True
        self._lingering = span
        self._linger_thread = thread

    def on_gate(self, ctx, label, kind, begin, duration, overhead, depth,
                status):
        """A gate crossing finished; book its overhead to the serving
        thread's in-service (or lingering) span, if any."""
        thread = ctx.current_thread
        if thread is None:
            return
        span = getattr(thread, "span", None)
        if span is None or span.completed:
            return
        span.add_gate(label, kind, begin, duration, overhead, depth,
                      status)
        if span._linger:
            # The linger window lives inside one run-to-yield slice,
            # where the clock only advances; extend the service window
            # over the reply's transport work.
            span.serve_end_cycles = max(span.serve_end_cycles,
                                        ctx.clock.cycles)

    def on_thread_dispatch(self, current=None):
        """The scheduler dispatched a slice (any thread): the previous
        slice is over, so the lingering span — if any — detaches."""
        self._unpin()

    def on_thread_wake(self, thread):
        name = thread.name
        if name in self._threads:
            self._wakes[name] = self._wakes.get(name, 0) + 1

    def on_core_dispatch(self, core, thread=None):
        self._current_core = core

    # -- completion --------------------------------------------------------------
    def complete_next(self, feed_name, now=None, status="ok"):
        """Complete the oldest in-flight span of a feed (FIFO transport
        order); returns it."""
        feed = self._feeds[feed_name]
        if not feed.inflight:
            raise ReproError("feed %r has no span in flight" % feed_name)
        return self.complete(feed.inflight.popleft(), now=now,
                             status=status)

    def complete(self, span, now=None, status="ok"):
        """Mark a span complete at ``now`` and hand it to the sink."""
        if now is None:
            now = self.clock.cycles if self.clock else 0.0
        floor = span.serve_end_cycles if span.claimed \
            else span.arrival_cycles
        if now < floor:
            # The observing thread's core-local clock is behind the
            # server's send point (SMP overlap); the reply cannot
            # causally complete before service ended (or, unclaimed,
            # before the request even arrived).
            now = floor
            span.clamped = True
            self.causality_clamps += 1
        if span is self._lingering:
            # Completed from its own serving slice (the sqlite worker
            # observes its own reply): close the linger window.
            self._unpin()
        span.complete_cycles = now
        span.status = status
        if not span.claimed:
            self.unclaimed_completions += 1
        self.spans.append(span)
        if self.on_complete is not None:
            self.on_complete(span)
        return span

    # -- aggregate view ----------------------------------------------------------
    def check_all(self):
        """Run :meth:`RequestSpan.check` on every completed span."""
        for span in self.spans:
            span.check()
        return len(self.spans)

    def summary(self):
        """Aggregate decomposition across completed spans."""
        totals = {"queue_cycles": 0.0, "gate_cycles": 0.0,
                  "app_cycles": 0.0, "latency_cycles": 0.0}
        crossings = 0
        wakeups = 0
        for span in self.spans:
            for key, value in span.decomposition().items():
                totals[key] += value
            crossings += span.gate_crossings
            wakeups += span.wakeups
        return {
            "completed": len(self.spans),
            "claimed": self.claims,
            "unclaimed_completions": self.unclaimed_completions,
            "migrations": self.migrations,
            "causality_clamps": self.causality_clamps,
            "gate_crossings": crossings,
            "wakeups": wakeups,
            "totals": totals,
        }

    def __repr__(self):
        return "SpanTracker(%d feeds, %d completed)" % (
            len(self._feeds), len(self.spans),
        )
