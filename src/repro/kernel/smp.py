"""SMP run-to-yield scheduler over virtual cores.

:class:`SmpScheduler` dispatches the same shared run queue as the serial
:class:`~repro.kernel.sched.Scheduler`, but across N :class:`VirtualCore`
instances, each keeping its own position on the virtual timeline.  The
execution model is discrete-event simulation:

* Slices are **run-to-yield**: a thread runs from dispatch until it
  yields a scheduler operation, exactly as under the serial scheduler.
  Within a slice the shared :class:`~repro.hw.clock.Clock` only advances
  (through ``charge``), so every existing cost model and tracer hook
  works unchanged.
* Between slices the scheduler picks the core with the **earliest local
  clock** (ties break to the lowest core index) and *warps* the shared
  clock to that core's position (:meth:`Clock.warp_to` — the single
  sanctioned non-monotonic clock movement in the tree).  Slices on
  different cores therefore overlap in virtual time even though the
  Python execution is serialised.
* A thread never starts before :attr:`Thread.ready_at_cycles` — the
  point on the global timeline at which it became runnable.  A core
  whose local clock is behind that point idles forward to it.
* The run returns with the clock at the **makespan**: the maximum local
  core time.  With one core that equals the serial scheduler's finish
  time exactly.

Differential guarantee (tested in ``tests/test_smp.py``): at N=1 every
warp is a no-op, the dispatch order is the serial round-robin order, and
the entire run — cycles, trace events, fault counters, reply bytes — is
identical to the serial reference scheduler.  The serial scheduler stays
the verified reference (its invariants mirror the paper's Dafny model);
this class only overrides the dispatch loop, inheriting thread
lifecycle, wake-up bookkeeping, hooks, and invariant checks.

Isolation state: the PKRU stays shared.  Run-to-yield slices begin and
end at the base protection state (gates restore PKRU on unwind), so
cores never observe each other's mid-gate register state.
"""

from __future__ import annotations

from repro.errors import SchedulerError
from repro.kernel.sched import Scheduler
from repro.kernel.thread import ThreadState
from repro.obs import tracer as obs


class VirtualCore:
    """One virtual CPU: a position on the timeline plus bookkeeping."""

    __slots__ = ("index", "cycles", "busy_cycles", "idle_cycles",
                 "dispatches", "tlb")

    def __init__(self, index):
        self.index = index
        self.cycles = 0.0
        self.busy_cycles = 0.0
        self.idle_cycles = 0.0
        self.dispatches = 0
        #: Always None: ``benchmarks/suite`` reads it until ROADMAP item 3 drops the read.
        self.tlb = None

    def stats(self):
        return {
            "core": self.index,
            "cycles": self.cycles,
            "busy_cycles": self.busy_cycles,
            "idle_cycles": self.idle_cycles,
            "dispatches": self.dispatches,
        }

    def __repr__(self):
        return "VirtualCore(%d at %.0f, %d dispatches)" % (
            self.index, self.cycles, self.dispatches,
        )


class SmpScheduler(Scheduler):
    """Run-to-yield SMP scheduler; N=1 is trace-identical to serial."""

    def __init__(self, clock, costs, n_cores=1):
        if n_cores < 1:
            raise SchedulerError("need at least one core, got %d" % n_cores)
        super().__init__(clock, costs)
        self.cores = [VirtualCore(i) for i in range(n_cores)]
        self.n_cores = n_cores

    # -- the dispatch loop -------------------------------------------------------
    def run(self, max_switches=1_000_000):
        """Run until every thread exited (or the switch budget is hit).

        On return the shared clock sits at the makespan — the largest
        local core time — which is what latency measurements must read.
        """
        budget = max_switches
        tracer = obs.ACTIVE
        # Cores come online at the point the timeline has reached when
        # the dispatch loop is entered (boot and thread creation charged
        # the shared clock before any core ran); without this, the first
        # slice would warp back into the pre-run() past.  Also makes
        # run() re-entrant: a second call catches the cores up first.
        for core in self.cores:
            if core.cycles < self.clock.cycles:
                core.cycles = self.clock.cycles
        while True:
            core = min(self.cores, key=lambda c: (c.cycles, c.index))
            if core.cycles != self.clock.cycles:
                self.clock.warp_to(core.cycles)
            self._collect_wakeups()
            if not self._run_queue:
                if self._sleepers:
                    # Idle this core forward to the next wake-up, then
                    # rescan: another core may now be the earliest.
                    next_wake = min(
                        t.wake_at_cycles for t in self._sleepers
                    )
                    if next_wake > core.cycles:
                        core.idle_cycles += next_wake - core.cycles
                        core.cycles = next_wake
                    continue
                blocked = [
                    t for t in self.threads
                    if t.state is ThreadState.BLOCKED
                ]
                if blocked:
                    raise SchedulerError(
                        "deadlock: %s blocked forever"
                        % ", ".join(t.name for t in blocked)
                    )
                makespan = max(c.cycles for c in self.cores)
                if makespan != self.clock.cycles:
                    self.clock.warp_to(makespan)
                return
            thread = self._run_queue.popleft()
            if not thread.alive:
                continue
            start = max(core.cycles, thread.ready_at_cycles)
            if start > core.cycles:
                core.idle_cycles += start - core.cycles
                core.cycles = start
                self.clock.warp_to(start)
            if tracer.enabled:
                tracer.core_dispatch(core.index, len(self._run_queue),
                                     thread=thread)
            op = self._dispatch(thread, None)
            self._apply(thread, op)
            end = self.clock.cycles
            core.busy_cycles += end - start
            core.cycles = end
            core.dispatches += 1
            budget -= 1
            if budget <= 0 and any(t.alive for t in self.threads):
                raise SchedulerError("scheduler switch budget exhausted")

    # -- introspection ----------------------------------------------------------
    def core_stats(self):
        """Per-core bookkeeping as a JSON-serialisable list."""
        return [core.stats() for core in self.cores]

    def makespan_cycles(self):
        return max(core.cycles for core in self.cores)

    def __repr__(self):
        return "SmpScheduler(%d cores, %d switches)" % (
            self.n_cores, self.switches,
        )
