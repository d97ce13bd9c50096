"""Per-compartment fault supervision and recovery policies.

CubicleOS and BULKHEAD both argue that compartmentalization is only
meaningful when paired with fault *handling*: detection alone tells you a
compartment crashed; a supervisor decides what happens next.  FlexOS's
gates give us a natural interposition point — every fault that escapes a
callee compartment unwinds through exactly one gate — so the supervisor
hangs off the execution context and is consulted from
:meth:`repro.core.gates.Gate.call`.

Policies (one per compartment, ``propagate`` by default):

* :class:`PropagatePolicy` — the pre-supervision behaviour: the raw fault
  unwinds to the caller.
* :class:`RetryPolicy` — bounded replay with linear backoff, for
  *transient* faults only (EPT RPC drops, allocator pressure).  A stray
  cross-compartment access is deterministic and is never retried.
* :class:`RestartPolicy` — reinitialise the compartment's heap (and any
  registered state handlers) and replay the call once, the CubicleOS-style
  "reboot the cubicle" recovery.
* :class:`DegradePolicy` — convert the fault into a
  :class:`~repro.errors.DegradedService` so the application answers with
  an app-level error (Redis ``-ERR``, Nginx 503, SQLite aborts the
  transaction) instead of dying.
* :class:`HardenPolicy` — harden-on-fault: handle each fault with an
  inner policy but count them, and after N contained faults queue the
  compartment for live migration to a stricter isolation layout
  (:mod:`repro.reconfig`).
"""

from __future__ import annotations

import random

from repro.errors import (
    AllocationError,
    ConfigError,
    TransientFault,
)
from repro.obs import tracer as obs

#: Cycles the supervisor itself burns classifying one fault (reading the
#: fault record, looking up the policy) — charged on every supervised fault.
SUPERVISOR_DISPATCH_CYCLES = 120.0


class Decision:
    """What the supervisor told the gate to do with one fault."""

    __slots__ = ("action", "wait_cycles", "note")

    def __init__(self, action, wait_cycles=0.0, note=""):
        if action not in ("propagate", "retry", "restart", "degrade"):
            raise ConfigError("unknown supervision action %r" % action)
        self.action = action
        self.wait_cycles = wait_cycles
        self.note = note

    def __repr__(self):
        return "Decision(%s%s)" % (
            self.action, ", wait=%.0f" % self.wait_cycles
            if self.wait_cycles else "",
        )


class SupervisionEvent:
    """One supervised fault, as recorded in the supervisor's log.

    Stamped with the virtual clock (``timestamp``) at decision time and
    the backoff the decision charged (``wait_cycles``): both are
    deterministic per (seed, config), so they are safe in stable text
    and give the scorecard a total sort order.
    """

    __slots__ = ("compartment", "compartment_name", "gate_kind",
                 "fault_type", "action", "attempt", "wait_cycles",
                 "timestamp")

    def __init__(self, compartment, compartment_name, gate_kind, fault_type,
                 action, attempt, wait_cycles=0.0, timestamp=0.0):
        self.compartment = compartment
        self.compartment_name = compartment_name
        self.gate_kind = gate_kind
        self.fault_type = fault_type
        self.action = action
        self.attempt = attempt
        self.wait_cycles = wait_cycles
        self.timestamp = timestamp

    def line(self):
        return ("comp%d(%s) %s via %s gate -> %s "
                "(attempt %d, wait=%.0f) @%.0fcyc") % (
            self.compartment, self.compartment_name, self.fault_type,
            self.gate_kind, self.action, self.attempt, self.wait_cycles,
            self.timestamp,
        )

    def __repr__(self):
        return "SupervisionEvent(%s)" % self.line()


class Policy:
    """Base recovery policy."""

    name = "abstract"

    def decide(self, fault, attempt, supervisor, comp_index):
        raise NotImplementedError

    def __repr__(self):
        return "%s()" % type(self).__name__


class PropagatePolicy(Policy):
    """Today's behaviour: the fault unwinds to the caller untouched."""

    name = "propagate"

    def decide(self, fault, attempt, supervisor, comp_index):
        return Decision("propagate")


class RetryPolicy(Policy):
    """Bounded replay with backoff for transient faults.

    Deterministic faults (a stray access will stray again) propagate
    immediately; only :class:`~repro.errors.TransientFault` and allocator
    OOM are worth replaying.

    ``backoff="linear"`` (the default) waits ``backoff_cycles * (n+1)``
    before attempt ``n+1``.  ``backoff="exp-jitter"`` waits
    ``backoff_cycles * 2**n`` scaled by a uniform [0.5, 1.0) factor
    drawn from a private :class:`random.Random` seeded with ``seed`` —
    retries de-synchronise (the thundering-herd argument) yet the whole
    sequence replays byte-identically for a given seed.
    """

    name = "retry"

    BACKOFFS = ("linear", "exp-jitter")

    def __init__(self, max_retries=3, backoff_cycles=400.0,
                 retry_on=(TransientFault, AllocationError),
                 backoff="linear", seed=0):
        if backoff not in self.BACKOFFS:
            raise ConfigError(
                "unknown backoff %r (have: %s)"
                % (backoff, ", ".join(self.BACKOFFS))
            )
        self.max_retries = max_retries
        self.backoff_cycles = backoff_cycles
        self.retry_on = tuple(retry_on)
        self.backoff = backoff
        self.seed = seed
        self._rng = random.Random(seed)

    def _wait_for(self, attempt):
        if self.backoff == "exp-jitter":
            return (self.backoff_cycles * (2 ** attempt)
                    * (0.5 + 0.5 * self._rng.random()))
        return self.backoff_cycles * (attempt + 1)

    def decide(self, fault, attempt, supervisor, comp_index):
        if attempt < self.max_retries and isinstance(fault, self.retry_on):
            return Decision(
                "retry", wait_cycles=self._wait_for(attempt),
                note="retry %d/%d" % (attempt + 1, self.max_retries),
            )
        return Decision("propagate", note="retries exhausted"
                        if attempt else "not transient")


class RestartPolicy(Policy):
    """Reinitialise the compartment and replay the call.

    The supervisor runs every restart handler registered for the
    compartment (the booted instance registers one that resets the
    compartment's heap; applications may add their own state resets),
    then the gate replays the call.  At most ``max_restarts`` per call.
    """

    name = "restart"

    def __init__(self, max_restarts=1, restart_cycles=5000.0):
        self.max_restarts = max_restarts
        #: Modelled cost of re-running the compartment's constructor.
        self.restart_cycles = restart_cycles

    def decide(self, fault, attempt, supervisor, comp_index):
        if attempt < self.max_restarts:
            supervisor.restart_compartment(comp_index)
            return Decision(
                "restart", wait_cycles=self.restart_cycles,
                note="restart %d/%d" % (attempt + 1, self.max_restarts),
            )
        return Decision("propagate", note="restarts exhausted")


class DegradePolicy(Policy):
    """Convert the fault into an application-visible degraded error."""

    name = "degrade"

    def decide(self, fault, attempt, supervisor, comp_index):
        return Decision("degrade")


class HardenPolicy(Policy):
    """Escalate a compartment to a stricter layout after N faults.

    The one harden-on-fault decider.  Each individual fault is handled
    by the ``inner`` policy (``degrade`` by default, so the application
    keeps serving); this policy merely *counts* contained faults per
    compartment — first attempts only, so one fault retried three times
    counts once — and after ``after`` of them queues the compartment on
    ``self.pending``.  Whoever runs at gate_depth 0 (the reconfiguration
    driver or the autotune loop) drains the queue with
    :meth:`take_pending` and migrates the instance one rung up the
    harden ladder (:func:`repro.reconfig.harden.harden_target`); the
    supervisor never migrates mid-unwind itself, because a migration
    cannot run inside the very gate crossing that faulted.
    """

    name = "harden"

    def __init__(self, after=3, inner="degrade"):
        if after < 1:
            raise ConfigError("harden threshold must be >= 1")
        self.after = after
        self.inner = make_policy(inner) if isinstance(inner, str) else inner
        self.fault_counts = {}       # compartment index -> faults seen
        self.pending = []            # compartment indices due hardening

    def take_pending(self):
        """The queued compartment indices, sorted; empties the queue."""
        pending = sorted(self.pending)
        self.pending.clear()
        return pending

    def decide(self, fault, attempt, supervisor, comp_index):
        if attempt == 0:
            count = self.fault_counts.get(comp_index, 0) + 1
            self.fault_counts[comp_index] = count
            if count == self.after:
                self.pending.append(comp_index)
        decision = self.inner.decide(fault, attempt, supervisor, comp_index)
        if self.fault_counts.get(comp_index, 0) >= self.after:
            decision.note = ("%s; harden pending" % decision.note
                             if decision.note else "harden pending")
        return decision


_POLICY_FACTORIES = {
    "propagate": PropagatePolicy,
    "retry": RetryPolicy,
    "restart": RestartPolicy,
    "degrade": DegradePolicy,
    "harden": HardenPolicy,
}

POLICY_NAMES = tuple(sorted(_POLICY_FACTORIES))


def make_policy(name, **kwargs):
    """Instantiate the policy registered under ``name``."""
    factory = _POLICY_FACTORIES.get(name)
    if factory is None:
        raise ConfigError(
            "unknown recovery policy %r (have: %s)"
            % (name, ", ".join(POLICY_NAMES))
        )
    return factory(**kwargs)


class Supervisor:
    """Routes compartment faults to per-compartment recovery policies.

    Installed on the execution context by
    :meth:`repro.core.vm.FlexOSInstance.boot`; consulted by every gate
    whose callee raised.  Keeps a structured event log so campaigns and
    tests can audit exactly what was detected and how it was handled.
    """

    def __init__(self):
        self.default_policy = PropagatePolicy()
        self._policies = {}          # compartment index -> Policy
        self.events = []             # SupervisionEvent log
        self.restart_handlers = {}   # compartment index -> [callables]
        self.restarts = {}           # compartment index -> count

    # -- configuration --------------------------------------------------------
    def set_policy(self, comp_index, policy, **kwargs):
        """Install ``policy`` (a name or a Policy) for one compartment."""
        if isinstance(policy, str):
            policy = make_policy(policy, **kwargs)
        self._policies[comp_index] = policy
        return policy

    def set_default_policy(self, policy, **kwargs):
        """Install the policy used by compartments without their own."""
        if isinstance(policy, str):
            policy = make_policy(policy, **kwargs)
        self.default_policy = policy
        return policy

    def policy_for(self, comp_index):
        return self._policies.get(comp_index, self.default_policy)

    def add_restart_handler(self, comp_index, handler):
        """Register a callable run when ``comp_index`` is restarted."""
        self.restart_handlers.setdefault(comp_index, []).append(handler)

    # -- the supervision entry point -------------------------------------------
    def on_fault(self, ctx, gate, fault, attempt):
        """Decide what the gate should do with ``fault``; returns Decision."""
        comp = gate.dst
        ctx.clock.charge(SUPERVISOR_DISPATCH_CYCLES)
        decision = self.policy_for(comp.index).decide(
            fault, attempt, self, comp.index,
        )
        if decision.wait_cycles:
            ctx.clock.charge(decision.wait_cycles)
        self.events.append(SupervisionEvent(
            comp.index, comp.name, gate.kind, type(fault).__name__,
            decision.action, attempt,
            wait_cycles=decision.wait_cycles,
            timestamp=ctx.clock.cycles,
        ))
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.supervision(
                comp.name, decision.action, type(fault).__name__, attempt,
                gate_kind=gate.kind, note=decision.note,
            )
        return decision

    def restart_compartment(self, comp_index):
        """Run the compartment's restart handlers (heap + state resets)."""
        for handler in self.restart_handlers.get(comp_index, ()):
            handler()
        self.restarts[comp_index] = self.restarts.get(comp_index, 0) + 1

    # -- introspection ----------------------------------------------------------
    def events_for(self, comp_index):
        return [e for e in self.events if e.compartment == comp_index]

    def events_sorted(self):
        """Events in (compartment, timestamp, attempt) order — the total
        order scorecard rows are rendered in, independent of the
        interleaving the run happened to produce."""
        return sorted(
            self.events,
            key=lambda e: (e.compartment, e.timestamp, e.attempt),
        )

    def __repr__(self):
        return "Supervisor(%d events, policies=%s)" % (
            len(self.events),
            {i: p.name for i, p in sorted(self._policies.items())}
            or self.default_policy.name,
        )
