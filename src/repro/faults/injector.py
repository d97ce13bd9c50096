"""Deterministic, seeded fault injection at gate and subsystem boundaries.

A :class:`FaultPlan` is the reproducible unit: from ``(seed, n_faults,
kinds, targets)`` it pre-generates a fixed schedule of :class:`FaultSpec`
entries, so replaying a campaign with the same seed injects byte-identical
faults in byte-identical order.  The :class:`FaultInjector` executes the
specs: it is installed on the execution context
(:meth:`repro.core.vm.FlexOSInstance.attach_injector`) and consulted by
every gate crossing.

Fault kinds:

* ``stray-read`` / ``stray-write`` — while executing in the callee
  compartment, touch another compartment's private data.  Under MPK the
  callee's PKRU lacks the victim's key; under EPT the victim's pages are
  simply not mapped — both fault, which *is* the containment.  Under the
  ``none`` backend the access silently succeeds: the fault leaked.
* ``corrupt-return`` — Iago-style: the callee's reply is replaced with a
  pointer into the callee's own private memory.  The corruption only
  bites when the caller dereferences it — with the caller's authority —
  so MPK/EPT fault at the dereference, ``none`` leaks the private value.
* ``alloc-oom`` — arms the callee compartment heap's failure hook so its
  next allocation fails (software-detected on every backend).
* ``rpc-drop`` — the crossing's descriptor is lost; a transient
  :class:`~repro.errors.RpcDropFault` the ``retry`` policy can replay.
* ``net-drop`` / ``net-dup`` — lose or duplicate a frame in
  :class:`~repro.kernel.net.device.NetDevice` (executed by campaigns
  against a device pair, not at a gate crossing).
* ``reconfig-abort`` (:data:`MIGRATION_KIND`) — raise a
  :class:`~repro.errors.MigrationFault` at the N-th checkpoint of a live
  reconfiguration (:meth:`FaultInjector.arm_migration`), attacking the
  migration protocol itself.  Deliberately *not* part of
  :data:`FAULT_KINDS`: adding a kind there would reshuffle every
  existing seeded :class:`FaultPlan`.
"""

from __future__ import annotations

import random

from repro.errors import ConfigError, MigrationFault, RpcDropFault
from repro.obs import tracer as obs

#: Every fault kind the engine knows how to inject.
FAULT_KINDS = (
    "stray-read",
    "stray-write",
    "corrupt-return",
    "alloc-oom",
    "rpc-drop",
    "net-drop",
    "net-dup",
)

#: Kinds that model an isolation breach attempt: data of one compartment
#: touched with another compartment's authority.  The containment
#: scorecard's headline number is computed over exactly these.
CROSS_COMPARTMENT_KINDS = frozenset(
    ("stray-read", "stray-write", "corrupt-return")
)

#: Kinds the injector fires at a gate crossing (the rest are injected
#: directly into the subsystem concerned).
GATE_KINDS = frozenset(
    ("stray-read", "stray-write", "corrupt-return", "alloc-oom", "rpc-drop")
)

#: Marker value stray writes plant, so leaks are observable.
TAMPER_VALUE = "#tampered-by-fault-injector#"

#: The migration-window fault kind (kept out of FAULT_KINDS; see module
#: docstring).
MIGRATION_KIND = "reconfig-abort"


class FaultSpec:
    """One scheduled fault: what to inject and into which compartment."""

    __slots__ = ("kind", "dst")

    def __init__(self, kind, dst=None):
        if kind not in FAULT_KINDS:
            raise ConfigError(
                "unknown fault kind %r (have: %s)"
                % (kind, ", ".join(FAULT_KINDS))
            )
        self.kind = kind
        self.dst = dst

    def line(self):
        return "%s@comp%s" % (self.kind, self.dst)

    def __repr__(self):
        return "FaultSpec(%s)" % self.line()


class FaultPlan:
    """A seeded, reproducible schedule of fault injections.

    The schedule is fully determined by the constructor arguments; no
    runtime state feeds back into it, which is what makes campaigns
    replayable: ``FaultPlan(seed, n, kinds, targets)`` always yields the
    same spec sequence.
    """

    def __init__(self, seed, n_faults, kinds=None, targets=(1,)):
        if n_faults < 0:
            raise ConfigError("n_faults must be >= 0")
        kinds = tuple(kinds) if kinds else FAULT_KINDS
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigError("unknown fault kind %r" % kind)
        targets = tuple(targets)
        if not targets:
            raise ConfigError("a fault plan needs at least one target")
        self.seed = seed
        self.n_faults = n_faults
        self.kinds = kinds
        self.targets = targets
        rng = random.Random(seed)
        self.specs = [
            FaultSpec(rng.choice(kinds), dst=rng.choice(targets))
            for _ in range(n_faults)
        ]

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def describe(self):
        """Stable text rendering (used by reproducibility tests)."""
        header = "plan seed=%s faults=%d kinds=%s targets=%s" % (
            self.seed, self.n_faults, ",".join(self.kinds),
            ",".join(str(t) for t in self.targets),
        )
        return "\n".join(
            [header] + ["%03d %s" % (i, spec.line())
                        for i, spec in enumerate(self.specs)]
        )

    def __repr__(self):
        return "FaultPlan(seed=%s, %d faults)" % (self.seed, len(self))


class InjectionEvent:
    """What actually happened when one spec fired."""

    __slots__ = ("kind", "dst", "raised", "leaked", "value", "detail")

    def __init__(self, kind, dst, raised=None, leaked=False, value=None,
                 detail=""):
        self.kind = kind
        self.dst = dst
        self.raised = raised      # exception type name, or None
        self.leaked = leaked      # the access silently succeeded
        self.value = value        # the leaked value, when it did
        self.detail = detail

    def __repr__(self):
        return "InjectionEvent(%s dst=%s raised=%s leaked=%s)" % (
            self.kind, self.dst, self.raised, self.leaked,
        )


class FaultInjector:
    """Executes fault specs at gate crossings and subsystem hooks.

    One-shot injection: :meth:`arm` queues a single spec that fires at
    the next crossing into its target compartment.  Periodic injection:
    :meth:`every` fires a spec each ``interval``-th crossing into the
    target — the shape application-level degrade tests use.

    Campaigns must tell the injector where the victims live:
    ``victims[dst]`` is a private object of *another* compartment for
    stray accesses performed while executing in ``dst``;
    ``return_victims[dst]`` is a private object *of* ``dst`` used as the
    corrupted return value.
    """

    def __init__(self, instance=None):
        self.instance = instance
        self.victims = {}          # dst comp index -> MemoryObject
        self.return_victims = {}   # dst comp index -> MemoryObject
        self.events = []
        self.injected = 0
        self._armed = None
        self._periodic = []        # [interval, spec, crossing counter]
        self._migration = None     # [fire_at index, checkpoint counter]
        self.migration_points = []  # (phase, step) checkpoints seen

    # -- scheduling -----------------------------------------------------------
    def arm(self, spec):
        """Queue ``spec`` to fire at the next crossing into its target."""
        if spec.kind not in GATE_KINDS:
            raise ConfigError(
                "%s faults are injected directly, not armed at gates"
                % spec.kind
            )
        self._armed = spec

    def disarm(self):
        self._armed = None

    def every(self, interval, spec):
        """Fire ``spec`` on every ``interval``-th crossing into its target."""
        if interval < 1:
            raise ConfigError("injection interval must be >= 1")
        if spec.kind not in GATE_KINDS:
            raise ConfigError(
                "%s faults are injected directly, not armed at gates"
                % spec.kind
            )
        self._periodic.append([interval, spec, 0])

    def arm_migration(self, fire_at):
        """Fault the ``fire_at``-th checkpoint of the next migration.

        Checkpoints are numbered across the whole protocol — prepare,
        quiesce, one per commit step, commit-finalize, resume (see
        :func:`repro.reconfig.engine.injection_points`) — so a seeded
        draw over ``range(injection_points(plan))`` attacks every phase.
        """
        if fire_at < 0:
            raise ConfigError("migration checkpoint index must be >= 0")
        self._migration = [int(fire_at), 0]

    def on_migration_point(self, phase, step=None):
        """Checkpoint hook called by the reconfiguration engine."""
        self.migration_points.append((phase, step))
        if self._migration is None:
            return
        fire_at, count = self._migration
        self._migration[1] = count + 1
        if count != fire_at:
            return
        self._migration = None
        self.injected += 1
        self.events.append(InjectionEvent(
            MIGRATION_KIND, None, raised="MigrationFault",
            detail="checkpoint %d: %s%s"
                   % (fire_at, phase, " (%s)" % step if step else ""),
        ))
        self._trace(MIGRATION_KIND, None, phase=phase, step=step)
        raise MigrationFault(phase, step)

    @property
    def last_event(self):
        return self.events[-1] if self.events else None

    def _trace(self, kind, dst, **args):
        """Mirror one injection into the active tracer (if any)."""
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.fault("injected:%s" % kind, dst=dst, **args)

    def _take(self, gate):
        """The spec (if any) that should fire at this crossing."""
        spec = self._armed
        if spec is not None and (spec.dst is None
                                 or spec.dst == gate.dst.index):
            self._armed = None
            return spec
        for entry in self._periodic:
            interval, periodic_spec, count = entry
            if periodic_spec.dst is not None \
                    and periodic_spec.dst != gate.dst.index:
                continue
            entry[2] = count + 1
            if entry[2] % interval == 0:
                return periodic_spec
        return None

    # -- gate hooks -------------------------------------------------------------
    def on_gate_enter(self, gate, ctx):
        """Consulted after the domain switch, before the callee runs."""
        spec = self._take(gate)
        if spec is None or spec.kind == "corrupt-return":
            if spec is not None:
                # corrupt-return fires on the way out; re-arm it.
                self._armed = spec
            return
        if spec.kind in ("stray-read", "stray-write"):
            self._stray_access(spec, gate, ctx)
        elif spec.kind == "alloc-oom":
            self._arm_allocator(spec, gate)
        elif spec.kind == "rpc-drop":
            self._drop_rpc(spec, gate)

    def on_gate_return(self, gate, ctx, value):
        """Consulted on the way out; may replace the return value."""
        spec = self._armed
        if spec is None or spec.kind != "corrupt-return":
            return value
        if spec.dst is not None and spec.dst != gate.dst.index:
            return value
        self._armed = None
        victim = self.return_victims.get(gate.dst.index)
        if victim is None:
            return value
        self.injected += 1
        self.events.append(InjectionEvent(
            spec.kind, gate.dst.index,
            detail="return value replaced by pointer to %r" % victim.symbol,
        ))
        self._trace(spec.kind, gate.dst.index, symbol=victim.symbol)
        return victim

    # -- the individual injections ----------------------------------------------
    def _stray_access(self, spec, gate, ctx):
        victim = self.victims.get(gate.dst.index)
        if victim is None:
            return
        self.injected += 1
        event = InjectionEvent(spec.kind, gate.dst.index,
                               detail="touched %r" % victim.symbol)
        self.events.append(event)
        self._trace(spec.kind, gate.dst.index, symbol=victim.symbol)
        try:
            if spec.kind == "stray-read":
                event.value = victim.read(ctx)
            else:
                victim.write(ctx, TAMPER_VALUE)
                event.value = TAMPER_VALUE
        except Exception as exc:
            event.raised = type(exc).__name__
            raise
        # No fault fired: the backend let the access through.
        event.leaked = True

    def _arm_allocator(self, spec, gate):
        if self.instance is None:
            raise ConfigError(
                "alloc-oom injection needs an attached instance"
            )
        heap = self.instance.memmgr.heap_of(gate.dst.index)
        heap.fail_next(1)
        self.injected += 1
        self.events.append(InjectionEvent(
            spec.kind, gate.dst.index,
            detail="next allocation in %s fails" % heap.region.name,
        ))
        self._trace(spec.kind, gate.dst.index, region=heap.region.name)

    def _drop_rpc(self, spec, gate):
        self.injected += 1
        event = InjectionEvent(spec.kind, gate.dst.index,
                               raised="RpcDropFault",
                               detail="descriptor lost")
        self.events.append(event)
        self._trace(spec.kind, gate.dst.index, gate_kind=gate.kind)
        raise RpcDropFault(gate.kind, gate.dst.name)

    # -- direct (non-gate) injections --------------------------------------------
    def inject_net(self, device, kind):
        """Arm a one-shot frame drop or duplication on ``device``'s RX side."""
        if kind not in ("net-drop", "net-dup"):
            raise ConfigError("not a network fault kind: %r" % kind)
        fired = {"done": False}

        def once(frame_index):
            if fired["done"]:
                return False
            fired["done"] = True
            return True

        if kind == "net-drop":
            device.drop_fn = once
        else:
            device.dup_fn = once
        self.injected += 1
        self.events.append(InjectionEvent(
            kind, None, detail="armed on %s" % device.name,
        ))
        self._trace(kind, None, device=device.name)
        return fired

    def __repr__(self):
        return "FaultInjector(%d injected, %d events)" % (
            self.injected, len(self.events),
        )
