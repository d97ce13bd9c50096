"""Two-phase live migration between isolation layouts.

The engine applies a :class:`~repro.reconfig.plan.ReconfigurationPlan`
to a *running* instance under an explicit state machine::

    PREPARE  — build everything the target layout needs that can be
               built without touching the source layout: fresh
               per-compartment address spaces and a new RPC window for
               an EPT target, the target backend object itself.
    QUIESCE  — drain in-flight gate crossings.  No new work is admitted
               (the migrating thread holds the CPU in the cooperative
               scheduler); the engine spins on ``ctx.gate_depth`` until
               it reaches zero or the drain timeout expires.
    COMMIT   — apply the plan's steps in order: re-key regions through
               :meth:`Region.set_pkey` (cached gate transition masks
               are keyed on the pkeys, so they recompute), move
               allocators, then atomically swap the instance's
               config, compartment identities, gates and execution
               context to the target layout.
    RESUME   — re-admit traffic and record the blackout window.

Atomicity: a :class:`_LayoutSnapshot` of the *entire* mutable layout is
captured before PREPARE.  Any :class:`~repro.errors.ReproError` raised
inside the phases — including :class:`~repro.errors.MigrationFault`
injected at a migration checkpoint — triggers a full restore, so the
instance always ends in exactly the source xor the target layout, never
a hybrid.  :func:`layout_fingerprint` is the structural equality the
tests use to check that invariant.
"""

from __future__ import annotations

from repro.core.backends import get_backend
from repro.errors import MigrationFault, ReconfigError, ReproError
from repro.hw.ept import AddressSpace, SharedWindow
from repro.hw.memory import Perm
from repro.hw.mpk import PKRU
from repro.kernel.allocators import make_allocator
from repro.obs import tracer as obs
from repro.reconfig.plan import ReconfigurationPlan

PHASES = ("PREPARE", "QUIESCE", "COMMIT", "RESUME")

#: Cycles QUIESCE waits for in-flight crossings before giving up.
DEFAULT_DRAIN_TIMEOUT_CYCLES = 500_000.0

#: Size of a fresh ``.ivshmem`` window built for an EPT target.
MIGRATION_WINDOW_SIZE = 1 << 20


def injection_points(plan):
    """How many checkpoints a migration of ``plan`` passes through.

    One per phase entry (prepare, quiesce, commit-finalize, resume)
    plus one per commit step — the domain ``--inject-at`` indexes into.
    """
    return len(plan.steps) + 4


class MigrationReport:
    """What one :meth:`ReconfigurationEngine.migrate` call did."""

    __slots__ = ("outcome", "phase_reached", "fault", "steps_applied",
                 "blackout_cycles", "latency_cycles", "queued_requests",
                 "plan")

    def __init__(self, outcome, phase_reached, plan, fault=None,
                 steps_applied=0, blackout_cycles=0.0, latency_cycles=0.0,
                 queued_requests=0):
        self.outcome = outcome              # "committed" | "rolled-back"
        self.phase_reached = phase_reached
        self.plan = plan
        self.fault = fault
        self.steps_applied = steps_applied
        self.blackout_cycles = blackout_cycles
        self.latency_cycles = latency_cycles
        self.queued_requests = queued_requests

    @property
    def committed(self):
        return self.outcome == "committed"

    def line(self):
        return (
            "%-11s %s -> %s  phase=%-8s steps=%d/%d  "
            "blackout=%.0fcyc latency=%.0fcyc queued=%d%s"
            % (self.outcome, self.plan.source_mechanism,
               self.plan.target_mechanism, self.phase_reached,
               self.steps_applied, len(self.plan.steps),
               self.blackout_cycles, self.latency_cycles,
               self.queued_requests,
               "  fault=%s" % self.fault if self.fault else "")
        )

    def __repr__(self):
        return "MigrationReport(%s)" % self.line()


class _LayoutSnapshot:
    """Everything COMMIT mutates, captured for rollback."""

    __slots__ = ("region_pkeys", "comp_state", "pkru", "address_space",
                 "gates", "config", "backend_name", "backend",
                 "shared_pkey", "shared_window", "heaps", "heap_kinds",
                 "memmgr_shared_pkey")

    @classmethod
    def capture(cls, instance):
        snap = cls()
        snap.region_pkeys = [(r, r.pkey) for r in instance.memory.regions()]
        snap.comp_state = [
            (comp, comp.pkey, tuple(comp.shared_pkeys),
             comp.address_space, comp.spec)
            for comp in instance.image.compartments
        ]
        snap.pkru = instance.ctx.pkru
        snap.address_space = instance.ctx.address_space
        snap.gates = dict(instance.router.gates)
        snap.config = instance.image.config
        snap.backend_name = instance.image.backend_name
        snap.backend = instance.backend
        snap.shared_pkey = instance.shared_pkey
        snap.shared_window = instance.shared_window
        snap.heaps = dict(instance.memmgr._heaps)
        snap.heap_kinds = dict(instance.memmgr._heap_kinds)
        snap.memmgr_shared_pkey = instance.memmgr._shared_pkey
        return snap

    def restore(self, instance):
        for region, pkey in self.region_pkeys:
            if region.pkey != pkey:
                region.set_pkey(pkey)
        for comp, pkey, shared, space, spec in self.comp_state:
            comp.pkey = pkey
            comp.shared_pkeys = shared
            comp.address_space = space
            comp.spec = spec
        instance.ctx.pkru = self.pkru
        instance.ctx.address_space = self.address_space
        instance.router.gates.clear()
        instance.router.gates.update(self.gates)
        instance.image.config = self.config
        instance.image.backend_name = self.backend_name
        instance.backend = self.backend
        instance.shared_pkey = self.shared_pkey
        instance.shared_window = self.shared_window
        instance.memmgr._heaps.clear()
        instance.memmgr._heaps.update(self.heaps)
        instance.memmgr._heap_kinds.clear()
        instance.memmgr._heap_kinds.update(self.heap_kinds)
        instance.memmgr._shared_pkey = self.memmgr_shared_pkey


def layout_fingerprint(instance, abandoned=(), include_regions=True):
    """Structural identity of the live isolation layout.

    Two instances with equal fingerprints enforce the same isolation:
    same mechanism, gate kinds, compartment identities (keys / address
    spaces), heap allocators and execution-context mode.  Regions
    created by an aborted PREPARE (listed by ``id()`` in ``abandoned``)
    are excluded — they are unmapped garbage, reachable by nobody.
    ``include_regions=False`` compares a migrated instance against a
    freshly booted one, whose region *names* differ only by boot-time
    accidents (thread stacks created on demand).
    """
    image = instance.image
    ctx = instance.ctx
    if ctx.pkru is not None:
        ctx_mode = ("pkru", tuple(sorted(ctx.pkru.allowed_keys())))
    elif ctx.address_space is not None:
        ctx_mode = ("space", ctx.address_space.name)
    else:
        ctx_mode = ("flat",)
    fp = {
        "mechanism": image.backend_name,
        "mpk_gate": image.config.mpk_gate,
        "sharing": image.config.sharing,
        "compartments": tuple(
            (comp.name, comp.mechanism, comp.pkey,
             tuple(sorted(comp.shared_pkeys)),
             comp.address_space.name if comp.address_space else None,
             tuple(sorted(h.value for h in comp.hardening)))
            for comp in image.compartments
        ),
        "gates": tuple(sorted(
            (edge, gate.kind) for edge, gate in instance.router.gates.items()
        )),
        "heap_kinds": tuple(sorted(instance.memmgr._heap_kinds.items())),
        "shared_pkey": instance.shared_pkey,
        # Presence, not name: a migrated instance's window is a fresh
        # region (".ivshmem.reconfigN") doing the same job as ".ivshmem".
        "window": instance.shared_window is not None,
        "ctx": ctx_mode,
    }
    if include_regions:
        fp["regions"] = tuple(sorted(
            (r.name, r.pkey) for r in instance.memory.regions()
            if id(r) not in abandoned
        ))
    return fp


class ReconfigurationEngine:
    """Drives PREPARE → QUIESCE → COMMIT → RESUME on one instance."""

    def __init__(self, instance,
                 drain_timeout_cycles=DEFAULT_DRAIN_TIMEOUT_CYCLES):
        self.instance = instance
        self.drain_timeout_cycles = drain_timeout_cycles
        self.reports = []
        #: Callables invoked with every finished MigrationReport
        #: (committed or rolled back) — the autotuner journals through
        #: this instead of polling ``reports``.
        self._report_hooks = []
        #: ``id()`` of regions created by a PREPARE that was rolled
        #: back — physical memory has no free(), so they stay behind,
        #: unmapped and unkeyed to anything reachable.
        self.abandoned_regions = set()

    def add_report_hook(self, hook):
        """Call ``hook(report)`` after every migration attempt."""
        if not callable(hook):
            raise ReconfigError("report hook %r is not callable" % (hook,))
        self._report_hooks.append(hook)

    # -- checkpoints ---------------------------------------------------

    def _checkpoint(self, phase, step=None):
        injector = getattr(self.instance.ctx, "fault_injector", None)
        if injector is not None:
            injector.on_migration_point(phase, step)

    # -- phases --------------------------------------------------------

    def _prepare(self, plan):
        """Build target-side structures without touching the source."""
        instance = self.instance
        ctx = instance.ctx
        backend = get_backend(plan.target_mechanism)
        prepared_regions = []
        if plan.target_mechanism == "intel-mpk":
            # Replay the key allocation the plan pre-assigned so the
            # backend's allocator agrees with the plan's keys.
            for comp in instance.image.compartments:
                if plan.comp_keys[comp.index] != 0:
                    backend.pkeys.allocate(comp.name)
            backend.shared_pkey = backend.pkeys.allocate("shared")
            assert backend.shared_pkey == plan.shared_pkey
        elif plan.needs_spaces:
            # One fresh VM per compartment, every live region mapped
            # exactly as the EPT backend lays them out at boot.
            for comp in instance.image.compartments:
                space = AddressSpace(comp.name)
                ctx.clock.charge(ctx.costs.vm_boot)
                backend.spaces[comp.index] = space
            for region in instance.memory.regions():
                if id(region) in self.abandoned_regions:
                    continue
                if region.compartment is None:
                    for space in backend.spaces.values():
                        space.map(region)
                elif region.compartment in backend.spaces:
                    backend.spaces[region.compartment].map(region)
            window_region = instance.memory.add_region(
                ".ivshmem.reconfig%d" % len(self.reports),
                MIGRATION_WINDOW_SIZE, perm=Perm.RW, pkey=0,
                compartment=None, kind="shared",
            )
            prepared_regions.append(window_region)
            backend.window = SharedWindow(
                window_region, list(backend.spaces.values()),
            )
        return backend, prepared_regions

    def _quiesce(self, drain):
        """Spin until no gate crossing is in flight."""
        ctx = self.instance.ctx
        waited = 0.0
        while ctx.gate_depth > 0:
            if drain is None:
                raise MigrationFault(
                    "quiesce",
                    message="cannot quiesce: %d gate crossing(s) in "
                            "flight and no drain callback" % ctx.gate_depth,
                )
            if waited >= self.drain_timeout_cycles:
                raise MigrationFault(
                    "quiesce",
                    message="drain timeout after %.0f cycles with "
                            "gate_depth=%d" % (waited, ctx.gate_depth),
                )
            ctx.clock.charge(ctx.costs.sched_yield)
            waited += ctx.costs.sched_yield
            drain()

    def _commit(self, plan, backend, tracer):
        """Apply the plan's steps, then swap the layout atomically."""
        instance = self.instance
        ctx = instance.ctx
        image = instance.image
        steps_applied = 0
        for step in plan.steps:
            self._checkpoint("commit", step.target)
            if step.kind == "rekey-region":
                step.region.set_pkey(step.new_pkey)
                ctx.clock.charge(ctx.costs.pkey_mprotect)
            elif step.kind == "allocator-move":
                heap = instance.memmgr._heaps[step.comp_index]
                instance.memmgr._heaps[step.comp_index] = make_allocator(
                    step.allocator, heap.region,
                )
                instance.memmgr._heap_kinds[step.comp_index] = step.allocator
                ctx.clock.charge(ctx.costs.heap_alloc_slow)
            # gate-swap steps are applied in one batch below: gates are
            # consistent only as a full set, never edge by edge.
            steps_applied += 1
            if tracer.enabled:
                tracer.reconfig("step", kind=step.kind, target=step.target)

        self._checkpoint("commit-finalize")
        # The swap proper.  Order matters: build_gates reads the *new*
        # config (mpk_gate flavour) and the *new* compartment identities.
        target = plan.target_config
        image.config = target
        image.backend_name = plan.target_mechanism
        for comp in image.compartments:
            comp.spec = target.compartments[comp.name]
            if plan.target_mechanism == "intel-mpk":
                comp.pkey = plan.comp_keys[comp.index]
                comp.shared_pkeys = (plan.shared_pkey,)
                comp.address_space = None
            elif plan.target_mechanism == "vm-ept":
                if plan.needs_spaces:
                    comp.address_space = backend.spaces[comp.index]
                comp.pkey = None
                comp.shared_pkeys = ()
            else:
                comp.pkey = None
                comp.shared_pkeys = ()
                comp.address_space = None
        if plan.gate_swap:
            new_gates = backend.build_gates(instance)
            instance.router.gates.clear()
            instance.router.gates.update(new_gates)
        if plan.target_mechanism == "intel-mpk":
            default = image.compartments[ctx.compartment]
            ctx.pkru = PKRU(allowed=default.allowed_keys())
            ctx.clock.charge(ctx.costs.wrpkru)
            ctx.address_space = None
            instance.shared_pkey = plan.shared_pkey
            instance.shared_window = None
        elif plan.target_mechanism == "vm-ept":
            ctx.pkru = None
            if plan.needs_spaces:
                ctx.address_space = backend.spaces[ctx.compartment]
                instance.shared_window = backend.window
            instance.shared_pkey = 0
        else:
            ctx.pkru = None
            ctx.address_space = None
            instance.shared_pkey = 0
            instance.shared_window = None
        instance.memmgr._shared_pkey = instance.shared_pkey
        if plan.mechanism_change or plan.gate_swap:
            instance.backend = backend
        return steps_applied

    # -- entry point ---------------------------------------------------

    def plan(self, target):
        """Compute (but do not apply) the migration plan."""
        return ReconfigurationPlan.compute(self.instance, target)

    def migrate(self, target, drain=None):
        """Migrate the live instance to ``target``.

        Returns a :class:`MigrationReport`; never raises for faults
        inside the migration window (those roll back).  Raises
        :class:`~repro.errors.ReconfigError` only when the target is
        not migratable at all.
        """
        instance = self.instance
        ctx = instance.ctx
        tracer = obs.ACTIVE
        plan = ReconfigurationPlan.compute(instance, target)
        if tracer.enabled:
            tracer.reconfig(
                "plan", source=plan.source_mechanism,
                target=plan.target_mechanism, steps=len(plan.steps),
            )
        snapshot = _LayoutSnapshot.capture(instance)
        start = ctx.clock.cycles
        quiesce_start = start
        queued = 0
        phase = "PREPARE"
        steps_applied = 0
        prepared_regions = []
        try:
            self._checkpoint("prepare")
            backend, prepared_regions = self._prepare(plan)
            if tracer.enabled:
                tracer.reconfig("prepare", target=plan.target_mechanism)

            phase = "QUIESCE"
            self._checkpoint("quiesce")
            quiesce_start = ctx.clock.cycles
            queued = len(getattr(instance.net_device, "rx_queue", ()) or ())
            self._quiesce(drain)
            if tracer.enabled:
                tracer.reconfig("quiesce", queued=queued)

            phase = "COMMIT"
            steps_applied = self._commit(plan, backend, tracer)
            if tracer.enabled:
                tracer.reconfig("commit", steps=steps_applied)

            phase = "RESUME"
            self._checkpoint("resume")
            blackout = ctx.clock.cycles - quiesce_start
            if tracer.enabled:
                tracer.reconfig("resume")
                tracer.reconfig_blackout(blackout, queued)
            report = MigrationReport(
                "committed", "RESUME", plan,
                steps_applied=steps_applied,
                blackout_cycles=blackout,
                latency_cycles=ctx.clock.cycles - start,
                queued_requests=queued,
            )
        except ReproError as fault:
            snapshot.restore(instance)
            for region in prepared_regions:
                self.abandoned_regions.add(id(region))
            if tracer.enabled:
                tracer.reconfig(
                    "rollback", phase=phase, fault=type(fault).__name__,
                )
            report = MigrationReport(
                "rolled-back", phase, plan, fault=fault,
                steps_applied=steps_applied,
                blackout_cycles=ctx.clock.cycles - quiesce_start,
                latency_cycles=ctx.clock.cycles - start,
                queued_requests=queued,
            )
        self.reports.append(report)
        for hook in self._report_hooks:
            hook(report)
        return report
