"""Call gates (Section 3.1 / 4.1 / 4.2).

In FlexOS source code, cross-library calls are *abstract* gates; the
toolchain replaces them at build time with an implementation chosen by the
configuration.  Gates implement the System V calling convention from the
perspective of caller and callee, but unlike plain calls they isolate the
register set and (for the full MPK gate) switch call stacks.

Implemented gates:

* :class:`FunctionCallGate` — caller and callee share a compartment; the
  result "is similar to the code prior porting, resulting in zero
  overhead" (Fig. 3).
* :class:`MpkFullGate` — HODOR-style: saves and clears registers, switches
  the PKRU and the per-thread per-compartment stack (7 steps, Section 4.1).
* :class:`MpkLightGate` — ERIM-style: swaps the PKRU before a normal call;
  shares stack and registers ("lesser guarantees ... close to the raw cost
  of wrpkru instructions").
* :class:`EptRpcGate` — places a function pointer and arguments in shared
  memory; the callee VM's RPC server validates the entry point and runs
  the function on a worker thread.
* :class:`CheriGate` — the sketched CHERI backend (Section 4.3): CInvoke
  plus sentry capabilities, register + capability-register clearing.

Every gate records its transitions on the execution context, which is how
the profile-mode crossing counts are validated against functional runs.
"""

from __future__ import annotations

from repro.errors import (
    CompartmentFault,
    DegradedService,
    EntryPointViolation,
    IagoViolation,
    ReproError,
)
from repro.hw.ept import record_space_switch
from repro.hw.memory import AccessType, MemoryObject
from repro.obs import tracer as obs


class Gate:
    """Base gate: a one-way-in, one-way-out domain transition."""

    #: Name used by transformation output and debug dumps.
    kind = "abstract"

    #: Hard ceiling on supervised replays of one call.  Built-in policies
    #: self-cap (RetryPolicy at ``max_retries``, RestartPolicy at
    #: ``max_restarts``), but a custom policy that keeps answering
    #: ``retry``/``restart`` would otherwise spin this loop forever; at
    #: the ceiling the gate converts the decision to ``propagate`` and
    #: lets the raw fault unwind.
    MAX_SUPERVISED_ATTEMPTS = 8

    def __init__(self, src, dst, costs):
        """
        Args:
            src: caller :class:`~repro.core.image.Compartment`.
            dst: callee :class:`~repro.core.image.Compartment`.
            costs: the machine's :class:`~repro.hw.costs.CostModel`.
        """
        self.src = src
        self.dst = dst
        self.costs = costs

    # -- hooks subclasses implement -----------------------------------------
    def _enter(self, ctx):
        """Switch ``ctx`` into the callee domain; returns restore state."""
        raise NotImplementedError

    def _leave(self, ctx, state):
        """Restore ``ctx`` into the caller domain."""
        raise NotImplementedError

    def one_way_cost(self):
        raise NotImplementedError

    # -- the call template ---------------------------------------------------
    def call(self, ctx, library, func, args, kwargs):
        """Perform the cross-compartment call ``func(*args, **kwargs)``.

        Each attempt is one crossing: enter, run, and unwind
        symmetrically.  The unwind is exception-safe at every stage:
        even when :meth:`_enter` itself faults (e.g. the EPT descriptor
        write is rejected), ``gate_depth`` is restored; and a raising
        callee is still charged the return crossing, has the caller's
        PKRU/address space/stack restored, and leaves
        ``ctx.compartment`` untouched — the hardware pops the domain no
        matter how the call ends.

        A fault raised by the callee therefore reaches the
        per-compartment supervisor with the caller's domain already
        restored, exactly as a clean return would leave it.  The
        policy decides: propagate the raw fault, retry or
        restart-and-replay the call, or convert it into a
        :class:`~repro.errors.DegradedService` the application can
        answer gracefully.  Without a supervisor the fault propagates
        unchanged.

        Replays are bounded by :attr:`MAX_SUPERVISED_ATTEMPTS` no matter
        what the policy answers, so a pathological always-retry policy
        cannot wedge the gate: at the ceiling the raw fault propagates
        (and a ``gate-retry-ceiling`` trace event records the override).
        """
        clock = ctx.clock
        attempt = 0
        while True:
            try:
                ctx.record_transition(self.src.index, self.dst.index)
                tracer = obs.ACTIVE
                span = tracer.gate_begin(self, ctx, library) \
                    if tracer.enabled else None
                status = "ok"
                # Pure crossing overhead: the cycles charged entering and
                # leaving the domain (one-way costs, stack creation,
                # descriptor copies), excluding everything the callee
                # itself did.  Measured by clock reads around the
                # unchanged charge sequence, so enabling the measurement
                # perturbs no virtual-time result; request spans book
                # exactly this as the crossing's gate cycles.
                overhead = 0.0
                ctx.gate_depth += 1
                try:
                    one_way = self.one_way_cost()
                    entered_at = clock.cycles
                    clock.charge(one_way)
                    state = self._enter(ctx)
                    overhead += clock.cycles - entered_at
                    previous_comp = ctx.compartment
                    ctx.compartment = self.dst.index
                    try:
                        injector = ctx.fault_injector
                        caller = ctx.current_library
                        ctx.current_library = library
                        try:
                            if injector is not None:
                                injector.on_gate_enter(self, ctx)
                            result = func(*args, **kwargs)
                        finally:
                            ctx.current_library = caller
                        if injector is not None:
                            result = injector.on_gate_return(self, ctx,
                                                             result)
                        return result
                    finally:
                        ctx.compartment = previous_comp
                        left_at = clock.cycles
                        clock.charge(one_way)
                        self._leave(ctx, state)
                        overhead += clock.cycles - left_at
                except ReproError as fault:
                    status = type(fault).__name__
                    raise
                finally:
                    ctx.gate_depth -= 1
                    if span is not None:
                        tracer.gate_end(span, ctx, status=status,
                                        overhead=overhead)
            except CompartmentFault:
                # Already supervised by an inner gate; never re-wrap.
                raise
            except ReproError as fault:
                supervisor = ctx.supervisor
                if supervisor is None:
                    raise
                decision = supervisor.on_fault(ctx, self, fault, attempt)
                if decision.action == "degrade":
                    raise DegradedService(
                        self.dst.index, self.dst.name, self.kind, fault,
                    ) from fault
                if decision.action in ("retry", "restart"):
                    attempt += 1
                    if attempt >= self.MAX_SUPERVISED_ATTEMPTS:
                        tracer = obs.ACTIVE
                        if tracer.enabled:
                            tracer.instant(
                                "gate-retry-ceiling", "supervisor",
                                dst=self.dst.name, kind=self.kind,
                                attempts=attempt,
                                fault=type(fault).__name__,
                                policy_action=decision.action,
                            )
                        raise
                    continue
                raise


class FunctionCallGate(Gate):
    """Same-compartment call: an ordinary System V function call."""

    kind = "function-call"

    def one_way_cost(self):
        return self.costs.function_call / 2.0

    def _enter(self, ctx):
        return None

    def _leave(self, ctx, state):
        pass


class MpkLightGate(Gate):
    """ERIM-style gate: wrpkru swap, shared stack and registers."""

    kind = "mpk-light"

    def __init__(self, src, dst, costs):
        super().__init__(src, dst, costs)
        #: Cached (signature, deny_mask, allow_mask) for this edge.  The
        #: signature captures everything the masks derive from, so a
        #: post-boot ``create_restricted_domain`` (which reassigns the
        #: callee's ``shared_pkeys``) recomputes on the next crossing.
        self._transition_cache = None

    def one_way_cost(self):
        return self.costs.gate_mpk_light

    def _transition_masks(self):
        """The edge's PKRU transition as two key masks, cached."""
        signature = (self.src.pkey, self.dst.pkey, self.dst.shared_pkeys)
        cached = self._transition_cache
        if cached is not None and cached[0] == signature:
            return cached[1], cached[2]
        deny = 0
        for key in self.src.private_keys():
            deny |= 1 << key
        allow = 0
        for key in self.dst.allowed_keys():
            allow |= 1 << key
        self._transition_cache = (signature, deny, allow)
        return deny, allow

    def _enter(self, ctx):
        pkru = ctx.pkru
        if pkru is None:
            return None
        snap = pkru.snapshot()
        deny, allow = self._transition_masks()
        pkru.apply_transition(deny, allow)
        return snap

    def _leave(self, ctx, state):
        if ctx.pkru is not None and state is not None:
            ctx.pkru.restore(state)

class MpkFullGate(MpkLightGate):
    """HODOR-style gate with register isolation and stack switching.

    Upon transition the gate (1) saves the caller's register set,
    (2) clears registers, (3) loads arguments, (4) saves the stack
    pointer, (5) switches thread permissions, (6) switches to the callee's
    per-thread stack from the compartment's stack registry, (7) calls.
    """

    kind = "mpk-full"

    def __init__(self, src, dst, costs, stack_provider=None):
        super().__init__(src, dst, costs)
        #: Callable(thread, compartment) -> stack region; installed by the
        #: backend so stacks are created lazily on first entry.
        self.stack_provider = stack_provider

    def one_way_cost(self):
        return self.costs.gate_mpk_full

    def _enter(self, ctx):
        snap = super()._enter(ctx)
        thread = ctx.current_thread
        if thread is not None and self.stack_provider is not None:
            # The stack-registry lookup the paper describes; creates the
            # compartment-local stack on first use.
            if thread.stack_for(self.dst.index) is None:
                self.stack_provider(thread, self.dst)
        return snap


class EptRpcGate(Gate):
    """Cross-VM RPC over a shared-memory window (Section 4.2).

    The caller writes a function pointer and arguments into a predefined
    shared area; the callee VM busy-waits, validates that the pointer is a
    legal API entry point, services the request on a worker thread from
    its RPC pool, and writes the return value back.
    """

    kind = "ept-rpc"

    #: Size of the modelled RPC descriptor (pointer + packed arguments).
    DESCRIPTOR_BYTES = 64

    def __init__(self, src, dst, costs, window=None, legal_entries=None):
        super().__init__(src, dst, costs)
        self.window = window
        self.legal_entries = legal_entries
        #: Function objects already validated against ``legal_entries``.
        #: Entry-point legality is a property of the function, not the
        #: call, so repeated RPCs to the same entry skip re-validation
        #: (argument Iago checks still run on every call).
        self._entry_cache = set()

    def one_way_cost(self):
        return self.costs.gate_ept

    def call(self, ctx, library, func, args, kwargs):
        """Validate the RPC, then cross as :meth:`Gate.call` does.

        Both checks run before the crossing and its supervision.  The
        RPC server checks the function pointer before executing it: the
        EPT backend's stronger CFI (entry *and* exit control).  Then the
        unmarshalling side checks the arguments.  Section 3.3 assumes
        interfaces "correctly check arguments and are free of confused
        deputy/Iago situations".  For the RPC server that means: pointer
        arguments must reference *shared* memory — a caller handing the
        server a pointer into the server's own private data (hoping the
        server dereferences it with its own authority) is rejected
        before the call runs.
        """
        if func not in self._entry_cache:
            name = getattr(func, "__name__", str(func))
            declared_entry = getattr(func, "__flexos_entry__", False)
            if (self.legal_entries is not None
                    and name not in self.legal_entries
                    and not declared_entry):
                raise EntryPointViolation(name, self.dst.name)
            self._entry_cache.add(func)
        for value in (*args, *kwargs.values()):
            if isinstance(value, MemoryObject) \
                    and value.region.compartment == self.dst.index:
                raise IagoViolation(
                    "RPC %s to %s passed a pointer to the callee's "
                    "private %r (confused-deputy attempt)"
                    % (getattr(func, "__name__", str(func)), self.dst.name,
                       value.symbol)
                )
        return super().call(ctx, library, func, args, kwargs)

    def _enter(self, ctx):
        # Marshal the descriptor into this VM's slice of the window.
        ctx.clock.charge(self.DESCRIPTOR_BYTES * self.costs.memcpy_per_byte)
        if self.window is not None:
            self.window.allocate(self.src.name, self.DESCRIPTOR_BYTES)
            if self.window.region is not None and ctx.mmu is not None:
                ctx.mmu.check(ctx, self.window.region, AccessType.WRITE,
                              symbol="rpc-descriptor")
        state = ctx.address_space
        ctx.address_space = self.dst.address_space
        if obs.ACTIVE.enabled:
            record_space_switch(state, ctx.address_space, "call")
        return state

    def _leave(self, ctx, state):
        # Return value travels back through the shared window.
        ctx.clock.charge(8 * self.costs.memcpy_per_byte)
        if obs.ACTIVE.enabled:
            record_space_switch(ctx.address_space, state, "return")
        ctx.address_space = state

class CheriGate(Gate):
    """Sketch backend: CInvoke + sentry capabilities (Section 4.3)."""

    kind = "cheri"

    def one_way_cost(self):
        return self.costs.gate_one_way("cheri")

    def _enter(self, ctx):
        return None

    def _leave(self, ctx, state):
        pass


GATE_KINDS = {
    cls.kind: cls
    for cls in (FunctionCallGate, MpkLightGate, MpkFullGate, EptRpcGate,
                CheriGate)
}
