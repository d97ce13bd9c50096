"""Gate unwind ordering: a raising callee must leave the caller intact.

Satellite of the fault-containment work: for EVERY gate kind, an
exception thrown by the callee unwinds through the gate exactly like a
clean return — PKRU restored, address space restored, ``compartment``
and ``current_library`` back to the caller's, ``gate_depth`` balanced,
and both crossings charged to the clock.  Also covers the once-broken
path where :meth:`Gate._enter` itself faults (the EPT descriptor write
is rejected): ``gate_depth`` must still be restored.  Finally, nested
entry points routed through real gates of a booted image must see their
own ``current_library`` and give the caller's back, on return and on
raise.
"""

import pytest

from repro.core.config import CompartmentSpec
from repro.core.gates import (
    CheriGate,
    EptRpcGate,
    FunctionCallGate,
    MpkFullGate,
    MpkLightGate,
)
from repro.core.image import Compartment
from repro.errors import ProtectionFault, ReproError
from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.hw.cpu import ExecutionContext
from repro.hw.ept import AddressSpace, SharedWindow
from repro.hw.memory import Perm, PhysicalMemory
from repro.hw.mmu import MMU
from repro.hw.mpk import PKRU
from tests.conftest import NESTING_MODES, check_nesting


class CalleeError(ReproError):
    """The fault the misbehaving callee raises."""


def boom():
    raise CalleeError("callee crashed")


def comps():
    src = Compartment(0, CompartmentSpec("comp1", default=True), ["app"])
    dst = Compartment(1, CompartmentSpec("comp2"), ["lwip"])
    src.pkey, dst.pkey = 0, 1
    src.shared_pkeys = dst.shared_pkeys = (15,)
    return src, dst


COSTS = CostModel.xeon_4114()


def make_ctx(pkru=None, address_space=None):
    return ExecutionContext(
        Clock(), COSTS, MMU(PhysicalMemory(), COSTS),
        pkru=pkru, address_space=address_space,
    )


def mpk_ctx():
    return make_ctx(pkru=PKRU(allowed=(0, 15)))


def ept_ctx(src, dst):
    src.address_space = AddressSpace("comp1")
    dst.address_space = AddressSpace("comp2")
    return make_ctx(address_space=src.address_space)


def gate_cases():
    """(label, gate factory, ctx factory) for every gate kind."""
    return [
        ("function-call",
         lambda s, d: FunctionCallGate(s, d, COSTS),
         lambda s, d: make_ctx()),
        ("mpk-light",
         lambda s, d: MpkLightGate(s, d, COSTS),
         lambda s, d: mpk_ctx()),
        ("mpk-full",
         lambda s, d: MpkFullGate(s, d, COSTS),
         lambda s, d: mpk_ctx()),
        ("ept-rpc",
         lambda s, d: EptRpcGate(s, d, COSTS),
         ept_ctx),
        ("cheri",
         lambda s, d: CheriGate(s, d, COSTS),
         lambda s, d: make_ctx()),
    ]


@pytest.mark.parametrize(
    "label,make_gate,make_context",
    gate_cases(), ids=[c[0] for c in gate_cases()],
)
class TestRaisingCalleeUnwind:
    def test_context_restored_exactly(self, label, make_gate,
                                      make_context):
        src, dst = comps()
        ctx = make_context(src, dst)
        gate = make_gate(src, dst)
        pkru_before = ctx.pkru.snapshot() if ctx.pkru is not None else None
        space_before = ctx.address_space
        comp_before = ctx.compartment
        boom.__flexos_entry__ = True  # satisfy the EPT CFI check
        try:
            with pytest.raises(CalleeError):
                gate.call(ctx, "lwip", boom, (), {})
        finally:
            del boom.__flexos_entry__
        assert ctx.compartment == comp_before
        assert ctx.gate_depth == 0
        assert ctx.current_library is None
        assert ctx.address_space is space_before
        if ctx.pkru is not None:
            assert ctx.pkru.snapshot() == pkru_before

    def test_both_crossings_charged(self, label, make_gate, make_context):
        src, dst = comps()
        ctx = make_context(src, dst)
        gate = make_gate(src, dst)
        before = ctx.clock.cycles
        boom.__flexos_entry__ = True
        try:
            with pytest.raises(CalleeError):
                gate.call(ctx, "lwip", boom, (), {})
        finally:
            del boom.__flexos_entry__
        # The hardware pops the domain on the way out no matter how the
        # call ended: entry AND exit crossings are both paid.
        assert ctx.clock.cycles - before >= 2 * gate.one_way_cost()

    def test_reentrant_after_fault(self, label, make_gate, make_context):
        src, dst = comps()
        ctx = make_context(src, dst)
        gate = make_gate(src, dst)
        boom.__flexos_entry__ = True
        try:
            with pytest.raises(CalleeError):
                gate.call(ctx, "lwip", boom, (), {})
        finally:
            del boom.__flexos_entry__

        def ok():
            return 42

        ok.__flexos_entry__ = True
        assert gate.call(ctx, "lwip", ok, (), {}) == 42


class TestEnterFaultUnwind:
    def test_rejected_descriptor_write_restores_gate_depth(self):
        """When _enter itself faults (the caller's VM cannot write the
        RPC window), the gate must not leak gate_depth or switch the
        address space."""
        src, dst = comps()
        memory = PhysicalMemory()
        window_region = memory.add_region(".rpc.window", 1 << 16,
                                          perm=Perm.RW)
        # The window is mapped in two *other* VMs; the calling context's
        # address space does not map it, so the descriptor write faults.
        window = SharedWindow(window_region,
                              [AddressSpace("comp1"),
                               AddressSpace("comp2")])
        ctx = make_ctx(address_space=AddressSpace("rogue"))
        dst.address_space = AddressSpace("comp2-vm")
        gate = EptRpcGate(src, dst, COSTS, window=window)

        def never_runs():
            raise AssertionError("callee must not execute")

        never_runs.__flexos_entry__ = True
        space_before = ctx.address_space
        with pytest.raises(ProtectionFault) as exc:
            gate.call(ctx, "lwip", never_runs, (), {})
        assert exc.value.symbol == "rpc-descriptor"
        assert ctx.gate_depth == 0
        assert ctx.compartment == 0
        assert ctx.address_space is space_before

    def test_fault_context_snapshot_attached(self):
        """The MMU stamps every ProtectionFault with a FaultContext
        showing where the machine was (satellite of the crash-report
        work)."""
        src, dst = comps()
        ctx = mpk_ctx()
        memory = PhysicalMemory()
        secret = memory.add_region(".data.comp2", 4096, perm=Perm.RW,
                                   pkey=7, compartment=1)
        gate = MpkFullGate(src, dst, COSTS)

        def stray():
            from repro.hw.memory import AccessType

            ctx.mmu.check(ctx, secret, AccessType.READ, symbol="secret")

        with pytest.raises(ProtectionFault) as exc:
            gate.call(ctx, "lwip", stray, (), {})
        fault_ctx = exc.value.context
        assert fault_ctx is not None
        assert fault_ctx.gate_depth == 1          # inside one gate
        assert fault_ctx.compartment == 1         # executing in the callee
        assert fault_ctx.library == "lwip"
        assert fault_ctx.pkru_keys == (1, 15)     # callee's keys only
        assert "gate depth:    1" in fault_ctx.describe()


# -- nested crossings ---------------------------------------------------------

def nested_comps():
    """Three compartments for an app -> lwip -> libsodium call chain."""
    a = Compartment(0, CompartmentSpec("comp1", default=True), ["app"])
    b = Compartment(1, CompartmentSpec("comp2"), ["lwip"])
    c = Compartment(2, CompartmentSpec("comp3"), ["libsodium"])
    a.pkey, b.pkey, c.pkey = 0, 1, 2
    a.shared_pkeys = b.shared_pkeys = c.shared_pkeys = (15,)
    return a, b, c


NESTED_CASES = [
    ("function-call", FunctionCallGate, "flat"),
    ("mpk-light", MpkLightGate, "pkru"),
    ("mpk-full", MpkFullGate, "pkru"),
    ("ept-rpc", EptRpcGate, "space"),
    ("cheri", CheriGate, "flat"),
]


@pytest.mark.parametrize(
    "label,gate_cls,mode", NESTED_CASES, ids=[c[0] for c in NESTED_CASES],
)
class TestNestedCrossingUnwind:
    """A fault two gates deep must unwind BOTH levels correctly."""

    def _chain(self, gate_cls, mode):
        a, b, c = nested_comps()
        if mode == "pkru":
            ctx = make_ctx(pkru=PKRU(allowed=(0, 15)))
        elif mode == "space":
            a.address_space = AddressSpace("comp1")
            b.address_space = AddressSpace("comp2")
            c.address_space = AddressSpace("comp3")
            ctx = make_ctx(address_space=a.address_space)
        else:
            ctx = make_ctx()
        return ctx, gate_cls(a, b, COSTS), gate_cls(b, c, COSTS)

    def test_fault_unwinds_both_levels(self, label, gate_cls, mode):
        ctx, outer, inner = self._chain(gate_cls, mode)
        boom.__flexos_entry__ = True

        def middle():
            return inner.call(ctx, "libsodium", boom, (), {})

        middle.__flexos_entry__ = True
        pkru_before = ctx.pkru.snapshot() if ctx.pkru is not None else None
        space_before = ctx.address_space
        try:
            with pytest.raises(CalleeError):
                outer.call(ctx, "lwip", middle, (), {})
        finally:
            del boom.__flexos_entry__
        assert ctx.gate_depth == 0
        assert ctx.compartment == 0
        assert ctx.current_library is None
        assert ctx.address_space is space_before
        if ctx.pkru is not None:
            assert ctx.pkru.snapshot() == pkru_before

    def test_inner_fault_leaves_midlevel_intact(self, label, gate_cls,
                                                mode):
        """The outer callee catches the inner fault: it must find
        itself exactly where it was before the inner call."""
        ctx, outer, inner = self._chain(gate_cls, mode)
        boom.__flexos_entry__ = True
        observed = []

        def middle():
            with pytest.raises(CalleeError):
                inner.call(ctx, "libsodium", boom, (), {})
            observed.append(
                (ctx.compartment, ctx.gate_depth, ctx.current_library),
            )
            return "survived"

        middle.__flexos_entry__ = True
        try:
            assert outer.call(ctx, "lwip", middle, (), {}) == "survived"
        finally:
            del boom.__flexos_entry__
        assert observed == [(1, 1, "lwip")]
        assert ctx.gate_depth == 0

    def test_all_four_crossings_charged(self, label, gate_cls, mode):
        ctx, outer, inner = self._chain(gate_cls, mode)
        boom.__flexos_entry__ = True

        def middle():
            return inner.call(ctx, "libsodium", boom, (), {})

        middle.__flexos_entry__ = True
        before = ctx.clock.cycles
        try:
            with pytest.raises(CalleeError):
                outer.call(ctx, "lwip", middle, (), {})
        finally:
            del boom.__flexos_entry__
        # Entry AND exit are paid at both nesting levels.
        assert ctx.clock.cycles - before >= (
            2 * outer.one_way_cost() + 2 * inner.one_way_cost()
        )


@pytest.mark.parametrize("mode", NESTING_MODES)
def test_routed_gates_restore_current_library(mpk_instance, mode):
    """app -> lwip crosses into comp2, lwip -> vfscore crosses back:
    both levels are gated, and each restores its caller's library."""
    router = mpk_instance.router
    with mpk_instance.run():
        check_nesting(mpk_instance.ctx, "lwip", "vfscore", mode)
        assert mpk_instance.ctx.gate_depth == 0
        assert mpk_instance.ctx.compartment == 0
    assert (router.direct_calls, router.gated_calls) == (0, 2)
