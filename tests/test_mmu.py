"""MMU check tests: protection-state changes and a reference differential.

``MMU.check`` tests page permissions, the address-space mapping and the
PKRU key with plain integer bits.  The differential at the bottom replays
random traces against a reference checker that derives every verdict the
slow, obvious way (``Perm`` flag arithmetic and ``PKRU.can_read`` /
``can_write``) and demands identical faults, cycles and check counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CompartmentSpec
from repro.core.gates import MpkLightGate
from repro.core.image import Compartment
from repro.errors import ConfigError, ProtectionFault
from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.hw.cpu import ExecutionContext
from repro.hw.ept import AddressSpace
from repro.hw.memory import (
    AccessType,
    ByteBuffer,
    MemoryObject,
    Perm,
    PhysicalMemory,
)
from repro.hw.mmu import MMU
from repro.hw.mpk import PKRU
from repro.obs import Tracer, tracing


def make_world(mmu_class=MMU, space=None):
    """A minimal MPK world: two regions (pkey 1 ours, pkey 2 foreign)."""
    costs = CostModel.xeon_4114()
    memory = PhysicalMemory()
    mmu = mmu_class(memory, costs)
    ctx = ExecutionContext(Clock(), costs, mmu, compartment=0,
                           pkru=PKRU(allowed=(0, 1)), address_space=space)
    ours = memory.add_region(".data.ours", 4096, pkey=1, compartment=1)
    theirs = memory.add_region(".data.theirs", 4096, pkey=2, compartment=2)
    return ctx, ours, theirs


def gate_between(ctx, shared=()):
    """An MPK gate from our compartment (key 1) to a callee on key 2."""
    src = Compartment(0, CompartmentSpec("comp1", default=True), ["a"])
    dst = Compartment(1, CompartmentSpec("comp2"), ["lwip"])
    src.pkey, dst.pkey = 1, 2
    src.shared_pkeys = dst.shared_pkeys = shared
    return MpkLightGate(src, dst, ctx.costs)


class TestChecks:
    def test_every_call_counts(self):
        ctx, ours, theirs = make_world()
        obj = MemoryObject("cell", ours, value=1)
        for _ in range(5):
            assert obj.read(ctx) == 1
        with pytest.raises(ProtectionFault):
            MemoryObject("secret", theirs).read(ctx)
        ctx.mmu.enforcing = False
        obj.read(ctx)
        assert ctx.mmu.checks == 7

    def test_access_types_checked_separately(self):
        ctx, _, _ = make_world()
        memory = ctx.mmu.memory
        rodata = memory.add_region(".rodata", 4096, perm=Perm.R, pkey=1)
        text = memory.add_region(".text", 4096, perm=Perm.RX, pkey=1)
        ctx.mmu.check(ctx, rodata, AccessType.READ)
        ctx.mmu.check(ctx, text, AccessType.EXEC)
        for region, access in ((rodata, AccessType.WRITE),
                               (rodata, AccessType.EXEC),
                               (text, AccessType.WRITE)):
            with pytest.raises(ProtectionFault) as info:
                ctx.mmu.check(ctx, region, access)
            assert info.value.access == access.value

    def test_denials_fault_with_fresh_context(self):
        ctx, _, theirs = make_world()
        obj = MemoryObject("secret", theirs, library="lwip")
        contexts = []
        for depth in range(3):
            ctx.gate_depth = depth
            ctx.clock.charge(10)
            with pytest.raises(ProtectionFault) as info:
                obj.read(ctx)
            fault = info.value
            assert (fault.symbol, fault.accessor, fault.owner) == \
                ("secret", 0, 2)
            assert fault.owner_library == "lwip"
            contexts.append(fault.context)
        assert [c.gate_depth for c in contexts] == [0, 1, 2]
        assert [c.cycles for c in contexts] == [10, 20, 30]
        assert len({id(c) for c in contexts}) == 3

    def test_pkey_out_of_range_is_a_config_error(self):
        ctx, ours, _ = make_world()
        ours.set_pkey(16)
        with pytest.raises(ConfigError):
            ctx.mmu.check(ctx, ours, AccessType.READ)


class TestProtectionStateChanges:
    def test_set_pkey_changes_verdict(self):
        ctx, ours, _ = make_world()
        obj = MemoryObject("cell", ours)
        obj.read(ctx)
        ours.set_pkey(2)  # re-stamp to a key this PKRU denies
        with pytest.raises(ProtectionFault):
            obj.read(ctx)
        ours.set_pkey(1)
        obj.read(ctx)

    def test_enforcing_off_then_on_faults_again(self):
        ctx, _, theirs = make_world()
        obj = MemoryObject("secret", theirs)
        ctx.mmu.enforcing = False
        obj.read(ctx)  # the bypass lets it through
        ctx.mmu.enforcing = True
        with pytest.raises(ProtectionFault):
            obj.read(ctx)

    def test_reenabled_after_allowed_access_still_faults(self):
        # The fault-injection pattern: allow, break the hardware, fix it,
        # re-stamp — the re-stamped key decides.
        ctx, ours, _ = make_world()
        obj = MemoryObject("cell", ours)
        obj.read(ctx)
        ctx.mmu.enforcing = False
        ctx.mmu.enforcing = True
        ours.set_pkey(2)
        with pytest.raises(ProtectionFault):
            obj.read(ctx)

    def test_gate_roundtrip_restores_caller_verdict(self):
        ctx, ours, _ = make_world()
        obj = MemoryObject("cell", ours)
        obj.read(ctx)
        gate = gate_between(ctx)

        def inside():
            # The caller's private key is denied in the callee's domain.
            with pytest.raises(ProtectionFault):
                obj.read(ctx)

        gate.call(ctx, "lwip", inside, (), {})
        obj.read(ctx)  # the restored PKRU allows it again

    def test_address_space_map_unmap_changes_verdict(self):
        costs = CostModel.xeon_4114()
        memory = PhysicalMemory()
        mmu = MMU(memory, costs)
        space = AddressSpace("vm0")
        ctx = ExecutionContext(Clock(), costs, mmu, compartment=0,
                               address_space=space)
        region = memory.add_region(".data.vm0", 4096, compartment=0)
        with pytest.raises(ProtectionFault):
            ctx.mmu.check(ctx, region, AccessType.READ)
        space.map(region)
        ctx.mmu.check(ctx, region, AccessType.READ)
        space.unmap(region)
        with pytest.raises(ProtectionFault):
            ctx.mmu.check(ctx, region, AccessType.READ)

    def test_distinct_address_spaces_do_not_alias(self):
        costs = CostModel.xeon_4114()
        memory = PhysicalMemory()
        mmu = MMU(memory, costs)
        a, b = AddressSpace("vma"), AddressSpace("vmb")
        region = memory.add_region(".data.shared", 4096)
        a.map(region)
        ctx = ExecutionContext(Clock(), costs, mmu, compartment=0,
                               address_space=a)
        ctx.mmu.check(ctx, region, AccessType.READ)
        ctx.address_space = b  # EPT gate swaps the space wholesale
        with pytest.raises(ProtectionFault):
            ctx.mmu.check(ctx, region, AccessType.READ)


class TestObservability:
    def test_traced_checks_leave_no_tlb_counters(self):
        ctx, ours, _ = make_world()
        obj = MemoryObject("cell", ours)
        with tracing(Tracer(clock=ctx.clock)) as tracer:
            obj.read(ctx)
            ours.set_pkey(1)
            obj.read(ctx)
        assert "tlb" not in tracer.metrics.snapshot()["counters"]


# -- differential property: MMU.check == the reference checker --------------

_NEEDED_PERM = {
    AccessType.READ: Perm.R,
    AccessType.WRITE: Perm.W,
    AccessType.EXEC: Perm.X,
}


class ReferenceMMU(MMU):
    """Derives each verdict from ``Perm`` flags and ``PKRU.can_*``."""

    def check(self, ctx, region, access, symbol=None, owner_library=None):
        self.checks += 1
        if not self.enforcing:
            return
        allowed = bool(region.perm & _NEEDED_PERM[access])
        if allowed and ctx.address_space is not None:
            allowed = ctx.address_space.is_mapped(region)
        if allowed and ctx.pkru is not None:
            allowed = (ctx.pkru.can_write(region.pkey)
                       if access is AccessType.WRITE
                       else ctx.pkru.can_read(region.pkey))
        if not allowed:
            raise ProtectionFault(
                symbol or region.name, ctx.compartment, region.compartment,
                access=access.value, library=ctx.current_library,
                owner_library=owner_library,
            )


#: One random step of the trace: (op, region index, argument).
_OPS = st.tuples(
    st.sampled_from([
        "read", "write", "exec", "buffer_read", "gate_roundtrip",
        "restamp", "write_protect", "enforce_off", "enforce_on",
        "map", "unmap",
    ]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


def _replay(ops, mmu_class, ept):
    """Run one trace; returns (fault log, cycles, checks).

    With ``ept`` the context also runs in an address space, so both the
    mapping and the key are checked.
    """
    space = AddressSpace("vm") if ept else None
    ctx, ours, theirs = make_world(mmu_class, space=space)
    memory = ctx.mmu.memory
    regions = [
        ours, theirs,
        memory.add_region(".rodata", 4096, perm=Perm.R, pkey=1),
        memory.add_region(".text", 4096, perm=Perm.RX, pkey=0),
    ]
    for region in regions:
        if ept:
            space.map(region)
    cells = [MemoryObject("cell%d" % i, region, library="lib%d" % i)
             for i, region in enumerate(regions)]
    buf = ByteBuffer("buf", ours, 0, 1024)
    gate = gate_between(ctx, shared=(0,))
    faults = []
    for index, (op, which, arg) in enumerate(ops):
        region, cell = regions[which], cells[which]
        try:
            if op == "read":
                cell.read(ctx)
            elif op == "write":
                cell.write(ctx, arg)
            elif op == "exec":
                ctx.mmu.check(ctx, region, AccessType.EXEC)
            elif op == "buffer_read":
                buf.read_bytes(ctx, arg * 64, 64)
            elif op == "gate_roundtrip":
                gate.call(ctx, "lwip", cell.read, (ctx,), {})
            elif op == "restamp":
                region.set_pkey(arg)
            elif op == "write_protect":
                ctx.pkru.allow(arg, write=False)
            elif op == "enforce_off":
                ctx.mmu.enforcing = False
            elif op == "enforce_on":
                ctx.mmu.enforcing = True
            elif op == "map" and ept:
                space.map(region)
            elif op == "unmap" and ept:
                space.unmap(region)
        except ProtectionFault as fault:
            faults.append((index, type(fault).__name__, fault.symbol,
                           fault.access, fault.accessor, fault.owner,
                           fault.library, fault.owner_library))
    return faults, ctx.clock.cycles, ctx.mmu.checks


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_OPS, max_size=40), ept=st.booleans())
def test_differential_against_reference(ops, ept):
    """Random traces fault, charge and count exactly like the reference."""
    ours = _replay(ops, MMU, ept)
    reference = _replay(ops, ReferenceMMU, ept)
    assert ours[0] == reference[0], "fault sequences diverged"
    assert ours[1] == reference[1], "virtual cycles diverged"
    assert ours[2] == reference[2], "mmu.checks diverged"
