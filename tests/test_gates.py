"""Gate tests: costs, domain switching, CFI, stack registries."""

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
from repro.errors import EntryPointViolation
from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.hw.cpu import ExecutionContext
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import MMU
from repro.hw.mpk import PKRU


@pytest.fixture
def costs():
    return CostModel.xeon_4114()


@pytest.fixture
def ctx(costs):
    return ExecutionContext(Clock(), costs, MMU(PhysicalMemory(), costs))


def comps():
    src = Compartment(0, CompartmentSpec("comp1", default=True), ["app"])
    dst = Compartment(1, CompartmentSpec("comp2"), ["lwip"])
    src.pkey, dst.pkey = 0, 1
    src.shared_pkeys = dst.shared_pkeys = (15,)
    return src, dst


def target(x):
    return x * 2


class TestFunctionCallGate:
    def test_zero_extra_overhead(self, ctx, costs):
        src, dst = comps()
        gate = FunctionCallGate(src, dst, costs)
        before = ctx.clock.cycles
        assert gate.call(ctx, "lwip", target, (21,), {}) == 42
        assert ctx.clock.cycles - before == pytest.approx(
            costs.function_call
        )

    def test_transition_recorded(self, ctx, costs):
        src, dst = comps()
        gate = FunctionCallGate(src, dst, costs)
        gate.call(ctx, "lwip", target, (1,), {})
        assert ctx.transitions == {(0, 1): 1}


class TestMpkGates:
    def test_light_gate_cost(self, ctx, costs):
        src, dst = comps()
        gate = MpkLightGate(src, dst, costs)
        before = ctx.clock.cycles
        gate.call(ctx, "lwip", target, (1,), {})
        assert ctx.clock.cycles - before == pytest.approx(
            2 * costs.gate_mpk_light
        )

    def test_full_gate_cost(self, ctx, costs):
        src, dst = comps()
        gate = MpkFullGate(src, dst, costs)
        before = ctx.clock.cycles
        gate.call(ctx, "lwip", target, (1,), {})
        assert ctx.clock.cycles - before == pytest.approx(
            2 * costs.gate_mpk_full
        )

    def test_pkru_switched_during_call_and_restored(self, ctx, costs):
        src, dst = comps()
        ctx.pkru = PKRU(allowed=(0,))
        gate = MpkLightGate(src, dst, costs)
        observed = {}

        def spy():
            observed["during"] = ctx.pkru.allowed_keys()
            observed["compartment"] = ctx.compartment

        gate.call(ctx, "lwip", spy, (), {})
        assert 1 in observed["during"]           # callee key enabled
        assert 15 in observed["during"]          # shared key enabled
        assert observed["compartment"] == 1
        assert ctx.pkru.allowed_keys() == {0}    # restored on return
        assert ctx.compartment == 0

    def test_caller_private_key_revoked_in_callee(self, ctx, costs):
        src, dst = comps()
        src.pkey = 2  # non-default caller key
        ctx.pkru = PKRU(allowed=(0, 2))
        gate = MpkLightGate(src, dst, costs)
        during = {}

        def spy():
            during["keys"] = ctx.pkru.allowed_keys()

        gate.call(ctx, "lwip", spy, (), {})
        assert 2 not in during["keys"]

    def test_full_gate_populates_stack_registry(self, ctx, costs):
        from repro.kernel.thread import Thread

        src, dst = comps()
        created = []

        def provider(thread, comp):
            thread.stacks[comp.index] = "stack-for-%d" % comp.index
            created.append(comp.index)

        gate = MpkFullGate(src, dst, costs, stack_provider=provider)
        thread = Thread("worker", lambda: iter(()))
        ctx.current_thread = thread
        gate.call(ctx, "lwip", target, (1,), {})
        assert created == [1]
        gate.call(ctx, "lwip", target, (1,), {})
        assert created == [1]  # registry hit, no second creation

    def test_exception_restores_domain(self, ctx, costs):
        src, dst = comps()
        ctx.pkru = PKRU(allowed=(0,))
        gate = MpkLightGate(src, dst, costs)

        def boom():
            raise RuntimeError("callee crashed")

        with pytest.raises(RuntimeError):
            gate.call(ctx, "lwip", boom, (), {})
        assert ctx.compartment == 0
        assert ctx.pkru.allowed_keys() == {0}
        assert ctx.gate_depth == 0

    def test_nested_gates(self, ctx, costs):
        src, dst = comps()
        gate_out = MpkLightGate(src, dst, costs)
        gate_back = MpkLightGate(dst, src, costs)

        def outer():
            assert ctx.gate_depth == 1
            return gate_back.call(ctx, "app", lambda: ctx.compartment,
                                  (), {})

        result = gate_out.call(ctx, "lwip", outer, (), {})
        assert result == 0  # innermost ran in the caller compartment
        assert ctx.compartment == 0


class TestEptGate:
    def test_cost_and_address_space_switch(self, ctx, costs):
        from repro.hw.ept import AddressSpace

        src, dst = comps()
        src.address_space = AddressSpace("vm0")
        dst.address_space = AddressSpace("vm1")
        ctx.address_space = src.address_space
        gate = EptRpcGate(src, dst, costs)
        seen = {}

        def spy():
            seen["space"] = ctx.address_space

        before = ctx.clock.cycles
        gate.call(ctx, "lwip", spy, (), {})
        assert seen["space"] is dst.address_space
        assert ctx.address_space is src.address_space
        assert ctx.clock.cycles - before >= 2 * costs.gate_ept

    def test_rpc_server_validates_entry_point(self, ctx, costs):
        src, dst = comps()
        gate = EptRpcGate(src, dst, costs, legal_entries={"tcp_recv"})

        def tcp_recv():
            return "ok"

        def not_an_entry():
            return "pwned"

        assert gate.call(ctx, "lwip", tcp_recv, (), {}) == "ok"
        with pytest.raises(EntryPointViolation):
            gate.call(ctx, "lwip", not_an_entry, (), {})
        # The illegal request never crossed.
        assert ctx.transitions == {(0, 1): 1}


class TestCheriGate:
    def test_cost_between_call_and_mpk(self, ctx, costs):
        src, dst = comps()
        gate = CheriGate(src, dst, costs)
        before = ctx.clock.cycles
        gate.call(ctx, "lwip", target, (2,), {})
        delta = ctx.clock.cycles - before
        assert 2 * costs.function_call < delta < 2 * costs.gate_mpk_full
