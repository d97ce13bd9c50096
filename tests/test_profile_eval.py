"""Profile-evaluator unit tests and the Iago RPC argument check."""

import pytest

from repro.apps.base import ComponentLayout, RequestProfile, evaluate_profile
from repro.core.config import CompartmentSpec
from repro.core.gates import EptRpcGate
from repro.core.image import Compartment
from repro.errors import ConfigError, IagoViolation
from repro.hw.clock import Clock, XEON_4114_HZ
from repro.hw.costs import CostModel
from repro.hw.cpu import ExecutionContext
from repro.hw.memory import MemoryObject, PhysicalMemory
from repro.hw.mmu import MMU


@pytest.fixture
def costs():
    return CostModel.xeon_4114()


def simple_profile(**overrides):
    kwargs = dict(
        work={"a": 1000.0, "b": 500.0},
        crossings={("a", "b"): 2},
        marshal_base=0.0,
        marshal_interaction=0.0,
        shared_vars_per_crossing=0,
    )
    kwargs.update(overrides)
    return RequestProfile("simple", **kwargs)


class TestEvaluateProfile:
    def test_single_compartment_is_pure_work(self, costs):
        layout = ComponentLayout("one", ({"a", "b"},), mechanism="none")
        result = evaluate_profile(simple_profile(), layout, costs)
        assert result["cycles"] == 1500.0
        assert result["gate_cycles"] == 0.0
        assert result["requests_per_second"] == \
            pytest.approx(XEON_4114_HZ / 1500.0)

    def test_crossing_priced_per_round_trip(self, costs):
        layout = ComponentLayout("two", ({"a"}, {"b"}))
        result = evaluate_profile(simple_profile(), layout, costs)
        expected_gates = 2 * (2 * costs.gate_mpk_full)
        assert result["gate_cycles"] == pytest.approx(expected_gates)

    def test_light_gate_cheaper(self, costs):
        layout_full = ComponentLayout("f", ({"a"}, {"b"}), mpk_gate="full")
        layout_light = ComponentLayout("l", ({"a"}, {"b"}),
                                       mpk_gate="light")
        full = evaluate_profile(simple_profile(), layout_full, costs)
        light = evaluate_profile(simple_profile(), layout_light, costs)
        assert light["cycles"] < full["cycles"]

    def test_sharing_strategy_priced(self, costs):
        profile = simple_profile(shared_vars_per_crossing=2)
        cycles = {}
        for sharing in ("dss", "heap", "shared-stack"):
            layout = ComponentLayout("s", ({"a"}, {"b"}), sharing=sharing)
            cycles[sharing] = evaluate_profile(profile, layout,
                                               costs)["cycles"]
        assert cycles["heap"] > cycles["dss"] >= cycles["shared-stack"]

    def test_marshal_interaction_with_hardening(self, costs):
        from repro.core.hardening import FIG6_HARDENING

        profile = simple_profile(marshal_base=10.0,
                                 marshal_interaction=100.0)
        plain = ComponentLayout("p", ({"a"}, {"b"}))
        hardened = ComponentLayout(
            "h", ({"a"}, {"b"}), hardening={"a": FIG6_HARDENING},
        )
        gates_plain = evaluate_profile(profile, plain, costs)["gate_cycles"]
        gates_hard = evaluate_profile(profile, hardened,
                                      costs)["gate_cycles"]
        assert gates_hard > gates_plain  # instrumented marshalling

    def test_alloc_pairs_charged(self, costs):
        layout = ComponentLayout("one", ({"a", "b"},), mechanism="none")
        with_allocs = simple_profile(alloc_pairs=3)
        result = evaluate_profile(with_allocs, layout, costs)
        assert result["cycles"] == pytest.approx(
            1500.0 + 3 * (costs.heap_alloc_fast + costs.heap_free_fast)
        )

    def test_unmentioned_component_defaults_to_group_zero(self, costs):
        layout = ComponentLayout("partial", ({"a"}, {"b"}))
        profile = simple_profile(work={"a": 100.0, "mystery": 50.0})
        result = evaluate_profile(profile, layout, costs)
        assert result["work_cycles"] == 150.0

    def test_bad_crossing_key_rejected(self):
        with pytest.raises(ConfigError):
            RequestProfile("bad", {"a": 1}, {("a", "a"): 1})

    def test_overlapping_partition_rejected(self):
        with pytest.raises(ConfigError):
            ComponentLayout("bad", ({"a", "b"}, {"b"}))


class TestIagoCheck:
    def make_gate(self, costs):
        src = Compartment(0, CompartmentSpec("world", default=True),
                          ["app"])
        dst = Compartment(1, CompartmentSpec("server"), ["lwip"])
        return src, dst, EptRpcGate(src, dst, costs)

    def test_private_pointer_of_callee_rejected(self, costs):
        src, dst, gate = self.make_gate(costs)
        memory = PhysicalMemory()
        private = memory.add_region("server-data", 4096, compartment=1)
        pointer = MemoryObject("server_secret", private)
        ctx = ExecutionContext(Clock(), costs, MMU(memory, costs))

        def rpc_target(arg):
            return "should never run"

        with pytest.raises(IagoViolation):
            gate.call(ctx, "lwip", rpc_target, (pointer,), {})
        assert ctx.transitions == {}

    def test_shared_pointer_accepted(self, costs):
        src, dst, gate = self.make_gate(costs)
        memory = PhysicalMemory()
        shared = memory.add_region("ivshmem", 4096, compartment=None)
        pointer = MemoryObject("msg", shared, value=41)
        ctx = ExecutionContext(Clock(), costs, MMU(memory, costs))

        def rpc_target(arg):
            return arg.peek() + 1

        assert gate.call(ctx, "lwip", rpc_target, (pointer,), {}) == 42

    def test_plain_values_accepted(self, costs):
        src, dst, gate = self.make_gate(costs)
        ctx = ExecutionContext(Clock(), costs,
                               MMU(PhysicalMemory(), costs))
        assert gate.call(ctx, "lwip", lambda x, y: x + y, (1,),
                         {"y": 2}) == 3

    def test_caller_own_pointer_accepted(self, costs):
        """Passing the caller's own private data is the caller's risk,
        not a confused deputy; the server simply cannot read it."""
        src, dst, gate = self.make_gate(costs)
        memory = PhysicalMemory()
        mine = memory.add_region("caller-data", 4096, compartment=0)
        pointer = MemoryObject("my_buf", mine)
        ctx = ExecutionContext(Clock(), costs, MMU(memory, costs))
        gate.call(ctx, "lwip", lambda arg: None, (pointer,), {})
