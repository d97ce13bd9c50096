"""Execution-context and image/router edge cases."""

import pytest

from repro.core.image import Router
from repro.core.toolchain.build import build_image
from repro.errors import BuildError, ReproError
from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.hw.cpu import (
    ExecutionContext,
    current_context,
    host_side,
    maybe_current_context,
    use_context,
)
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import MMU
from tests.conftest import NESTING_MODES, check_nesting, make_config


@pytest.fixture
def ctx():
    costs = CostModel.xeon_4114()
    return ExecutionContext(Clock(), costs, MMU(PhysicalMemory(), costs))


class TestContextMachinery:
    def test_no_context_by_default(self):
        assert maybe_current_context() is None
        with pytest.raises(ReproError):
            current_context()

    def test_use_context_installs_and_restores(self, ctx):
        with use_context(ctx):
            assert current_context() is ctx
        assert maybe_current_context() is None

    def test_nested_contexts(self, ctx):
        costs = ctx.costs
        other = ExecutionContext(Clock(), costs,
                                 MMU(PhysicalMemory(), costs))
        with use_context(ctx):
            with use_context(other):
                assert current_context() is other
            assert current_context() is ctx

    def test_host_side_blocks_charging_and_routing(self, ctx):
        with use_context(ctx):
            with host_side():
                assert maybe_current_context() is None
            assert current_context() is ctx

    def test_context_restored_after_exception(self, ctx):
        with pytest.raises(RuntimeError):
            with use_context(ctx):
                raise RuntimeError
        assert maybe_current_context() is None

    def test_charge_work_without_multiplier(self, ctx):
        ctx.charge_work(100, library="anything")
        assert ctx.clock.cycles == 100
        assert ctx.work_by_library["anything"] == 100

    def test_charge_work_with_multiplier(self, ctx):
        ctx.work_multiplier = lambda lib: 3.0 if lib == "hot" else 1.0
        ctx.charge_work(100, library="hot")
        ctx.charge_work(100, library="cold")
        assert ctx.clock.cycles == 400
        assert ctx.work_by_library == {"hot": 300, "cold": 100}

    def test_transition_recording(self, ctx):
        ctx.record_transition(0, 1)
        ctx.record_transition(0, 1)
        ctx.record_transition(1, 0)
        assert ctx.transitions == {(0, 1): 2, (1, 0): 1}
        assert ctx.total_transitions() == 3


@pytest.mark.parametrize("mode", NESTING_MODES)
class TestRoutedLibraryTracking:
    """``current_library`` across nested entry-point calls.

    Each routed call saves the caller's library, sets the callee's and
    restores the caller's on return and on raise.  The router's direct
    path and the entry-point wrapper with no router are driven here;
    the gate path is driven in ``tests/test_gate_unwind.py``.
    """

    def test_router_direct_path(self, mpk_instance, mode):
        router = mpk_instance.router
        with mpk_instance.run():
            # vfscore and uksched share the default compartment.
            check_nesting(mpk_instance.ctx, "vfscore", "uksched", mode)
        assert (router.direct_calls, router.gated_calls) == (2, 0)

    def test_entrypoint_without_router(self, ctx, mode):
        assert ctx.router is None
        with use_context(ctx):
            check_nesting(ctx, "lwip", "uksched", mode)


class TestImageLookups:
    def test_compartment_by_name(self, mpk_image):
        comp = mpk_image.compartment_by_name("comp2")
        assert "lwip" in comp.libraries
        with pytest.raises(BuildError):
            mpk_image.compartment_by_name("ghost")

    def test_unknown_library_falls_to_default(self, mpk_image):
        comp = mpk_image.compartment_of("never-registered-lib")
        assert comp.spec.default

    def test_legal_entries_only_from_member_libraries(self, mpk_image):
        lwip_comp = mpk_image.compartment_of("lwip")
        default = mpk_image.compartment_of("ukboot")
        assert "pump" in mpk_image.legal_entries[lwip_comp.index]
        assert "pump" not in mpk_image.legal_entries[default.index]

    def test_duplicate_library_rejected(self):
        from repro.core.image import Compartment, Image
        from repro.core.config import CompartmentSpec

        spec1 = CompartmentSpec("a", default=True)
        spec2 = CompartmentSpec("b")
        config = make_config()
        with pytest.raises(BuildError, match="two compartments"):
            Image(
                config,
                [Compartment(0, spec1, ["lwip"]),
                 Compartment(1, spec2, ["lwip"])],
                sections=[], linker_script="", annotations=None,
                transform_report=None, backend_name="intel-mpk",
            )

    def test_work_multiplier_reflects_compartment_hardening(self):
        config = make_config(hardening=("asan",))
        image = build_image(config)
        assert image.work_multiplier("lwip") > 1.0
        assert image.work_multiplier("vfscore") == 1.0


class TestRouterEdges:
    def test_missing_gate_reported(self, mpk_image):
        router = Router(mpk_image, gates={}, costs=CostModel.xeon_4114())
        with pytest.raises(BuildError, match="no gate"):
            router.gate_between(0, 1)

    def test_counters_start_at_zero(self, mpk_instance):
        assert mpk_instance.router.direct_calls == 0
        assert mpk_instance.router.gated_calls == 0
