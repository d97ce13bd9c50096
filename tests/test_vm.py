"""Booted-instance tests: boot order, isolation semantics, routing."""

import pytest

from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import BuildError, EntryPointViolation, ProtectionFault
from repro.kernel.lib import entrypoint
from tests.conftest import make_config


class TestBoot:
    def test_boot_steps_tcb_first(self, mpk_instance):
        completed = mpk_instance.boot_plan.completed
        assert completed.index("setup-protection") == 0
        assert completed.index("init-memory") < completed.index("init-fs")

    def test_double_boot_rejected(self, mpk_instance):
        with pytest.raises(BuildError):
            mpk_instance.boot()

    def test_run_requires_boot(self, mpk_image, machine):
        instance = FlexOSInstance(mpk_image, machine=machine)
        with pytest.raises(BuildError):
            with instance.run():
                pass

    def test_heaps_created_per_compartment(self, mpk_instance):
        for comp in mpk_instance.image.compartments:
            assert mpk_instance.memmgr.heap_of(comp.index) is not None
        assert mpk_instance.memmgr.shared_heap is not None

    def test_subsystems_up(self, mpk_instance):
        assert mpk_instance.sched is not None
        assert mpk_instance.vfs is not None
        assert mpk_instance.time is not None
        assert mpk_instance.libc is not None
        assert mpk_instance.router is not None

    def test_pkeys_assigned(self, mpk_instance):
        comps = mpk_instance.image.compartments
        default = next(c for c in comps if c.spec.default)
        other = next(c for c in comps if not c.spec.default)
        assert default.pkey == 0
        assert other.pkey not in (None, 0)
        assert mpk_instance.shared_pkey not in (0, other.pkey)

    def test_ept_address_spaces_assigned(self, ept_instance):
        for comp in ept_instance.image.compartments:
            assert comp.address_space is not None
        assert ept_instance.shared_window is not None

    def test_ept_boot_charges_per_vm(self, ept_config, costs):
        machine = Machine(costs)
        instance = FlexOSInstance(build_image(ept_config), machine=machine)
        instance.boot()
        assert machine.clock.cycles >= 2 * costs.vm_boot


class TestIsolationSemantics:
    """The heart of the reproduction: who can touch what."""

    def test_private_data_isolated_under_mpk(self, mpk_instance):
        secret = mpk_instance.private_object("lwip", "pcb_table", value={})
        with mpk_instance.run():
            # Boot context sits in the default compartment (comp1);
            # lwip's data lives in comp2 under a different pkey.
            with pytest.raises(ProtectionFault) as exc:
                secret.read(mpk_instance.ctx)
        assert exc.value.symbol == "pcb_table"

    def test_shared_data_accessible_from_default(self, mpk_instance):
        shared = mpk_instance.shared_object("netif_mtu", value=1500)
        with mpk_instance.run():
            assert shared.read(mpk_instance.ctx) == 1500

    def test_gate_grants_access_inside_callee(self, mpk_instance):
        secret = mpk_instance.private_object("lwip", "pcb_table",
                                             value={"tcp": 1})

        @entrypoint("lwip")
        def lwip_reader():
            return secret.read(mpk_instance.ctx)

        with mpk_instance.run():
            assert lwip_reader() == {"tcp": 1}
        assert mpk_instance.gate_crossings() == 1  # one cross-call recorded

    def test_private_data_isolated_under_ept(self, ept_instance):
        secret = ept_instance.private_object("lwip", "pcb_table", value=7)
        with ept_instance.run():
            with pytest.raises(ProtectionFault):
                secret.read(ept_instance.ctx)

    def test_no_isolation_backend_never_faults(self, none_instance):
        data = none_instance.private_object("lwip", "pcb_table", value=3)
        with none_instance.run():
            assert data.read(none_instance.ctx) == 3

    def test_same_machine_different_images_disagree(self, costs):
        """The same access faults or not depending on the built config —
        the definition of build-time flexible isolation."""
        for mechanism, should_fault in (("intel-mpk", True), ("none", False)):
            machine = Machine(costs)
            config = make_config(mechanism=mechanism) if should_fault \
                else make_config(mechanism="none", isolate=())
            instance = FlexOSInstance(build_image(config),
                                      machine=machine).boot()
            data = instance.private_object("lwip", "x", value=1)
            with instance.run():
                if should_fault:
                    with pytest.raises(ProtectionFault):
                        data.read(instance.ctx)
                else:
                    assert data.read(instance.ctx) == 1


class TestRouting:
    def test_same_compartment_call_is_direct(self, mpk_instance):
        @entrypoint("vfscore")
        def vfs_ish():
            return "ok"

        with mpk_instance.run():
            before = mpk_instance.router.gated_calls
            assert vfs_ish() == "ok"
            assert mpk_instance.router.gated_calls == before
            assert mpk_instance.router.direct_calls >= 1

    def test_cross_compartment_call_is_gated(self, mpk_instance):
        @entrypoint("lwip")
        def lwip_entry():
            return mpk_instance.ctx.compartment

        with mpk_instance.run():
            dst_index = mpk_instance.image.compartment_of("lwip").index
            assert lwip_entry() == dst_index
            assert mpk_instance.router.gated_calls == 1

    def test_illegal_entry_point_rejected(self, mpk_instance):
        def internal_helper():
            return "should not be reachable"

        with mpk_instance.run():
            before = mpk_instance.ctx.total_transitions()
            with pytest.raises(EntryPointViolation):
                mpk_instance.router.route("lwip", internal_helper, (), {})
            assert mpk_instance.ctx.total_transitions() == before

    def test_hardening_multiplier_applied_to_work(self, costs):
        config = make_config(hardening=("asan", "ubsan", "sp"))
        machine = Machine(costs)
        instance = FlexOSInstance(build_image(config),
                                  machine=machine).boot()

        @entrypoint("lwip")
        def hardened_work():
            from repro.kernel.lib import work
            work(1000)

        @entrypoint("vfscore")
        def plain_work():
            from repro.kernel.lib import work
            work(1000)

        with instance.run():
            clock = instance.clock
            start = clock.cycles
            plain_work()
            plain_cost = clock.cycles - start
            start = clock.cycles
            hardened_work()
            hardened_cost = clock.cycles - start
        # lwip sits in the hardened compartment: its work costs more.
        assert hardened_cost > plain_cost + 500

    def test_work_accounted_per_library(self, mpk_instance):
        @entrypoint("lwip")
        def some_work():
            from repro.kernel.lib import work
            work(123)

        with mpk_instance.run():
            some_work()
        assert mpk_instance.ctx.work_by_library.get("lwip", 0) >= 123


class TestStacksAndSharing:
    def test_thread_gets_home_stack_and_dss(self, mpk_instance):
        with mpk_instance.run():
            thread = mpk_instance.sched.create_thread(
                "worker", lambda: iter(()),
            )
        assert thread.stack_for(0) is not None
        assert 0 in thread.dss  # sharing strategy is DSS by default

    def test_sharing_strategy_matches_config(self, mpk_instance):
        with mpk_instance.run():
            thread = mpk_instance.sched.create_thread(
                "worker", lambda: iter(()),
            )
            strategy = mpk_instance.sharing_for(thread)
        assert strategy.kind == "dss"

    def test_dss_region_uses_shared_pkey(self, mpk_instance):
        with mpk_instance.run():
            thread = mpk_instance.sched.create_thread(
                "worker", lambda: iter(()),
            )
        dss = thread.dss[0]
        assert dss.dss_region.pkey == mpk_instance.shared_pkey
        assert dss.stack_region.pkey == 0  # home compartment is default
