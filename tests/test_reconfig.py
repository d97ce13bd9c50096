"""Live reconfiguration: plan computation, migration atomicity, hardening.

The tentpole invariant pinned here: a migration always leaves the
instance in exactly the source xor the target layout — never a hybrid —
and the instance serves byte-identical replies either way.  Faults are
injected at every checkpoint of the migration window (and, via
Hypothesis, at seeded random checkpoints across random layout pairs) to
show the rollback path restores the source layout exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import ConfigError, MigrationFault, ReconfigError
from repro.faults.supervisor import make_policy
from repro.reconfig import (
    HARDEN_LADDER,
    ReconfigurationEngine,
    harden_target,
    injection_points,
    layout_fingerprint,
)
from repro.reconfig.driver import (
    reconfig_config,
    run_harden_probes,
    run_reconfig_redis,
)

#: Every migratable layout, in hardening-ladder order.
LAYOUTS = (
    ("none", "full"),
    ("intel-mpk", "light"),
    ("intel-mpk", "full"),
    ("vm-ept", "full"),
)

N_REQUESTS = 16
MIGRATE_AFTER = 5


def boot(mechanism, mpk_gate="full", **kwargs):
    config = reconfig_config(mechanism, mpk_gate=mpk_gate, **kwargs)
    return FlexOSInstance(build_image(config), machine=Machine()).boot()


#: Never-migrated reference runs, cached per layout: every migrated (or
#: rolled-back) run must serve these exact reply bytes.
_REFERENCE = {}


def reference(mechanism, mpk_gate):
    key = (mechanism, mpk_gate)
    if key not in _REFERENCE:
        _REFERENCE[key] = run_reconfig_redis(
            reconfig_config(mechanism, mpk_gate=mpk_gate), (),
            n_requests=N_REQUESTS,
        )
    return _REFERENCE[key]


class TestPlan:
    def test_cross_mechanism_plan_shape(self):
        instance = boot("intel-mpk")
        plan = ReconfigurationEngine(instance).plan(
            reconfig_config("vm-ept"),
        )
        assert plan.mechanism_change
        assert plan.needs_spaces
        kinds = [step.kind for step in plan.steps]
        # Re-keys strictly precede the gate swap: regions reach their
        # target protection before any gate starts using it.
        assert kinds.index("gate-swap") > max(
            i for i, k in enumerate(kinds) if k == "rekey-region"
        )
        counts = plan.counts()
        assert counts["rekey-region"] == kinds.count("rekey-region")
        assert counts["gate-swap"] == kinds.count("gate-swap") == 2
        assert injection_points(plan) == len(plan.steps) + 4
        assert "intel-mpk -> vm-ept" in plan.describe()

    def test_identical_layout_plans_no_steps(self):
        instance = boot("intel-mpk")
        plan = ReconfigurationEngine(instance).plan(
            reconfig_config("intel-mpk"),
        )
        assert plan.steps == []
        assert not plan.mechanism_change

    def test_gate_flavour_swap_keeps_keys(self):
        instance = boot("intel-mpk", mpk_gate="full")
        plan = ReconfigurationEngine(instance).plan(
            reconfig_config("intel-mpk", mpk_gate="light"),
        )
        assert not plan.mechanism_change
        assert [s.kind for s in plan.steps] == ["gate-swap", "gate-swap"]
        assert all(s.gate_kind == "mpk-light" for s in plan.steps)

    def test_allocator_move_without_mechanism_change(self):
        instance = boot("intel-mpk")
        plan = ReconfigurationEngine(instance).plan(
            reconfig_config("intel-mpk", allocators={"comp2": "lea"}),
        )
        moves = [s for s in plan.steps if s.kind == "allocator-move"]
        assert len(moves) == 1
        assert moves[0].allocator == "lea"
        assert not any(s.kind == "rekey-region" for s in plan.steps)

    def test_incompatible_targets_rejected(self):
        instance = boot("intel-mpk")
        engine = ReconfigurationEngine(instance)
        with pytest.raises(ReconfigError):
            engine.plan(reconfig_config("cheri"))  # off-model mechanism
        with pytest.raises(ReconfigError):
            # Library assignment differs: migration cannot move code.
            engine.plan(reconfig_config("vm-ept", isolate=()))
        with pytest.raises(ReconfigError):
            engine.plan(None)

    def test_planning_failure_is_not_a_migration_fault(self):
        """ReconfigError aborts before PREPARE: nothing to roll back."""
        instance = boot("intel-mpk")
        engine = ReconfigurationEngine(instance)
        before = layout_fingerprint(instance)
        with pytest.raises(ReconfigError):
            engine.migrate(reconfig_config("cheri"))
        assert engine.reports == []
        assert layout_fingerprint(instance) == before


class TestLiveMigration:
    def test_mpk_to_ept_under_traffic(self):
        run = run_reconfig_redis(
            reconfig_config("intel-mpk"), [reconfig_config("vm-ept")],
            n_requests=N_REQUESTS, migrate_after=MIGRATE_AFTER,
        )
        report = run.reports[0]
        assert report.committed
        assert report.steps_applied == len(report.plan.steps)
        assert 0 < report.blackout_cycles <= report.latency_cycles
        assert run.replies == reference("intel-mpk", "full").replies
        ref = reference("vm-ept", "full")
        assert (
            layout_fingerprint(run.instance, include_regions=False)
            == layout_fingerprint(ref.instance, include_regions=False)
        )

    def test_rollback_at_every_checkpoint(self):
        """Arm a fault at each checkpoint in turn; the instance must
        come back in exactly the source layout with identical replies."""
        source, target = ("intel-mpk", "full"), ("vm-ept", "full")
        clean = run_reconfig_redis(
            reconfig_config(*source), [reconfig_config(*target)],
            n_requests=N_REQUESTS, migrate_after=MIGRATE_AFTER,
        )
        points = injection_points(clean.reports[0].plan)
        ref = reference(*source)
        for index in range(points):
            run = run_reconfig_redis(
                reconfig_config(*source), [reconfig_config(*target)],
                n_requests=N_REQUESTS, migrate_after=MIGRATE_AFTER,
                inject_at=index,
            )
            report = run.reports[0]
            assert report.outcome == "rolled-back", index
            assert isinstance(report.fault, MigrationFault)
            assert run.replies == ref.replies, index
            assert (
                layout_fingerprint(
                    run.instance, abandoned=run.engine.abandoned_regions,
                )
                == layout_fingerprint(ref.instance)
            ), index

    def test_fault_armed_beyond_window_commits(self):
        run = run_reconfig_redis(
            reconfig_config("intel-mpk"), [reconfig_config("vm-ept")],
            n_requests=N_REQUESTS, migrate_after=MIGRATE_AFTER,
            inject_at=500,
        )
        assert run.reports[0].committed
        assert run.replies == reference("intel-mpk", "full").replies


class TestAtomicityProperty:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_source_xor_target(self, data):
        """Seed-replayable: random layout pair, random checkpoint fault.

        Whatever happens inside the window, the instance ends in
        exactly one of the two layouts and the recorded replies match
        the never-migrated reference byte for byte.
        """
        source = data.draw(st.sampled_from(LAYOUTS), label="source")
        target = data.draw(
            st.sampled_from([l for l in LAYOUTS if l != source]),
            label="target",
        )
        index = data.draw(st.integers(min_value=0, max_value=24),
                          label="checkpoint")
        run = run_reconfig_redis(
            reconfig_config(*source), [reconfig_config(*target)],
            n_requests=N_REQUESTS, migrate_after=MIGRATE_AFTER,
            inject_at=index,
        )
        report = run.reports[0]
        assert run.replies == reference(*source).replies
        if report.committed:
            ref = reference(*target)
            assert (
                layout_fingerprint(run.instance, include_regions=False)
                == layout_fingerprint(ref.instance, include_regions=False)
            )
        else:
            assert report.outcome == "rolled-back"
            ref = reference(*source)
            assert (
                layout_fingerprint(
                    run.instance, abandoned=run.engine.abandoned_regions,
                )
                == layout_fingerprint(ref.instance)
            )


class TestQuiesce:
    def test_inflight_crossing_without_drain_rolls_back(self):
        instance = boot("intel-mpk")
        engine = ReconfigurationEngine(instance)
        before = layout_fingerprint(instance)
        with instance.run():
            instance.ctx.gate_depth = 1
            report = engine.migrate(reconfig_config("vm-ept"))
            instance.ctx.gate_depth = 0
        assert report.outcome == "rolled-back"
        assert report.phase_reached == "QUIESCE"
        assert isinstance(report.fault, MigrationFault)
        assert (
            layout_fingerprint(
                instance, abandoned=engine.abandoned_regions,
            )
            == before
        )

    def test_drain_timeout(self):
        instance = boot("intel-mpk")
        engine = ReconfigurationEngine(instance,
                                       drain_timeout_cycles=1_000)
        with instance.run():
            instance.ctx.gate_depth = 1
            report = engine.migrate(reconfig_config("vm-ept"),
                                    drain=lambda: None)
            instance.ctx.gate_depth = 0
        assert report.outcome == "rolled-back"
        assert "timeout" in str(report.fault)

    def test_drain_callback_clears_the_window(self):
        instance = boot("intel-mpk")
        engine = ReconfigurationEngine(instance)
        calls = []

        def drain():
            calls.append(None)
            if len(calls) >= 3:
                instance.ctx.gate_depth = 0

        with instance.run():
            instance.ctx.gate_depth = 1
            report = engine.migrate(reconfig_config("vm-ept"),
                                    drain=drain)
        assert report.committed
        assert len(calls) == 3


class TestHardenOnFault:
    def test_trips_after_threshold_and_migrates_up(self):
        run = run_harden_probes(mechanism="intel-mpk", mpk_gate="light",
                                harden_after=3, n_faults=6)
        assert run.tripped_after == 3
        assert run.hardened
        assert all(report.committed for report in run.reports)
        # mpk-light's next rung is mpk-full.
        assert run.instance.image.backend_name == "intel-mpk"
        assert run.instance.image.config.mpk_gate == "full"

    def test_probes_at_ladder_top_trip_but_stay(self):
        run = run_harden_probes(mechanism="vm-ept", harden_after=2,
                                n_faults=4)
        assert run.tripped_after == 2
        assert run.reports == []
        assert not run.hardened
        assert run.instance.image.backend_name == "vm-ept"

    def test_ladder_walk_terminates_at_ept(self):
        config = reconfig_config("none")
        seen = []
        while config is not None:
            seen.append((config.mechanism, config.mpk_gate))
            config = harden_target(config)
        assert seen == list(HARDEN_LADDER)

    def test_ladder_top_has_no_target(self):
        assert harden_target(reconfig_config("vm-ept")) is None

    def test_harden_policy_validates_threshold(self):
        with pytest.raises(ConfigError):
            make_policy("harden", after=0)
