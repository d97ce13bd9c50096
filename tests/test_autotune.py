"""Closed-loop autotuner: policy decisions, journal invariants, pacing.

The property tests drive :class:`~repro.autotune.loop.AutotuneLoop`
against synthetic telemetry signals and stub engines (no VM, no
scheduler), so Hypothesis can sweep hundreds of decision sequences:
whatever the signal does — including fault pressure arriving while a
migration just committed — no migration is ever issued inside a
cooldown window, and identical inputs always reproduce identical
journals.  A pair of short end-to-end runs then pin the same invariants
on the real redis harness.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import (
    AutotuneLoop,
    AutotunePolicy,
    DecisionJournal,
    ladder_layouts,
    rung_name,
    run_autotune_redis,
    signal_digest,
)
from repro.errors import ConfigError, ReproError
from repro.faults.supervisor import make_policy
from repro.reconfig.driver import reconfig_config
from repro.reconfig.harden import HARDEN_LADDER

WINDOW_CYCLES = 100_000.0
SLO_TARGET = {"name": "p99", "threshold_cycles": 26_400.0,
              "objective": 0.95}


# -- synthetic fixtures ------------------------------------------------------
def make_window(index, requests=8.0, mean_cycles=10_000.0, burn=0.0,
                crossings_per_request=4.0, gate_per_crossing=400.0):
    """One evaluator_input row with self-consistent counters."""
    crossings = requests * crossings_per_request
    gate = crossings * gate_per_crossing
    queue = requests * 0.1 * mean_cycles
    return {
        "index": index,
        "requests": requests,
        "queue_cycles": queue,
        "gate_cycles": gate,
        "gate_crossings": crossings,
        "app_cycles": max(requests * mean_cycles - gate - queue, 0.0),
        "latency_max_cycles": mean_cycles * 1.5,
        "latency_mean_cycles": mean_cycles,
        "burn": {"p99": burn},
    }


def make_signal(burns, mean_cycles=10_000.0, requests=8.0,
                gate_share=0.3):
    """An evaluator_input dict whose recent windows burn as listed."""
    windows = [make_window(i, requests=requests, mean_cycles=mean_cycles,
                           burn=burn) for i, burn in enumerate(burns)]
    total = sum(w["requests"] * w["latency_mean_cycles"] for w in windows)
    return {
        "window_cycles": WINDOW_CYCLES,
        "windows": windows,
        "decomposition": {
            "totals": {"latency_cycles": total},
            "shares": {"queue_cycles": 0.1, "gate_cycles": gate_share,
                       "app_cycles": 0.9 - gate_share},
        },
        "slo": {"p99": {"overall_burn": (sum(burns) / len(burns)
                                         if burns else 0.0),
                        "met": all(b < 1.0 for b in burns),
                        "target": dict(SLO_TARGET)}},
    }


class StubImage:
    def __init__(self, config):
        self.config = config
        self.backend_name = config.mechanism


class StubEngine:
    """Engine double: applies migrations to a stub instance, fires hooks."""

    def __init__(self, mechanism="intel-mpk", mpk_gate="full",
                 outcome="committed"):
        config = reconfig_config(mechanism, mpk_gate)
        self.instance = SimpleNamespace(image=StubImage(config))
        self.outcome = outcome
        self.reports = []
        self._hooks = []

    def add_report_hook(self, hook):
        self._hooks.append(hook)

    def migrate(self, target):
        report = SimpleNamespace(
            outcome=self.outcome, phase_reached="resume",
            steps_applied=1, blackout_cycles=0.0,
            plan=SimpleNamespace(
                source_mechanism=self.instance.image.backend_name,
                target_mechanism=target.mechanism),
        )
        if self.outcome == "committed":
            self.instance.image = StubImage(target)
        self.reports.append(report)
        for hook in self._hooks:
            hook(report)
        return report


class StubHub:
    def __init__(self, signal):
        self.signal = signal

    def evaluator_input(self):
        return self.signal


def make_loop(signal, *, mechanism="intel-mpk", mpk_gate="full",
              harden=False, outcome="committed", **kwargs):
    engine = StubEngine(mechanism, mpk_gate, outcome=outcome)
    policy = AutotunePolicy(**kwargs.pop("policy_kwargs", {}))
    harden_policy = make_policy("harden") if harden else None
    return AutotuneLoop(StubHub(signal), engine, policy,
                        harden_policy=harden_policy, **kwargs)


# -- policy decisions --------------------------------------------------------
class TestAutotunePolicy:
    def test_no_signal_without_traffic(self):
        policy = AutotunePolicy()
        engine = StubEngine()
        decision = policy.decide(engine.instance,
                                 make_signal([0.0], requests=0.0), 0)
        assert decision.reason == "no-signal"
        assert decision.trigger is None
        assert decision.target is None

    def test_quiet_signal_no_trigger(self):
        policy = AutotunePolicy()
        engine = StubEngine()
        decision = policy.decide(engine.instance,
                                 make_signal([0.0, 0.1, 0.2]), 0)
        assert decision.reason == "no-trigger"
        assert decision.ranking == []

    def test_burn_trigger_proposes_cheaper_rung(self):
        policy = AutotunePolicy()
        engine = StubEngine("intel-mpk", "full")
        decision = policy.decide(
            engine.instance,
            make_signal([3.0, 4.0, 5.0], mean_cycles=30_000.0), 0)
        assert decision.trigger["kind"] == "slo-burn"
        assert decision.current == "intel-mpk/full"
        assert len(decision.ranking) == len(HARDEN_LADDER)
        assert decision.reason == "migrate"
        assert decision.chosen == "none/full"
        assert decision.target.mechanism == "none"
        assert decision.ranking[0]["layout"] == "none/full"

    def test_gate_share_trigger(self):
        policy = AutotunePolicy(gate_share_threshold=0.5)
        engine = StubEngine()
        decision = policy.decide(engine.instance,
                                 make_signal([0.0], gate_share=0.7), 0)
        assert decision.trigger["kind"] == "gate-share"

    def test_hysteresis_blocks_marginal_wins(self):
        policy = AutotunePolicy(min_improvement=float("inf"))
        engine = StubEngine("intel-mpk", "full")
        decision = policy.decide(engine.instance,
                                 make_signal([5.0, 5.0]), 0)
        assert decision.reason in ("hysteresis", "already-best")
        assert decision.target is None

    def test_floor_filters_candidates(self):
        policy = AutotunePolicy()
        policy.floor = 2
        engine = StubEngine("intel-mpk", "full")
        decision = policy.decide(engine.instance,
                                 make_signal([5.0, 5.0]), 0)
        ranked = {row["layout"] for row in decision.ranking}
        assert ranked == {"intel-mpk/full", "vm-ept/full"}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            AutotunePolicy(objective="latency")
        with pytest.raises(ConfigError):
            AutotunePolicy(recent_windows=0)

    def test_ladder_layouts_cover_ladder(self):
        layouts = ladder_layouts()
        assert [layout.name for layout in layouts] == [
            "%s/%s" % pair for pair in HARDEN_LADDER]
        for layout in layouts:
            assert layout.n_compartments == 2

    def test_rung_name_normalises(self):
        assert rung_name("none", "light") == "none/full"
        assert rung_name("intel-mpk", "light") == "intel-mpk/light"
        assert rung_name("cheri", "full") == "cheri/full"


# -- the journal -------------------------------------------------------------
class TestDecisionJournal:
    def test_record_assigns_steps(self):
        journal = DecisionJournal()
        journal.record(window=4, policy="autotune", reason="no-trigger",
                       current="none/full")
        journal.record(window=8, policy="autotune", reason="no-trigger",
                       current="none/full")
        assert [e["step"] for e in journal.entries] == [0, 1]
        assert journal.check()

    def test_check_rejects_unknown_reason(self):
        journal = DecisionJournal()
        journal.record(window=4, policy="autotune", reason="no-trigger",
                       current="none/full")
        journal.entries[0]["reason"] = "vibes"
        with pytest.raises(ReproError, match="unknown reason"):
            journal.check()

    def test_check_rejects_migration_inside_cooldown(self):
        journal = DecisionJournal()
        migration = {"outcome": "committed", "source": "intel-mpk",
                     "target": "none"}
        journal.record(window=4, policy="autotune", reason="migrated",
                       current="intel-mpk/full", chosen="none/full",
                       trigger={"kind": "slo-burn"},
                       ranking=[{"layout": "none/full", "value": 1.0}],
                       cooldown_until_window=12, migration=migration)
        journal.record(window=8, policy="autotune", reason="migrated",
                       current="none/full", chosen="vm-ept/full",
                       trigger={"kind": "slo-burn"},
                       ranking=[{"layout": "vm-ept/full", "value": 2.0}],
                       cooldown_until_window=16, migration=migration)
        with pytest.raises(ReproError, match="inside cooldown"):
            journal.check()

    def test_check_rejects_trigger_mismatch(self):
        journal = DecisionJournal()
        journal.record(window=4, policy="autotune", reason="no-trigger",
                       current="none/full", trigger={"kind": "slo-burn"})
        with pytest.raises(ReproError, match="inconsistent with trigger"):
            journal.check()

    def test_signal_digest_summarises(self):
        digest = signal_digest(make_signal([0.5, 1.5]))
        assert digest["windows"] == 2
        assert digest["requests"] == 16.0
        assert digest["burn"] == {"p99": 1.0}
        assert signal_digest(None)["windows"] == 0


# -- the loop ----------------------------------------------------------------
class TestAutotuneLoop:
    #: Burning hard enough that the ranking prefers a cheaper rung.
    HOT = dict(mean_cycles=30_000.0)

    def test_migrates_on_sustained_burn(self):
        loop = make_loop(make_signal([5.0] * 4, **self.HOT))
        entry = loop.step(4)
        assert entry["reason"] == "migrated"
        assert entry["chosen"] == "none/full"
        assert loop.migrations == 1
        assert loop.cooldown_until == 4 + loop.cooldown_windows
        assert entry["migration"]["outcome"] == "committed"
        assert loop.engine.instance.image.backend_name == "none"

    def test_cooldown_holds_second_migration(self):
        loop = make_loop(make_signal([5.0] * 4, **self.HOT),
                         cooldown_windows=100)
        first = loop.step(4)
        assert first["reason"] == "migrated"
        # Now on none/full but still burning: the tuner would harden to
        # escape the burn, except cooldown holds it.
        second = loop.step(8)
        assert second["reason"] in ("cooldown", "already-best",
                                    "hysteresis", "no-trigger")
        assert loop.migrations == 1
        assert loop.journal.check()

    def test_rolled_back_migration_starts_no_cooldown(self):
        loop = make_loop(make_signal([5.0] * 4, **self.HOT),
                         outcome="rolled-back")
        entry = loop.step(4)
        assert entry["reason"] == "migrated"
        assert entry["migration"]["outcome"] == "rolled-back"
        assert loop.migrations == 0
        assert loop.cooldown_until == 0

    def test_harden_outranks_autotune_and_raises_floor(self):
        loop = make_loop(make_signal([5.0] * 4), mechanism="none",
                         harden=True)
        loop.harden_policy.pending.append(1)
        entry = loop.step(4)
        assert entry["reason"] == "hardened"
        assert entry["policy"] == "harden-on-fault"
        assert entry["trigger"] == {"kind": "fault-pressure",
                                    "compartments": [1]}
        assert entry["chosen"] == "intel-mpk/light"
        assert loop.policy.floor == 1
        assert loop.engine.instance.image.backend_name == "intel-mpk"

    def test_harden_at_ladder_top_journals(self):
        loop = make_loop(make_signal([0.0]), mechanism="vm-ept",
                         harden=True)
        loop.harden_policy.pending.append(1)
        entry = loop.step(4)
        assert entry["reason"] == "at-ladder-top"
        assert entry["migration"] is None
        assert loop.migrations == 0

    def test_rejects_bad_pacing(self):
        with pytest.raises(ConfigError):
            make_loop(make_signal([0.0]), every_windows=0)
        with pytest.raises(ConfigError):
            make_loop(make_signal([0.0]), cooldown_windows=-1)


# -- properties --------------------------------------------------------------
burn_levels = st.floats(min_value=0.0, max_value=8.0)


class TestLoopProperties:
    @settings(max_examples=40, deadline=None)
    @given(burns=st.lists(st.lists(burn_levels, min_size=1, max_size=5),
                          min_size=1, max_size=8),
           faults=st.lists(st.booleans(), min_size=1, max_size=8),
           cooldown=st.integers(min_value=0, max_value=12),
           every=st.integers(min_value=1, max_value=4))
    def test_migrations_never_inside_cooldown(self, burns, faults,
                                              cooldown, every):
        """Whatever the signal and fault pressure do, pacing holds."""
        loop = make_loop(make_signal(burns[0]), mechanism="none",
                         harden=True, cooldown_windows=cooldown,
                         every_windows=every)
        for step, window_burns in enumerate(burns):
            loop.hub.signal = make_signal(window_burns)
            if step < len(faults) and faults[step]:
                loop.harden_policy.pending.append(1)
            loop.step(step * every)
        assert loop.journal.check()
        committed = [e["window"] for e in loop.journal.entries
                     if e["migration"]
                     and e["migration"]["outcome"] == "committed"]
        for earlier, later in zip(committed, committed[1:]):
            assert later - earlier >= cooldown

    @settings(max_examples=40, deadline=None)
    @given(burns=st.lists(st.lists(burn_levels, min_size=1, max_size=5),
                          min_size=1, max_size=6))
    def test_decisions_deterministic(self, burns):
        """Identical signals produce byte-identical journals."""
        journals = []
        for _ in range(2):
            loop = make_loop(make_signal(burns[0]))
            for step, window_burns in enumerate(burns):
                loop.hub.signal = make_signal(window_burns)
                loop.step(step * loop.every_windows)
            journals.append(json.dumps(loop.journal.to_payload(),
                                       sort_keys=True))
        assert journals[0] == journals[1]

    @settings(max_examples=25, deadline=None)
    @given(burns=st.lists(burn_levels, min_size=1, max_size=5),
           floor=st.integers(min_value=0,
                             max_value=len(HARDEN_LADDER) - 1))
    def test_floor_is_respected(self, burns, floor):
        """No proposed target ever sits below the admissibility floor."""
        loop = make_loop(make_signal(burns))
        loop.policy.floor = floor
        entry = loop.step(4)
        if entry["reason"] == "migrated":
            position = [
                "%s/%s" % pair for pair in HARDEN_LADDER
            ].index(entry["chosen"])
            assert position >= floor


# -- end to end --------------------------------------------------------------
SHORT_SHIFT = ((120000.0, 60), (190000.0, 120))


class TestEndToEnd:
    def test_same_seed_same_journal(self):
        payloads = []
        for _ in range(2):
            run = run_autotune_redis(schedule=SHORT_SHIFT, slo_us=12.0,
                                     slo_objective=0.95, seed=3)
            assert run.journal.check()
            payloads.append(json.dumps(run.summary(), sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_fault_campaign_respects_cooldown(self):
        run = run_autotune_redis(
            mechanism="none", mpk_gate="full",
            schedule=((120000.0, 200),), slo_us=12.0,
            slo_objective=0.95, fault_burst=(60, 8), harden_after=2,
            cooldown_windows=16,
        )
        assert run.journal.check()
        hardened = [e for e in run.journal.entries
                    if e["reason"] == "hardened"]
        assert hardened, "fault burst must trip at least one harden"
        assert run.loop.policy.floor >= 1
        held = [e for e in run.journal.entries
                if e["reason"] == "cooldown"]
        committed = [e["window"] for e in run.journal.entries
                     if e["migration"]
                     and e["migration"]["outcome"] == "committed"]
        for earlier, later in zip(committed, committed[1:]):
            assert later - earlier >= 16
        # Either the burst resolved in one harden or later pressure was
        # journalled (held by cooldown or re-hardened after it).
        assert len(hardened) + len(held) >= 1
