"""The closed loop: sample telemetry, consult policies, pace migrations.

:class:`AutotuneLoop` is the only component allowed to call
:meth:`~repro.reconfig.engine.ReconfigurationEngine.migrate`; the
autotune policy (:class:`~repro.autotune.policy.AutotunePolicy`) only
*decides*, and the supervisor's :class:`~repro.faults.supervisor
.HardenPolicy` only *queues* fault pressure.  That split is what makes
the pacing invariants checkable: the loop samples every
``every_windows`` telemetry windows, and after any committed migration
refuses further migrations — harden or autotune — until
``cooldown_windows`` windows have passed, journalling the held-back
decision instead.

Fault pressure outranks performance: when the harden queue is non-empty,
the loop drains it, picks the next ladder rung with
:func:`~repro.reconfig.harden.harden_target`, and journals that instead
of the autotune decision; a committed harden raises the autotune
policy's admissibility floor so the tuner can never undo the hardening.

The loop runs as an ordinary cooperative thread
(:meth:`AutotuneLoop.thread_body` plugs into ``run_load``'s
``background=`` hook), so every decision happens at a deterministic
virtual-clock point: same seed, same journal, byte for byte.
"""

from __future__ import annotations

from repro.autotune.journal import DecisionJournal
from repro.autotune.policy import rung_name
from repro.errors import ConfigError
from repro.kernel.sched import yield_
from repro.reconfig.harden import harden_target, ladder_position


def signal_digest(signal):
    """The compact signal snapshot a journal entry embeds."""
    if not signal:
        return {"windows": 0, "requests": 0.0, "gate_share": 0.0,
                "burn": {}}
    windows = signal.get("windows", ())
    decomposition = signal.get("decomposition") or {"shares": {}}
    return {
        "windows": len(windows),
        "requests": sum(w.get("requests", 0.0) for w in windows),
        "gate_share": decomposition["shares"].get("gate_cycles", 0.0),
        "burn": {name: slo["overall_burn"]
                 for name, slo in (signal.get("slo") or {}).items()},
    }


class AutotuneLoop:
    """Drive reconfiguration from a live TelemetryHub."""

    def __init__(self, hub, engine, policy, harden_policy=None,
                 every_windows=4, cooldown_windows=8, journal=None):
        if every_windows < 1:
            raise ConfigError("every_windows must be >= 1")
        if cooldown_windows < 0:
            raise ConfigError("cooldown_windows must be >= 0")
        self.hub = hub
        self.engine = engine
        self.policy = policy
        self.harden_policy = harden_policy
        self.every_windows = int(every_windows)
        self.cooldown_windows = int(cooldown_windows)
        self.journal = journal if journal is not None else DecisionJournal()
        self.steps = 0
        self.migrations = 0
        self.fresh_evaluations = 0
        self.cache_hits = 0
        #: No migration may be issued before this window index.
        self.cooldown_until = 0
        self._last_report = None
        engine.add_report_hook(self._on_report)

    # -- engine feedback ---------------------------------------------------

    def _on_report(self, report):
        self._last_report = {
            "outcome": report.outcome,
            "phase_reached": report.phase_reached,
            "steps_applied": report.steps_applied,
            "blackout_cycles": report.blackout_cycles,
            "source": report.plan.source_mechanism,
            "target": report.plan.target_mechanism,
        }

    def _take_report(self):
        report, self._last_report = self._last_report, None
        return report

    # -- one sampled step --------------------------------------------------

    def _execute(self, window, target):
        """Migrate now; returns the journal-ready outcome dict."""
        self._last_report = None
        self.engine.migrate(target)
        outcome = self._take_report()
        if outcome is None:  # hook never fired; should not happen
            outcome = {"outcome": "unknown"}
        if outcome.get("outcome") == "committed":
            self.migrations += 1
            self.cooldown_until = window + self.cooldown_windows
        return outcome

    def step(self, window):
        """Sample the hub once and act; called from the loop thread."""
        signal = self.hub.evaluator_input()
        digest = signal_digest(signal)
        in_cooldown = window < self.cooldown_until
        pending = (self.harden_policy.take_pending()
                   if self.harden_policy is not None else [])
        if pending:
            entry = self._step_harden(window, pending, digest, in_cooldown)
        else:
            entry = self._step_autotune(signal, window, digest, in_cooldown)
        self.steps += 1
        return entry

    def _step_harden(self, window, pending, digest, in_cooldown):
        instance = self.engine.instance
        common = dict(window=window, policy="harden-on-fault",
                      current=self.policy.current_rung(instance),
                      trigger={"kind": "fault-pressure",
                               "compartments": pending},
                      signal=digest,
                      cooldown_until_window=self.cooldown_until)
        target = harden_target(instance.image.config)
        if target is None:
            return self.journal.record(reason="at-ladder-top", **common)
        if in_cooldown:
            return self.journal.record(reason="cooldown", **common)
        chosen = rung_name(target.mechanism, target.mpk_gate)
        outcome = self._execute(window, target)
        if outcome.get("outcome") == "committed":
            # Hardening is a floor, not a suggestion: the tuner may
            # never propose anything weaker from here on.
            position = ladder_position(target.mechanism, target.mpk_gate)
            if position > self.policy.floor:
                self.policy.floor = position
            common["cooldown_until_window"] = self.cooldown_until
        return self.journal.record(reason="hardened", chosen=chosen,
                                   migration=outcome, **common)

    def _step_autotune(self, signal, window, digest, in_cooldown):
        decision = self.policy.decide(self.engine.instance, signal, window)
        self.fresh_evaluations += decision.fresh_evaluations
        self.cache_hits += decision.cache_hits
        common = dict(window=window, policy=self.policy.name,
                      current=decision.current, trigger=decision.trigger,
                      ranking=decision.ranking, signal=digest,
                      cooldown_until_window=self.cooldown_until)
        if decision.reason != "migrate":
            return self.journal.record(reason=decision.reason, **common)
        if in_cooldown:
            return self.journal.record(reason="cooldown", **common)
        outcome = self._execute(window, decision.target)
        common["cooldown_until_window"] = self.cooldown_until
        return self.journal.record(reason="migrated",
                                   chosen=decision.chosen,
                                   migration=outcome, **common)

    # -- scheduling --------------------------------------------------------

    def thread_body(self, ctx):
        """A ``run_load`` background body sampling every N windows."""
        clock = ctx["clock"]
        served = ctx["served"]
        total = ctx["n_requests"]
        window_cycles = self.hub.timeseries.window_cycles

        def body():
            next_sample = self.every_windows
            while served() < total:
                window = int(clock.cycles // window_cycles)
                if window >= next_sample:
                    self.step(window)
                    next_sample = window + self.every_windows
                yield yield_()
            return self.steps

        return body
