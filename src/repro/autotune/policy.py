"""The autotune policy: rank harden-ladder layouts against live telemetry.

:class:`AutotunePolicy` is the telemetry-driven half of the closed
loop.  Each decision it:

1. checks the *triggers* — recent-window SLO burn, or the gate share of
   the latency decomposition — against thresholds;
2. if one fired, prices every admissible ladder rung with a
   :class:`~repro.explore.evaluators.LiveEvaluator` built from the
   sampled signal, through the ordinary :func:`~repro.explore.explorer
   .explore` engine (so rankings cache, pickle and sweep exactly like
   offline explorations);
3. applies *hysteresis*: migrate only when the best rung beats the
   current rung's own predicted value by ``min_improvement`` (absolute,
   in objective units), so noise never thrashes the engine.

Admissibility is a ladder *floor* (:attr:`AutotunePolicy.floor`,
starting at the ladder's bottom): the loop, its one writer, raises it
when fault pressure hardens the instance, and the policy then never
proposes a layout below it — fault history constrains what performance
tuning may pick, the paper's safety-first ordering applied at run time.
Fault pressure itself is not decided here: the supervisor's
:class:`~repro.faults.supervisor.HardenPolicy` queues it and the loop
serves it first.

Every decision — migration or not — is returned as a rich
:class:`Decision` so the loop can journal the full chain: signal
snapshot, trigger, candidate ranking, chosen target, reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.apps.base import ComponentLayout
from repro.errors import ConfigError
from repro.explore.evaluators import LiveEvaluator
from repro.explore.explorer import ExplorationRequest, explore
from repro.explore.measurement import OBJECTIVES
from repro.reconfig.driver import reconfig_config
from repro.reconfig.harden import HARDEN_LADDER, ladder_position

#: Components priced as "everything not isolated" in ladder layouts.
CORE_GROUP = ("core",)

#: Budget low enough that exploration labels every candidate instead of
#: pruning: the autotuner needs the full ranking for its journal.
RANK_EVERYTHING = -1e18


def rung_name(mechanism, mpk_gate):
    """Canonical ``mechanism/gate`` label for a ladder rung.

    Off-ladder layouts keep their raw pair (so journals stay honest);
    non-MPK mechanisms normalise to the ladder's gate spelling.
    """
    pos = ladder_position(mechanism, mpk_gate)
    if pos < 0:
        return "%s/%s" % (mechanism, mpk_gate)
    mech, gate = HARDEN_LADDER[pos]
    return "%s/%s" % (mech, gate)


def ladder_layouts(isolate=("lwip",)):
    """One two-group :class:`ComponentLayout` per harden-ladder rung.

    The partition mirrors :func:`~repro.reconfig.driver.reconfig_config`
    (default core group + one isolated group), so a layout's name maps
    one-to-one onto a migratable SafetyConfig.
    """
    partition = (frozenset(CORE_GROUP), frozenset(isolate))
    return [
        ComponentLayout(
            "%s/%s" % (mechanism, gate), partition,
            mechanism=mechanism, mpk_gate=gate, sharing="dss",
        )
        for mechanism, gate in HARDEN_LADDER
    ]


@dataclass
class Decision:
    """One complete autotune step, journal-ready."""

    #: Telemetry window index the decision was taken at.
    window: int
    #: Canonical rung name the instance is currently on.
    current: str
    #: Machine-readable trigger (``kind`` key), or ``None``.
    trigger: Any = None
    #: Full candidate ranking, best first: ``{layout, value, predicted}``.
    ranking: list = field(default_factory=list)
    #: Rung name migrated to, or ``None`` when staying put.
    chosen: Any = None
    #: Why: ``no-signal`` | ``no-trigger`` | ``already-best`` |
    #: ``hysteresis`` | ``migrate``.
    reason: str = "no-trigger"
    #: The SafetyConfig to migrate to (``reason == "migrate"`` only).
    target: Any = None
    #: Evaluator calls this decision actually ran / answered from cache.
    fresh_evaluations: int = 0
    cache_hits: int = 0


class AutotunePolicy:
    """Telemetry-triggered exploration over the harden ladder."""

    #: The ``policy`` field of this policy's journal entries.
    name = "autotune"

    def __init__(self, burn_threshold=1.0, gate_share_threshold=0.6,
                 min_improvement=0.02, recent_windows=4,
                 objective="slo_headroom", slo_name=None,
                 isolate=("lwip",), cache=None):
        if objective not in OBJECTIVES:
            raise ConfigError(
                "unknown objective %r (one of: %s)"
                % (objective, ", ".join(OBJECTIVES))
            )
        if recent_windows < 1:
            raise ConfigError("recent_windows must be >= 1")
        self.burn_threshold = float(burn_threshold)
        self.gate_share_threshold = float(gate_share_threshold)
        self.min_improvement = float(min_improvement)
        self.recent_windows = int(recent_windows)
        self.objective = objective
        self.slo_name = slo_name
        self.isolate = tuple(isolate)
        self.cache = cache
        #: Lowest admissible ladder rung; raised by the loop on harden.
        self.floor = 0
        self.layouts = ladder_layouts(self.isolate)

    # -- signal plumbing ---------------------------------------------------

    def _slo(self, signal):
        """(name, slo-dict) of the SLO this policy watches, or (None, None)."""
        slos = signal.get("slo") or {}
        if self.slo_name is not None:
            if self.slo_name not in slos:
                raise ConfigError(
                    "signal has no SLO %r (have: %s)"
                    % (self.slo_name, ", ".join(sorted(slos)) or "none")
                )
            return self.slo_name, slos[self.slo_name]
        if not slos:
            return None, None
        name = sorted(slos)[0]
        return name, slos[name]

    def _trigger(self, signal):
        """The trigger dict when a threshold is crossed, else ``None``."""
        name, _slo = self._slo(signal)
        if name is not None:
            active = [w for w in signal["windows"]
                      if w.get("requests", 0) > 0]
            recent = active[-self.recent_windows:]
            if recent:
                burn = (sum(w["burn"].get(name, 0.0) for w in recent)
                        / len(recent))
                if burn >= self.burn_threshold:
                    return {"kind": "slo-burn", "slo": name, "burn": burn,
                            "threshold": self.burn_threshold,
                            "windows": len(recent)}
        share = signal["decomposition"]["shares"].get("gate_cycles", 0.0)
        if share >= self.gate_share_threshold:
            return {"kind": "gate-share", "share": share,
                    "threshold": self.gate_share_threshold}
        return None

    def current_rung(self, instance):
        """Canonical rung name of the instance's booted layout."""
        image = instance.image
        return rung_name(image.backend_name, image.config.mpk_gate)

    # -- ranking -----------------------------------------------------------

    def _rank(self, instance, signal):
        """Explore admissible rungs under the live signal; best first."""
        name, slo = self._slo(signal)
        threshold = error_budget = None
        if slo is not None and slo.get("target"):
            threshold = slo["target"]["threshold_cycles"]
            error_budget = 1.0 - slo["target"]["objective"]
        objective = self.objective
        if threshold is None and objective == "slo_headroom":
            objective = "throughput"  # headroom is undefined without an SLO
        image = instance.image
        evaluator = LiveEvaluator(
            signal, image.backend_name,
            source_mpk_gate=image.config.mpk_gate,
            slo_threshold_cycles=threshold,
            error_budget=(error_budget if error_budget else 0.01),
            objective=objective,
        )
        candidates = self.layouts[self.floor:]
        result = explore(ExplorationRequest(
            layouts=candidates, evaluator=evaluator,
            budget=RANK_EVERYTHING, assume_monotonic=False,
            cache=self.cache,
        ))
        ranking = sorted(
            (
                {"layout": layout_name,
                 "value": measurement.value,
                 "predicted": dict(measurement.meta.get("predicted", {}))}
                for layout_name, measurement in result.measurements.items()
            ),
            key=lambda row: (-row["value"], row["layout"]),
        )
        return ranking, result

    # -- decisions ---------------------------------------------------------

    def decide(self, instance, signal, window):
        """The full :class:`Decision` for one sampled window."""
        if not signal or not any(
            w.get("requests", 0) > 0 for w in signal.get("windows", ())
        ):
            current = (self.current_rung(instance)
                       if instance is not None else "unknown")
            return Decision(window, current, reason="no-signal")
        current = self.current_rung(instance)
        trigger = self._trigger(signal)
        if trigger is None:
            return Decision(window, current, reason="no-trigger")
        ranking, result = self._rank(instance, signal)
        best = ranking[0]
        stats = {"fresh_evaluations": result.fresh_evaluations,
                 "cache_hits": result.cache_hits}
        if best["layout"] == current:
            return Decision(window, current, trigger, ranking,
                            reason="already-best", **stats)
        current_value = next(
            (row["value"] for row in ranking if row["layout"] == current),
            None,
        )
        if (current_value is not None
                and best["value"] - current_value < self.min_improvement):
            return Decision(window, current, trigger, ranking,
                            reason="hysteresis", **stats)
        mechanism, gate = best["layout"].split("/")
        target = reconfig_config(mechanism, gate, isolate=self.isolate)
        return Decision(window, current, trigger, ranking,
                        chosen=best["layout"], reason="migrate",
                        target=target, **stats)
