"""Live isolation reconfiguration (crash-safe layout migration).

FlexOS moves isolation decisions from design time to build time; this
package moves them once more, to *run* time: a booted
:class:`~repro.core.vm.FlexOSInstance` can migrate between isolation
layouts (mechanism, gate flavour, allocators, hardening) while serving
traffic, under a two-phase PREPARE → QUIESCE → COMMIT → RESUME protocol
that rolls back to the source layout on any mid-migration fault.

See ``docs/reconfiguration.md`` for the state machine and the atomicity
invariant, and :mod:`repro.reconfig.harden` for the harden-on-fault
ladder.  The supervisor's :class:`~repro.faults.supervisor.HardenPolicy`
is the one harden-on-fault decider: it queues faulting compartments,
and the caller that drains the queue picks the next rung with
:func:`harden_target` and owns the migration.
"""

from repro.reconfig.engine import (
    DEFAULT_DRAIN_TIMEOUT_CYCLES,
    PHASES,
    MigrationReport,
    ReconfigurationEngine,
    injection_points,
    layout_fingerprint,
)
from repro.reconfig.harden import HARDEN_LADDER, harden_target
from repro.reconfig.plan import (
    MIGRATABLE_MECHANISMS,
    ReconfigStep,
    ReconfigurationPlan,
)

__all__ = [
    "DEFAULT_DRAIN_TIMEOUT_CYCLES",
    "HARDEN_LADDER",
    "MIGRATABLE_MECHANISMS",
    "MigrationReport",
    "PHASES",
    "ReconfigStep",
    "ReconfigurationEngine",
    "ReconfigurationPlan",
    "harden_target",
    "injection_points",
    "layout_fingerprint",
]
