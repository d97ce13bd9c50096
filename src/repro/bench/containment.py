"""The containment scorecard: identical fault campaigns across backends.

Runs the *same* :class:`~repro.faults.campaign.FaultPlan` (same seed,
same kinds, same targets) against each isolation backend and tabulates
how many injected faults were detected, contained, leaked, or recovered.
The paper's security claim in one table: hardware-enforced backends
(MPK, EPT) turn every cross-compartment stray access into a protection
fault, while the ``none`` backend — function-call gates, no hardware
isolation — lets all of them through.
"""

from __future__ import annotations

from repro.bench.tables import format_table
from repro.faults.campaign import CampaignConfig, run_campaign

#: The backend sweep every scorecard runs, in display order.
SCORECARD_BACKENDS = (
    ("none", "full"),
    ("intel-mpk", "light"),
    ("intel-mpk", "full"),
    ("vm-ept", "full"),
)


def run_scorecard(seed=1, n_faults=40, policy="propagate", kinds=None,
                  backends=SCORECARD_BACKENDS):
    """Run one campaign per backend; returns a list of CampaignResult."""
    results = []
    for mechanism, mpk_gate in backends:
        config = CampaignConfig(
            mechanism=mechanism, mpk_gate=mpk_gate, policy=policy,
            seed=seed, n_faults=n_faults, kinds=kinds,
        )
        results.append(run_campaign(config))
    return results


def scorecard_rows(results):
    """Tabular view of a scorecard run."""
    rows = []
    for result in results:
        counts = result.counters()
        rows.append({
            "backend": result.config.name,
            "injected": counts["injected"],
            "detected": counts["detected"],
            "contained": counts["contained"],
            "leaked": counts["leaked"],
            "recovered": counts["recovered"],
            "x-comp contained": "%d/%d" % (counts["xcomp_contained"],
                                           counts["xcomp_injected"]),
            "containment": "%.1f%%" % (100.0 * result.containment_rate()),
            "cycles/fault": "%.0f" % result.mean_cycles_per_fault(),
        })
    return rows


def format_scorecard(results, title="fault containment scorecard"):
    """Render a scorecard run as the standard results table + details."""
    seed = results[0].config.seed if results else "-"
    n = len(results[0].records) if results else 0
    lines = [
        format_table(
            scorecard_rows(results),
            title="%s (seed=%s, %d faults per backend)" % (title, seed, n),
        ),
        "",
        "cross-compartment faults are stray reads/writes and corrupted",
        "(Iago) return values; 'contained' means the victim compartment's",
        "data stayed untouched and the instance kept serving afterwards.",
    ]
    return "\n".join(lines)
