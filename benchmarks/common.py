"""Shared helpers for the figure/table benchmarks.

Each benchmark regenerates one of the paper's tables or figures: it runs
the harness under pytest-benchmark (so the cost of reproducing the
experiment itself is tracked), prints the reproduced rows/series, and
writes them to ``benchmarks/results/<name>.txt`` so the output survives
pytest's capture.

Every benchmark additionally leaves a machine-readable **trajectory
point** behind: :func:`run_recorded` (or a direct :func:`write_metrics`
call) dumps the run's deterministic numbers to
``benchmarks/results/BENCH_<name>.json``, stamped with the snapshot
schema version and a digest of the benchmark's configuration.  Every
file under ``benchmarks/results/`` is committed and must regenerate
byte-identically: CI reruns the benchmarks and fails on any
``git diff``, and a change is blessed by rerunning the benchmarks and
committing the regenerated files.  ``obs diff``
(:mod:`repro.obs.regress`) reads a changed point metric by metric.
Only virtual-clock-derived values belong in a trajectory point;
wall-clock timings are pytest-benchmark's business and are never
written here.
"""

from __future__ import annotations

import json
import os

from repro.obs.regress import SNAPSHOT_SCHEMA_VERSION, config_digest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name, text):
    """Persist and echo one experiment's reproduced output."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s.txt" % name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + text)
    return path


def write_metrics(name, payload, config=None):
    """Persist one run's trajectory point as ``BENCH_<name>.json``.

    The payload is stamped with ``schema_version``, the emitting
    benchmark's ``name``, and its ``config`` plus a stable
    ``config_digest`` — which is what lets ``obs diff`` refuse
    cross-schema or cross-configuration comparisons instead of
    producing nonsense deltas.  The JSON files sit next to the text
    results so each PR's benchmark run leaves a machine-readable
    trajectory point in version control.
    """
    payload = dict(payload)
    config = dict(config or {})
    payload["schema_version"] = SNAPSHOT_SCHEMA_VERSION
    payload["benchmark"] = name
    payload["config"] = config
    payload["config_digest"] = config_digest(config)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_%s.json" % name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def run_recorded(benchmark, name, fn, summarize=None, config=None,
                 pedantic=None):
    """Run one experiment under pytest-benchmark, leaving a trajectory point.

    Args:
        benchmark: the pytest-benchmark fixture.
        name: result/trajectory name (``BENCH_<name>.json``).
        fn: zero-argument callable performing the experiment.
        summarize: maps ``fn``'s return value to the JSON-serialisable
            dict recorded as the point's ``results`` (identity when
            omitted — then ``fn`` must already return plain data).
        config: the knobs that define this experiment (request counts,
            seeds, mechanisms ...); digested into the snapshot so
            ``obs diff`` only compares like with like.
        pedantic: kwargs for ``benchmark.pedantic`` instead of plain
            ``benchmark(fn)`` (e.g. ``{"rounds": 1, "iterations": 1}``).

    Returns ``fn``'s result, so assertions run on the same object the
    trajectory point summarised.
    """
    if pedantic is not None:
        result = benchmark.pedantic(fn, rounds=pedantic.get("rounds", 1),
                                    iterations=pedantic.get("iterations", 1))
    else:
        result = benchmark(fn)
    results = summarize(result) if summarize is not None else result
    write_metrics(name, {"results": results}, config=config)
    return result
