"""Smoke tests of the benchmark suite.

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

Every workload runs once at N=100 (plus its traced run) in child
processes, which takes a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.suite import compare
from benchmarks.suite.__main__ import summary_line, units
from benchmarks.suite.runner import (
    ROOT,
    WALL_METRICS,
    benchmark_spec,
    run,
    stamp,
)
from benchmarks.suite.stats import percentile
from benchmarks.suite.workloads import WORKLOADS
from repro.bench.load import LoadResult
from repro.hw.clock import Clock


def _latencies(n):
    return LoadResult("redis", "none", "open", 1000.0, n, n, range(n), 0, 1,
                      0, Clock(), 2, [], 0)


def test_percentile_needs_ten_samples_beyond_its_rank():
    small = _latencies(96)
    assert percentile(small, 99) is None      # rank 96: the maximum
    assert percentile(small, 50) == 47        # rank 48, 48 beyond
    large = _latencies(1200)
    assert percentile(large, 99) == 1187      # rank 1188, 12 beyond


def test_benchmark_json_names_the_suite():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == \
        [w.name for w in WORKLOADS]
    assert [m["name"] for m in spec["end_to_end"]] == list(WALL_METRICS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return run(WORKLOADS, 1, trace=True, rounds=1, n_requests=100,
               out_dir=tmp_path_factory.mktemp("out"))


def test_smoke_run_checks_out(smoke):
    assert smoke["correct"], {name: result["errors"] for name, result
                              in smoke["workloads"].items()}
    for result in smoke["workloads"].values():
        assert result["failed"] == 0
        assert result["end_to_end"]["error_rate"]["value"] == 0.0


def test_smoke_metric_names_and_units(smoke):
    spec = benchmark_spec()
    unit_of = units(spec)
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    for workload in WORKLOADS:
        result = smoke["workloads"][workload.name]
        expected = set(WALL_METRICS) | {"sim_rps_unscaled", "virt_rps",
                                        "virt_n", "error_rate"}
        if workload.rate_rps is not None:
            expected.add("virt_p50_us")  # p99 needs more than N=100
        assert set(result["end_to_end"]) == expected
        assert set(result["per_layer"]) <= per_layer
        assert all(name in unit_of for name in result["per_layer"])
        for trace in (0, 1):
            line = json.loads(summary_line(smoke, workload.name, spec,
                                           trace))
            listed = spec["per_layer"] if trace else spec["end_to_end"]
            assert list(line["metrics"]) == [m["name"] for m in listed]
            assert line["attempted"] >= 1


def test_smoke_self_shares_partition_the_run(smoke):
    for result in smoke["workloads"].values():
        shares = [value for name, value in result["per_layer"].items()
                  if name.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) <= 0.01


def test_smoke_layers_left_alone(smoke):
    layers = {name: result["per_layer"]
              for name, result in smoke["workloads"].items()}
    assert "kernel.net.calls_per_req" not in layers["sqlite-insert-ept"]
    assert "core.gates.calls_per_req" not in layers["nginx-get-open"]
    assert layers["nginx-get-open"]["core.gates.crossings_per_req"] == 0
    for name, metrics in layers.items():
        assert ("obs.calls_per_req" in metrics) == (name == "redis-get-hub")


def _document(samples, virt_rps=1000.0, commit="a"):
    return {
        "stamp": {"commit": commit, "seed": 1, "rounds": 7},
        "workloads": {"w": {"end_to_end": {
            "sim_rps": {"value": max(samples), "samples": samples,
                        "spread": (max(samples) - min(samples))
                        / sorted(samples)[len(samples) // 2]},
            "virt_rps": {"value": virt_rps},
            "error_rate": {"value": 0.0},
        }}},
    }


@pytest.mark.parametrize("a, b, virt_rps, sim_label, virt_label", [
    ([100, 101, 102], [100, 101, 102], 1000.0, "same", "same"),
    ([100, 101, 102], [80, 81, 82], 1000.0, "worse", "same"),
    ([100, 101, 102], [120, 121, 122], 1000.0, "better", "same"),
    ([60, 100, 140], [50, 90, 130], 1000.0, "unresolved", "same"),
    ([60, 100, 140], [150, 160, 170], 1000.0, "better", "same"),
    ([100, 101, 102], [100, 101, 102], 999.0, "same", "worse"),
])
def test_compare_labels(a, b, virt_rps, sim_label, virt_label):
    rows = compare.compare(_document(a), _document(b, virt_rps),
                           benchmark_spec())
    labels = {metric: verdict for _, metric, _, _, _, _, verdict in rows}
    assert labels == {"sim_rps": sim_label, "virt_rps": virt_label,
                      "error_rate": "same"}


def _write(tmp_path, a, b):
    paths = []
    for name, document in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as handle:
            json.dump(document, handle)
    return paths


def test_compare_refuses_different_stamps(tmp_path):
    a, b = _document([100, 101]), _document([100, 101], commit="b")
    b["stamp"]["seed"] = 2
    assert compare.stamp_differences(a, b) == ["seed"]
    assert compare.main(_write(tmp_path, a, b)) == 2


def test_compare_accepts_timed_runs_of_different_lengths(tmp_path):
    # A faster commit fits more samples into the same --seconds budget.
    a, b = _document([100, 101]), _document([100, 101, 102], commit="b")
    for document in (a, b):
        document["stamp"] = stamp(1, {"w": 100}, rounds=None, seconds=20.0)
    b["stamp"]["commit"] = "b"
    assert compare.stamp_differences(a, b) == []
    assert compare.main(_write(tmp_path, a, b)) == 0


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "suite",
                    tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "--workload",
         "redis-get-mpk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
