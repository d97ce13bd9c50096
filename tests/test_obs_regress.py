"""Metric snapshots and ``obs diff``: flattening, deltas, CLI.

``obs diff`` is the tool for reading a change to a committed
``BENCH_*.json`` trajectory point metric by metric; the gate on those
points is that they regenerate byte-identically.  The acceptance case
here plants a synthetic +5% ``cycles_per_request`` regression in the
committed Redis snapshot and requires ``obs diff`` to name it.
"""

import io
import json
import os

import pytest

import benchmarks.common as bench_common
from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.obs import (
    SNAPSHOT_SCHEMA_VERSION,
    config_digest,
    diff_snapshots,
    flatten_metrics,
    load_snapshot,
)

RESULTS = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                       "results")


def snap(results, benchmark="bench", config=None, schema=None):
    """A snapshot payload shaped like ``write_metrics`` output."""
    config = config or {"n": 1}
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION if schema is None
        else schema,
        "benchmark": benchmark,
        "config": config,
        "config_digest": config_digest(config),
        "results": results,
    }


def write_snap(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return str(path)


class TestFlatten:
    def test_numeric_leaves_get_dotted_paths(self):
        flat = flatten_metrics(snap({
            "cycles": 10.5,
            "nested": {"a": 1, "b": [2, 3]},
            "ok": True,
            "note": "ignored",
            "nothing": None,
        }))
        assert flat == {
            "results.cycles": 10.5,
            "results.nested.a": 1,
            "results.nested.b.0": 2,
            "results.nested.b.1": 3,
            "results.ok": 1,
        }

    def test_metadata_keys_excluded(self):
        flat = flatten_metrics(snap({"x": 1}))
        assert all(not path.startswith(("schema_version", "config",
                                        "benchmark")) for path in flat)


class TestDiff:
    def test_identical_snapshots_all_ok(self):
        diff = diff_snapshots(snap({"x": 1, "y": 2.5}),
                              snap({"x": 1, "y": 2.5}))
        assert diff.changed() == []
        assert "no differences" in diff.to_text()

    def test_changed_added_removed(self):
        diff = diff_snapshots(snap({"x": 1, "gone": 3}),
                              snap({"x": 2, "new": 4}))
        by_status = {d.status: d for d in diff.deltas}
        assert by_status["changed"].path == "results.x"
        assert by_status["changed"].delta == 1
        assert by_status["changed"].relative == pytest.approx(1.0)
        assert by_status["removed"].path == "results.gone"
        assert by_status["added"].path == "results.new"
        assert "3 of 3 metrics differ" in diff.to_text()

    def test_refuses_cross_schema(self):
        with pytest.raises(ReproError, match="schema version"):
            diff_snapshots(snap({"x": 1}),
                           snap({"x": 1},
                                schema=SNAPSHOT_SCHEMA_VERSION + 1))

    def test_refuses_cross_benchmark(self):
        with pytest.raises(ReproError, match="benchmark"):
            diff_snapshots(snap({"x": 1}, benchmark="a"),
                           snap({"x": 1}, benchmark="b"))

    def test_refuses_cross_config(self):
        with pytest.raises(ReproError, match="config digest"):
            diff_snapshots(snap({"x": 1}, config={"requests": 10}),
                           snap({"x": 1}, config={"requests": 20}))


class TestSnapshotIo:
    def test_load_refuses_unversioned_payload(self, tmp_path):
        path = write_snap(tmp_path / "BENCH_x.json", {"results": {"x": 1}})
        with pytest.raises(ReproError, match="schema-versioned"):
            load_snapshot(path)

    def test_write_metrics_stamps_metadata(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_common, "RESULTS_DIR", str(tmp_path))
        path = bench_common.write_metrics(
            "demo", {"results": {"x": 1}}, config={"n": 3},
        )
        payload = load_snapshot(path)
        assert payload["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert payload["benchmark"] == "demo"
        assert payload["config"] == {"n": 3}
        assert payload["config_digest"] == config_digest({"n": 3})
        assert os.path.basename(path) == "BENCH_demo.json"


class TestCliGate:
    def run_cli(self, argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    def test_synthetic_regression_shows_in_obs_diff(self, tmp_path):
        """The acceptance case: +5% cycles/request against the real
        committed Redis snapshot is named metric by metric."""
        committed = os.path.join(RESULTS, "BENCH_functional_redis.json")
        payload = load_snapshot(committed)
        for point in payload["points"]:
            point["cycles_per_request"] *= 1.05
        current = write_snap(tmp_path / "BENCH_functional_redis.json",
                             payload)
        code, output = self.run_cli(["obs", "diff", committed, current])
        assert code == 0
        assert "functional_redis: %d of" % len(payload["points"]) in output
        for i in range(len(payload["points"])):
            assert "points.%d.cycles_per_request" % i in output
        assert "+5.00%" in output

    def test_every_committed_snapshot_diffs_clean_against_itself(self):
        names = sorted(name for name in os.listdir(RESULTS)
                       if name.startswith("BENCH_")
                       and name.endswith(".json"))
        assert names
        for name in names:
            path = os.path.join(RESULTS, name)
            code, output = self.run_cli(["obs", "diff", path, path])
            assert code == 0, name
            assert "no differences" in output, name

    def test_obs_diff_reports_deltas(self, tmp_path):
        a = write_snap(tmp_path / "a.json", snap({"cycles": 100}))
        b = write_snap(tmp_path / "b.json", snap({"cycles": 110}))
        code, output = self.run_cli(["obs", "diff", a, b])
        assert code == 0
        assert "results.cycles" in output
        assert "+10.00%" in output

    def test_obs_diff_refuses_cross_config(self, tmp_path):
        a = write_snap(tmp_path / "a.json",
                       snap({"x": 1}, config={"n": 1}))
        b = write_snap(tmp_path / "b.json",
                       snap({"x": 1}, config={"n": 2}))
        code, output = self.run_cli(["obs", "diff", a, b])
        assert code == 1
        assert "error" in output
        assert "config digest" in output

    def test_obs_report_json_attribution_sums(self):
        """End-to-end acceptance: the reported critical path's per-pair
        cycles sum to within 1% of the total gate cycles."""
        code, output = self.run_cli([
            "obs", "report", "redis", "--requests", "15", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(output)
        path = payload["critical_path"]
        attributed = sum(p["cycles"] for p in path["pairs"])
        assert attributed == pytest.approx(path["total_gate_cycles"],
                                           rel=0.01)
        assert path["total_gate_cycles"] > 0

    def test_obs_report_text(self):
        code, output = self.run_cli([
            "obs", "report", "sqlite", "--requests", "10",
            "--mechanism", "vm-ept",
        ])
        assert code == 0
        assert "critical path" in output
        assert "crossing matrix" in output
        assert "top callee libraries" in output
