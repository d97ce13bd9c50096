"""Perf-regression verdicts over schema-versioned metric snapshots.

The benchmarks leave ``BENCH_<name>.json`` trajectory points behind
(:func:`benchmarks.common.write_metrics`); this module turns pairs of
those snapshots into answers:

* :func:`diff_snapshots` — per-metric absolute and relative deltas
  between two snapshots of the *same* benchmark, schema and
  configuration (anything else raises :class:`~repro.errors.ReproError`
  rather than producing a nonsense comparison);
* :func:`check_snapshot` — regression verdicts against a committed
  baseline.  Virtual cycles are deterministic, so the default tolerance
  is **zero**: any unexplained change — in either direction — fails.
  Intentional changes are blessed either by re-recording the baseline or
  by an explicit per-metric allowlist (``fnmatch`` patterns over dotted
  metric paths, e.g. ``points.*.metrics.counters.pkru_writes``);
* :func:`check_baselines` — the CI perf gate: every snapshot under
  ``benchmarks/results/baselines/`` is checked against the
  freshly-generated result of the same name.

Only numeric leaves are compared; the metadata keys ``write_metrics``
embeds (``schema_version``, ``benchmark``, ``config``,
``config_digest``) gate comparability instead of being diffed.
"""

from __future__ import annotations

import fnmatch
import json
import os

from repro.bench.tables import format_table
from repro.errors import ReproError

#: Version of the ``BENCH_*.json`` trajectory-point layout.  Bump when
#: the payload shape changes incompatibly; ``diff``/``check`` refuse to
#: compare across versions.
SNAPSHOT_SCHEMA_VERSION = 2

#: Top-level payload keys that describe the snapshot rather than
#: measure anything — excluded from the metric diff.
METADATA_KEYS = ("schema_version", "benchmark", "config", "config_digest")

#: Name of the optional allowlist file next to the committed baselines.
ALLOWLIST_FILE = "allowlist.json"


def config_digest(config):
    """Short stable digest of a benchmark's configuration dict."""
    # Imported here: every simulator process imports this module through
    # ``repro.obs``, and hashlib (OpenSSL) is a few milliseconds of
    # start-up that only digesting callers need.
    import hashlib

    payload = json.dumps(config or {}, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def flatten_metrics(payload):
    """``{dotted.path: number}`` for every numeric leaf of a snapshot.

    Dicts recurse by key, lists by index; booleans count as numbers
    (a flipped invariant is a regression too); strings and nulls are
    descriptive and skipped.  Top-level metadata keys are excluded.
    """
    flat = {}

    def walk(node, prefix):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], "%s.%s" % (prefix, key) if prefix else key)
        elif isinstance(node, (list, tuple)):
            for i, item in enumerate(node):
                walk(item, "%s.%d" % (prefix, i))
        elif isinstance(node, bool):
            flat[prefix] = int(node)
        elif isinstance(node, (int, float)):
            flat[prefix] = node

    for key in sorted(payload):
        if key not in METADATA_KEYS:
            walk(payload[key], key)
    return flat


def load_snapshot(path):
    """Read one ``BENCH_*.json`` snapshot; refuse unversioned payloads."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ReproError(
            "%s is not a schema-versioned metric snapshot (re-run the "
            "benchmark to regenerate it with write_metrics)" % path
        )
    return payload


def _require_comparable(a, b, a_label="a", b_label="b"):
    """Raise unless two snapshots may be meaningfully compared."""
    for key, what in (("schema_version", "schema version"),
                      ("benchmark", "benchmark"),
                      ("config_digest", "config digest")):
        left, right = a.get(key), b.get(key)
        if left != right:
            raise ReproError(
                "refusing to compare snapshots across %ss: "
                "%s has %s=%r, %s has %s=%r"
                % (what, a_label, key, left, b_label, key, right)
            )


class MetricDelta:
    """One metric's change between baseline and current snapshot."""

    __slots__ = ("path", "baseline", "current", "status")

    def __init__(self, path, baseline, current, status):
        self.path = path
        self.baseline = baseline
        self.current = current
        self.status = status  # ok | changed | allowed | added | removed

    @property
    def delta(self):
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def relative(self):
        if self.delta is None or not self.baseline:
            return None
        return self.delta / self.baseline

    def row(self):
        rel = self.relative
        return {
            "metric": self.path,
            "baseline": "-" if self.baseline is None else
                        "%g" % self.baseline,
            "current": "-" if self.current is None else "%g" % self.current,
            "delta": "-" if self.delta is None else "%+g" % self.delta,
            "rel": "-" if rel is None else "%+.2f%%" % (100.0 * rel),
            "status": self.status,
        }

    def __repr__(self):
        return "MetricDelta(%s: %r -> %r, %s)" % (
            self.path, self.baseline, self.current, self.status,
        )


class SnapshotDiff:
    """All metric deltas between two comparable snapshots."""

    def __init__(self, benchmark, deltas):
        self.benchmark = benchmark
        self.deltas = deltas

    def changed(self):
        return [d for d in self.deltas if d.status != "ok"]

    def to_text(self, include_unchanged=False):
        shown = self.deltas if include_unchanged else self.changed()
        if not shown:
            return ("%s: %d metrics compared, no differences"
                    % (self.benchmark, len(self.deltas)))
        title = "%s: %d of %d metrics differ" % (
            self.benchmark, len(self.changed()), len(self.deltas),
        )
        return format_table([d.row() for d in shown], title=title)

    def __repr__(self):
        return "SnapshotDiff(%s, %d changed of %d)" % (
            self.benchmark, len(self.changed()), len(self.deltas),
        )


def diff_snapshots(baseline, current, baseline_label="baseline",
                   current_label="current"):
    """Per-metric deltas between two snapshot payloads (same benchmark)."""
    _require_comparable(baseline, current, baseline_label, current_label)
    base_flat = flatten_metrics(baseline)
    cur_flat = flatten_metrics(current)
    deltas = []
    for path in sorted(set(base_flat) | set(cur_flat)):
        in_base, in_cur = path in base_flat, path in cur_flat
        if in_base and in_cur:
            status = "ok" if base_flat[path] == cur_flat[path] else "changed"
            deltas.append(MetricDelta(path, base_flat[path],
                                      cur_flat[path], status))
        elif in_base:
            deltas.append(MetricDelta(path, base_flat[path], None,
                                      "removed"))
        else:
            deltas.append(MetricDelta(path, None, cur_flat[path], "added"))
    return SnapshotDiff(current.get("benchmark", "?"), deltas)


def _allowed(path, allow):
    return any(fnmatch.fnmatchcase(path, pattern) for pattern in allow)


class SnapshotVerdict:
    """Regression verdict for one benchmark against its baseline."""

    def __init__(self, benchmark, diff, allow=(), error=None):
        self.benchmark = benchmark
        self.diff = diff
        self.error = error
        self.regressions = []
        self.allowed = []
        if diff is not None:
            for delta in diff.changed():
                if _allowed(delta.path, allow):
                    delta.status = "allowed"
                    self.allowed.append(delta)
                else:
                    self.regressions.append(delta)

    @property
    def ok(self):
        return self.error is None and not self.regressions

    def summary_line(self):
        if self.error is not None:
            return "FAIL %s: %s" % (self.benchmark, self.error)
        if self.regressions:
            return ("FAIL %s: %d unexplained metric change(s), %d allowed"
                    % (self.benchmark, len(self.regressions),
                       len(self.allowed)))
        return "ok   %s: %d metrics match baseline%s" % (
            self.benchmark, len(self.diff.deltas),
            ", %d allowed change(s)" % len(self.allowed)
            if self.allowed else "",
        )

    def to_text(self):
        lines = [self.summary_line()]
        flagged = self.regressions + self.allowed
        if flagged:
            lines.append(format_table([d.row() for d in flagged]))
        return "\n".join(lines)


def check_snapshot(baseline, current, allow=(), name=None):
    """Zero-tolerance regression check of ``current`` against ``baseline``."""
    benchmark = name or current.get("benchmark", "?")
    try:
        diff = diff_snapshots(baseline, current)
    except ReproError as exc:
        return SnapshotVerdict(benchmark, None, error=str(exc))
    return SnapshotVerdict(benchmark, diff, allow=allow)


def load_allowlist(baselines_dir):
    """Patterns from ``<baselines_dir>/allowlist.json`` (empty if absent)."""
    path = os.path.join(baselines_dir, ALLOWLIST_FILE)
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        payload = json.load(handle)
    patterns = payload.get("allow", [])
    if not isinstance(patterns, list) or \
            not all(isinstance(p, str) for p in patterns):
        raise ReproError(
            "%s must contain {\"allow\": [\"pattern\", ...]}" % path
        )
    return patterns


class BaselineReport:
    """The perf gate's verdicts over every committed baseline."""

    def __init__(self, verdicts, skipped=()):
        self.verdicts = verdicts
        #: Current snapshots with no committed baseline (informational).
        self.skipped = list(skipped)

    @property
    def ok(self):
        return bool(self.verdicts) and all(v.ok for v in self.verdicts)

    def to_text(self):
        lines = [v.to_text() for v in self.verdicts]
        for name in self.skipped:
            lines.append("skip %s: no committed baseline" % name)
        if not self.verdicts:
            lines.append("FAIL: no baselines found to check against")
        lines.append("perf gate: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def check_baselines(results_dir, baselines_dir, allow=()):
    """Check every committed baseline against the current results.

    A baseline with no current snapshot fails (the benchmark stopped
    emitting its trajectory point); a current snapshot with no baseline
    is reported as skipped (commit one to put it under the gate).
    """
    if not os.path.isdir(baselines_dir):
        raise ReproError("no baseline directory at %s" % baselines_dir)
    allow = list(allow) + load_allowlist(baselines_dir)
    names = sorted(
        name for name in os.listdir(baselines_dir)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    verdicts = []
    for name in names:
        baseline = load_snapshot(os.path.join(baselines_dir, name))
        current_path = os.path.join(results_dir, name)
        if not os.path.exists(current_path):
            verdicts.append(SnapshotVerdict(
                baseline.get("benchmark", name), None,
                error="baseline committed but no current snapshot at %s "
                      "(did the benchmark run?)" % current_path,
            ))
            continue
        current = load_snapshot(current_path)
        verdicts.append(check_snapshot(baseline, current, allow=allow))
    skipped = sorted(
        name for name in (os.listdir(results_dir)
                          if os.path.isdir(results_dir) else ())
        if name.startswith("BENCH_") and name.endswith(".json")
        and name not in names
    )
    return BaselineReport(verdicts, skipped=skipped)
