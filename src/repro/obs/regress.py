"""Per-metric deltas between schema-versioned metric snapshots.

The benchmarks leave ``BENCH_<name>.json`` trajectory points behind
(:func:`benchmarks.common.write_metrics`).  :func:`diff_snapshots`
turns a pair of those snapshots into per-metric absolute and relative
deltas, for the *same* benchmark, schema and configuration only
(anything else raises :class:`~repro.errors.ReproError` rather than
producing a nonsense comparison).  It is a developer tool for reading a
change, not a gate: virtual cycles are deterministic, so CI regenerates
every committed result and fails on any byte of ``git diff``, and a
change is blessed by committing the regenerated files.

Only numeric leaves are compared; the metadata keys ``write_metrics``
embeds (``schema_version``, ``benchmark``, ``config``,
``config_digest``) gate comparability instead of being diffed.
"""

from __future__ import annotations

import json

from repro.bench.tables import format_table
from repro.errors import ReproError

#: Version of the ``BENCH_*.json`` trajectory-point layout.  Bump when
#: the payload shape changes incompatibly; ``diff`` refuses to compare
#: across versions.
SNAPSHOT_SCHEMA_VERSION = 2

#: Top-level payload keys that describe the snapshot rather than
#: measure anything — excluded from the metric diff.
METADATA_KEYS = ("schema_version", "benchmark", "config", "config_digest")


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
        self.status = status  # ok | changed | added | removed

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
