"""Content-addressed evaluation cache for the exploration engine.

Exploring the Fig. 6/8 spaces re-measures the same layouts over and
over: the fullspace benchmark, the pruning ablation, Fig. 8 and the CLI
all price ``redis`` layouts whose *content* (partition + hardening +
mechanism + gate + sharing) is identical even when their display names
differ (``A/none`` vs ``P00/none``).  The cache keys measurements by
content, not by name:

    key = config_digest({"layout": <semantic layout payload>,
                         "evaluator": <evaluator.key()>})

using the same digest function that stamps benchmark configurations
into trajectory points (:func:`repro.obs.regress.config_digest`), so
a cache entry means exactly "this evaluator, applied to a layout with
this content, returned this value".

Entries are one small JSON file per key under the cache directory
(``benchmarks/results/cache/`` by convention — gitignored); writes go
through a temp file + :func:`os.replace` so concurrent runs can share a
directory without torn entries.  Only the engine's parent process ever
touches the cache; worker processes just evaluate.
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.errors import ExplorationError
from repro.explore.measurement import Measurement
from repro.obs.regress import config_digest

#: Conventional cache location used by the CLI and the CI smoke step.
DEFAULT_CACHE_DIR = os.path.join("benchmarks", "results", "cache")


def layout_payload(layout):
    """The semantic content of a layout, independent of its display name.

    Two layouts with equal payloads are interchangeable under every
    evaluator: same partition, same per-component hardening, same
    isolation mechanism, gate flavour and sharing strategy.
    """
    return {
        "partition": sorted(sorted(group) for group in layout.partition),
        "hardening": {
            component: sorted(h.value if hasattr(h, "value") else str(h)
                              for h in hardening)
            for component, hardening in sorted(layout.hardening.items())
            if hardening
        },
        "mechanism": layout.mechanism,
        "mpk_gate": layout.mpk_gate,
        "sharing": layout.sharing,
    }


def layout_digest(layout):
    """Stable short digest of a layout's semantic content."""
    return config_digest(layout_payload(layout))


def evaluation_key(layout, evaluator):
    """Cache key for ``evaluator`` applied to ``layout``."""
    return config_digest({
        "layout": layout_payload(layout),
        "evaluator": evaluator.key(),
    })


class EvaluationCache:
    """Directory-backed map from evaluation key to measured value.

    Args:
        directory: where entry files live; created on first write.

    Attributes:
        hits / misses / stores: counters for this instance's lifetime
            (the engine reports per-run numbers through
            :class:`~repro.explore.explorer.ExplorationResult`).
    """

    def __init__(self, directory=DEFAULT_CACHE_DIR):
        self.directory = str(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key):
        return os.path.join(self.directory, "%s.json" % key)

    def get(self, key):
        """The cached :class:`Measurement` for ``key``, or ``None``.

        Entries written before the Measurement API carry only a bare
        numeric value; they deserialise as ``throughput`` measurements
        with empty metadata.
        """
        try:
            with open(self._path(key)) as handle:
                entry = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            self.misses += 1
            return None
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExplorationError(
                "corrupt cache entry %s: value %r is not a number"
                % (self._path(key), value)
            )
        self.hits += 1
        return Measurement(float(value),
                           entry.get("objective", "throughput"),
                           dict(entry.get("meta") or ()))

    def put(self, key, value, layout=None, evaluator=None):
        """Store a measurement under ``key`` (atomic; last writer wins).

        ``value`` may be a :class:`Measurement` or (for legacy callers)
        a bare number, stored as a ``throughput`` measurement.
        """
        if not isinstance(value, Measurement):
            value = Measurement(value)
        os.makedirs(self.directory, exist_ok=True)
        entry = {"value": value.value, "objective": value.objective,
                 "meta": value.meta}
        if layout is not None:
            entry["layout"] = layout.name
            entry["content"] = layout_payload(layout)
        if evaluator is not None:
            entry["evaluator"] = evaluator.key()
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, indent=1, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stores += 1

    def __len__(self):
        if not os.path.isdir(self.directory):
            return 0
        return sum(1 for name in os.listdir(self.directory)
                   if name.endswith(".json"))

    def stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "entries": len(self)}

    def __repr__(self):
        return "EvaluationCache(%s, %d entries)" % (self.directory,
                                                    len(self))


def resolve_cache(spec):
    """Coerce a request's ``cache`` field: None, a path, or a cache."""
    if spec is None or isinstance(spec, EvaluationCache):
        return spec
    if isinstance(spec, (str, os.PathLike)):
        return EvaluationCache(spec)
    raise ExplorationError("cannot use %r as an evaluation cache" % (spec,))
