"""Trace analytics: turn the event firehose into answers.

:mod:`repro.obs.tracer` records *what happened*; this module answers the
questions the FlexOS trade-off story actually asks of a run:

* **Which gate pairs dominate?**  :func:`critical_path` attributes every
  virtual cycle spent inside gate spans to exactly one ``src->dst``
  compartment pair (a span's *self*-cycles: its duration minus the time
  nested crossings consumed) and ranks pairs by attributed cycles.
  Because the attribution partitions the time, the per-pair cycles sum
  to the run's total gate cycles — the invariant
  ``tests/test_obs_analysis.py`` pins to within float rounding.
* **Who talks to whom, and at what cost?**  :func:`crossing_matrix`
  folds the same spans into an N x N compartment matrix of crossing
  counts and attributed cycles, rendered as text and JSON.
* **Which micro-library is the boundary tax paid to?**
  :func:`library_attribution` books each span's self-cycles to the
  *callee* micro-library named by the span — the same per-crossing
  attribution :class:`~repro.bench.trace.ProfileRecorder` uses, so the
  analytic profiles and this report can never disagree about who was
  called.
* **What belongs to one request?**  :func:`request_chains` groups spans
  into chains rooted at depth-0 crossings (nested spans are claimed by
  the enclosing root), the unit ``obs report`` summarises per request.

Everything operates on recorded events only — analysis never touches the
clock, so it is free in virtual time like the rest of the layer.
"""

from __future__ import annotations

from repro.bench.tables import format_table
from repro.errors import ReproError


def gate_spans(tracer):
    """All gate spans a tracer recorded (requires ``keep_events``)."""
    events = [e for e in tracer.events if e.cat == "gate"]
    if not events and not getattr(tracer, "keep_events", True):
        raise ReproError(
            "trace analysis needs the event stream; this tracer was "
            "created with keep_events=False"
        )
    return events


class RequestChain:
    """One root gate crossing and every span nested inside it."""

    __slots__ = ("root", "nested")

    def __init__(self, root, nested):
        self.root = root
        self.nested = nested

    @property
    def spans(self):
        return [self.root] + self.nested

    @property
    def cycles(self):
        """Inclusive duration of the chain (the root span's duration)."""
        return self.root.dur

    @property
    def depth(self):
        return 1 + max((e.args["depth"] for e in self.nested), default=0)

    def __repr__(self):
        return "RequestChain(%s, %d spans, %.0f cycles)" % (
            self.root.name, len(self.spans), self.cycles,
        )


def request_chains(events):
    """Group gate spans into chains rooted at depth-0 crossings.

    Spans are recorded at *end* time, so every nested span precedes its
    root in the stream; a closing root claims all pending nested spans
    that began inside its interval.  Returns the chains in completion
    order (spans still open when the trace stopped are dropped — they
    never produced an event).
    """
    chains = []
    pending = []
    for event in events:
        if event.args["depth"] == 0:
            inside = [e for e in pending if e.ts >= event.ts]
            pending = [e for e in pending if e.ts < event.ts]
            chains.append(RequestChain(event, inside))
        else:
            pending.append(event)
    return chains


class PairStat:
    """Attribution bucket for one ``src->dst`` compartment pair."""

    __slots__ = ("src", "dst", "src_comp", "dst_comp", "kind",
                 "crossings", "cycles", "inclusive_cycles", "libraries")

    def __init__(self, src, dst, src_comp, dst_comp, kind):
        self.src = src
        self.dst = dst
        self.src_comp = src_comp
        self.dst_comp = dst_comp
        self.kind = kind
        self.crossings = 0
        self.cycles = 0.0             # attributed self-cycles
        self.inclusive_cycles = 0.0   # span durations (double-counts nests)
        self.libraries = {}

    @property
    def label(self):
        return "%s->%s" % (self.src, self.dst)

    def add(self, event):
        self.crossings += 1
        self.cycles += event.args["self_cycles"]
        self.inclusive_cycles += event.dur
        library = event.args["library"]
        self.libraries[library] = self.libraries.get(library, 0) + 1

    def dominant_library(self):
        """The callee library most often entered through this pair."""
        return max(sorted(self.libraries),
                   key=lambda name: self.libraries[name])

    def to_dict(self, total):
        return {
            "pair": self.label,
            "src_comp": self.src_comp,
            "dst_comp": self.dst_comp,
            "kind": self.kind,
            "crossings": self.crossings,
            "cycles": self.cycles,
            "inclusive_cycles": self.inclusive_cycles,
            "share": self.cycles / total if total else 0.0,
            "libraries": dict(sorted(self.libraries.items())),
        }


class CriticalPath:
    """Gate pairs ranked by attributed virtual cycles.

    ``entries`` covers *every* pair (``top(k)`` trims for display), so
    ``sum(e.cycles for e in entries) == total_gate_cycles`` exactly: the
    self-cycle attribution partitions the root spans' durations.
    """

    def __init__(self, entries, total_gate_cycles, n_chains):
        self.entries = entries
        self.total_gate_cycles = total_gate_cycles
        self.n_chains = n_chains

    def top(self, k=None):
        return self.entries if k is None else self.entries[:k]

    def to_dict(self, top_k=None):
        return {
            "total_gate_cycles": self.total_gate_cycles,
            "chains": self.n_chains,
            "pairs": [e.to_dict(self.total_gate_cycles)
                      for e in self.top(top_k)],
        }

    def to_text(self, top_k=10):
        shown = self.top(top_k)
        rows = [
            {"rank": i + 1,
             "gate pair": entry.label,
             "kind": entry.kind,
             "via": entry.dominant_library(),
             "crossings": entry.crossings,
             "cycles": "%.0f" % entry.cycles,
             "share": "%5.1f%%" % (100.0 * entry.cycles /
                                   self.total_gate_cycles
                                   if self.total_gate_cycles else 0.0)}
            for i, entry in enumerate(shown)
        ]
        title = ("critical path: top %d of %d gate pairs "
                 "(%d chains, %.0f total gate cycles)"
                 % (len(shown), len(self.entries), self.n_chains,
                    self.total_gate_cycles))
        return format_table(rows, title=title)

    def __repr__(self):
        return "CriticalPath(%d pairs, %.0f cycles)" % (
            len(self.entries), self.total_gate_cycles,
        )


def critical_path(events):
    """Rank gate pairs by attributed self-cycles; see :class:`CriticalPath`."""
    pairs = {}
    for event in events:
        args = event.args
        key = (args["src_comp"], args["dst_comp"])
        stat = pairs.get(key)
        if stat is None:
            stat = pairs[key] = PairStat(
                args["src"], args["dst"], args["src_comp"],
                args["dst_comp"], args["kind"],
            )
        stat.add(event)
    entries = sorted(
        pairs.values(),
        key=lambda s: (-s.cycles, s.src_comp, s.dst_comp),
    )
    total = sum(s.cycles for s in entries)
    n_chains = sum(1 for e in events if e.args["depth"] == 0)
    return CriticalPath(entries, total, n_chains)


class CrossingMatrix:
    """N x N compartment matrix of crossing counts and attributed cycles."""

    def __init__(self, names, counts, cycles):
        #: compartment index -> name, in index order.
        self.names = names
        self.counts = counts
        self.cycles = cycles

    @property
    def indices(self):
        return sorted(self.names)

    def total_crossings(self):
        return sum(self.counts.values())

    def to_dict(self):
        return {
            "compartments": [self.names[i] for i in self.indices],
            "counts": [
                [self.counts.get((i, j), 0) for j in self.indices]
                for i in self.indices
            ],
            "cycles": [
                [self.cycles.get((i, j), 0.0) for j in self.indices]
                for i in self.indices
            ],
        }

    def _ranked_indices(self, top_k):
        """Compartment indices to show: all of them, or the ``top_k``
        hottest by total attributed cycles (row + column), re-sorted to
        index order so the matrix stays readable."""
        indices = self.indices
        if top_k is None or len(indices) <= top_k:
            return indices, []
        involvement = {i: 0.0 for i in indices}
        for (i, j), cycles in self.cycles.items():
            involvement[i] += cycles
            involvement[j] += cycles
        kept = sorted(
            sorted(indices, key=lambda i: (-involvement[i], i))[:top_k]
        )
        omitted = [i for i in indices if i not in set(kept)]
        return kept, omitted

    def to_text(self, top_k=None):
        indices, omitted = self._ranked_indices(top_k)
        rows = []
        for i in indices:
            row = {"from \\ to": self.names[i]}
            for j in indices:
                count = self.counts.get((i, j), 0)
                row[self.names[j]] = (
                    "%d / %.0f" % (count, self.cycles.get((i, j), 0.0))
                    if count else "-"
                )
            rows.append(row)
        title = ("crossing matrix: crossings / attributed cycles "
                 "(%d compartments, %d crossings)"
                 % (len(self.names), self.total_crossings()))
        text = format_table(rows, title=title)
        if omitted:
            hidden = sum(
                count for (i, j), count in self.counts.items()
                if i not in set(indices) or j not in set(indices)
            )
            text += (
                "\n(%d compartments omitted — %d crossings not shown; "
                "rerun with a larger --top for the full matrix)"
                % (len(omitted), hidden)
            )
        return text

    def __repr__(self):
        return "CrossingMatrix(%d compartments, %d crossings)" % (
            len(self.names), self.total_crossings(),
        )


def crossing_matrix(events):
    """Fold gate spans into the compartment crossing matrix."""
    names = {}
    counts = {}
    cycles = {}
    for event in events:
        args = event.args
        pair = (args["src_comp"], args["dst_comp"])
        names.setdefault(args["src_comp"], args["src"])
        names.setdefault(args["dst_comp"], args["dst"])
        counts[pair] = counts.get(pair, 0) + 1
        cycles[pair] = cycles.get(pair, 0.0) + args["self_cycles"]
    return CrossingMatrix(names, counts, cycles)


def library_attribution(events):
    """Per-callee-library crossing counts and attributed self-cycles.

    Books each span to ``args["library"]`` — the library actually
    entered — exactly as :class:`~repro.bench.trace.ProfileRecorder`
    attributes crossings, so compartments hosting several components
    split correctly.  Returns ``{library: {"crossings", "cycles"}}``.
    """
    attribution = {}
    for event in events:
        library = event.args["library"]
        entry = attribution.setdefault(
            library, {"crossings": 0, "cycles": 0.0},
        )
        entry["crossings"] += 1
        entry["cycles"] += event.args["self_cycles"]
    return attribution


class TraceAnalysis:
    """Everything ``obs report`` derives from one traced run."""

    def __init__(self, tracer, headline=None):
        self.tracer = tracer
        #: Free-form run facts shown in the report header (app,
        #: mechanism, requests, cycles/request ...).
        self.headline = headline or {}
        self.events = gate_spans(tracer)

    def chains(self):
        return request_chains(self.events)

    def critical_path(self):
        return critical_path(self.events)

    def crossing_matrix(self):
        return crossing_matrix(self.events)

    def library_attribution(self):
        return library_attribution(self.events)

    def _library_rows(self, top_k):
        attribution = self.library_attribution()
        ranked = sorted(
            attribution.items(),
            key=lambda item: (-item[1]["cycles"], str(item[0])),
        )[:top_k]
        return [
            {"library": name if name is not None else "(app)",
             "crossings": entry["crossings"],
             "cycles": "%.0f" % entry["cycles"]}
            for name, entry in ranked
        ]

    def to_text(self, top_k=10):
        path = self.critical_path()
        chains = self.chains()
        header = ["== obs report: %s ==" % ", ".join(
            "%s=%s" % (key, value)
            for key, value in self.headline.items()
        )] if self.headline else ["== obs report =="]
        if chains:
            mean = sum(c.cycles for c in chains) / len(chains)
            header.append(
                "%d request chains, mean %.0f gate cycles/chain, "
                "deepest nest %d"
                % (len(chains), mean, max(c.depth for c in chains))
            )
        sections = [
            "\n".join(header),
            path.to_text(top_k),
            self.crossing_matrix().to_text(top_k),
            format_table(self._library_rows(top_k),
                        title="top callee libraries (attributed cycles)"),
        ]
        return "\n\n".join(sections)

    def to_dict(self, top_k=None):
        return {
            "headline": dict(self.headline),
            "critical_path": self.critical_path().to_dict(top_k),
            "crossing_matrix": self.crossing_matrix().to_dict(),
            "libraries": {
                str(name): entry
                for name, entry in self.library_attribution().items()
            },
        }


def analyze(tracer, headline=None):
    """Build a :class:`TraceAnalysis` for a tracer with recorded events."""
    return TraceAnalysis(tracer, headline=headline)
