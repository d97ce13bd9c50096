"""Software permission TLB: the data-plane fast path of the MMU.

Every modelled memory access funnels through :meth:`repro.hw.mmu.MMU.check`,
which on the slow path re-derives the same allow/deny verdict — page
permissions, address-space mapping, per-bit PKRU probes — on every call.
Real MPK/EPT hardware amortises exactly this through TLBs and cached PKRU
state; this module is the software analogue.

A :class:`PermissionTLB` lives on each
:class:`~repro.hw.cpu.ExecutionContext` and maps ``(region, access)`` to
the *protection-state tag* under which the access was last allowed.  A
cached verdict is valid only while its tag matches the context's current
tag, which is built from three components:

* the **global protection epoch** (:data:`EPOCH`) — bumped by every
  structural event that can change a verdict behind the tag's back:
  :meth:`~repro.hw.memory.Region.set_pkey` re-stamps, address-space
  :meth:`~repro.hw.ept.AddressSpace.map`/:meth:`~repro.hw.ept.AddressSpace.unmap`,
  and :attr:`~repro.hw.mmu.MMU.enforcing` toggles (fault injection);
* the context's **PKRU word** (:attr:`~repro.hw.mpk.PKRU.word`) — a
  single integer fingerprint of both permission masks.  This mirrors real
  hardware: ``wrpkru`` does *not* flush the TLB; the PKRU check is applied
  at access time against the cached pkey tag.  A gate crossing that swaps
  the PKRU simply stops matching, and the restore on the way back makes
  the caller's cached verdicts valid again — which is what makes the
  cache hit across gate round-trips instead of being flushed by them;
* the **ASID** of the context's current address space — EPT-style gate
  transitions swap the whole space object, so entries are naturally
  partitioned per VM (:func:`next_asid` hands out the identifiers).

Only *allow* verdicts are cached.  Denials always take the slow path so a
:class:`~repro.errors.ProtectionFault` carries a fresh context snapshot
and fires the same trace event it always did — the fault path is
bit-identical with the TLB on or off.

The TLB is free in virtual time (it never touches the clock), never
changes which accesses fault, and a hit still counts against
``MMU.checks`` — coverage assertions see the same numbers.  Its effect is
purely wall-clock, measured by ``benchmarks/bench_datapath.py``.

Kill switch: set ``FLEXOS_TLB=off`` (or ``0``/``false``) in the
environment and newly created execution contexts run without a TLB —
every check takes the slow path.  ``tests/test_tlb.py`` uses this for the
differential property: identical fault sequences, virtual cycles, and
metrics with the cache on and off.
"""

from __future__ import annotations

import itertools
import os

from repro.obs import tracer as obs

#: The global protection epoch, as a one-element list so importers can
#: bind it once and still observe bumps (``EPOCH[0]``).
EPOCH = [0]

#: Entries per TLB before a capacity flush, far above any modelled
#: working set (real MPK TLBs hold ~1.5k entries; regions here are
#: page-group-granular so even large images stay in the hundreds).
TLB_CAPACITY = 4096

_ASIDS = itertools.count(1)


def next_asid():
    """A fresh address-space identifier (EPT analogue of hardware ASIDs)."""
    return next(_ASIDS)


def bump_epoch():
    """Invalidate every cached verdict in every TLB (lazily, via tags).

    Called by the rare structural mutations listed in the module
    docstring.  Records a ``tlb.flush`` when tracing is on: epoch bumps
    are global flushes, observable next to hits and misses.
    """
    EPOCH[0] += 1
    tracer = obs.ACTIVE
    if tracer.enabled:
        tracer.tlb_op("flush")


def default_enabled():
    """Whether new execution contexts get a TLB (the kill switch)."""
    return os.environ.get("FLEXOS_TLB", "on").lower() not in (
        "off", "0", "false", "no",
    )


class PermissionTLB:
    """Per-context cache of allowed ``(region, access)`` verdicts.

    ``entries`` maps ``(region, access)`` to the protection-state tag
    current when the slow path last allowed that access; the MMU compares
    tags on every consult.  Keys hold the :class:`~repro.hw.memory.Region`
    object itself (identity-hashed), so a recycled ``id()`` can never
    validate a stale entry.
    """

    __slots__ = ("entries", "capacity", "hits", "misses", "flushes")

    def __init__(self, capacity=TLB_CAPACITY):
        self.entries = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: Capacity flushes of *this* TLB (global epoch bumps are counted
        #: by the tracer at the bump site instead).
        self.flushes = 0

    def insert(self, key, tag):
        """Record an allowed verdict, flushing first at capacity."""
        entries = self.entries
        if len(entries) >= self.capacity:
            entries.clear()
            self.flushes += 1
            tracer = obs.ACTIVE
            if tracer.enabled:
                tracer.tlb_op("flush")
        entries[key] = tag

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        """Hit fraction over all lookups (0.0 when never consulted)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def stats(self):
        """JSON-serialisable counters for benchmarks and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
            "entries": len(self.entries),
            "hit_rate": self.hit_rate,
        }

    def __repr__(self):
        return "PermissionTLB(%d entries, %d/%d hits, %.0f%%)" % (
            len(self.entries), self.hits, self.lookups,
            100.0 * self.hit_rate,
        )
