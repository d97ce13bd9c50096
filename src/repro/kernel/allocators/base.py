"""Common allocator machinery.

Allocators hand out :class:`Allocation` records (offset + size within their
heap region).  Cycle accounting distinguishes the malloc fast path (a free
block of the right class is immediately available) from the slow path
(splitting, coalescing, or list search), matching the paper's observation
that an alloc+free pair costs 30-60 cycles on the fast path and "up to
thousands of cycles on the slow path".
"""

from __future__ import annotations

from repro.errors import AllocationError, InvalidFree
from repro.kernel.lib import work
from repro.obs import tracer as obs

#: All allocations are rounded up to this granule, like real allocators.
MIN_BLOCK = 16


def round_up(size, granule=MIN_BLOCK):
    if size <= 0:
        size = 1
    return (size + granule - 1) // granule * granule


class Allocation:
    """One live allocation inside a heap region."""

    __slots__ = ("offset", "size", "allocator")

    def __init__(self, offset, size, allocator):
        self.offset = offset
        self.size = size
        self.allocator = allocator

    @property
    def address(self):
        return self.allocator.region.base + self.offset

    def free(self):
        self.allocator.free(self)

    def __repr__(self):
        return "Allocation(off=0x%x size=%d via %s)" % (
            self.offset, self.size, type(self.allocator).__name__,
        )


class AllocatorStats:
    """Counters every allocator maintains."""

    def __init__(self):
        self.allocs = 0
        self.frees = 0
        self.fast_allocs = 0
        self.slow_allocs = 0
        self.bytes_live = 0
        self.bytes_peak = 0

    def on_alloc(self, size, fast):
        self.allocs += 1
        if fast:
            self.fast_allocs += 1
        else:
            self.slow_allocs += 1
        self.bytes_live += size
        self.bytes_peak = max(self.bytes_peak, self.bytes_live)

    def on_free(self, size):
        self.frees += 1
        self.bytes_live -= size


class Allocator:
    """Abstract allocator over one heap region."""

    #: Per-operation base costs; subclasses may override the charge methods
    #: to reflect their structural differences (TLSF is O(1) but has a
    #: higher constant; Lea's small bins are very fast but large requests
    #: search).
    FAST_COST_FIELD = "heap_alloc_fast"
    SLOW_COST_FIELD = "heap_alloc_slow"
    FREE_COST_FIELD = "heap_free_fast"

    def __init__(self, region):
        self.region = region
        self.stats = AllocatorStats()
        self._live = {}  # offset -> Allocation
        self._fail_countdown = 0
        #: Injected failures served so far (campaign accounting).
        self.injected_failures = 0

    # -- interface subclasses implement ------------------------------------
    def _alloc_block(self, size):
        """Return (offset, fast) or raise AllocationError."""
        raise NotImplementedError

    def _free_block(self, offset, size):
        raise NotImplementedError

    # -- fault injection ------------------------------------------------------
    def fail_next(self, count=1):
        """Make the next ``count`` allocations fail with an injected OOM."""
        self._fail_countdown = count

    def _maybe_inject_failure(self, size):
        if self._fail_countdown > 0:
            self._fail_countdown -= 1
            self.injected_failures += 1
            tracer = obs.ACTIVE
            if tracer.enabled:
                tracer.fault(
                    "AllocationError", injected=True, bytes=size,
                    region=self.region.name,
                )
            error = AllocationError(
                "injected OOM: %s refused %d bytes in region %s"
                % (type(self).__name__, size, self.region.name)
            )
            error.injected = True
            raise error

    # -- public API ---------------------------------------------------------
    def malloc(self, size):
        """Allocate ``size`` bytes; returns an :class:`Allocation`."""
        size = round_up(size)
        self._maybe_inject_failure(size)
        offset, fast = self._alloc_block(size)
        self.stats.on_alloc(size, fast)
        self._charge_alloc(fast)
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.alloc_op("alloc", self.region.name, size, fast=fast)
        allocation = Allocation(offset, size, self)
        self._live[offset] = allocation
        return allocation

    def free(self, allocation):
        """Release an allocation previously returned by :meth:`malloc`."""
        live = self._live.pop(allocation.offset, None)
        if live is not allocation:
            raise InvalidFree(
                "free of unknown allocation at offset 0x%x" % allocation.offset
            )
        self._free_block(allocation.offset, allocation.size)
        self.stats.on_free(allocation.size)
        self._charge_free()
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.alloc_op("free", self.region.name, allocation.size)

    @property
    def live_allocations(self):
        return len(self._live)

    def owns(self, allocation):
        return self._live.get(allocation.offset) is allocation

    # -- cost charging -------------------------------------------------------
    def _charge_alloc(self, fast):
        from repro.hw.costs import DEFAULT_COSTS
        from repro.hw.cpu import maybe_current_context

        ctx = maybe_current_context()
        costs = ctx.costs if ctx is not None else DEFAULT_COSTS
        field = self.FAST_COST_FIELD if fast else self.SLOW_COST_FIELD
        work(getattr(costs, field))

    def _charge_free(self):
        from repro.hw.costs import DEFAULT_COSTS
        from repro.hw.cpu import maybe_current_context

        ctx = maybe_current_context()
        costs = ctx.costs if ctx is not None else DEFAULT_COSTS
        work(getattr(costs, self.FREE_COST_FIELD))

    def _out_of_memory(self, size):
        raise AllocationError(
            "%s out of memory: need %d bytes in region %s (live=%d bytes)"
            % (type(self).__name__, size, self.region.name,
               self.stats.bytes_live)
        )
