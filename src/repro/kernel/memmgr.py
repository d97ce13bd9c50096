"""Memory manager (``ukalloc``): heaps, stacks, and shared domains.

Part of the TCB: "the memory manager can manipulate page table mappings in
order to freely access any compartment's memory" (Section 3.3), which is
why it is trusted regardless of the isolation mechanism.

One heap per compartment plus one shared heap for communications (the
paper's prototype uses a single shared heap for all shared allocations).
Thread stacks are carved per thread *per compartment* (the MPK full gate
switches stacks via a per-compartment stack registry), and each stack can
be doubled with a Data Shadow Stack region in the shared domain.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hw.memory import PAGE_SIZE, Perm
from repro.hw.mpk import DEFAULT_PKEY
from repro.kernel.allocators import make_allocator
from repro.kernel.lib import entrypoint

#: FlexOS uses small stacks: 8 pages (Section 6.5).
STACK_PAGES = 8
STACK_SIZE = STACK_PAGES * PAGE_SIZE

DEFAULT_HEAP_SIZE = 4 << 20
DEFAULT_SHARED_HEAP_SIZE = 2 << 20


class MemoryManager:
    """Owns heap and stack regions and their allocators."""

    def __init__(self, memory, allocator_kind="tlsf"):
        self.memory = memory
        self.allocator_kind = allocator_kind
        self._heaps = {}          # compartment id -> Allocator
        self._heap_kinds = {}     # compartment id -> allocator kind
        self._shared_heap = None
        self._shared_pkey = DEFAULT_PKEY
        #: Heap reinitialisations performed (supervisor restart policy).
        self.heap_resets = 0

    # -- heaps ------------------------------------------------------------------
    def create_heap(self, compartment, pkey=DEFAULT_PKEY,
                    size=DEFAULT_HEAP_SIZE, kind=None):
        """Create the private heap of ``compartment``."""
        if compartment in self._heaps:
            raise ConfigError("compartment %s already has a heap" % compartment)
        region = self.memory.add_region(
            ".heap.comp%s" % compartment, size, perm=Perm.RW, pkey=pkey,
            compartment=compartment, kind="heap",
        )
        allocator = make_allocator(kind or self.allocator_kind, region)
        self._heaps[compartment] = allocator
        self._heap_kinds[compartment] = kind or self.allocator_kind
        return allocator

    def reset_heap(self, compartment):
        """Reinitialise a compartment's heap over its existing region.

        The compartment-restart path of the fault supervisor: every live
        allocation is dropped and a fresh allocator of the same kind is
        installed — the modelled equivalent of re-running the
        compartment's heap constructor after a crash.
        """
        old = self.heap_of(compartment)
        fresh = make_allocator(
            self._heap_kinds.get(compartment, self.allocator_kind),
            old.region,
        )
        self._heaps[compartment] = fresh
        self.heap_resets += 1
        return fresh

    def create_shared_heap(self, pkey, size=DEFAULT_SHARED_HEAP_SIZE,
                           kind=None):
        """Create the communications heap visible to every compartment."""
        region = self.memory.add_region(
            ".heap.shared", size, perm=Perm.RW, pkey=pkey,
            compartment=None, kind="shared",
        )
        self._shared_pkey = pkey
        self._shared_heap = make_allocator(kind or self.allocator_kind, region)
        return self._shared_heap

    def heap_of(self, compartment):
        if compartment not in self._heaps:
            raise ConfigError("compartment %s has no heap" % compartment)
        return self._heaps[compartment]

    @property
    def shared_heap(self):
        if self._shared_heap is None:
            raise ConfigError("no shared heap was created")
        return self._shared_heap

    @property
    def has_shared_heap(self):
        return self._shared_heap is not None

    def create_restricted_shared_heap(self, name, pkey, size=1 << 20,
                                      kind=None):
        """A shared heap visible only to a restricted compartment group.

        Backs the paper's use of leftover MPK keys: "FlexOS uses remaining
        keys for additional shared domains between restricted groups of
        compartments" (Section 4.1).
        """
        region = self.memory.add_region(
            ".heap.shared.%s" % name, size, perm=Perm.RW, pkey=pkey,
            compartment=None, kind="shared",
        )
        return make_allocator(kind or self.allocator_kind, region)

    @entrypoint("ukalloc")
    def malloc(self, compartment, size):
        """Allocate from a compartment's private heap."""
        return self.heap_of(compartment).malloc(size)

    # -- stacks -----------------------------------------------------------------
    def create_stack(self, thread_name, compartment, pkey=DEFAULT_PKEY,
                     with_dss=False, dss_pkey=None):
        """Carve a thread stack, optionally doubled with a DSS.

        Returns ``(stack_region, dss_region_or_None)``.  The DSS occupies
        the upper half of a doubled stack and lives in the shared domain:
        the shadow of stack variable ``x`` is ``&x + STACK_SIZE``.
        """
        stack = self.memory.add_region(
            ".stack.%s.comp%s" % (thread_name, compartment),
            STACK_SIZE, perm=Perm.RW, pkey=pkey,
            compartment=compartment, kind="stack",
        )
        dss = None
        if with_dss:
            dss = self.memory.add_region(
                ".dss.%s.comp%s" % (thread_name, compartment),
                STACK_SIZE, perm=Perm.RW,
                pkey=self._shared_pkey if dss_pkey is None else dss_pkey,
                compartment=None, kind="dss",
            )
        return stack, dss

    def compartments(self):
        return sorted(self._heaps)
