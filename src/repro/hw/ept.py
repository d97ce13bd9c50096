"""EPT-style disjoint address spaces.

The EPT backend puts each compartment in its own VM: compartments never
share an address space, never switch privileges, and communicate only via
RPC over shared-memory windows that are mapped *at the same address* in
every participating VM (so pointers into shared structures stay valid).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.obs import tracer as obs


def record_space_switch(previous, current, direction):
    """Trace one cross-VM address-space switch (hook for the RPC gates).

    The EPT analogue of the MPK backend's PKRU-write events: every RPC
    crossing moves the execution context into the callee VM's address
    space (``direction="call"``) and back (``direction="return"``).
    """
    tracer = obs.ACTIVE
    if tracer.enabled:
        tracer.space_switch(
            previous.name if previous is not None else None,
            current.name if current is not None else None,
            direction,
        )


class AddressSpace:
    """The set of regions visible to one VM (one EPT compartment)."""

    def __init__(self, name):
        self.name = name
        self._mapped = set()  # region identity

    def map(self, region):
        """Make ``region`` visible in this address space."""
        self._mapped.add(id(region))

    def unmap(self, region):
        self._mapped.discard(id(region))

    def is_mapped(self, region):
        return id(region) in self._mapped

    def __repr__(self):
        return "AddressSpace(%s, %d regions)" % (self.name, len(self._mapped))


class SharedWindow:
    """A region mapped into several address spaces at the same base.

    Each VM manages its own slice of the window to avoid multithreaded
    bookkeeping across VMs (Section 4.2, "Data Ownership").
    """

    def __init__(self, region, spaces):
        if not spaces:
            raise ConfigError("a shared window needs at least one VM")
        self.region = region
        self.spaces = list(spaces)
        for space in self.spaces:
            space.map(region)
        # Per-VM slice cursors: [base, limit) halves of the window.
        slice_size = region.size // len(self.spaces)
        self._slices = {}
        for i, space in enumerate(self.spaces):
            start = i * slice_size
            self._slices[space.name] = [start, start + slice_size, start]

    def slice_of(self, space_name):
        """(start, limit) of the slice owned by ``space_name``."""
        start, limit, _ = self._slices[space_name]
        return start, limit

    def allocate(self, space_name, size):
        """Bump-allocate ``size`` bytes from a VM's slice; returns offset."""
        entry = self._slices[space_name]
        start, limit, cursor = entry
        wrapped = cursor + size > limit
        if wrapped:
            # Wrap around: the RPC protocol recycles its message area.
            cursor = start
        entry[2] = cursor + size
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.window_alloc(space_name, size, cursor, wrapped)
        return cursor
