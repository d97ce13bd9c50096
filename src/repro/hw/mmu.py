"""MMU access checks.

A single checkpoint implements both isolation families the paper supports:

* **Intra-AS (MPK-style)**: the region's protection key must be enabled in
  the executing context's PKRU.
* **Inter-AS (EPT-style)**: the region must be mapped in the executing
  context's address space (private regions of other VMs simply are not).

Both checks can be active at once (an EPT-backed compartment still has page
permissions).  W^X is enforced structurally at region creation; the MMU
additionally refuses EXEC on non-executable pages, which is what makes the
MPK backend's "static binary analysis coupled with strict W(+)X" argument
hold in the model.

The check is one path of plain integer tests: the permission bit comes
from ``Region.perm_bits`` and the PKRU masks are ints, because
``enum.Flag``'s ``&`` and truth test (and ``Enum.__hash__``, behind a
dict keyed by access type) are Python-level calls that cost several
times the rest of the check.
"""

from __future__ import annotations

from repro.errors import ConfigError, FaultContext, ProtectionFault
from repro.hw.memory import AccessType, Perm
from repro.hw.mpk import NUM_PKEYS
from repro.obs import tracer as obs

_READ = AccessType.READ
_WRITE = AccessType.WRITE

#: The ``Perm`` bit a read, a write and an exec need, as plain integers.
_PERM_R = Perm.R.value
_PERM_W = Perm.W.value
_PERM_X = Perm.X.value


class MMU:
    """Checks every modelled memory access against the current domain."""

    def __init__(self, memory, costs):
        self.memory = memory
        self.costs = costs
        #: Total checks performed (useful to assert coverage in tests).
        self.checks = 0
        #: When False, checks are skipped (used to model a hardware bypass
        #: vulnerability in the "react to hardware breaking" example).
        self.enforcing = True

    def _fault(self, ctx, region, access, symbol, owner_library):
        """Build a :class:`ProtectionFault` with a full context snapshot."""
        symbol = symbol or region.name
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.fault(
                "ProtectionFault", symbol=symbol, access=access.value,
                accessor=ctx.compartment, owner=region.compartment,
                library=ctx.current_library,
            )
        return ProtectionFault(
            symbol, ctx.compartment, region.compartment,
            access=access.value, library=ctx.current_library,
            owner_library=owner_library,
            context=FaultContext.capture(ctx),
        )

    def check(self, ctx, region, access, symbol=None, owner_library=None):
        """Validate one access; raises :class:`ProtectionFault` on denial."""
        self.checks += 1
        if not self.enforcing:
            return

        # Page permissions first (hardware checks these regardless of keys).
        if access is _READ:
            needed = _PERM_R
        elif access is _WRITE:
            needed = _PERM_W
        else:
            needed = _PERM_X
        if not region.perm_bits & needed:
            raise self._fault(ctx, region, access, symbol, owner_library)

        # EPT-style: region must be mapped in this context's address space.
        space = ctx.address_space
        if space is not None and not space.is_mapped(region):
            raise self._fault(ctx, region, access, symbol, owner_library)

        # MPK-style: protection key must be enabled in the PKRU; a write
        # also needs the key's write-disable bit clear.
        pkru = ctx.pkru
        if pkru is not None:
            key = region.pkey
            if not 0 <= key < NUM_PKEYS:
                raise ConfigError("protection key out of range: %r" % key)
            disabled = pkru.access_disable
            if access is _WRITE:
                disabled |= pkru.write_disable
            if disabled >> key & 1:
                raise self._fault(ctx, region, access, symbol,
                                  owner_library)
