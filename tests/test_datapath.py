"""Zero-length buffer operations: free, but still checked.

An empty ``read_bytes``/``write_bytes`` charges no cycles and never
materializes the region's backing store, yet it still pays its MMU
check: it faults on a buffer the context may not touch and is rejected
when it starts out of bounds.
"""

import pytest

from repro.errors import AllocationError, ProtectionFault
from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.hw.cpu import ExecutionContext
from repro.hw.memory import ByteBuffer, PhysicalMemory
from repro.hw.mmu import MMU
from repro.hw.mpk import PKRU


@pytest.fixture
def world():
    costs = CostModel.xeon_4114()
    memory = PhysicalMemory()
    mmu = MMU(memory, costs)
    ctx = ExecutionContext(Clock(), costs, mmu, compartment=0,
                           pkru=PKRU(allowed=(0, 1)))
    region = memory.add_region(".data.buf", 8192, pkey=1, compartment=1)
    return ctx, ByteBuffer("buf", region, 0, 4096)


class TestZeroLengthOps:
    def test_zero_read_free_but_checked(self, world):
        ctx, buf = world
        assert buf.read_bytes(ctx, 0, 0) == b""
        assert ctx.clock.cycles == 0
        assert buf.region._bytes is None  # backing never materialized
        assert ctx.mmu.checks == 1

    def test_zero_write_free_but_checked(self, world):
        ctx, buf = world
        buf.write_bytes(ctx, b"", 0)
        assert ctx.clock.cycles == 0
        assert buf.region._bytes is None
        assert ctx.mmu.checks == 1

    def test_zero_ops_still_fault(self, world):
        ctx, buf = world
        forbidden = ctx.mmu.memory.add_region(".data.other", 4096, pkey=2,
                                              compartment=2)
        other = ByteBuffer("other", forbidden, 0, 4096)
        with pytest.raises(ProtectionFault):
            other.read_bytes(ctx, 0, 0)
        with pytest.raises(ProtectionFault):
            other.write_bytes(ctx, b"")

    def test_zero_read_out_of_bounds_still_rejected(self, world):
        ctx, buf = world
        with pytest.raises(AllocationError):
            buf.read_bytes(ctx, 5000, 0)
