"""Simulated hardware substrate.

This package stands in for the Xeon 4114 testbed of the paper: a virtual
cycle clock (:mod:`repro.hw.clock`), a calibrated cost model
(:mod:`repro.hw.costs`), page-granular memory with MPK protection keys
(:mod:`repro.hw.memory`, :mod:`repro.hw.mpk`, :mod:`repro.hw.mmu`),
EPT-style disjoint address spaces (:mod:`repro.hw.ept`), and the
execution context that ties them together (:mod:`repro.hw.cpu`).
"""

from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.hw.cpu import ExecutionContext, current_context, use_context
from repro.hw.ept import AddressSpace
from repro.hw.memory import AccessType, MemoryObject, PhysicalMemory, Region
from repro.hw.mmu import MMU
from repro.hw.mpk import PKRU, PkeyAllocator

__all__ = [
    "AccessType",
    "AddressSpace",
    "Clock",
    "CostModel",
    "ExecutionContext",
    "MMU",
    "MemoryObject",
    "PKRU",
    "PhysicalMemory",
    "PkeyAllocator",
    "Region",
    "current_context",
    "use_context",
]
