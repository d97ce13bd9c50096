"""Per-compartment allocator tests."""

import pytest

from repro.core.config import CompartmentSpec, SafetyConfig
from repro.core.hardening import Hardening
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import ConfigError
from repro.kernel.allocators import LeaAllocator, TlsfAllocator


class TestPerCompartmentAllocators:
    def make_instance(self, allocator_comp2):
        config = SafetyConfig(
            [CompartmentSpec("comp1", mechanism="intel-mpk", default=True),
             CompartmentSpec("comp2", mechanism="intel-mpk",
                             hardening=(Hardening.KASAN,),
                             allocator=allocator_comp2)],
            {"lwip": "comp2"},
        )
        return FlexOSInstance(build_image(config), machine=Machine()).boot()

    def test_selected_allocator_used(self):
        instance = self.make_instance("lea")
        comp2 = instance.image.compartment_by_name("comp2")
        comp1 = instance.image.compartment_by_name("comp1")
        assert isinstance(instance.memmgr.heap_of(comp2.index),
                          LeaAllocator)
        # The default compartment keeps the instance default (TLSF).
        assert isinstance(instance.memmgr.heap_of(comp1.index),
                          TlsfAllocator)

    def test_default_allocator_when_unspecified(self):
        instance = self.make_instance(None)
        comp2 = instance.image.compartment_by_name("comp2")
        assert isinstance(instance.memmgr.heap_of(comp2.index),
                          TlsfAllocator)

    def test_unknown_allocator_rejected(self):
        with pytest.raises(ConfigError):
            CompartmentSpec("c", allocator="jemalloc")

    def test_heaps_are_independent(self):
        instance = self.make_instance("lea")
        comp1 = instance.image.compartment_by_name("comp1")
        comp2 = instance.image.compartment_by_name("comp2")
        a = instance.memmgr.heap_of(comp1.index).malloc(64)
        b = instance.memmgr.heap_of(comp2.index).malloc(64)
        assert a.allocator is not b.allocator
        assert a.address != b.address
