"""EPT/VM isolation backend (Section 4.2).

The extreme point of the design space: one VM image per compartment, each
containing a duplicated TCB (boot code, scheduler, memory manager, backend
runtime) plus the compartment's libraries.  Compartments do not share
address spaces; all communication is shared-memory RPC, with the server
validating that the requested function pointer is a legal entry point —
the backend's stronger form of CFI (compartments can only be *left and
entered* at well-defined points).
"""

from __future__ import annotations

from repro.core.backends.base import IsolationBackend, register_backend
from repro.core.gates import EptRpcGate
from repro.hw.ept import AddressSpace, SharedWindow
from repro.hw.memory import Perm

#: Size of the inter-VM shared-memory window (the QEMU/KVM patch of the
#: paper adds "lightweight inter-VM shared memory", < 90 LoC).
SHARED_WINDOW_SIZE = 1 << 20


@register_backend
class EptBackend(IsolationBackend):
    mechanism = "vm-ept"
    loc = 1000
    single_address_space = False

    def __init__(self):
        self.window = None
        self.spaces = {}

    def setup_domains(self, instance):
        image = instance.image
        # One address space (VM) per compartment; boot cost per VM.
        for comp in image.compartments:
            comp.address_space = AddressSpace(comp.name)
            self.spaces[comp.index] = comp.address_space
            instance.clock.charge(instance.costs.vm_boot)

        for section in image.sections:
            perm = Perm.RX if section.kind == "text" else (
                Perm.R if section.kind == "rodata" else Perm.RW
            )
            region = instance.add_section_region(section, pkey=0, perm=perm)
            if section.compartment_index is None:
                # Globally shared sections are mapped everywhere.
                for space in self.spaces.values():
                    space.map(region)
            else:
                self.spaces[section.compartment_index].map(region)

        # The shared-memory window, mapped at the same address in every VM.
        window_region = instance.memory.add_region(
            ".ivshmem", SHARED_WINDOW_SIZE, perm=Perm.RW, pkey=0,
            compartment=None, kind="shared",
        )
        self.window = SharedWindow(
            window_region, [comp.address_space for comp in image.compartments],
        )
        instance.shared_window = self.window

        default = image.compartment_of("ukboot")
        instance.ctx.pkru = None
        instance.ctx.address_space = default.address_space

    def on_heap_created(self, instance, compartment, region):
        """Private heaps map into their VM only; the shared heap into all."""
        if compartment is None:
            for space in self.spaces.values():
                space.map(region)
        else:
            self.spaces[compartment.index].map(region)

    def on_stack_created(self, instance, compartment, stack_region,
                         dss_region):
        self.spaces[compartment.index].map(stack_region)
        if dss_region is not None:
            # The DSS is a sharing strategy over shared memory, so it is
            # visible to every VM (Section 4.1: "applicable to any
            # isolation mechanism that supports shared memory").
            for space in self.spaces.values():
                space.map(dss_region)

    def build_gates(self, instance):
        image = instance.image
        gates = {}
        for src, dst in self.all_pairs(image.compartments):
            gates[(src.index, dst.index)] = EptRpcGate(
                src, dst, instance.costs,
                window=self.window,
                legal_entries=image.legal_entries[dst.index],
            )
        return gates

    def transform_rules(self):
        return (
            "gate-to-ept-rpc",
            "shared-static-to-ivshmem",
            "shared-stack-to-ivshmem",
            "rpc-server-generation",
        )
