"""The backend API every isolation mechanism implements."""

from __future__ import annotations

from repro.errors import ConfigError

BACKEND_REGISTRY = {}


def register_backend(cls):
    """Class decorator: register a backend under its ``mechanism`` name."""
    if not getattr(cls, "mechanism", None):
        raise ConfigError("backend %r lacks a mechanism name" % cls)
    BACKEND_REGISTRY[cls.mechanism] = cls
    return cls


def get_backend(mechanism):
    """Instantiate the backend registered for ``mechanism``."""
    cls = BACKEND_REGISTRY.get(mechanism)
    if cls is None:
        raise ConfigError(
            "no isolation backend registered for %r (have: %s)"
            % (mechanism, sorted(BACKEND_REGISTRY))
        )
    return cls()


class IsolationBackend:
    """Contract between FlexOS and one isolation technology.

    The five steps of Section 3.2 map onto:

    1. gates            -> :meth:`build_gates`
    2. core-lib hooks   -> :meth:`install_hooks`
    3. linker scripts   -> the section regions :meth:`setup_domains`
                           creates
    4. transformations  -> :meth:`transform_rules`
    5. registration     -> :func:`register_backend`

    Plus :meth:`setup_domains`, the boot-time step that gives each
    compartment its runtime protection identity.
    """

    #: Mechanism name as used in configuration files.
    mechanism = None

    #: Backend implementation size (paper Section 4: MPK 1400 LoC, EPT
    #: 1000 LoC) — used by the TCB accounting.
    loc = 0

    #: Whether compartments share one address space.
    single_address_space = True

    def setup_domains(self, instance):
        """Assign keys/address spaces and create section regions."""
        raise NotImplementedError

    def build_gates(self, instance):
        """Return the gate table {(src_index, dst_index): Gate}."""
        raise NotImplementedError

    def install_hooks(self, instance):
        """Register scheduler/boot hooks (default: none)."""

    def on_heap_created(self, instance, compartment, region):
        """Called for every heap region (``compartment`` None = shared)."""

    def on_stack_created(self, instance, compartment, stack_region,
                         dss_region):
        """Called for every thread stack (and DSS, when present)."""

    def transform_rules(self):
        """Names of the Coccinelle-style recipes this backend installs."""
        return ()

    # -- shared helpers ------------------------------------------------------
    @staticmethod
    def all_pairs(compartments):
        for src in compartments:
            for dst in compartments:
                if src.index != dst.index:
                    yield src, dst
