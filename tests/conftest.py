"""Shared fixtures: cost models, configurations, built images, instances."""

from __future__ import annotations

import pytest

from repro.core.config import CompartmentSpec, SafetyConfig
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.hw.costs import CostModel
from repro.kernel.lib import entrypoint


@pytest.fixture
def costs():
    return CostModel.xeon_4114()


@pytest.fixture
def machine(costs):
    return Machine(costs)


def make_config(mechanism="intel-mpk", isolate=("lwip",), hardening=None,
                sharing="dss", mpk_gate="full", n_extra=1):
    """A config isolating ``isolate`` libraries in extra compartment(s)."""
    specs = [CompartmentSpec("comp1", mechanism=mechanism, default=True)]
    assignment = {}
    if n_extra == 1:
        specs.append(CompartmentSpec(
            "comp2", mechanism=mechanism,
            hardening=hardening or (),
        ))
        for lib in isolate:
            assignment[lib] = "comp2"
    else:
        for i, lib in enumerate(isolate):
            name = "comp%d" % (i + 2)
            specs.append(CompartmentSpec(
                name, mechanism=mechanism, hardening=hardening or (),
            ))
            assignment[lib] = name
    return SafetyConfig(specs, assignment, sharing=sharing,
                        mpk_gate=mpk_gate)


@pytest.fixture
def mpk_config():
    return make_config()


@pytest.fixture
def ept_config():
    return make_config(mechanism="vm-ept")


@pytest.fixture
def none_config():
    return SafetyConfig(
        [CompartmentSpec("comp1", mechanism="none", default=True)], {},
    )


@pytest.fixture
def mpk_image(mpk_config):
    return build_image(mpk_config)


@pytest.fixture
def mpk_instance(mpk_image, machine):
    return FlexOSInstance(mpk_image, machine=machine).boot()


@pytest.fixture
def ept_instance(ept_config, machine):
    return FlexOSInstance(build_image(ept_config), machine=machine).boot()


@pytest.fixture
def none_instance(none_config, machine):
    return FlexOSInstance(build_image(none_config), machine=machine).boot()


class CalleeCrash(Exception):
    """Raised by a :func:`check_nesting` callee.  Not a ReproError, so
    no supervisor policy intercepts it on the way out."""


#: How the inner callee of :func:`check_nesting` ends: it returns; it
#: raises and the outer entry catches; it raises through both levels.
NESTING_MODES = ("return", "inner-raises", "propagates")


def check_nesting(ctx, outer_lib, inner_lib, mode):
    """Call an entry point of ``outer_lib`` that calls one of
    ``inner_lib``, under the installed context ``ctx``.

    Asserts that each level sees its own library in
    ``ctx.current_library``, that the outer level sees its own again
    once the inner call has returned or raised, and that the caller's
    (None, outside any entry point) is back afterwards.
    """
    seen = []

    @entrypoint(inner_lib)
    def inner():
        seen.append(ctx.current_library)
        if mode != "return":
            raise CalleeCrash(inner_lib)

    @entrypoint(outer_lib)
    def outer():
        seen.append(ctx.current_library)
        try:
            inner()
        except CalleeCrash:
            if mode == "propagates":
                raise
        seen.append(ctx.current_library)

    assert ctx.current_library is None
    if mode == "propagates":
        with pytest.raises(CalleeCrash):
            outer()
        assert seen == [outer_lib, inner_lib]
    else:
        outer()
        assert seen == [outer_lib, inner_lib, outer_lib]
    assert ctx.current_library is None
