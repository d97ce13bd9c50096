"""The build driver: configuration + sources -> Image."""

from __future__ import annotations

from repro.core.backends import get_backend
from repro.core.image import Compartment, Image
from repro.core.toolchain.linker import generate_linker_script
from repro.core.toolchain.sources import default_kernel_sources
from repro.core.toolchain.transform import transform
from repro.core.toolchain.verify import verify_transform
from repro.errors import BuildError
from repro.kernel.lib import LIBRARY_REGISTRY


def _compartment_layout(config, sources):
    """Group every library into its compartment, default catching strays."""
    all_libraries = set(sources.libraries)
    all_libraries.update(LIBRARY_REGISTRY)
    all_libraries.update(config.assignment)
    by_name = {name: [] for name in config.compartments}
    for library in sorted(all_libraries):
        by_name[config.compartment_of(library)].append(library)
    compartments = []
    for index, name in enumerate(sorted(config.compartments)):
        compartments.append(
            Compartment(index, config.compartments[name], by_name[name])
        )
    return compartments


def build_image(config, sources=None):
    """Build a FlexOS image for ``config``.

    Runs the whole toolchain: cross-library analysis, source
    transformation, transformation verification, linker-script
    generation.  Returns the static :class:`~repro.core.image.Image`.
    """
    sources = sources or default_kernel_sources()
    backend = get_backend(config.mechanism)

    transformed, report, annotations = transform(sources, config, backend)
    verify_transform(transformed, config, annotations)

    compartments = _compartment_layout(config, sources)
    if not compartments:
        raise BuildError("configuration produced no compartments")

    script, sections = generate_linker_script(config, compartments, backend)

    return Image(
        config=config,
        compartments=compartments,
        sections=sections,
        linker_script=script,
        annotations=annotations,
        transform_report=report,
        backend_name=config.mechanism,
    )
