"""Toolchain tests: callgraph, transformation, verification, linker, build."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.backends import get_backend
from repro.core.config import CompartmentSpec, SafetyConfig
from repro.core.toolchain.build import build_image
from repro.core.toolchain.callgraph import (
    build_callgraph,
    cross_library_calls,
    library_communication_matrix,
    unannotated_indirect_calls,
)
from repro.core.toolchain.sources import (
    Call,
    Compute,
    DssVar,
    FunctionSource,
    GateStmt,
    IndirectCall,
    LibrarySource,
    SharedHeapVar,
    SourceTree,
    StackVar,
    default_kernel_sources,
)
from repro.core.toolchain.transform import transform
from repro.core.toolchain.verify import verify_transform
from repro.errors import TransformError
from tests.conftest import make_config


@pytest.fixture
def tree():
    return default_kernel_sources()


class TestCallgraph:
    def test_nodes_are_all_functions(self, tree):
        graph = build_callgraph(tree)
        assert "lwip:tcp_input" in graph
        assert "newlib:recv" in graph

    def test_cross_library_calls_found(self, tree):
        crossings = cross_library_calls(tree)
        pairs = {(f.library, s.library) for f, s in crossings}
        assert ("newlib", "lwip") in pairs
        assert ("vfscore", "ramfs") in pairs

    def test_intra_library_calls_excluded(self, tree):
        crossings = cross_library_calls(tree)
        assert all(f.library != s.library for f, s in crossings)

    def test_communication_matrix(self, tree):
        matrix = library_communication_matrix(tree)
        assert matrix[("newlib", "lwip")] == 2  # recv + send paths
        # The paper's "isolation for free": lwip never calls the scheduler.
        assert ("lwip", "uksched") not in matrix

    def test_unannotated_indirect_detected(self):
        tree = SourceTree([
            LibrarySource("a", functions=[FunctionSource("f", "a", [
                IndirectCall(candidates=[("b", "g")]),
            ])]),
            LibrarySource("b", functions=[FunctionSource("g", "b", [
                Compute(10),
            ])]),
        ])
        assert len(unannotated_indirect_calls(tree)) == 1


class TestTransform:
    def test_cross_compartment_calls_become_gates(self, tree):
        config = make_config(isolate=("lwip",))
        backend = get_backend("intel-mpk")
        out, report, _ = transform(tree, config, backend)
        recv = out.resolve("newlib", "recv")
        gate_targets = [
            s.library for s in recv.body if isinstance(s, GateStmt)
        ]
        assert gate_targets == ["lwip"]
        assert report.gates_inserted >= 2  # recv + send into lwip

    def test_intra_compartment_calls_untouched(self, tree):
        config = make_config(isolate=("lwip",))
        out, _, _ = transform(tree, config, get_backend("intel-mpk"))
        vfs_open = out.resolve("vfscore", "vfs_open")
        # vfscore -> ramfs stays a plain call: same compartment.
        assert any(
            isinstance(s, Call) and s.library == "ramfs"
            for s in vfs_open.body
        )

    def test_single_compartment_is_identity_for_gates(self, tree):
        config = make_config(mechanism="none", isolate=())
        out, report, _ = transform(tree, config, get_backend("none"))
        assert report.gates_inserted == 0
        assert not any(
            isinstance(s, GateStmt)
            for f in out.functions() for s in f.body
        )

    def test_dss_rewrite_of_shared_stack_vars(self, tree):
        config = make_config(isolate=("lwip",), sharing="dss")
        out, report, _ = transform(tree, config, get_backend("intel-mpk"))
        tcp_recv = out.resolve("lwip", "tcp_recv")
        assert any(isinstance(s, DssVar) for s in tcp_recv.body)
        assert report.dss_rewrites > 0

    def test_heap_conversion_alternative(self, tree):
        config = make_config(isolate=("lwip",), sharing="heap")
        out, report, _ = transform(tree, config, get_backend("intel-mpk"))
        tcp_recv = out.resolve("lwip", "tcp_recv")
        assert any(isinstance(s, SharedHeapVar) for s in tcp_recv.body)
        assert report.heap_conversions > 0

    def test_shared_stack_leaves_declarations(self, tree):
        config = make_config(isolate=("lwip",), sharing="shared-stack")
        out, report, _ = transform(tree, config, get_backend("intel-mpk"))
        tcp_recv = out.resolve("lwip", "tcp_recv")
        assert any(
            isinstance(s, StackVar) and s.shared for s in tcp_recv.body
        )
        assert report.dss_rewrites == report.heap_conversions == 0

    def test_input_tree_not_mutated(self, tree):
        config = make_config(isolate=("lwip",))
        transform(tree, config, get_backend("intel-mpk"))
        recv = tree.resolve("newlib", "recv")
        assert not any(isinstance(s, GateStmt) for s in recv.body)

    def test_patch_stats_count_lines(self, tree):
        config = make_config(isolate=("lwip", "uksched"), n_extra=2)
        _, report, _ = transform(tree, config, get_backend("intel-mpk"))
        added, removed = report.patch_size("newlib")
        assert added > removed > 0  # gates add net lines

    def test_annotations_collected(self, tree):
        config = make_config(isolate=("lwip",))
        _, _, annotations = transform(tree, config, get_backend("intel-mpk"))
        assert annotations.is_shared("lwip", "rx_buf")
        assert annotations.count_for("lwip") >= 2

    def test_unannotated_indirect_call_fails_build(self):
        tree = SourceTree([
            LibrarySource("a", functions=[FunctionSource("f", "a", [
                IndirectCall(candidates=[("b", "g")]),
            ])]),
            LibrarySource("b", functions=[FunctionSource("g", "b", [])]),
        ])
        config = make_config(isolate=("b",))
        with pytest.raises(TransformError, match="annotate"):
            transform(tree, config, get_backend("intel-mpk"))

    def test_annotated_indirect_call_gets_wrapper(self):
        tree = SourceTree([
            LibrarySource("a", functions=[FunctionSource("f", "a", [
                IndirectCall(candidates=[("b", "g")],
                             annotated_callers=("a",)),
            ])]),
            LibrarySource("b", functions=[FunctionSource("g", "b", [])]),
        ])
        config = make_config(isolate=("b",))
        _, report, _ = transform(tree, config, get_backend("intel-mpk"))
        assert report.wrappers == 1


class TestVerify:
    def test_valid_transform_passes(self, tree):
        config = make_config(isolate=("lwip",))
        out, _, annotations = transform(tree, config,
                                        get_backend("intel-mpk"))
        assert verify_transform(out, config, annotations)

    def test_ungated_cross_compartment_call_detected(self, tree):
        config = make_config(isolate=("lwip",))
        out, _, annotations = transform(tree, config,
                                        get_backend("intel-mpk"))
        # Sabotage: put a raw cross-compartment call back.
        out.resolve("newlib", "recv").body.append(Call("lwip", "tcp_recv"))
        with pytest.raises(TransformError, match="ungated"):
            verify_transform(out, config, annotations)

    def test_spurious_gate_detected(self, tree):
        config = make_config(isolate=("lwip",))
        out, _, annotations = transform(tree, config,
                                        get_backend("intel-mpk"))
        func = out.resolve("vfscore", "vfs_open")
        func.body.append(GateStmt("mpk-full", "ramfs", "ramfs_lookup",
                                  Call("ramfs", "ramfs_lookup")))
        with pytest.raises(TransformError, match="spurious"):
            verify_transform(out, config, annotations)

    def test_wrong_gate_kind_detected(self, tree):
        config = make_config(isolate=("lwip",))
        out, _, annotations = transform(tree, config,
                                        get_backend("intel-mpk"))
        func = out.resolve("newlib", "recv")
        for stmt in func.body:
            if isinstance(stmt, GateStmt):
                stmt.kind = "ept-rpc"
        with pytest.raises(TransformError, match="kind"):
            verify_transform(out, config, annotations)

    def test_unrewritten_shared_stack_var_detected(self, tree):
        config = make_config(isolate=("lwip",), sharing="dss")
        out, _, annotations = transform(tree, config,
                                        get_backend("intel-mpk"))
        out.resolve("lwip", "tcp_recv").body.append(
            StackVar("leak", 8, shared=True)
        )
        with pytest.raises(TransformError, match="not rewritten"):
            verify_transform(out, config, annotations)


class TestLinkerAndBuild:
    def test_sections_per_compartment(self):
        config = make_config(isolate=("lwip",))
        image = build_image(config)
        names = {s.name for s in image.sections}
        assert ".data.comp1" in names
        assert ".data.comp2" in names
        assert ".data.shared" in names

    def test_linker_script_mentions_libraries(self):
        config = make_config(isolate=("lwip",))
        image = build_image(config)
        assert "lwip" in image.linker_script
        assert "SECTIONS" in image.linker_script

    def test_ept_duplicates_tcb_sections(self):
        config = make_config(mechanism="vm-ept", isolate=("lwip",))
        image = build_image(config)
        # Every compartment's script group must include the TCB libs.
        assert image.linker_script.count("ukboot") >= 2

    def test_build_produces_legal_entries(self):
        config = make_config(isolate=("lwip",))
        image = build_image(config)
        lwip_comp = image.compartment_of("lwip")
        assert "pump" in image.legal_entries[lwip_comp.index]

    def test_every_library_lands_in_a_compartment(self):
        config = make_config(isolate=("lwip",))
        image = build_image(config)
        for lib in ("lwip", "uksched", "vfscore", "newlib", "ukboot"):
            assert image.compartment_of(lib) is not None

    def test_transform_rules_recorded(self):
        config = make_config(isolate=("lwip",))
        image = build_image(config)
        assert "gate-to-mpk" in image.transform_report.rules


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The benchmark suite child's imports, then a build and boot of every
#: suite workload; prints whether networkx got imported on the way.
BUILD_AND_BOOT = """
import sys

import benchmarks.suite.child
from benchmarks.suite.workloads import CORES, WORKLOADS
from repro.bench.functional import config_for
from repro.bench.load import LOAD_ISOLATE, run_load
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.hw.costs import CostModel
from repro.kernel.net.device import LinkedDevices

costs = CostModel.xeon_4114()
for workload in WORKLOADS:
    FlexOSInstance(
        build_image(config_for(workload.mechanism,
                               LOAD_ISOLATE[workload.app])),
        machine=Machine(costs),
        net_device=None if workload.app == "sqlite"
        else LinkedDevices(costs).a,
        cores=CORES,
    ).boot()
print(sorted(name for name in sys.modules if name.startswith("networkx")))
"""


def test_build_and_boot_do_not_import_networkx():
    """networkx serves exploration (the configuration poset) and call-
    graph analysis only; building and booting an image must not pay for
    importing it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", BUILD_AND_BOOT], cwd=str(ROOT), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
