"""Wall-clock datapath benchmark: the permission-TLB fast path.

Unlike every other benchmark in this directory, the headline numbers
here are **wall-clock ops/sec**, not virtual cycles: the permission TLB
(:mod:`repro.hw.tlb`) is invisible in virtual time by design, and this
driver is what proves both halves of that contract —

* the *virtual* section of ``BENCH_datapath.json`` must be bit-identical
  with the TLB on and off (each microbenchmark runs both legs and the
  CI ``datapath-smoke`` job additionally diffs two whole-process runs
  under ``FLEXOS_TLB=on`` / ``off``);
* the *wall_clock* section must show the fast path paying off: >= 2x
  ops/sec on the MemoryObject read microbenchmark and a >= 90 % hit
  rate on the functional Redis loop (the acceptance criteria).

Wall-clock values are environment-dependent and therefore never under
the ``obs check`` perf gate; the virtual values are deterministic.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from benchmarks.common import run_recorded, write_result

from repro.bench.functional import run_functional_redis
from repro.core.config import CompartmentSpec
from repro.core.gates import MpkLightGate
from repro.core.image import Compartment
from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.hw.cpu import ExecutionContext
from repro.hw.memory import ByteBuffer, MemoryObject, PhysicalMemory
from repro.hw.mmu import MMU
from repro.hw.mpk import PKRU

#: Operations per wall-clock timing loop.  Large enough that the
#: perf_counter resolution is irrelevant, small enough for CI.
MICRO_OPS = 50_000

#: Requests in the functional Redis hit-rate leg.
REDIS_REQUESTS = 40


@contextmanager
def tlb_mode(enabled):
    """Force the kill switch for contexts created inside the block."""
    previous = os.environ.get("FLEXOS_TLB")
    os.environ["FLEXOS_TLB"] = "on" if enabled else "off"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["FLEXOS_TLB"]
        else:
            os.environ["FLEXOS_TLB"] = previous


def _fresh_ctx():
    """A minimal MPK-style context over one accessible region."""
    costs = CostModel.xeon_4114()
    memory = PhysicalMemory()
    mmu = MMU(memory, costs)
    ctx = ExecutionContext(Clock(), costs, mmu, compartment=0,
                           pkru=PKRU(allowed=(0, 1)))
    region = memory.add_region(".data.bench", 16 * 4096, pkey=1,
                               compartment=1)
    return ctx, region


def _ops_per_sec(fn, ops):
    begin = time.perf_counter()
    for _ in range(ops):
        fn()
    elapsed = time.perf_counter() - begin
    return ops / elapsed if elapsed > 0 else float("inf")


def _memobj_leg(enabled):
    with tlb_mode(enabled):
        ctx, region = _fresh_ctx()
    obj = MemoryObject("bench-cell", region, value=42)
    rate = _ops_per_sec(lambda: obj.read(ctx), MICRO_OPS)
    return rate, ctx.clock.cycles, ctx.mmu.checks


def _bytebuffer_leg(enabled):
    with tlb_mode(enabled):
        ctx, region = _fresh_ctx()
    buf = ByteBuffer("bench-buf", region, 0, 4096)
    spans = [(i * 256, 256) for i in range(8)]

    def scalar():
        for start, length in spans:
            buf.read_bytes(ctx, start, length)

    scalar_rate = _ops_per_sec(scalar, MICRO_OPS // 8)
    return {"scalar_batches_per_sec": scalar_rate}, {
        "scalar_cycles": ctx.clock.cycles,
        "scalar_checks": ctx.mmu.checks,
    }


def _gate_leg(enabled):
    with tlb_mode(enabled):
        ctx, _ = _fresh_ctx()
    src = Compartment(0, CompartmentSpec("comp1", default=True), ["app"])
    dst = Compartment(1, CompartmentSpec("comp2"), ["lwip"])
    src.pkey, dst.pkey = 0, 1
    src.shared_pkeys = dst.shared_pkeys = (15,)
    gate = MpkLightGate(src, dst, ctx.costs)
    rate = _ops_per_sec(
        lambda: gate.call(ctx, "lwip", lambda: None, (), {}),
        MICRO_OPS // 10,
    )
    return rate, ctx.clock.cycles


def _redis_leg(enabled):
    with tlb_mode(enabled):
        begin = time.perf_counter()
        run = run_functional_redis("intel-mpk", n_requests=REDIS_REQUESTS)
        elapsed = time.perf_counter() - begin
    tlb = run.ctx.tlb
    return {
        "wall_seconds": elapsed,
        "tlb": tlb.stats() if tlb is not None else None,
    }, run.cycles_per_request


def _run_datapath():
    """Both TLB legs of every experiment; returns the trajectory payload."""
    on_rate, on_cycles, on_checks = _memobj_leg(True)
    off_rate, off_cycles, off_checks = _memobj_leg(False)
    assert on_cycles == off_cycles, "TLB perturbed MemoryObject cycles"
    assert on_checks == off_checks, "TLB perturbed the checks counter"

    buf_on_wall, buf_on_virtual = _bytebuffer_leg(True)
    buf_off_wall, buf_off_virtual = _bytebuffer_leg(False)
    assert buf_on_virtual == buf_off_virtual, \
        "TLB perturbed ByteBuffer cycles"

    gate_on_rate, gate_on_cycles = _gate_leg(True)
    gate_off_rate, gate_off_cycles = _gate_leg(False)
    assert gate_on_cycles == gate_off_cycles, "TLB perturbed gate cycles"

    redis_on, redis_on_cpr = _redis_leg(True)
    redis_off, redis_off_cpr = _redis_leg(False)
    assert redis_on_cpr == redis_off_cpr, \
        "TLB perturbed functional Redis cycles/request"

    return {
        "virtual": {
            "memobj_read": {"cycles": on_cycles, "checks": on_checks},
            "bytebuffer": buf_on_virtual,
            "gate_crossing_cycles": gate_on_cycles,
            "redis_cycles_per_request": redis_on_cpr,
        },
        "wall_clock": {
            "memobj_read": {
                "tlb_on_ops_per_sec": on_rate,
                "tlb_off_ops_per_sec": off_rate,
                "speedup": on_rate / off_rate,
            },
            "bytebuffer": {"tlb_on": buf_on_wall, "tlb_off": buf_off_wall},
            "gate_crossing": {
                "tlb_on_calls_per_sec": gate_on_rate,
                "tlb_off_calls_per_sec": gate_off_rate,
                "speedup": gate_on_rate / gate_off_rate,
            },
            "redis_functional": {"tlb_on": redis_on, "tlb_off": redis_off},
        },
    }


def test_datapath(benchmark):
    payload = run_recorded(
        benchmark, "datapath", _run_datapath,
        config={
            "micro_ops": MICRO_OPS,
            "redis_requests": REDIS_REQUESTS,
            "mechanism": "intel-mpk",
        },
        pedantic={"rounds": 1, "iterations": 1},
    )

    memobj = payload["wall_clock"]["memobj_read"]
    assert memobj["speedup"] >= 2.0, (
        "permission TLB must at least double MemoryObject read throughput "
        "(got %.2fx)" % memobj["speedup"]
    )
    redis_tlb = payload["wall_clock"]["redis_functional"]["tlb_on"]["tlb"]
    assert redis_tlb is not None, "redis leg ran without a TLB"
    assert redis_tlb["hit_rate"] >= 0.90, (
        "functional Redis hit rate %.1f%% below the 90%% criterion"
        % (100 * redis_tlb["hit_rate"])
    )
    assert payload["wall_clock"]["redis_functional"]["tlb_off"]["tlb"] is None

    lines = [
        "datapath wall-clock (permission TLB)",
        "  memobj read:    %.0f -> %.0f ops/s (%.2fx)" % (
            memobj["tlb_off_ops_per_sec"], memobj["tlb_on_ops_per_sec"],
            memobj["speedup"],
        ),
        "  gate crossing:  %.0f -> %.0f calls/s (%.2fx)" % (
            payload["wall_clock"]["gate_crossing"]["tlb_off_calls_per_sec"],
            payload["wall_clock"]["gate_crossing"]["tlb_on_calls_per_sec"],
            payload["wall_clock"]["gate_crossing"]["speedup"],
        ),
        "  redis hit rate: %.1f%% (%d hits / %d lookups)" % (
            100 * redis_tlb["hit_rate"], redis_tlb["hits"],
            redis_tlb["hits"] + redis_tlb["misses"],
        ),
    ]
    write_result("datapath", "\n".join(lines))
