"""Run the suite: K rounds of fresh child processes, then aggregate.

Each round visits the selected workloads in round-robin order and takes
one sample of each in a fresh child (:mod:`benchmarks.suite.child`), one
child at a time.  Wall-clock metrics keep every sample with its
quartiles and publish the median of the K samples.  Virtual-clock
results must be identical across the K samples, and a traced sample's
must equal them: anything else is an error, like a failed child.

The shared host this suite runs on changes speed by up to 2x for
minutes at a time, and wall and CPU time both follow.  So a fixed
reference loop (:mod:`benchmarks.suite.reference`) is timed in a fresh
interpreter before the first child and after every child, and the
wall-clock times of each sample are scaled to :data:`REFERENCE_S`, the
loop's time on an undisturbed host, by the mean of the two references
around it.  The unscaled ``sim_rps`` is published next to the scaled one.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys
import time

from benchmarks.suite.stats import summarize
from benchmarks.suite.workloads import ROUNDS, WARMUP_REQUESTS

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Longest a single child may run before it is killed.  Samples take
#: 2-5 s; this keeps a 20 s run with a hung sample and a hung traced
#: sample under three minutes.
CHILD_TIMEOUT_S = 60

#: Seconds of ``reference.loop_s`` on an undisturbed host.
REFERENCE_S = 0.107

#: The wall-clock metrics, in ``BENCHMARK.json`` order.
WALL_METRICS = ("sim_rps", "setup_s", "peak_rss_mb")

#: The exact guards, compared with a bound of 0: the virtual-clock
#: results, which ``BENCHMARK.json`` lists under ``per_layer`` (it gives
#: bounds to wall-clock metrics only), and the error rate, which the
#: one-line result carries as ``attempted`` and ``failed``.
EXACT_METRICS = ("virt_rps", "virt_n", "virt_p50_us", "virt_p99_us",
                 "error_rate")

#: Environment flags that change what the simulator runs.
FLAGS = ("FLEXOS_TLB", "FLEXOS_COMPILE", "FLEXOS_EXPLORE_JOBS",
         "FLEXOS_EXPLORE_CACHE")


def benchmark_spec():
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_table(spec):
    """Metric name -> (unit, better, bound) for every metric the suite
    reports.  The bound is the one in ``spec`` for wall-clock metrics, 0
    for :data:`EXACT_METRICS` and None for metrics no one compares."""
    table = {metric["name"]: (metric["unit"], metric["better"],
                              metric.get("bound"))
             for metric in spec["end_to_end"] + spec["per_layer"]}
    table["error_rate"] = ("fraction", "lower", None)
    for name in EXACT_METRICS:
        table[name] = table[name][:2] + (0.0,)
    return table


def measure_reference():
    """Seconds of the reference loop in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite.reference"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout)


def run_child(workload, seed, n_requests, trace_path=None):
    """One sample in a fresh interpreter; a dict, with ``error`` set when
    the child failed."""
    spec = {"workload": workload.name, "seed": seed,
            "n_requests": n_requests,
            "trace_path": None if trace_path is None else str(trace_path)}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    # Identical hash layout in every child, so samples differ by noise
    # only (the virtual results never depend on it).
    env["PYTHONHASHSEED"] = "0"
    # Set-up imports from cached bytecode whatever the caller's
    # environment says; only the first child after a source change
    # compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite.child",
             json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %d s" % CHILD_TIMEOUT_S}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": "exit %d: %s" % (proc.returncode, tail[0])}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workloads, seed, *, seconds=None, trace=False, rounds=ROUNDS,
        n_requests=None, out_dir=OUT_DIR, log=lambda message: None):
    """Sample ``workloads`` and return the results document.

    Without ``seconds`` the run takes ``rounds`` rounds; with it, rounds
    continue while the time budget lasts (at least one).  ``trace`` adds
    one traced child per workload.  ``n_requests`` overrides every
    workload's N (smoke tests).
    """
    sizes = {workload.name: n_requests or workload.n_requests
             for workload in workloads}
    references = [measure_reference()]

    def sample(workload, trace_path=None):
        result = run_child(workload, seed, sizes[workload.name], trace_path)
        references.append(measure_reference())
        result["reference_s"] = (references[-2] + references[-1]) / 2.0
        return result

    samples = {workload.name: [] for workload in workloads}
    deadline = None if seconds is None else time.monotonic() + seconds
    taken = 0
    while (taken < rounds if deadline is None
           else taken == 0 or time.monotonic() < deadline):
        for workload in workloads:
            log("round %d: %s" % (taken + 1, workload.name))
            samples[workload.name].append(sample(workload))
        taken += 1
    traced = {}
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        for workload in workloads:
            log("traced: %s" % workload.name)
            traced[workload.name] = sample(
                workload, out_dir / ("trace-%s.json" % workload.name))
    results = {
        name: aggregate(samples[name], traced.get(name), sizes[name])
        for name in sizes
    }
    return {
        "stamp": stamp(seed, sizes, rounds=rounds if seconds is None else None,
                       seconds=seconds),
        "correct": all(not result["errors"] for result in results.values()),
        "workloads": results,
    }


def scaled(sample, n_requests):
    """A sample's wall-clock metrics, its times scaled to the reference
    speed, and its unscaled ``sim_rps``."""
    speed = REFERENCE_S / sample["reference_s"]  # below 1 on a slow host
    return {"sim_rps": n_requests / sample["wall_s"] / speed,
            "setup_s": sample["setup_s"] * speed,
            "peak_rss_mb": sample["peak_rss_mb"],
            "sim_rps_unscaled": n_requests / sample["wall_s"]}


def aggregate(samples, traced, n_requests):
    """One workload's results from its samples (and traced sample)."""
    per_sample = WARMUP_REQUESTS + n_requests
    errors = [sample["error"] for sample in samples + [traced]
              if sample is not None and "error" in sample]
    good = [sample for sample in samples if "error" not in sample]
    runs = len(samples) + (traced is not None)
    failed = len(errors) * per_sample
    end_to_end = {}
    reference_s = None
    virtual = None
    if good:
        wall = [scaled(sample, n_requests) for sample in good]
        for name in wall[0]:
            end_to_end[name] = summarize([metrics[name] for metrics in wall])
        reference_s = summarize([sample["reference_s"] for sample in good])
        virtual = good[0]["virtual"]
        if any(sample["virtual"] != virtual for sample in good):
            errors.append("virtual results differ between samples")
        end_to_end.update({name: {"value": value}
                           for name, value in virtual.items()
                           if name in EXACT_METRICS})
    per_layer = None
    if traced is not None and "error" not in traced:
        if virtual is not None and traced["virtual"] != virtual:
            errors.append("the traced run changed the virtual results")
        per_layer = dict(traced["per_layer"])
        per_layer.update((name, value) for name, value
                         in traced["virtual"].items()
                         if name not in EXACT_METRICS)
        if good:
            per_layer["trace_overhead"] = (
                end_to_end["sim_rps"]["value"]
                / scaled(traced, n_requests)["sim_rps"])
    attempted = runs * per_sample
    end_to_end["error_rate"] = {"value": failed / attempted}
    return {"samples": len(samples), "attempted": attempted,
            "failed": failed, "errors": errors, "end_to_end": end_to_end,
            "per_layer": per_layer, "reference_s": reference_s}


def stamp(seed, sizes, *, rounds, seconds):
    """What a result depends on besides the code: two results are
    comparable only when their stamps differ in ``commit`` alone.
    ``sizes`` maps each workload to its N; ``rounds`` and ``seconds``
    are the budget asked for (one of them None), not what it took."""
    return {
        "commit": _commit(),
        "seed": seed,
        "rounds": rounds,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "flags": {flag: os.environ.get(flag) for flag in FLAGS},
        "workloads": {name: {"n_requests": n, "warmup": WARMUP_REQUESTS}
                      for name, n in sizes.items()},
    }


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None
