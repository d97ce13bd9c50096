"""Time the simulator on the suite's workloads.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.suite --seed 1 [--trace] [--out FILE]
    python -m benchmarks.suite --workload NAME --seed N --seconds S --trace 0|1

The first form runs all four workloads for a fixed number of rounds and
prints every metric by name and unit.  ``--workload`` runs one workload,
for ``--seconds`` of sampling when given, and ends the output with one
JSON line: ``correct``, ``attempted``, ``failed`` and the workload's
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``),
as ``BENCHMARK.json`` names them.  ``--trace`` adds one traced child per
workload, whose Chrome trace-event file is written next to ``--out``
(default ``benchmarks/suite/out/``).  Exit status: 0 when every output
checked out, 1 when a check failed, 2 when the simulator sources are
missing.
"""

import argparse
import json
import pathlib
import sys

from benchmarks.suite.runner import (
    OUT_DIR,
    REFERENCE_S,
    SRC,
    benchmark_spec,
    metric_table,
    run,
)
from benchmarks.suite.workloads import BY_NAME, ROUNDS, WORKLOADS


def units(spec):
    """Metric name -> unit."""
    return {name: unit for name, (unit, _, _) in metric_table(spec).items()}


def report(results, spec):
    """The human-readable table of a results document."""
    unit_of = units(spec)
    lines = []
    for name, result in results["workloads"].items():
        lines.append("== %s: %d samples of N=%d, seed %d ==" % (
            name, result["samples"],
            results["stamp"]["workloads"][name]["n_requests"],
            results["stamp"]["seed"]))
        if result["reference_s"] is not None:
            lines.append("  wall times scaled from a reference loop of "
                         "%.4f s (median) to %.4f s" % (
                             result["reference_s"]["value"], REFERENCE_S))
        for metric, entry in result["end_to_end"].items():
            line = "  %-34s %16.6g %s" % (metric, entry["value"],
                                          unit_of[metric])
            if "samples" in entry:
                line += "  (quartiles %.6g / %.6g / %.6g, spread %.1f%%)" % (
                    entry["q1"], entry["median"], entry["q3"],
                    100.0 * entry["spread"])
            lines.append(line)
        if result["per_layer"] is not None:
            lines.append("  per layer (traced run):")
            for metric, value in sorted(result["per_layer"].items()):
                lines.append("  %-34s %16.6g %s" % (metric, value,
                                                    unit_of[metric]))
        for error in result["errors"]:
            lines.append("  ERROR: %s" % error)
    return "\n".join(lines)


def summary_line(results, name, spec, trace):
    """The one-line JSON result of a single-workload run."""
    result = results["workloads"][name]
    values = {metric: entry["value"]
              for metric, entry in result["end_to_end"].items()}
    values.update(result["per_layer"] or {})
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return json.dumps({
        "correct": results["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric["name"]: {"value": values.get(metric["name"],
                                                         0.0),
                                     "unit": metric["unit"]}
                    for metric in listed},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Time the simulator on the suite's workloads.")
    parser.add_argument("--seed", type=int, default=1,
                        help="Poisson arrival seed (default 1)")
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run this workload alone and end with a "
                             "one-line JSON result")
    parser.add_argument("--seconds", type=float,
                        help="sample while this many seconds last "
                             "(default: %d rounds)" % ROUNDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced run per workload")
    parser.add_argument("--out", help="write the results document here")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print("error: no simulator sources under %s" % SRC, file=sys.stderr)
        return 2
    spec = benchmark_spec()
    workloads = [BY_NAME[args.workload]] if args.workload else WORKLOADS
    out_dir = pathlib.Path(args.out).resolve().parent if args.out \
        else OUT_DIR
    results = run(workloads, args.seed, seconds=args.seconds,
                  trace=bool(args.trace), out_dir=out_dir,
                  log=lambda message: print(message, file=sys.stderr))
    print(report(results, spec))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
    if args.workload:
        print(summary_line(results, args.workload, spec, args.trace))
    return 0 if results["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
