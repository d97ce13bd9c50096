"""Compare two results documents of the suite (``--out`` files).

    python -m benchmarks.suite.compare A.json B.json

Prints one row per workload and end-to-end metric and labels B against
A, using the bounds in ``BENCHMARK.json`` for the wall-clock metrics:

* ``worse`` / ``better``: B's value moved past the bound, worse or
  better;
* ``same``: within the bound;
* ``unresolved``: either side's K-sample spread (quartile distance over
  the median) exceeds the bound, unless every sample on one side beats
  every sample on the other.

The exact guards (``runner.EXACT_METRICS``: the virtual-clock results
and ``error_rate``) have no spread and a bound of 0: any change is
better or worse.  The tool refuses, with exit status 2, two documents
whose stamps differ in anything but the commit; otherwise it exits 1
when any row is worse, and 0.
"""

import json
import sys

from benchmarks.suite.runner import benchmark_spec, metric_table


def bounds(spec):
    """Metric name -> (better, bound) for every compared metric."""
    return {name: (better, bound)
            for name, (_, better, bound) in metric_table(spec).items()
            if bound is not None}


def stamp_differences(a, b):
    """Stamp keys, other than the commit, on which two documents differ."""
    keys = (set(a["stamp"]) | set(b["stamp"])) - {"commit"}
    return sorted(key for key in keys
                  if a["stamp"].get(key) != b["stamp"].get(key))


def label(a, b, better, bound):
    """(label, relative change of B against A) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    change = worse_by / abs(a["value"]) if a["value"] else worse_by
    if a["value"] == b["value"]:
        return "same", 0.0
    if bound == 0.0:
        return ("worse" if worse_by > 0 else "better"), change

    def beats(x, y):
        return x < y if better == "lower" else x > y

    a_samples, b_samples = a["samples"], b["samples"]
    dominated = (all(beats(x, y) for x in a_samples for y in b_samples)
                 or all(beats(y, x) for x in a_samples for y in b_samples))
    if max(a["spread"], b["spread"]) > bound and not dominated:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(a, b, spec):
    """Rows (workload, metric, A value, B value, change, bound, label)."""
    rows = []
    for workload in a["workloads"]:
        a_metrics = a["workloads"][workload]["end_to_end"]
        b_metrics = b["workloads"][workload]["end_to_end"]
        for metric, (better, bound) in bounds(spec).items():
            if metric not in a_metrics or metric not in b_metrics:
                continue
            verdict, change = label(a_metrics[metric], b_metrics[metric],
                                    better, bound)
            rows.append((workload, metric, a_metrics[metric]["value"],
                         b_metrics[metric]["value"], change, bound,
                         verdict))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m benchmarks.suite.compare A.json B.json",
              file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    a, b = documents
    differences = stamp_differences(a, b)
    if differences:
        print("refusing to compare: stamps differ in %s"
              % ", ".join(differences), file=sys.stderr)
        return 2
    rows = compare(a, b, benchmark_spec())
    print("%-18s %-12s %14s %14s %8s %6s  %s" % (
        "workload", "metric", "A", "B", "worse by", "bound", "label"))
    for workload, metric, a_value, b_value, change, bound, verdict in rows:
        print("%-18s %-12s %14.6g %14.6g %7.1f%% %5.0f%%  %s" % (
            workload, metric, a_value, b_value, 100.0 * change,
            100.0 * bound, verdict))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
