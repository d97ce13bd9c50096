"""The end-to-end benchmark suite: wall-clock speed of the simulator on
four workloads, next to their virtual-clock results, with a traced run
that splits the wall time by layer.  See ``README.md`` here and
``python -m benchmarks.suite --help``."""
