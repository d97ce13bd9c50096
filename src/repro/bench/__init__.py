"""Benchmark harness utilities.

:mod:`repro.bench.runner` plays the role of Wayfinder [38], the paper's
benchmarking platform: it sweeps configurations, runs a measurement
callable per configuration, and collects labelled results.
:mod:`repro.bench.tables` renders the rows/series each figure or table
reports.
"""

from repro.bench.runner import SweepResult, Wayfinder
from repro.bench.tables import format_bars, format_series, format_table

__all__ = [
    "SweepResult",
    "Wayfinder",
    "format_bars",
    "format_series",
    "format_table",
]
