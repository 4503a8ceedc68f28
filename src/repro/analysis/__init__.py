"""Analysis and reporting helpers for experiments and benchmarks."""

from repro.analysis.export import write_json
from repro.analysis.report import format_table
from repro.analysis.stats import Summary, summarize

__all__ = [
    "summarize",
    "Summary",
    "format_table",
    "write_json",
]
