"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one table or figure of the
paper's evaluation (see DESIGN.md §4 for the index).  Benchmarks run the
relevant simulation once under pytest-benchmark (`--benchmark-only`),
print the same rows/series the paper reports, and attach the headline
numbers as ``extra_info`` so they land in pytest-benchmark's JSON
output.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.report import format_table


def run_once(benchmark, fn):
    """Execute a simulation exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def hex_digest(values) -> str:
    """SHA-256 of the ``float.hex()`` of each value, one per line.

    Pins a long float series bit for bit in one line of a test.
    """
    return hashlib.sha256("\n".join(value.hex() for value in values).encode()).hexdigest()


def emit(title: str, headers, rows, benchmark=None, **extra):
    """Print a paper-style table and stash headline numbers."""
    print()
    print(f"== {title} ==")
    print(format_table(headers, rows))
    if benchmark is not None:
        for key, value in extra.items():
            benchmark.extra_info[key] = value


@pytest.fixture(autouse=True)
def _show_output(capsys):
    """Let the printed tables through even without ``-s``."""
    yield
    with capsys.disabled():
        out, _err = capsys.readouterr()
        if out.strip():
            print(out, end="")
