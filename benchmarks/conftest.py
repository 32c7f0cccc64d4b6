"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, prints it in the
paper's row/series format, and saves the text into ``benchmarks/results/``, so
the exact numbers a run produced stay in the tree next to the code.

The benchmarks default to laptop-scale configurations (small simulated
datasets, narrow networks).  Set ``REPRO_BENCH_PROFILE=full`` to run closer to
the paper's scale (expect an order of magnitude more runtime).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_profile() -> str:
    """Benchmark size profile: ``quick`` (default) or ``full``."""
    return os.environ.get("REPRO_BENCH_PROFILE", "quick")


def profile_value(quick, full):
    """Pick a configuration value based on the active profile."""
    return full if bench_profile() == "full" else quick


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Persist a benchmark's rendered output and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        print("\n" + text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
