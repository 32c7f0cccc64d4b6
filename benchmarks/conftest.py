"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, prints it in the
paper's row/series format, and saves the text into ``benchmarks/results/``, so
the exact numbers a run produced stay in the tree next to the code.

Each experiment runs its registered preset (:mod:`repro.experiments.presets`)
at laptop scale: small simulated datasets and narrow networks.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


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
