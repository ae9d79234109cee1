"""Shared helpers for the benchmark harness.

Besides the pytest-benchmark timings, a benchmark module renders its report
table with :func:`repro.analysis.render_table` and stores it under
``benchmarks/results/`` through the ``publish`` fixture.  Run with ``-s`` to
also see the tables inline.
"""

from __future__ import annotations

import pathlib
import sys

try:  # pragma: no cover - trivial import guard
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover - only on uninstalled checkouts
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory where benchmark report tables are written."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def publish(results_dir):
    """Callable that prints a report table and persists it to the results dir."""

    def _publish(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _publish
