"""Shared infrastructure for the benchmark harness.

Every table/figure bench runs its experiment grid once (rounds=1 — these
are deterministic model evaluations, not noisy timings), writes the
paper-style rendering to ``benchmarks/results/<name>.txt``, and records
headline numbers in ``benchmark.extra_info`` so they appear in the
pytest-benchmark report.

Set ``REPRO_BENCH_QUICK=1`` to shrink the grids (two graphs, two
algorithms) for a fast smoke run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.bench_gate import quick_mode  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def bench_graphs():
    """Dataset grid for the current mode."""
    return ["WK", "LJ"] if quick_mode() else None


def bench_algorithms():
    """Algorithm grid for the current mode (None = paper grid)."""
    return ["sssp", "pagerank"] if quick_mode() else None


def bench_selective_algorithms():
    return ["sssp"] if quick_mode() else None


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: Path, name: str, rendering: str) -> None:
    """Persist a rendered table/figure and echo it to the terminal."""
    path = results_dir / f"{name}.txt"
    path.write_text(rendering + "\n", encoding="utf-8")
    # pytest captures stdout per-test; the saved file is the artifact.
    print(f"\n{rendering}\n[saved to {path}]")
