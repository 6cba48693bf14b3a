"""Benchmark regression gate (``repro bench check``).

Each suite script in ``benchmarks/`` has ``collect(quick)``, returning
``{"suite", "quick", "rows"}`` of ``{"key", "kind", "value"}`` rows.
``exact`` rows are deterministic work counts that must equal the baseline
row with the same key. ``ratio`` rows carry their own ``min`` or ``max``.
An exact or ratio row of the baseline that the run lost fails as
``missing``. ``info`` rows (wall-clock numbers, magnitudes beside the
paper's) are never gated. Any row may carry the paper's number as
``paper``. Quick baselines live in ``benchmarks/baselines/``, full ones at
the repo root. ``repro bench check`` is the only entry point.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parents[3]
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"
BASELINES_DIR = BENCHMARKS_DIR / "baselines"

#: Suite name -> the script under ``benchmarks/`` whose ``collect`` runs it.
SUITES = {
    "engine": "bench_vector_engine",
    "trace": "bench_trace_overhead",
    "stream": "bench_stream_pipeline",
    "sharded": "bench_sharded_engine",
    "latency": "bench_update_latency",
    "serve": "bench_serve",
    "commongraph": "bench_commongraph",
    "paper": "bench_paper",
}


class BenchGateError(RuntimeError):
    """Raised when the gate cannot run (unknown suite, no rows, bad baseline)."""


def row(key: str, kind: str, value, **notes) -> dict:
    """One report row; ``notes`` are a ratio row's ``min=``/``max=`` and
    the paper's number as ``paper=``."""
    return {"key": key, "kind": kind, "value": value, **notes}


def baseline_path(suite: str, quick: bool) -> Path:
    """Where the committed baseline for ``suite`` in this mode lives."""
    if suite not in SUITES:
        raise BenchGateError(f"unknown suite {suite!r} (choose from {list(SUITES)})")
    if quick:
        return BASELINES_DIR / f"BENCH_{suite}.quick.json"
    return REPO_ROOT / f"BENCH_{suite}.json"


def _bound(r: dict) -> str:
    # A strict bound sits one float past the paper's number: show it in full.
    return " ".join(
        f"{k} {r[k]:g}" if float(f"{r[k]:g}") == r[k] else f"{k} {r[k]!r}"
        for k in ("min", "max")
        if k in r
    )


def check(rows: List[dict], baseline_rows: List[dict]) -> List[str]:
    """The failures of ``rows`` against ``baseline_rows``; empty means pass."""
    if not rows:
        raise BenchGateError("the report has no rows to gate")
    expected = {r["key"]: r for r in baseline_rows if r["kind"] != "info"}
    failures = []
    for r in rows:
        key, value = r["key"], r["value"]
        lo, hi = r.get("min", -math.inf), r.get("max", math.inf)
        want = expected.pop(key, {"kind": None})
        if r["kind"] == want["kind"] == "exact" and value != want["value"]:
            failures.append(f"{key}: {value} drifted from baseline {want['value']}")
        elif r["kind"] == "ratio" and not lo <= value <= hi:  # NaN fails too
            failures.append(f"{key}: {float(value)!r} is outside {_bound(r)}")
    return failures + [
        f"{k}: missing (baseline {r['value']})" for k, r in expected.items()
    ]


def gate(report: dict) -> List[str]:
    """Check one suite report against its committed baseline."""
    path = baseline_path(report["suite"], report["quick"])
    baseline = json.loads(path.read_text()) if path.exists() else {}
    if baseline.get("quick") != report["quick"] or "rows" not in baseline:
        raise BenchGateError(
            f"no quick={report['quick']} row baseline at {path}; "
            "record one with --update-baselines"
        )
    return check(report["rows"], baseline["rows"])


def load_script(suite: str):
    """Import ``suite``'s script from ``benchmarks/`` as a fresh module."""
    path = BENCHMARKS_DIR / f"{SUITES.get(suite, '')}.py"
    if suite not in SUITES or not path.exists():
        raise BenchGateError(f"unknown suite {suite!r} or missing script {path}")
    spec = importlib.util.spec_from_file_location(f"repro_bench_{suite}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def render(report: dict) -> str:
    """The report's rows as a table, one line per row."""
    lines = []
    for r in report["rows"]:
        value = r["value"]
        if isinstance(value, float):
            value = f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.3g}"
        paper = f" paper {r['paper']}" if "paper" in r else ""
        lines.append(
            f"{report['suite']:>11} {r['kind']:<5} {r['key']:<38} "
            f"{value!s:>14}  {_bound(r)}{paper}".rstrip()
        )
    return "\n".join(lines)


def _save(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[saved to {path}]")


def run_gate(suites: List[str], quick: bool, update_baselines: bool = False) -> dict:
    """Gate each suite's report, or record it as the new baseline.

    A report is recorded only when its ratio rows are inside their own
    bounds: a failing run never becomes the committed baseline.
    """
    reports, failures = {}, []
    for suite in suites:
        report = reports[suite] = load_script(suite).collect(quick)
        print(render(report), flush=True)
        if update_baselines:
            suite_failures = check(report["rows"], [])
            if not suite_failures:
                _save(report, baseline_path(suite, quick))
        else:
            suite_failures = gate(report)
        failures += [f"{suite} {failure}" for failure in suite_failures]
    return {"reports": reports, "failures": failures}
