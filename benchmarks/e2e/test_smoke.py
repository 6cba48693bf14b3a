"""Smoke test of the end-to-end benchmark (not part of tier-1).

    python -m pytest benchmarks/e2e -q

Each workload runs with a 1 s window and a short traced prefix. The test
checks the benchmark's own promises: every metric BENCHMARK.json declares
is reported on every workload, nothing fails, sample counts are printed
beside percentiles, and the traced prefix's work counts repeat exactly
when the same seed runs twice.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import EXACT_COUNTS, SPEC  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run(workload: str, *extra: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7"]
        + ["--seconds", "1", "--prefix", "20", *extra],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


def test_declared_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_repeats(workload):
    out = run(workload)  # both phases
    result = json.loads((HERE / "out" / "result.json").read_text(encoding="utf-8"))
    window, traced = (result["workloads"][workload][p] for p in ("window", "traced"))

    assert set(window["metrics"]) == END_TO_END
    assert set(traced["metrics"]) == PER_LAYER
    for phase in (window, traced):
        assert phase["failed"] == 0 and phase["correct"], phase["flags"]
    # End-to-end metrics are ratios' denominators for later PRs: never 0.
    assert all(value > 0 for value in window["metrics"].values())
    assert traced["metrics"]["bench.trace_coverage"] >= 0.95

    percentile_lines = [
        line for line in out.splitlines() if re.match(r"\s+\S+_p\d+_ms\s", line)
    ]
    assert percentile_lines and all("(n=" in line for line in percentile_lines)

    # The contract's last line, and exact repetition of the prefix counts.
    last = json.loads(run(workload, "--trace", "1").splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == PER_LAYER
    for key in EXACT_COUNTS:
        assert last["metrics"][key]["value"] == traced["metrics"][key], key
