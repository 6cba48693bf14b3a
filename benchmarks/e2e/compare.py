#!/usr/bin/env python3
"""Compare ``run.py`` results against the bounds of BENCHMARK.json.

    python benchmarks/e2e/compare.py A B [--exact-counts]

``A`` is the base (the parent commit, or the first set of runs of one
commit) and ``B`` the candidate. Each is an ``out/result.json`` file or a
directory of them; a directory is a *set of runs* and every metric is its
median over the set. One run against one run is a weak test on a noisy
machine: the same input re-run differs by 10-20% here now and then.

For every end-to-end metric × workload the table shows both values,
``B/A``, how much worse ``B`` is in the metric's own direction, and the
bound. The exit code is non-zero when any pair is worse than its bound or
a workload's failed share rose.

``--exact-counts`` is for runs of the *same* commit and seed: the traced
prefix's work counts must then be identical in every run, and a difference
also fails. Across commits they may differ legitimately, so they are only
shown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)
EXACT_COUNTS = (
    "core.engine.events_processed",
    "core.engine.rounds",
    "core.streaming.vertices_reset",
    "graph.dynamic.edges_spliced",
    "sim.cycles",
)


def load(path: str) -> List[dict]:
    """The ``workloads`` object of each result file at ``path``."""
    where = Path(path)
    files = sorted(where.glob("*.json")) if where.is_dir() else [where]
    if not files:
        raise SystemExit(f"compare.py: no result files in {path}")
    return [json.loads(f.read_text(encoding="utf-8"))["workloads"] for f in files]


def phases(runs: List[dict], workload: str, phase: str) -> List[dict]:
    return [run[workload][phase] for run in runs if phase in run.get(workload, {})]


def median(results: List[dict], metric: str) -> Optional[float]:
    return statistics.median(r["metrics"][metric] for r in results) if results else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--exact-counts", action="store_true")
    args = parser.parse_args()
    base, cand = load(args.base), load(args.candidate)
    bad = 0

    print(f"A: {len(base)} run(s), B: {len(cand)} run(s); values are medians")
    print(f"{'workload':14s} {'metric':32s} {'A':>14s} {'B':>14s} {'B/A':>7s} {'worse':>7s} {'bound':>6s}")
    for name in (w["name"] for w in SPEC["workloads"]):
        a, b = phases(base, name, "window"), phases(cand, name, "window")
        if a and b:
            for metric in SPEC["end_to_end"]:
                va, vb = median(a, metric["name"]), median(b, metric["name"])
                change = (vb - va) / va
                worse = change if metric["better"] == "lower" else -change
                verdict = "ok"
                if worse > metric["bound"]:
                    verdict, bad = "REGRESSED", bad + 1
                print(
                    f"{name:14s} {metric['name']:32s} {va:14.6g} {vb:14.6g} {vb / va:7.3f} "
                    f"{worse * 100:6.1f}% {metric['bound'] * 100:5.0f}%  {verdict}"
                )
        for phase in ("window", "traced"):
            a, b = phases(base, name, phase), phases(cand, name, phase)
            if not (a and b):
                continue
            share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
            share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
            verdict = "ok"
            if share_b > share_a:
                verdict, bad = "FAILED SHARE ROSE", bad + 1
            print(f"{name:14s} {'failed_share[' + phase + ']':32s} {share_a:14.6g} {share_b:14.6g}  {verdict}")
        a, b = phases(base, name, "traced"), phases(cand, name, "traced")
        if a and b:
            for key in EXACT_COUNTS:
                seen = {r["metrics"][key] for r in a + b}
                verdict = "identical" if len(seen) == 1 else "differs"
                if len(seen) > 1 and args.exact_counts:
                    verdict, bad = "DIFFERS", bad + 1
                print(f"{name:14s} {key:32s} {median(a, key):14.12g} {median(b, key):14.12g}  {verdict}")
    print(f"{bad} outside bounds" if bad else "all within bounds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
