"""Run the full experiment suite and regenerate EXPERIMENTS.md.

``python -m repro.experiments.runner [--quick]`` executes every table and
figure, prints the paper-style renderings, and rewrites ``EXPERIMENTS.md``
with the measured-vs-paper record. ``--quick`` restricts the grids to two
graphs for a fast smoke run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import (
    energy,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    table1,
    table2,
    table3,
    table4,
)


def run_all(quick: bool = False, seed: int = 0) -> dict:
    """Execute every experiment; returns {name: (result, rendering)}."""
    graphs = ["WK", "LJ"] if quick else None
    fig_graphs = ["WK", "LJ"] if quick else None
    algorithms = ["sssp", "pagerank"] if quick else None
    out = {}

    t1_rows = table1.run()
    out["table1"] = (t1_rows, table1.render(t1_rows))
    t2_rows = table2.run(seed)
    out["table2"] = (t2_rows, table2.render(t2_rows))

    t3_rows = table3.run(graphs=graphs, algorithms=algorithms, seed=seed)
    out["table3"] = (t3_rows, table3.render(t3_rows))

    f9 = fig9.run(graphs=fig_graphs, algorithms=algorithms, seed=seed)
    out["fig9"] = (f9, fig9.render(f9))
    f10 = fig10.run(
        graphs=fig_graphs,
        algorithms=["sssp"] if quick else None,
        seed=seed,
    )
    out["fig10"] = (f10, fig10.render(f10))
    f11 = fig11.run(graphs=fig_graphs, algorithms=algorithms, seed=seed)
    out["fig11"] = (f11, fig11.render(f11))
    f12 = fig12.run(
        graphs=["LJ"] if quick else None,
        algorithms=["sssp", "bfs"] if quick else None,
        seed=seed,
    )
    out["fig12"] = (f12, fig12.render(f12))
    f13 = fig13.run(algorithms=["sssp"] if quick else None, seed=seed)
    out["fig13"] = (f13, fig13.render(f13))
    f14 = fig14.run(algorithms=["sssp"] if quick else None, seed=seed)
    out["fig14"] = (f14, fig14.render(f14))

    t4_rows = table4.run()
    out["table4"] = (t4_rows, table4.render(t4_rows))

    energy_points = energy.run(
        graphs=fig_graphs,
        algorithms=["sssp", "pagerank"] if quick else None,
        seed=seed,
    )
    out["energy"] = (energy_points, energy.render(energy_points))
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small smoke grid")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--write-doc",
        action="store_true",
        help="regenerate EXPERIMENTS.md from this run",
    )
    args = parser.parse_args(argv)
    start = time.time()
    results = run_all(quick=args.quick, seed=args.seed)
    for _, rendering in results.values():
        print()
        print(rendering)
    if args.write_doc:
        from repro.experiments.experiments_doc import write_doc
        from repro.experiments.export import export_all

        write_doc(results)
        written = export_all(results, Path("benchmarks") / "results" / "csv")
        print(f"\nwrote EXPERIMENTS.md and {len(written)} CSV series")
    print(f"\ncompleted in {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
