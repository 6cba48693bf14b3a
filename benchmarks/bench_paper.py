"""The paper's evaluation as a gated suite: the shapes of Tables 1–4, of
Figs. 9–14 and of the §6.3 energy claim, and three studies the paper's
argument rests on.

``collect(quick)`` runs :func:`repro.experiments.runner.run_all` once
(the grids ``python -m repro.experiments.runner [--quick]`` prints), and
then the studies:

* §4.2 coalescing effectiveness (``ablations.coalescing_effectiveness``);
* the software per-batch floor behind Fig. 13
  (``ablations.software_overhead_sensitivity``);
* §2.1 result staleness under a live Poisson update stream
  (:func:`staleness`, on :mod:`repro.core.pipeline`);
* in full mode only, Fig. 14's PageRank curve, for the accumulative
  algorithms' insensitivity to batch composition.

:func:`paper_rows` turns those results into rows and runs nothing:

* ``ratio`` rows are the paper's shapes, each with its bound. The gate's
  bounds are inclusive, so a strict ``<``/``>`` is written as
  :func:`above`/:func:`below` of the bound, its next float inward;
* ``exact`` rows are the integer counts the results carry: row counts,
  stand-in sizes, Fig. 10 resets per point, coalescing inserts and merges;
* ``info`` rows are headline magnitudes. A row's ``paper`` note holds the
  paper's number beside the measured one, never gated.

Run and gated only by ``repro bench check --suite paper``
(``--quick`` for the small grid).
"""

from __future__ import annotations

import math

from repro.algorithms import make_algorithm
from repro.baselines import GraphPulseColdStart
from repro.core.pipeline import ArrivalTrace, StreamingPipeline, engine_latency_function
from repro.core.streaming import JetStreamEngine
from repro.experiments import ablations, energy, fig14, runner, table3, table4
from repro.experiments.report import geomean
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.obs.bench_gate import row

def above(bound: float) -> float:
    """The least float ``> bound``: a strict ``min``."""
    return math.nextafter(bound, math.inf)


def below(bound: float) -> float:
    """The greatest float ``< bound``: a strict ``max``."""
    return math.nextafter(bound, -math.inf)


def _over(a: float, b: float) -> float:
    """``a / b``; 0/0 is 1 and a/0 is inf, so ``a <= b`` iff it is ``<= 1``."""
    return a / b if b else (math.inf if a else 1.0)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def staleness() -> dict:
    """Pipeline reports of JetStream and of cold start, each serving one
    Poisson stream whose rate is pinned to the cold engine (§2.1)."""
    n = 2048
    edges = generators.ensure_reachable_core(
        generators.rmat(n, 12288, seed=41), n, seed=42
    )

    def latency(engine_class):
        return engine_latency_function(
            lambda: engine_class(
                DynamicGraph.from_edges(edges, n), make_algorithm("sssp", source=0)
            ),
            probe_sizes=(4, 32, 256),
        )

    jet, cold = latency(JetStreamEngine), latency(GraphPulseColdStart)
    rate = 2.0 / max(1e-9, cold(4))
    trace = ArrivalTrace.poisson(rate_per_s=rate, duration_s=400 / rate, seed=43)
    return {
        name: StreamingPipeline(fn).simulate(trace)
        for name, fn in (("jetstream", jet), ("cold-start", cold))
    }


def collect(quick: bool) -> dict:
    results = runner.run_all(quick)
    studies = {
        "coalescing": ablations.coalescing_effectiveness(
            algorithms=["sssp", "pagerank"] if quick else None
        ),
        "sw_overhead": ablations.software_overhead_sensitivity(),
        "staleness": staleness(),
        "fig14_accumulative": [] if quick else fig14.run(algorithms=["pagerank"]),
    }
    return {"suite": "paper", "quick": quick, "rows": paper_rows(results, studies)}


def paper_rows(results: dict, studies: dict) -> list:
    """The suite's rows for ``run_all``'s ``{name: (result, rendering)}``
    and the ``studies`` :func:`collect` runs beside it."""
    res = {name: result for name, (result, _) in results.items()}
    return (
        _tables_and_energy_rows(res)
        + _fig9_to_11_rows(res)
        + _fig12_to_14_rows(res, studies["fig14_accumulative"])
        + _study_rows(studies)
    )


def _tables_and_energy_rows(res: dict) -> list:
    rows = [
        row("table1/rows", "exact", len(res["table1"])),
        row("table2/rows", "exact", len(res["table2"])),
    ]
    for r in res["table2"]:
        size = [int(r["standin_nodes"]), int(r["standin_edges"])]
        rows.append(row(f"table2/{r['graph'].split()[0]}", "exact", size))

    t3 = res["table3"]
    rows += [
        row("table3/gmean_gp", "ratio", geomean([r.gmean_gp for r in t3]),
            min=above(2.0), paper=13),
        row("table3/gmean_sw", "ratio", geomean([r.gmean_sw for r in t3]),
            min=above(2.0), paper=18),
    ]
    paper = table3.PAPER_GMEANS
    for r in t3:
        rows += [
            row(f"table3/{r.algorithm}/gmean_gp", "info", r.gmean_gp,
                paper=paper[(r.algorithm, "graphpulse")]),
            row(f"table3/{r.algorithm}/gmean_sw", "info", r.gmean_sw,
                paper=paper[(r.algorithm, "software")]),
        ]

    t4 = {r["component"]: r for r in res["table4"]}
    total, paper = t4["Total"], table4.PAPER_REFERENCE["Total"]
    rows += [
        row("table4/total_mw_over_paper", "ratio",
            total["total_mw"] / paper["total_mw"], min=0.98, max=1.02),
        row("table4/area_mm2_over_paper", "ratio",
            total["area_mm2"] / paper["area_mm2"], min=0.98, max=1.02),
        row("table4/total_delta", "ratio", total["total_delta"],
            min=above(-0.02), max=below(0.02), paper=paper["total_delta"]),
        row("table4/area_delta", "ratio", total["area_delta"],
            min=above(0.0), max=below(0.05), paper=paper["area_delta"]),
    ]
    for component, paper in table4.PAPER_REFERENCE.items():
        if component != "Total":
            rows += [
                row(f"table4/{component}/{delta}", "info", t4[component][delta],
                    paper=paper[delta])
                for delta in ("total_delta", "area_delta")
            ]
    rows.append(row("energy/mean_gain", "ratio", energy.mean_gain(res["energy"]),
                    min=above(2.0), paper=13))
    return rows


def _fig9_to_11_rows(res: dict) -> list:
    f9 = res["fig9"]
    rows = [
        row(f"fig9/{r.algorithm}/{r.graph}/vertex_ratio", "ratio", r.vertex_ratio,
            max=below(1.0))
        for r in f9
    ]
    rows += [
        row("fig9/mean_vertex_ratio", "ratio", _mean(r.vertex_ratio for r in f9),
            max=below(0.6)),
        row("fig9/max_vertex_ratio", "info", max(r.vertex_ratio for r in f9),
            paper=0.54),
    ]

    f10 = res["fig10"]
    for c in f10:
        js, ks = c.jetstream_resets, c.kickstarter_resets
        rows += [
            row(f"fig10/{c.algorithm}/{c.graph}/resets", "exact", [js, ks]),
            row(f"fig10/{c.algorithm}/{c.graph}/js_over_ks", "info", _over(js, ks)),
        ]
    js = sum(c.jetstream_resets for c in f10)
    ks = sum(c.kickstarter_resets for c in f10)
    rows.append(row("fig10/js_over_ks_total", "ratio", _over(js, ks), max=1.0))

    f11 = res["fig11"]
    for p in f11:
        cell = f"fig11/{p.algorithm}/{p.graph}"
        rows += [
            row(f"{cell}/jetstream", "ratio", p.jetstream, min=above(0.0), max=1.0),
            row(f"{cell}/graphpulse", "ratio", p.graphpulse, min=above(0.0), max=1.0),
        ]
    lower = sum(1 for p in f11 if p.jetstream < p.graphpulse)
    mean_ratio = _mean(p.jetstream / p.graphpulse for p in f11)
    rows += [
        row("fig11/js_lower_share", "ratio", lower / len(f11), min=0.7),
        row("fig11/mean_js_over_gp", "info", mean_ratio, paper="<1/3"),
    ]
    return rows


def _fig12_to_14_rows(res: dict, accumulative: list) -> list:
    rows = []
    f12 = res["fig12"]
    for p in f12:
        cell, s = f"fig12/{p.algorithm}/{p.graph}", p.speedups
        rows.append(
            row(f"{cell}/dap_over_base", "ratio", _over(s["dap"], s["base"]), min=1.0)
        )
        if p.algorithm in ("bfs", "cc"):  # value plateaus: VAP cannot prune (§5.2)
            rows.append(
                row(f"{cell}/dap_over_vap", "ratio", _over(s["dap"], s["vap"]), min=1.0)
            )
    for policy in ("base", "dap"):
        mean = _mean(p.speedups[policy] for p in f12)
        rows.append(row(f"fig12/mean_{policy}_speedup", "info", mean))

    f13 = res["fig13"]
    jet = {c.algorithm: c.points for c in f13 if c.system == "jetstream"}
    for c in f13:
        large, small = max(c.points), min(c.points)
        cell = f"fig13/{c.algorithm}/{c.system}"
        if c.system == "jetstream":
            growth = _over(c.points[small], c.points[large])
            rows.append(
                row(f"{cell}/small_over_large", "ratio", growth, min=above(1.0))
            )
            continue
        gap_large = jet[c.algorithm][large] / max(1e-12, c.points[large])
        gap_small = jet[c.algorithm][small] / max(1e-12, c.points[small])
        rows += [
            row(f"{cell}/gap_growth", "ratio", _over(gap_small, gap_large),
                min=above(1.0)),
            row(f"{cell}/gap_small_batch", "info", gap_small),
        ]

    for c in res["fig14"] + accumulative:
        if c.system != "jetstream":
            continue
        key = f"fig14/{c.algorithm}/del_over_ins"
        ratio = c.points[0.0] / max(1e-12, c.points[1.0])
        if c.algorithm in fig14.ALGORITHMS:  # selective; PageRank is the other
            rows.append(row(key, "ratio", ratio, min=above(1.0), paper="3-4"))
        else:
            rows.append(row(key, "ratio", ratio, min=above(1 / 3), max=below(3.0),
                            paper="~1"))
    return rows


def _study_rows(studies: dict) -> list:
    stats = studies["coalescing"]
    rows = [
        row(f"coalescing/{s.algorithm}/{s.graph}", "exact", [s.inserts, s.coalesced])
        for s in stats
    ]
    rows.append(row("coalescing/max_rate", "ratio", max(s.rate for s in stats),
                    min=above(0.2)))

    # At the smallest batch, JetStream's advantage must grow with the floor.
    points = studies["sw_overhead"]
    smallest = min(p.batch_size for p in points)
    small = sorted((p for p in points if p.batch_size == smallest),
                   key=lambda p: p.overhead_us)
    for lo, hi in zip(small, small[1:]):
        key = f"sw_overhead/b{smallest}/{hi.overhead_us:g}us_over_{lo.overhead_us:g}us"
        rows.append(row(key, "ratio", _over(hi.advantage, lo.advantage), min=1.0))
    rows += [
        row(f"sw_overhead/b{p.batch_size}/{p.overhead_us:g}us/advantage", "info",
            p.advantage)
        for p in points
    ]

    jet, cold = studies["staleness"]["jetstream"], studies["staleness"]["cold-start"]
    rows += [
        row("staleness/jet_over_cold_mean", "ratio",
            _over(jet.mean_staleness_s, cold.mean_staleness_s), max=below(1.0)),
        row("staleness/jetstream_p99_us", "info", jet.p99_staleness_s * 1e6),
        row("staleness/cold_start_p99_us", "info", cold.p99_staleness_s * 1e6),
    ]
    return rows
