"""The ``paper`` suite's row builder on canned experiment results.

``paper_rows`` turns ``runner.run_all``'s results and the suite's three
studies into gate rows without running anything, so these tests feed it
hand-made results in the same shapes. Each ratio row's bound gets one
violating input (a strict bound is violated by a value equal to it), each
exact count one drifted input, and a grid that loses a point fails as
``missing``.
"""

from __future__ import annotations

import copy
import math
from types import SimpleNamespace

import pytest

from repro.experiments import energy, fig9, fig10, fig11, fig12, fig13, fig14, table4
from repro.experiments.ablations import CoalescingStat, OverheadPoint
from repro.experiments.table3 import Table3Row
from repro.obs import bench_gate
from repro.obs.bench_gate import check

SCRIPT = bench_gate.load_script("paper")

RESULTS = {
    "table1": [{"item": "Compute Unit"}, {"item": "On-chip"}, {"item": "Off-chip"}],
    "table2": [
        {"graph": f"{name} (stand-in)", "standin_nodes": "64", "standin_edges": "256"}
        for name in ("Wikipedia", "Facebook", "LiveJournal", "UK-2002", "Twitter")
    ],
    "table3": [
        Table3Row("sssp", "kickstarter", speedup_gp={"WK": 20.0},
                  speedup_sw={"WK": 9.0}),
        Table3Row("pagerank", "graphbolt", speedup_gp={"WK": 8.0},
                  speedup_sw={"WK": 90.0}),
    ],
    "fig9": [
        fig9.AccessRatio("sssp", "WK", 0.2, 0.1),
        fig9.AccessRatio("bfs", "LJ", 0.4, 0.2),
    ],
    "fig10": [
        fig10.ResetCount("sssp", "WK", 5, 7),
        fig10.ResetCount("sssp", "LJ", 8, 7),
    ],
    "fig11": [
        fig11.UtilizationPair("sssp", "WK", 0.2, 0.8),
        fig11.UtilizationPair("pagerank", "WK", 0.3, 0.9),
    ],
    "fig12": [
        fig12.OptimizationPoint("sssp", "LJ", {"base": 0.9, "vap": 5.0, "dap": 5.0}),
        fig12.OptimizationPoint("bfs", "LJ", {"base": 0.8, "vap": 1.0, "dap": 4.0}),
    ],
    "fig13": [
        fig13.BatchSizeCurve("sssp", "jetstream", {83: 1.0, 20: 3.0, 5: 9.0}),
        fig13.BatchSizeCurve("sssp", "kickstarter", {83: 0.1, 20: 0.12, 5: 0.13}),
    ],
    "fig14": [
        fig14.CompositionCurve("sssp", "jetstream", {1.0: 0.5, 0.5: 1.0, 0.0: 2.5}),
        fig14.CompositionCurve("sssp", "kickstarter", {1.0: 3.0, 0.5: 3.0, 0.0: 3.1}),
    ],
    "table4": [
        dict(component=name, **reference)
        for name, reference in table4.PAPER_REFERENCE.items()
    ],
    "energy": [energy.EnergyPoint("sssp", "WK", jetstream_mj=1.0, graphpulse_mj=20.0)],
}

STUDIES = {
    "coalescing": [
        CoalescingStat("sssp", "WK", 100, 40),
        CoalescingStat("pagerank", "WK", 100, 10),
    ],
    "sw_overhead": [
        OverheadPoint(overhead_us, batch_size, 0.01, software_ms)
        for batch_size in (4, 83)
        for overhead_us, software_ms in ((0.0, 1.0), (40.0, 1.04), (120.0, 1.12))
    ],
    "staleness": {
        "jetstream": SimpleNamespace(mean_staleness_s=1e-4, p99_staleness_s=2e-4),
        "cold-start": SimpleNamespace(mean_staleness_s=1e-2, p99_staleness_s=3e-2),
    },
    "fig14_accumulative": [
        fig14.CompositionCurve("pagerank", "jetstream", {1.0: 1.0, 0.5: 1.0, 0.0: 1.2}),
        fig14.CompositionCurve("pagerank", "graphbolt", {1.0: 9.0, 0.5: 9.0, 0.0: 9.0}),
    ],
}


def rows_for(mutate=None) -> list:
    """The builder's rows for the canned inputs, after ``mutate(res, studies)``."""
    res, studies = copy.deepcopy(RESULTS), copy.deepcopy(STUDIES)
    if mutate:
        mutate(res, studies)
    results = {name: (value, "") for name, value in res.items()}
    return SCRIPT.paper_rows(results, studies)


BASELINE = rows_for()


def setter(section, index, **fields):
    """A mutation that sets ``fields`` on ``res[section][index]``."""

    def mutate(res, studies):
        target = {**res, **studies}[section][index]
        for name, value in fields.items():
            if isinstance(target, dict):
                target[name] = value
            else:
                setattr(target, name, value)

    return mutate


def points(section, index, updates):
    """A mutation that overwrites some of a curve's points."""
    def mutate(res, studies):
        {**res, **studies}[section][index].points.update(updates)

    return mutate


def speedups(index, **by_policy):
    return lambda res, studies: res["fig12"][index].speedups.update(by_policy)


def all_gmeans(side, value):
    """Every Table 3 speedup toward one comparator set to ``value``."""

    def mutate(res, studies):
        for r in res["table3"]:
            getattr(r, f"speedup_{side}").update(WK=value)

    return mutate


def total(**fields):
    return setter("table4", len(table4.PAPER_REFERENCE) - 1, **fields)


ACCUMULATIVE = "fig14_accumulative"

#: (row key, mutation) — each makes ``check`` report that key.
VIOLATIONS = [
    ("table1/rows", lambda res, studies: res["table1"].pop()),
    ("table2/rows", lambda res, studies: res["table2"].pop(0) and None),
    ("table2/Twitter", setter("table2", 4, standin_edges="257")),
    ("table3/gmean_gp", all_gmeans("gp", 2.0)),
    ("table3/gmean_sw", all_gmeans("sw", 1.5)),
    ("fig9/sssp/WK/vertex_ratio", setter("fig9", 0, vertex_ratio=1.0)),
    ("fig9/mean_vertex_ratio", lambda res, studies: [
        setattr(r, "vertex_ratio", 0.6) for r in res["fig9"]
    ]),
    ("fig10/sssp/LJ/resets", setter("fig10", 1, kickstarter_resets=6)),
    ("fig10/js_over_ks_total", setter("fig10", 0, jetstream_resets=7)),
    ("fig11/sssp/WK/jetstream", setter("fig11", 0, jetstream=0.0)),
    ("fig11/pagerank/WK/graphpulse", setter("fig11", 1, graphpulse=1.01)),
    ("fig11/js_lower_share", setter("fig11", 1, jetstream=0.9)),
    ("fig12/sssp/LJ/dap_over_base", speedups(0, base=5.01)),
    ("fig12/bfs/LJ/dap_over_vap", speedups(1, vap=4.5)),
    ("fig13/sssp/jetstream/small_over_large", points("fig13", 0, {5: 1.0})),
    ("fig13/sssp/kickstarter/gap_growth", points("fig13", 1, {5: 1.0})),
    ("fig14/sssp/del_over_ins", points("fig14", 0, {0.0: 0.5})),
    ("fig14/pagerank/del_over_ins", points(ACCUMULATIVE, 0, {0.0: 3.0})),
    ("fig14/pagerank/del_over_ins", points(ACCUMULATIVE, 0, {0.0: 1.0, 1.0: 3.0})),
    ("table4/total_mw_over_paper", total(total_mw=8926 * 1.03)),
    ("table4/area_mm2_over_paper", total(area_mm2=199 * 0.97)),
    ("table4/total_delta", total(total_delta=0.02)),
    ("table4/total_delta", total(total_delta=-0.02)),
    ("table4/area_delta", total(area_delta=0.0)),
    ("table4/area_delta", total(area_delta=0.05)),
    ("energy/mean_gain", setter("energy", 0, graphpulse_mj=2.0)),
    ("coalescing/sssp/WK", setter("coalescing", 0, coalesced=41)),
    ("coalescing/max_rate", setter("coalescing", 0, coalesced=20)),
    ("sw_overhead/b4/40us_over_0us", setter("sw_overhead", 1, software_ms=0.99)),
    ("staleness/jet_over_cold_mean", lambda res, studies: setattr(
        studies["staleness"]["jetstream"], "mean_staleness_s", 1e-2
    )),
]


def test_canned_results_pass_their_own_baseline():
    assert check(BASELINE, BASELINE) == []
    kinds = {r["kind"] for r in BASELINE}
    assert kinds == {"exact", "ratio", "info"}
    assert len({r["key"] for r in BASELINE}) == len(BASELINE)


@pytest.mark.parametrize("key, mutate", VIOLATIONS, ids=[k for k, _ in VIOLATIONS])
def test_each_bound_has_a_violating_input(key, mutate):
    failures = check(rows_for(mutate), BASELINE)
    assert [f for f in failures if f.startswith(f"{key}: ")], failures


def test_a_grid_that_loses_a_point_fails_as_missing():
    def drop_bfs(res, studies):
        res["fig12"].pop()

    failures = check(rows_for(drop_bfs), BASELINE)
    assert "fig12/bfs/LJ/dap_over_vap: missing (baseline 4.0)" in failures


def test_headlines_carry_the_papers_numbers():
    rows = {r["key"]: r for r in BASELINE}
    assert rows["table3/sssp/gmean_gp"]["paper"] == 20.1
    assert rows["table3/pagerank/gmean_sw"]["paper"] == 165.0
    assert rows["energy/mean_gain"]["paper"] == 13
    assert rows["table4/Network/total_delta"]["paper"] == 0.77
    assert rows["fig14/sssp/del_over_ins"]["paper"] == "3-4"
    # Fig. 10 per point: JS resetting more than KS shows, ungated.
    assert rows["fig10/sssp/LJ/js_over_ks"] == {
        "key": "fig10/sssp/LJ/js_over_ks", "kind": "info", "value": 8 / 7
    }


def test_strict_bounds_are_the_next_float_inward():
    rows = {r["key"]: r for r in BASELINE}
    assert rows["table3/gmean_gp"]["min"] == math.nextafter(2.0, math.inf)
    assert rows["fig9/mean_vertex_ratio"]["max"] == math.nextafter(0.6, -math.inf)
    assert rows["fig10/js_over_ks_total"]["max"] == 1.0  # <=, not <
