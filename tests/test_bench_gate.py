"""Tests for the benchmark regression gate (repro.obs.bench_gate).

A suite report is a list of rows tagged ``exact`` (must equal the
committed baseline), ``ratio`` (carries its own bound) or ``info``
(printed, never gated). The comparer and CLI tests use canned reports;
``TestFlatten`` runs each suite script's real ``collect`` on a tiny graph
to pin which measurement becomes which kind of row.
"""

from __future__ import annotations

import copy
import json
from types import SimpleNamespace

import pytest

from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.obs import bench_gate
from repro.obs.bench_gate import (
    BenchGateError,
    baseline_path,
    check,
    render,
    row,
    run_gate,
)


def report(suite: str, rows: list, quick: bool = True) -> dict:
    return {"suite": suite, "quick": quick, "rows": rows}


ENGINE = report(
    "engine",
    [
        row("rmat-2k/sssp/scalar", "exact", 500),
        row("rmat-2k/sssp/vectorized", "exact", 500),
        row("rmat-2k/sssp/vectorized/events_per_s", "info", 4000.0),
        row("rmat-2k/sssp/speedup", "ratio", 4.0, min=1.0),
    ],
)

SHARDED = report(
    "sharded",
    [
        row("rmat-2k/sssp/e1", "exact", [500, 0, 500]),
        row("rmat-2k/sssp/e1/wall_clock_s", "info", 0.02),
        row("rmat-2k/sssp/e2", "exact", [500, 90, 260, 240]),
        row("rmat-2k/sssp/e2/wall_clock_s", "info", 0.03),
    ],
)

LATENCY = report(
    "latency",
    [
        row("express/safe_insert", "exact", 1200),
        row("engine/batch1", "exact", 300),
        row("speedup_p50", "ratio", 40.0, min=5.0),
    ],
)

#: One canned quick report per suite.
CANNED = {
    **{
        suite: report(
            suite, [row("work", "exact", 100), row("work/rate", "info", 9e3)]
        )
        for suite in bench_gate.SUITES
    },
    "engine": ENGINE,
    "sharded": SHARDED,
    "latency": LATENCY,
}


def changed(rep: dict, key: str, value) -> dict:
    """A copy of ``rep`` whose row ``key`` holds ``value``."""
    out = copy.deepcopy(rep)
    for r in out["rows"]:
        if r["key"] == key:
            r["value"] = value
    return out


def by_key(rep: dict) -> dict:
    return {r["key"]: r for r in rep["rows"]}


@pytest.fixture
def baselines(monkeypatch, tmp_path):
    """Point both baseline locations at ``tmp_path``; commit the canned ones."""
    monkeypatch.setattr(bench_gate, "BASELINES_DIR", tmp_path / "baselines")
    monkeypatch.setattr(bench_gate, "REPO_ROOT", tmp_path)
    for suite, rep in CANNED.items():
        path = baseline_path(suite, quick=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rep))
    return tmp_path


@pytest.fixture
def runs(monkeypatch):
    """Replace every suite script with one that returns ``runs[suite]``."""
    reports = copy.deepcopy(CANNED)
    monkeypatch.setattr(
        bench_gate,
        "load_script",
        lambda suite: SimpleNamespace(collect=lambda quick: reports[suite]),
    )
    return reports


# ----------------------------------------------------------------------
# Each suite script's rows, from a real run on a tiny graph
# ----------------------------------------------------------------------
TINY_N = 64
TINY_EDGES = generators.ensure_reachable_core(
    generators.rmat(TINY_N, 256, seed=17), TINY_N, seed=18
)


def tiny_graph() -> DynamicGraph:
    return DynamicGraph.from_edges(TINY_EDGES, TINY_N)


class TestFlatten:
    def test_engine_rows(self):
        script = bench_gate.load_script("engine")
        script.build_graphs = lambda quick: [
            ("rmat-tiny", len(TINY_EDGES), tiny_graph())
        ]
        rows = by_key(script.collect(True))
        for cell in ("rmat-tiny/sssp", "rmat-tiny/pagerank"):
            scalar, vector = rows[f"{cell}/scalar"], rows[f"{cell}/vectorized"]
            assert scalar["kind"] == vector["kind"] == "exact"
            assert scalar["value"] == vector["value"] > 0
            assert rows[f"{cell}/vectorized/events_per_s"]["kind"] == "info"
            assert rows[f"{cell}/speedup"]["kind"] == "ratio"
            assert rows[f"{cell}/speedup"]["min"] == 1.0
        # Full grid: only the >=100k-edge RMAT PageRank speedup is bounded.
        assert script.speedup_bound(False, "rmat-131k", 138_000, "pagerank") == {
            "min": 5.0
        }
        assert script.speedup_bound(False, "rmat-131k", 138_000, "sssp") == {}
        assert script.speedup_bound(False, "uniform-131k", 138_000, "pagerank") == {}

    def test_trace_rows(self):
        script = bench_gate.load_script("trace")
        script.build_csr = lambda quick: tiny_graph().snapshot()
        rows = by_key(script.collect(True))
        # Tracing must not change the work: one exact count, four modes.
        events = {rows[mode]["value"] for mode in script.MODES}
        assert len(events) == 1 and events.pop() > 0
        assert all(rows[mode]["kind"] == "exact" for mode in script.MODES)
        assert rows["off/relative_throughput"]["value"] == 1.0
        assert all(
            r["kind"] == "info" for key, r in rows.items() if "/" in key
        )

    def test_stream_rows(self):
        script = bench_gate.load_script("stream")
        script.build_graph = lambda quick: (TINY_N, TINY_EDGES)
        script.batch_plan = lambda quick: [(1, 2), (4, 2)]
        rows = by_key(script.collect(True))
        for cell in ("batch1", "batch4"):
            incremental = rows[f"{cell}/incremental"]
            assert incremental["kind"] == rows[f"{cell}/full_rebuild"]["kind"]
            assert incremental["value"] == rows[f"{cell}/full_rebuild"]["value"]
            assert rows[f"{cell}/incremental/batches_per_s"]["kind"] == "info"
            assert rows[f"{cell}/speedup"]["min"] == 1.0
        assert script.speedup_bound(False, 100) == {"min": 5.0}
        assert script.speedup_bound(False, 10_000) == {}

    def test_sharded_rows(self):
        script = bench_gate.load_script("sharded")
        script.build_graph = lambda quick: ("rmat-tiny", tiny_graph())
        rows = by_key(script.collect(True))
        for algo in ("sssp", "pagerank"):
            for engines in script.ENGINE_COUNTS:
                cell = rows[f"rmat-tiny/{algo}/e{engines}"]
                # [events_processed, noc_flits, per-engine events...]
                events, flits, *per_engine = cell["value"]
                assert cell["kind"] == "exact"
                assert len(per_engine) == engines and sum(per_engine) == events
                assert (flits == 0) == (engines == 1)
                wall = rows[f"rmat-tiny/{algo}/e{engines}/wall_clock_s"]
                assert wall["kind"] == "info"

    def test_sharded_wall_clock_is_not_gated(self):
        slow = changed(SHARDED, "rmat-2k/sssp/e2/wall_clock_s", 3.0)
        assert check(slow["rows"], SHARDED["rows"]) == []

    def test_sharded_per_engine_drift_regresses(self):
        drifted = changed(SHARDED, "rmat-2k/sssp/e2", [500, 90, 250, 250])
        failures = check(drifted["rows"], SHARDED["rows"])
        assert len(failures) == 1 and "rmat-2k/sssp/e2" in failures[0]
        assert "drifted" in failures[0]

    def test_serve_rows(self):
        script = bench_gate.load_script("serve")
        script.config = lambda quick: {
            "graph": "rmat-tiny",
            "num_vertices": 128,
            "num_edges": 512,
            "ingest_clients": 2,
            "batches_per_client": 2,
            "batch_size": 3,
            "read_clients": 2,
            "reads_per_client": 4,
            "express_updates": 5,
        }
        rep = script.collect(True)
        exact = {r["key"]: r["value"] for r in rep["rows"] if r["kind"] == "exact"}
        # Exact request counts, fixed by the configuration, never by timing,
        # and the state bytes the express phases read back: none, as their
        # heavy inserts change no state.
        assert exact == {
            "mixed_ingest": 12,
            "mixed_read": 8,
            "read_keepalive": 4,
            "express": 5,
            "express_keepalive": 5,
            "express/results_read_bytes": 0,
            "mixed_ingest_traced": 12,
        }
        assert {r["kind"] for r in rep["rows"]} == {"exact", "info"}

    def test_paper_script_exposes_collect(self):
        """The paper suite's run is the whole evaluation; its row builder is
        tested on canned results in ``test_bench_paper.py``."""
        script = bench_gate.load_script("paper")
        assert callable(script.collect) and callable(script.paper_rows)

    def test_commongraph_rows(self):
        script = bench_gate.load_script("commongraph")
        script.grid = lambda quick: ["sssp"]
        script.NUM_BATCHES, script.BATCH_SIZE = 2, 20
        rows = by_key(script.collect(True))
        shared, cold = rows["WK/sssp/v3"]["value"]
        assert rows["WK/sssp/v3"]["kind"] == "exact" and 0 < shared < cold
        assert rows["WK/sssp/v3/ratio_events"]["min"] == script.RATIO_GATE
        assert rows["WK/sssp/v3/ratio_wall"]["min"] == 1.0
        assert rows["WK/sssp/v3/cold_wall_s"]["kind"] == "info"


# ----------------------------------------------------------------------
# The comparer
# ----------------------------------------------------------------------
class TestCompareRows:
    def test_within_tolerance_is_ok(self):
        """A ratio inside its own bound passes, and info rows may move any
        amount: absolute throughput is never compared with the baseline."""
        current = changed(ENGINE, "rmat-2k/sssp/speedup", 1.01)
        current = changed(current, "rmat-2k/sssp/vectorized/events_per_s", 1.0)
        assert check(current["rows"], ENGINE["rows"]) == []

    def test_drop_beyond_tolerance_regresses(self):
        """A ratio below its ``min`` (or above its ``max``, or NaN) fails."""
        for value in (0.9, float("nan")):
            current = changed(ENGINE, "rmat-2k/sssp/speedup", value)
            failures = check(current["rows"], ENGINE["rows"])
            assert len(failures) == 1 and "rmat-2k/sssp/speedup" in failures[0]
        capped = [row("overhead", "ratio", 0.3, max=0.1)]
        assert check(capped, []) == ["overhead: 0.3 is outside max 0.1"]

    def test_event_count_drift_regresses_regardless_of_speed(self):
        current = changed(ENGINE, "rmat-2k/sssp/vectorized", 501)
        current = changed(current, "rmat-2k/sssp/speedup", 50.0)
        assert check(current["rows"], ENGINE["rows"]) == [
            "rmat-2k/sssp/vectorized: 501 drifted from baseline 500"
        ]

    def test_new_and_removed_rows(self):
        current = [row("new", "exact", 7), row("kept", "exact", 1)]
        baseline = [row("kept", "exact", 1), row("gone", "exact", 3)]
        assert check(current, baseline) == ["gone: missing (baseline 3)"]

    def test_render_table_mentions_rows_and_notes(self):
        table = render(ENGINE)
        assert "rmat-2k/sssp/scalar" in table and "exact" in table
        assert "ratio" in table and "min 1" in table
        assert "4,000" in table


# ----------------------------------------------------------------------
# run_gate against baselines in a temporary directory
# ----------------------------------------------------------------------
class TestRunGate:
    def test_matching_baseline_has_zero_regressions(self, baselines, runs):
        result = run_gate(list(bench_gate.SUITES), quick=True)
        assert result["failures"] == []
        assert set(result["reports"]) == set(bench_gate.SUITES)

    def test_injected_throughput_regression_is_caught(self, baselines, runs):
        """Only relative throughput is gated: halving events/s passes, a
        vectorized engine slower than the scalar oracle fails."""
        runs["engine"] = changed(ENGINE, "rmat-2k/sssp/vectorized/events_per_s", 2e3)
        assert run_gate(["engine"], quick=True)["failures"] == []
        runs["engine"] = changed(ENGINE, "rmat-2k/sssp/speedup", 0.5)
        assert run_gate(["engine"], quick=True)["failures"] == [
            "engine rmat-2k/sssp/speedup: 0.5 is outside min 1"
        ]

    def test_injected_event_drift_is_caught(self, baselines, runs):
        runs["trace"] = changed(CANNED["trace"], "work", 103)
        failures = run_gate(["trace"], quick=True)["failures"]
        assert failures == ["trace work: 103 drifted from baseline 100"]

    def test_missing_exact_row_fails(self, baselines, runs):
        """A suite whose rows vanish must not pass: each exact baseline row
        the run no longer emits is a failure."""
        runs["latency"] = report("latency", [row("speedup_p50", "ratio", 40.0, min=5.0)])
        assert run_gate(["latency"], quick=True)["failures"] == [
            "latency express/safe_insert: missing (baseline 1200)",
            "latency engine/batch1: missing (baseline 300)",
        ]

    def test_missing_ratio_row_fails(self, baselines, runs):
        """A suite that stops emitting a bounded row (say, a grid that lost
        a point) fails too: the baseline's ratio keys must all reappear."""
        runs["latency"] = report("latency", LATENCY["rows"][:2])
        assert run_gate(["latency"], quick=True)["failures"] == [
            "latency speedup_p50: missing (baseline 40.0)"
        ]

    def test_report_without_rows_raises(self, baselines, runs):
        runs["latency"] = report("latency", [])
        with pytest.raises(BenchGateError, match="no rows"):
            run_gate(["latency"], quick=True)

    def test_missing_baseline_raises(self, baselines, runs):
        baseline_path("engine", quick=True).unlink()
        with pytest.raises(BenchGateError, match="no quick=True row baseline"):
            run_gate(["engine"], quick=True)

    def test_baseline_from_the_other_mode_is_refused(self, baselines, runs):
        """A quick report written over the full baseline cannot pass a full
        gate (it would only see new and vanished rows)."""
        baseline_path("engine", quick=False).write_text(json.dumps(ENGINE))
        runs["engine"] = dict(ENGINE, quick=False)
        with pytest.raises(BenchGateError, match="no quick=False row baseline"):
            run_gate(["engine"], quick=False)

    def test_unknown_suite_raises(self):
        with pytest.raises(BenchGateError, match="unknown suite"):
            run_gate(["nope"], quick=True)

    def test_update_baselines_writes_reports(self, baselines, runs):
        for path in (baselines / "baselines").iterdir():
            path.unlink()
        result = run_gate(list(bench_gate.SUITES), quick=True, update_baselines=True)
        assert result["failures"] == []
        for suite, rep in CANNED.items():
            assert json.loads(baseline_path(suite, quick=True).read_text()) == rep

    def test_update_baselines_refuses_a_run_out_of_bounds(self, baselines, runs):
        """A run whose ratio breaks its own bound is reported and not
        recorded: the committed baseline stays as it was."""
        path = baseline_path("engine", quick=True)
        before = path.read_text()
        runs["engine"] = changed(ENGINE, "rmat-2k/sssp/speedup", 0.5)
        runs["trace"] = changed(CANNED["trace"], "work", 103)
        result = run_gate(["engine", "trace"], quick=True, update_baselines=True)
        assert result["failures"] == [
            "engine rmat-2k/sssp/speedup: 0.5 is outside min 1"
        ]
        assert path.read_text() == before
        # An exact count may move on purpose: that is what recording is for.
        assert json.loads(baseline_path("trace", quick=True).read_text()) == runs["trace"]

    def test_default_baseline_paths(self):
        for suite in bench_gate.SUITES:
            assert baseline_path(suite, quick=False).name == f"BENCH_{suite}.json"
            quick = baseline_path(suite, quick=True)
            assert quick.name == f"BENCH_{suite}.quick.json"
            assert quick.parent.name == "baselines"
        with pytest.raises(BenchGateError):
            baseline_path("nope", quick=False)


# ----------------------------------------------------------------------
# CLI wiring: repro bench check
# ----------------------------------------------------------------------
class TestBenchCheckCli:
    def test_exits_zero_on_matching_baselines(self, baselines, runs, capsys):
        from repro.cli import main

        assert main(["bench", "check", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "rmat-2k/sssp/speedup" in out and "every exact count matches" in out

    def test_exits_nonzero_on_injected_regression(self, baselines, runs, capsys):
        from repro.cli import main

        for suite, rep in (
            ("trace", changed(CANNED["trace"], "work", 99)),  # count drift
            ("engine", changed(ENGINE, "rmat-2k/sssp/speedup", 0.8)),  # ratio
            ("latency", report("latency", LATENCY["rows"][1:])),  # missing row
        ):
            runs[suite] = rep
            assert main(["bench", "check", "--quick", "--suite", suite]) == 1
            runs[suite] = CANNED[suite]
        err = capsys.readouterr().err
        assert "drifted" in err and "outside min 1" in err and "missing" in err

    def test_single_suite_selection(self, baselines, runs):
        from repro.cli import main

        # Broken other suites must not fire when only engine is selected.
        for suite in bench_gate.SUITES:
            if suite != "engine":
                runs[suite] = report(suite, [row("work", "exact", 1)])
        assert main(["bench", "check", "--quick", "--suite", "engine"]) == 0
        assert main(["bench", "check", "--quick"]) == 1

    def test_update_baselines_roundtrip(self, baselines, runs):
        from repro.cli import main

        for path in (baselines / "baselines").iterdir():
            path.unlink()
        assert main(["bench", "check", "--quick", "--update-baselines"]) == 0
        assert main(["bench", "check", "--quick"]) == 0

    def test_update_baselines_out_of_bounds_exits_one(self, baselines, runs, capsys):
        from repro.cli import main

        runs["engine"] = changed(ENGINE, "rmat-2k/sssp/speedup", 0.8)
        args = ["bench", "check", "--quick", "--suite", "engine", "--update-baselines"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "outside min 1" in err and "not recorded" in err

    def test_missing_baseline_exits_two(self, baselines, runs, capsys):
        from repro.cli import main

        baseline_path("engine", quick=True).unlink()
        assert main(["bench", "check", "--quick", "--suite", "engine"]) == 2
        assert "baseline" in capsys.readouterr().err
        runs["serve"] = report("serve", [])
        assert main(["bench", "check", "--quick", "--suite", "serve"]) == 2

    def test_help_lists_three_options(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "check", "--help"])
        out = capsys.readouterr().out
        options = {word for word in out.split() if word.startswith("--")}
        assert options == {"--help", "--quick", "--suite", "--update-baselines"}
