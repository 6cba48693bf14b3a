"""Tests for the benchmark regression gate (repro.obs.bench_gate).

The gate has two teeth: relative throughput drops beyond the tolerance,
and *any* drift in the deterministic event counts. Canned collector
reports stand in for the real benchmark runs so the tests are fast and
machine-independent.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import bench_gate
from repro.obs.bench_gate import (
    BenchGateError,
    compare_rows,
    default_baseline_path,
    flatten_engine,
    flatten_trace,
    render_table,
    run_gate,
)

ENGINE_REPORT = {
    "results": [
        {
            "graph": "rmat-2k",
            "algorithm": "sssp",
            "scalar": {"events_per_s": 1000.0, "events_processed": 500},
            "vectorized": {"events_per_s": 4000.0, "events_processed": 500},
        }
    ]
}

TRACE_REPORT = {
    "rows": [
        {"mode": "off", "events_per_s": 9000.0, "events": 700},
        {"mode": "metrics", "events_per_s": 8800.0, "events": 700},
    ]
}

STREAM_REPORT = {
    "results": [
        {
            "batch_size": 1,
            "incremental": {"batches_per_s": 600.0, "events_processed": 900},
            "full_rebuild": {"batches_per_s": 5.0, "events_processed": 900},
        }
    ]
}

SHARDED_REPORT = {
    "results": [
        {
            "graph": "rmat-2k",
            "algorithm": "sssp",
            "num_engines": 1,
            "events_processed": 500,
            "engine_events_processed": [500],
            "noc_flits": 0,
            "wall_clock_s": 0.02,
        },
        {
            "graph": "rmat-2k",
            "algorithm": "sssp",
            "num_engines": 2,
            "events_processed": 500,
            "engine_events_processed": [260, 240],
            "noc_flits": 90,
            "wall_clock_s": 0.03,
        },
    ]
}


LATENCY_REPORT = {
    "results": {
        "safe_insert": {"updates_per_s": 200000.0, "work_entries": 1200},
        "mixed": {"updates_per_s": 40000.0, "work_entries": 2600},
        "engine_batch1": {"updates_per_s": 700.0, "events_processed": 300},
    }
}


SERVE_REPORT = {
    "results": {
        "mixed": {
            "batches_per_s": 90.0,
            "records_applied": 5000,
            "reads_per_s": 1000.0,
            "reads_total": 1200,
            "reads_keepalive": 300,
            "read_keepalive_p50_us": 500.0,
        },
        "express": {"updates_per_s": 1200.0, "updates": 1000},
        "express_keepalive": {"updates_per_s": 2400.0, "updates": 1000},
    }
}


COMMONGRAPH_REPORT = {
    "results": [
        {
            "graph": "WK",
            "algorithm": "sssp",
            "versions": 9,
            "total_events": 63000,
            "cold_events": 241000,
            "ratio_events": 3.8,
            "shared_wall_s": 0.7,
            "cold_wall_s": 0.8,
            "ratio_wall": 1.1,
            "states_identical": True,
        }
    ],
    "min_ratio_events": 3.8,
}


def perturbed(report: dict, scale: float = 1.0, events_delta: int = 0) -> dict:
    """Copy a canned report with scaled throughput / shifted event counts."""
    out = json.loads(json.dumps(report))
    for entry in out.get("results", []):
        for mode in ("scalar", "vectorized"):
            if mode in entry:
                entry[mode]["events_per_s"] *= scale
                entry[mode]["events_processed"] += events_delta
        for mode in ("incremental", "full_rebuild"):
            if mode in entry:
                entry[mode]["batches_per_s"] *= scale
                entry[mode]["events_processed"] += events_delta
    for entry in out.get("results", []):
        if "engine_events_processed" in entry:
            entry["wall_clock_s"] /= scale
            entry["events_processed"] += events_delta
        if "cold_events" in entry:
            entry["shared_wall_s"] /= scale
            entry["total_events"] += events_delta
    for row in out.get("rows", []):
        row["events_per_s"] *= scale
        row["events"] += events_delta
    if isinstance(out.get("results"), dict):  # latency / serve report shapes
        for sample in out["results"].values():
            for rate in ("updates_per_s", "batches_per_s", "reads_per_s"):
                if rate in sample:
                    sample[rate] *= scale
            for field in (
                "work_entries",
                "events_processed",
                "records_applied",
                "reads_total",
                "updates",
            ):
                if field in sample:
                    sample[field] += events_delta
    return out


# ----------------------------------------------------------------------
# Flattening + comparison units
# ----------------------------------------------------------------------
class TestFlatten:
    def test_engine_rows(self):
        rows = flatten_engine(ENGINE_REPORT)
        assert {r["key"] for r in rows} == {
            "rmat-2k/sssp/scalar",
            "rmat-2k/sssp/vectorized",
        }
        assert all(r["suite"] == "engine" for r in rows)
        assert rows[0]["events"] == 500

    def test_trace_rows(self):
        rows = flatten_trace(TRACE_REPORT)
        assert [r["key"] for r in rows] == ["off", "metrics"]
        assert all(r["suite"] == "trace" for r in rows)

    def test_stream_rows(self):
        rows = bench_gate.flatten_stream(STREAM_REPORT)
        assert [r["key"] for r in rows] == [
            "batch1/incremental",
            "batch1/full_rebuild",
        ]
        assert all(r["suite"] == "stream" for r in rows)
        assert rows[0]["events_per_s"] == 600.0
        assert rows[0]["events"] == 900

    def test_sharded_rows(self):
        rows = bench_gate.flatten_sharded(SHARDED_REPORT)
        assert [r["key"] for r in rows] == ["rmat-2k/sssp/e1", "rmat-2k/sssp/e2"]
        assert all(r["suite"] == "sharded" for r in rows)
        # Exact counts only: processed events, NoC flits, per-engine split.
        assert rows[1]["events"] == [500, 90, 260, 240]
        assert all(r["events_per_s"] == 0.0 for r in rows)

    def test_sharded_wall_clock_is_not_gated(self):
        slow = perturbed(SHARDED_REPORT, scale=0.1)
        out = compare_rows(
            bench_gate.flatten_sharded(slow),
            bench_gate.flatten_sharded(SHARDED_REPORT),
            tolerance=0.10,
        )
        assert [c["status"] for c in out] == ["ok", "ok"]

    def test_sharded_per_engine_drift_regresses(self):
        drifted = json.loads(json.dumps(SHARDED_REPORT))
        drifted["results"][1]["engine_events_processed"] = [250, 250]
        out = compare_rows(
            bench_gate.flatten_sharded(drifted),
            bench_gate.flatten_sharded(SHARDED_REPORT),
            tolerance=0.10,
        )
        assert [c["status"] for c in out] == ["ok", "regression"]
        assert out[1]["drift"]

    def test_serve_rows(self):
        rows = bench_gate.flatten_serve(SERVE_REPORT)
        assert [r["key"] for r in rows] == [
            "mixed_ingest",
            "mixed_read",
            "read_keepalive",
            "express",
            "express_keepalive",
        ]
        assert all(r["suite"] == "serve" for r in rows)
        # Events are the exact request totals (determinism column).
        assert [r["events"] for r in rows] == [5000, 1200, 300, 1000, 1000]
        assert rows[0]["events_per_s"] == 90.0
        assert rows[1]["events_per_s"] == 1000.0
        # A 500 us median round trip gates as 2000 sequential reads/s.
        assert rows[2]["events_per_s"] == 2000.0
        assert rows[4]["events_per_s"] == 2400.0

    def test_commongraph_rows(self):
        rows = bench_gate.flatten_commongraph(COMMONGRAPH_REPORT)
        assert [r["key"] for r in rows] == ["WK/sssp/v9"]
        assert all(r["suite"] == "commongraph" for r in rows)
        # Exact counts only: the shared evaluator's events, then the cold sum.
        assert rows[0]["events"] == [63000, 241000]
        assert rows[0]["events_per_s"] == 0.0


class TestCompareRows:
    def rows(self, events_per_s: float, events: int = 100):
        return [
            {
                "suite": "trace",
                "key": "off",
                "events_per_s": events_per_s,
                "events": events,
            }
        ]

    def test_within_tolerance_is_ok(self):
        out = compare_rows(self.rows(95.0), self.rows(100.0), tolerance=0.10)
        assert out[0]["status"] == "ok"
        assert out[0]["delta"] == pytest.approx(-0.05)

    def test_drop_beyond_tolerance_regresses(self):
        out = compare_rows(self.rows(80.0), self.rows(100.0), tolerance=0.10)
        assert out[0]["status"] == "regression" and not out[0]["drift"]
        assert "throughput" in out[0]["note"]

    def test_speedup_beyond_tolerance_is_improved(self):
        out = compare_rows(self.rows(150.0), self.rows(100.0), tolerance=0.10)
        assert out[0]["status"] == "improved"

    def test_event_count_drift_regresses_regardless_of_speed(self):
        out = compare_rows(
            self.rows(500.0, events=101), self.rows(100.0, events=100), 0.10
        )
        assert out[0]["status"] == "regression" and out[0]["drift"]
        assert "determinism" in out[0]["note"]

    def test_new_and_removed_rows(self):
        current = self.rows(100.0)
        baseline = [
            {
                "suite": "trace",
                "key": "jsonl",
                "events_per_s": 50.0,
                "events": 100,
            }
        ]
        out = compare_rows(current, baseline, tolerance=0.10)
        statuses = {c["key"]: c["status"] for c in out}
        assert statuses == {"off": "new", "jsonl": "removed"}

    def test_render_table_mentions_rows_and_notes(self):
        out = compare_rows(self.rows(80.0), self.rows(100.0), tolerance=0.10)
        table = render_table(out)
        assert "off" in table
        assert "regression" in table
        assert "tolerance" in table


# ----------------------------------------------------------------------
# run_gate with canned collectors
# ----------------------------------------------------------------------
class TestRunGate:
    def collectors(
        self,
        engine=None,
        trace=None,
        stream=None,
        sharded=None,
        latency=None,
        serve=None,
        commongraph=None,
    ):
        return {
            "engine": lambda quick: engine or ENGINE_REPORT,
            "trace": lambda quick: trace or TRACE_REPORT,
            "stream": lambda quick: stream or STREAM_REPORT,
            "sharded": lambda quick: sharded or SHARDED_REPORT,
            "latency": lambda quick: latency or LATENCY_REPORT,
            "serve": lambda quick: serve or SERVE_REPORT,
            "commongraph": lambda quick: commongraph or COMMONGRAPH_REPORT,
        }

    def baselines(
        self,
        tmp_path: Path,
        engine=None,
        trace=None,
        stream=None,
        sharded=None,
        latency=None,
        serve=None,
        commongraph=None,
    ):
        paths = {}
        for suite, report in (
            ("engine", engine or ENGINE_REPORT),
            ("trace", trace or TRACE_REPORT),
            ("stream", stream or STREAM_REPORT),
            ("sharded", sharded or SHARDED_REPORT),
            ("latency", latency or LATENCY_REPORT),
            ("serve", serve or SERVE_REPORT),
            ("commongraph", commongraph or COMMONGRAPH_REPORT),
        ):
            path = tmp_path / f"baseline_{suite}.json"
            path.write_text(json.dumps(report))
            paths[suite] = path
        return paths

    def test_matching_baseline_has_zero_regressions(self, tmp_path):
        result = run_gate(
            baseline_paths=self.baselines(tmp_path),
            collectors=self.collectors(),
        )
        assert result["regressions"] == 0
        assert all(c["status"] == "ok" for c in result["comparisons"])
        assert set(result["reports"]) == {
            "engine",
            "trace",
            "stream",
            "sharded",
            "latency",
            "serve",
            "commongraph",
        }

    def test_injected_throughput_regression_is_caught(self, tmp_path):
        slow = perturbed(ENGINE_REPORT, scale=0.5)
        result = run_gate(
            suites=["engine"],
            tolerance=0.30,
            baseline_paths=self.baselines(tmp_path),
            collectors=self.collectors(engine=slow),
        )
        assert result["regressions"] == 2  # scalar + vectorized rows
        assert result["drifts"] == 0

    def test_injected_event_drift_is_caught(self, tmp_path):
        drifted = perturbed(TRACE_REPORT, events_delta=3)
        result = run_gate(
            suites=["trace"],
            baseline_paths=self.baselines(tmp_path),
            collectors=self.collectors(trace=drifted),
        )
        assert result["regressions"] == result["drifts"] == 2
        assert all("determinism" in c["note"] for c in result["comparisons"])

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(BenchGateError, match="no committed baseline"):
            run_gate(
                suites=["engine"],
                baseline_paths={"engine": tmp_path / "missing.json"},
                collectors=self.collectors(),
            )

    def test_unknown_suite_raises(self, tmp_path):
        with pytest.raises(BenchGateError, match="unknown suite"):
            run_gate(suites=["nope"], collectors=self.collectors())

    def test_update_baselines_writes_reports(self, tmp_path):
        # Every suite needs an explicit path: a missing entry falls back
        # to default_baseline_path, i.e. the real committed baseline —
        # an earlier version of this test silently overwrote
        # BENCH_latency.json with the canned report that way.
        paths = {
            suite: tmp_path / "sub" / f"{suite}.json"
            for suite in bench_gate.SUITES
        }
        result = run_gate(
            baseline_paths=paths,
            collectors=self.collectors(),
            update_baselines=True,
        )
        assert result["comparisons"] == []
        assert json.loads(paths["engine"].read_text()) == ENGINE_REPORT
        assert json.loads(paths["trace"].read_text()) == TRACE_REPORT
        assert json.loads(paths["stream"].read_text()) == STREAM_REPORT
        assert json.loads(paths["sharded"].read_text()) == SHARDED_REPORT
        assert json.loads(paths["serve"].read_text()) == SERVE_REPORT
        assert (
            json.loads(paths["commongraph"].read_text()) == COMMONGRAPH_REPORT
        )

    def test_default_baseline_paths(self):
        assert default_baseline_path("engine", quick=False).name == (
            "BENCH_engine.json"
        )
        assert default_baseline_path("trace", quick=True).parent.name == (
            "baselines"
        )
        assert default_baseline_path("stream", quick=False).name == (
            "BENCH_stream.json"
        )
        assert default_baseline_path("stream", quick=True).parent.name == (
            "baselines"
        )
        assert default_baseline_path("sharded", quick=False).name == (
            "BENCH_sharded.json"
        )
        assert default_baseline_path("sharded", quick=True).parent.name == (
            "baselines"
        )
        assert default_baseline_path("serve", quick=False).name == (
            "BENCH_serve.json"
        )
        assert default_baseline_path("serve", quick=True).name == (
            "BENCH_serve.quick.json"
        )
        assert default_baseline_path("commongraph", quick=False).name == (
            "BENCH_commongraph.json"
        )
        assert default_baseline_path("commongraph", quick=True).name == (
            "BENCH_commongraph.quick.json"
        )
        with pytest.raises(BenchGateError):
            default_baseline_path("nope", quick=False)


# ----------------------------------------------------------------------
# CLI wiring: repro bench check
# ----------------------------------------------------------------------
class TestBenchCheckCli:
    @pytest.fixture
    def canned(self, monkeypatch, tmp_path):
        """Patch the real collectors with canned reports; return baselines."""
        reports = {
            "engine": json.loads(json.dumps(ENGINE_REPORT)),
            "trace": json.loads(json.dumps(TRACE_REPORT)),
            "stream": json.loads(json.dumps(STREAM_REPORT)),
            "sharded": json.loads(json.dumps(SHARDED_REPORT)),
            "latency": json.loads(json.dumps(LATENCY_REPORT)),
            "serve": json.loads(json.dumps(SERVE_REPORT)),
            "commongraph": json.loads(json.dumps(COMMONGRAPH_REPORT)),
        }
        for suite in reports:
            monkeypatch.setitem(
                bench_gate._COLLECTORS,
                suite,
                lambda quick, s=suite: reports[s],
            )
        bases = {}
        for suite, report in (
            ("engine", ENGINE_REPORT),
            ("trace", TRACE_REPORT),
            ("stream", STREAM_REPORT),
            ("sharded", SHARDED_REPORT),
            ("latency", LATENCY_REPORT),
            ("serve", SERVE_REPORT),
            ("commongraph", COMMONGRAPH_REPORT),
        ):
            bases[suite] = tmp_path / f"{suite}.json"
            bases[suite].write_text(json.dumps(report))
        return reports, bases

    def base_args(self, bases):
        args = ["bench", "check"]
        for suite, path in bases.items():
            args += [f"--baseline-{suite}", str(path)]
        return args

    def test_exits_zero_on_matching_baselines(self, canned, capsys):
        from repro.cli import main

        _, bases = canned
        assert main(self.base_args(bases)) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "within tolerance" in out

    def test_exits_nonzero_on_injected_regression(self, canned, capsys):
        from repro.cli import main

        reports, bases = canned
        reports["engine"] = perturbed(ENGINE_REPORT, scale=0.4)
        assert main(self.base_args(bases)) == 1
        assert "regression" in capsys.readouterr().out

    def test_no_fail_reports_but_exits_zero(self, canned, capsys):
        from repro.cli import main

        reports, bases = canned
        reports["engine"] = perturbed(ENGINE_REPORT, scale=0.4)
        args = self.base_args(bases)
        args += ["--no-fail"]
        assert main(args) == 0
        assert "regression" in capsys.readouterr().out

    def test_no_fail_still_fails_on_event_count_drift(self, canned, capsys):
        from repro.cli import main

        reports, bases = canned
        reports["trace"] = perturbed(TRACE_REPORT, events_delta=1)
        args = self.base_args(bases)
        args += ["--no-fail"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "events_processed drifted" in captured.out
        assert "event-count drift" in captured.err

    def test_single_suite_selection(self, canned, capsys):
        from repro.cli import main

        reports, bases = canned
        # Break the *other* suites: a trace, stream, or sharded regression
        # must not fire when only the engine suite is selected.
        reports["trace"] = perturbed(TRACE_REPORT, scale=0.1)
        reports["stream"] = perturbed(STREAM_REPORT, events_delta=5)
        reports["sharded"] = perturbed(SHARDED_REPORT, events_delta=3)
        reports["serve"] = perturbed(SERVE_REPORT, scale=0.1)
        reports["commongraph"] = perturbed(COMMONGRAPH_REPORT, events_delta=7)
        args = self.base_args(bases)
        args += ["--suite", "engine"]
        assert main(args) == 0

    def test_update_baselines_roundtrip(self, canned, tmp_path, capsys):
        from repro.cli import main

        _, _ = canned
        new_bases = {
            suite: tmp_path / "new" / f"{suite}.json"
            for suite in bench_gate.SUITES
        }
        args = self.base_args(new_bases) + ["--update-baselines"]
        assert main(args) == 0
        assert main(self.base_args(new_bases)) == 0

    def test_missing_baseline_exits_two(self, canned, tmp_path, capsys):
        from repro.cli import main

        args = [
            "bench",
            "check",
            "--baseline-engine",
            str(tmp_path / "absent.json"),
            "--suite",
            "engine",
        ]
        assert main(args) == 2
        assert "baseline" in capsys.readouterr().err
