"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph import generators, io


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "graph.txt"
    io.write_edge_list(path, generators.erdos_renyi(60, 240, seed=3))
    return str(path)


@pytest.fixture
def update_file(tmp_path, edge_file):
    from repro.graph.dynamic import DynamicGraph
    from repro.streams import StreamGenerator

    graph = DynamicGraph.from_edges(io.read_edge_list(edge_file))
    generator = StreamGenerator(graph, seed=4)
    batches = list(generator.stream(8, 3))
    path = tmp_path / "updates.txt"
    io.write_update_stream(path, batches)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "--edges", "x.txt", "--algorithm", "bfs", "--source", "3"]
        )
        assert args.command == "query"
        assert args.algorithm == "bfs"
        assert args.source == 3

    def test_edges_and_dataset_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--edges", "x.txt", "--dataset", "WK"]
            )

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--edges", "x.txt", "--algorithm", "mis"]
            )

    @pytest.mark.parametrize("command", ["query", "stream", "serve"])
    def test_engine_count_is_the_only_engine_option(self, command):
        graph = [] if command == "serve" else ["--edges", "x.txt"]
        args = build_parser().parse_args([command, *graph])
        assert args.num_engines is None
        args = build_parser().parse_args([command, *graph, "--num-engines", "8"])
        assert args.num_engines == 8
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, *graph, "--engine", "sharded"])


class TestQueryCommand:
    def test_selective_query(self, edge_file, capsys):
        assert main(["query", "--edges", edge_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "sssp on 60 vertices" in out
        assert "model time" in out

    def test_accumulative_query(self, edge_file, capsys):
        assert (
            main(["query", "--edges", edge_file, "--algorithm", "pagerank"]) == 0
        )
        out = capsys.readouterr().out
        assert "top 10 vertices by value" in out

    def test_cc_symmetrizes(self, edge_file, capsys):
        assert main(["query", "--edges", edge_file, "--algorithm", "cc"]) == 0
        assert "cc on" in capsys.readouterr().out

    def test_at_versions_shared_prefix(self, edge_file, capsys):
        code = main(
            [
                "query",
                "--edges",
                edge_file,
                "--at-versions",
                "3",
                "--batch-size",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "common graph" in out
        assert "shared common-graph prefix" in out
        assert "total events:" in out

    def test_at_versions_accumulative_fallback(self, edge_file, capsys):
        code = main(
            [
                "query",
                "--edges",
                edge_file,
                "--algorithm",
                "pagerank",
                "--at-versions",
                "2",
                "--batch-size",
                "6",
            ]
        )
        assert code == 0
        assert "independent per-version" in capsys.readouterr().out


class TestStreamCommand:
    def test_generated_stream(self, edge_file, capsys):
        code = main(
            [
                "stream",
                "--edges",
                edge_file,
                "--batches",
                "2",
                "--batch-size",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "initial evaluation" in out
        assert out.count("\n") >= 4

    def test_stream_from_file(self, edge_file, update_file, capsys):
        code = main(
            [
                "stream",
                "--edges",
                edge_file,
                "--updates",
                update_file,
                "--batches",
                "3",
            ]
        )
        assert code == 0
        assert "batch" in capsys.readouterr().out

    def test_compare_cold(self, edge_file, capsys):
        code = main(
            [
                "stream",
                "--edges",
                edge_file,
                "--batches",
                "1",
                "--batch-size",
                "6",
                "--compare-cold",
            ]
        )
        assert code == 0
        assert "advantage" in capsys.readouterr().out

    def test_policy_choice(self, edge_file, capsys):
        code = main(
            [
                "stream",
                "--edges",
                edge_file,
                "--batches",
                "1",
                "--batch-size",
                "4",
                "--policy",
                "vap",
            ]
        )
        assert code == 0

    def test_delete_policy_commongraph_rejected(self, edge_file):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--edges", edge_file, "--delete-policy", "commongraph"])
        assert exc.value.code == 2


class TestTraceFlags:
    def test_stream_writes_valid_trace(self, edge_file, tmp_path, capsys):
        from repro.obs import read_trace, validate_trace

        trace_path = tmp_path / "run.jsonl"
        code = main(
            [
                "stream",
                "--edges",
                edge_file,
                "--batches",
                "2",
                "--batch-size",
                "8",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        assert validate_trace(trace_path) == []
        trace = read_trace(trace_path)
        # initial + 2 batches.
        assert len(trace.runs()) == 3
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "Mcyc/s" in out  # correlation table printed

    def test_query_trace_and_progress(self, edge_file, tmp_path, capsys):
        from repro.obs import validate_trace

        trace_path = tmp_path / "q.jsonl"
        code = main(
            [
                "query",
                "--edges",
                edge_file,
                "--trace",
                str(trace_path),
                "--progress",
            ]
        )
        assert code == 0
        assert validate_trace(trace_path) == []
        err = capsys.readouterr().err
        assert "[trace] run initial started" in err

    def test_stream_express_trace_has_one_event_per_update(self, edge_file, tmp_path):
        from repro.obs import read_trace, validate_trace

        trace_path = tmp_path / "express.jsonl"
        args = ["stream", "--edges", edge_file, "--express", "--batches", "2"]
        args += ["--batch-size", "5", "--trace", str(trace_path)]
        assert main(args) == 0
        assert validate_trace(trace_path) == []
        events = [e for e in read_trace(trace_path).events if e["name"] == "express"]
        assert len(events) == 10
        assert all("edges_scanned" in e["attrs"] for e in events)

    def test_metrics_snapshot_is_folded_from_the_trace(self, edge_file, tmp_path):
        import json

        from repro.obs import read_trace

        trace_path, metrics_path = tmp_path / "run.jsonl", tmp_path / "m.json"
        args = ["stream", "--edges", edge_file, "--batches", "2", "--batch-size"]
        args += ["8", "--trace", str(trace_path), "--metrics", str(metrics_path)]
        assert main(args) == 0
        families = {
            family["name"]: family["series"]
            for family in json.loads(metrics_path.read_text())["families"]
        }
        rounds = [s for s in read_trace(trace_path).spans if s["kind"] == "round"]
        assert families["repro_events_processed_total"][0]["value"] == sum(
            s["attrs"]["events_processed"] for s in rounds
        )
        runs = {e["labels"]["kind"]: e["value"] for e in families["repro_runs_total"]}
        assert runs == {"initial": 1, "batch": 2}

    def test_untraced_run_unchanged(self, edge_file, capsys):
        assert main(["query", "--edges", edge_file]) == 0
        out = capsys.readouterr().out
        assert "trace written" not in out


class TestTraceCommand:
    def make_trace(self, edge_file, tmp_path):
        path = tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "stream",
                    "--edges",
                    edge_file,
                    "--batches",
                    "1",
                    "--batch-size",
                    "6",
                    "--trace",
                    str(path),
                ]
            )
            == 0
        )
        return path

    def test_summarize_round_trips(self, edge_file, tmp_path, capsys):
        path = self.make_trace(edge_file, tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Mcyc/s" in out
        assert "initial" in out and "reevaluation" in out

    def test_validate_accepts_good_trace(self, edge_file, tmp_path, capsys):
        path = self.make_trace(edge_file, tmp_path)
        capsys.readouterr()
        assert main(["trace", "validate", str(path)]) == 0
        assert "valid trace" in capsys.readouterr().out

    def test_validate_rejects_bad_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{}\n")
        assert main(["trace", "validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_trace_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestDatasetsCommand:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("Wikipedia", "Facebook", "LiveJournal", "UK-2002", "Twitter"):
            assert name in out
