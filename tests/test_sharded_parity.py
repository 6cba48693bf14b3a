"""Sharded multi-engine <-> single-engine parity (the tentpole invariant).

``num_engines=n`` is the array path plus per-engine accounting
(``repro.core.parallel``), so it must be a *bit-identical* drop-in for
the single-engine run (``num_engines=None``) for any engine count: same final
states, same per-round ``RoundWork`` vectors (hence identical modelled
cycles/energy), same phase extras, same queue lifetime statistics. These
tests sweep every algorithm × delete policy × {static, streaming
insert+delete batches} × ``num_engines ∈ {1, 2, 8}``, mirroring the
structure of ``tests/test_vector_parity.py``.

Every parity case also takes a *census* while its engines are still
alive: ``thread`` checks that the set of live threads is the one before
the run, ``process`` that the live child processes and shared-memory
segments are — no engine path may start a runtime of its own.
"""

from __future__ import annotations

import multiprocessing
import re
import threading
from pathlib import Path

import pytest

from repro.algorithms import make_algorithm
from repro.core.config import AcceleratorConfig
from repro.core.engine import GraphPulseEngine
from repro.core.policies import DeletePolicy
from repro.core.shm import leaked_system_segments
from repro.core.streaming import JetStreamEngine
from repro.streams import Edge, StreamGenerator, UpdateBatch

from conftest import make_graph_for

ALGORITHMS = ["sssp", "bfs", "cc", "sswp", "pagerank", "adsorption"]
POLICIES = [DeletePolicy.BASE, DeletePolicy.VAP, DeletePolicy.DAP]
ENGINE_COUNTS = [1, 2, 8]
CENSUSES = ["thread", "process"]


def take_census(kind: str):
    """Live threads (``thread``), or child processes and shm segments."""
    if kind == "thread":
        return sorted(t.ident for t in threading.enumerate())
    return (
        sorted(p.pid for p in multiprocessing.active_children()),
        leaked_system_segments(),
    )


def assert_run_parity(oracle, sharded, context: str = "") -> None:
    """States bit-identical; every work vector and queue stat equal."""
    assert oracle.states.tobytes() == sharded.states.tobytes(), (
        f"{context}: states diverge"
    )
    orows = oracle.metrics.to_rows()
    srows = sharded.metrics.to_rows()
    assert orows == srows, f"{context}: per-round work vectors diverge"
    for op, sp in zip(oracle.metrics.phases, sharded.metrics.phases):
        assert op.name == sp.name, context
        assert op.vertices_reset == sp.vertices_reset, f"{context}: {op.name}"
        assert op.deletes_discarded == sp.deletes_discarded, f"{context}: {op.name}"
        assert op.request_events == sp.request_events, f"{context}: {op.name}"
    assert oracle.queue_stats == sharded.queue_stats, (
        f"{context}: queue lifetime stats diverge"
    )


def run_static_pair(
    name: str,
    num_engines: int,
    config=None,
    n: int = 60,
    m: int = 240,
    seed: int = 7,
    census_kind: str = "thread",
):
    before = take_census(census_kind)
    algorithm = make_algorithm(name, source=0)
    graph = make_graph_for(algorithm, n=n, m=m, seed=seed)
    engines = [
        GraphPulseEngine(make_algorithm(name, source=0), config),
        GraphPulseEngine(
            make_algorithm(name, source=0), config, num_engines=num_engines
        ),
    ]
    oracle, sharded = (engine.compute(graph.snapshot()) for engine in engines)
    # Taken while both engines are alive: a runtime either owned would show.
    assert take_census(census_kind) == before, f"the run changed the {census_kind} census"
    return oracle, sharded


def run_stream_pair(
    name: str,
    policy: DeletePolicy,
    num_engines: int,
    config=None,
    n: int = 50,
    m: int = 200,
    seed: int = 11,
    num_batches: int = 3,
    batch_size: int = 12,
    census_kind: str = "thread",
):
    before = take_census(census_kind)
    engines, results = [], []
    for engines_option in (None, num_engines):
        algorithm = make_algorithm(name, source=0)
        graph = make_graph_for(algorithm, n=n, m=m, seed=seed)
        engine = JetStreamEngine(
            graph,
            algorithm,
            config,
            policy=policy,
            num_engines=engines_option,
        )
        engines.append(engine)
        stream = StreamGenerator(graph, seed=seed + 1)
        runs = [engine.initial_compute()]
        for _ in range(num_batches):
            runs.append(engine.apply_batch(stream.next_batch(batch_size)))
        results.append(runs)
    assert take_census(census_kind) == before, f"the run changed the {census_kind} census"
    return results


def grow_stream(**kwargs):
    """Initial evaluation + three batches that each create two vertices.

    Returns ``(engine, results)``.
    """
    graph = make_graph_for(make_algorithm("sssp", source=0), n=30, m=100, seed=71)
    engine = JetStreamEngine(graph, make_algorithm("sssp", source=0), **kwargs)
    out = [engine.initial_compute()]
    next_vertex = graph.num_vertices
    for step in range(3):
        insertions = [
            Edge(step, next_vertex, 1.0),
            Edge(next_vertex, next_vertex + 1, 2.0),
        ]
        next_vertex += 2
        out.append(engine.apply_batch(UpdateBatch(insertions=insertions)))
    return engine, out


class TestStaticShardedParity:
    @pytest.mark.parametrize("census", CENSUSES)
    @pytest.mark.parametrize("num_engines", ENGINE_COUNTS)
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_static_compute(self, name, num_engines, census):
        oracle, sharded = run_static_pair(name, num_engines, census_kind=census)
        assert_run_parity(oracle, sharded, f"static/{name}/e{num_engines}")

    def test_sharded_rejects_forced_queue_slicing(self):
        # Each engine's queue must hold its whole slice resident (§4.7);
        # a queue too small for the graph cannot be sharded.
        config = AcceleratorConfig(queue_bytes=25 * 8)
        with pytest.raises(ValueError):
            run_static_pair("sssp", 8, config, n=100, m=400, seed=21)

    def test_sharded_requires_vector_hooks(self):
        from repro.core.engine import EngineCore

        class NoHooks(type(make_algorithm("sssp"))):
            reduce_ufunc = None

        with pytest.raises(ValueError):
            EngineCore(NoHooks(source=0), num_engines=8)

    def test_bad_engine_count_rejected(self):
        from repro.core.engine import EngineCore

        with pytest.raises(ValueError):
            EngineCore(make_algorithm("sssp"), num_engines=0)


class TestStreamingShardedParity:
    @pytest.mark.parametrize("census", CENSUSES)
    @pytest.mark.parametrize("num_engines", ENGINE_COUNTS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_streaming(self, name, policy, num_engines, census):
        oracle_runs, sharded_runs = run_stream_pair(
            name, policy, num_engines, census_kind=census
        )
        for index, (oracle, sharded) in enumerate(zip(oracle_runs, sharded_runs)):
            context = f"stream/{name}/{policy.name}/e{num_engines}/batch{index}"
            assert oracle.impacted == sharded.impacted, (
                f"{context}: impacted diverge"
            )
            assert_run_parity(oracle, sharded, context)

    @pytest.mark.parametrize("census", CENSUSES)
    def test_streaming_grows_vertices(self, census):
        # Streams that create brand-new vertices exercise the deterministic
        # growth rule of the vertex->engine map.
        before = take_census(census)
        oracle_engine, oracle_runs = grow_stream()
        sharded_engine, sharded_runs = grow_stream(num_engines=8)
        assert take_census(census) == before
        for index, (oracle, sharded) in enumerate(zip(oracle_runs, sharded_runs)):
            assert oracle.impacted == sharded.impacted
            assert_run_parity(oracle, sharded, f"grow/batch{index}")


class TestShardedMetrics:
    def test_per_engine_rounds_recorded(self):
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, n=60, m=240, seed=7)
        engine = GraphPulseEngine(
            make_algorithm("sssp", source=0), num_engines=4
        )
        result = engine.compute(graph.snapshot())
        phase = result.metrics.phases[0]
        assert phase.shard_rounds, "per-shard work vectors missing"
        assert all(len(round_) == 4 for round_ in phase.shard_rounds)
        per_engine = phase.per_engine_totals()
        assert len(per_engine) == 4
        # Per-engine processed events partition the global count.
        merged = sum(w.events_processed for w in per_engine)
        assert merged == phase.events_processed

    def test_engine_utilization_and_noc_summary(self):
        algorithm = make_algorithm("pagerank")
        graph = make_graph_for(algorithm, n=80, m=400, seed=13)
        engine = GraphPulseEngine(
            make_algorithm("pagerank"), num_engines=8
        )
        result = engine.compute(graph.snapshot())
        util = result.metrics.engine_utilization()
        assert len(util) == 8
        assert sum(util) == pytest.approx(1.0)
        noc = result.metrics.noc_summary()
        # Cross-slice edges exist on a random graph, so remote traffic and
        # its flit/cycle accounting must be non-zero.
        assert noc["events_remote"] > 0
        assert noc["flits"] > 0
        assert noc["cycles"] > 0
        # Discrete quantities come back as ints (JSON/metrics friendly);
        # only the modeled cycle count is fractional.
        for key in ("events_local", "events_remote", "flits"):
            assert isinstance(noc[key], int)

    def test_single_engine_has_no_remote_traffic(self):
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, n=40, m=160, seed=3)
        engine = GraphPulseEngine(
            make_algorithm("sssp", source=0), num_engines=1
        )
        result = engine.compute(graph.snapshot())
        noc = result.metrics.noc_summary()
        assert noc["events_remote"] == 0
        assert noc["flits"] == 0


class TestNoParallelRuntime:
    """Sharding is accounting: no engine path starts a thread, a process
    or a shared-memory segment."""

    def test_eight_engine_runs_leave_every_census_unchanged(self):
        threads = threading.active_count()
        children = multiprocessing.active_children()
        segments = leaked_system_segments()
        algorithm = make_algorithm("pagerank")
        graph = make_graph_for(algorithm, n=60, m=240, seed=7)
        static = GraphPulseEngine(algorithm, num_engines=8)
        result = static.compute(graph.snapshot())
        stream, grown = grow_stream(num_engines=8)
        assert len(result.metrics.engine_utilization()) == 8
        assert grown[-1].metrics.phases[-1].shard_rounds
        # Both engines are still referenced, so anything they started
        # would still be running.
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == children
        assert leaked_system_segments() == segments

    def test_core_imports_no_parallel_runtime(self):
        package = Path(__file__).resolve().parents[1] / "src" / "repro"
        core = sorted((package / "core").glob("*.py"))
        banned = re.compile(
            r"^\s*(?:import|from)\s+(?:threading|concurrent\.futures|multiprocessing)\b"
            r"|shared_memory",
            re.MULTILINE,
        )
        offenders = [path.name for path in core if banned.search(path.read_text())]
        assert offenders == []
        # Nor does the scalar oracle come back into production: nothing
        # that serves a query imports it, core/ never names its queue,
        # and core/ does not dispatch on the queue's type.
        imports_oracle = re.compile(
            r"^\s*(?:from\s+repro\s+import\s+.*\boracle\b|(?:import|from)\s+repro\.oracle\b)",
            re.MULTILINE,
        )
        production = core + [package / name for name in ("host.py", "serve.py", "cli.py")]
        assert [
            path.name for path in production if imports_oracle.search(path.read_text())
        ] == []
        assert [
            path.name for path in core if "CoalescingQueue" in path.read_text()
        ] == []
        assert [
            path.name
            for path in core
            if re.search(r"isinstance\([^)]*queue", path.read_text(), re.IGNORECASE)
        ] == []
