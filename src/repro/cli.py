"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``query``
    Static evaluation of an algorithm on an edge-list file (or a named
    dataset stand-in), printing the top results and accelerator timing.
``stream``
    Streaming evaluation: apply update batches (from a stream file or
    generated on the fly) and report per-batch incremental cost versus the
    cold-start alternative.
``datasets``
    Build and describe the Table 2 dataset stand-ins.
``experiments``
    Run the paper's tables/figures (delegates to
    :mod:`repro.experiments.runner`).
``trace``
    Inspect a saved JSONL run trace (``--trace`` output): ``summarize``
    renders the wall-clock vs. modeled-cycles correlation table,
    ``validate`` checks the file against the documented schema,
    ``export`` converts it to a Chrome/Perfetto trace-event file.
``metrics``
    Work with metrics snapshots (``--metrics`` output): ``dump`` prints a
    saved JSON snapshot as Prometheus text or JSON.
``bench``
    Performance trajectory tooling: ``check`` re-runs the benchmark
    suites and gates their exact counts and ratios against the committed
    ``BENCH_*.json`` baselines.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.algorithms import make_algorithm
from repro.algorithms.base import AlgorithmKind
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import datasets, io
from repro.graph.dynamic import DynamicGraph, build_symmetric_graph
from repro.obs import bench_gate
from repro.obs import (
    REGISTRY,
    JsonlSink,
    MemorySink,
    MetricsServer,
    ProgressSink,
    SlowRequestSink,
    TraceData,
    Tracer,
    analyze_requests,
    correlate,
    read_trace,
    render_correlation,
    render_prometheus,
    render_request_table,
    summarize,
    validate_trace,
    write_chrome_trace,
)
from repro.sim.timing import AcceleratorTimingModel
from repro.streams import StreamGenerator

ALGORITHM_CHOICES = ["sssp", "sswp", "bfs", "cc", "pagerank", "adsorption"]
NUM_ENGINES_HELP = (
    "also report per-engine work and NoC traffic over N graph slices "
    "(Table 1 has 8); omit for one engine"
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JetStream streaming graph analytics (MICRO 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="static query evaluation")
    _add_graph_args(query)
    _add_trace_args(query)
    query.add_argument("--top", type=int, default=10, help="results to print")
    query.add_argument(
        "--at-versions",
        type=int,
        metavar="N",
        help="multi-version mode: apply N seeded update batches with "
        "versioning enabled, then evaluate the query at every recorded "
        "version through one shared common-graph convergence "
        "(Session.run_at_versions)",
    )
    query.add_argument(
        "--batch-size",
        type=int,
        default=50,
        help="update batch size between versions (--at-versions mode)",
    )
    query.add_argument(
        "--insertion-ratio",
        type=float,
        default=0.5,
        help="insert share of each version's batch (--at-versions mode)",
    )
    query.add_argument(
        "--seed", type=int, default=0, help="stream seed (--at-versions mode)"
    )

    stream = sub.add_parser("stream", help="streaming evaluation")
    _add_graph_args(stream)
    _add_trace_args(stream)
    stream.add_argument("--batches", type=int, default=5)
    stream.add_argument("--batch-size", type=int, default=100)
    stream.add_argument("--insertion-ratio", type=float, default=0.7)
    stream.add_argument(
        "--policy",
        "--delete-policy",
        dest="policy",
        choices=[p.value for p in DeletePolicy],
        default=DeletePolicy.DAP.value,
        help="deletion recovery policy (§5): base, vap, or dap",
    )
    stream.add_argument("--updates", help="update-stream file (see repro.graph.io)")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--compare-cold",
        action="store_true",
        help="also run cold-start GraphPulse on the same stream",
    )
    stream.add_argument(
        "--express",
        action="store_true",
        help="apply the stream as single updates through the express lane "
        "(safe/unsafe classification; batches x batch-size updates total)",
    )

    serve = sub.add_parser(
        "serve",
        help="long-running streaming service (JSON over HTTP)",
        description="Serve interleaved ingest batches, express updates, and "
        "snapshot-isolated reads to many concurrent clients; /metrics is "
        "mounted on the same port. POST /shutdown (or Ctrl-C) drains "
        "in-flight batches and exits.",
    )
    serve.add_argument("--port", type=int, default=8800, help="0 picks a free port")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--queue-bound",
        type=int,
        default=64,
        help="per-session ingest queue bound; writes past it get 429 QUEUE_FULL",
    )
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="leave the metrics registry disabled (scrape routes stay mounted)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=50.0,
        help="requests at or above this latency enter the /debug/requests "
        "slow ring (default 50 ms)",
    )
    serve.add_argument(
        "--request-ring",
        type=int,
        default=64,
        help="slow-request ring capacity (oldest evicted first)",
    )
    serve.add_argument(
        "--log-bound",
        type=int,
        default=None,
        help="bound each session's applied-write log to the newest N "
        "entries (default: keep all; /sessions/<s>/log reports the "
        "dropped-prefix count)",
    )
    serve.add_argument(
        "--trace",
        metavar="PATH",
        help="write the span tree (each request and the engine work it "
        "caused) to a JSONL trace (see `repro trace requests`)",
    )
    preload = serve.add_mutually_exclusive_group()
    preload.add_argument("--edges", help="preload session 'default' from an edge list")
    preload.add_argument(
        "--dataset", choices=datasets.ORDER, help="preload from a Table 2 stand-in"
    )
    serve.add_argument("--algorithm", choices=ALGORITHM_CHOICES, default="sssp")
    serve.add_argument("--source", type=int, default=0)
    serve.add_argument(
        "--policy",
        "--delete-policy",
        dest="policy",
        choices=[p.value for p in DeletePolicy],
        default=DeletePolicy.DAP.value,
    )
    serve.add_argument("--num-engines", type=int, default=None, help=NUM_ENGINES_HELP)

    data = sub.add_parser("datasets", help="describe the dataset stand-ins")
    data.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiments", help="run the paper's tables/figures")
    exp.add_argument("--quick", action="store_true")
    exp.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser("trace", help="inspect a saved JSONL run trace")
    trace_sub = trace.add_subparsers(dest="action", required=True)
    trace_summ = trace_sub.add_parser(
        "summarize",
        help="render the per-phase wall-clock vs modeled-cycles table",
    )
    trace_summ.add_argument("path", help="JSONL trace written by --trace")
    trace_val = trace_sub.add_parser(
        "validate", help="check a trace file against the documented schema"
    )
    trace_val.add_argument("path", help="JSONL trace written by --trace")
    trace_exp = trace_sub.add_parser(
        "export",
        help="convert a trace for external viewers (chrome://tracing, Perfetto)",
    )
    trace_exp.add_argument("path", help="JSONL trace written by --trace")
    trace_exp.add_argument(
        "--format",
        choices=["chrome"],
        default="chrome",
        help="output format (chrome = Trace Event JSON for Perfetto)",
    )
    trace_exp.add_argument(
        "-o",
        "--output",
        help="output path (default: trace path with .chrome.json suffix)",
    )
    trace_req = trace_sub.add_parser(
        "requests",
        help="tail-latency attribution from the request spans of a serve "
        "trace (repro serve --trace)",
    )
    trace_req.add_argument("path", help="JSONL trace written by repro serve")
    trace_req.add_argument(
        "--json",
        action="store_true",
        help="print the raw analysis as JSON instead of tables",
    )

    metrics = sub.add_parser("metrics", help="work with metrics snapshots")
    metrics_sub = metrics.add_subparsers(dest="action", required=True)
    metrics_dump = metrics_sub.add_parser(
        "dump", help="print a saved JSON snapshot (--metrics output)"
    )
    metrics_dump.add_argument("path", help="JSON snapshot written by --metrics")
    metrics_dump.add_argument(
        "--format",
        choices=["prometheus", "json"],
        default="prometheus",
        help="rendering: Prometheus text exposition (default) or JSON",
    )

    bench = sub.add_parser("bench", help="performance trajectory tooling")
    bench_sub = bench.add_subparsers(dest="action", required=True)
    bench_check = bench_sub.add_parser(
        "check",
        help="re-run the benchmark suites and gate against BENCH_*.json",
    )
    bench_check.add_argument(
        "--quick",
        action="store_true",
        help="quick grids against benchmarks/baselines/*.quick.json",
    )
    bench_check.add_argument(
        "--suite",
        choices=[*bench_gate.SUITES, "all"],
        default="all",
        help="which benchmark suite(s) to run",
    )
    bench_check.add_argument(
        "--update-baselines",
        action="store_true",
        help="write this run's reports as the new baselines (a report "
        "with a ratio out of its bounds is not written)",
    )
    return parser


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--edges", help="edge-list file (src dst [weight])")
    source.add_argument(
        "--dataset", choices=datasets.ORDER, help="named Table 2 stand-in"
    )
    parser.add_argument(
        "--algorithm", choices=ALGORITHM_CHOICES, default="sssp"
    )
    parser.add_argument("--source", type=int, default=0, help="query root")
    parser.add_argument(
        "--num-engines", type=int, default=None, help=NUM_ENGINES_HELP
    )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL run trace (see `repro trace summarize`)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live phase/round progress on stderr",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a JSON metrics snapshot after the run "
        "(see `repro metrics dump`)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        metavar="N",
        help="serve live Prometheus metrics on http://127.0.0.1:N/metrics "
        "while the run executes (0 picks a free port)",
    )


def _make_tracer(args):
    """Build the tracer requested by --trace/--progress/--metrics[-port].

    Returns ``(tracer, memory_sink)`` — both ``None`` when no sink is
    requested. The memory sink mirrors the JSONL file so the post-run
    correlation table can be rendered without re-reading the trace from
    disk; the metrics registry is a sink like the others.
    """
    sinks: List = []
    memory = None
    if args.metrics or args.metrics_port is not None:
        sinks.append(REGISTRY)
    if args.trace:
        sinks.append(JsonlSink(args.trace))
        memory = MemorySink()
        sinks.append(memory)
    if args.progress:
        sinks.append(ProgressSink())
    if not sinks:
        return None, None
    return Tracer(sinks), memory


def _finish_trace(tracer, memory, args) -> None:
    """Close the sinks and print the wall-clock/model correlation table."""
    if tracer is None:
        return
    tracer.close()
    if memory is not None:
        print(f"\ntrace written to {args.trace}")
        trace = TraceData.from_spans(memory.spans, memory.events)
        print(render_correlation(correlate(trace)))


def _start_metrics(args):
    """Enable the registry / scrape server for --metrics/--metrics-port.

    Returns ``(active, server)``; pass both to :func:`_finish_metrics`
    in a ``finally`` block.
    """
    active = bool(args.metrics) or args.metrics_port is not None
    server = None
    if active:
        REGISTRY.enable().reset()
    if args.metrics_port is not None:
        server = MetricsServer(REGISTRY, port=args.metrics_port).start()
        print(f"[metrics] serving {server.url}", file=sys.stderr)
    return active, server


def _finish_metrics(args, active, server) -> None:
    """Snapshot to --metrics if requested, then return to the off state."""
    if server is not None:
        server.stop()
    if not active:
        return
    if args.metrics:
        REGISTRY.dump_json(args.metrics)
        print(f"metrics snapshot written to {args.metrics}")
    REGISTRY.disable().reset()


def _load_graph(args) -> DynamicGraph:
    algorithm = make_algorithm(args.algorithm, source=args.source)
    if args.dataset:
        return datasets.load(args.dataset, symmetric=algorithm.needs_symmetric)
    edges = io.read_edge_list(args.edges)
    if algorithm.needs_symmetric:
        return build_symmetric_graph(edges)
    return DynamicGraph.from_edges(edges)


def _run_query_at_versions(args, graph, algorithm) -> int:
    """``repro query --at-versions N``: shared-prefix multi-version mode.

    Applies N seeded update batches through a versioned session, then
    evaluates the query at every recorded version with one common-graph
    convergence fanned out into per-version addition passes.
    """
    from repro.host import Accelerator

    accel = Accelerator()
    session = None
    try:
        edges = np.column_stack(graph.edge_arrays())
        if algorithm.needs_symmetric:
            # load_graph re-mirrors; hand it each undirected edge once.
            edges = edges[edges[:, 0] <= edges[:, 1]]
        session = accel.load_graph(
            edges, graph.num_vertices, symmetric=algorithm.needs_symmetric
        )
        session.configure(
            args.algorithm,
            source=args.source,
            num_engines=args.num_engines,
        )
        session.enable_versioning()
        session.run()
        generator = StreamGenerator(
            session.graph, seed=args.seed, insertion_ratio=args.insertion_ratio
        )
        for _ in range(args.at_versions):
            batch = generator.next_batch(args.batch_size)
            session.push_updates(batch.ins, batch.dels)
            session.run()
        result = session.run_at_versions(0)
        mode = (
            "shared common-graph prefix"
            if result.shared
            else "independent per-version evaluations (accumulative fallback)"
        )
        print(
            f"{args.algorithm} at versions "
            f"{result.versions[0]}..{result.versions[-1]} ({mode})"
        )
        if result.shared:
            print(
                f"common graph: {result.common_edges:,} edges, "
                f"{result.common_events:,} events (converged once)"
            )
        print(f"{'version':>8} {'vertices':>9} {'events':>9}")
        for ver in result.versions:
            print(
                f"{ver:>8} {result.states[ver].shape[0]:>9} "
                f"{result.per_version_events[ver]:>9}"
            )
        print(f"total events: {result.total_events:,}")
    finally:
        if session is not None:
            session.close()
        accel.close()
    return 0


def cmd_query(args) -> int:
    graph = _load_graph(args)
    algorithm = make_algorithm(args.algorithm, source=args.source)
    if args.at_versions:
        return _run_query_at_versions(args, graph, algorithm)
    tracer, memory = _make_tracer(args)
    metrics_on, server = _start_metrics(args)
    engine = JetStreamEngine(
        graph,
        algorithm,
        num_engines=args.num_engines,
        tracer=tracer,
    )
    started = time.time()
    try:
        result = engine.initial_compute()
    except BaseException:
        if tracer is not None:
            tracer.close()
        _finish_metrics(args, metrics_on, server)
        raise
    elapsed = time.time() - started
    timing = AcceleratorTimingModel().run_time(result.metrics)
    print(
        f"{args.algorithm} on {graph.num_vertices} vertices / "
        f"{graph.num_edges} edges"
    )
    print(
        f"events processed: {result.metrics.events_processed:,}  "
        f"model time: {timing.time_us:.1f} us  (host wall: {elapsed:.2f} s)"
    )
    states = result.states
    if algorithm.kind is AlgorithmKind.ACCUMULATIVE:
        order = np.argsort(-states)[: args.top]
        print(f"top {args.top} vertices by value:")
        for v in order:
            print(f"  {int(v):>8}  {states[v]:.6g}")
    else:
        finite = np.flatnonzero(np.isfinite(states) & (states != algorithm.identity))
        order = finite[np.argsort(states[finite])][: args.top]
        print(f"{args.top} most progressed vertices:")
        for v in order:
            print(f"  {int(v):>8}  {states[v]:.6g}")
    _finish_trace(tracer, memory, args)
    _finish_metrics(args, metrics_on, server)
    return 0


def cmd_stream(args) -> int:
    graph = _load_graph(args)
    algorithm = make_algorithm(args.algorithm, source=args.source)
    policy = DeletePolicy(args.policy)
    tracer, memory = _make_tracer(args)
    metrics_on, server = _start_metrics(args)
    engine = JetStreamEngine(
        graph,
        algorithm,
        policy=policy,
        num_engines=args.num_engines,
        tracer=tracer,
    )
    timing = AcceleratorTimingModel()

    cold = None
    if args.compare_cold:
        from repro.baselines import GraphPulseColdStart

        cold_args = argparse.Namespace(**vars(args))
        cold_graph = _load_graph(cold_args)
        cold = GraphPulseColdStart(cold_graph, make_algorithm(args.algorithm, source=args.source))

    try:
        initial = engine.initial_compute()
        if cold:
            cold.initial_compute()
        print(
            f"initial evaluation: {initial.metrics.events_processed:,} events, "
            f"{timing.run_time(initial.metrics).time_us:.1f} us"
        )

        if args.express:
            _run_express_stream(args, engine)
            _finish_trace(tracer, memory, args)
            _finish_metrics(args, metrics_on, server)
            return 0

        if args.updates:
            batches = io.read_update_stream(args.updates)[: args.batches]
        else:
            generator = StreamGenerator(
                graph, seed=args.seed, insertion_ratio=args.insertion_ratio
            )
            batches = None  # generated lazily below

        header = f"{'batch':>5} {'size':>6} {'resets':>7} {'jet us':>10}"
        if cold:
            header += f" {'cold us':>10} {'advantage':>10}"
        print(header)
        for index in range(args.batches):
            if batches is not None:
                if index >= len(batches):
                    break
                batch = batches[index]
            else:
                batch = generator.next_batch(args.batch_size)
            result = engine.apply_batch(batch)
            jet_us = timing.run_time(result.metrics, stream_records=batch.size).time_us
            line = (
                f"{index:>5} {batch.size:>6} {result.vertices_reset:>7} {jet_us:>10.1f}"
            )
            if cold:
                cold_result = cold.apply_batch(batch)
                cold_us = timing.run_time(
                    cold_result.metrics, stream_records=batch.size
                ).time_us
                line += f" {cold_us:>10.1f} {cold_us / max(1e-9, jet_us):>9.1f}x"
            print(line)
    except BaseException:
        if tracer is not None:
            tracer.close()
        _finish_metrics(args, metrics_on, server)
        raise
    _finish_trace(tracer, memory, args)
    _finish_metrics(args, metrics_on, server)
    return 0


def _run_express_stream(args, engine) -> None:
    """``repro stream --express``: the stream as classified single updates.

    Applies ``batches x batch-size`` single-edge updates through the
    express lane, printing per-chunk latency percentiles and the
    safe/unsafe split; unsafe updates transparently run as one-edge
    engine batches.
    """
    import statistics

    from repro.core.fastpath import ExpressLane

    lane = ExpressLane(engine)
    singles = None
    if args.updates:
        singles = []
        for batch in io.read_update_stream(args.updates):
            for edge in batch.deletions:
                singles.append((edge.u, edge.v, edge.w, "delete"))
            for edge in batch.insertions:
                singles.append((edge.u, edge.v, edge.w, "insert"))
    else:
        generator = StreamGenerator(
            engine.graph, seed=args.seed, insertion_ratio=args.insertion_ratio
        )
        rng = np.random.default_rng(args.seed)

    print(f"{'updates':>8} {'safe':>6} {'unsafe':>7} {'p50 us':>9} {'max us':>9}")
    applied = 0
    for _ in range(args.batches):
        latencies: List[float] = []
        safe = 0
        for _ in range(args.batch_size):
            if singles is not None:
                if applied >= len(singles):
                    break
                u, v, w, op = singles[applied]
            else:
                # Batch composition rounds 0.7 to "always insert" at size 1;
                # draw the op per update instead to keep the stream mixed.
                want_insert = rng.random() < args.insertion_ratio
                single = generator.next_batch(
                    1, insertion_ratio=1.0 if want_insert else 0.0
                )
                if single.insertions:
                    edge, op = single.insertions[0], "insert"
                else:
                    edge, op = single.deletions[0], "delete"
                u, v, w = edge.u, edge.v, edge.w
            result = lane.apply(u, v, w, op)
            latencies.append(result.latency_s)
            safe += int(result.safe)
            applied += 1
        if not latencies:
            break
        print(
            f"{len(latencies):>8} {safe:>6} {len(latencies) - safe:>7} "
            f"{statistics.median(latencies) * 1e6:>9.1f} "
            f"{max(latencies) * 1e6:>9.1f}"
        )
    stats = lane.stats
    ratio = stats["safe_applied"] / applied if applied else 0.0
    print(
        f"express lane: {stats['safe_applied']} safe / "
        f"{stats['engine_fallthroughs']} engine fallthroughs "
        f"({ratio:.0%} safe)"
    )


def cmd_serve(args) -> int:
    """``repro serve``: run the long-running streaming service."""
    from repro.host import Accelerator
    from repro.serve import ServeApp, ServeServer

    # The daemon always traces its requests: the slow-request ring
    # powers /debug/requests; metrics and the JSONL trace are more sinks.
    ring = SlowRequestSink(args.request_ring, slow_threshold_s=args.slow_ms / 1e3)
    sinks: List = [ring]
    if not args.no_metrics:
        REGISTRY.enable().reset()
        sinks.append(REGISTRY)
    if args.trace:
        sinks.append(JsonlSink(args.trace))
        print(f"[serve] trace at {args.trace}", file=sys.stderr)
    tracer = Tracer(sinks)
    app = ServeApp(
        accelerator=Accelerator(tracer=tracer),
        queue_bound=args.queue_bound,
        log_bound=args.log_bound,
    )
    if args.edges or args.dataset:
        if args.dataset:
            graph = datasets.load(
                args.dataset,
                symmetric=make_algorithm(
                    args.algorithm, source=args.source
                ).needs_symmetric,
            )
            edges = np.column_stack(graph.edge_arrays())
        else:
            edges = io.read_edge_list(args.edges)
        session = app.create_session(
            edges,
            args.algorithm,
            name="default",
            source=args.source,
            policy=args.policy,
            num_engines=args.num_engines,
            symmetric=make_algorithm(
                args.algorithm, source=args.source
            ).needs_symmetric,
        )
        print(
            f"[serve] session 'default': {args.algorithm} on "
            f"{session.stats()['num_vertices']} vertices",
            file=sys.stderr,
        )
    server = ServeServer(app, port=args.port, host=args.host).start()
    print(f"[serve] listening on {server.url}", file=sys.stderr)
    print(f"[serve] metrics at {server.url}/metrics", file=sys.stderr)
    server.serve_until_shutdown()
    print("[serve] drained and stopped", file=sys.stderr)
    tracer.close()
    if not args.no_metrics:
        REGISTRY.disable().reset()
    return 0


def cmd_datasets(args) -> int:
    from repro.experiments import table2

    print(table2.render(table2.run(args.seed)))
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments import runner

    argv: List[str] = ["--seed", str(args.seed)]
    if args.quick:
        argv.append("--quick")
    return runner.main(argv)


def cmd_trace(args) -> int:
    if args.action == "requests":
        import json

        analysis = analyze_requests(args.path)
        if args.json:
            print(json.dumps(analysis, indent=2))
        else:
            print(render_request_table(analysis))
        # Schema/monotonicity violations are the CI gate: non-zero exit.
        return 1 if analysis["errors"] else 0
    if args.action == "validate":
        errors = validate_trace(args.path)
        if errors:
            for problem in errors:
                print(problem, file=sys.stderr)
            print(f"{args.path}: INVALID ({len(errors)} problem(s))", file=sys.stderr)
            return 1
        print(f"{args.path}: valid trace")
        return 0
    if args.action == "export":
        output = args.output or (args.path + ".chrome.json")
        count = write_chrome_trace(read_trace(args.path), output)
        print(
            f"wrote {count} trace events to {output} "
            "(open in chrome://tracing or https://ui.perfetto.dev)"
        )
        return 0
    print(summarize(args.path))
    return 0


def cmd_metrics(args) -> int:
    import json

    with open(args.path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if args.format == "json":
        print(json.dumps(snapshot, indent=2))
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def cmd_bench(args) -> int:
    suites = list(bench_gate.SUITES) if args.suite == "all" else [args.suite]
    try:
        result = bench_gate.run_gate(suites, args.quick, args.update_baselines)
    except bench_gate.BenchGateError as exc:
        print(f"bench check: {exc}", file=sys.stderr)
        return 2
    for failure in result["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    if result["failures"]:
        unsaved = "; those suites were not recorded" if args.update_baselines else ""
        print(
            f"\nbench check: {len(result['failures'])} failure(s){unsaved}",
            file=sys.stderr,
        )
        return 1
    if args.update_baselines:
        return 0
    print("\nbench check: every exact count matches and every ratio is in bounds")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handler = {
        "query": cmd_query,
        "stream": cmd_stream,
        "serve": cmd_serve,
        "datasets": cmd_datasets,
        "experiments": cmd_experiments,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
        "bench": cmd_bench,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
