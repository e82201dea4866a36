"""Benchmark: sustained throughput of the HTTP analysis daemon.

Learns a small specification once, stores it, starts the daemon with warm
worker processes, and fires a concurrent seeded load at ``POST /analyze``.
Asserts the two properties the daemon exists for: every response is
bit-identical to in-process ``handle_request``, and the specification was
compiled once per worker, never once per request.

Set ``REPRO_BENCH_OUT=BENCH.json`` to freeze the run as a schema-versioned
bench artifact (``repro.bench.serve/1``) -- the same record
``repro bench-serve --out`` writes; the nightly workflow uploads one.
"""

import os

from conftest import emit

from repro.engine import InferenceEngine
from repro.learn import AtlasConfig
from repro.library.registry import build_interface, build_library_program
from repro.server import ShardedAnalysisServer
from repro.server.bench import (
    bench_artifact,
    fetch_json,
    run_load,
    verify_against_inprocess,
    write_bench_artifact,
)
from repro.service import AnalyzeRequest, SpecStore, SuiteSpec

TOTAL_REQUESTS = 24
CLIENTS = 6
WORKERS = 2
REQUEST = AnalyzeRequest(suite=SuiteSpec(count=3, max_statements=50))


def test_bench_server_throughput(benchmark, tmp_path_factory):
    library = build_library_program()
    interface = build_interface(library)
    config = AtlasConfig(clusters=[("Box",)], seed=7, enumeration_budget=2_000)
    result = InferenceEngine().run(config, library_program=library, interface=interface)
    store = SpecStore(str(tmp_path_factory.mktemp("server-bench")))
    store.put(result, library_program=library)

    server = ShardedAnalysisServer(store, port=0, processes=WORKERS, library_program=library)
    with server:

        def load_run():
            return run_load(
                server.url, REQUEST, total_requests=TOTAL_REQUESTS, clients=CLIENTS
            )

        load = benchmark.pedantic(load_run, rounds=1, iterations=1)
        assert load.ok == TOTAL_REQUESTS
        ok, detail = verify_against_inprocess(
            load, store, REQUEST, library_program=library, interface=interface
        )
        assert ok, detail

        metrics = fetch_json(server.url, "/metrics")
        assert metrics["specs"]["compilations"] == WORKERS, "specs recompiled per request"

        out = os.environ.get("REPRO_BENCH_OUT")
        if out:
            artifact = bench_artifact(
                load,
                REQUEST,
                metrics_snapshot=metrics,
                meta={"source": "benchmarks/test_bench_server.py", "clients": CLIENTS},
            )
            write_bench_artifact(out, artifact)

    emit(
        "Server: sustained /analyze throughput (warm worker processes)",
        "\n".join(
            [
                f"requests:                 {load.ok}/{TOTAL_REQUESTS} ok "
                f"({CLIENTS} client threads, {WORKERS} worker processes)",
                f"throughput:               {load.throughput_rps:.1f} req/s "
                f"({load.ok * REQUEST.suite.count / load.elapsed_seconds:.1f} programs/s)",
                f"latency p50/p90/p99:      {load.latency_percentile(50):.3f}s / "
                f"{load.latency_percentile(90):.3f}s / {load.latency_percentile(99):.3f}s",
                f"spec compilations:        {metrics['specs']['compilations']} "
                f"(one per worker, {load.ok} requests served)",
                "responses:                bit-identical to in-process handle_request",
            ]
        ),
    )
