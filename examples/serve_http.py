"""Serve taint analyses over HTTP from warm worker processes, end to end.

The full daemon path of ``repro.server``: learn points-to specifications
*once* into a versioned ``SpecStore`` (a re-run reuses the stored result),
start the HTTP analysis daemon on an ephemeral port, fire a concurrent load
at ``POST /analyze`` from client threads, and verify every response is
bit-identical to running the same request in-process -- then read the
``/metrics`` proof that each warm worker compiled the specification exactly
once, no matter how many requests it served.

Run with::

    python examples/serve_http.py                         # 50 requests, 8 clients
    python examples/serve_http.py --requests 100 --clients 16 --processes 4
    python examples/serve_http.py --store .repro-specs --cache-dir .repro-cache
    python examples/serve_http.py --requests 20 --budget 4000 \
        --cluster Box --cluster ArrayList,Iterator         # small smoke
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import apply_atlas_overrides
from repro.engine import InferenceEngine, StreamSink, program_fingerprint
from repro.experiments.config import QUICK_CONFIG
from repro.library.registry import build_interface, build_library_program
from repro.obs.trace import ambient_sink
from repro.server import ShardedAnalysisServer
from repro.server.bench import fetch_json, run_load, verify_against_inprocess
from repro.service import AnalyzeRequest, SpecStore, SuiteSpec, config_digest


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", default=".repro-specs", help="SpecStore directory")
    parser.add_argument("--cache-dir", default=None, help="oracle cache for the learn step")
    parser.add_argument("--requests", type=int, default=50, help="total requests to fire")
    parser.add_argument("--clients", type=int, default=8, help="concurrent client threads")
    parser.add_argument("--processes", type=int, default=2, help="daemon worker processes")
    parser.add_argument("--queue-depth", type=int, default=16, help="bounded request queue")
    parser.add_argument("--count", type=int, default=5, help="programs per request's suite")
    parser.add_argument("--seed", type=int, default=2018, help="corpus generation seed")
    parser.add_argument("--max-statements", type=int, default=60)
    parser.add_argument(
        "--cluster",
        action="append",
        default=None,
        metavar="A,B,...",
        help="restrict learning to these clusters (repeatable; default: quick preset)",
    )
    parser.add_argument("--budget", type=int, default=None, help="enumeration budget override")
    parser.add_argument(
        "--skip-verify",
        action="store_true",
        help="skip verifying responses against in-process analysis",
    )
    return parser.parse_args(argv)


def learn_once(store: SpecStore, args, library, interface) -> str:
    """Return the spec id for this (library, config) key, learning only if needed."""
    config = apply_atlas_overrides(
        QUICK_CONFIG.atlas, clusters=args.cluster, budget=args.budget
    )
    record = store.latest(
        fingerprint=program_fingerprint(library), config_digest=config_digest(config)
    )
    if record is not None:
        print(f"reusing stored specification {record.spec_id} (no inference needed)")
        return record.spec_id
    print("no stored specification for this library/config -- learning once ...")
    engine = InferenceEngine(cache_dir=args.cache_dir)
    with ambient_sink(StreamSink(sys.stderr)):
        result = engine.run(config, library_program=library, interface=interface)
    record = store.put(result, library_program=library)
    print(f"stored {record.spec_id}: {record.fsa_states} states")
    return record.spec_id


def main(argv=None) -> int:
    args = parse_args(argv)
    library = build_library_program()
    interface = build_interface(library)
    store = SpecStore(args.store)
    spec_id = learn_once(store, args, library, interface)

    # pinned explicitly: in a shared store, latest-by-fingerprint may be a
    # different config's spec than the one learn_once just resolved
    request = AnalyzeRequest(
        suite=SuiteSpec(count=args.count, seed=args.seed, max_statements=args.max_statements),
        spec_id=spec_id,
    )
    server = ShardedAnalysisServer(
        store,
        port=0,  # ephemeral: the demo never collides with a real daemon
        processes=args.processes,
        queue_depth=args.queue_depth,
        library_program=library,
    )
    with server:
        print(
            f"\ndaemon up at {server.url} "
            f"({args.processes} worker processes, queue depth {args.queue_depth}); "
            f"firing {args.requests} requests from {args.clients} client threads ..."
        )
        result = run_load(
            server.url, request, total_requests=args.requests, clients=args.clients
        )
        print(result.summary())

        metrics = fetch_json(server.url, "/metrics")
        specs = metrics["specs"]
        print(
            f"warm-path proof: {metrics['requests']['total']} requests served with "
            f"{specs['compilations']} spec compilations "
            f"({', '.join(f'{w}={n}' for w, n in specs['compilations_by_worker'].items())})"
        )
        # each worker compiles the store's latest at startup; if the pinned
        # spec is a different (older) one, serving it costs one more per worker
        latest = store.latest(fingerprint=program_fingerprint(library)).spec_id
        max_expected = args.processes * (1 if spec_id == latest else 2)
        if specs["compilations"] > max_expected:
            print(
                f"FAILED: {specs['compilations']} compilations for {args.processes} workers "
                f"(expected at most {max_expected} — specs must compile per worker, not per request)",
                file=sys.stderr,
            )
            return 1
        if result.ok != args.requests:
            print("FAILED: not every request succeeded", file=sys.stderr)
            return 1

        if not args.skip_verify:
            ok, detail = verify_against_inprocess(
                result, store, request, library_program=library, interface=interface
            )
            print(f"verification: {detail}")
            if not ok:
                return 1
    print("daemon shut down cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
