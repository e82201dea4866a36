"""Serve information-flow analyses from stored specifications.

The full serving path of ``repro.service``: learn points-to specifications
*once* into a versioned :class:`SpecStore` (a re-run finds the stored result
and skips inference entirely), then fan a generated corpus of client
programs across worker processes, streaming per-request latency from the
trace spans and checking that the parallel flow reports are bit-identical to a
serial run.

Run with::

    python examples/serve_flows.py                        # 20 programs, 4 workers
    python examples/serve_flows.py --programs 40 --workers 8
    python examples/serve_flows.py --store .repro-specs --cache-dir .repro-cache
    python examples/serve_flows.py --programs 3 --workers 2 --budget 4000 \
        --cluster Box --cluster ArrayList,Iterator         # small smoke
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cli import apply_atlas_overrides
from repro.engine import InferenceEngine, StreamSink, program_fingerprint
from repro.experiments.config import QUICK_CONFIG
from repro.library.registry import build_interface, build_library_program
from repro.obs.trace import ambient_sink
from repro.service import (
    AnalyzeRequest,
    SpecStore,
    SuiteSpec,
    config_digest,
    handle_request,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", default=".repro-specs", help="SpecStore directory")
    parser.add_argument("--cache-dir", default=None, help="oracle cache for the learn step")
    parser.add_argument("--programs", type=int, default=20, help="corpus size")
    parser.add_argument("--workers", type=int, default=4, help="analysis worker processes")
    parser.add_argument("--seed", type=int, default=2018, help="corpus generation seed")
    parser.add_argument("--max-statements", type=int, default=120)
    parser.add_argument(
        "--cluster",
        action="append",
        default=None,
        metavar="A,B,...",
        help="restrict learning to these clusters (repeatable; default: quick preset)",
    )
    parser.add_argument("--budget", type=int, default=None, help="enumeration budget override")
    parser.add_argument(
        "--skip-serial-check",
        action="store_true",
        help="skip re-running serially to verify bit-identical reports",
    )
    return parser.parse_args(argv)


def learn_once(store: SpecStore, args, library, interface) -> str:
    """Return the spec id for this (library, config) key, learning only if needed."""
    # the same helper the repro CLI uses, so identical flags produce an
    # identical config digest (and therefore hit the same stored spec)
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
    print(
        f"stored {record.spec_id}: {record.fsa_states} states, "
        f"{record.fsa_transitions} transitions, {record.num_positives} positives"
    )
    return record.spec_id


def main(argv=None) -> int:
    args = parse_args(argv)
    library = build_library_program()
    interface = build_interface(library)
    store = SpecStore(args.store)

    spec_id = learn_once(store, args, library, interface)

    suite = SuiteSpec(count=args.programs, seed=args.seed, max_statements=args.max_statements)
    request = AnalyzeRequest(suite=suite, spec_id=spec_id, workers=args.workers)
    print(
        f"\nanalyzing {args.programs} generated programs with workers={args.workers} "
        f"(per-request latency streams below) ..."
    )
    # process-global, so the forked analysis workers print their lines too
    with ambient_sink(StreamSink(sys.stderr)):
        response = handle_request(
            request, store, library_program=library, interface=interface
        )
    batch = response.result

    print(f"\n{'program':>8}  {'flows':>5}  {'latency':>9}")
    for report in batch.reports:
        print(f"{report.program:>8}  {report.num_flows:>5}  {report.timing.total_seconds:>8.3f}s")
    print(
        f"batch: {len(batch.reports)} programs, {batch.total_flows} flows, "
        f"{batch.elapsed_seconds:.2f}s wall ({batch.executor}, workers={batch.workers})"
    )

    if not args.skip_serial_check:
        serial = handle_request(
            dataclasses.replace(request, workers=0),
            store,
            library_program=library,
            interface=interface,
        ).result
        if serial.canonical() != batch.canonical():
            print("FAILED: parallel flow reports differ from serial execution", file=sys.stderr)
            return 1
        speedup = serial.elapsed_seconds / batch.elapsed_seconds if batch.elapsed_seconds else 0.0
        print(
            f"serial check: reports bit-identical "
            f"(serial {serial.elapsed_seconds:.2f}s, parallel {batch.elapsed_seconds:.2f}s, "
            f"{speedup:.1f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
