"""The ``repro`` command: the installable entry point of the whole system.

Subcommands cover the serving path end to end, plus the evaluation driver::

    repro learn --store .repro-specs [--cache-dir .repro-cache --workers 4]
    repro analyze --store .repro-specs --count 20 --workers 4
    repro serve-batch --store .repro-specs --request request.json
    repro serve --store .repro-specs --port 8080 --processes 4
    repro bench-serve --url http://127.0.0.1:8080 --requests 50 --clients 8
    repro bench-serve --url http://127.0.0.1:8080 --mode open --rate 8 --requests 80
    repro fuzz --budget 200 --seed 7 --workers 4 [--shrink]
    repro fuzz --families taint-app --repair      # closed loop: fuzz -> repair -> re-fuzz
    repro repair --report fuzz-report.json --store .repro-specs --verify
    repro plane seed --store .repro-specs --pipeline ground_truth
    repro plane run --store .repro-specs --once [--golden-dir tests/golden]
    repro plane status --store .repro-specs
    repro plane promote|rollback --store .repro-specs --spec <id>
    repro corpus list|verify|replay [--dir tests/golden]
    repro obs tail|summary|trace <id> --journal telemetry.jsonl
    repro experiments fig9a --preset quick        # -> repro.experiments.runner
    repro compact-cache --cache-dir .repro-cache

``learn`` runs Atlas inference (through the execution engine, so the oracle
cache and worker knobs apply) and stores the result as the next version in a
:class:`~repro.service.store.SpecStore`.  ``analyze`` and ``serve-batch``
answer batch taint queries against stored specifications -- ``analyze``
builds the request from flags, ``serve-batch`` reads an
:class:`~repro.service.api.AnalyzeRequest` JSON document (``-`` for stdin).
``serve`` runs the long-running HTTP daemon (:mod:`repro.server`):
``--processes N`` pre-forked workers that compile the stored spec once at
startup, behind an asyncio front door with admission control, request
coalescing, a bounded queue with 503 backpressure, and hot reload of newly
stored specs.
``bench-serve`` load-tests a running daemon and verifies its responses
bit-identical to in-process handling -- ``--mode open`` schedules arrivals
at a fixed ``--rate`` with latency anchored at the intended send time, so
server backlog is never hidden (no coordinated omission).  ``fuzz`` runs a differential fuzzing campaign
(:mod:`repro.diff`): seeded scenario programs checked concrete-vs-static,
divergences shrunk to minimal counterexamples, golden corpus written under
``tests/golden/``.  ``repair`` (and the one-command ``fuzz --repair`` closed
loop) turns those divergences into a repaired specification version
(:mod:`repro.repair`) that a running daemon hot-reloads; ``corpus``
inspects, digest-verifies, and replays golden-corpus entries.  ``plane``
(:mod:`repro.plane`) runs that repair loop *supervised*: each ``run`` cycle
fuzzes the served spec, publishes any repair as an unserved *candidate*,
canaries it (golden-corpus replay plus shadowed traffic), and only promotes
on zero regressions -- rolling back automatically otherwise.  ``status``
prints the store's version states and serving lineage; ``promote`` /
``rollback`` are the operator overrides; ``seed`` bootstraps a store from a
named (deliberately gapped) specification set.

Every subcommand accepts ``--journal PATH`` (default: the ``REPRO_JOURNAL``
environment variable) to tee its telemetry -- engine events plus the trace
spans of :mod:`repro.obs` -- into a durable JSONL journal, and each run is
wrapped in a root ``cli.<command>`` span so one command is one trace.
``--progress`` prints the same telemetry as lines on stderr: both are
ambient sinks (:func:`repro.obs.trace.emit` is the one route), installed
once for the whole command.
``repro obs`` reads those journals back: ``tail`` prints (and optionally
follows) the newest entries, ``summary`` aggregates event counts and span
latencies, and ``trace <id>`` draws one trace's span tree with its critical
path marked.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.engine import InferenceEngine, StreamSink
from repro.engine.cache import compact_cache_file
from repro.obs import trace as _trace


def _journal_path(args) -> Optional[str]:
    """The journal to write (or, for ``obs``, read): flag, then environment."""
    return getattr(args, "journal", None) or os.environ.get("REPRO_JOURNAL") or None


def apply_atlas_overrides(config, clusters=None, budget=None, seed=None):
    """Overlay CLI-style knobs onto an :class:`AtlasConfig`.

    *clusters* is a list of comma-separated class lists (one string per
    cluster).  Shared by ``repro learn`` and ``examples/serve_flows.py`` so
    both derive identical configs -- and therefore identical store keys --
    from identical flags.
    """
    overrides = {}
    if clusters:
        overrides["clusters"] = tuple(
            tuple(name.strip() for name in cluster.split(",") if name.strip())
            for cluster in clusters
        )
    if budget is not None:
        overrides["enumeration_budget"] = budget
    if seed is not None:
        overrides["seed"] = seed
    return dataclasses.replace(config, **overrides) if overrides else config


def _atlas_config(args):
    from repro.experiments.config import FULL_CONFIG, QUICK_CONFIG

    config = (FULL_CONFIG if args.preset == "full" else QUICK_CONFIG).atlas
    return apply_atlas_overrides(
        config, clusters=args.cluster, budget=args.budget, seed=args.seed
    )


# ------------------------------------------------------------------ subcommands
def cmd_learn(args) -> int:
    from repro.library.registry import build_interface, build_library_program
    from repro.service.store import SpecStore

    library = build_library_program()
    interface = build_interface(library)
    engine = InferenceEngine(cache_dir=args.cache_dir, workers=args.workers)
    result = engine.run(_atlas_config(args), library_program=library, interface=interface)
    record = SpecStore(args.store).put(result, library_program=library)
    print(json.dumps(record.to_dict(), sort_keys=True, indent=1))
    return 0


def cmd_analyze(args) -> int:
    from repro.service.api import AnalyzeRequest, SuiteSpec, handle_request
    from repro.service.store import SpecStore

    request = AnalyzeRequest(
        suite=SuiteSpec(
            count=args.count,
            seed=args.seed,
            max_statements=args.max_statements,
            min_statements=args.min_statements,
        ),
        spec_id=args.spec,
        workers=args.workers,
        apps=tuple(args.apps.split(",")) if args.apps else (),
        include_timing=not args.no_timing,
    )
    response = handle_request(
        request, SpecStore(args.store), analysis_cache_dir=args.analysis_cache
    )
    _write_json(response.to_dict(), args.out)
    result = response.result
    sys.stderr.write(
        f"analyzed {len(result.reports)} programs in {result.elapsed_seconds:.2f}s "
        f"({result.executor}, workers={result.workers}): {result.total_flows} flows\n"
    )
    return 0


def cmd_serve_batch(args) -> int:
    from repro.service.api import AnalyzeRequest, handle_request
    from repro.service.store import SpecStore

    if args.request == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.request, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    request = AnalyzeRequest.from_dict(data)
    response = handle_request(request, SpecStore(args.store))
    _write_json(response.to_dict(), args.out)
    return 0


def cmd_serve(args) -> int:
    import signal

    from repro.server import ShardedAnalysisServer
    from repro.service.store import SpecStore

    server = ShardedAnalysisServer(
        SpecStore(args.store),
        host=args.host,
        port=args.port,
        processes=args.processes,
        queue_depth=args.queue_depth,
        poll_interval=args.poll_interval,
        admission_limit=args.admission_limit,
        analysis_cache_dir=args.analysis_cache,
    )
    server.start()
    host, port = server.address
    sys.stderr.write(
        f"[serve] listening on http://{host}:{port} "
        f"(spec {server.pool.current_spec_id}, {server.pool.processes} worker processes, "
        f"queue depth {server.pool.queue_capacity})\n"
    )
    journal = _journal_path(args)
    if journal:
        sys.stderr.write(f"[serve] journaling telemetry to {journal}\n")
    sys.stderr.flush()

    # SIGTERM (CI, orchestrators) and SIGINT (^C) both exit cleanly
    signal.signal(signal.SIGTERM, lambda *_: server.close())
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    sys.stderr.write("[serve] shut down cleanly\n")
    return 0


def cmd_bench_serve(args) -> int:
    from repro.server.bench import (
        fetch_json,
        run_load,
        run_open_load,
        verify_against_inprocess,
    )
    from repro.service.api import AnalyzeRequest, SuiteSpec
    from repro.service.store import SpecStore

    health = fetch_json(args.url, "/healthz")
    sys.stderr.write(
        f"[bench] daemon at {args.url} healthy (spec {health.get('spec_id')}, "
        f"{health.get('workers')} workers)\n"
    )
    # pin the spec the daemon is serving right now: an unpinned request would
    # make a mid-bench hot reload look like a verification mismatch
    request = AnalyzeRequest(
        suite=SuiteSpec(
            count=args.count,
            seed=args.seed,
            max_statements=args.max_statements,
            min_statements=args.min_statements,
        ),
        spec_id=args.spec if args.spec else health.get("spec_id"),
        workers=args.workers,
    )
    if args.mode == "open":
        result = run_open_load(
            args.url,
            request,
            total_requests=args.requests,
            rate_rps=args.rate,
            distinct_seeds=args.distinct_seeds,
        )
    else:
        result = run_load(args.url, request, total_requests=args.requests, clients=args.clients)
    print(result.summary())

    metrics = fetch_json(args.url, "/metrics")
    specs = metrics.get("specs", {})
    print(
        f"server metrics: {metrics.get('requests', {}).get('total')} requests served, "
        f"{specs.get('compilations')} spec compilations "
        f"across {len(specs.get('compilations_by_worker', {}))} workers, "
        f"{specs.get('hot_reloads')} hot reloads"
    )

    failed = result.ok != args.requests
    if args.store and not args.no_verify:
        if args.mode == "open" and args.distinct_seeds:
            print("verification: skipped (distinct seeds name a different corpus per request)")
        else:
            ok, detail = verify_against_inprocess(result, SpecStore(args.store), request)
            print(f"verification: {detail}")
            failed = failed or not ok
    if args.out:
        from repro.server.bench import bench_artifact, write_bench_artifact

        meta = {
            "url": args.url,
            "spec_id": request.spec_id,
            "cpu_count": os.cpu_count(),
            "server": {
                "workers": health.get("workers"),
                "processes": health.get("processes", 0),
            },
        }
        artifact = bench_artifact(result, request, metrics_snapshot=metrics, meta=meta)
        write_bench_artifact(args.out, artifact)
        sys.stderr.write(f"[bench] wrote {args.out}\n")
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    from repro.diff import FuzzConfig, run_fuzz, run_guided_fuzz
    from repro.diff.families import DEFAULT_FAMILIES

    families = (
        tuple(name.strip() for name in args.families.split(",") if name.strip())
        if args.families
        else DEFAULT_FAMILIES
    )
    config = FuzzConfig(
        families=families,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        pipeline="store" if args.store else args.pipeline,
        cross_check=not args.no_cross_check,
        engine_check=args.engine_check,
        shrink=not args.no_shrink,
        sample=args.sample,
        guided=args.guided,
    )
    store = None
    if args.store:
        from repro.service.store import SpecStore

        store = SpecStore(args.store)
    if args.guided:
        report = run_guided_fuzz(
            config,
            store=store,
            spec_id=args.spec,
            golden_out=None if args.no_golden else args.golden_out,
            seed_corpus=args.seed_corpus,
        )
    else:
        report = run_fuzz(
            config,
            store=store,
            spec_id=args.spec,
            golden_out=None if args.no_golden else args.golden_out,
        )
    payload = report.to_dict(include_timing=not args.no_timing)
    _write_json(payload, args.out)
    summary = payload["summary"]
    sys.stderr.write(
        f"fuzzed {summary['programs']} programs "
        f"({', '.join(summary['families_covered'])}) in {report.elapsed_seconds:.2f}s "
        f"({report.executor}, workers={config.workers}): "
        f"{summary['concrete_flows']} concrete flows, "
        f"{summary['diverged']} diverged ({summary['shrunk']} shrunk), "
        f"{summary['spurious_flows']} spurious (imprecision, not unsoundness), "
        f"{summary['golden_entries']} golden entries"
        + (
            f"; coverage {summary['coverage_keys']} keys, "
            f"corpus {report.corpus_stats['programs']} programs"
            if args.guided and report.coverage is not None
            else ""
        )
        + (f" -> {report.corpus_path}" if report.corpus_path else "")
        + "\n"
    )
    if args.repair:
        return _run_repair_loop(args, report)
    # exit 0: clean; 2: divergences found (every one shrunk, or shrinking
    # explicitly disabled); 1: shrinking was requested but left divergences
    # unminimized -- the campaign itself failed
    if report.unshrunk and config.shrink:
        return 1
    return 2 if report.diverged else 0


def _run_repair_loop(args, report) -> int:
    """The ``fuzz --repair`` closed loop: repair divergences, re-fuzz, report."""
    from repro.repair import RepairEngine
    from repro.repair.engine import RepairConfig
    from repro.service.store import SpecStore

    from repro.repair.engine import REPAIRABLE_PIPELINES

    if not report.diverged:
        sys.stderr.write("repair: campaign is clean, nothing to repair\n")
        return 0
    if report.config.pipeline not in REPAIRABLE_PIPELINES:
        sys.stderr.write(
            f"repair: pipeline {report.config.pipeline!r} has no specification set to repair "
            f"(repairable: {', '.join(REPAIRABLE_PIPELINES)})\n"
        )
        return 1
    repair_store = args.repair_store or args.store or ".repro-specs"
    engine = RepairEngine(
        store=SpecStore(repair_store),
        cache_dir=args.cache_dir,
        config=RepairConfig(seed=args.seed, workers=args.workers),
    )
    outcome = engine.repair(report, spec_id=args.spec, verify=True)
    return _summarize_repair(outcome, repair_store)


def _summarize_repair(outcome, store_root: str) -> int:
    summary = outcome.to_dict()["summary"]
    line = (
        f"repaired {summary['repaired']}/{summary['divergences']} divergences "
        f"({summary['clusters_relearned']} clusters relearned, "
        f"{summary['oracle_executions']} witnesses executed, "
        f"{summary['oracle_cache_hits']} cache hits, {outcome.executor})"
    )
    if outcome.record is not None:
        line += f" -> {outcome.record.spec_id} (v{outcome.record.version}) in {store_root}"
    if outcome.verification is not None:
        remaining = len(outcome.verification.diverged)
        line += (
            f"; re-fuzz over {outcome.verification.programs} programs: "
            f"{remaining} divergences"
        )
    sys.stderr.write(line + "\n")
    for divergence in outcome.plan.unrepairable:
        sys.stderr.write(
            f"repair: NOT repairable: {divergence.program} {divergence.signature}: "
            f"{divergence.reason}\n"
        )
    if outcome.plan.divergences and outcome.record is None:
        # covers both "no candidate words" and "the oracle refuted every
        # candidate": divergences exist but no repaired version was published
        return 1
    if outcome.verification is not None and outcome.verification.diverged:
        return 1
    if outcome.plan.unrepairable:
        return 1
    return 0


def cmd_repair(args) -> int:
    from repro.repair import RepairEngine
    from repro.repair.engine import REPAIRABLE_PIPELINES, RepairConfig
    from repro.service.store import SpecStore

    if args.report == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.report, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    if data.get("pipeline") not in REPAIRABLE_PIPELINES:
        sys.stderr.write(
            f"repair: pipeline {data.get('pipeline')!r} has no specification set to repair "
            f"(repairable: {', '.join(REPAIRABLE_PIPELINES)})\n"
        )
        return 1
    engine = RepairEngine(
        store=SpecStore(args.store),
        cache_dir=args.cache_dir,
        config=RepairConfig(seed=args.seed, workers=args.workers),
    )
    outcome = engine.repair(data, spec_id=args.spec, verify=args.verify)
    _write_json(outcome.to_dict(include_timing=not args.no_timing), args.out)
    if outcome.no_op and not outcome.plan.divergences:
        sys.stderr.write("repair: report is clean, nothing to repair\n")
        return 0
    return _summarize_repair(outcome, args.store)


def cmd_corpus(args) -> int:
    import os

    from repro.diff.corpus import corpus_files, load_corpus
    from repro.lang.serialize import program_digest, program_from_dict, program_to_dict

    directory = args.dir
    paths = corpus_files(directory)
    if not paths:
        sys.stderr.write(f"corpus: no corpus files under {directory}\n")
        return 1

    if args.action == "list":
        for path in paths:
            print(os.path.basename(path))
            for entry in load_corpus(path):
                digest = program_digest(entry.program)
                print(
                    f"  {entry.name:<24} {entry.kind:<15} {entry.family:<18} "
                    f"seed={entry.seed:<10} statements={entry.program.statement_count():<4} "
                    f"digest={digest[:12]}"
                )
        return 0

    if args.action == "verify":
        problems = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            for raw_entry in raw["entries"]:
                name = raw_entry["name"]
                # the stored encoding must be the canonical one: decoding and
                # re-encoding with repro.lang.serialize is the identity
                reencoded = program_to_dict(program_from_dict(raw_entry["program"]))
                if reencoded != raw_entry["program"]:
                    problems.append(f"{os.path.basename(path)}: {name}: non-canonical program encoding")
                    continue
                digest = program_digest(program_from_dict(raw_entry["program"]))
                print(f"{name}: ok ({digest[:12]})")
        for problem in problems:
            sys.stderr.write(f"corpus: {problem}\n")
        return 1 if problems else 0

    # replay one entry by id
    from repro.diff.checker import DifferentialChecker, build_pipeline_analyzer
    from repro.library.registry import build_interface, build_library_program

    if not args.id:
        sys.stderr.write("corpus: replay needs --id <entry name> (see `repro corpus list`)\n")
        return 1
    wanted = None
    for path in paths:
        for entry in load_corpus(path):
            if entry.name == args.id:
                wanted = entry
                break
    if wanted is None:
        sys.stderr.write(f"corpus: no entry named {args.id!r} under {directory}\n")
        return 1
    unsupported = set(wanted.flows) - {"ground_truth", "handwritten", "implementation"}
    if unsupported:
        sys.stderr.write(
            f"corpus: cannot rebuild pipelines {sorted(unsupported)} without a store\n"
        )
        return 1
    library = build_library_program()
    interface = build_interface(library)
    checker = DifferentialChecker(
        {
            pipeline: build_pipeline_analyzer(
                pipeline, library_program=library, interface=interface
            )
            for pipeline in wanted.flows
        },
        library_program=library,
    )
    verdict = checker.check_program(
        wanted.program, wanted.name, family=wanted.family, seed=wanted.seed
    )
    payload = verdict.canonical()
    payload["expected_signatures"] = list(wanted.divergence_signatures)
    _write_json(payload, args.out)
    drifted = (
        verdict.concrete != wanted.concrete_flows
        or any(verdict.flows[p] != flows for p, flows in wanted.flows.items())
        or verdict.signatures() != wanted.divergence_signatures
    )
    sys.stderr.write(
        f"replayed {wanted.name}: {len(verdict.concrete)} concrete flows, "
        f"signatures {list(verdict.signatures())} "
        f"({'DRIFTED from the frozen verdict' if drifted else 'matches the frozen verdict'})\n"
    )
    return 1 if drifted else 0


def _require_journal(args) -> Optional[str]:
    """Resolve the journal an ``obs`` command reads; ``None`` prints why."""
    path = _journal_path(args)
    if not path:
        sys.stderr.write("obs: no journal given (--journal PATH or $REPRO_JOURNAL)\n")
        return None
    if not os.path.exists(path):
        sys.stderr.write(f"obs: no journal at {path}\n")
        return None
    return path


def _format_entry(entry) -> str:
    """One journal entry as one ``tail`` line: time, trace prefix, payload."""
    import time as _time

    clock = _time.strftime("%H:%M:%S", _time.localtime(entry.ts))
    clock += f".{int(entry.ts % 1 * 1000):03d}"
    trace = (entry.trace_id or "-")[:8]
    if entry.is_span:
        attrs = " ".join(f"{k}={v}" for k, v in (entry.data.get("attrs") or []))
        detail = (
            f"span {entry.data.get('name', '?')} "
            f"{float(entry.data.get('elapsed_seconds', 0.0)):.4f}s"
        )
        return f"{clock} {trace} {detail}" + (f"  [{attrs}]" if attrs else "")
    pairs = " ".join(
        f"{key}={value}"
        for key, value in entry.data.items()
        if not isinstance(value, (dict, list)) or not value
    )
    return f"{clock} {trace} {entry.event}" + (f"  {pairs}" if pairs else "")


def cmd_obs_tail(args) -> int:
    from repro.obs import parse_journal_line, read_journal

    path = _require_journal(args)
    if path is None:
        return 1
    entries = read_journal(path)
    for entry in entries[-args.lines :] if args.lines > 0 else entries:
        print(_format_entry(entry))
    if not args.follow:
        return 0
    import time as _time

    # follow mode: poll for appended lines (the journal is append-only, so a
    # plain readline loop over the kept-open handle sees every new entry)
    with open(path, "rb") as handle:  # bytes: a line that is not UTF-8 is skipped, not fatal
        handle.seek(0, os.SEEK_END)
        try:
            while True:
                line = handle.readline()
                if not line:
                    _time.sleep(args.interval)
                    continue
                entry = parse_journal_line(line)
                if entry is not None:
                    print(_format_entry(entry), flush=True)
        except KeyboardInterrupt:
            return 0


def cmd_obs_summary(args) -> int:
    from repro.obs import read_journal, render_summary, summarize

    path = _require_journal(args)
    if path is None:
        return 1
    summary = summarize(read_journal(path))
    if args.json:
        _write_json(summary, None)
    else:
        print(render_summary(summary))
    return 0


def cmd_obs_trace(args) -> int:
    from repro.obs import build_trace, read_journal, render_trace, trace_ids

    path = _require_journal(args)
    if path is None:
        return 1
    entries = read_journal(path)

    def list_traces() -> None:
        for trace_id, count in trace_ids(entries):
            sys.stderr.write(f"  {trace_id} ({count} spans)\n")

    if not args.id:
        sys.stderr.write("obs: trace needs an id (traces in this journal:)\n")
        list_traces()
        return 1
    try:
        trace = build_trace(entries, args.id)
    except ValueError as error:
        sys.stderr.write(f"obs: {error}\n")
        list_traces()
        return 1
    print(render_trace(trace))
    return 0


def cmd_plane_run(args) -> int:
    from repro.plane import ALL_FAMILIES, CLEAN, PROMOTED, ControlPlane, PlaneConfig
    from repro.service.store import SpecStore

    families = (
        tuple(name.strip() for name in args.families.split(",") if name.strip())
        if args.families
        else ALL_FAMILIES
    )
    config = PlaneConfig(
        families=families,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        shrink=not args.no_shrink,
        shadow_fraction=args.shadow_fraction,
        shadow_requests=args.shadow_requests,
        shadow_programs=args.shadow_programs,
        golden_dir=args.golden_dir,
        cache_dir=args.cache_dir,
        guided_every=args.guided_every,
    )
    plane = ControlPlane(SpecStore(args.store), config=config)
    cycles = 1 if args.once else args.cycles
    outcomes = plane.run(cycles, interval_seconds=args.interval)
    payload = {
        "format": "repro.plane.run/1",
        "store": args.store,
        "cycles": [outcome.to_dict() for outcome in outcomes],
    }
    _write_json(payload, args.out)
    converged = True
    for outcome in outcomes:
        line = f"plane: cycle {outcome.cycle}: {outcome.status}"
        if outcome.candidate:
            line += f" candidate={outcome.candidate}"
        if outcome.lineage:
            line += f" serving={outcome.lineage[0]} depth={len(outcome.lineage)}"
        sys.stderr.write(line + "\n")
        converged = converged and outcome.status in (CLEAN, PROMOTED)
    return 0 if converged else 1


def cmd_plane_status(args) -> int:
    from repro.service.store import SpecStore

    store = SpecStore(args.store)
    states = store.states()
    active = store.latest()
    lineage = (
        [record.spec_id for record in store.lineage(active.spec_id)] if active else []
    )
    payload = {
        "format": "repro.plane.status/1",
        "store": args.store,
        "active_spec_id": active.spec_id if active else None,
        "active_version": active.version if active else None,
        "lineage": lineage,
        "lineage_depth": max(0, len(lineage) - 1),
        "specs": [
            {
                "spec_id": record.spec_id,
                "version": record.version,
                "state": states.get(record.spec_id),
                "parent": record.parent,
                "created_at": record.created_at,
            }
            for record in store.list()
        ],
        "transitions": store.transitions(),
    }
    _write_json(payload, args.out)
    return 0


def cmd_plane_promote(args) -> int:
    from repro.plane import PromotionError, SpecLifecycle
    from repro.service.store import SpecStore, SpecStoreError

    lifecycle = SpecLifecycle(SpecStore(args.store))
    try:
        record = lifecycle.promote(args.spec)
    except (PromotionError, SpecStoreError) as error:
        sys.stderr.write(f"plane: {error}\n")
        return 1
    sys.stderr.write(f"plane: promoted {record.spec_id} (version {record.version})\n")
    return 0


def cmd_plane_rollback(args) -> int:
    from repro.plane import SpecLifecycle
    from repro.service.store import SpecStore, SpecStoreError

    lifecycle = SpecLifecycle(SpecStore(args.store))
    try:
        record, restored = lifecycle.rollback(args.spec, reason=args.reason)
    except SpecStoreError as error:
        sys.stderr.write(f"plane: {error}\n")
        return 1
    sys.stderr.write(
        f"plane: rolled back {record.spec_id}; serving "
        f"{restored.spec_id if restored else '(nothing)'}\n"
    )
    return 0


def cmd_plane_seed(args) -> int:
    from repro.plane import seed_store
    from repro.service.store import SpecStore

    record = seed_store(SpecStore(args.store), pipeline=args.pipeline)
    sys.stderr.write(
        f"plane: seeded {args.store} with {record.spec_id} "
        f"({args.pipeline}, version {record.version})\n"
    )
    return 0


def cmd_compact_cache(args) -> int:
    import os

    from repro.engine import CacheCompacted

    if not args.cache_dir and not args.analysis_cache:
        sys.stderr.write("compact-cache: pass --cache-dir and/or --analysis-cache\n")
        return 2
    # the lines are this command's output: printed with or without --journal
    with _trace.ambient_sink(StreamSink(sys.stderr)):
        if args.cache_dir:
            path = os.path.join(args.cache_dir, InferenceEngine.CACHE_FILENAME)
            _trace.emit(CacheCompacted.from_stats(compact_cache_file(path)))
        if args.analysis_cache:
            from repro.solve import compact_analysis_cache_dir

            for stats in compact_analysis_cache_dir(args.analysis_cache):
                _trace.emit(CacheCompacted.from_stats(stats))
    return 0


def _write_json(payload, out: Optional[str]) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
    else:
        json.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")


# ------------------------------------------------------------------ arg parsing
def _add_journal_flag(subparser) -> None:
    subparser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append telemetry (events + trace spans) to this JSONL journal "
        "(default: $REPRO_JOURNAL)",
    )


def _add_analysis_cache_flag(subparser) -> None:
    subparser.add_argument(
        "--analysis-cache",
        default=None,
        metavar="DIR",
        help="content-addressed analysis result cache directory "
        "(default: $REPRO_ANALYSIS_CACHE)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learn points-to specifications once, then serve taint analyses from them.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    learn = commands.add_parser("learn", help="run Atlas inference and store the result")
    learn.add_argument("--store", required=True, help="SpecStore directory")
    learn.add_argument("--cache-dir", default=None, help="persistent oracle cache directory")
    learn.add_argument("--workers", type=int, default=0, help="cluster-inference worker processes")
    learn.add_argument("--preset", choices=["quick", "full"], default="quick")
    learn.add_argument(
        "--cluster",
        action="append",
        default=None,
        metavar="A,B,...",
        help="restrict inference to these clusters (repeatable, comma-separated classes)",
    )
    learn.add_argument("--budget", type=int, default=None, help="enumeration budget override")
    learn.add_argument("--seed", type=int, default=None, help="inference seed override")
    learn.add_argument("--progress", action="store_true", help="stream engine events to stderr")
    _add_journal_flag(learn)
    learn.set_defaults(func=cmd_learn)

    analyze = commands.add_parser("analyze", help="batch-analyze a generated corpus")
    analyze.add_argument("--store", required=True, help="SpecStore directory")
    analyze.add_argument("--spec", default=None, help="spec id (default: latest for the library)")
    analyze.add_argument("--count", type=int, default=20, help="number of generated programs")
    analyze.add_argument("--seed", type=int, default=2018, help="corpus generation seed")
    analyze.add_argument("--max-statements", type=int, default=120)
    analyze.add_argument("--min-statements", type=int, default=30)
    analyze.add_argument("--workers", type=int, default=0, help="analysis worker processes")
    analyze.add_argument("--apps", default=None, help="comma-separated app-name subset")
    analyze.add_argument("--out", default=None, help="write the JSON response here (default stdout)")
    analyze.add_argument("--no-timing", action="store_true", help="omit per-request timing")
    analyze.add_argument("--progress", action="store_true", help="stream analysis events to stderr")
    _add_analysis_cache_flag(analyze)
    _add_journal_flag(analyze)
    analyze.set_defaults(func=cmd_analyze)

    serve = commands.add_parser("serve-batch", help="answer an AnalyzeRequest JSON document")
    serve.add_argument("--store", required=True, help="SpecStore directory")
    serve.add_argument("--request", required=True, help="request JSON file ('-' for stdin)")
    serve.add_argument("--out", default=None, help="write the JSON response here (default stdout)")
    serve.add_argument("--progress", action="store_true", help="stream analysis events to stderr")
    _add_journal_flag(serve)
    serve.set_defaults(func=cmd_serve_batch)

    daemon = commands.add_parser(
        "serve", help="run the long-running HTTP analysis daemon (warm worker processes)"
    )
    daemon.add_argument("--store", required=True, help="SpecStore directory to serve from")
    daemon.add_argument("--host", default="127.0.0.1", help="bind address")
    daemon.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    daemon.add_argument(
        "--processes",
        type=int,
        default=2,
        help="pre-forked worker processes (one compiled analyzer each)",
    )
    daemon.add_argument(
        "--admission-limit",
        type=int,
        default=None,
        help="max /analyze requests in flight before the front door sheds "
        "with 503 (default queue-depth + 2*processes)",
    )
    daemon.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="bounded request queue size; full = 503 + Retry-After",
    )
    daemon.add_argument(
        "--poll-interval",
        type=float,
        default=2.0,
        help="seconds between spec-store polls for hot reload (0 disables)",
    )
    daemon.add_argument("--progress", action="store_true", help="stream server events to stderr")
    _add_analysis_cache_flag(daemon)
    _add_journal_flag(daemon)
    daemon.set_defaults(func=cmd_serve)

    bench = commands.add_parser(
        "bench-serve", help="load-test a running daemon and verify its responses"
    )
    bench.add_argument("--url", default="http://127.0.0.1:8080", help="daemon base URL")
    bench.add_argument("--requests", type=int, default=50, help="total requests to fire")
    bench.add_argument("--clients", type=int, default=8, help="concurrent client threads")
    bench.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed: N client threads back to back; open: scheduled "
        "arrivals at --rate rps, latency anchored at the intended send",
    )
    bench.add_argument(
        "--rate",
        type=float,
        default=4.0,
        help="open-loop arrival rate in requests/second",
    )
    bench.add_argument(
        "--distinct-seeds",
        action="store_true",
        help="vary the suite seed per request (defeats response coalescing; "
        "measures per-request analysis cost instead of cache hits)",
    )
    bench.add_argument("--count", type=int, default=5, help="programs per request's suite")
    bench.add_argument("--seed", type=int, default=2018, help="corpus generation seed")
    bench.add_argument("--max-statements", type=int, default=60)
    bench.add_argument("--min-statements", type=int, default=30)
    bench.add_argument("--spec", default=None, help="pin a spec id (default: server's latest)")
    bench.add_argument(
        "--workers", type=int, default=0, help="per-request analysis workers (serialized default)"
    )
    bench.add_argument(
        "--store",
        default=None,
        help="SpecStore directory; when given, verify responses against in-process handling",
    )
    bench.add_argument(
        "--no-verify", action="store_true", help="skip the in-process verification pass"
    )
    bench.add_argument(
        "--out",
        default=None,
        metavar="BENCH.json",
        help="write a schema-versioned bench artifact (throughput, latency "
        "percentiles, phase times, server metrics) here",
    )
    _add_journal_flag(bench)
    bench.set_defaults(func=cmd_bench_serve)

    fuzz = commands.add_parser(
        "fuzz", help="differentially fuzz the analysis pipelines against the interpreter"
    )
    fuzz.add_argument(
        "--families",
        default=None,
        metavar="A,B,...",
        help="comma-separated scenario families (default: the three diff families)",
    )
    fuzz.add_argument("--budget", type=int, default=100, help="number of generated programs")
    fuzz.add_argument("--seed", type=int, default=2018, help="campaign seed")
    fuzz.add_argument("--workers", type=int, default=0, help="checker worker processes")
    fuzz.add_argument(
        "--pipeline",
        choices=["ground_truth", "handwritten", "implementation"],
        default="ground_truth",
        help="primary static pipeline under test (--store overrides with a learned spec)",
    )
    fuzz.add_argument("--store", default=None, help="SpecStore directory: fuzz a learned spec")
    fuzz.add_argument("--spec", default=None, help="spec id within --store (default: latest)")
    fuzz.add_argument(
        "--no-cross-check",
        action="store_true",
        help="skip the handwritten-model (implementation) Andersen cross-check",
    )
    fuzz.add_argument(
        "--engine-check",
        action="store_true",
        help="also run each pipeline's reference oracle (whole-program "
        "Andersen) and report any flow mismatch with the served engine as an "
        "engine-mismatch divergence",
    )
    shrink_flags = fuzz.add_mutually_exclusive_group()
    shrink_flags.add_argument(
        "--shrink",
        action="store_true",
        help="minimize divergent programs (the default; kept for explicit invocations)",
    )
    shrink_flags.add_argument(
        "--no-shrink", action="store_true", help="keep divergent programs at full size"
    )
    fuzz.add_argument(
        "--sample", type=int, default=10, help="passing programs frozen into the golden corpus"
    )
    fuzz.add_argument(
        "--guided",
        action="store_true",
        help="coverage-guided mutation mode: seed from the golden corpus, mutate "
        "coverage-novel programs, admit into a live corpus only on new coverage",
    )
    fuzz.add_argument(
        "--seed-corpus",
        default="tests/golden",
        metavar="DIR",
        help="golden corpus directory guided mode seeds from (default: tests/golden; "
        "a missing directory simply seeds nothing)",
    )
    fuzz.add_argument(
        "--golden-out",
        default="tests/golden",
        help="directory the golden corpus is written to (default: tests/golden)",
    )
    fuzz.add_argument(
        "--no-golden", action="store_true", help="do not write a golden corpus file"
    )
    fuzz.add_argument("--out", default=None, help="write the JSON report here (default stdout)")
    fuzz.add_argument("--no-timing", action="store_true", help="omit timing from the report")
    fuzz.add_argument("--progress", action="store_true", help="stream fuzz events to stderr")
    fuzz.add_argument(
        "--repair",
        action="store_true",
        help="closed loop: repair any divergences into a SpecStore and re-fuzz the repaired spec",
    )
    fuzz.add_argument(
        "--repair-store",
        default=None,
        help="SpecStore the repaired spec is published to (default: --store, else .repro-specs)",
    )
    fuzz.add_argument(
        "--cache-dir", default=None, help="persistent oracle cache for repair learning"
    )
    _add_journal_flag(fuzz)
    fuzz.set_defaults(func=cmd_fuzz)

    repair = commands.add_parser(
        "repair", help="repair spec gaps found by a fuzz campaign and republish"
    )
    repair.add_argument(
        "--report", required=True, help="fuzz report JSON from `repro fuzz --out` ('-' for stdin)"
    )
    repair.add_argument("--store", required=True, help="SpecStore the repaired spec is published to")
    repair.add_argument(
        "--spec",
        default=None,
        help="base spec id for store-pipeline reports (default: latest for the library)",
    )
    repair.add_argument(
        "--cache-dir", default=None, help="persistent oracle cache directory (shared with learn)"
    )
    repair.add_argument("--workers", type=int, default=0, help="cluster-relearning worker processes")
    repair.add_argument("--seed", type=int, default=2018, help="repair learning seed")
    repair.add_argument(
        "--verify",
        action="store_true",
        help="re-fuzz the repaired spec over the originating campaign and assert it is clean",
    )
    repair.add_argument("--out", default=None, help="write the JSON outcome here (default stdout)")
    repair.add_argument("--no-timing", action="store_true", help="omit timing from the outcome")
    repair.add_argument("--progress", action="store_true", help="stream repair events to stderr")
    _add_journal_flag(repair)
    repair.set_defaults(func=cmd_repair)

    plane = commands.add_parser(
        "plane",
        help="supervised repair deployments: campaigns, candidate canaries, promotion",
    )
    plane_commands = plane.add_subparsers(dest="plane_command", required=True)
    plane_run = plane_commands.add_parser(
        "run", help="run supervised cycles: fuzz -> repair -> canary -> promote/rollback"
    )
    plane_run.add_argument("--store", required=True, help="SpecStore directory to supervise")
    plane_run.add_argument(
        "--cache-dir", default=None, help="persistent oracle cache for repair learning"
    )
    plane_run.add_argument(
        "--families",
        default=None,
        metavar="A,B,...",
        help="comma-separated scenario families to cycle through (default: all)",
    )
    plane_run.add_argument(
        "--budget", type=int, default=50, help="programs per campaign cycle"
    )
    plane_run.add_argument("--seed", type=int, default=2018, help="plane seed")
    plane_run.add_argument("--workers", type=int, default=0, help="worker processes")
    plane_run.add_argument(
        "--no-shrink", action="store_true", help="keep divergent programs at full size"
    )
    cycle_flags = plane_run.add_mutually_exclusive_group()
    cycle_flags.add_argument(
        "--once", action="store_true", help="run exactly one cycle (the smoke-job mode)"
    )
    cycle_flags.add_argument(
        "--cycles", type=int, default=1, help="supervised cycles to run"
    )
    plane_run.add_argument(
        "--interval", type=float, default=0.0, help="seconds to sleep between cycles"
    )
    plane_run.add_argument(
        "--guided-every",
        type=int,
        default=0,
        metavar="N",
        help="every Nth campaign cycle runs coverage-guided over all families, "
        "seeded from --golden-dir (0 disables guided rotation)",
    )
    plane_run.add_argument(
        "--shadow-fraction",
        type=float,
        default=0.25,
        help="live-traffic fraction mirrored through a canarying candidate",
    )
    plane_run.add_argument(
        "--shadow-requests",
        type=int,
        default=4,
        help="shadow comparisons per canary (synthetic stream size standalone)",
    )
    plane_run.add_argument(
        "--shadow-programs", type=int, default=2, help="programs per synthetic shadow request"
    )
    plane_run.add_argument(
        "--golden-dir",
        default=None,
        metavar="DIR",
        help="golden corpus to replay as the canary's regression gate",
    )
    plane_run.add_argument("--out", default=None, help="write the cycle JSON here (default stdout)")
    plane_run.add_argument("--progress", action="store_true", help="stream plane events to stderr")
    _add_journal_flag(plane_run)
    plane_run.set_defaults(func=cmd_plane_run)
    plane_status = plane_commands.add_parser(
        "status", help="print version states, serving lineage, and the transition log"
    )
    plane_status.add_argument("--store", required=True, help="SpecStore directory")
    plane_status.add_argument("--out", default=None, help="write the JSON here (default stdout)")
    _add_journal_flag(plane_status)
    plane_status.set_defaults(func=cmd_plane_status)
    plane_promote = plane_commands.add_parser(
        "promote", help="operator override: promote a candidate (payload re-verified)"
    )
    plane_promote.add_argument("--store", required=True, help="SpecStore directory")
    plane_promote.add_argument("--spec", required=True, help="candidate spec id")
    plane_promote.add_argument(
        "--progress", action="store_true", help="stream lifecycle events to stderr"
    )
    _add_journal_flag(plane_promote)
    plane_promote.set_defaults(func=cmd_plane_promote)
    plane_rollback = plane_commands.add_parser(
        "rollback", help="operator override: withdraw a version from service"
    )
    plane_rollback.add_argument("--store", required=True, help="SpecStore directory")
    plane_rollback.add_argument("--spec", required=True, help="spec id to roll back")
    plane_rollback.add_argument(
        "--reason", default="operator rollback", help="recorded transition reason"
    )
    plane_rollback.add_argument(
        "--progress", action="store_true", help="stream lifecycle events to stderr"
    )
    _add_journal_flag(plane_rollback)
    plane_rollback.set_defaults(func=cmd_plane_rollback)
    plane_seed = plane_commands.add_parser(
        "seed", help="bootstrap a store from a named specification set (no inference)"
    )
    plane_seed.add_argument("--store", required=True, help="SpecStore directory")
    plane_seed.add_argument(
        "--pipeline",
        choices=["ground_truth", "handwritten"],
        default="ground_truth",
        help="named specification set to publish as version 1",
    )
    _add_journal_flag(plane_seed)
    plane_seed.set_defaults(func=cmd_plane_seed)

    corpus = commands.add_parser(
        "corpus", help="list, digest-verify, or replay golden-corpus entries"
    )
    corpus.add_argument(
        "action", choices=["list", "verify", "replay"], help="what to do with the corpus"
    )
    corpus.add_argument(
        "--dir", default="tests/golden", help="corpus directory (default: tests/golden)"
    )
    corpus.add_argument("--id", default=None, help="entry name to replay (replay only)")
    corpus.add_argument("--out", default=None, help="replay: write the verdict JSON here")
    _add_journal_flag(corpus)
    corpus.set_defaults(func=cmd_corpus)

    obs = commands.add_parser(
        "obs", help="inspect telemetry journals: tail entries, summarize, draw traces"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    tail = obs_commands.add_parser(
        "tail", help="print the newest journal entries (and optionally follow)"
    )
    tail.add_argument(
        "--lines", type=int, default=20, help="existing entries to print first (0 = all)"
    )
    tail.add_argument(
        "-f", "--follow", action="store_true", help="keep printing entries as they append"
    )
    tail.add_argument(
        "--interval", type=float, default=0.5, help="follow-mode poll interval in seconds"
    )
    _add_journal_flag(tail)
    tail.set_defaults(func=cmd_obs_tail)
    summary = obs_commands.add_parser(
        "summary", help="aggregate event counts and per-span latency percentiles"
    )
    summary.add_argument("--json", action="store_true", help="emit the summary as JSON")
    _add_journal_flag(summary)
    summary.set_defaults(func=cmd_obs_summary)
    trace = obs_commands.add_parser(
        "trace", help="draw one trace's span tree with self-times and the critical path"
    )
    trace.add_argument(
        "id", nargs="?", default=None, help="trace id (any unique prefix; omit to list)"
    )
    _add_journal_flag(trace)
    trace.set_defaults(func=cmd_obs_trace)

    # help-only stub: main() forwards "experiments ..." to the runner before
    # parsing, so this subparser exists purely for the --help listing
    commands.add_parser(
        "experiments", help="regenerate paper tables/figures (repro.experiments.runner)"
    )

    compact = commands.add_parser(
        "compact-cache", help="compact the oracle and/or analysis cache files"
    )
    compact.add_argument("--cache-dir", default=None, help="oracle cache directory to compact")
    compact.add_argument(
        "--analysis-cache",
        default=None,
        metavar="DIR",
        help="analysis result cache directory to compact (every worker shard); "
        "run it while no daemon serves from DIR: a running daemon keeps "
        "appending to the files compaction replaced, and those entries are lost",
    )
    _add_journal_flag(compact)
    compact.set_defaults(func=cmd_compact_cache)

    return parser


def _dispatch(args) -> int:
    """Install the command's sinks, open the root span, run the subcommand.

    The journal and, under ``--progress``, one stderr ``StreamSink`` are
    process-global ambient sinks for the command's duration, so every engine
    event and span of the command reaches each of them once.  ``obs`` is the
    journal's *reader*, so it installs neither.
    """
    from repro.obs import install_journal, uninstall_journal

    if args.command == "obs":
        return args.func(args)
    journal = _journal_path(args)
    if journal:
        install_journal(journal)
    progress = getattr(args, "progress", False)
    try:
        with _trace.ambient_sink(StreamSink(sys.stderr)) if progress else nullcontext():
            with _trace.span(f"cli.{args.command}"):
                return args.func(args)
    finally:
        if journal:
            uninstall_journal(journal)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # ``experiments`` forwards everything verbatim: argparse.REMAINDER only
    # starts capturing at the first positional, so flag-first invocations
    # like ``repro experiments --preset full`` must bypass the subparser
    if argv and argv[0] == "experiments":
        from repro.experiments.runner import main as runner_main

        return runner_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:  # e.g. `repro corpus list | head`: not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
