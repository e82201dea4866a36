#!/usr/bin/env python3
"""Layered serving benchmark for the sharded ``repro serve`` daemon.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload cold|edit|hit --seed N --seconds S --trace 0|1

Each run seeds fresh stores with the ground-truth spec, launches ``repro
serve`` with one worker process per core, the compiled engine and the
analysis cache, warms every worker, and drives the daemon open-loop over HTTP
for ``--seconds`` seconds, checking every answer against the reference
oracle.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
the per-layer metrics: the daemon's front door and process pool from the same
kind of untraced HTTP run, and every layer below from an in-process replay of
the run's exact requests with timers installed (see ``README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything before it
is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for stores, caches and the reference-answer cache
WORK_ROOT = os.path.join(ROOT, ".perfbench-run")
#: daemon launches whose set-up time is measured; the last one is driven.
#: Their median is ``setup_s``: with three, the medians of two sets of ten
#: runs differed by up to 19%.
SETUP_LAUNCHES = 5

#: the bounded end-to-end metrics (BENCHMARK.json) and their units
E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_request": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def log(message: str) -> None:
    print(f"[perfbench] {message}", flush=True)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("cold", "edit", "hit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-answers",
        action="store_true",
        help="search the edit universe into perfbench/edit_chains.json, recompute "
        "perfbench/answers.json for every universe document, and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_answers and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("perfbench: no repro sources under src/ next to perfbench/\n")
        return 2
    sys.path[:0] = [SRC, ROOT]
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    try:
        if args.write_answers:
            return write_answers(workdir)
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ------------------------------------------------------------------ reference
def reference(workdir: str):
    """A store seeded like the daemon's and the oracle answers for its spec."""
    from perfbench.daemon import seed_store
    from perfbench.oracle import ReferenceAnswers
    from repro.service.api import AnalyzeRequest, resolve_analyzer
    from repro.service.store import SpecStore

    store = os.path.join(workdir, "reference-store")
    seed_store(ROOT, store)
    analyzer = resolve_analyzer(AnalyzeRequest.from_dict({}), SpecStore(store))
    answers = ReferenceAnswers(
        analyzer.base_program, os.path.join(WORK_ROOT, "answers-cache.jsonl")
    )
    return store, analyzer, answers


def write_answers(workdir: str) -> int:
    from perfbench.oracle import ANSWERS_PATH
    from perfbench.workloads import EDIT_CHAINS_PATH, program_of, universe_docs, write_edit_chains

    chains = write_edit_chains()
    log(f"wrote {EDIT_CHAINS_PATH} ({len(chains)} chains)")
    _store, _analyzer, answers = reference(workdir)
    docs = universe_docs()
    table = answers.table(program_of(doc) for doc in docs)
    with open(ANSWERS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    log(f"wrote {ANSWERS_PATH} ({len(docs)} documents, {answers.computed} computed)")
    return 0


# ------------------------------------------------------------------ the run
def run(args: argparse.Namespace, workdir: str) -> int:
    from perfbench.daemon import Daemon, host_steal
    from perfbench.loadgen import open_loop
    from perfbench.oracle import check_response
    from perfbench.stats import percentile, summarize
    from perfbench.workloads import doc_key, make_plan, program_of
    from repro.lang.serialize import program_digest

    processes = len(os.sched_getaffinity(0))
    plan = make_plan(args.workload, args.seed, args.seconds)

    # reference answers first: outside every timed window
    ref_store, analyzer, answers = reference(workdir)
    expected: Dict[Tuple[int, int], str] = {}
    digests: Dict[Tuple[int, int], str] = {}
    for doc in plan.warmup + plan.working_set + plan.requests:
        key = doc_key(doc)
        if key not in expected:
            program = program_of(doc)
            digests[key] = program_digest(program)
            expected[key] = answers.expected(program)
    spec_id = analyzer.spec_id
    base = analyzer.base_program
    meta = {
        "workload": plan.workload,
        "seed": plan.seed,
        "rate_rps": plan.rate,
        "seconds": args.seconds,
        "trace": args.trace,
        "spec_id": spec_id,
        "base_classes": len(list(base)),
        "base_statements": base.statement_count(),
        "nproc": processes,
        "daemon_processes": processes,
        "python": platform.python_version(),
        "requests": len(plan.requests),
        "distinct_programs": len({doc_key(doc) for doc in plan.requests}),
        "answers_computed": answers.computed,
    }
    log("meta " + json.dumps(meta, sort_keys=True))

    launches = 1 if args.trace else SETUP_LAUNCHES
    setup_seconds: List[float] = []
    daemon = None
    try:
        for launch in range(launches):
            daemon = Daemon(ROOT, os.path.join(workdir, f"daemon-{launch}"), processes)
            started = time.perf_counter()
            daemon.launch()
            daemon.warm(plan.warmup)
            if plan.working_set:
                required = {digests[doc_key(doc)] for doc in plan.working_set}
                daemon.warm(plan.working_set, required=required, seed=plan.seed)
            setup_seconds.append(time.perf_counter() - started)
            if launch < launches - 1:
                daemon.stop()
        if daemon.spec_id != spec_id:
            raise RuntimeError(f"daemon serves {daemon.spec_id}, reference is {spec_id}")

        bodies = [json.dumps(doc).encode("utf-8") for doc in plan.requests]
        metrics_before = daemon.get_json("/metrics")
        cpu_before = daemon.cpu()
        steal_before = host_steal()
        window_started = time.perf_counter()
        samples, generator_cpu = open_loop(daemon.host, daemon.port, bodies, plan.rate, processes)
        window = time.perf_counter() - window_started
        steal_after = host_steal()
        cpu_after = daemon.cpu()
        metrics_after = daemon.get_json("/metrics")
        peak_rss_mb = daemon.peak_rss_mb()
        workers = daemon.workers
        parent = daemon.pid
    finally:
        if daemon is not None:
            daemon.stop()

    # ---------------------------------------------------------- correctness
    attempted = len(samples)
    failed = wrong = 0
    reasons: Dict[str, int] = {}
    good = []
    for doc, sample in zip(plan.requests, samples):
        if sample.error is not None:
            reason = sample.error
        else:
            reason = check_response(sample.status, sample.body, spec_id, expected[doc_key(doc)])
            if reason is not None and sample.status == 200:
                wrong += 1
        if reason is None:
            good.append(sample)
        else:
            failed += 1
            reasons[reason] = reasons.get(reason, 0) + 1
    for reason, count in sorted(reasons.items()):
        log(f"failure x{count}: {reason}")

    # ---------------------------------------------------------- generator
    lateness = summarize(sample.lateness * 1000.0 for sample in samples)
    log(
        f"generator: sent {attempted}, succeeded {attempted - failed}, failed {failed}; "
        f"send lateness p50 {lateness[0]:.3f} ms, tail {lateness[1]:.3f} ms "
        f"(p{lateness[2]:g} of {lateness[3]}); generator cpu {generator_cpu:.3f} s "
        f"({generator_cpu * 1000.0 / attempted:.3f} ms/request); window {window:.2f} s "
        f"for {attempted / plan.rate:.2f} s of arrivals"
    )
    steal_ticks, total_ticks = (after - before for after, before in zip(steal_after, steal_before))
    log(
        f"host: {100.0 * steal_ticks / max(1, total_ticks):.1f}% of CPU time over the window "
        "was stolen by the hypervisor"
    )

    outcomes = {
        outcome: metric_delta(metrics_before, metrics_after, "solver", "by_outcome", outcome)
        for outcome in ("cold", "incremental", "hit")
    }
    log(
        "daemon solve outcomes over the window: "
        + ", ".join(f"{outcome} {count:g}" for outcome, count in outcomes.items())
    )

    requests = max(1, attempted)
    worker_cpu = [cpu_after[pid] - cpu_before[pid] for pid in workers]
    parent_cpu = cpu_after[parent] - cpu_before[parent]
    if args.trace == 0:
        latencies = sorted(sample.latency * 1000.0 for sample in good)
        p50, tail, tail_q, count = summarize(latencies)
        values = {
            "latency_p50_ms": p50,
            "latency_p90_ms": percentile(latencies, 90.0) if latencies else 0.0,
            "cpu_ms_per_request": (parent_cpu + sum(worker_cpu)) * 1000.0 / requests,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_seconds),
        }
        notes = {
            "latency_p90_ms": f"of {count} successful requests",
            "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_seconds),
        }
        log(f"end-to-end, {plan.workload} at {plan.rate:g} req/s offered (seed {plan.seed}):")
        for name, value in values.items():
            log(f"  {name:20} {value:12.4f} {E2E_UNITS[name]:5} {notes.get(name, '')}")
        # printed, not bounded: on a shared host the p99 follows host stalls
        log(f"  {'latency_tail_ms':20} {tail:12.4f} {'ms':5} p{tail_q:g} of {count} successful requests")
        log(f"  {'failed_share':20} {failed / requests:12.4f} {'share':5} {failed} of {attempted}")
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()}
    else:
        per_layer = server_layers(
            good, metrics_before, metrics_after, outcomes, parent_cpu, worker_cpu, requests
        )
        replay_layers, replay_wrong = replay_layers_for(
            plan, ref_store, workdir, expected, spec_id, bodies
        )
        wrong += replay_wrong
        per_layer.update(replay_layers)
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in per_layer.items()}

    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=False), flush=True)
    return 0


# ------------------------------------------------------------------ per layer
def layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".p50", ".tail", "_ms_per_request")):
        return "ms"
    if "share" in name or name.endswith("_ratio"):
        return "share"
    if name.endswith("bytes_appended"):
        return "bytes/request"
    return "1/request"


def metric_delta(before: Dict, after: Dict, *path: str) -> float:
    """How much the ``/metrics`` counter at *path* grew (0 when it is missing)."""
    for key in path:
        before, after = (before or {}).get(key, {}), (after or {}).get(key, {})
    return float((after or 0) - (before or 0))


def server_layers(
    good, metrics_before, metrics_after, outcomes, parent_cpu, worker_cpu, requests
) -> Dict[str, float]:
    """Front door and process pool, read from outside the untraced HTTP run."""
    from perfbench.loadgen import parse_server_timing
    from perfbench.stats import summarize

    queue_ms: List[float] = []
    residual_ms: List[float] = []
    for sample in good:
        phases = parse_server_timing(sample.server_timing)
        if "queue" in phases and "analysis" in phases:
            queue_ms.append(phases["queue"])
            residual_ms.append(sample.service * 1000.0 - phases["queue"] - phases["analysis"])

    solves = sum(outcomes.values()) or 1.0
    residual = summarize(residual_ms)
    queue = summarize(queue_ms)
    values = {
        "server.front.cpu_ms_per_request": parent_cpu * 1000.0 / requests,
        "server.front.residual_ms.p50": residual[0],
        "server.front.residual_ms.tail": residual[1],
        "server.front.coalesced": (
            metric_delta(metrics_before, metrics_after, "requests", "coalesced") / requests
        ),
        "server.front.admission_rejected": (
            metric_delta(metrics_before, metrics_after, "requests", "admission_rejected")
            / requests
        ),
        "server.procpool.queue_wait_ms.p50": queue[0],
        "server.procpool.queue_wait_ms.tail": queue[1],
        "server.procpool.worker_cpu_ms_per_request": sum(worker_cpu) * 1000.0 / requests,
        "server.procpool.busiest_worker_share": max(worker_cpu) / (sum(worker_cpu) or 1.0),
    }
    for outcome, count in outcomes.items():
        values[f"solve.engine.daemon_share_{outcome}"] = count / solves
    log("daemon layers (untraced HTTP run):")
    for name, value in values.items():
        log(f"  {name:44} {value:12.4f}")
    log(
        f"  worker cpu seconds by process: {', '.join(f'{c:.2f}' for c in worker_cpu)}; "
        f"parent {parent_cpu:.2f}"
    )
    return values


def replay_layers_for(plan, ref_store, workdir, expected, spec_id, bodies):
    """The in-process replays' layer metrics and how many answers were wrong."""
    from perfbench.layers import replay, replay_metrics
    from perfbench.oracle import check_response
    from perfbench.workloads import doc_key

    setup = [json.dumps(doc).encode("utf-8") for doc in plan.warmup + plan.working_set]
    untraced, traced = replay(ref_store, workdir, setup, bodies)
    wrong = 0
    for outcome_replay in (untraced, traced):
        for doc, body in zip(plan.requests, outcome_replay.bodies):
            if check_response(200, body, spec_id, expected[doc_key(doc)]) is not None:
                wrong += 1
    metrics, table = replay_metrics(traced, untraced)
    log(f"layer table, {plan.workload} (in-process replay of {len(bodies)} requests):")
    for line in table:
        log("  " + line)
    if traced.absent:
        log("absent layers (hook target not found): " + ", ".join(traced.absent))
    log(f"replay solve outcomes: {traced.outcomes}; wrong replay answers: {wrong}")
    return metrics, wrong


if __name__ == "__main__":
    sys.exit(main())
