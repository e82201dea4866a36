"""In-process replay with timers around each layer's public functions.

The front door, queue and IPC hop exist only in the daemon, so their numbers
come from the untraced HTTP run.  Everything below the worker's request loop
is measured here: the workload's exact request documents are replayed through
``repro.service.api.run_request`` on a compiled analyzer with a fresh
analysis cache, once with timers installed and once without.

The timers are wrappers this module installs over the layer functions in
:data:`HOOKS` and removes afterwards; no source file changes.  A span's *self
time* is its duration minus the child spans it covers, so the layers' self
times plus the request's ``unattributed`` remainder add up to the traced
request time exactly.  A hook whose target no longer exists is reported as an
absent layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.stats import mean, summarize

UNATTRIBUTED = "unattributed"
#: requests per turn when the untraced and traced replays alternate
REPLAY_BLOCK = 20
DECODE = "service.api.decode"
ENCODE = "service.api.encode"


class Tracer:
    """Per-request self time and counters, accumulated from a span stack."""

    def __init__(self):
        self._stack: List[List] = []  # [layer, started, child seconds]
        self.requests: List[Dict[str, float]] = []  # per request: layer -> self seconds
        self.totals: List[float] = []  # per request: traced seconds
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)

    def begin(self) -> None:
        self.requests.append(defaultdict(float))
        self._stack = [[UNATTRIBUTED, time.perf_counter(), 0.0]]

    def end(self) -> None:
        layer, started, child = self._stack.pop()
        elapsed = time.perf_counter() - started
        self.requests[-1][layer] += elapsed - child
        self.totals.append(elapsed)

    def push(self, layer: str) -> None:
        if self._stack:  # calls outside a request (set-up) are not counted
            self.calls[layer] += 1
        self._stack.append([layer, time.perf_counter(), 0.0])

    def pop(self) -> None:
        layer, started, child = self._stack.pop()
        elapsed = time.perf_counter() - started
        if self._stack:
            self.requests[-1][layer] += elapsed - child
            self._stack[-1][2] += elapsed

    def count(self, name: str, amount: float = 1.0) -> None:
        if self._stack:
            self.counters[name] += amount

    def span(self, layer: str) -> "_Span":
        return _Span(self, layer)


class _Span:
    """A span opened by the replay driver itself (decode, encode)."""

    def __init__(self, tracer: Optional[Tracer], layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self) -> None:
        if self.tracer is not None:
            self.tracer.push(self.layer)

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.tracer.pop()


# ------------------------------------------------------------------ hooks
@dataclass(frozen=True)
class Hook:
    """Time ``module.path`` as *layer*; *observe* may read the call for counters."""

    layer: str
    module: str
    path: str  # "function" or "Class.method"
    observe: Optional[str] = None


HOOKS: Tuple[Hook, ...] = (
    Hook("service.api.build_corpus", "repro.service.api", "build_corpus"),
    Hook("service.analyzer.merge", "repro.lang.program", "Program.merged_with"),
    Hook("service.analyzer.digest", "repro.lang.serialize", "program_digest"),
    Hook("lang.serialize.to_dict", "repro.lang.serialize", "program_to_dict"),
    Hook("solve.cache.get", "repro.solve.cache", "AnalysisResultCache.get", "cache_get"),
    Hook("solve.cache.put", "repro.solve.cache", "AnalysisResultCache.put"),
    Hook("solve.engine.analyze", "repro.solve.engine", "CompiledAnalysisEngine.analyze"),
    Hook("solve.engine.neighbor_scan", "repro.solve.delta", "extension_starts"),
    Hook("solve.bitset.fork", "repro.solve.bitset", "BitsetCFLSolver.fork"),
    Hook("solve.bitset.add_productions", "repro.solve.bitset", "BitsetCFLSolver.add_productions"),
    Hook("solve.bitset.solve", "repro.solve.bitset", "BitsetCFLSolver.solve", "solve_edges"),
    Hook("pointsto.graph.extract", "repro.pointsto.graph", "PointsToGraph.__init__", "graph_edges"),
    Hook("client.taint.run", "repro.client.taint", "InformationFlowAnalysis.run"),
)

#: every layer the replay reports, in table order
LAYERS: Tuple[str, ...] = (DECODE,) + tuple(hook.layer for hook in HOOKS) + (ENCODE, UNATTRIBUTED)


def _wrap(tracer: Tracer, hook: Hook, original: Callable) -> Callable:
    layer = hook.layer
    if hook.observe == "solve_edges":

        @functools.wraps(original)
        def wrapper(solver, *args, **kwargs):
            before = getattr(solver, "total_edges", 0)
            tracer.push(layer)
            try:
                return original(solver, *args, **kwargs)
            finally:
                tracer.pop()
                tracer.count("edges_derived", getattr(solver, "total_edges", 0) - before)

    elif hook.observe == "graph_edges":

        @functools.wraps(original)
        def wrapper(graph, *args, **kwargs):
            tracer.push(layer)
            try:
                return original(graph, *args, **kwargs)
            finally:
                tracer.pop()
                tracer.count("client_edges", len(getattr(graph, "edges", ())))

    elif hook.observe == "cache_get":

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.push(layer)
            try:
                found = original(*args, **kwargs)
            finally:
                tracer.pop()
            tracer.count("cache_hits", found is not None)
            return found

    else:

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.push(layer)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.pop()

    return wrapper


class Installed:
    """Hooks installed over the live modules; :meth:`remove` restores them."""

    def __init__(self, tracer: Tracer, hooks: Sequence[Hook] = HOOKS):
        self.absent: List[str] = []
        #: (owner, attribute, original, whether the owner defined it itself)
        self._undo: List[Tuple[object, str, object, bool]] = []
        for hook in hooks:
            owner_name, _, attribute = hook.path.rpartition(".")
            try:
                owner = importlib.import_module(hook.module)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.absent.append(hook.layer)
                continue
            targets = [owner]
            if not owner_name:
                # a function imported by name elsewhere is looked up there
                targets.extend(
                    module
                    for name, module in list(sys.modules.items())
                    if (name == "repro" or name.startswith("repro."))
                    and module is not owner
                    and getattr(module, attribute, None) is original
                )
            wrapper = _wrap(tracer, hook, original)
            for target in targets:
                self._undo.append((target, attribute, original, attribute in vars(target)))
                setattr(target, attribute, wrapper)

    def remove(self) -> None:
        for target, attribute, original, owned in reversed(self._undo):
            if owned:
                setattr(target, attribute, original)
            else:
                delattr(target, attribute)  # it was inherited
        self._undo = []


# ------------------------------------------------------------------ replay
@dataclass
class Replay:
    """One replay of a workload's timed requests."""

    seconds: List[float]  # per request
    bodies: List[bytes]
    outcomes: Dict[str, int]
    cache_bytes: int
    tracer: Optional[Tracer] = None
    absent: Tuple[str, ...] = ()


def _analyzer(store: str, cache_dir: str):
    """A compiled analyzer with a fresh cache, chosen the way the daemon is."""
    from repro.service.api import AnalyzeRequest, resolve_analyzer
    from repro.service.store import SpecStore

    saved = {name: os.environ.get(name) for name in ("REPRO_SOLVER", "REPRO_ANALYSIS_CACHE")}
    os.environ["REPRO_SOLVER"] = "compiled"
    os.environ["REPRO_ANALYSIS_CACHE"] = cache_dir
    try:
        return resolve_analyzer(AnalyzeRequest.from_dict({}), SpecStore(store))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _serve(body: bytes, analyzer, span) -> Tuple[bytes, Optional[str]]:
    """The worker's path for one request body: decode, analyze, encode."""
    from repro.service.api import AnalyzeRequest, run_request

    with span(DECODE):
        request = AnalyzeRequest.from_dict(json.loads(body))
    response = run_request(request, analyzer)
    with span(ENCODE):
        encoded = json.dumps(response.to_dict(), separators=(",", ":")).encode("utf-8")
    reports = response.result.reports
    outcome = getattr(reports[0].timing, "solve_outcome", None) if reports else None
    return encoded, outcome


def _no_span(layer: str) -> _Span:
    return _Span(None, layer)


class _Replayer:
    """One analyzer (fresh cache) answering the replayed requests in order."""

    def __init__(self, store: str, cache_dir: str, tracer: Optional[Tracer] = None):
        self.analyzer = _analyzer(store, cache_dir)
        self.cache_dir = cache_dir
        self.tracer = tracer
        self.span = tracer.span if tracer is not None else _no_span
        self.seconds: List[float] = []
        self.bodies: List[bytes] = []
        self.outcomes: Dict[str, int] = defaultdict(int)
        self.cache_before = 0

    def warm(self, bodies: Sequence[bytes]) -> None:
        for body in bodies:
            _serve(body, self.analyzer, _no_span)
        self.cache_before = _cache_bytes(self.cache_dir)

    def run(self, bodies: Sequence[bytes]) -> None:
        for body in bodies:
            if self.tracer is not None:
                self.tracer.begin()
            started = time.perf_counter()
            encoded, outcome = _serve(body, self.analyzer, self.span)
            self.seconds.append(time.perf_counter() - started)
            if self.tracer is not None:
                self.tracer.end()
            self.bodies.append(encoded)
            self.outcomes[str(outcome)] += 1

    def result(self, absent: Sequence[str] = ()) -> Replay:
        return Replay(
            seconds=self.seconds,
            bodies=self.bodies,
            outcomes=dict(self.outcomes),
            cache_bytes=_cache_bytes(self.cache_dir) - self.cache_before,
            tracer=self.tracer,
            absent=tuple(absent),
        )


def replay(
    store: str,
    workdir: str,
    setup_bodies: Sequence[bytes],
    bodies: Sequence[bytes],
    block: int = REPLAY_BLOCK,
) -> Tuple[Replay, Replay]:
    """Untraced and traced replays of *bodies*, as ``(untraced, traced)``.

    Each replay has its own analyzer and fresh cache and first answers
    *setup_bodies* untimed, as the daemon did in set-up.  The two take turns
    block by block, with the hooks installed only while the traced one runs
    and the order flipped every block, so neither a change in host speed nor
    a chunk being warmer the second time favours one side, and the tracing
    overhead compares like with like.
    """
    untraced = _Replayer(store, os.path.join(workdir, "replay-untraced"))
    traced = _Replayer(store, os.path.join(workdir, "replay-traced"), Tracer())
    untraced.warm(setup_bodies)
    traced.warm(setup_bodies)
    absent: List[str] = []

    def run_traced(chunk: Sequence[bytes]) -> None:
        nonlocal absent
        installed = Installed(traced.tracer)
        absent = installed.absent
        try:
            traced.run(chunk)
        finally:
            installed.remove()

    for turn, start in enumerate(range(0, len(bodies), block)):
        chunk = bodies[start:start + block]
        # whichever runs a chunk second finds it warmer; alternate who that is
        if turn % 2:
            run_traced(chunk)
            untraced.run(chunk)
        else:
            untraced.run(chunk)
            run_traced(chunk)
    return untraced.result(), traced.result(absent)


def _cache_bytes(cache_dir: str) -> int:
    if not os.path.isdir(cache_dir):
        return 0
    return sum(
        os.path.getsize(os.path.join(cache_dir, name))
        for name in os.listdir(cache_dir)
        if name.endswith(".jsonl")
    )


# ------------------------------------------------------------------ metrics
#: per-layer time metrics: metric stem -> layer
TIME_METRICS: Tuple[Tuple[str, str], ...] = (
    ("service.api.decode_ms", DECODE),
    ("service.api.build_corpus_ms", "service.api.build_corpus"),
    ("service.api.encode_ms", ENCODE),
    ("service.analyzer.merge_ms", "service.analyzer.merge"),
    ("service.analyzer.digest_ms", "service.analyzer.digest"),
    ("lang.serialize.to_dict_ms", "lang.serialize.to_dict"),
    ("solve.cache.get_ms", "solve.cache.get"),
    ("solve.cache.put_ms", "solve.cache.put"),
    ("solve.engine.analyze_self_ms", "solve.engine.analyze"),
    ("solve.engine.neighbor_scan_ms", "solve.engine.neighbor_scan"),
    ("solve.bitset.fork_ms", "solve.bitset.fork"),
    ("solve.bitset.add_productions_ms", "solve.bitset.add_productions"),
    ("solve.bitset.solve_ms", "solve.bitset.solve"),
    ("pointsto.graph.extract_ms", "pointsto.graph.extract"),
    ("client.taint.run_ms", "client.taint.run"),
    ("replay.unattributed_ms", UNATTRIBUTED),
)


def replay_metrics(traced: Replay, untraced: Replay) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics (ms / counts per request) and the printed layer table."""
    tracer = traced.tracer
    requests = len(tracer.requests)
    metrics: Dict[str, float] = {}
    for stem, layer in TIME_METRICS:
        p50, tail, _q, _n = summarize(row.get(layer, 0.0) * 1000.0 for row in tracer.requests)
        metrics[f"{stem}.p50"] = p50
        metrics[f"{stem}.tail"] = tail
    gets = tracer.calls.get("solve.cache.get", 0)
    metrics["solve.cache.hit_ratio"] = tracer.counters["cache_hits"] / gets if gets else 0.0
    metrics["solve.cache.bytes_appended"] = traced.cache_bytes / requests
    for outcome in ("cold", "incremental", "hit"):
        metrics[f"solve.engine.share_{outcome}"] = traced.outcomes.get(outcome, 0) / requests
    metrics["solve.engine.neighbor_checks"] = tracer.calls.get("solve.engine.neighbor_scan", 0) / requests
    metrics["solve.engine.dispatch_rounds"] = tracer.calls.get("solve.bitset.solve", 0) / requests
    metrics["solve.bitset.edges_derived"] = tracer.counters["edges_derived"] / requests
    metrics["pointsto.graph.client_edges"] = tracer.counters["client_edges"] / requests
    traced_ms = mean(tracer.totals) * 1000.0
    untraced_ms = mean(untraced.seconds) * 1000.0
    metrics["replay.traced_ms"] = traced_ms
    metrics["replay.untraced_ms"] = untraced_ms
    metrics["replay.overhead_share"] = traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0

    lines = [
        f"{'layer':32} {'calls/req':>9} {'mean ms':>9} {'share':>7} {'p50 ms':>9} {'tail ms':>9}"
    ]
    attributed = 0.0
    for layer in LAYERS:
        values = [row.get(layer, 0.0) * 1000.0 for row in tracer.requests]
        layer_mean = mean(values)
        attributed += layer_mean
        if layer in traced.absent:
            lines.append(f"{layer:32} {'absent':>9}")
            continue
        p50, tail, q, _n = summarize(values)
        calls = tracer.calls.get(layer, 0) / requests if layer != UNATTRIBUTED else 1.0
        share = layer_mean / traced_ms if traced_ms else 0.0
        lines.append(
            f"{layer:32} {calls:9.2f} {layer_mean:9.3f} {share:7.1%} {p50:9.3f} {tail:9.3f}"
            + (f"  (p{q:g} of {requests})" if layer == UNATTRIBUTED else "")
        )
    lines.append(
        f"{'sum of self times':32} {'':9} {attributed:9.3f}   = traced {traced_ms:.3f} ms/request"
    )
    lines.append(
        f"tracing overhead: traced {traced_ms:.3f} vs untraced {untraced_ms:.3f} ms/request "
        f"({metrics['replay.overhead_share']:+.1%}) over {requests} requests"
    )
    return metrics, lines
