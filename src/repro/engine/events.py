"""Structured progress and telemetry events for the execution engine.

Every stage of an engine run emits a typed event (run started, cluster
started/finished, cache flushed, run finished) through
:func:`repro.obs.trace.emit`, which hands it to every installed *sink*.
Sinks are deliberately tiny -- a single ``emit`` method -- so telemetry can
be routed anywhere: collected in memory for tests, rendered to a terminal
for progress display, journaled, or counted by the server's metrics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import IO, List, Optional, Tuple

# ------------------------------------------------------------- dropped events
# When a sink misbehaves -- or a journal's disk fills -- the event is
# *dropped*, counted here, and the run continues.  The counter is
# process-wide and surfaced by the server's Prometheus exposition as
# ``repro_obs_dropped_events_total``.
_DROP_LOCK = threading.Lock()
_DROPPED_EVENTS = 0


def count_dropped_event(count: int = 1) -> None:
    """Record that *count* telemetry events were lost instead of delivered."""
    global _DROPPED_EVENTS
    with _DROP_LOCK:
        _DROPPED_EVENTS += count


def dropped_event_count() -> int:
    """How many telemetry events this process has dropped so far."""
    with _DROP_LOCK:
        return _DROPPED_EVENTS


# ---------------------------------------------------------------------- events
@dataclass(frozen=True)
class EngineEvent:
    """Base class of all engine telemetry events."""


@dataclass(frozen=True)
class RunStarted(EngineEvent):
    """Emitted once when ``Atlas.run`` begins."""

    num_clusters: int
    executor: str
    cache_entries: int  # warm-start size of the oracle cache


@dataclass(frozen=True)
class ClusterStarted(EngineEvent):
    """Emitted when a cluster is dispatched to its executor.

    For the serial executor this is the moment inference begins; for the
    parallel executor it is enqueue time -- all clusters are dispatched up
    front and a worker may pick the job up later.  ``ClusterFinished``
    carries the actual per-cluster wall time either way.
    """

    index: int
    classes: Tuple[str, ...]


@dataclass(frozen=True)
class ClusterFinished(EngineEvent):
    """Emitted when a cluster's inference completes."""

    index: int
    classes: Tuple[str, ...]
    elapsed_seconds: float
    positives: int
    fsa_states: int
    oracle_queries: int  # queries attributable to this cluster
    cache_hits: int


@dataclass(frozen=True)
class CacheFlushed(EngineEvent):
    """Emitted when a persistent cache writes its pending entries to disk."""

    path: str
    entries_written: int
    total_entries: int


@dataclass(frozen=True)
class RunFinished(EngineEvent):
    """Emitted once when ``Atlas.run`` completes."""

    num_clusters: int
    elapsed_seconds: float
    oracle_queries: int
    cache_hits: int
    hit_rate: float
    witnesses_executed: int


@dataclass(frozen=True)
class CacheCompacted(EngineEvent):
    """Emitted when an append-only cache file is compacted in place."""

    path: str
    lines_before: int
    lines_after: int
    superseded_dropped: int = 0
    malformed_dropped: int = 0

    @classmethod
    def from_stats(cls, stats) -> "CacheCompacted":
        """Build the event from a :class:`repro.jsonl.CompactionStats`."""
        return cls(
            path=stats.path,
            lines_before=stats.lines_before,
            lines_after=stats.lines_after,
            superseded_dropped=stats.superseded_dropped,
            malformed_dropped=stats.malformed_dropped,
        )


@dataclass(frozen=True)
class FuzzStarted(EngineEvent):
    """Emitted once when a differential fuzzing campaign begins."""

    budget: int
    families: Tuple[str, ...]
    pipeline: str
    executor: str
    workers: int
    seed: int


@dataclass(frozen=True)
class ProgramChecked(EngineEvent):
    """Emitted when one generated program has been differentially checked."""

    index: int
    program: str
    family: str
    statements: int
    concrete_flows: int
    diverged: bool


@dataclass(frozen=True)
class DivergenceShrunk(EngineEvent):
    """Emitted when a divergent program has been minimized.

    ``statements_before``/``statements_after`` measure the greedy deletion;
    ``steps`` counts the accepted deletions across all shrink passes.
    """

    program: str
    signatures: Tuple[str, ...]
    statements_before: int
    statements_after: int
    steps: int


@dataclass(frozen=True)
class FuzzFinished(EngineEvent):
    """Emitted once when a differential fuzzing campaign completes."""

    programs: int
    diverged: int
    shrunk: int
    elapsed_seconds: float
    golden_entries: int


@dataclass(frozen=True)
class CorpusSeeded(EngineEvent):
    """Emitted once when a guided campaign has loaded its seed corpus."""

    source: str  # directory (or label) the seeds came from
    entries: int  # number of seed programs admitted to the queue
    families: Tuple[str, ...]


@dataclass(frozen=True)
class CoverageGrown(EngineEvent):
    """Emitted when a checked program adds semantic coverage.

    The program is admitted into the live corpus; ``origin`` records where it
    came from (``seed:<name>``, ``fresh:<family>`` or a mutation operator).
    """

    index: int
    program: str
    origin: str
    new_keys: int
    total_keys: int
    corpus_size: int


@dataclass(frozen=True)
class RepairStarted(EngineEvent):
    """Emitted once when a counterexample-guided repair run begins."""

    pipeline: str  # the diverged pipeline being repaired
    divergences: int  # divergence instances ingested from the fuzz report
    words: int  # targeted candidate words extracted from the traces
    clusters: int  # implicated method clusters to re-learn
    executor: str
    workers: int


@dataclass(frozen=True)
class MethodRelearned(EngineEvent):
    """Emitted when one implicated cluster's specifications are re-learned.

    ``words`` counts the injected counterexample-derived candidates,
    ``positives`` the oracle-confirmed examples RPNI actually learned from.
    """

    index: int
    classes: Tuple[str, ...]
    words: int
    positives: int
    fsa_states: int
    oracle_queries: int
    elapsed_seconds: float


@dataclass(frozen=True)
class SpecRepaired(EngineEvent):
    """Emitted when a repaired specification is published to the store."""

    spec_id: str
    version: int
    base: str  # what was repaired: a spec id, or a named pipeline
    fsa_states: int
    fsa_transitions: int
    counterexamples: int  # divergence instances that drove the repair


@dataclass(frozen=True)
class RepairVerified(EngineEvent):
    """Emitted when the post-repair verification re-fuzz completes."""

    spec_id: str
    programs: int
    divergences: int
    clean: bool


@dataclass(frozen=True)
class SpecCompiled(EngineEvent):
    """Emitted when a server worker compiles a stored spec into an analyzer.

    In a healthy ``repro serve`` daemon this fires once per worker at
    startup (plus once per worker per hot reload or explicitly pinned spec
    id) -- *never* once per request.  The server's ``/metrics`` endpoint
    counts these, which is how "specs are compiled once per worker" is
    asserted rather than assumed.
    """

    worker: str
    spec_id: str
    elapsed_seconds: float


@dataclass(frozen=True)
class SpecReloaded(EngineEvent):
    """Emitted when the server's store poller observes a newer latest spec.

    Workers pick the new spec up lazily before their next request; in-flight
    requests keep the analyzer they started with.
    """

    previous_spec_id: str
    spec_id: str


@dataclass(frozen=True)
class CampaignStarted(EngineEvent):
    """Emitted when the control plane starts one scheduled fuzz campaign."""

    cycle: int
    spec_id: str  # the served spec under test
    families: Tuple[str, ...]
    budget: int
    seed: int


@dataclass(frozen=True)
class CampaignFinished(EngineEvent):
    """Emitted when one scheduled campaign completes."""

    cycle: int
    spec_id: str
    programs: int
    diverged: int
    elapsed_seconds: float


@dataclass(frozen=True)
class CandidatePublished(EngineEvent):
    """Emitted when a repair lands in the store as an unserved candidate."""

    spec_id: str
    parent: str  # the incumbent the candidate was repaired from
    version: int
    counterexamples: int


@dataclass(frozen=True)
class CanaryStarted(EngineEvent):
    """Emitted when a candidate enters its canary evaluation."""

    candidate: str
    incumbent: str
    golden_entries: int
    shadow_fraction: float


@dataclass(frozen=True)
class ShadowCompared(EngineEvent):
    """Emitted per shadowed request: incumbent vs. candidate flow reports.

    The incumbent's response was already served; the comparison is purely
    observational, so a mismatch here never affects a live client.
    """

    candidate: str
    programs: int
    mismatches: int


@dataclass(frozen=True)
class CanaryFinished(EngineEvent):
    """Emitted when a candidate's canary evaluation completes."""

    candidate: str
    incumbent: str
    passed: bool
    golden_regressions: int
    shadow_requests: int
    shadow_mismatches: int


@dataclass(frozen=True)
class SpecPromoted(EngineEvent):
    """Emitted when a candidate passes its canary and becomes servable."""

    spec_id: str
    version: int
    parent: str


@dataclass(frozen=True)
class SpecRolledBack(EngineEvent):
    """Emitted when a version is withdrawn from service.

    ``restored_spec_id`` is what ``latest`` falls back to (empty when the
    store has no remaining servable version).
    """

    spec_id: str
    reason: str
    restored_spec_id: str


# ----------------------------------------------------------------------- sinks
class EventSink:
    """Receives engine events; a sink that raises loses that one event."""

    def emit(self, event: EngineEvent) -> None:
        raise NotImplementedError


class CollectingSink(EventSink):
    """Stores events in a list -- used by tests and post-run inspection."""

    def __init__(self) -> None:
        self.events: List[EngineEvent] = []

    def emit(self, event: EngineEvent) -> None:
        self.events.append(event)

    def of_type(self, event_type) -> List[EngineEvent]:
        return [event for event in self.events if isinstance(event, event_type)]


class StreamSink(EventSink):
    """Renders events as human-readable progress lines on a text stream.

    Of the trace spans, it prints the two that describe a served request:
    one line per ``analysis.analyze`` and one per ``service.batch``.
    """

    def __init__(self, stream: IO[str], prefix: str = "[engine] "):
        self.stream = stream
        self.prefix = prefix

    def emit(self, event: EngineEvent) -> None:
        try:
            line = _format_event(event)
            if line is not None:
                self.stream.write(f"{self.prefix}{line}\n")
                self.stream.flush()
        except (OSError, ValueError):  # closed/broken stream: drop, don't abort
            count_dropped_event()


def _format_event(event: EngineEvent) -> Optional[str]:
    """One progress line per event type (``None`` suppresses the event)."""
    # a finished span is matched by name, not type: repro.obs.trace, which
    # defines SpanFinished, imports this module
    span_name = getattr(event, "name", None)
    if span_name == "analysis.analyze":
        attrs = event.attributes()
        return (
            f"analysis finished: {attrs.get('program')} in {event.elapsed_seconds:.3f}s "
            f"({attrs.get('flows')} flows)"
        )
    if span_name == "service.batch":
        attrs = event.attributes()
        return (
            f"batch finished: {attrs.get('programs')} programs in "
            f"{event.elapsed_seconds:.2f}s, {attrs.get('flows')} flows"
        )
    if isinstance(event, RunStarted):
        return (
            f"run started: {event.num_clusters} clusters, executor={event.executor}, "
            f"warm cache entries={event.cache_entries}"
        )
    if isinstance(event, ClusterStarted):
        return f"cluster {event.index} started: {'+'.join(event.classes)}"
    if isinstance(event, ClusterFinished):
        return (
            f"cluster {event.index} finished: {'+'.join(event.classes)} "
            f"in {event.elapsed_seconds:.2f}s "
            f"({event.positives} positives, {event.fsa_states} states, "
            f"{event.oracle_queries} queries, {event.cache_hits} hits)"
        )
    if isinstance(event, CacheFlushed):
        return f"cache flushed: {event.entries_written} new entries -> {event.path} ({event.total_entries} total)"
    if isinstance(event, CacheCompacted):
        return (
            f"cache compacted: {event.path}: {event.lines_before} -> {event.lines_after} lines "
            f"({event.superseded_dropped} superseded, {event.malformed_dropped} malformed)"
        )
    if isinstance(event, FuzzStarted):
        return (
            f"fuzz started: budget={event.budget}, families={','.join(event.families)}, "
            f"pipeline={event.pipeline}, executor={event.executor}, "
            f"workers={event.workers}, seed={event.seed}"
        )
    if isinstance(event, ProgramChecked):
        verdict = "DIVERGED" if event.diverged else "ok"
        return (
            f"checked {event.index}: {event.program} [{event.family}] "
            f"{event.statements} statements, {event.concrete_flows} concrete flows: {verdict}"
        )
    if isinstance(event, DivergenceShrunk):
        return (
            f"shrunk {event.program}: {event.statements_before} -> {event.statements_after} "
            f"statements in {event.steps} deletions ({'; '.join(event.signatures)})"
        )
    if isinstance(event, FuzzFinished):
        return (
            f"fuzz finished: {event.programs} programs in {event.elapsed_seconds:.2f}s, "
            f"{event.diverged} diverged ({event.shrunk} shrunk), "
            f"{event.golden_entries} golden entries"
        )
    if isinstance(event, CorpusSeeded):
        return (
            f"corpus seeded: {event.entries} entries from {event.source} "
            f"(families={','.join(event.families)})"
        )
    if isinstance(event, CoverageGrown):
        return (
            f"coverage grown {event.index}: {event.program} [{event.origin}] "
            f"+{event.new_keys} keys ({event.total_keys} total, "
            f"corpus {event.corpus_size})"
        )
    if isinstance(event, RepairStarted):
        return (
            f"repair started: pipeline={event.pipeline}, {event.divergences} divergences, "
            f"{event.words} targeted words, {event.clusters} clusters, "
            f"executor={event.executor}, workers={event.workers}"
        )
    if isinstance(event, MethodRelearned):
        return (
            f"relearned cluster {event.index}: {'+'.join(event.classes)} "
            f"in {event.elapsed_seconds:.2f}s "
            f"({event.words} injected words, {event.positives} positives, "
            f"{event.fsa_states} states, {event.oracle_queries} queries)"
        )
    if isinstance(event, SpecRepaired):
        return (
            f"spec repaired: {event.spec_id} (v{event.version}, base {event.base}) "
            f"{event.fsa_states} states / {event.fsa_transitions} transitions, "
            f"driven by {event.counterexamples} counterexamples"
        )
    if isinstance(event, RepairVerified):
        verdict = "clean" if event.clean else f"{event.divergences} divergences remain"
        return f"repair verified: {event.spec_id} over {event.programs} programs: {verdict}"
    if isinstance(event, SpecCompiled):
        return (
            f"spec compiled: {event.spec_id} on {event.worker} "
            f"in {event.elapsed_seconds:.2f}s"
        )
    if isinstance(event, SpecReloaded):
        return f"spec reloaded: {event.previous_spec_id} -> {event.spec_id}"
    if isinstance(event, CampaignStarted):
        return (
            f"campaign {event.cycle} started: spec {event.spec_id}, "
            f"families={','.join(event.families)}, budget={event.budget}, "
            f"seed={event.seed}"
        )
    if isinstance(event, CampaignFinished):
        return (
            f"campaign {event.cycle} finished: spec {event.spec_id}, "
            f"{event.programs} programs in {event.elapsed_seconds:.2f}s, "
            f"{event.diverged} diverged"
        )
    if isinstance(event, CandidatePublished):
        return (
            f"candidate published: {event.spec_id} (v{event.version}, "
            f"parent {event.parent}, {event.counterexamples} counterexamples)"
        )
    if isinstance(event, CanaryStarted):
        return (
            f"canary started: {event.candidate} vs incumbent {event.incumbent} "
            f"({event.golden_entries} golden entries, "
            f"shadow fraction {event.shadow_fraction:g})"
        )
    if isinstance(event, ShadowCompared):
        verdict = "MISMATCH" if event.mismatches else "match"
        return (
            f"shadow compared: {event.candidate} on {event.programs} programs: "
            f"{verdict} ({event.mismatches} mismatches)"
        )
    if isinstance(event, CanaryFinished):
        verdict = "PASS" if event.passed else "FAIL"
        return (
            f"canary finished: {event.candidate}: {verdict} "
            f"({event.golden_regressions} golden regressions, "
            f"{event.shadow_mismatches}/{event.shadow_requests} shadow mismatches)"
        )
    if isinstance(event, SpecPromoted):
        return f"spec promoted: {event.spec_id} (v{event.version}, parent {event.parent})"
    if isinstance(event, SpecRolledBack):
        restored = event.restored_spec_id or "none"
        return (
            f"spec rolled back: {event.spec_id} ({event.reason}); "
            f"serving {restored}"
        )
    if isinstance(event, RunFinished):
        return (
            f"run finished: {event.num_clusters} clusters in {event.elapsed_seconds:.2f}s, "
            f"{event.oracle_queries} oracle queries, "
            f"{100 * event.hit_rate:.1f}% cache hits, "
            f"{event.witnesses_executed} witnesses executed"
        )
    return None


__all__ = [
    "CacheCompacted",
    "CacheFlushed",
    "CampaignFinished",
    "CampaignStarted",
    "CanaryFinished",
    "CanaryStarted",
    "CandidatePublished",
    "ClusterFinished",
    "ClusterStarted",
    "CollectingSink",
    "CorpusSeeded",
    "CoverageGrown",
    "DivergenceShrunk",
    "EngineEvent",
    "EventSink",
    "count_dropped_event",
    "dropped_event_count",
    "FuzzFinished",
    "FuzzStarted",
    "MethodRelearned",
    "ProgramChecked",
    "RepairStarted",
    "RepairVerified",
    "RunFinished",
    "RunStarted",
    "ShadowCompared",
    "SpecCompiled",
    "SpecPromoted",
    "SpecRepaired",
    "SpecReloaded",
    "SpecRolledBack",
    "StreamSink",
]
