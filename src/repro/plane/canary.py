"""Canary evaluation of candidate specifications.

A candidate earns promotion through two independent gates:

* **Golden-corpus replay** -- every frozen program in the corpus
  (:mod:`repro.diff.corpus`) is analyzed under both the incumbent and the
  candidate.  A *regression* is a frozen concrete flow the incumbent
  catches and the candidate misses: new unsoundness, the one thing a
  repair must never introduce.  Flows the candidate newly catches are
  *improvements* (usually the very gap the repair closed) and never block.
* **Shadow traffic** -- live ``/analyze`` requests are mirrored through the
  candidate *after* the incumbent's response has been served
  (:meth:`repro.server.procpool.ProcessWorkerPool.set_shadow`), and the two flow
  reports are diffed program by program.  Without a live daemon the same
  comparison runs over a seeded synthetic request stream
  (:func:`replay_shadow`), so a standalone ``repro plane run`` exercises
  the identical gate.

Both gates compare *flows only* (program name + sorted flow set): spec ids
and timing differ by construction and must not count as mismatches.  And
both gates are *directional*: a repair exists to catch flows the incumbent
misses, so a candidate reporting **more** flows is an improvement, never a
regression -- only flows the incumbent reports and the candidate drops
count against promotion.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.diff.corpus import corpus_files, load_corpus
from repro.engine.events import ShadowCompared
from repro.obs import trace as _trace
from repro.service.analyzer import ClientAnalyzer, flow_to_dict
from repro.service.api import AnalyzeRequest, AnalyzeResponse, run_request


def report_flows(response: AnalyzeResponse) -> List[Tuple[str, Tuple[Tuple, ...]]]:
    """The comparison surface of a response: per-program hashable flow keys."""
    return [
        (
            report.program,
            tuple(tuple(sorted(flow_to_dict(flow).items())) for flow in report.flows),
        )
        for report in response.result.reports
    ]


# ------------------------------------------------------------------ shadowing
@dataclass
class ShadowSummary:
    """What one shadow window observed."""

    requests: int = 0  # unpinned requests seen by the sampler
    sampled: int = 0  # requests the sampler chose to mirror
    compared: int = 0  # mirrored requests that completed both runs
    mismatches: int = 0  # compared requests where the candidate LOST flows
    improvements: int = 0  # compared requests where it only gained flows
    errors: int = 0  # shadow runs that crashed (candidate compile/analysis)
    details: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "sampled": self.sampled,
            "compared": self.compared,
            "mismatches": self.mismatches,
            "improvements": self.improvements,
            "errors": self.errors,
            "details": list(self.details),
        }


class ShadowCanary:
    """The observer a :class:`~repro.server.procpool.ProcessWorkerPool` mirrors to.

    Thread-safe: request threads call :meth:`sample` while the pool's
    loop thread calls :meth:`observe` / :meth:`observe_error`.
    Sampling is seeded, so a given request stream shadows a reproducible
    subset.  ``fraction=1.0`` mirrors everything.
    """

    def __init__(
        self,
        spec_id: str,
        fraction: float = 0.25,
        seed: int = 2018,
        max_details: int = 20,
    ):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"shadow fraction must be within [0, 1], got {fraction}")
        self.spec_id = spec_id
        self.fraction = fraction
        self.max_details = max_details
        self._rng = random.Random(seed)
        self._condition = threading.Condition()
        self._summary = ShadowSummary()

    def sample(self) -> bool:
        with self._condition:
            self._summary.requests += 1
            chosen = self._rng.random() < self.fraction
            if chosen:
                self._summary.sampled += 1
            return chosen

    def observe(self, request: AnalyzeRequest, served: AnalyzeResponse, shadowed: AnalyzeResponse) -> None:
        """Record one completed mirror: diff the served vs shadowed flows."""
        regressed, improved = diff_flows(served, shadowed)
        with self._condition:
            self._summary.compared += 1
            if regressed:
                self._summary.mismatches += 1
                if len(self._summary.details) < self.max_details:
                    self._summary.details.append(
                        {"kind": "mismatch", "programs": regressed}
                    )
            elif improved:
                self._summary.improvements += 1
            self._condition.notify_all()
        _trace.emit(
            ShadowCompared(
                candidate=self.spec_id,
                programs=len(served.result.reports),
                mismatches=len(regressed),
            )
        )

    def observe_error(self, request: AnalyzeRequest, error: BaseException) -> None:
        """Record a shadow run that crashed (the served response was fine)."""
        with self._condition:
            self._summary.compared += 1
            self._summary.errors += 1
            if len(self._summary.details) < self.max_details:
                self._summary.details.append({"kind": "error", "error": str(error)})
            self._condition.notify_all()

    def wait_for(self, compared: int, timeout_seconds: float) -> bool:
        """Block until *compared* mirrors completed (or the timeout passed)."""
        with self._condition:
            return self._condition.wait_for(
                lambda: self._summary.compared >= compared, timeout=timeout_seconds
            )

    def summary(self) -> ShadowSummary:
        with self._condition:
            return ShadowSummary(
                requests=self._summary.requests,
                sampled=self._summary.sampled,
                compared=self._summary.compared,
                mismatches=self._summary.mismatches,
                improvements=self._summary.improvements,
                errors=self._summary.errors,
                details=list(self._summary.details),
            )


def diff_flows(
    served: AnalyzeResponse, shadowed: AnalyzeResponse
) -> Tuple[List[str], List[str]]:
    """Directional per-program flow diff: ``(regressed, improved)`` names.

    A program *regressed* if the candidate dropped any flow the incumbent
    reported (new unsoundness -- blocks promotion); it *improved* if the
    candidate only added flows (the usual shape of a repair under test).
    """
    incumbent = dict(report_flows(served))
    candidate = dict(report_flows(shadowed))
    regressed, improved = [], []
    for program in sorted(set(incumbent) | set(candidate)):
        old = set(incumbent.get(program, ()))
        new = set(candidate.get(program, ()))
        if old - new:
            regressed.append(program)
        elif new - old:
            improved.append(program)
    return regressed, improved


def replay_shadow(
    incumbent: ClientAnalyzer,
    candidate: ClientAnalyzer,
    requests: Sequence[AnalyzeRequest],
) -> ShadowSummary:
    """The synthetic shadow gate: mirror a seeded request stream in-process.

    Behaviourally identical to the live pool hook -- same request documents,
    same flow diff -- minus the daemon: a standalone ``repro plane run``
    (CI, cron) canaries candidates without an HTTP server in the loop.
    """
    shadow = ShadowCanary(candidate.spec_id or "", fraction=1.0)
    for request in requests:
        shadow.sample()
        served = run_request(request, incumbent)
        try:
            shadowed = run_request(request, candidate)
        except Exception as error:  # noqa: BLE001 - a crash is a canary verdict
            shadow.observe_error(request, error)
            continue
        shadow.observe(request, served, shadowed)
    return shadow.summary()


# -------------------------------------------------------------- golden replay
@dataclass
class GoldenReplay:
    """The golden-corpus half of a canary verdict."""

    entries: int = 0
    regressions: List[Dict] = field(default_factory=list)  # new unsoundness
    improvements: int = 0  # concrete flows newly caught by the candidate

    def to_dict(self) -> Dict:
        return {
            "entries": self.entries,
            "regressions": list(self.regressions),
            "improvements": self.improvements,
        }


def golden_replay(
    incumbent: ClientAnalyzer,
    candidate: ClientAnalyzer,
    corpus_dir: str,
) -> GoldenReplay:
    """Replay every frozen corpus program under both analyzers.

    The regression test mirrors the differential checker's divergence
    definition: only *concrete* (witnessed) flows count, and only ones the
    incumbent already catches -- losing one of those is new unsoundness.
    """
    replay = GoldenReplay()
    for path in corpus_files(corpus_dir):
        for entry in load_corpus(path):
            replay.entries += 1
            concrete = set(entry.concrete_flows)
            if not concrete:
                continue
            old = set(incumbent.analyze_program(entry.program, entry.name).flows)
            new = set(candidate.analyze_program(entry.program, entry.name).flows)
            lost = (concrete & old) - new
            gained = (concrete & new) - old
            replay.improvements += len(gained)
            if lost:
                replay.regressions.append(
                    {
                        "program": entry.name,
                        "family": entry.family,
                        "lost_flows": sorted(
                            str(flow_to_dict(flow)) for flow in lost
                        ),
                    }
                )
    return replay


# ------------------------------------------------------------- canary report
@dataclass
class CanaryReport:
    """Everything one canary evaluation measured (verdict left to policy)."""

    candidate: str
    incumbent: str
    golden: Optional[GoldenReplay] = None
    shadow: Optional[ShadowSummary] = None

    @property
    def golden_regressions(self) -> int:
        return len(self.golden.regressions) if self.golden is not None else 0

    @property
    def shadow_mismatches(self) -> int:
        return self.shadow.mismatches if self.shadow is not None else 0

    @property
    def shadow_requests(self) -> int:
        return self.shadow.compared if self.shadow is not None else 0

    def to_dict(self) -> Dict:
        return {
            "candidate": self.candidate,
            "incumbent": self.incumbent,
            "golden": self.golden.to_dict() if self.golden is not None else None,
            "shadow": self.shadow.to_dict() if self.shadow is not None else None,
        }


def run_canary(
    incumbent: ClientAnalyzer,
    candidate: ClientAnalyzer,
    corpus_dir: Optional[str] = None,
    shadow_requests: Sequence[AnalyzeRequest] = (),
) -> CanaryReport:
    """The standalone canary: golden replay plus a synthetic shadow stream.

    The live-daemon variant swaps the synthetic stream for a
    :class:`ShadowCanary` installed on the serving pool; see
    :meth:`repro.plane.control.ControlPlane.run_once`.
    """
    report = CanaryReport(
        candidate=candidate.spec_id or "", incumbent=incumbent.spec_id or ""
    )
    with _trace.span(
        "plane.canary", candidate=report.candidate, incumbent=report.incumbent
    ):
        if corpus_dir is not None:
            with _trace.span("plane.canary.golden", corpus=corpus_dir):
                report.golden = golden_replay(incumbent, candidate, corpus_dir)
        if shadow_requests:
            with _trace.span("plane.canary.shadow", requests=len(shadow_requests)):
                report.shadow = replay_shadow(incumbent, candidate, shadow_requests)
    return report


__all__ = [
    "CanaryReport",
    "GoldenReplay",
    "ShadowCanary",
    "ShadowSummary",
    "diff_flows",
    "golden_replay",
    "replay_shadow",
    "report_flows",
    "run_canary",
]
