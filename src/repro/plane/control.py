"""The control plane: supervise served specs through repair deployments.

One :class:`ControlPlane` drives the whole always-on loop, cycle by cycle::

    latest served spec
        -> scheduled fuzz campaign          (CampaignScheduler)
        -> divergences?  no  -> clean cycle, done
        -> RepairEngine -> *candidate* version (parent-linked, unserved)
        -> canary: golden-corpus replay + shadow traffic
        -> policy verdict
             pass -> promote   (servable; a live daemon hot-reloads it)
             fail -> roll back (the incumbent keeps serving)

Attach a live :class:`~repro.server.procpool.ProcessWorkerPool` and the shadow gate
mirrors real ``/analyze`` traffic through the candidate (the incumbent's
responses are served untouched); standalone, a seeded synthetic request
stream exercises the identical comparison.  Every step lands in the journal
via :mod:`repro.obs` spans and the engine event trail, so "why is v3
serving?" is answerable from artifacts alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.cache import program_fingerprint
from repro.engine.events import CanaryFinished, CanaryStarted
from repro.library.registry import build_library_program, build_spec_interface
from repro.obs import trace as _trace
from repro.plane.canary import CanaryReport, ShadowCanary, run_canary
from repro.plane.lifecycle import PromotionError, SpecLifecycle
from repro.plane.policy import Decision, PromotionPolicy
from repro.plane.scheduler import ALL_FAMILIES, CampaignScheduler, ScheduleConfig
from repro.repair.engine import RepairConfig, RepairEngine
from repro.service.analyzer import ClientAnalyzer
from repro.service.api import AnalyzeRequest, SuiteSpec
from repro.service.store import STATE_CANDIDATE, SpecRecord, SpecStore

#: cycle outcome statuses
NO_SPEC = "no-spec"  # nothing servable in the store
CLEAN = "clean"  # campaign found no divergence
UNREPAIRABLE = "unrepairable"  # divergences, but no candidate could be built
PROMOTED = "promoted"
ROLLED_BACK = "rolled_back"


@dataclass(frozen=True)
class PlaneConfig:
    """Everything that determines what the plane does each cycle."""

    families: Tuple[str, ...] = ALL_FAMILIES
    budget: int = 50
    seed: int = 2018
    workers: int = 0
    shrink: bool = True
    #: live-traffic sampling fraction while a candidate is canarying
    shadow_fraction: float = 0.25
    #: shadow comparisons to gather (live: wait for; synthetic: generate)
    shadow_requests: int = 4
    #: how long to wait for live traffic before judging with what arrived
    shadow_timeout_seconds: float = 30.0
    #: programs per synthetic shadow request
    shadow_programs: int = 2
    golden_dir: Optional[str] = None
    cache_dir: Optional[str] = None
    policy: PromotionPolicy = PromotionPolicy()
    #: every Nth campaign cycle goes coverage-guided (0 keeps all cycles blind)
    guided_every: int = 0

    def schedule(self) -> ScheduleConfig:
        return ScheduleConfig(
            families=self.families,
            budget=self.budget,
            seed=self.seed,
            workers=self.workers,
            shrink=self.shrink,
            guided_every=self.guided_every,
            golden_dir=self.golden_dir,
        )


@dataclass
class CycleOutcome:
    """Everything one plane cycle did, JSON-ready for artifacts."""

    cycle: int
    status: str
    spec_id: str = ""  # the incumbent under test
    programs: int = 0
    diverged: int = 0
    candidate: str = ""
    canary: Optional[CanaryReport] = None
    decision: Optional[Decision] = None
    lineage: List[str] = field(default_factory=list)  # serving chain, newest first
    elapsed_seconds: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "cycle": self.cycle,
            "status": self.status,
            "spec_id": self.spec_id,
            "programs": self.programs,
            "diverged": self.diverged,
            "candidate": self.candidate,
            "canary": self.canary.to_dict() if self.canary is not None else None,
            "decision": (
                {"promote": self.decision.promote, "reasons": list(self.decision.reasons)}
                if self.decision is not None
                else None
            ),
            "lineage": list(self.lineage),
            "elapsed_seconds": self.elapsed_seconds,
        }


class ControlPlane:
    """Supervises one store (and optionally one live pool) through cycles."""

    def __init__(
        self,
        store: SpecStore,
        config: Optional[PlaneConfig] = None,
        library_program=None,
        interface=None,
        pool=None,
    ):
        self.store = store
        self.config = config if config is not None else PlaneConfig()
        self.library_program = (
            library_program if library_program is not None else build_library_program()
        )
        self.interface = (
            interface if interface is not None else build_spec_interface(self.library_program)
        )
        self.pool = pool
        self.fingerprint = program_fingerprint(self.library_program)
        self.scheduler = CampaignScheduler(
            store,
            config=self.config.schedule(),
            library_program=self.library_program,
            interface=self.interface,
        )
        self.lifecycle = SpecLifecycle(store)
        self.repair_engine = RepairEngine(
            store,
            cache_dir=self.config.cache_dir,
            config=RepairConfig(seed=self.config.seed, workers=self.config.workers),
            library_program=self.library_program,
            interface=self.interface,
        )

    # ------------------------------------------------------------------ cycles
    def run_once(self, cycle: int = 0) -> CycleOutcome:
        """One full supervised cycle; see the module docstring for the arc."""
        started = time.perf_counter()
        with _trace.span("plane.cycle", cycle=cycle) as root:
            outcome = self._run_cycle(cycle)
            outcome.elapsed_seconds = time.perf_counter() - started
            root.set("status", outcome.status)
            root.set("spec_id", outcome.spec_id)
            root.set("candidate", outcome.candidate)
        return outcome

    def run(self, cycles: int, interval_seconds: float = 0.0) -> List[CycleOutcome]:
        """Run *cycles* supervised cycles, sleeping *interval_seconds* between."""
        outcomes = []
        for cycle in range(cycles):
            if cycle and interval_seconds > 0:
                time.sleep(interval_seconds)
            outcomes.append(self.run_once(cycle))
        return outcomes

    def _run_cycle(self, cycle: int) -> CycleOutcome:
        incumbent = self.store.latest(fingerprint=self.fingerprint)
        if incumbent is None:
            return CycleOutcome(cycle=cycle, status=NO_SPEC)

        report = self.scheduler.run_campaign(incumbent.spec_id, cycle)
        outcome = CycleOutcome(
            cycle=cycle,
            status=CLEAN,
            spec_id=incumbent.spec_id,
            programs=report.programs,
            diverged=len(report.diverged),
        )
        if not report.diverged:
            outcome.lineage = self._lineage(incumbent.spec_id)
            return outcome

        repair = self.repair_engine.repair(
            report, spec_id=incumbent.spec_id, publish=True, state=STATE_CANDIDATE
        )
        if repair.record is None:
            outcome.status = UNREPAIRABLE
            outcome.lineage = self._lineage(incumbent.spec_id)
            return outcome
        candidate = repair.record
        outcome.candidate = candidate.spec_id
        self.lifecycle.announce_candidate(
            candidate, counterexamples=len(repair.plan.repairable)
        )

        status, canary, decision = self.evaluate(incumbent, candidate)
        outcome.status = status
        outcome.canary = canary
        outcome.decision = decision
        served = self.store.latest(fingerprint=self.fingerprint)
        outcome.lineage = self._lineage(served.spec_id if served else candidate.spec_id)
        return outcome

    def evaluate(
        self, incumbent: SpecRecord, candidate: SpecRecord
    ) -> Tuple[str, CanaryReport, Decision]:
        """Canary a published candidate and enact the verdict.

        Public on purpose: a hand-published candidate (an operator's, or a
        test's deliberately regressing one) goes through the exact gate a
        plane-built repair does -- canary, policy, promote-or-rollback, and
        an immediate live-pool swap.
        """
        canary = self._canary(incumbent, candidate)
        decision = self.config.policy.decide(canary)
        if decision.promote:
            try:
                self.lifecycle.promote(candidate.spec_id)
                status = PROMOTED
            except PromotionError as error:
                if not error.rolled_back:
                    self.lifecycle.rollback(candidate.spec_id, reason=str(error))
                status = ROLLED_BACK
        else:
            self.lifecycle.rollback(candidate.spec_id, reason=decision.reason)
            status = ROLLED_BACK
        if self.pool is not None:
            # swap the live daemon immediately instead of waiting a poll tick
            self.pool.poll_once()
        return status, canary, decision

    # ------------------------------------------------------------------ canary
    def _canary(self, incumbent: SpecRecord, candidate: SpecRecord) -> CanaryReport:
        _trace.emit(
            CanaryStarted(
                candidate=candidate.spec_id,
                incumbent=incumbent.spec_id,
                golden_entries=0,
                shadow_fraction=(
                    self.config.shadow_fraction if self.pool is not None else 1.0
                ),
            )
        )
        incumbent_analyzer = self._analyzer(incumbent.spec_id)
        candidate_analyzer = self._analyzer(candidate.spec_id)
        if self.pool is not None:
            report = self._canary_live(incumbent_analyzer, candidate_analyzer)
        else:
            report = run_canary(
                incumbent_analyzer,
                candidate_analyzer,
                corpus_dir=self.config.golden_dir,
                shadow_requests=self._shadow_stream(),
            )
        decision = self.config.policy.decide(report)
        _trace.emit(
            CanaryFinished(
                candidate=report.candidate,
                incumbent=report.incumbent,
                passed=decision.promote,
                golden_regressions=report.golden_regressions,
                shadow_requests=report.shadow_requests,
                shadow_mismatches=report.shadow_mismatches,
            )
        )
        return report

    def _canary_live(self, incumbent: ClientAnalyzer, candidate: ClientAnalyzer) -> CanaryReport:
        """Shadow real pool traffic, then replay the golden corpus."""
        report = CanaryReport(
            candidate=candidate.spec_id or "", incumbent=incumbent.spec_id or ""
        )
        with _trace.span("plane.canary", candidate=report.candidate, live=True):
            shadow = ShadowCanary(
                candidate.spec_id or "",
                fraction=self.config.shadow_fraction,
                seed=self.config.seed,
            )
            self.pool.set_shadow(shadow)
            try:
                with _trace.span("plane.canary.shadow", live=True):
                    shadow.wait_for(
                        self.config.shadow_requests,
                        timeout_seconds=self.config.shadow_timeout_seconds,
                    )
            finally:
                self.pool.clear_shadow()
            report.shadow = shadow.summary()
            if self.config.golden_dir is not None:
                with _trace.span("plane.canary.golden", corpus=self.config.golden_dir):
                    from repro.plane.canary import golden_replay

                    report.golden = golden_replay(
                        incumbent, candidate, self.config.golden_dir
                    )
        return report

    def _shadow_stream(self) -> List[AnalyzeRequest]:
        """The seeded synthetic request stream standalone canaries mirror."""
        return [
            AnalyzeRequest(
                suite=SuiteSpec(
                    count=self.config.shadow_programs,
                    seed=self.config.seed + 7919 * (index + 1),
                    max_statements=60,
                ),
                include_timing=False,
            )
            for index in range(self.config.shadow_requests)
        ]

    def _analyzer(self, spec_id: str) -> ClientAnalyzer:
        return ClientAnalyzer.from_store(
            self.store,
            spec_id=spec_id,
            library_program=self.library_program,
            interface=self.interface,
        )

    def _lineage(self, spec_id: str) -> List[str]:
        try:
            return [record.spec_id for record in self.store.lineage(spec_id)]
        except Exception:  # noqa: BLE001 - lineage is reporting, never fatal
            return [spec_id]


__all__ = [
    "CLEAN",
    "NO_SPEC",
    "PROMOTED",
    "ROLLED_BACK",
    "UNREPAIRABLE",
    "ControlPlane",
    "CycleOutcome",
    "PlaneConfig",
]
