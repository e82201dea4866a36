"""The control plane's continuous fuzz scheduler.

One scheduler owns the "keep probing what we serve" half of the plane: each
*cycle* runs one seeded, budgeted differential campaign (:mod:`repro.diff`)
against the spec version currently served, with the scenario family under
test rotating round-robin across cycles so sustained operation covers the
whole family catalogue rather than hammering one generator shape.  Campaign
seeds derive from ``(base seed, cycle)``, so cycle *N* of a given schedule
is reproducible in isolation -- the property the plane's journal trail and
the CI smoke job both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.diff.families import DEFAULT_FAMILIES
from repro.diff.guided import run_guided_fuzz
from repro.diff.runner import FuzzConfig, FuzzReport, build_checker, run_fuzz
from repro.engine.events import CampaignFinished, CampaignStarted
from repro.obs import trace as _trace
from repro.service.store import SpecStore

#: the full rotation: every differential family plus the end-to-end taint apps
ALL_FAMILIES: Tuple[str, ...] = tuple(DEFAULT_FAMILIES) + ("taint-app",)


@dataclass(frozen=True)
class ScheduleConfig:
    """Everything that determines what a cycle fuzzes (and only that)."""

    families: Tuple[str, ...] = ALL_FAMILIES
    budget: int = 50
    seed: int = 2018
    workers: int = 0
    shrink: bool = True
    #: every Nth cycle runs coverage-guided over ALL schedule families,
    #: seeded from ``golden_dir`` (0 disables guided rotation)
    guided_every: int = 0
    golden_dir: Optional[str] = None


class CampaignScheduler:
    """Runs the plane's per-cycle campaigns against served store versions."""

    def __init__(
        self,
        store: SpecStore,
        config: Optional[ScheduleConfig] = None,
        library_program=None,
        interface=None,
    ):
        self.store = store
        self.config = config if config is not None else ScheduleConfig()
        if not self.config.families:
            raise ValueError("a schedule needs at least one scenario family")
        self.library_program = library_program
        self.interface = interface

    def campaign_config(self, cycle: int) -> FuzzConfig:
        """The deterministic campaign cycle *cycle* runs.

        One family per cycle (round-robin over the schedule's families), the
        schedule's budget concentrated on it, and a seed derived from
        ``(base seed, cycle)``.  ``sample=0``: the plane probes for
        divergences, it does not grow the golden corpus -- that stays a
        deliberate ``repro fuzz --golden-out`` act.

        When ``guided_every`` is set, every Nth cycle (cycle numbers that are
        positive multiples of N) runs a coverage-guided campaign over *all*
        schedule families instead, seeded from ``golden_dir`` -- the search
        mode that keeps paying after each repair closes a known gap.
        """
        families = self.config.families
        if self.is_guided_cycle(cycle):
            return FuzzConfig(
                families=families,
                budget=self.config.budget,
                seed=self.config.seed + cycle,
                workers=self.config.workers,
                pipeline="store",
                cross_check=False,
                shrink=self.config.shrink,
                sample=0,
                guided=True,
            )
        return FuzzConfig(
            families=(families[cycle % len(families)],),
            budget=self.config.budget,
            seed=self.config.seed + cycle,
            workers=self.config.workers,
            pipeline="store",
            cross_check=False,
            shrink=self.config.shrink,
            sample=0,
        )

    def is_guided_cycle(self, cycle: int) -> bool:
        every = self.config.guided_every
        return bool(every) and cycle > 0 and cycle % every == 0

    def run_campaign(self, spec_id: str, cycle: int = 0) -> FuzzReport:
        """Fuzz the stored *spec_id* with cycle *cycle*'s campaign."""
        config = self.campaign_config(cycle)
        _trace.emit(
            CampaignStarted(
                cycle=cycle,
                spec_id=spec_id,
                families=tuple(config.families),
                budget=config.budget,
                seed=config.seed,
            )
        )
        with _trace.span(
            "plane.campaign",
            cycle=cycle,
            spec_id=spec_id,
            family=config.families[0],
            budget=config.budget,
        ):
            checker = build_checker(
                config,
                library_program=self.library_program,
                interface=self.interface,
                store=self.store,
                spec_id=spec_id,
            )
            if config.guided:
                report = run_guided_fuzz(
                    config,
                    checker=checker,
                    store=self.store,
                    spec_id=spec_id,
                    seed_corpus=self.config.golden_dir,
                    library_program=self.library_program,
                    interface=self.interface,
                )
            else:
                report = run_fuzz(config, checker=checker)
        _trace.emit(
            CampaignFinished(
                cycle=cycle,
                spec_id=spec_id,
                programs=report.programs,
                diverged=len(report.diverged),
                elapsed_seconds=report.elapsed_seconds,
            )
        )
        return report


__all__ = ["ALL_FAMILIES", "CampaignScheduler", "ScheduleConfig"]
