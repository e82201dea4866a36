"""Guided-campaign tests: determinism, seeding, telemetry, and yield.

Three properties hold the guided mode together:

- **determinism** -- a ``--workers 4`` campaign is bit-identical to the
  serial one (canonical report *and* coverage digest), the same contract the
  blind runner has;
- **telemetry** -- corpus seeding and every coverage-growing admission land
  in the ``engine.events`` trail;
- **yield** -- on a deliberately gapped store (the named ground-truth spec
  set misses ``toArray``-style flows), a golden-seeded guided campaign
  rediscovers the counterexample immediately and, at equal budget, beats
  blind random generation on both time-to-first-divergence (strictly
  smaller median over five seeds) and divergences found.
"""

import statistics

import pytest

from repro.diff.guided import run_guided_fuzz
from repro.diff.runner import FuzzConfig, build_checker, run_fuzz
from repro.engine.events import CollectingSink, CorpusSeeded, CoverageGrown
from repro.obs.trace import ambient_sink
from repro.plane.lifecycle import seed_store
from repro.service.store import SpecStore
from repro.testing import GOLDEN_DIR

_GUIDED = dict(
    families=("alias-chains", "fluent-pipelines"),
    budget=16,
    seed=7,
    pipeline="ground_truth",
    cross_check=False,
    sample=0,
    guided=True,
)


def _guided(workers=0, **overrides):
    config = FuzzConfig(**{**_GUIDED, "workers": workers, **overrides})
    return run_guided_fuzz(config, seed_corpus=GOLDEN_DIR)


# -------------------------------------------------------------- determinism
def test_parallel_guided_campaign_is_bit_identical_to_serial():
    serial = _guided(workers=0)
    parallel = _guided(workers=4)
    assert serial.canonical() == parallel.canonical()
    assert serial.coverage.digest() == parallel.coverage.digest()
    assert serial.corpus_stats == parallel.corpus_stats


def test_guided_campaign_mixes_seeds_mutants_and_fresh():
    report = _guided()
    origins = report.corpus_stats["by_origin"]
    assert report.corpus_stats["seeds_loaded"] > 0
    assert "seed" in origins, "golden seeds never entered the live corpus"
    kinds = {name.rstrip("0123456789") for name in (o.name for o in report.outcomes)}
    assert "Seed" in kinds and "Mutant" in kinds, f"expected seeds and mutants, got {kinds}"


def test_guided_report_round_trips_with_coverage():
    from repro.diff.runner import FuzzReport

    report = _guided()
    restored = FuzzReport.from_dict(report.to_dict())
    assert restored.config.guided is True
    assert restored.coverage.digest() == report.coverage.digest()
    assert restored.canonical() == report.canonical()


# ---------------------------------------------------------------- telemetry
def test_guided_campaign_journals_seeding_and_coverage_growth():
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        _guided()
    seeded = [e for e in sink.events if isinstance(e, CorpusSeeded)]
    grown = [e for e in sink.events if isinstance(e, CoverageGrown)]
    assert len(seeded) == 1 and seeded[0].entries > 0
    assert grown, "no CoverageGrown events journaled"
    assert grown[0].new_keys > 0
    assert grown[-1].total_keys >= grown[0].total_keys
    assert all(e.origin for e in grown)


# --------------------------------------------------------------------- yield
@pytest.fixture(scope="module")
def gapped_store(tmp_path_factory, library_program, interface):
    """A store serving the named ground-truth set: reproducibly misses the
    ``toArray``-style flows the taint-app family witnesses."""
    store = SpecStore(str(tmp_path_factory.mktemp("gapped-store")))
    record = seed_store(
        store, "ground_truth", library_program=library_program, interface=interface
    )
    return store, record.spec_id


def _first_divergence_index(report):
    for index, outcome in enumerate(report.outcomes):
        if outcome.diverged:
            return index
    return None


def test_seeded_guided_rediscovers_the_gap_within_budget(gapped_store):
    store, spec_id = gapped_store
    config = FuzzConfig(
        families=("taint-app",),
        budget=6,
        seed=1,
        pipeline="store",
        cross_check=False,
        sample=0,
        shrink=False,
        guided=True,
    )
    report = run_guided_fuzz(config, store=store, spec_id=spec_id, seed_corpus=GOLDEN_DIR)
    assert report.diverged, "guided campaign failed to rediscover the seeded gap"
    assert _first_divergence_index(report) == 0, (
        "the golden counterexample seed should diverge on the very first check"
    )
    signatures = {s for o in report.diverged for s in o.signatures()}
    assert any(s.startswith("missed-flow:store:") for s in signatures)
    # repair can ingest every guided divergence: the exact program rides along
    assert all(o.shrunk_program is not None for o in report.diverged)


def test_guided_beats_blind_on_the_gapped_store(gapped_store):
    store, spec_id = gapped_store
    guided_first, blind_first = [], []
    guided_found, blind_found = 0, 0
    for seed in (1, 2, 3, 4, 5):
        base = dict(
            families=("taint-app",),
            budget=10,
            seed=seed,
            pipeline="store",
            cross_check=False,
            sample=0,
            shrink=False,
        )
        guided = run_guided_fuzz(
            FuzzConfig(**base, guided=True),
            store=store,
            spec_id=spec_id,
            seed_corpus=GOLDEN_DIR,
        )
        blind_config = FuzzConfig(**base)
        blind = run_fuzz(
            blind_config,
            checker=build_checker(blind_config, store=store, spec_id=spec_id),
        )
        miss = base["budget"]  # a campaign that never diverges scores its budget
        g, b = _first_divergence_index(guided), _first_divergence_index(blind)
        guided_first.append(g if g is not None else miss)
        blind_first.append(b if b is not None else miss)
        guided_found += len(guided.diverged)
        blind_found += len(blind.diverged)
    assert statistics.median(guided_first) < statistics.median(blind_first), (
        f"guided first-divergence {guided_first} not ahead of blind {blind_first}"
    )
    assert guided_found >= blind_found, (
        f"guided found {guided_found} divergences, blind {blind_found}"
    )
