"""Tests for fuzz campaigns: determinism, parallel bit-identity, telemetry."""

import json

from repro.diff.corpus import COUNTEREXAMPLE, PASSING, load_corpus
from repro.diff.runner import FuzzConfig, build_checker, run_fuzz
from repro.engine.events import (
    CollectingSink,
    DivergenceShrunk,
    FuzzFinished,
    FuzzStarted,
    ProgramChecked,
)
from repro.obs.trace import ambient_sink


def _checker(analyzer, library_program, pipeline):
    from repro.diff.checker import DifferentialChecker

    return DifferentialChecker({pipeline: analyzer}, library_program=library_program)


def test_campaign_covers_all_default_families_and_emits_telemetry(
    ground_truth_analyzer, library_program
):
    config = FuzzConfig(budget=6, seed=7, cross_check=False, sample=2)
    checker = _checker(ground_truth_analyzer, library_program, "ground_truth")
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        report = run_fuzz(config, checker=checker)

    assert report.programs == 6
    assert report.families_covered() == (
        "alias-chains",
        "field-interleavings",
        "nested-containers",
    )
    assert not report.diverged
    assert len(report.golden) == 2
    assert [type(e) for e in sink.events[:1]] == [FuzzStarted]
    assert len(sink.of_type(ProgramChecked)) == 6
    assert len(sink.of_type(FuzzFinished)) == 1


def test_parallel_report_is_bit_identical_to_serial(ground_truth_analyzer, library_program):
    checker = _checker(ground_truth_analyzer, library_program, "ground_truth")
    serial = run_fuzz(FuzzConfig(budget=6, seed=11, cross_check=False, sample=3), checker=checker)
    parallel = run_fuzz(
        FuzzConfig(budget=6, seed=11, cross_check=False, sample=3, workers=2), checker=checker
    )
    assert json.dumps(serial.canonical(), sort_keys=True) == json.dumps(
        parallel.canonical(), sort_keys=True
    )
    assert serial.executor == "serial"
    assert parallel.executor == "parallel"


def test_handwritten_campaign_shrinks_and_freezes_counterexamples(
    handwritten_analyzer, library_program, tmp_path
):
    config = FuzzConfig(
        budget=4, seed=7, pipeline="handwritten", cross_check=False, sample=1
    )
    checker = _checker(handwritten_analyzer, library_program, "handwritten")
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        report = run_fuzz(config, checker=checker, golden_out=str(tmp_path))

    assert report.diverged, "the handwritten specs must miss some planted flow"
    assert not report.unshrunk
    for outcome in report.diverged:
        assert outcome.shrunk_program is not None
        assert outcome.shrunk_program.statement_count() < outcome.statements
    assert sink.of_type(DivergenceShrunk)

    entries = load_corpus(report.corpus_path)
    kinds = {entry.kind for entry in entries}
    assert COUNTEREXAMPLE in kinds and PASSING in kinds
    counterexamples = [entry for entry in entries if entry.kind == COUNTEREXAMPLE]
    assert len(counterexamples) == len(report.diverged)
    for entry in counterexamples:
        assert entry.divergence_signatures
        assert entry.program.statement_count() < 80


def test_no_shrink_leaves_divergent_programs_at_full_size(
    handwritten_analyzer, library_program
):
    config = FuzzConfig(
        budget=2, seed=7, pipeline="handwritten", cross_check=False, shrink=False, sample=0
    )
    checker = _checker(handwritten_analyzer, library_program, "handwritten")
    report = run_fuzz(config, checker=checker)
    assert report.diverged
    assert report.unshrunk == report.diverged


def test_report_dict_summarizes_the_campaign(ground_truth_analyzer, library_program):
    checker = _checker(ground_truth_analyzer, library_program, "ground_truth")
    report = run_fuzz(FuzzConfig(budget=3, seed=7, cross_check=False, sample=1), checker=checker)
    payload = report.to_dict()
    assert payload["format"] == "repro.diff.fuzz-report/1"
    assert payload["summary"]["programs"] == 3
    assert payload["summary"]["diverged"] == 0
    assert payload["summary"]["unshrunk"] == 0
    assert "elapsed_seconds" in payload["summary"]
    assert "elapsed_seconds" not in report.to_dict(include_timing=False)["summary"]


def test_build_checker_wires_cross_check(library_program, interface):
    checker = build_checker(
        FuzzConfig(pipeline="ground_truth", cross_check=True),
        library_program=library_program,
        interface=interface,
    )
    assert set(checker.analyzers) == {"ground_truth", "implementation"}
    solo = build_checker(
        FuzzConfig(pipeline="implementation", cross_check=True),
        library_program=library_program,
        interface=interface,
    )
    assert set(solo.analyzers) == {"implementation"}
