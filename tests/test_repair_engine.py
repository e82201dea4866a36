"""RepairEngine properties: no-op, idempotence, determinism, cache reuse.

One seeded taint-app campaign against the deliberately incomplete
handwritten specification set provides real divergences; every test here
repairs from that shared report.  The properties pinned are the ISSUE's
acceptance criteria: an empty divergence list is a byte-identical no-op, a
second repair pass finds nothing to do, parallel repair is bit-identical to
serial, and a warm oracle cache makes a repeated repair execute zero
interpreter witnesses.
"""

import json

import pytest

from repro.cli import main
from repro.diff.runner import FuzzConfig, FuzzReport, run_fuzz
from repro.engine.events import (
    CollectingSink,
    MethodRelearned,
    RepairStarted,
    RepairVerified,
    SpecRepaired,
)
from repro.engine.persist import fsa_equal, fsa_to_dict
from repro.library.handwritten import handwritten_fsa
from repro.obs.trace import ambient_sink
from repro.repair import RepairEngine
from repro.repair.engine import RepairConfig
from repro.service.store import SpecStore

CAMPAIGN = FuzzConfig(
    families=("taint-app",),
    budget=8,
    seed=3,
    pipeline="handwritten",
    cross_check=False,
    sample=0,
)


@pytest.fixture(scope="module")
def handwritten_report():
    return run_fuzz(CAMPAIGN, golden_out=None)


def _engine(tmp_path, name="specs", **kwargs):
    return RepairEngine(store=SpecStore(str(tmp_path / name)), **kwargs)


def test_empty_divergence_list_is_a_noop(tmp_path, library_program):
    report = FuzzReport(config=CAMPAIGN, outcomes=[], executor="serial")
    engine = _engine(tmp_path)
    outcome = engine.repair(report)
    assert outcome.no_op
    assert outcome.record is None
    assert len(engine.store) == 0, "the store must gain no version"
    assert fsa_to_dict(outcome.fsa) == fsa_to_dict(handwritten_fsa()), "FSA must be byte-identical"


def test_repair_publishes_a_verified_version_with_provenance(tmp_path, handwritten_report):
    engine = _engine(tmp_path)
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        outcome = engine.repair(handwritten_report, verify=True)

    assert not outcome.no_op
    assert outcome.plan.divergences and not outcome.plan.unrepairable
    assert all(divergence.repaired for divergence in outcome.plan.divergences)
    assert outcome.verified and not outcome.verification.diverged

    # the published version carries the counterexamples that drove it
    record = engine.store.record(outcome.record.spec_id)
    assert record.version == 1
    provenance = record.provenance
    assert provenance["kind"] == "repro.repair/1"
    assert provenance["base"] == "handwritten"
    assert provenance["campaign"] == {"families": ["taint-app"], "budget": 8, "seed": 3}
    assert len(provenance["counterexamples"]) == len(handwritten_report.diverged)
    assert all(entry["words"] for entry in provenance["counterexamples"])

    # the repaired automaton covers the base language plus the new words
    base = handwritten_fsa()
    for divergence in outcome.plan.divergences:
        assert any(outcome.fsa.accepts(word) for word in divergence.words)
        assert not any(base.accepts(word) for word in divergence.words)

    # telemetry: one start, one relearn per cluster, one publish, one verify
    assert len(sink.of_type(RepairStarted)) == 1
    assert len(sink.of_type(MethodRelearned)) == len(outcome.repairs)
    assert len(sink.of_type(SpecRepaired)) == 1
    verified = sink.of_type(RepairVerified)
    assert len(verified) == 1 and verified[0].clean


def test_second_repair_pass_is_idempotent(tmp_path, handwritten_report):
    engine = _engine(tmp_path)
    first = engine.repair(handwritten_report, verify=True)
    assert first.record is not None and len(engine.store) == 1

    # the re-fuzzed report is clean, so repairing it must change nothing
    second = engine.repair(first.verification)
    assert second.no_op
    assert second.record is None
    assert len(engine.store) == 1, "no new version on an idempotent pass"
    assert fsa_equal(second.fsa, engine.store.get(first.record.spec_id).fsa)


def test_parallel_repair_is_bit_identical_to_serial(tmp_path, handwritten_report):
    serial = _engine(tmp_path, name="serial").repair(handwritten_report)
    parallel = _engine(
        tmp_path, name="parallel", config=RepairConfig(workers=4)
    ).repair(handwritten_report)
    assert serial.executor == "serial" and parallel.executor == "parallel"
    assert serial.canonical() == parallel.canonical()
    assert serial.record.fsa_states == parallel.record.fsa_states
    assert serial.record.num_positives == parallel.record.num_positives


def test_warm_cache_repair_executes_zero_witnesses(tmp_path, handwritten_report):
    cache_dir = str(tmp_path / "cache")
    cold = _engine(tmp_path, name="cold", cache_dir=cache_dir).repair(handwritten_report)
    assert cold.oracle_stats.executions > 0

    warm = _engine(tmp_path, name="warm", cache_dir=cache_dir).repair(handwritten_report)
    assert warm.oracle_stats.executions == 0, "every oracle answer must come from the cache"
    assert warm.oracle_stats.cache_hits == warm.oracle_stats.queries
    assert warm.canonical() == cold.canonical(), "caching must not change the repair"


def test_repair_ingests_the_report_json_document(tmp_path, handwritten_report):
    document = handwritten_report.to_dict()
    from_object = _engine(tmp_path, name="object").repair(handwritten_report)
    from_json = _engine(tmp_path, name="json").repair(json.loads(json.dumps(document)))
    assert from_object.canonical() == from_json.canonical()


def test_spurious_flows_are_reported_but_never_repaired(handwritten_report):
    payload = handwritten_report.to_dict()
    assert "spurious" in payload, "spurious flows are a first-class report section"
    section = payload["spurious"]
    assert set(section) == {"by_pipeline", "programs", "flows"}
    assert section["by_pipeline"] == handwritten_report.spurious_totals()
    assert section["flows"] == sum(section["by_pipeline"].values())
    assert payload["summary"]["spurious_flows"] == section["flows"]


def test_cli_repair_subcommand_closes_the_loop(tmp_path, handwritten_report, capsys):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(handwritten_report.to_dict()))
    store = tmp_path / "cli-store"
    out = tmp_path / "outcome.json"
    code = main(
        [
            "repair",
            "--report", str(report_path),
            "--store", str(store),
            "--verify",
            "--out", str(out),
        ]
    )
    assert code == 0
    outcome = json.loads(out.read_text())
    assert outcome["summary"]["verified"] is True
    assert outcome["summary"]["verification_divergences"] == 0
    assert SpecStore(str(store)).latest() is not None


def test_cli_fuzz_repair_one_command_closed_loop(tmp_path):
    store = tmp_path / "loop-store"
    out = tmp_path / "loop-report.json"
    code = main(
        [
            "fuzz",
            "--families", "taint-app",
            "--budget", "8",
            "--seed", "3",
            "--pipeline", "handwritten",
            "--no-cross-check",
            "--sample", "0",
            "--no-golden",
            "--repair",
            "--repair-store", str(store),
            "--out", str(out),
        ]
    )
    assert code == 0, "the closed loop must converge"
    record = SpecStore(str(store)).latest()
    assert record is not None and record.provenance["base"] == "handwritten"
