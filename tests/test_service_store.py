"""Tests for the versioned specification store."""

import dataclasses
import json
import os

import pytest

from repro.engine import fsa_equal, program_fingerprint
from repro.lang.pretty import pretty_program
from repro.learn import AtlasConfig
from repro.service.store import (
    TRANSITION_FORMAT,
    SpecIntegrityError,
    SpecNotFoundError,
    SpecStore,
    config_digest,
)


@pytest.fixture
def store(tmp_path):
    return SpecStore(str(tmp_path / "specs"))


# ------------------------------------------------------------------ config digest
def test_config_digest_is_stable():
    config = AtlasConfig(clusters=[("Box",)], seed=7, enumeration_budget=2_000)
    same = AtlasConfig(clusters=[("Box",)], seed=7, enumeration_budget=2_000)
    assert config_digest(config) == config_digest(same)


def test_config_digest_changes_with_any_knob():
    config = AtlasConfig(clusters=[("Box",)], seed=7, enumeration_budget=2_000)
    digests = {config_digest(config)}
    for change in (
        {"enumeration_budget": 3_000},
        {"seed": 8},
        {"clusters": (("Box",), ("StrangeBox",))},
        {"initialization": "null"},
    ):
        digests.add(config_digest(dataclasses.replace(config, **change)))
    assert len(digests) == 5


# -------------------------------------------------------------------- round trip
def test_put_get_round_trip(store, tiny_atlas_result, library_program, interface):
    record = store.put(tiny_atlas_result, library_program=library_program)
    assert record.version == 1
    assert record.fingerprint == program_fingerprint(library_program)
    assert record.fsa_states == tiny_atlas_result.fsa.num_states
    assert record.num_positives == len(tiny_atlas_result.positives)

    reloaded = store.get(record.spec_id, interface=interface)
    assert fsa_equal(reloaded.fsa, tiny_atlas_result.fsa)
    assert reloaded.positives == tiny_atlas_result.positives
    # regeneration is deterministic: loading twice yields identical fragments
    again = store.get(record.spec_id, interface=interface)
    assert pretty_program(reloaded.spec_program) == pretty_program(again.spec_program)


def test_stored_specs_analyze_identically_to_fresh_ones(
    store, tiny_atlas_result, library_program, interface
):
    """What the service actually needs: stored specs answer taint queries
    exactly like the in-memory result they were stored from (the fragment
    programs may order statements differently, but Andersen is
    flow-insensitive, so the flows must agree)."""
    from repro.benchgen.suite import benchmark_suite
    from repro.service.analyzer import ClientAnalyzer

    record = store.put(tiny_atlas_result, library_program=library_program)
    reloaded = store.get(record.spec_id, interface=interface)
    fresh = ClientAnalyzer(tiny_atlas_result.spec_program, library_program=library_program)
    stored = ClientAnalyzer(reloaded.spec_program, library_program=library_program)
    for app in benchmark_suite(count=3, seed=11, max_statements=50, min_statements=30):
        assert (
            fresh.analyze_app(app).canonical() == stored.analyze_app(app).canonical()
        )


def test_put_requires_exactly_one_library_identity(store, tiny_atlas_result, library_program):
    with pytest.raises(ValueError):
        store.put(tiny_atlas_result)
    with pytest.raises(ValueError):
        store.put(tiny_atlas_result, library_program=library_program, fingerprint="fp")


# ------------------------------------------------------------------- versioning
def test_versions_accumulate_and_latest_wins(store, tiny_atlas_result, library_program):
    first = store.put(tiny_atlas_result, library_program=library_program)
    second = store.put(tiny_atlas_result, library_program=library_program)
    assert (first.version, second.version) == (1, 2)
    assert first.spec_id != second.spec_id
    assert len(store) == 2

    latest = store.latest(fingerprint=first.fingerprint)
    assert latest.spec_id == second.spec_id
    # the superseded version remains loadable
    assert store.get(first.spec_id) is not None


def test_different_configs_version_independently(store, tiny_atlas_result, library_program):
    store.put(tiny_atlas_result, library_program=library_program)
    other = dataclasses.replace(
        tiny_atlas_result, config=dataclasses.replace(tiny_atlas_result.config, seed=99)
    )
    record = store.put(other, library_program=library_program)
    assert record.version == 1  # a new key starts at v1
    assert store.latest(config_digest=record.config_digest).spec_id == record.spec_id
    assert len(store.list(config_digest=record.config_digest)) == 1


def test_put_skips_versions_claimed_by_a_concurrent_put(
    store, tiny_atlas_result, library_program
):
    first = store.put(tiny_atlas_result, library_program=library_program)
    # simulate a concurrent put that linked v2's payload but has not appended
    # its index line yet: the exclusive link must push us to v3, not clobber v2
    claimed = store.spec_path(first.spec_id.replace("-v1", "-v2"))
    open(claimed, "w").close()
    record = store.put(tiny_atlas_result, library_program=library_program)
    assert record.version == 3
    assert store.get(record.spec_id) is not None


def test_unknown_spec_raises(store):
    with pytest.raises(SpecNotFoundError):
        store.record("no-such-spec")
    assert store.latest() is None
    assert store.list() == []


# -------------------------------------------------------------------- integrity
def test_corrupted_payload_is_detected(store, tiny_atlas_result, library_program):
    record = store.put(tiny_atlas_result, library_program=library_program)
    path = store.spec_path(record.spec_id)
    with open(path, "r+", encoding="utf-8") as handle:
        payload = handle.read()
        handle.seek(0)
        handle.write(payload.replace('"initial"', '"inutile"', 1))
    with pytest.raises(SpecIntegrityError):
        store.get(record.spec_id)
    problems = store.verify()
    assert len(problems) == 1
    assert record.spec_id in problems[0]


def test_missing_payload_is_reported(store, tiny_atlas_result, library_program):
    record = store.put(tiny_atlas_result, library_program=library_program)
    os.unlink(store.spec_path(record.spec_id))
    with pytest.raises(SpecNotFoundError):
        store.get(record.spec_id)
    assert store.verify()


def test_fresh_store_verifies_clean(store, tiny_atlas_result, library_program):
    store.put(tiny_atlas_result, library_program=library_program)
    store.put(tiny_atlas_result, library_program=library_program)
    assert store.verify() == []


def test_truncated_index_line_is_skipped(store, tiny_atlas_result, library_program):
    record = store.put(tiny_atlas_result, library_program=library_program)
    with open(store.index_path, "ab") as handle:
        handle.write(b'{"spec_id": "\xff"}\n')  # not UTF-8
        transition = {"format": TRANSITION_FORMAT, "spec_id": ["x"], "state": "active"}
        foreign_record = dict(record.to_dict(), spec_id=["x"])
        for entry in (transition, foreign_record):  # unhashable spec ids
            handle.write(json.dumps(entry).encode("utf-8") + b"\n")
        handle.write(b'{"spec_id": "half-')  # interrupted put
    assert [entry.spec_id for entry in store.records()] == [record.spec_id]
    assert store.latest().spec_id == record.spec_id


def test_latest_reads_the_index_once(store, tiny_atlas_result, library_program, monkeypatch):
    record = store.put(tiny_atlas_result, library_program=library_program)
    reads = []
    read_index = SpecStore._read_index

    def counting(self):
        reads.append(self)
        return read_index(self)

    monkeypatch.setattr(SpecStore, "_read_index", counting)
    assert store.latest().spec_id == record.spec_id
    assert len(reads) == 1


def test_provenance_round_trips_and_legacy_records_load(
    store, tiny_atlas_result, library_program
):
    from repro.service.store import SpecRecord

    plain = store.put(tiny_atlas_result, library_program=library_program)
    provenance = {"kind": "repro.repair/1", "base": plain.spec_id, "counterexamples": []}
    repaired = store.put(
        tiny_atlas_result, library_program=library_program, provenance=provenance
    )

    records = {record.spec_id: record for record in store.records()}
    # a record written without provenance (every pre-repair index line) loads
    # with None; a repaired record carries its metadata through the index
    assert records[plain.spec_id].provenance is None
    assert records[repaired.spec_id].provenance == provenance
    # the wire encoding omits the field entirely when absent
    assert "provenance" not in plain.to_dict()
    assert SpecRecord.from_dict(repaired.to_dict()) == repaired


# ------------------------------------------------- experiments integration
def test_experiment_context_learns_once_then_loads(tmp_path, monkeypatch):
    from repro.experiments.config import QUICK_CONFIG
    from repro.experiments.context import ExperimentContext

    store_dir = str(tmp_path / "specs")
    config = QUICK_CONFIG.scaled(
        spec_store_dir=store_dir,
        atlas=AtlasConfig(clusters=[("Box",)], seed=7, enumeration_budget=2_000),
    )

    first = ExperimentContext(config)
    learned = first.atlas_result
    assert len(SpecStore(store_dir)) == 1

    second = ExperimentContext(config)
    # loading from the store must not re-run inference
    monkeypatch.setattr(
        second, "engine", lambda: pytest.fail("context re-learned despite a stored spec")
    )
    assert fsa_equal(second.atlas_result.fsa, learned.fsa)
    assert len(SpecStore(store_dir)) == 1


def test_spec_store_environment_override(monkeypatch):
    from repro.experiments.config import QUICK_CONFIG, apply_engine_environment

    monkeypatch.setenv("REPRO_SPEC_STORE", "/tmp/spec-store")
    config = apply_engine_environment(QUICK_CONFIG)
    assert config.spec_store_dir == "/tmp/spec-store"
