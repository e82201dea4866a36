"""The candidate -> promoted / rolled-back state machine and its event trail.

Covers the lifecycle layer in isolation: promotion is candidate-only and
re-verifies the payload (a tampered candidate is auto-rolled-back, never
served), rollback restores the predecessor and reports it, and
``seed_store`` bootstraps a servable version-1 store from a named spec set.
"""

import json

import pytest

from repro.engine.events import CollectingSink, SpecPromoted, SpecRolledBack
from repro.obs.trace import ambient_sink
from repro.plane import PromotionError, SpecLifecycle, seed_store
from repro.service.store import (
    STATE_CANDIDATE,
    STATE_PROMOTED,
    STATE_ROLLED_BACK,
    SpecStore,
)


@pytest.fixture
def lifecycle(tiny_store):
    return SpecLifecycle(tiny_store)


@pytest.fixture
def trail():
    """The events this test's thread emits."""
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        yield sink


def _publish_candidate(store, tiny_atlas_result, library_program, parent=None):
    return store.put(
        tiny_atlas_result,
        library_program=library_program,
        provenance={"parent": parent} if parent else None,
        state=STATE_CANDIDATE,
    )


def test_promote_requires_a_candidate(lifecycle, tiny_store):
    active = tiny_store.latest()
    with pytest.raises(PromotionError) as excinfo:
        lifecycle.promote(active.spec_id)
    assert not excinfo.value.rolled_back
    # a failed precondition leaves the state untouched
    assert tiny_store.current_state(active.spec_id) == "active"


def test_promote_makes_candidate_servable_and_emits_trail(
    lifecycle, trail, tiny_store, tiny_atlas_result, library_program
):
    incumbent = tiny_store.latest()
    candidate = _publish_candidate(
        tiny_store, tiny_atlas_result, library_program, parent=incumbent.spec_id
    )
    assert lifecycle.candidates() == (candidate,)
    assert tiny_store.latest().spec_id == incumbent.spec_id  # still unserved

    record = lifecycle.promote(candidate.spec_id)

    assert record.spec_id == candidate.spec_id
    assert tiny_store.current_state(candidate.spec_id) == STATE_PROMOTED
    assert tiny_store.latest().spec_id == candidate.spec_id
    assert lifecycle.candidates() == ()
    promoted = trail.of_type(SpecPromoted)
    assert len(promoted) == 1
    assert promoted[0].spec_id == candidate.spec_id
    assert promoted[0].parent == incumbent.spec_id


def test_tampered_candidate_is_rejected_and_rolled_back(
    lifecycle, trail, tiny_store, tiny_atlas_result, library_program
):
    incumbent = tiny_store.latest()
    candidate = _publish_candidate(tiny_store, tiny_atlas_result, library_program)

    # tamper with the payload between publish and promotion
    path = tiny_store.spec_path(candidate.spec_id)
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["injected"] = "backdoor"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)

    with pytest.raises(PromotionError) as excinfo:
        lifecycle.promote(candidate.spec_id)

    assert excinfo.value.rolled_back
    assert tiny_store.current_state(candidate.spec_id) == STATE_ROLLED_BACK
    assert tiny_store.latest().spec_id == incumbent.spec_id  # incumbent keeps serving
    rollbacks = trail.of_type(SpecRolledBack)
    assert len(rollbacks) == 1
    assert rollbacks[0].spec_id == candidate.spec_id
    assert "integrity" in rollbacks[0].reason
    assert rollbacks[0].restored_spec_id == incumbent.spec_id
    assert trail.of_type(SpecPromoted) == []


def test_rollback_reports_the_restored_predecessor(
    lifecycle, tiny_store, tiny_atlas_result, library_program
):
    incumbent = tiny_store.latest()
    newer = tiny_store.put(tiny_atlas_result, library_program=library_program)
    record, restored = lifecycle.rollback(newer.spec_id, reason="operator")
    assert record.spec_id == newer.spec_id
    assert restored.spec_id == incumbent.spec_id
    assert tiny_store.transitions(newer.spec_id)[-1]["reason"] == "operator"


def test_seed_store_publishes_a_servable_gapped_base(tmp_path, library_program, interface):
    store = SpecStore(str(tmp_path / "seeded"))
    record = seed_store(
        store, "ground_truth", library_program=library_program, interface=interface
    )
    assert record.version == 1
    assert record.provenance["kind"] == "repro.plane.seed/1"
    assert record.parent is None  # a lineage root
    assert store.latest().spec_id == record.spec_id  # born servable
    assert store.verify_spec(record.spec_id)
