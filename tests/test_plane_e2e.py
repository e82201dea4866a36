"""End-to-end: the plane supervises a live daemon through a full deployment.

The acceptance story of the control plane, run for real twice over:

1. **Convergence.** A store seeded with the deliberately gapped ground-truth
   set serves a warm worker pool under continuous concurrent load while one
   ``ControlPlane`` cycle runs: the scheduled ``taint-app`` campaign at seed
   3 reproduces the legacy ``toArray`` gap, repair publishes a candidate
   (invisible to the live traffic), the canary replays the golden corpus
   and shadow-mirrors the live requests through the candidate, and the
   candidate is promoted and hot-swapped -- with every in-flight request
   answered, correctly, by whichever spec was serving at the time.

2. **Rollback.** A deliberately regressing candidate (the gapped base
   republished against the now-repaired incumbent) goes through the same
   gate and is rolled back automatically: the golden replay registers the
   lost witnessed flows, the incumbent keeps serving, and the journal holds
   the full lineage trail.
"""

import json
import threading

import pytest

from repro.engine.events import (
    CampaignFinished,
    CandidatePublished,
    CanaryFinished,
    CollectingSink,
    SpecPromoted,
    SpecReloaded,
    SpecRolledBack,
)
from repro.obs import JournalSink, add_ambient_sink, remove_ambient_sink
from repro.plane import ControlPlane, PlaneConfig, seed_store
from repro.plane.control import PROMOTED, ROLLED_BACK
from repro.server.procpool import ProcessWorkerPool
from repro.service.analyzer import ClientAnalyzer
from repro.service.api import AnalyzeRequest, SuiteSpec, run_request
from repro.service.store import STATE_CANDIDATE, SpecStore
from repro.testing import GOLDEN_DIR

#: one supervised cycle: the repair-e2e campaign (taint-app @ seed 3) plus
#: full-sampling shadow so a short load window yields enough comparisons
def _config():
    return PlaneConfig(
        families=("taint-app",),
        budget=10,
        seed=3,
        shadow_fraction=1.0,
        shadow_requests=3,
        shadow_timeout_seconds=60.0,
        golden_dir=GOLDEN_DIR,
    )


def _request():
    return AnalyzeRequest(suite=SuiteSpec(count=1, max_statements=30), include_timing=False)


class _Load:
    """Closed-loop client threads hammering the pool until stopped."""

    def __init__(self, pool, clients=2):
        self.pool = pool
        self.stop = threading.Event()
        self.responses = []
        self.failures = []
        self._lock = threading.Lock()
        self.threads = [
            threading.Thread(target=self._client, daemon=True) for _ in range(clients)
        ]

    def _client(self):
        while not self.stop.is_set():
            try:
                response = self.pool.submit(_request()).result(timeout=60)
                with self._lock:
                    self.responses.append(response)
            except Exception as error:  # noqa: BLE001 - a drop is the failure we assert on
                with self._lock:
                    self.failures.append(error)

    def __enter__(self):
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=60)


@pytest.fixture(scope="module")
def converged(tmp_path_factory, request):
    """Run the convergence cycle once; all three tests inspect its aftermath.

    The pool stays up for the whole module (the rollback test canaries a
    hand-published candidate against the same live daemon).
    """
    from repro.library.registry import build_library_program, build_spec_interface

    library_program = build_library_program()
    interface = build_spec_interface(library_program)
    root = tmp_path_factory.mktemp("plane-e2e")
    store = SpecStore(str(root / "specs"))
    base = seed_store(
        store, "ground_truth", library_program=library_program, interface=interface
    )

    journal_path = str(root / "journal.jsonl")
    sink = CollectingSink()
    # process-global: the pool's loop thread emits reloads and shadow diffs
    for ambient in (sink, JournalSink(journal_path)):
        add_ambient_sink(ambient)
        request.addfinalizer(lambda ambient=ambient: remove_ambient_sink(ambient))

    pool = ProcessWorkerPool(
        store,
        processes=2,
        queue_depth=64,
        library_program=library_program,
    )
    plane = ControlPlane(
        store,
        config=_config(),
        library_program=library_program,
        interface=interface,
        pool=pool,
    )
    pool.start()
    request.addfinalizer(pool.stop)
    with _Load(pool) as load:
        outcome = plane.run_once(cycle=0)
    return {
        "store": store,
        "base": base,
        "pool": pool,
        "plane": plane,
        "sink": sink,
        "journal_path": journal_path,
        "outcome": outcome,
        "load": load,
        "library_program": library_program,
        "interface": interface,
    }


def test_gap_detected_repaired_canaried_and_promoted(converged):
    outcome, sink, store = converged["outcome"], converged["sink"], converged["store"]
    base = converged["base"]

    assert outcome.status == PROMOTED
    assert outcome.diverged > 0, "seed 3 must reproduce the toArray gap"
    promoted = outcome.candidate
    assert promoted and promoted != base.spec_id

    # the campaign, candidate, canary, and promotion all left their trail
    assert sink.of_type(CampaignFinished)[0].diverged == outcome.diverged
    published = sink.of_type(CandidatePublished)
    assert len(published) == 1 and published[0].spec_id == promoted
    assert published[0].parent == base.spec_id
    canaries = sink.of_type(CanaryFinished)
    assert len(canaries) == 1 and canaries[0].passed
    assert canaries[0].golden_regressions == 0
    assert canaries[0].shadow_requests >= 3
    assert canaries[0].shadow_mismatches == 0
    promotions = sink.of_type(SpecPromoted)
    assert len(promotions) == 1 and promotions[0].spec_id == promoted

    # lineage: promoted -> seeded base, visible in store and outcome alike
    assert store.current_state(promoted) == "promoted"
    assert [r.spec_id for r in store.lineage(promoted)] == [promoted, base.spec_id]
    assert outcome.lineage == [promoted, base.spec_id]

    # the live pool was swapped within the cycle, not a poll-tick later
    assert converged["pool"].current_spec_id == promoted
    assert any(event.spec_id == promoted for event in sink.of_type(SpecReloaded))


def test_live_load_saw_zero_dropped_and_zero_incorrect_requests(converged):
    load, store = converged["load"], converged["store"]
    base, promoted = converged["base"], converged["outcome"].candidate
    library_program, interface = converged["library_program"], converged["interface"]

    assert not load.failures, f"dropped requests: {load.failures[:3]}"
    assert len(load.responses) > 0
    served_specs = {response.spec_id for response in load.responses}
    assert served_specs <= {base.spec_id, promoted}

    # every response matches an in-process run under the spec that served it
    expected = {}
    for spec_id in served_specs:
        analyzer = ClientAnalyzer.from_store(
            store, spec_id=spec_id, library_program=library_program, interface=interface
        )
        expected[spec_id] = run_request(_request(), analyzer).result.canonical()
    for response in load.responses:
        assert response.result.canonical() == expected[response.spec_id]


def test_regressing_candidate_is_rolled_back_with_lineage_journaled(converged):
    store, plane, sink = converged["store"], converged["plane"], converged["sink"]
    pool = converged["pool"]
    incumbent = store.latest()
    assert incumbent.spec_id == converged["outcome"].candidate

    # republishing the gapped base against the repaired incumbent is the
    # cleanest real regression: it provably loses the golden toArray flows
    from repro.repair.engine import RepairEngine

    engine = RepairEngine(
        store=store,
        library_program=converged["library_program"],
        interface=converged["interface"],
    )
    _, gapped = engine.resolve_base("ground_truth")
    bad = store.put(
        gapped,
        library_program=converged["library_program"],
        provenance={"kind": "test.regression", "parent": incumbent.spec_id},
        state=STATE_CANDIDATE,
    )
    with _Load(pool):  # live traffic for the shadow gate to mirror
        status, canary, decision = plane.evaluate(incumbent, bad)

    assert status == ROLLED_BACK
    assert not decision.promote
    assert canary.golden_regressions > 0
    assert any("golden" in reason for reason in decision.reasons)

    # the incumbent never stopped serving
    assert store.latest().spec_id == incumbent.spec_id
    assert store.current_state(bad.spec_id) == "rolled_back"
    assert pool.current_spec_id == incumbent.spec_id

    rollbacks = sink.of_type(SpecRolledBack)
    assert len(rollbacks) == 1
    assert rollbacks[0].spec_id == bad.spec_id
    assert rollbacks[0].restored_spec_id == incumbent.spec_id

    # the journal holds the whole deployment history, lineage included
    with open(converged["journal_path"], "r", encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle if line.strip()]
    kinds = [entry.get("event") for entry in entries]
    for expected_kind in (
        "CampaignStarted",
        "CandidatePublished",
        "CanaryFinished",
        "SpecPromoted",
        "SpecRolledBack",
    ):
        assert expected_kind in kinds, expected_kind
    # and the store's own trail reconstructs the lineage chain end to end
    assert [r.spec_id for r in store.lineage(bad.spec_id)] == [
        bad.spec_id,
        incumbent.spec_id,
        converged["base"].spec_id,
    ]
