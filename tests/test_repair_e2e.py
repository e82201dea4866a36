"""End-to-end: the closed loop converges on the paper's legacy toArray gap.

The acceptance scenario of the repair subsystem, run for real: the classic
``taint-app`` family fuzzed at seed 3 against the legacy specification set
(whose ``toArray`` idiom escapes it by design) yields divergences; repair
publishes a new SpecStore version; re-fuzzing the exact same seeds against
the repaired version yields **zero** divergences; and a running worker
pool hot-reloads the repaired version under in-flight load.
"""

import pytest

from repro.diff.runner import FuzzConfig, run_fuzz
from repro.engine.events import SpecCompiled, SpecReloaded
from repro.repair import RepairEngine
from repro.server.procpool import ProcessWorkerPool
from repro.service.api import AnalyzeRequest, SuiteSpec
from repro.service.store import SpecStore

#: the acceptance campaign: `repro fuzz --families taint-app --seed 3`
CAMPAIGN = FuzzConfig(families=("taint-app",), budget=10, seed=3, sample=1)


@pytest.fixture(scope="module")
def taint_report():
    return run_fuzz(CAMPAIGN, golden_out=None)


@pytest.fixture(scope="module")
def repaired(tmp_path_factory, taint_report):
    """One repair run shared by the convergence and hot-reload tests."""
    store = SpecStore(str(tmp_path_factory.mktemp("repair-e2e") / "specs"))
    engine = RepairEngine(store=store)
    outcome = engine.repair(taint_report, verify=True)
    return store, outcome


def test_campaign_reproduces_the_legacy_toarray_gap(taint_report):
    assert taint_report.diverged, "seed 3 must reproduce the known gap"
    assert {outcome.name for outcome in taint_report.diverged} == {
        "TaintApp0003",
        "TaintApp0009",
    }
    for outcome in taint_report.diverged:
        assert outcome.shrunk_program is not None
        assert outcome.shrunk_program.statement_count() <= 12


def test_closed_loop_converges_to_zero_divergences(taint_report, repaired):
    store, outcome = repaired
    assert not outcome.no_op
    assert outcome.record is not None and outcome.record.version == 1
    assert len(outcome.plan.repairable) == len(
        [d for o in taint_report.diverged for d in o.divergences if d.pipeline == "ground_truth"]
    )
    assert all(divergence.repaired for divergence in outcome.plan.divergences)

    # the verification pass re-fuzzed the *same* plan: same programs, zero misses
    assert outcome.verification is not None
    assert outcome.verification.programs == taint_report.programs
    assert len(outcome.verification.diverged) == 0
    assert outcome.verified

    # only the implicated clusters were re-learned, nothing else
    relearned = {classes for repair in outcome.repairs for classes in [repair.classes]}
    assert relearned == {("ArrayList", "ObjectArray"), ("LinkedList", "ObjectArray")}


def test_server_hot_reloads_the_repaired_spec_under_load(
    repaired, taint_report, tiny_atlas_result, library_program, wait_until, global_sink
):
    store, outcome = repaired
    repaired_id = outcome.record.spec_id

    # roll the store back in time: serve a pre-repair version first
    serving_store = SpecStore(store.root + "-serving")
    baseline = serving_store.put(tiny_atlas_result, library_program=library_program)

    sink = global_sink
    request = AnalyzeRequest(suite=SuiteSpec(count=1, max_statements=30), include_timing=False)
    pool = ProcessWorkerPool(
        serving_store, processes=2, queue_depth=64, library_program=library_program
    )
    with pool:
        first_wave = [pool.submit(request) for _ in range(6)]

        # the deploy: a repair into the served store, while requests are in flight
        engine = RepairEngine(store=serving_store)
        deploy = engine.repair(taint_report)
        assert deploy.record is not None
        assert pool.poll_once() is True
        assert pool.current_spec_id == deploy.record.spec_id

        second_wave = [pool.submit(request) for _ in range(6)]
        responses = [future.result(timeout=60) for future in first_wave + second_wave]

    # zero dropped; the swap was observed; post-swap traffic runs on the repair
    assert len(responses) == 12
    reloads = sink.of_type(SpecReloaded)
    assert len(reloads) == 1
    assert reloads[0].previous_spec_id == baseline.spec_id
    assert reloads[0].spec_id == deploy.record.spec_id
    assert responses[-1].spec_id == deploy.record.spec_id
    # workers compiled the repaired (array-crossing) automaton without help
    assert any(event.spec_id == deploy.record.spec_id for event in sink.of_type(SpecCompiled))
    # and the repaired deploy is the same automaton the verified repair built
    assert deploy.record.fsa_states == outcome.record.fsa_states
    assert repaired_id.split("-v")[0] == deploy.record.spec_id.split("-v")[0]
