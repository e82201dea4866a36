"""Checks of the benchmark's own machinery (no daemon is started)."""

from __future__ import annotations

import json
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
for _path in (_SRC, _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.layers import LAYERS, UNATTRIBUTED, Hook, Installed, Tracer, replay  # noqa: E402
from perfbench.oracle import check_response, flows_digest, reference_flows  # noqa: E402
from perfbench.stats import tail_percentile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EDIT_APPEND,
    EDIT_CHAIN,
    EDIT_SESSIONS,
    doc_key,
    edit_chains,
    find_edit_chains,
    make_plan,
    program_of,
)


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    from repro.plane import seed_store
    from repro.service.api import AnalyzeRequest, resolve_analyzer
    from repro.service.store import SpecStore

    root = tmp_path_factory.mktemp("perfbench-store")
    store = SpecStore(str(root))
    seed_store(store, pipeline="ground_truth")
    analyzer = resolve_analyzer(AnalyzeRequest.from_dict({}), store)
    return str(root), analyzer


DOC = {"suite": {"count": 1, "seed": 100_007, "max_statements": 37}}


def _response_body(analyzer, doc) -> bytes:
    from repro.service.api import AnalyzeRequest, run_request

    response = run_request(AnalyzeRequest.from_dict(doc), analyzer)
    return json.dumps(response.to_dict(), separators=(",", ":")).encode("utf-8")


def test_reference_answer_accepts_the_served_response(seeded):
    _store, analyzer = seeded
    expected = flows_digest(reference_flows(program_of(DOC), analyzer.base_program))
    body = _response_body(analyzer, DOC)
    assert check_response(200, body, analyzer.spec_id, expected) is None


def test_corrupted_expected_answer_counts_as_failure(seeded):
    _store, analyzer = seeded
    flows = reference_flows(program_of(DOC), analyzer.base_program)
    assert flows, "the test program must report at least one flow"
    body = _response_body(analyzer, DOC)
    corrupted = [dict(flow) for flow in flows]
    corrupted[0]["sink_statement_index"] += 1
    for expected in (flows_digest(corrupted), flows_digest(flows[1:])):
        assert check_response(200, body, analyzer.spec_id, expected) is not None
    # a right answer under the wrong spec id, or any non-200, also fails
    good = flows_digest(flows)
    assert check_response(200, body, "another-spec-v1", good) is not None
    assert check_response(503, body, analyzer.spec_id, good) is not None
    assert check_response(200, b"{not json", analyzer.spec_id, good) is not None


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(15) == 100.0


def test_plans_follow_the_seed():
    assert make_plan("cold", 3, 2.0) == make_plan("cold", 3, 2.0)
    assert make_plan("cold", 3, 2.0).requests != make_plan("cold", 4, 2.0).requests
    cold = make_plan("cold", 5, 2.0)
    keys = [doc_key(doc) for doc in cold.warmup + cold.requests]
    assert len(keys) == len(set(keys))
    assert all(30 <= size <= 60 for _seed, size in keys)
    hit = make_plan("hit", 5, 2.0)
    assert {doc_key(doc) for doc in hit.requests} <= {doc_key(doc) for doc in hit.working_set}


def test_edit_sessions_append_to_one_program_at_a_time():
    from repro.lang.serialize import program_to_dict
    from repro.solve.delta import extension_starts

    plan = make_plan("edit", 2, 4.0)
    appends = 0
    for session in range(EDIT_SESSIONS):
        docs = plan.requests[session::EDIT_SESSIONS]
        for index, (old, new) in enumerate(zip(docs, docs[1:]), start=1):
            # every chain has EDIT_CHAIN versions: a cold start, then appends
            if index % EDIT_CHAIN == 0:
                assert doc_key(old)[0] != doc_key(new)[0]
                continue
            assert doc_key(old)[0] == doc_key(new)[0]
            old_program, new_program = program_of(old), program_of(new)
            assert extension_starts(program_to_dict(old_program), program_to_dict(new_program))
            added = new_program.statement_count() - old_program.statement_count()
            assert EDIT_APPEND[0] <= added <= EDIT_APPEND[1]
            appends += 1
    assert appends >= len(plan.requests) * 0.7


def test_shipped_edit_chains_are_what_the_search_finds():
    assert edit_chains(2) == find_edit_chains(2)


def test_vanished_hook_targets_are_reported_absent():
    import repro.service.api as api

    original = api.build_corpus
    installed = Installed(
        Tracer(),
        [
            Hook("gone.module", "repro.no_such_module", "anything"),
            Hook("gone.function", "repro.service.api", "no_such_function"),
            Hook("gone.method", "repro.solve.bitset", "BitsetCFLSolver.no_such_method"),
            Hook("service.api.build_corpus", "repro.service.api", "build_corpus"),
        ],
    )
    try:
        assert installed.absent == ["gone.module", "gone.function", "gone.method"]
        assert api.build_corpus is not original
    finally:
        installed.remove()
    assert api.build_corpus is original


def test_layer_self_times_add_up_to_the_traced_request(seeded, tmp_path):
    store, _analyzer = seeded
    docs = [DOC, {"suite": {"count": 1, "seed": 100_007, "max_statements": 41}}, DOC]
    bodies = [json.dumps(doc).encode("utf-8") for doc in docs]
    untraced, traced = replay(store, str(tmp_path), [], bodies, block=2)
    tracer = traced.tracer
    assert traced.absent == ()
    assert len(tracer.requests) == len(bodies)
    for row, total in zip(tracer.requests, tracer.totals):
        assert set(row) <= set(LAYERS)
        assert row[UNATTRIBUTED] >= 0.0
        assert sum(row.values()) == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert traced.outcomes == untraced.outcomes == {"cold": 1, "incremental": 1, "hit": 1}
    flows = [[json.loads(body)["reports"][0]["flows"] for body in r.bodies] for r in (untraced, traced)]
    assert flows[0] == flows[1]
