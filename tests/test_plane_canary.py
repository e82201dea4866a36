"""The two canary gates and the promotion policy.

Both gates are pinned on the two real analyzer pipelines whose relationship
is known by construction: ``ground_truth`` is complete over the library,
``handwritten`` is deliberately incomplete.  A candidate that *loses* flows
(handwritten standing in for a regressing repair) must fail both gates; a
candidate that only *gains* flows (ground truth judged against the
handwritten incumbent -- the shape of every real repair) must pass both
with its improvements recorded, because blocking on improvements would
mean no repair could ever promote.
"""

import pytest

from repro.engine.events import CollectingSink, ShadowCompared
from repro.obs.trace import ambient_sink
from repro.plane import PromotionPolicy, golden_replay, replay_shadow, run_canary
from repro.plane.canary import CanaryReport, GoldenReplay, ShadowSummary, diff_flows
from repro.service.api import AnalyzeRequest, SuiteSpec, run_request
from repro.testing import GOLDEN_DIR


def _requests(count=3):
    return [
        AnalyzeRequest(
            suite=SuiteSpec(count=2, seed=11 + index, max_statements=60),
            include_timing=False,
        )
        for index in range(count)
    ]


# ---------------------------------------------------------------- flow diffs
def test_diff_flows_is_directional(ground_truth_analyzer, handwritten_analyzer):
    request = _requests(1)[0]
    rich = run_request(request, ground_truth_analyzer)
    poor = run_request(request, handwritten_analyzer)

    regressed, improved = diff_flows(rich, poor)  # candidate drops flows
    assert regressed and not improved

    regressed, improved = diff_flows(poor, rich)  # candidate adds flows
    assert improved and not regressed

    assert diff_flows(rich, rich) == ([], [])  # identical responses


# -------------------------------------------------------------- golden replay
def test_golden_replay_catches_a_regressing_candidate(
    ground_truth_analyzer, handwritten_analyzer
):
    replay = golden_replay(ground_truth_analyzer, handwritten_analyzer, GOLDEN_DIR)
    assert replay.entries > 0
    assert replay.regressions, "losing witnessed flows must register as regressions"
    detail = replay.regressions[0]
    assert detail["program"] and detail["family"] and detail["lost_flows"]


def test_golden_replay_never_blocks_an_improving_candidate(
    ground_truth_analyzer, handwritten_analyzer
):
    replay = golden_replay(handwritten_analyzer, ground_truth_analyzer, GOLDEN_DIR)
    assert replay.regressions == []
    assert replay.improvements > 0  # the newly caught witnessed flows are counted


# ------------------------------------------------------------- shadow replay
def test_shadow_replay_flags_lost_flows_only(
    ground_truth_analyzer, handwritten_analyzer
):
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        summary = replay_shadow(ground_truth_analyzer, handwritten_analyzer, _requests())
    assert summary.compared == 3
    assert summary.mismatches > 0
    assert summary.errors == 0
    assert summary.details[0]["kind"] == "mismatch"
    compared = sink.of_type(ShadowCompared)
    assert len(compared) == 3
    assert sum(event.mismatches for event in compared) > 0

    improving = replay_shadow(handwritten_analyzer, ground_truth_analyzer, _requests())
    assert improving.mismatches == 0
    assert improving.improvements > 0


def test_shadow_replay_identical_specs_are_clean(ground_truth_analyzer):
    summary = replay_shadow(ground_truth_analyzer, ground_truth_analyzer, _requests(2))
    assert summary.compared == 2
    assert summary.mismatches == 0 and summary.improvements == 0 and summary.errors == 0


def test_shadow_crash_is_a_verdict_not_an_exception(
    ground_truth_analyzer, handwritten_analyzer
):
    class Exploding:
        spec_id = "boom"

        def analyze_program(self, *args, **kwargs):
            raise RuntimeError("candidate cannot compile")

    summary = replay_shadow(ground_truth_analyzer, Exploding(), _requests(2))
    assert summary.errors == 2
    assert summary.details[0]["kind"] == "error"


# ------------------------------------------------------------------- policy
def _report(golden=None, shadow=None):
    return CanaryReport(candidate="cand", incumbent="inc", golden=golden, shadow=shadow)


def test_policy_promotes_on_zero_regressions():
    report = _report(
        golden=GoldenReplay(entries=5, improvements=3),
        shadow=ShadowSummary(requests=4, sampled=4, compared=4, improvements=2),
    )
    decision = PromotionPolicy().decide(report)
    assert decision.promote
    assert decision.reason == "zero regressions"


@pytest.mark.parametrize(
    "golden,shadow,needle",
    [
        (GoldenReplay(entries=5, regressions=[{"program": "P"}]), ShadowSummary(), "golden"),
        (GoldenReplay(entries=5), ShadowSummary(compared=3, mismatches=1), "shadow mismatch"),
        (GoldenReplay(entries=5), ShadowSummary(compared=3, errors=2), "shadow error"),
    ],
)
def test_policy_rejects_each_regression_kind(golden, shadow, needle):
    decision = PromotionPolicy().decide(_report(golden=golden, shadow=shadow))
    assert not decision.promote
    assert any(needle in reason for reason in decision.reasons)


def test_policy_requires_golden_gate_by_default():
    decision = PromotionPolicy().decide(_report(golden=None, shadow=ShadowSummary()))
    assert not decision.promote
    relaxed = PromotionPolicy(require_golden=False).decide(
        _report(golden=None, shadow=ShadowSummary())
    )
    assert relaxed.promote


def test_policy_minimum_shadow_traffic_threshold():
    report = _report(golden=GoldenReplay(entries=1), shadow=ShadowSummary(compared=1))
    assert not PromotionPolicy(min_shadow_requests=3).decide(report).promote
    assert PromotionPolicy(min_shadow_requests=1).decide(report).promote


# ------------------------------------------------------------------ run_canary
def test_run_canary_combines_both_gates(ground_truth_analyzer, handwritten_analyzer):
    report = run_canary(
        ground_truth_analyzer,
        handwritten_analyzer,
        corpus_dir=GOLDEN_DIR,
        shadow_requests=_requests(2),
    )
    assert report.golden_regressions > 0
    assert report.shadow_requests == 2
    payload = report.to_dict()
    assert payload["golden"]["entries"] == report.golden.entries
    assert payload["shadow"]["compared"] == 2
