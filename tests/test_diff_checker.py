"""Tests for the differential checker and its pipelines."""

import dataclasses

import pytest

from repro.diff.checker import (
    CRASH,
    ENGINE_MISMATCH,
    MISSED_FLOW,
    DifferentialChecker,
    Divergence,
    build_pipeline_analyzer,
    reference_flows,
)
from repro.diff.families import generate_scenario
from repro.lang.builder import ClassBuilder, MethodBuilder
from repro.lang.program import Program


def _program(build, name="CheckApp"):
    app = ClassBuilder(name)
    method = MethodBuilder("handler1", is_static=True)
    build(method)
    app.add_method(method)
    return Program([app.build()])


def _linked_list_leak(m):
    """A flow the handwritten specification set famously cannot see."""
    m.new("mgr", "SmsInbox")
    m.call("secret", "mgr", "readMessages")
    m.new("list", "LinkedList")
    m.call(None, "list", "add", "secret")
    m.call("out", "list", "getFirst")
    m.new("log", "Logger")
    m.call(None, "log", "leak", "out")


def test_sound_pipelines_agree_with_the_ground_truth(
    ground_truth_analyzer, implementation_analyzer, library_program
):
    checker = DifferentialChecker(
        {"ground_truth": ground_truth_analyzer, "implementation": implementation_analyzer},
        library_program=library_program,
    )
    outcome = checker.check_program(_program(_linked_list_leak), "CheckApp")
    assert not outcome.diverged
    assert len(outcome.concrete) == 1
    assert set(outcome.flows) == {"ground_truth", "implementation"}
    for flows in outcome.flows.values():
        assert set(outcome.concrete) <= set(flows)


def test_handwritten_pipeline_diverges_on_linked_list(
    handwritten_analyzer, library_program
):
    checker = DifferentialChecker(
        {"handwritten": handwritten_analyzer}, library_program=library_program
    )
    outcome = checker.check_program(_program(_linked_list_leak), "CheckApp")
    assert outcome.diverged
    kinds = {divergence.kind for divergence in outcome.divergences}
    assert kinds == {MISSED_FLOW}
    assert outcome.signatures() == (
        "missed-flow:handwritten:SmsInbox.readMessages->Logger.leak",
    )


def test_spurious_static_flows_are_telemetry_not_divergences(
    ground_truth_analyzer, library_program
):
    def strange_box(m):
        m.new("mgr", "SmsInbox")
        m.call("secret", "mgr", "readMessages")
        m.new("box", "StrangeBox")
        m.call(None, "box", "set", "secret")
        m.call("out", "box", "get")
        m.new("log", "Logger")
        m.call(None, "log", "leak", "out")

    checker = DifferentialChecker(
        {"ground_truth": ground_truth_analyzer}, library_program=library_program
    )
    outcome = checker.check_program(_program(strange_box), "CheckApp")
    # the flow-insensitive spec reports the flow; the concrete run cannot
    assert outcome.concrete == ()
    assert not outcome.diverged
    assert outcome.spurious["ground_truth"] >= 1


def test_crash_is_its_own_divergence_kind(ground_truth_analyzer, library_program):
    def crashing(m):
        m.call("oops", "undefined", "get")

    checker = DifferentialChecker(
        {"ground_truth": ground_truth_analyzer}, library_program=library_program
    )
    outcome = checker.check_program(_program(crashing), "CheckApp")
    assert outcome.diverged
    assert outcome.divergences[0].kind == CRASH
    assert outcome.divergences[0].pipeline == "concrete"


def test_check_scenario_carries_family_metadata(ground_truth_analyzer, library_program):
    checker = DifferentialChecker(
        {"ground_truth": ground_truth_analyzer}, library_program=library_program
    )
    scenario = generate_scenario("MetaApp", "nested-containers", 42)
    outcome = checker.check(scenario)
    assert outcome.name == "MetaApp"
    assert outcome.family == "nested-containers"
    assert outcome.seed == 42
    assert outcome.statements == scenario.statements


def test_divergence_round_trips_through_dicts():
    divergence = Divergence(kind=MISSED_FLOW, pipeline="handwritten", detail="x")
    assert Divergence.from_dict(divergence.to_dict()) == divergence


def test_build_pipeline_analyzer_modes(library_program, interface, tiny_store):
    for mode in ("ground_truth", "handwritten", "implementation"):
        analyzer = build_pipeline_analyzer(
            mode, library_program=library_program, interface=interface
        )
        assert analyzer.spec_id == mode
    stored = build_pipeline_analyzer(
        "store", library_program=library_program, interface=interface, store=tiny_store
    )
    assert stored.spec_id == tiny_store.latest().spec_id
    with pytest.raises(ValueError, match="unknown pipeline mode"):
        build_pipeline_analyzer("nope", library_program=library_program, interface=interface)
    with pytest.raises(ValueError, match="needs a SpecStore"):
        build_pipeline_analyzer("store", library_program=library_program, interface=interface)


class _SkewedAnalyzer:
    """Wraps a pipeline so its reports drop one flow and fabricate another."""

    def __init__(self, inner):
        self.inner = inner
        self.base_program = inner.base_program
        self.dropped = None
        self.fabricated = None

    def analyze_program(self, program, name, points_to_observer=None):
        report = self.inner.analyze_program(
            program, name, points_to_observer=points_to_observer
        )
        self.dropped = report.flows[0]
        self.fabricated = dataclasses.replace(
            self.dropped, sink_statement_index=self.dropped.sink_statement_index + 100
        )
        flows = tuple(
            sorted(set(report.flows[1:]) | {self.fabricated}, key=dataclasses.astuple)
        )
        return dataclasses.replace(report, flows=flows)


def _engine_mismatches(outcome):
    return [d for d in outcome.divergences if d.kind == ENGINE_MISMATCH]


def test_engine_check_reports_mismatches_in_both_directions(
    ground_truth_analyzer, library_program
):
    program = _program(_linked_list_leak)
    skewed = _SkewedAnalyzer(ground_truth_analyzer)
    checker = DifferentialChecker(
        {"ground_truth": skewed}, library_program=library_program, engine_check=True
    )
    outcome = checker.check_program(program, "CheckApp")
    assert skewed.dropped in reference_flows(ground_truth_analyzer, program)
    mismatches = _engine_mismatches(outcome)
    assert len(mismatches) == 2
    missing, extra = mismatches
    assert (missing.detail, missing.flow) == ("missing from compiled solver", skewed.dropped)
    assert (extra.detail, extra.flow) == ("extra in compiled solver", skewed.fabricated)
    assert {missing.pipeline, extra.pipeline} == {"ground_truth"}

    # the honest analyzer agrees with its oracle; without the check, nothing runs
    for analyzer, engine_check in ((ground_truth_analyzer, True), (skewed, False)):
        checker = DifferentialChecker(
            {"ground_truth": analyzer},
            library_program=library_program,
            engine_check=engine_check,
        )
        assert _engine_mismatches(checker.check_program(program, "CheckApp")) == []
