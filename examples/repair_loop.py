"""The closed loop: fuzz finds a spec gap, repair re-learns and re-proves it.

In-process equivalent of::

    repro fuzz --families taint-app --budget 10 --seed 3 --repair

The classic ``taint-app`` profile reproduces the paper's legacy ``toArray``
unsoundness against the ground-truth specification set; the repair engine
turns the shrunk counterexamples into targeted oracle words, re-learns only
the implicated clusters, publishes the repaired specification as a store
version, and re-fuzzes the exact same seeds to prove the gap is closed.

Run with::

    PYTHONPATH=src python examples/repair_loop.py
"""

import sys
import tempfile

from repro.diff import FuzzConfig, run_fuzz
from repro.engine import StreamSink
from repro.lang import pretty_program
from repro.obs import ambient_sink
from repro.repair import RepairEngine
from repro.service.store import SpecStore


def main() -> int:
    with ambient_sink(StreamSink(sys.stderr)):
        return loop()


def loop() -> int:
    # ------------------------------------------------------------------ 1. fuzz
    # The campaign that reproduces the known gap: every handler runs concretely
    # on the interpreter (ground truth) and statically through the ground-truth
    # specification pipeline; missed flows are shrunk to counterexamples.
    campaign = FuzzConfig(families=("taint-app",), budget=10, seed=3, sample=1)
    report = run_fuzz(campaign, golden_out=None)
    print(f"\ncampaign: {report.programs} programs, {len(report.diverged)} diverged")
    for outcome in report.diverged:
        print(f"\n--- counterexample {outcome.name} ({', '.join(outcome.signatures())})")
        print(pretty_program(outcome.shrunk_program))

    if not report.diverged:
        print("nothing to repair -- the stack is clean on this campaign")
        return 0

    # ---------------------------------------------------------------- 2. repair
    # Trace each counterexample, extract the words the automaton wrongly
    # rejects, re-learn the implicated clusters, publish, and re-fuzz.
    with tempfile.TemporaryDirectory() as workdir:
        store = SpecStore(f"{workdir}/specs")
        engine = RepairEngine(store=store, cache_dir=f"{workdir}/cache")
        outcome = engine.repair(report, verify=True)

        print(f"\nrepair base: {outcome.base}")
        for divergence in outcome.plan.divergences:
            words = " | ".join(
                " ".join(str(variable) for variable in word) for word in divergence.words
            )
            print(f"  {divergence.program}: {divergence.signature}")
            print(f"    word(s): {words or '(none: ' + divergence.reason + ')'}")
        for repair in outcome.repairs:
            print(
                f"  relearned {'+'.join(repair.classes)}: "
                f"{len(repair.result.positives)} positives, "
                f"{repair.result.fsa.num_states} states"
            )

        record = outcome.record
        print(
            f"\npublished {record.spec_id} (version {record.version}) -- provenance "
            f"names {len(record.provenance['counterexamples'])} counterexamples"
        )

        # ---------------------------------------------------------- 3. verified
        verification = outcome.verification
        print(
            f"re-fuzz of the repaired spec over the same {verification.programs} seeds: "
            f"{len(verification.diverged)} divergences"
        )
        if not outcome.verified:
            print("THE LOOP DID NOT CONVERGE")
            return 1
        print("the loop converged: the gap the fuzzer found no longer exists")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
