"""Inspect inferred specifications for the collection classes.

Runs Atlas on a few collection clusters through the execution engine,
prints the inferred path specification language, compares it against the
ground truth, and shows the generated code fragments for one class.

Inference runs through :class:`repro.engine.InferenceEngine`: set
``REPRO_CACHE_DIR`` to persist oracle answers across invocations (a re-run
with an unchanged library executes zero witnesses) and ``REPRO_WORKERS`` to
fan cluster inference out to worker processes.

Run with::

    python examples/inspect_specifications.py [ArrayList LinkedList ...]
    REPRO_CACHE_DIR=.repro-cache python examples/inspect_specifications.py
"""

import sys

from repro.engine import InferenceEngine, StreamSink
from repro.experiments.config import engine_overrides_from_environment
from repro.experiments.spec_metrics import compare_languages, covered_functions
from repro.lang import pretty_class
from repro.learn import AtlasConfig
from repro.library import build_interface, build_library_program, ground_truth_fsa
from repro.obs import ambient_sink


def main() -> None:
    classes = sys.argv[1:] or ["ArrayList"]
    library = build_library_program()
    interface = build_interface(library)

    clusters = [(name, "Iterator") for name in classes]
    config = AtlasConfig(clusters=clusters, enumeration_budget=15_000, seed=11)
    overrides = engine_overrides_from_environment()
    engine = InferenceEngine(
        cache_dir=overrides.get("cache_dir"), workers=overrides.get("workers", 0)
    )
    with ambient_sink(StreamSink(sys.stderr)):
        result = engine.run(config, library_program=library, interface=interface)

    print(f"inference over clusters {clusters}")
    stats = result.oracle_stats
    print(
        f"  oracle: {stats.queries} queries, {stats.executions} witness executions, "
        f"{100 * stats.hit_rate:.1f}% cache hits"
    )
    print(f"  positive examples: {len(result.positives)}")
    print(f"  FSA states: {result.initial_fsa_states} -> {result.final_fsa_states}")
    print(f"  functions covered: {len(result.covered_functions())}")

    print("\ninferred path specifications (up to 3 calls):")
    for word in sorted(result.fsa.enumerate_words(6), key=lambda w: (len(w), str(w)))[:25]:
        print("   ", " ".join(str(v) for v in word))

    truth = ground_truth_fsa(classes)
    comparison = compare_languages(result.fsa, truth)
    print(
        f"\nagainst ground truth for {classes}: "
        f"precision {100 * comparison.precision:.1f}%, recall {100 * comparison.recall:.1f}%"
    )
    for word in comparison.missing_words[:5]:
        print("    missing:", " ".join(str(v) for v in word))

    target = classes[0]
    if result.spec_program.has_class(target):
        print(f"\ngenerated code-fragment specification for {target}:")
        print(pretty_class(result.spec_program.class_def(target)))


if __name__ == "__main__":
    main()
