"""Command-line driver that regenerates every table and figure.

Usage::

    python -m repro.experiments.runner                 # quick preset, all experiments
    python -m repro.experiments.runner --preset full   # full 46-app evaluation
    python -m repro.experiments.runner fig9a fig9c     # only selected experiments
    python -m repro.experiments.runner --cache-dir .repro-cache --workers 4 --progress

``--cache-dir`` persists oracle answers across runs (a re-run with an
unchanged library executes zero witnesses); ``--workers N`` fans cluster
inference out to N worker processes; ``--progress`` streams engine telemetry
to stderr; ``--spec-store DIR`` loads learned specifications from (and stores
them into) a :class:`repro.service.store.SpecStore`, so a second evaluation
skips inference entirely.  The same knobs are honored from the environment as
``REPRO_CACHE_DIR``, ``REPRO_WORKERS``, and ``REPRO_SPEC_STORE``.

``--compact-cache`` rewrites the append-only oracle cache file without
superseded or malformed lines -- after the selected experiments, or as the
only action when no experiments are named.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext
from typing import Callable, Dict, List

from repro.engine import CacheCompacted, InferenceEngine, StreamSink
from repro.engine.cache import compact_cache_file
from repro.experiments import design_choices, fig8, fig9a, fig9b, fig9c, ground_truth_eval, spec_counts
from repro.experiments.config import (
    FULL_CONFIG,
    QUICK_CONFIG,
    ExperimentConfig,
    apply_engine_environment,
)
from repro.experiments.context import ExperimentContext
from repro.obs.trace import ambient_sink

EXPERIMENTS: Dict[str, Callable[[ExperimentContext], object]] = {
    "fig8": fig8.run,
    "fig9a": fig9a.run,
    "fig9b": fig9b.run,
    "fig9c": fig9c.run,
    "spec_counts": spec_counts.run,
    "ground_truth": ground_truth_eval.run,
    "design_choices": design_choices.run,
}


def run_experiments(names: List[str], config: ExperimentConfig, stream=sys.stdout) -> None:
    context = ExperimentContext(config)
    try:
        for name in names:
            runner = EXPERIMENTS[name]
            started = time.perf_counter()
            result = runner(context)
            elapsed = time.perf_counter() - started
            stream.write("\n" + "=" * 72 + "\n")
            stream.write(result.format_table())
            stream.write(f"\n({name} completed in {elapsed:.1f}s, preset {config.name!r})\n")
            stream.flush()
    finally:
        # the context owns the shared oracle caches, so it persists them
        context.flush_oracle_caches()


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's tables and figures.")
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=list(EXPERIMENTS) + [[]],
        help="experiments to run (default: all)",
    )
    parser.add_argument("--preset", choices=["quick", "full"], default="quick")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the persistent oracle cache (default: $REPRO_CACHE_DIR, else in-memory)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for cluster inference (default: $REPRO_WORKERS, else serial)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream engine progress events to stderr",
    )
    parser.add_argument(
        "--spec-store",
        default=None,
        help="SpecStore directory to load/store learned specifications (default: $REPRO_SPEC_STORE)",
    )
    parser.add_argument(
        "--compact-cache",
        action="store_true",
        help="compact the oracle cache file (after the run, or alone when no experiments are named)",
    )
    args = parser.parse_args(argv)

    config = apply_engine_environment(FULL_CONFIG if args.preset == "full" else QUICK_CONFIG)
    # explicit CLI flags win over the environment
    if args.cache_dir is not None:
        config = config.scaled(cache_dir=args.cache_dir)
    if args.workers is not None:
        config = config.scaled(workers=args.workers)
    if args.spec_store is not None:
        config = config.scaled(spec_store_dir=args.spec_store)

    compact_only = args.compact_cache and not args.experiments
    if not compact_only:
        names = list(args.experiments) or list(EXPERIMENTS)
        with ambient_sink(StreamSink(sys.stderr)) if args.progress else nullcontext():
            run_experiments(names, config)

    if args.compact_cache:
        if config.cache_dir is None:
            sys.stderr.write("--compact-cache: no cache directory configured, nothing to do\n")
            # a compact-only invocation did nothing useful; a completed
            # experiment run should not be turned into a failure
            return 1 if compact_only else 0
        stats = compact_cache_file(os.path.join(config.cache_dir, InferenceEngine.CACHE_FILENAME))
        StreamSink(sys.stderr).emit(CacheCompacted.from_stats(stats))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
