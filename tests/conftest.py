"""Shared fixtures for the test suite.

The fixture bodies live in :mod:`repro.testing`, shared with the benchmark
harness (``benchmarks/conftest.py``); only the ``sys.path`` bootstrap -- which
must run before ``repro`` is importable -- stays here.
"""

from __future__ import annotations

import os
import sys

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.testing import (  # noqa: E402,F401 - fixtures discovered via this namespace
    core,
    framework_program,
    fresh_ground_truth_analyzer,
    global_sink,
    ground_truth_analyzer,
    handwritten_analyzer,
    implementation_analyzer,
    interface,
    library_program,
    null_oracle,
    oracle,
    tiny_atlas_result,
    tiny_store,
    wait_until,
)
