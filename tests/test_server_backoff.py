"""Store-poller backoff and the pool's shadow-mirror hook.

An unreadable spec store (unmounted volume, wrecked permissions) must slow
the poller down instead of hot-looping it at the fixed interval -- and the
first successful poll must snap straight back, so hot-reload promptness is
unchanged on a healthy store.  The shadow hook mirrors sampled unpinned
requests through a candidate strictly after the incumbent's response was
served: a shadow crash is a canary verdict, never a client-visible error.
"""

import random

import pytest

from repro.plane.canary import ShadowCanary
from repro.server.procpool import (
    POLL_BACKOFF_CAP_SECONDS,
    POLL_BACKOFF_JITTER,
    ProcessWorkerPool,
    poll_backoff_delay,
)
from repro.service.api import AnalyzeRequest, SuiteSpec


def _request(spec_id=None):
    return AnalyzeRequest(
        suite=SuiteSpec(count=1, max_statements=30), spec_id=spec_id, include_timing=False
    )


# ------------------------------------------------------------------- backoff
def test_healthy_store_polls_at_exactly_the_interval():
    rng = random.Random(0)
    assert poll_backoff_delay(2.0, 0, rng) == 2.0
    assert poll_backoff_delay(0.05, 0, rng) == 0.05


def test_backoff_doubles_then_caps_with_bounded_jitter():
    for failures in range(1, 12):
        rng = random.Random(failures)
        delay = poll_backoff_delay(2.0, failures, rng)
        base = min(2.0 * (2.0**failures), POLL_BACKOFF_CAP_SECONDS)
        assert base <= delay <= base * (1.0 + POLL_BACKOFF_JITTER)
    # a poll interval above the cap is never shortened by backoff
    slow = poll_backoff_delay(60.0, 3, random.Random(1))
    assert slow >= 60.0


def test_backoff_is_deterministic_given_the_rng():
    assert poll_backoff_delay(1.0, 4, random.Random(7)) == poll_backoff_delay(
        1.0, 4, random.Random(7)
    )


def test_poller_survives_an_unreadable_store_and_recovers(
    tiny_store, tiny_atlas_result, library_program, wait_until
):
    pool = ProcessWorkerPool(tiny_store, processes=1, library_program=library_program)
    original = pool.poll_once
    boom = {"on": True}

    def flaky_poll():
        if boom["on"]:
            raise OSError("store unreadable")
        return original()

    pool.poll_once = flaky_poll
    with pool:
        pool.start_polling(0.02)
        assert wait_until(lambda: pool.poll_failures >= 2)

        # the store heals; a new version lands; the poller must pick it up
        boom["on"] = False
        record = tiny_store.put(tiny_atlas_result, library_program=library_program)
        assert wait_until(lambda: pool.current_spec_id == record.spec_id, timeout=30)
        assert pool.poll_failures == 0
        pool.stop_polling()


# --------------------------------------------------------------- shadow hook
def test_shadow_mirrors_sampled_requests_without_touching_served_responses(
    tiny_store, library_program, wait_until
):
    spec_id = tiny_store.latest().spec_id
    pool = ProcessWorkerPool(tiny_store, processes=2, library_program=library_program)
    with pool:
        baseline = pool.submit(_request()).result(timeout=30)

        shadow = ShadowCanary(spec_id, fraction=1.0, seed=1)
        pool.set_shadow(shadow)
        futures = [pool.submit(_request()) for _ in range(4)]
        responses = [future.result(timeout=30) for future in futures]
        assert shadow.wait_for(4, timeout_seconds=30)
        pool.clear_shadow()
        assert pool.shadow is None

    # every client response was served by the incumbent, unchanged
    assert all(response.spec_id == spec_id for response in responses)
    assert all(
        response.result.canonical() == baseline.result.canonical()
        for response in responses
    )
    summary = shadow.summary()
    assert summary.requests == 4 and summary.sampled == 4 and summary.compared == 4
    # candidate == incumbent here, so the mirror must be squeaky clean
    assert summary.mismatches == 0 and summary.errors == 0


def test_pinned_requests_are_never_mirrored(tiny_store, library_program):
    spec_id = tiny_store.latest().spec_id
    pool = ProcessWorkerPool(tiny_store, processes=1, library_program=library_program)
    with pool:
        shadow = ShadowCanary(spec_id, fraction=1.0, seed=1)
        pool.set_shadow(shadow)
        pool.submit(_request(spec_id=spec_id)).result(timeout=30)
        pool.clear_shadow()
    summary = shadow.summary()
    assert summary.requests == 0 and summary.compared == 0


def test_shadow_crash_never_breaks_the_served_request(tiny_store, library_program, wait_until):
    pool = ProcessWorkerPool(tiny_store, processes=1, library_program=library_program)

    class ExplodingShadow:
        spec_id = "no-such-spec"

        def __init__(self):
            self.errors = []

        def sample(self):
            return True

        def observe(self, request, served, shadowed):  # pragma: no cover
            raise AssertionError("the mirror must fail before comparing")

        def observe_error(self, request, error):
            self.errors.append(error)

    shadow = ExplodingShadow()
    with pool:
        pool.set_shadow(shadow)
        response = pool.submit(_request()).result(timeout=30)
        # the mirror runs only after the served result shipped
        assert wait_until(lambda: shadow.errors, timeout=30)
        pool.clear_shadow()
    assert response.result is not None  # served fine despite the shadow crash
    assert len(shadow.errors) == 1


def test_shadow_fraction_validation():
    with pytest.raises(ValueError):
        ShadowCanary("spec", fraction=1.5)
