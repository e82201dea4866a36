"""The campaign scheduler: deterministic, family-rotating, store-targeted."""

import pytest

from repro.engine.events import CampaignFinished, CampaignStarted, CollectingSink
from repro.obs.trace import ambient_sink
from repro.plane import ALL_FAMILIES, CampaignScheduler, ScheduleConfig


def test_cycles_rotate_families_round_robin(tiny_store):
    scheduler = CampaignScheduler(tiny_store, config=ScheduleConfig(seed=9, budget=7))
    configs = [scheduler.campaign_config(cycle) for cycle in range(len(ALL_FAMILIES) + 2)]
    assert [c.families[0] for c in configs[: len(ALL_FAMILIES)]] == list(ALL_FAMILIES)
    # the rotation wraps
    assert configs[len(ALL_FAMILIES)].families == configs[0].families
    # each cycle is seeded from (base seed, cycle) and probes the store pipeline
    assert [c.seed for c in configs[:3]] == [9, 10, 11]
    assert all(c.pipeline == "store" and c.budget == 7 and c.sample == 0 for c in configs)


def test_campaign_config_is_deterministic(tiny_store):
    a = CampaignScheduler(tiny_store, config=ScheduleConfig(seed=3)).campaign_config(5)
    b = CampaignScheduler(tiny_store, config=ScheduleConfig(seed=3)).campaign_config(5)
    assert a == b


def test_guided_rotation_claims_every_nth_cycle(tiny_store):
    scheduler = CampaignScheduler(
        tiny_store, config=ScheduleConfig(seed=9, budget=7, guided_every=3)
    )
    configs = [scheduler.campaign_config(cycle) for cycle in range(7)]
    assert [c.guided for c in configs] == [False, False, False, True, False, False, True]
    guided = configs[3]
    # guided cycles search over the whole schedule, blind ones one family
    assert guided.families == ALL_FAMILIES
    assert guided.seed == 9 + 3 and guided.pipeline == "store" and guided.sample == 0
    assert all(len(c.families) == 1 for c in configs if not c.guided)


def test_guided_rotation_is_off_by_default(tiny_store):
    scheduler = CampaignScheduler(tiny_store, config=ScheduleConfig(seed=9))
    assert not any(scheduler.campaign_config(cycle).guided for cycle in range(12))


def test_empty_family_schedule_is_rejected(tiny_store):
    with pytest.raises(ValueError):
        CampaignScheduler(tiny_store, config=ScheduleConfig(families=()))


def test_run_campaign_emits_the_journal_trail(tiny_store, library_program, interface):
    scheduler = CampaignScheduler(
        tiny_store,
        config=ScheduleConfig(families=("alias-chains",), budget=2, seed=5, shrink=False),
        library_program=library_program,
        interface=interface,
    )
    spec_id = tiny_store.latest().spec_id
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        report = scheduler.run_campaign(spec_id, cycle=0)

    assert report.programs == 2
    started = sink.of_type(CampaignStarted)
    finished = sink.of_type(CampaignFinished)
    assert len(started) == 1 and len(finished) == 1
    assert started[0].spec_id == spec_id
    assert started[0].families == ("alias-chains",) and started[0].seed == 5
    assert finished[0].programs == 2
    assert finished[0].diverged == len(report.diverged)
