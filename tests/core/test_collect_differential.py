"""Differential suite: training collection vs the path it replaced.

Collection seeds random streams on first draw, builds a retry schedule
only when an attempt fails, derives each plan point once and fingerprints
each record once.  :mod:`tests.core.collect_reference` keeps the path it
replaced.  The claim is that no simulated number moves: every stream has
the same label and every draw happens in the same order, so the database
is byte-identical (``json.dumps(database.to_payload())``) and the
campaign bills the same ``run_seconds`` and ``run_cost``.  The suite
checks it for top-m 3 to 7 on

* the default platform (no platform faults: the ``fault`` streams are
  never drawn);
* a platform whose connection-failure model is on, so every run draws
  its ``fault`` stream;
* the default platform under an active fault plan: errors at
  ``training.measure`` (retries that back off on a recorded schedule,
  and one point that exhausts them) and errors, latency spikes and
  corruption at ``iosim.run``;

and also checks the PB screening effects, plan construction, and a plan
built directly from raw, unclamped grid points.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro.cloud.platform import DEFAULT_PLATFORM
from repro.cloud.variability import FaultInjector as PlatformFaults
from repro.core.database import TrainingDatabase
from repro.core.training import DEFAULT_FIXED_VALUES, TrainingCollector, TrainingPlan
from repro.pb.ranking import screen_parameters
from repro.reliability import FaultInjector, FaultPlan, FaultRule, use_injector
from repro.reliability.retry import BackoffPolicy, Retry
from repro.space.parameters import parameter_by_name

from tests.core.collect_reference import (
    ReferenceCollector,
    ReferenceDatabase,
    ReferenceRetry,
    eager_streams,
    reference_plan,
    reference_screening,
)

FAULTY_PLATFORM = dataclasses.replace(
    DEFAULT_PLATFORM, faults=PlatformFaults(enabled=True)
)
PLATFORMS = {"default": DEFAULT_PLATFORM, "platform-faults": FAULTY_PLATFORM}
TOP_M = (3, 4, 5, 6, 7)

#: Errors at ``training.measure`` shoot down the first point's five
#: attempts (it is skipped) and then one visit in five; ``iosim.run``
#: fails, stretches and corrupts a few runs, configuration and baseline
#: alike.
FAULT_PLAN = FaultPlan(
    rules=(
        FaultRule(site="training.measure", kind="error", max_hits=5),
        FaultRule(site="training.measure", kind="error", probability=0.2),
        FaultRule(site="iosim.run", kind="error", probability=0.05),
        FaultRule(site="iosim.run", kind="latency", probability=0.1, latency_s=3.0),
        FaultRule(site="iosim.run", kind="corrupt", probability=0.1, factor=1.5),
    ),
    seed=11,
)


@pytest.fixture(scope="module", params=sorted(PLATFORMS))
def screened(request):
    """(platform, the program's screening, the reference's screening)."""
    platform = PLATFORMS[request.param]
    with eager_streams():
        reference = reference_screening(platform)
    return platform, screen_parameters(platform=platform), reference


def _collect(plan, platform, retry=None):
    database = TrainingDatabase(platform.name)
    campaign = TrainingCollector(database, platform=platform, retry=retry).collect(plan)
    return database, campaign


def _reference_collect(plan, platform, retry=None):
    database = ReferenceDatabase(platform.name)
    with eager_streams():
        campaign = ReferenceCollector(database, platform=platform, retry=retry).collect(
            plan
        )
    return database, campaign


def _assert_same(got, want):
    (database, campaign), (ref_database, ref_campaign) = got, want
    assert json.dumps(database.to_payload()) == json.dumps(ref_database.to_payload())
    assert campaign.new_records == ref_campaign.new_records
    assert campaign.run_seconds == ref_campaign.run_seconds
    assert campaign.run_cost == ref_campaign.run_cost


def test_screening_matches(screened):
    _, screening, reference = screened
    assert screening.effects == reference.effects
    assert screening.response == reference.response
    assert screening.ranks == reference.ranks
    assert screening.run_seconds == reference.run_seconds
    assert screening.run_cost == reference.run_cost


@pytest.mark.parametrize("top_m", TOP_M)
def test_collection_matches(screened, top_m):
    platform, screening, _ = screened
    ranked = screening.ranked_names()
    plan = TrainingPlan.build(ranked, top_m)
    ref_plan = reference_plan(ranked, top_m)
    assert plan.points == ref_plan.points
    got = _collect(plan, platform)
    assert len(got[0]) == plan.size
    _assert_same(got, _reference_collect(ref_plan, platform))


@pytest.mark.parametrize("top_m", TOP_M)
def test_collection_under_a_fault_plan_matches(top_m):
    ranked = screen_parameters(platform=DEFAULT_PLATFORM).ranked_names()
    plan = TrainingPlan.build(ranked, top_m)
    slept, ref_slept = [], []
    policy = BackoffPolicy(max_retries=4)
    with use_injector(FaultInjector(FAULT_PLAN)) as injector:
        got = _collect(plan, DEFAULT_PLATFORM, Retry(policy, sleep=slept.append))
        hits = injector.hits()
    with use_injector(FaultInjector(FAULT_PLAN)) as injector:
        want = _reference_collect(
            plan, DEFAULT_PLATFORM, ReferenceRetry(policy, sleep=ref_slept.append)
        )
        assert injector.hits() == hits
    _assert_same(got, want)
    assert slept == ref_slept
    assert len(got[0]) < plan.size  # the first point exhausted its retries
    assert slept and all(delay > 0 for delay in slept)


def test_directly_built_plan_matches():
    """Raw grid points, unclamped and with duplicates, recorded realized."""
    ranked = screen_parameters(platform=DEFAULT_PLATFORM).ranked_names()
    swept = ranked[:4]
    points = []
    for combo in itertools.product(
        *(parameter_by_name(name).values for name in swept)
    ):
        values = dict(DEFAULT_FIXED_VALUES)
        values.update(zip(swept, combo))
        points.append(values)
    plan = TrainingPlan(ranked_names=tuple(ranked), top_m=4, points=tuple(points))
    got = _collect(plan, DEFAULT_PLATFORM)
    assert len(got[0]) < plan.size  # clamping merged some raw points
    _assert_same(got, _reference_collect(plan, DEFAULT_PLATFORM))
