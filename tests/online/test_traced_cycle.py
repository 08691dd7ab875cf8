"""A retrain cycle with tracing live must not deadlock on the serve lock.

With telemetry enabled the coordinator serializes its span-emitting
phases under the (non-reentrant) serve lock, so any step inside them
that takes that lock again hangs the cycle — and every request behind
it.  The cycle runs in a thread with a join timeout, so a regression
fails the test instead of hanging the suite.
"""

from __future__ import annotations

import threading

from repro.core.objectives import Goal
from repro.online import (
    ContributionLog,
    OnlineConfig,
    OnlineCoordinator,
    ShadowGateConfig,
)
from repro.service.server import AcicService
from repro.telemetry import ManualClock, Telemetry

from tests.online.conftest import clone_database
from tests.online.test_coordinator import contribution_db


def test_traced_retrain_cycle_promotes(
    context, base_database, feature_names, contribution_records, tmp_path
):
    platform = context.platform.name
    service = AcicService(feature_names=feature_names, telemetry=Telemetry())
    service.host_database(clone_database(base_database))
    service.warm(platform, Goal.PERFORMANCE, "cart")
    coordinator = OnlineCoordinator(
        service,
        ContributionLog(tmp_path / "log.jsonl", flush_every=1),
        config=OnlineConfig(
            min_batch=1, shadow=ShadowGateConfig(min_observations=0)
        ),
        clock=ManualClock(),
    )
    try:
        service.contribute(
            platform, contribution_db(platform, contribution_records)
        )
        outcome: list[str] = []
        cycle = threading.Thread(
            target=lambda: outcome.append(coordinator.run_once()), daemon=True
        )
        cycle.start()
        cycle.join(timeout=30.0)
        assert not cycle.is_alive(), "run_once() deadlocked with telemetry on"
        assert outcome == ["promoted"]
        assert service.generation == 1
    finally:
        coordinator.close()
