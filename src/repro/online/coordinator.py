"""The online learning control loop: ingest → retrain → shadow → promote.

:class:`OnlineCoordinator` wires the pieces of :mod:`repro.online`
around one :class:`~repro.service.server.AcicService`:

1. It installs itself as the service's **contribution sink** — community
   contributions append to the durable :class:`ContributionLog` instead
   of mutating the serving database inline — and as its **query
   observer**, feeding the shadow evaluator's replay buffer from real
   traffic.
2. :meth:`run_once` (driven by the
   :class:`~repro.online.worker.RetrainWorker`, or called directly in
   tests) drains a batch from the log, checks the live generation for
   **drift** against the batch's measured improvements, trains a
   **candidate** generation off the hot path, grades it through the
   :class:`~repro.online.shadow.ShadowEvaluator`, and only then swaps
   the service's models under the serve lock.
3. Every decision is durable and accounted: a failed retrain leaves the
   log cursor alone (the batch re-drains next cycle, behind an
   ``online.retrain`` circuit breaker so a poisoned batch cannot spin
   the worker); a gate **rejection** commits the cursor *without*
   merging (the batch is quarantined); a **deferral** (not enough real
   traffic to judge) leaves the batch pending until queries arrive.

Concurrency contract: the serving path reads ``service._models`` /
``service._databases`` under ``serve_lock`` (the socket server's
service lock).  Promotion and demotion swap whole snapshots under that
same lock, so a request sees either the old generation or the new one —
never a mix.  Candidate *training* runs off-lock on cloned databases…
unless tracing is live: the span tracer is single-threaded, so when the
active telemetry is enabled the span-emitting phases serialize under
the serve lock too (correctness over overlap; with telemetry off — the
benchmarked configuration — retraining never blocks a query).
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.configurator import Acic
from repro.core.database import TrainingDatabase
from repro.online.drift import DriftConfig, DriftDetector
from repro.online.generations import GenerationRegistry, ModelGeneration
from repro.online.log import ContributionLog
from repro.online.shadow import ShadowEvaluator, ShadowGateConfig, ShadowReport
from repro.reliability import BreakerOpen, ReliabilityPolicy
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.retry import Retry
from repro.telemetry import Clock, MonotonicClock
from repro.telemetry.logging import get_logger

__all__ = ["OnlineConfig", "OnlineCoordinator"]


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the online loop.

    Attributes:
        min_batch: pending entries required before a retrain cycle runs
            (contributions trickle in; retraining per record would churn).
        max_batch: drain cap per cycle (bounds retrain latency).
        poll_interval_s: worker wake-up period between cycles.
        shadow: promotion gate bounds.
        drift: live-generation demotion trigger.
        isolate_retrain: train candidates in a spawned idle-priority
            child process (see :mod:`repro.online.isolation`) instead
            of this interpreter — the production setting, and the only
            one that keeps serving tail latency flat while retraining
            (``serve --online`` turns it on; unit tests keep the
            in-process default for speed).
        retrain_timeout_s: isolated-build deadline; a child that
            outruns it is killed and the cycle fails into the breaker.
    """

    min_batch: int = 8
    max_batch: int = 256
    poll_interval_s: float = 1.0
    shadow: ShadowGateConfig = field(default_factory=ShadowGateConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    isolate_retrain: bool = False
    retrain_timeout_s: float = 600.0

    def __post_init__(self) -> None:
        if self.min_batch < 1 or self.max_batch < self.min_batch:
            raise ValueError(
                f"need 1 <= min_batch <= max_batch, got "
                f"{self.min_batch}/{self.max_batch}"
            )
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.retrain_timeout_s <= 0:
            raise ValueError("retrain_timeout_s must be positive")


class OnlineCoordinator:
    """Glue between one service, one contribution log, and the gate.

    Args:
        service: the :class:`AcicService` to manage; the coordinator
            installs its ingest/observe hooks and seeds generation 0
            from the service's current state.
        log: the durable contribution log.
        config: loop knobs (defaults are production-shaped; tests pass
            ``min_batch=1`` and a permissive/strict shadow gate).
        clock: time source for generation stamps, shadow latency and
            the retrain breaker (ManualClock in tests).
        serve_lock: the lock the serving front end holds around service
            calls (the socket server passes its service lock); swaps
            happen under it.  Defaults to a private lock for in-process
            use.
        reliability: policy shaping the retrain retry/breaker (NOT the
            service's instance — a failing retrain must trip its own
            breaker, never serving's).
        sleep: retry backoff sleep (injectable; tests pass a no-op).
    """

    def __init__(
        self,
        service,
        log: ContributionLog,
        config: OnlineConfig | None = None,
        clock: Clock | None = None,
        serve_lock=None,
        reliability: ReliabilityPolicy | None = None,
        sleep=None,
    ) -> None:
        self.service = service
        self.log = log
        self.config = config if config is not None else OnlineConfig()
        self.clock = clock if clock is not None else MonotonicClock()
        self.serve_lock = serve_lock if serve_lock is not None else threading.Lock()
        # One cycle at a time: the worker thread and an operator's
        # promote/rollback must never drain or swap concurrently.
        self._cycle_lock = threading.Lock()
        self.metrics = service.metrics
        policy = reliability if reliability is not None else ReliabilityPolicy()
        self._retry = Retry(
            policy.backoff,
            sleep=sleep if sleep is not None else (lambda _s: None),
            seed=policy.seed,
            metrics=self.metrics,
        )
        self._breaker = CircuitBreaker(
            failure_threshold=policy.breaker_failure_threshold,
            reset_after_s=policy.breaker_reset_after_s,
            half_open_max_calls=policy.breaker_half_open_max_calls,
            clock=self.clock,
            metrics=self.metrics,
            name="online.retrain",
        )
        self.registry = GenerationRegistry(metrics=self.metrics)
        self.shadow = ShadowEvaluator(
            self.config.shadow,
            clock=self.clock,
            metrics=self.metrics,
            # Replay through the serving tier's engine configuration —
            # flat core and shared candidate matrices when present.
            use_flat=getattr(service, "use_flat", True),
            matrix_cache=getattr(service, "_matrix_cache", None),
        )
        self.drift = DriftDetector(self.config.drift, metrics=self.metrics)
        self.last_report: ShadowReport | None = None
        self.last_outcome: str = "idle"

        self._contributions = self.metrics.counter(
            "online.contributions", "records appended to the contribution log"
        )
        self._pending = self.metrics.gauge(
            "online.pending", "log entries awaiting a retrain cycle"
        )
        self._cycles = self.metrics.counter(
            "online.cycles", "retrain cycles attempted"
        )
        self._promotions = self.metrics.counter(
            "online.promotions", "candidate generations promoted"
        )
        self._rejections = self.metrics.counter(
            "online.rejections", "candidates rejected by the shadow gate"
        )
        self._deferrals = self.metrics.counter(
            "online.deferrals", "cycles deferred awaiting replay traffic"
        )
        self._demotions = self.metrics.counter(
            "online.demotions", "live generations demoted on drift"
        )
        self._retrain_failures = self.metrics.counter(
            "online.retrain.failures", "candidate builds that raised"
        )

        self._seed_boot_generation()
        service.contribution_sink = self.ingest
        service.query_observer = self.shadow.observe

    # ------------------------------------------------------------------
    def _seed_boot_generation(self) -> None:
        """Snapshot the service's current state as generation 0."""
        generation = self.registry.register(
            models=dict(self.service._models),
            databases=dict(self.service._databases),
            parent=None,
            created_at=self.clock.now(),
            source="boot",
        )
        self.registry.promote(generation.id)
        self.service.generation = generation.id

    def close(self) -> None:
        """Detach from the service and flush the log."""
        self.service.contribution_sink = None
        self.service.query_observer = None
        self.log.close()

    # ------------------------------------------------------------------
    def ingest(self, platform: str, records) -> int:
        """The service's contribution sink: durable append, no retrain."""
        appended = self.log.append(platform, records)
        self._contributions.inc(appended)
        self._pending.set(float(self.log.pending_count()))
        return appended

    # ------------------------------------------------------------------
    def run_once(self, force: bool = False) -> str:
        """One control-loop cycle; returns the outcome.

        Outcomes: ``idle`` (nothing pending), ``waiting`` (below
        ``min_batch``), ``demoted`` (drift tripped), ``breaker_open``
        (retrain breaker refusing after repeated failures), ``failed``
        (candidate build raised; batch re-drains next cycle),
        ``deferred`` (gate lacks replay traffic; batch stays pending),
        ``rejected`` (gate failed substantively; batch quarantined),
        ``promoted``.

        Args:
            force: drain below ``min_batch`` and promote regardless of
                the shadow verdict (the operator's ``online promote``).
        """
        with self._cycle_lock:
            return self._run_once_locked(force)

    def _run_once_locked(self, force: bool) -> str:
        entries = self.log.pending(limit=self.config.max_batch)
        self._pending.set(float(len(entries)))
        if not entries:
            self.last_outcome = "idle"
            return "idle"
        if not force and len(entries) < self.config.min_batch:
            self.last_outcome = "waiting"
            return "waiting"
        self._cycles.inc()
        live = self.registry.live()

        # Drift first: the batch carries measured ground truth, so
        # before trusting it as training data, ask whether the *live*
        # generation still explains it.  A drifted live generation is
        # demoted to its parent (generation 0 has none and cannot fall).
        if live is not None and live.models and not force:
            self._update_drift(live, entries)
            if self.drift.drifted() and live.parent is not None:
                self._demote(entries[-1].seq, reason="drift")
                self.last_outcome = "demoted"
                return "demoted"

        try:
            self._breaker.check()
        except BreakerOpen:
            self.last_outcome = "breaker_open"
            return "breaker_open"

        try:
            models, databases = self._build_candidate(live, entries)
            self._breaker.record_success()
        except Exception as exc:
            self._breaker.record_failure()
            self._retrain_failures.inc()
            get_logger().warning(
                "online.retrain_failed",
                error=type(exc).__name__, detail=str(exc),
                batch=len(entries),
            )
            self.last_outcome = "failed"
            return "failed"

        if not models:
            # No trained models anywhere: there is nothing the gate
            # could protect — promoting just installs the merged
            # databases (models train lazily on the next query).
            report = ShadowReport(passed=True, reasons=("no_models",))
        else:
            live_models = (
                live.models if live is not None else dict(self.service._models)
            )
            with self._span_guard():
                report = self.shadow.evaluate(live_models, models, entries)
        self.last_report = report

        if report.passed or force:
            self._promote(models, databases, live, entries[-1].seq, report)
            self.last_outcome = "promoted"
            return "promoted"
        if all(r.startswith("insufficient_replay") for r in report.reasons):
            # Not enough evidence is not bad data: leave the batch
            # pending and try again once real queries have arrived.
            self._deferrals.inc()
            get_logger().info("online.deferred", **report.describe())
            self.last_outcome = "deferred"
            return "deferred"
        self._rejections.inc()
        self.log.commit(entries[-1].seq)
        self._pending.set(float(self.log.pending_count()))
        get_logger().warning(
            "online.rejected", batch=len(entries), **report.describe()
        )
        self.last_outcome = "rejected"
        return "rejected"

    # ------------------------------------------------------------------
    def promote(self) -> str:
        """Operator override: drain and promote now, gate bypassed.

        Returns the cycle outcome (``promoted`` when anything was
        pending; the build must still *succeed* — a raising retrain is
        still ``failed``).
        """
        return self.run_once(force=True)

    def rollback(self) -> ModelGeneration:
        """Operator override: demote the live generation to its parent.

        Raises:
            RuntimeError: nothing live, or the live generation has no
                parent.
        """
        with self._cycle_lock:
            parent = self.registry.rollback()
            self._adopt(parent)
            self._demotions.inc()
            self.drift.reset()
            get_logger().warning(
                "online.demoted", generation=parent.id, reason="operator"
            )
            return parent

    def status(self) -> dict:
        """The loop's observable state (CLI / ops ``ONLINE`` frames)."""
        live = self.registry.live()
        return {
            "generation": live.id if live is not None else None,
            "live": live.describe() if live is not None else None,
            "lineage": self.registry.lineage(),
            "pending": self.log.pending_count(),
            "committed": self.log.committed,
            "log_total": self.log.total,
            "last_outcome": self.last_outcome,
            "last_report": (
                self.last_report.describe() if self.last_report else None
            ),
            "drift": {
                "mean_abs_log_error": self.drift.mean_abs_log_error,
                "samples": self.drift.samples,
            },
            "counters": {
                "contributions": int(self._contributions.value),
                "cycles": int(self._cycles.value),
                "promotions": int(self._promotions.value),
                "rejections": int(self._rejections.value),
                "deferrals": int(self._deferrals.value),
                "demotions": int(self._demotions.value),
                "retrain_failures": int(self._retrain_failures.value),
            },
        }

    # ------------------------------------------------------------------
    def _span_guard(self):
        """Serialize span-emitting phases with serving when tracing is
        live (the tracer keeps one span stack); otherwise run off-lock."""
        if self.service._active_telemetry().enabled:
            return self.serve_lock
        return contextlib.nullcontext()

    def _build_candidate(self, live: ModelGeneration | None, entries):
        """Train the candidate's models on cloned+merged databases.

        Runs off the serving path: the live databases are deep-cloned
        through their payload form (the same codec the artifacts use, so
        a promoted candidate is bit-identical to a from-scratch retrain
        on the merged data), the batch is merged into the clones, and
        every (platform, goal, learner) the live generation or the
        service currently holds is re-fit — in this interpreter under
        the retrain retry, or (``isolate_retrain``) in a spawned
        idle-priority child that ships the fitted models back as
        artifact documents.  Both paths produce byte-identical
        generations; only their latency interference differs.

        The snapshot of the service's databases and model keys is taken
        under the serve lock once, before the span guard: with tracing
        live the guard *is* the serve lock, which is not reentrant.
        """
        with self.serve_lock:
            base = dict(self.service._databases)
            keys = set(self.service._models)
        if live is not None:
            keys |= set(live.models)

        databases: dict[str, TrainingDatabase] = {
            platform: TrainingDatabase.from_payload(db.to_payload())
            for platform, db in base.items()
        }
        for entry in entries:
            database = databases.get(entry.platform)
            if database is None:
                database = TrainingDatabase(entry.platform)
                databases[entry.platform] = database
            database.add(entry.record)

        ordered = sorted(keys, key=lambda k: (k[0], k[1].value, k[2]))
        with self._span_guard():
            if self.config.isolate_retrain:
                return self._train_isolated(ordered, databases), databases

            models: dict = {}
            for key in ordered:
                platform, goal, learner = key
                if platform not in databases:
                    continue
                acic = Acic(
                    databases[platform],
                    goal=goal,
                    learner_name=learner,
                    feature_names=self.service.feature_names,
                )
                acic.train(retry=self._retry)
                models[key] = acic
        return models, databases

    def _train_isolated(self, ordered, databases):
        """Fit the candidate's models in an idle-priority subprocess."""
        from repro.online.isolation import train_candidate_isolated
        from repro.serving.artifacts import acic_from_artifact, artifact_from_dict

        names = self.service.feature_names
        request = {
            "databases": {
                platform: database.to_payload()
                for platform, database in databases.items()
            },
            "keys": [
                [platform, goal.value, learner]
                for platform, goal, learner in ordered
                if platform in databases
            ],
            "feature_names": list(names) if names else None,
        }
        reply = train_candidate_isolated(
            request, timeout_s=self.config.retrain_timeout_s
        )
        models: dict = {}
        for payload in reply["artifacts"]:
            artifact = artifact_from_dict(payload)
            key = (artifact.platform, artifact.goal, artifact.learner)
            models[key] = acic_from_artifact(
                databases[artifact.platform], artifact
            )
        return models

    def _promote(
        self,
        models: dict,
        databases: dict,
        live: ModelGeneration | None,
        through_seq: int,
        report: ShadowReport,
    ) -> None:
        generation = self.registry.register(
            models=models,
            databases=databases,
            parent=live.id if live is not None else None,
            created_at=self.clock.now(),
            source="retrain",
        )
        self.registry.promote(generation.id)
        self._adopt(generation)
        self.log.commit(through_seq)
        self._pending.set(float(self.log.pending_count()))
        self._promotions.inc()
        self.drift.reset()
        get_logger().info(
            "online.promoted",
            generation=generation.id,
            parent=generation.parent,
            models=len(models),
            **report.describe(),
        )

    def _demote(self, through_seq: int, reason: str) -> None:
        parent = self.registry.rollback()
        self._adopt(parent)
        # The drifted batch is evidence, not training data: commit past
        # it so the parent is not immediately retrained on the very
        # records that demoted its child.
        self.log.commit(through_seq)
        self._pending.set(float(self.log.pending_count()))
        self._demotions.inc()
        self.drift.reset()
        get_logger().warning(
            "online.demoted", generation=parent.id, reason=reason
        )

    def _adopt(self, generation: ModelGeneration) -> None:
        """Install a generation into the service under the serve lock."""
        with self.serve_lock:
            with self.service._active_telemetry().span(
                "online.swap", generation=generation.id,
                source=generation.source,
            ):
                self.service.adopt_generation(generation)

    def _update_drift(self, live: ModelGeneration, entries) -> None:
        """Feed the drift detector: live predictions vs measured ratios.

        Calls the encoder/learner directly (no spans, no injector) so
        the check is safe off-lock and invisible to chaos plans.
        """
        by_platform: dict[str, list] = {}
        for key, model in live.models.items():
            by_platform.setdefault(key[0], []).append((key[1], model))
        for entry in entries:
            for goal, model in by_platform.get(entry.platform, ()):
                x = model.encoder.encode_many([entry.record.values])
                predicted = float(np.exp(model.model.predict(x)[0]))
                self.drift.update(predicted, entry.record.target(goal))
