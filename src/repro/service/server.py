"""The ACIC service: databases in, recommendations out.

Owns one training database per hosted platform, trains (goal, learner)
models lazily, invalidates them when new community contributions arrive,
and caches identical queries — the logic layer the paper's planned
web-based service would sit on.

Serving-scale machinery (the :mod:`repro.serving` subsystem):

* responses are memoized in a bounded, instrumented LRU
  (:class:`repro.serving.cache.LruCache`) whose counters surface in
  :class:`ServiceStats`;
* every trained model gets a :class:`repro.serving.engine.BatchQueryEngine`
  so :meth:`AcicService.query_batch` answers whole request lists with
  vectorized inference;
* :meth:`AcicService.save` / :meth:`AcicService.load` persist databases
  plus versioned model artifacts, so a query server warm-starts without
  retraining.

Observability (the :mod:`repro.telemetry` subsystem): the service keeps
its operational counters — queries served, models trained, and the
response cache's hit/miss/eviction accounting — in one
:class:`~repro.telemetry.MetricsRegistry` (``service.*`` metrics), which
:meth:`AcicService.stats` reads directly; when the process-wide
telemetry is enabled, that registry is the global one, so service
counters appear in snapshots/scrapes and ``handle``/``query_batch``
emit request spans.

Reliability (the :mod:`repro.reliability` subsystem): every scoring
call runs behind a circuit breaker and a retry-with-backoff executor,
each request/batch carries a deadline budget, and admission is bounded
with load-shedding.  When a stage cannot be completed — retries
exhausted, breaker open, deadline spent, or the request shed — the
service *degrades* instead of raising: it serves a stale cache entry
when one exists, or the platform's baseline configuration, with
``degraded=True`` on the response.  The knobs live in a
:class:`~repro.reliability.ReliabilityPolicy`; all of it is accounted
in ``reliability.*`` metrics.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.configurator import Acic
from repro.core.database import TrainingDatabase
from repro.core.objectives import Goal
from repro.core.training import DEFAULT_FIXED_VALUES
from repro.reliability import (
    BreakerOpen,
    DeadlineExceeded,
    InjectedError,
    ReliabilityPolicy,
    Resilience,
    RetryBudgetExceeded,
)
from repro.reliability.deadline import Deadline
from repro.service.api import (
    BatchQueryRequest,
    BatchQueryResponse,
    QueryRequest,
    QueryResponse,
    RecommendationPayload,
    ServiceError,
)
from repro.space.grid import coerce_valid, config_from_values
from repro.serving.artifacts import (
    ModelArtifact,
    acic_from_artifact,
    load_artifact,
    save_artifact,
)
from repro.serving.cache import LruCache
from repro.serving.engine import BatchQueryEngine
from repro.serving.matrix import CandidateMatrixCache
from repro.telemetry import Clock, MetricsRegistry, Telemetry, get_telemetry
from repro.telemetry.logging import get_logger

__all__ = ["ServiceStats", "AcicService"]

_MANIFEST_FORMAT = "acic-service"
_MANIFEST_VERSION = 1
_MANIFEST_FILE = "service.json"

#: One model key: (platform, goal, learner registry name).
_ModelKey = tuple[str, Goal, str]

#: Failures the service degrades on instead of propagating: a spent
#: retry budget, an open breaker, a blown deadline, or a raw injected
#: fault that slipped past a retry wrapper.
_DEGRADABLE = (RetryBudgetExceeded, BreakerOpen, DeadlineExceeded, InjectedError)


def _slug(text: str) -> str:
    """Filesystem-safe token for manifest file names."""
    return "".join(c if c.isalnum() or c in "._" else "-" for c in text)


@dataclass(frozen=True)
class ServiceStats:
    """Operational counters for monitoring.

    Attributes:
        platforms / total_records / models_trained: hosting inventory.
        queries_served: single and batch queries, combined.
        cache_hits / cache_misses / cache_evictions: response-cache
            counters since service construction.
        cache_size / cache_capacity: current occupancy vs bound.
        degraded_responses: answers served degraded (stale cache or
            baseline configuration).
        requests_shed: requests refused at the admission bound.
        retries: scoring/training retry attempts issued.
    """

    platforms: int
    total_records: int
    queries_served: int
    cache_hits: int
    models_trained: int
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_size: int = 0
    cache_capacity: int = 0
    degraded_responses: int = 0
    requests_shed: int = 0
    retries: int = 0


class AcicService:
    """A multi-platform ACIC query service.

    Args:
        feature_names: dimensions the hosted models use (normally the
            top-m PB-ranked names of each platform's screening; one shared
            tuple keeps the service simple, matching the released tool).
        cache_capacity: response-cache bound (LRU beyond it).
        telemetry: explicit telemetry bundle for this service's spans and
            metrics; defaults to the process-wide active one.  Counters
            always land in a real registry (:attr:`metrics`) — when
            telemetry is disabled the service keeps a private registry so
            :meth:`stats` stays accurate.
        reliability: resilience knobs (retry/deadline/breaker/admission);
            the default policy is inert on a fault-free service.
        clock: time source for deadlines and the breaker (process
            monotonic clock by default; chaos tests pass a ManualClock).
        sleep: ``sleep(seconds)`` used by retry backoff
            (:func:`time.sleep` by default; tests pass a VirtualSleeper).
        use_flat: serve batches through the packed :mod:`repro.ml.flat`
            twins of the hosted models (the raw-speed default); False
            keeps the legacy object-tree walk in the batch engines
            (single queries always predict through the packed twin).
            Answers are identical either way — the differential suite's
            guarantee.
    """

    def __init__(
        self,
        feature_names: tuple[str, ...] | None = None,
        cache_capacity: int = 1024,
        telemetry: Telemetry | None = None,
        reliability: ReliabilityPolicy | None = None,
        clock: Clock | None = None,
        sleep=time.sleep,
        use_flat: bool = True,
    ) -> None:
        self.feature_names = feature_names
        self._telemetry = telemetry
        active = telemetry if telemetry is not None else get_telemetry()
        self.metrics: MetricsRegistry = (
            active.registry if active.enabled else MetricsRegistry()
        )
        policy = reliability if reliability is not None else ReliabilityPolicy()
        self.resilience: Resilience = policy.build(
            self.metrics, clock=clock, sleep=sleep
        )
        self.use_flat = use_flat
        self._databases: dict[str, TrainingDatabase] = {}
        self._models: dict[_ModelKey, Acic] = {}
        self._engines: dict[_ModelKey, BatchQueryEngine] = {}
        self._matrix_cache = CandidateMatrixCache(metrics=self.metrics)
        self._cache: LruCache[tuple, QueryResponse] = LruCache(
            cache_capacity, metrics=self.metrics, name="service.cache"
        )
        self._epoch_spans: dict[str, tuple[int, int]] = {}
        self._queries = self.metrics.counter(
            "service.queries_served", "single and batch queries, combined"
        )
        self._trained = self.metrics.counter(
            "service.models_trained", "models trained since construction"
        )
        self._invalidations = self.metrics.counter(
            "service.invalidations", "response-cache entries evicted by invalidation"
        )
        #: Live model generation id (repro.online bumps it on promotion).
        self.generation: int = 0
        #: Online-loop hooks (installed by an OnlineCoordinator).  With a
        #: sink, contribute() appends durably instead of merging inline;
        #: the observer feeds each real request to the shadow replay
        #: buffer.
        self.contribution_sink = None
        self.query_observer = None

    def _active_telemetry(self):
        """The bundle requests trace into (override or process-wide)."""
        return self._telemetry if self._telemetry is not None else get_telemetry()

    # ------------------------------------------------------------------
    def host_database(self, database: TrainingDatabase) -> None:
        """Register (or replace) a platform's training database."""
        self._databases[database.platform_name] = database
        self._invalidate(database.platform_name)

    def load_database(self, path: str | Path) -> str:
        """Host a database from its JSON artifact; returns the platform."""
        database = TrainingDatabase.load(path)
        self.host_database(database)
        return database.platform_name

    def contribute(self, platform: str, contribution: TrainingDatabase) -> int:
        """Accept a community contribution.

        Without an online loop, the contribution merges inline and the
        platform's models/cache are invalidated (the next query retrains
        lazily).  With a :class:`repro.online.OnlineCoordinator`
        attached, the records are appended to its durable log instead —
        serving keeps answering from the live generation until a
        candidate passes the shadow gate.

        Returns the number of records accepted (new records for the
        inline path; records logged for the online path — the log
        dedups at merge time, not at ingest).
        """
        database = self._database_for(platform)
        if self.contribution_sink is not None:
            if contribution.platform_name != platform:
                raise ServiceError(
                    f"cannot contribute {contribution.platform_name!r} data "
                    f"to platform {platform!r}"
                )
            return self.contribution_sink(platform, contribution.records)
        accepted = database.merge(contribution)
        if accepted:
            self._invalidate(
                platform,
                learners={key[2] for key in self._models if key[0] == platform}
                or None,
            )
        return accepted

    # ------------------------------------------------------------------
    def handle(self, request: QueryRequest) -> QueryResponse:
        """Answer one query (cached when an identical one was served).

        A failed scoring path (after retries, or behind an open breaker
        or spent deadline) degrades to :meth:`_degrade` instead of
        raising; only request errors (:class:`ServiceError`) propagate.
        """
        with self._active_telemetry().span(
            "service.handle", platform=request.platform
        ):
            self._queries.inc()
            if self.query_observer is not None:
                self.query_observer(request)
            cached = self._cache.get(request.fingerprint)
            if cached is not None:
                return replace(cached, cached=True)
            ticket = self.resilience.admission.try_admit()
            if ticket is None:
                return self._degrade(request)
            with ticket:
                deadline = self.resilience.deadline()
                try:
                    model = self._model_for(
                        request.platform, request.goal, request.learner
                    )
                    recommendations = self._guarded(
                        lambda: model.recommend(
                            request.characteristics, top_k=request.top_k
                        ),
                        deadline,
                        "service.handle",
                    )
                except _DEGRADABLE:
                    return self._degrade(request)
            response = self._answer(request, recommendations)
            self._cache.put(request.fingerprint, response)
            return response

    def query_batch(self, requests: list[QueryRequest]) -> list[QueryResponse]:
        """Answer many queries in one call, in request order.

        Cache hits are served directly; misses are grouped per model and
        answered through that model's :class:`BatchQueryEngine` with one
        vectorized prediction pass per group.
        """
        requests = list(requests)
        with self._active_telemetry().span(
            "service.query_batch", queries=len(requests)
        ) as span:
            self._queries.inc(len(requests))
            if self.query_observer is not None:
                for request in requests:
                    self.query_observer(request)
            responses: list[QueryResponse | None] = [None] * len(requests)
            misses: dict[_ModelKey, list[int]] = {}
            tickets = []
            deadline = self.resilience.deadline()
            for position, request in enumerate(requests):
                cached = self._cache.get(request.fingerprint)
                if cached is not None:
                    responses[position] = replace(cached, cached=True)
                    continue
                ticket = self.resilience.admission.try_admit()
                if ticket is None:
                    # The batch exceeded the in-flight bound: shed the
                    # tail cheaply instead of queueing it.
                    responses[position] = self._degrade(request)
                    continue
                tickets.append(ticket)
                key = (request.platform, request.goal, request.learner)
                misses.setdefault(key, []).append(position)
            span.annotate(cache_hits=len(requests) - sum(map(len, misses.values())))

            try:
                for key, positions in misses.items():
                    try:
                        # Train (or surface ServiceError) first, then one
                        # vectorized pass for the whole model group —
                        # breaker-guarded, retried, within the deadline.
                        self._model_for(*key)
                        engine = self._engine_for(key)
                        batches = self._guarded(
                            lambda: engine.recommend_batch(
                                [
                                    (requests[i].characteristics, requests[i].top_k)
                                    for i in positions
                                ]
                            ),
                            deadline,
                            "service.query_batch",
                        )
                    except _DEGRADABLE:
                        for position in positions:
                            responses[position] = self._degrade(requests[position])
                        continue
                    for position, recommendations in zip(positions, batches):
                        response = self._answer(requests[position], recommendations)
                        self._cache.put(requests[position].fingerprint, response)
                        responses[position] = response
            finally:
                for ticket in tickets:
                    ticket.release()
            return [response for response in responses if response is not None]

    def handle_json(self, request_text: str) -> str:
        """Transport-level entry point: JSON in, JSON out.

        Errors come back as a JSON object with an ``error`` key instead of
        raising, so a batch front end never dies on one bad request.
        """
        try:
            return self.handle(QueryRequest.from_json(request_text)).to_json()
        except ServiceError as exc:
            return json.dumps({"error": str(exc)})

    def handle_batch_json(self, request_text: str) -> str:
        """Batch transport entry point: one JSON document each way."""
        try:
            batch = BatchQueryRequest.from_json(request_text)
            responses = self.query_batch(list(batch.queries))
            return BatchQueryResponse(responses=tuple(responses)).to_json()
        except ServiceError as exc:
            return json.dumps({"error": str(exc)})

    @property
    def platforms(self) -> tuple[str, ...]:
        """Hosted platform names, sorted (what a front end can serve)."""
        return tuple(sorted(self._databases))

    def degraded_response(self, request: QueryRequest) -> QueryResponse:
        """Public degradation entry point for front ends.

        The socket server uses it to answer work it cannot (or should
        not) run — load shed at the network admission bound, or a queue
        wait that outlived the request's deadline — with the same
        stale-cache-or-baseline fallback and the same ``degraded``
        accounting the internal failure paths use.

        Raises:
            ServiceError: the request targets an unhosted platform.
        """
        return self._degrade(request)

    # ------------------------------------------------------------------
    def warm(
        self,
        platform: str,
        goal: Goal = Goal.PERFORMANCE,
        learner: str = "cart",
    ) -> Acic:
        """Train (or fetch) one hosted model eagerly; returns it.

        Used before :meth:`save` to choose which models an artifact pack
        carries, and by operators pre-warming a server before traffic.
        """
        return self._model_for(platform, goal, learner)

    def save(self, directory: str | Path) -> Path:
        """Persist hosted databases and trained models as artifacts.

        Writes one database JSON per platform, one versioned model
        artifact per trained (platform, goal, learner), and a manifest
        tying them together.  Returns the manifest path.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        databases = []
        for platform in sorted(self._databases):
            filename = f"db-{_slug(platform)}.json"
            self._databases[platform].save(directory / filename)
            databases.append({"platform": platform, "file": filename})
        models = []
        for key in sorted(
            self._models, key=lambda k: (k[0], k[1].value, k[2])
        ):
            platform, goal, learner = key
            filename = f"model-{_slug(platform)}-{goal.value}-{_slug(learner)}.json"
            content_hash = save_artifact(
                ModelArtifact.from_acic(self._models[key], generation=self.generation),
                directory / filename,
            )
            models.append(
                {
                    "platform": platform,
                    "goal": goal.value,
                    "learner": learner,
                    "file": filename,
                    "content_hash": content_hash,
                }
            )
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "feature_names": list(self.feature_names) if self.feature_names else None,
            "cache_capacity": self._cache.capacity,
            "generation": self.generation,
            "databases": databases,
            "models": models,
        }
        manifest_path = directory / _MANIFEST_FILE
        manifest_path.write_text(json.dumps(manifest, indent=2))
        return manifest_path

    @staticmethod
    def read_manifest(directory: str | Path) -> dict:
        """The validated service manifest from a :meth:`save` directory.

        Raises:
            ServiceError: missing/malformed manifest.
        """
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_FILE
        if not manifest_path.exists():
            raise ServiceError(f"no service manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ServiceError(f"service manifest is not valid JSON: {exc}") from exc
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise ServiceError(
                f"not a service manifest (format={manifest.get('format')!r})"
            )
        if manifest.get("version") != _MANIFEST_VERSION:
            raise ServiceError(
                f"unsupported service manifest version {manifest.get('version')!r}"
            )
        return manifest

    @staticmethod
    def manifest_platforms(directory: str | Path) -> list[str]:
        """Platforms packed in a :meth:`save` directory, sorted.

        The cluster supervisor uses this to compute shard assignments
        before any replica boots.
        """
        manifest = AcicService.read_manifest(directory)
        return sorted(
            {entry["platform"] for entry in manifest.get("databases", ())}
        )

    @classmethod
    def load(
        cls,
        directory: str | Path,
        reliability: ReliabilityPolicy | None = None,
        platforms: Sequence[str] | None = None,
        use_flat: bool = True,
    ) -> "AcicService":
        """Warm-start a service from a :meth:`save` directory.

        Databases are re-hosted and every packed model is loaded from its
        verified artifact — no retraining (``models_trained`` stays 0
        until a query needs a model the pack did not carry).  With
        ``use_flat`` (the default), version-2 artifacts keep their
        models in packed-array form — cold start is O(header + buffer
        copy) per model, no node-tree rebuild.

        Args:
            directory: a :meth:`save` output directory.
            reliability: optional policy override for the new service.
            platforms: when given, load only these platforms' databases
                and models — the shard-aware path cluster replicas use
                to warm just the shards the ring assigns them.
            use_flat: serve through packed flat models; False rebuilds
                the full object trees and walks them (legacy engine).

        Raises:
            ServiceError: missing/malformed manifest, or a requested
                platform the pack does not carry.
            ArtifactError: a tampered or unreadable model artifact.
        """
        directory = Path(directory)
        manifest = cls.read_manifest(directory)
        wanted = None if platforms is None else set(platforms)
        if wanted is not None:
            packed = {
                entry["platform"] for entry in manifest.get("databases", ())
            }
            missing = sorted(wanted - packed)
            if missing:
                raise ServiceError(
                    f"artifact pack at {directory} has no database for "
                    f"platform(s): {', '.join(missing)}"
                )
        names = manifest.get("feature_names")
        service = cls(
            feature_names=tuple(names) if names else None,
            cache_capacity=manifest.get("cache_capacity", 1024),
            reliability=reliability,
            use_flat=use_flat,
        )
        service.generation = int(manifest.get("generation", 0))
        for entry in manifest.get("databases", ()):
            if wanted is not None and entry["platform"] not in wanted:
                continue
            service.load_database(directory / entry["file"])
        for entry in manifest.get("models", ()):
            if wanted is not None and entry["platform"] not in wanted:
                continue
            artifact = load_artifact(directory / entry["file"], materialize=not use_flat)
            database = service._database_for(artifact.platform)
            key = (artifact.platform, artifact.goal, artifact.learner)
            service._models[key] = acic_from_artifact(database, artifact)
        return service

    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Operational counters snapshot, read from the metrics registry.

        The cache fields come straight off the registry-backed
        ``service.cache.*`` instruments the cache itself maintains —
        there is a single source of truth, not a hand copy.
        """
        registry = self.metrics
        return ServiceStats(
            platforms=len(self._databases),
            total_records=sum(len(db) for db in self._databases.values()),
            queries_served=int(self._queries.value),
            cache_hits=int(registry.counter("service.cache.hits").value),
            models_trained=int(self._trained.value),
            cache_misses=int(registry.counter("service.cache.misses").value),
            cache_evictions=int(registry.counter("service.cache.evictions").value),
            cache_size=len(self._cache),
            cache_capacity=self._cache.capacity,
            degraded_responses=int(
                registry.counter("reliability.degraded").value
            ),
            requests_shed=int(
                registry.counter("reliability.admission.shed").value
            ),
            retries=int(registry.counter("reliability.retries").value),
        )

    # ------------------------------------------------------------------
    def _guarded(self, fn, deadline: Deadline, label: str):
        """Run a scoring callable behind the breaker/retry/deadline stack.

        Per attempt: the deadline must have budget, the breaker must
        admit the call, and a transient failure is recorded against the
        breaker before the retry executor decides whether (and how long)
        to back off.  Backoff sleeps consume the deadline through the
        shared clock.

        Raises:
            DeadlineExceeded / BreakerOpen / RetryBudgetExceeded: the
                degradable failures :meth:`handle` and
                :meth:`query_batch` convert into degraded responses.
        """
        breaker = self.resilience.breaker

        def attempt():
            deadline.require(label)
            self.resilience.observe_deadline(deadline)
            breaker.check()
            result = fn()
            breaker.record_success()
            return result

        return self.resilience.retry.call(
            attempt, on_failure=lambda exc: breaker.record_failure()
        )

    def _degrade(self, request: QueryRequest) -> QueryResponse:
        """The graceful fallback: stale cache entry or the baseline.

        The paper's advisor always has one answer that cannot be wrong
        about availability — the platform default every un-tuned user
        already runs (the training grid's fixed values).  Predicted
        improvement is 1.0 by definition.  Unknown platforms are still
        request errors and raise :class:`ServiceError`.
        """
        self.resilience.degraded.inc()
        stale = self._cache.get(request.fingerprint)
        get_logger().warning(
            "service.degraded",
            platform=request.platform, goal=request.goal,
            fallback="stale_cache" if stale is not None else "baseline",
        )
        if stale is not None:
            return replace(stale, cached=True, degraded=True)
        database = self._database_for(request.platform)
        baseline = coerce_valid(
            config_from_values(DEFAULT_FIXED_VALUES), request.characteristics
        )
        return QueryResponse(
            recommendations=(
                RecommendationPayload(
                    rank=1,
                    config_key=baseline.key,
                    description=baseline.describe(),
                    predicted_improvement=1.0,
                    co_champion_group=1,
                ),
            ),
            goal=request.goal,
            platform=request.platform,
            model_points=len(database),
            model_epochs=self._epoch_span(request.platform),
            learner=request.learner,
            cached=False,
            degraded=True,
        )

    def _answer(
        self, request: QueryRequest, recommendations: list
    ) -> QueryResponse:
        """Assemble the response envelope for freshly computed results."""
        database = self._database_for(request.platform)
        return QueryResponse(
            recommendations=tuple(
                RecommendationPayload(
                    rank=r.rank,
                    config_key=r.config.key,
                    description=r.config.describe(),
                    predicted_improvement=r.predicted_improvement,
                    co_champion_group=r.co_champion_group,
                )
                for r in recommendations
            ),
            goal=request.goal,
            platform=request.platform,
            model_points=len(database),
            model_epochs=self._epoch_span(request.platform),
            learner=request.learner,
            cached=False,
        )

    def _epoch_span(self, platform: str) -> tuple[int, int]:
        """(oldest, newest) contribution epochs; memoized per database.

        A database's span only moves when a contribution lands, and every
        contribution goes through :meth:`_invalidate` — so scanning the
        records once per platform (not once per response) is safe.
        """
        span = self._epoch_spans.get(platform)
        if span is None:
            epochs = [record.epoch for record in self._database_for(platform)]
            span = (min(epochs), max(epochs)) if epochs else (0, 0)
            self._epoch_spans[platform] = span
        return span

    def _database_for(self, platform: str) -> TrainingDatabase:
        try:
            return self._databases[platform]
        except KeyError:
            known = ", ".join(sorted(self._databases)) or "(none)"
            raise ServiceError(
                f"no training database for platform {platform!r}; hosted: {known}"
            ) from None

    def _model_for(self, platform: str, goal: Goal, learner: str) -> Acic:
        key = (platform, goal, learner)
        model = self._models.get(key)
        if model is None:
            model = Acic(
                self._database_for(platform),
                goal=goal,
                learner_name=learner,
                feature_names=self.feature_names,
            )
            try:
                with self._active_telemetry().span(
                    "service.train", platform=platform, goal=goal.value,
                    learner=learner,
                ):
                    # Transient training faults re-fit under the shared
                    # retry executor; exhaustion degrades the request.
                    model.train(retry=self.resilience.retry)
            except KeyError as exc:  # unknown learner name
                raise ServiceError(str(exc)) from exc
            self._models[key] = model
            self._trained.inc()
        return model

    def _engine_for(self, key: _ModelKey) -> BatchQueryEngine:
        engine = self._engines.get(key)
        if engine is None:
            engine = BatchQueryEngine(
                self._model_for(*key),
                use_flat=self.use_flat,
                matrix_cache=self._matrix_cache,
                cache_scope=(key[0], key[2]),
            )
            self._engines[key] = engine
        return engine

    def _invalidate(self, platform: str, learners: set[str] | None = None) -> None:
        """Drop a platform's stale models, engines, and cached responses.

        Args:
            platform: whose state changed.
            learners: scope the eviction to these learner names; None
                drops everything for the platform (database replaced
                wholesale).  A contribution only cold-starts the
                learners it actually invalidated — evictions land in
                the ``service.invalidations`` counter either way.
        """

        def affected(key: _ModelKey) -> bool:
            return key[0] == platform and (learners is None or key[2] in learners)

        self._models = {
            key: model for key, model in self._models.items() if not affected(key)
        }
        self._engines = {
            key: engine for key, engine in self._engines.items() if not affected(key)
        }
        self._matrix_cache.invalidate(platform, learners)
        self._epoch_spans.pop(platform, None)
        dropped = self._cache.drop_where(
            lambda _key, response: response.platform == platform
            and (learners is None or response.learner in learners)
        )
        self._invalidations.inc(dropped or 0)

    def adopt_generation(self, generation) -> None:
        """Install a :class:`repro.online.ModelGeneration` wholesale.

        The caller (the online coordinator) holds the serving lock, so
        the swap is atomic from the request paths' point of view: every
        platform's database, the trained models, and the derived state
        (engines, epoch spans, cached responses) change together.  Only
        platforms whose database object actually changed are
        invalidated; within an unchanged platform the eviction is
        scoped to the learners whose model was replaced.
        """
        for platform, database in generation.databases.items():
            changed = self._databases.get(platform) is not database
            self._databases[platform] = database
            if changed:
                self._invalidate(platform)
            else:
                replaced = {
                    key[2]
                    for key in generation.models
                    if key[0] == platform
                    and self._models.get(key) is not generation.models[key]
                }
                if replaced:
                    self._invalidate(platform, learners=replaced)
        self._models = dict(generation.models)
        self._engines = {}
        self.generation = generation.id
