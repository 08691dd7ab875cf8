"""Training collection as it ran before lazy seeding, kept as the reference.

The fast collection path seeds random streams on first draw, builds a
retry's jittered schedule only when an attempt fails, derives each plan
point once and fingerprints each record once.  This module keeps the path
it replaced, piece by piece:

* :class:`EagerRngStream` seeds its generator when it is created, so a
  simulated run pays for its root, ``io``, ``compute`` and ``fault``
  streams; :func:`eager_streams` installs it in the simulator;
* :class:`ReferenceRetry` draws every call's schedule before the first
  attempt;
* :class:`ReferenceIorRunner` round-trips each case through its spec
  (``to_workload`` per run, ``command_line`` per baseline lookup);
* :class:`ReferenceCollector` re-derives each point, measures it, then
  builds its record through :meth:`TrainingRecord.from_observation`;
* :class:`ReferenceDatabase` computes each fingerprint twice per add;
* :func:`reference_plan` dedups the grid on sorted ``(name, str(value))``
  tuples and :func:`reference_screening` measures each PB row through
  the spec.

The differential suite and the collection speed guardrail compare the
program against it byte for byte.
"""

from __future__ import annotations

import contextlib
import itertools
from collections.abc import Iterator, Sequence

import numpy as np

from repro.cloud.platform import CloudPlatform, DEFAULT_PLATFORM
from repro.core.database import TrainingDatabase, TrainingRecord
from repro.core.training import (
    DEFAULT_FIXED_VALUES,
    TrainingCampaign,
    TrainingCollector,
    TrainingPlan,
)
from repro.ior.runner import IorObservation, IorRunner
from repro.ior.spec import IorSpec
from repro.iosim import engine
from repro.ml.encoding import point_values
from repro.pb.design import PBDesign
from repro.pb.ranking import PbScreening, compute_effects, rank_parameters
from repro.reliability.faults import get_injector
from repro.reliability.retry import BackoffPolicy, Retry, RetryBudgetExceeded
from repro.space.grid import (
    characteristics_from_values,
    coerce_valid,
    config_from_values,
)
from repro.space.parameters import PARAMETERS, parameter_by_name
from repro.telemetry import get_telemetry
from repro.telemetry.logging import get_logger
from repro.util.rng import stream_seed

__all__ = [
    "EagerRngStream",
    "eager_streams",
    "ReferenceRetry",
    "ReferenceIorRunner",
    "ReferenceDatabase",
    "ReferenceCollector",
    "reference_plan",
    "reference_screening",
]


class EagerRngStream:
    """A random stream seeded when it is created."""

    def __init__(self, root_seed: int, *context: object) -> None:
        self.root_seed = int(root_seed)
        self.context = tuple(context)
        self._gen = np.random.default_rng(stream_seed(root_seed, *context))

    def child(self, *context: object) -> "EagerRngStream":
        return EagerRngStream(self.root_seed, *self.context, *context)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def lognormal_factor(self, sigma: float) -> float:
        if sigma <= 0.0:
            return 1.0
        return float(np.exp(self._gen.normal(0.0, sigma)))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))


@contextlib.contextmanager
def eager_streams() -> Iterator[None]:
    """Make the simulator create :class:`EagerRngStream` roots (and so
    eager children) for the duration of the block."""
    lazy = engine.RngStream
    engine.RngStream = EagerRngStream
    try:
        yield
    finally:
        engine.RngStream = lazy


class ReferenceRetry(Retry):
    """A :class:`Retry` that draws each call's schedule up front."""

    def call(self, fn, *args, on_failure=None, **kwargs):
        self._calls += 1
        delays = self.policy.schedule(EagerRngStream(self.seed, "retry", self._calls))
        attempts = 0
        while True:
            try:
                return fn(*args, **kwargs)
            except self.retryable as exc:
                attempts += 1
                if on_failure is not None:
                    on_failure(exc)
                if attempts > len(delays):
                    if self._giveups is not None:
                        self._giveups.inc()
                    get_logger().error(
                        "reliability.retry_giveup",
                        attempts=attempts, error=type(exc).__name__,
                    )
                    raise RetryBudgetExceeded(attempts, exc) from exc
                if self._retries is not None:
                    self._retries.inc()
                delay = delays[attempts - 1]
                get_logger().warning(
                    "reliability.retry",
                    attempt=attempts, delay_s=round(delay, 6),
                    error=type(exc).__name__,
                )
                if delay > 0:
                    self.sleep(delay)


class ReferenceIorRunner(IorRunner):
    """An :class:`IorRunner` that converts every case through its spec."""

    def measure(self, spec: IorSpec, config) -> IorObservation:
        workload = spec.to_workload()
        result = self._simulator.run_median(workload, config, reps=self.reps)
        base = self._baseline_for(spec)
        return IorObservation(
            spec=spec,
            config=config,
            seconds=result.seconds,
            cost=result.cost,
            baseline_seconds=base.seconds,
            baseline_cost=base.cost,
        )

    def _baseline_for(self, spec: IorSpec):
        key = spec.command_line()
        cached = self._baseline_cache.get(key)
        if cached is None:
            cached = self._simulator.run_median(
                spec.to_workload(), self.baseline, reps=self.reps
            )
            self._baseline_cache[key] = cached
        return cached


class ReferenceDatabase(TrainingDatabase):
    """A :class:`TrainingDatabase` whose add fingerprints a record twice."""

    def add(self, record: TrainingRecord) -> bool:
        if record.fingerprint in self._fingerprints:
            return False
        self._records.append(record)
        self._fingerprints.add(record.fingerprint)
        return True


def _no_sleep(seconds: float) -> None:
    pass


class ReferenceCollector(TrainingCollector):
    """Serial collection through the reference pieces.

    Pass a :class:`ReferenceDatabase` to keep the double fingerprint; the
    default retry is a :class:`ReferenceRetry` with the collector's
    default policy.  Run it inside :func:`eager_streams`.
    """

    def __init__(
        self,
        database: TrainingDatabase,
        platform: CloudPlatform = DEFAULT_PLATFORM,
        reps: int = 1,
        retry: Retry | None = None,
    ) -> None:
        super().__init__(
            database,
            platform=platform,
            reps=reps,
            retry=retry if retry is not None else ReferenceRetry(
                BackoffPolicy(max_retries=4), sleep=_no_sleep
            ),
        )
        self.runner = ReferenceIorRunner(platform=platform, reps=reps)

    def collect(
        self,
        plan: TrainingPlan,
        source: str = "initial-training",
        epoch: int | None = None,
    ) -> TrainingCampaign:
        telemetry = get_telemetry()
        self._epoch = self._epoch + 1 if epoch is None else epoch
        with telemetry.span(
            "training.collect", points=plan.size, top_m=plan.top_m, source=source
        ):
            with telemetry.span("training.measure"):
                observations = [self._measure(values) for values in plan.points]
            skipped = sum(1 for observation in observations if observation is None)
            observations = [obs for obs in observations if obs is not None]

            seconds = 0.0
            cost = 0.0
            new_records = 0
            with telemetry.span("training.ingest"):
                for observation in observations:
                    seconds += observation.seconds
                    cost += observation.cost
                    record = TrainingRecord.from_observation(
                        observation, epoch=self._epoch, source=source
                    )
                    if self.database.add(record):
                        new_records += 1
        telemetry.counter("training.points_measured").inc(len(observations))
        telemetry.counter(
            "training.points_skipped", "points dropped after exhausting retries"
        ).inc(skipped)
        telemetry.counter("training.records_added").inc(new_records)
        telemetry.counter(
            "training.simulated_seconds", "simulated machine time billed"
        ).inc(seconds)
        telemetry.counter(
            "training.simulated_cost_dollars", "Eq. 1 collection bill"
        ).inc(cost)
        return TrainingCampaign(
            plan=plan, new_records=new_records, run_seconds=seconds, run_cost=cost
        )

    def _measure(self, values: dict[str, object]):
        chars = characteristics_from_values(values)
        config = coerce_valid(config_from_values(values), chars)

        def attempt():
            get_injector().perturb("training.measure")
            return self.runner.measure(IorSpec.from_characteristics(chars), config)

        try:
            return self.retry.call(attempt)
        except RetryBudgetExceeded:
            return None


def reference_plan(
    ranked_names: Sequence[str],
    top_m: int,
    fixed_values: dict[str, object] | None = None,
    value_overrides: dict[str, Sequence[object]] | None = None,
) -> TrainingPlan:
    """:meth:`TrainingPlan.build`, deduplicating on sorted str tuples."""
    names = list(ranked_names)
    if sorted(names) != sorted(p.name for p in PARAMETERS):
        raise ValueError("ranked_names must be a permutation of the 15 dimensions")
    if not 1 <= top_m <= len(names):
        raise ValueError(f"top_m must be in [1, {len(names)}], got {top_m}")
    defaults = dict(DEFAULT_FIXED_VALUES)
    defaults.update(fixed_values or {})
    overrides = dict(value_overrides or {})
    for name in overrides:
        parameter_by_name(name)

    swept = names[:top_m]
    value_lists = [
        list(overrides.get(name, parameter_by_name(name).values))
        for name in swept
    ]
    seen: set[tuple] = set()
    points: list[dict[str, object]] = []
    for combo in itertools.product(*value_lists):
        values = dict(defaults)
        values.update(dict(zip(swept, combo)))
        chars = characteristics_from_values(values)
        config = coerce_valid(config_from_values(values), chars)
        realized = point_values(config, chars)
        fingerprint = tuple(sorted((k, str(v)) for k, v in realized.items()))
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        points.append(realized)
    return TrainingPlan(ranked_names=tuple(names), top_m=top_m, points=tuple(points))


def reference_screening(platform: CloudPlatform = DEFAULT_PLATFORM) -> PbScreening:
    """The foldover PB screening of all 15 dimensions, each row measured
    through :class:`ReferenceIorRunner`.  Run it inside
    :func:`eager_streams`."""
    parameters = list(PARAMETERS)
    design = PBDesign.build([p.name for p in parameters], folded=True)
    runner = ReferenceIorRunner(platform=platform)

    response: list[float] = []
    total_seconds = 0.0
    total_cost = 0.0
    for assignment in design.assignments():
        values = {
            p.name: (p.high if assignment[p.name] > 0 else p.low) for p in parameters
        }
        chars = characteristics_from_values(values)
        config = coerce_valid(config_from_values(values), chars)
        observation = runner.measure(IorSpec.from_characteristics(chars), config)
        response.append(observation.speedup)
        total_seconds += observation.seconds
        total_cost += observation.cost

    effects = compute_effects(design.matrix, response)
    names = [p.name for p in parameters]
    ranks = rank_parameters(names, effects)
    return PbScreening(
        design=design,
        response=tuple(response),
        effects=dict(zip(names, effects.tolist())),
        ranks=ranks,
        run_seconds=total_seconds,
        run_cost=total_cost,
    )
