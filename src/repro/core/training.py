"""PB-guided, incremental training-data collection (Sections 2, 4.1, 5.4).

ACIC bootstraps by sampling the top-ranked dimensions first: a
:class:`TrainingPlan` enumerates the IOR grid over the ``top_m`` ranked
parameters (all their sampled values), pinning the remaining dimensions to
defaults.  The :class:`TrainingCollector` executes plans on the simulated
cloud, feeding the training database and accounting the time/money bill —
the quantities behind the paper's Figure 8 trade-off study.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from repro.cloud.platform import CloudPlatform, DEFAULT_PLATFORM
from repro.core.database import TrainingDatabase, TrainingRecord
from repro.ior.runner import IorRunner
from repro.ml.encoding import point_values
from repro.reliability.faults import get_injector
from repro.reliability.retry import BackoffPolicy, Retry, RetryBudgetExceeded
from repro.space.characteristics import IOInterface, OpKind
from repro.space.grid import characteristics_from_values, coerce_valid, config_from_values
from repro.space.parameters import PARAMETERS, parameter_by_name
from repro.telemetry import get_telemetry
from repro.util.parallel import parallel_map, resolve_jobs
from repro.util.units import MIB

__all__ = ["DEFAULT_FIXED_VALUES", "TrainingPlan", "TrainingCampaign", "TrainingCollector"]

#: Values used for dimensions *below* the trained rank cut ("adopting
#: default settings for the other parameters", Section 4.1).  The job
#: scale defaults to the space maximum so the I/O-process dimension (rank
#: 4) sweeps its full range unclamped.
DEFAULT_FIXED_VALUES: dict[str, object] = {
    "device": "EBS",
    "file_system": "NFS",
    "instance_type": "cc2.8xlarge",
    "io_servers": 1,
    "placement": "dedicated",
    "stripe_bytes": 4 * MIB,
    "num_processes": 256,
    "num_io_processes": 256,
    "interface": IOInterface.MPIIO,
    "iterations": 10,
    "data_bytes": 16 * MIB,
    "request_bytes": 4 * MIB,
    "op": OpKind.WRITE,
    "collective": False,
    "shared_file": True,
}


@dataclass(frozen=True)
class TrainingPlan:
    """A concrete list of training points over the top-m ranked dimensions.

    Attributes:
        ranked_names: all 15 dimension names, most influential first.
        top_m: how many leading dimensions are swept.
        points: deduplicated {dimension: value} dicts to measure.
    """

    ranked_names: tuple[str, ...]
    top_m: int
    points: tuple[dict[str, object], ...]

    @property
    def trained_names(self) -> tuple[str, ...]:
        """The swept (top-m ranked) dimension names."""
        return self.ranked_names[: self.top_m]

    @property
    def size(self) -> int:
        """Number of deduplicated points in the plan."""
        return len(self.points)

    @classmethod
    def build(
        cls,
        ranked_names: Sequence[str],
        top_m: int,
        fixed_values: dict[str, object] | None = None,
        value_overrides: dict[str, Sequence[object]] | None = None,
    ) -> "TrainingPlan":
        """Enumerate the grid: sampled values for the top-m ranked
        dimensions, defaults elsewhere, validity-clamped and deduplicated.

        The dedup is what turns the raw cartesian product into the paper's
        "valid training data points" (NFS collapses the server-count and
        stripe dimensions; request sizes clamp to the data size).

        ``value_overrides`` replaces a swept dimension's sampled values —
        the hook incremental space extensions use to collect only the new
        corner of the space.
        """
        names = list(ranked_names)
        if sorted(names) != sorted(p.name for p in PARAMETERS):
            raise ValueError("ranked_names must be a permutation of the 15 dimensions")
        if not 1 <= top_m <= len(names):
            raise ValueError(f"top_m must be in [1, {len(names)}], got {top_m}")
        defaults = dict(DEFAULT_FIXED_VALUES)
        defaults.update(fixed_values or {})
        overrides = dict(value_overrides or {})
        for name in overrides:
            parameter_by_name(name)  # validate the dimension exists

        swept = names[:top_m]
        value_lists = [
            list(overrides.get(name, parameter_by_name(name).values))
            for name in swept
        ]
        # A realized point's keys come in one fixed order and each key's
        # values in one type, so its value tuple tells points apart
        # exactly as TrainingRecord.fingerprint's str() pairs do.
        seen: set[tuple] = set()
        points: list[dict[str, object]] = []
        for combo in itertools.product(*value_lists):
            values = dict(defaults)
            values.update(zip(swept, combo))
            chars = characteristics_from_values(values)
            config = coerce_valid(config_from_values(values), chars)
            realized = point_values(config, chars)
            key = tuple(realized.values())
            if key in seen:
                continue
            seen.add(key)
            points.append(realized)
        return cls(ranked_names=tuple(names), top_m=top_m, points=tuple(points))

    @staticmethod
    def raw_grid_size(ranked_names: Sequence[str], top_m: int) -> int:
        """Cartesian size before validity dedup — the paper's cost-growth
        estimator for levels too expensive to actually collect."""
        size = 1
        for name in list(ranked_names)[:top_m]:
            size *= len(parameter_by_name(name).values)
        return size


@dataclass(frozen=True)
class TrainingCampaign:
    """Outcome of executing one plan.

    Attributes:
        plan: what was collected.
        new_records: records actually added to the database.
        run_seconds: simulated machine time consumed (IOR + baseline runs).
        run_cost: dollars billed for the collection (Eq. 1).
    """

    plan: TrainingPlan
    new_records: int
    run_seconds: float
    run_cost: float


def _no_sleep(seconds: float) -> None:
    """Collection retries back off in simulated time only — never block."""


def _collection_retry() -> Retry:
    """The default per-point retry: a few attempts, no real sleeping."""
    return Retry(BackoffPolicy(max_retries=4), sleep=_no_sleep)


def _measure_point(
    values: dict[str, object],
    runner: IorRunner,
    retry: Retry,
    epoch: int,
    source: str,
) -> TrainingRecord | None:
    """Measure one plan point into a training record.

    The one per-point path of serial and parallel collection (module-level
    so parallel workers can unpickle it).  The point's characteristics and
    configuration are derived once, with the validity clamping
    :meth:`TrainingPlan.build` applies, and the record is built from them,
    so a plan constructed directly records realized points too.  Fault
    injection and the retry apply here; a point whose retries are
    exhausted comes back as None.
    """
    chars = characteristics_from_values(values)
    config = coerce_valid(config_from_values(values), chars)

    def attempt():
        get_injector().perturb("training.measure")
        return runner.measure_characteristics(chars, config)

    try:
        observation = retry.call(attempt)
    except RetryBudgetExceeded:
        return None
    return TrainingRecord(
        values=point_values(config, chars),
        seconds=observation.seconds,
        cost=observation.cost,
        perf_improvement=observation.speedup,
        cost_improvement=observation.cost_ratio,
        epoch=epoch,
        source=source,
    )


class TrainingCollector:
    """Executes training plans against the simulated cloud.

    One collector per platform; successive calls append to the same
    database with increasing epochs, modelling continuous community
    contribution ("incremental training").

    Args:
        jobs: worker processes for collection; 1 (default) is serial and
            shares one baseline cache, -1 uses all cores.  Results are
            bit-identical either way (all randomness is content-keyed).
    """

    def __init__(
        self,
        database: TrainingDatabase,
        platform: CloudPlatform = DEFAULT_PLATFORM,
        reps: int = 1,
        jobs: int = 1,
        retry: Retry | None = None,
    ) -> None:
        self.database = database
        self.platform = platform
        self.reps = reps
        self.jobs = jobs
        self.retry = retry if retry is not None else _collection_retry()
        self.runner = IorRunner(platform=platform, reps=reps)
        self._epoch = 0

    def collect(
        self,
        plan: TrainingPlan,
        source: str = "initial-training",
        epoch: int | None = None,
    ) -> TrainingCampaign:
        """Measure every point of ``plan`` and insert it into the database.

        ``epoch`` labels the contribution's logical time for later aging;
        by default each campaign gets the next auto-incremented epoch.

        With telemetry enabled the campaign emits a ``training.collect``
        span (with ``training.measure`` / ``training.ingest`` children)
        and feeds the ``training.*`` counters — the per-stage accounting
        behind the paper's Figure 8 training-cost trade-off.
        """
        telemetry = get_telemetry()
        self._epoch = self._epoch + 1 if epoch is None else epoch
        with telemetry.span(
            "training.collect", points=plan.size, top_m=plan.top_m, source=source
        ):
            with telemetry.span("training.measure"):
                measure = functools.partial(
                    _measure_point, epoch=self._epoch, source=source
                )
                if resolve_jobs(self.jobs) > 1:
                    # Each worker's chunk of points shares one fresh runner
                    # (baseline cache) and the default retry; forked
                    # workers inherit the active fault injector.
                    worker = functools.partial(
                        measure,
                        runner=IorRunner(platform=self.platform, reps=self.reps),
                        retry=_collection_retry(),
                    )
                    records = parallel_map(worker, plan.points, jobs=self.jobs)
                else:
                    records = [
                        measure(values, self.runner, self.retry)
                        for values in plan.points
                    ]

            # Points whose retries were exhausted by fault injection come
            # back as None: the campaign degrades to fewer records instead
            # of losing the whole batch.
            skipped = sum(1 for record in records if record is None)
            records = [record for record in records if record is not None]

            seconds = 0.0
            cost = 0.0
            new_records = 0
            with telemetry.span("training.ingest"):
                for record in records:
                    seconds += record.seconds
                    cost += record.cost
                    if self.database.add(record):
                        new_records += 1
        telemetry.counter("training.points_measured").inc(len(records))
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

    def estimate_cost(self, plan_size: int, measured: TrainingCampaign) -> float:
        """Extrapolated collection cost for a plan too large to run.

        The paper estimates the full-15-D bill (~$100K) from the average
        per-point cost of the levels it did collect.
        """
        if measured.plan.size == 0:
            raise ValueError("reference campaign is empty")
        if plan_size < 0:
            raise ValueError("plan_size must be >= 0")
        return measured.run_cost / measured.plan.size * plan_size
