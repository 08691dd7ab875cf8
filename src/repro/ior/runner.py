"""Execution of IOR cases against the simulated cloud.

Each run yields an :class:`IorObservation` — the raw material of ACIC's
training database: the concatenated 15-D point plus measured time and cost,
and the *relative improvement over the baseline configuration*, which is
the quantity ACIC's models actually learn (Section 4.2's answer to the
IOR-vs-application performance-reporting mismatch).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.platform import CloudPlatform, DEFAULT_PLATFORM
from repro.iosim.engine import IOSimulator, RunResult
from repro.iosim.workload import Workload
from repro.ior.spec import IorSpec
from repro.space.characteristics import AppCharacteristics
from repro.space.configuration import BASELINE_CONFIG, SystemConfig

__all__ = ["IorObservation", "IorRunner"]


@dataclass(frozen=True)
class IorObservation:
    """One training measurement.

    Attributes:
        spec: the IOR case run.
        config: the system configuration it ran under.
        seconds / cost: measured execution time and Eq. (1) cost.
        baseline_seconds / baseline_cost: the same case under the baseline
            configuration (cached by the runner).
    """

    spec: IorSpec
    config: SystemConfig
    seconds: float
    cost: float
    baseline_seconds: float
    baseline_cost: float

    @property
    def speedup(self) -> float:
        """Performance improvement over baseline (>1 = faster). Eq. (2)."""
        return self.baseline_seconds / self.seconds

    @property
    def cost_ratio(self) -> float:
        """Cost improvement over baseline (>1 = cheaper)."""
        return self.baseline_cost / self.cost


class IorRunner:
    """Runs IOR cases on the simulator, caching baseline measurements.

    The baseline for a given *application characteristics* point is shared
    by all candidate configurations, so caching cuts the training sweep
    roughly in half.
    """

    def __init__(
        self,
        platform: CloudPlatform = DEFAULT_PLATFORM,
        baseline: SystemConfig = BASELINE_CONFIG,
        reps: int = 1,
    ) -> None:
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        self.platform = platform
        self.baseline = baseline
        self.reps = reps
        self._simulator = IOSimulator(platform)
        self._baseline_cache: dict[str, RunResult] = {}

    def measure(self, spec: IorSpec, config: SystemConfig) -> IorObservation:
        """Run one IOR case under ``config`` (and, if new, the baseline)."""
        return self._observe(spec, spec.to_characteristics(), config)

    def measure_characteristics(
        self, chars: AppCharacteristics, config: SystemConfig
    ) -> IorObservation:
        """:meth:`measure` the IOR case that mimics ``chars``.

        That case (:meth:`IorSpec.from_characteristics`) maps ``chars``
        one to one, so its workload runs ``chars`` as given instead of
        converting them back from the spec: the same workload and the
        same numbers.  Screening and training measure their points here.
        """
        return self._observe(IorSpec.from_characteristics(chars), chars, config)

    def _observe(
        self, spec: IorSpec, chars: AppCharacteristics, config: SystemConfig
    ) -> IorObservation:
        # The workload spec.to_workload() builds.  Its name, the command
        # line, keys the run's noise streams and the baseline cache.
        workload = Workload.pure_io(name=spec.command_line(), chars=chars)
        result = self._simulator.run_median(workload, config, reps=self.reps)
        base = self._baseline_cache.get(workload.name)
        if base is None:
            base = self._simulator.run_median(workload, self.baseline, reps=self.reps)
            self._baseline_cache[workload.name] = base
        return IorObservation(
            spec=spec,
            config=config,
            seconds=result.seconds,
            cost=result.cost,
            baseline_seconds=base.seconds,
            baseline_cost=base.cost,
        )
