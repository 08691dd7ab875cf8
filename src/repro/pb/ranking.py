"""PB effect computation and parameter ranking for the ACIC space.

The screening executes one IOR run per PB row: each of the fifteen
dimensions is pinned to its low or high extreme according to the row's
signs, the run is measured on the target platform, and each parameter's
*effect* is the dot product of its sign column with the response vector
(Table 2).  "The sign of the result is meaningless when ranking."
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cloud.platform import CloudPlatform, DEFAULT_PLATFORM
from repro.ior.runner import IorRunner
from repro.ior.spec import IorSpec
from repro.pb.design import PBDesign
from repro.space.grid import characteristics_from_values, coerce_valid, config_from_values
from repro.space.parameters import PARAMETERS, Parameter

__all__ = ["PbScreening", "compute_effects", "rank_parameters", "screen_parameters"]


def compute_effects(matrix: np.ndarray, response: Sequence[float]) -> np.ndarray:
    """Main effect of each design column: |column . response|."""
    matrix = np.asarray(matrix, dtype=float)
    y = np.asarray(response, dtype=float)
    if matrix.shape[0] != y.shape[0]:
        raise ValueError(
            f"design has {matrix.shape[0]} runs but response has {y.shape[0]} entries"
        )
    return np.abs(matrix.T @ y)


def rank_parameters(names: Sequence[str], effects: Sequence[float]) -> dict[str, int]:
    """Ranks 1..N (1 = largest effect), ties broken by name order."""
    if len(names) != len(effects):
        raise ValueError("names and effects must have equal length")
    order = sorted(range(len(names)), key=lambda i: (-float(effects[i]), i))
    ranks = {}
    for rank, index in enumerate(order, start=1):
        ranks[names[index]] = rank
    return ranks


@dataclass(frozen=True)
class PbScreening:
    """Result of a PB screening campaign.

    Attributes:
        design: the design executed.
        response: measured response per run (seconds by default).
        effects: {parameter name: |effect|}.
        ranks: {parameter name: importance rank, 1 = most influential}.
        run_seconds: simulated wall-clock spent measuring.
        run_cost: dollars spent measuring (Eq. 1).
    """

    design: PBDesign
    response: tuple[float, ...]
    effects: dict[str, float]
    ranks: dict[str, int]
    run_seconds: float
    run_cost: float

    def ranked_names(self) -> list[str]:
        """Parameter names ordered most- to least-influential."""
        return sorted(self.ranks, key=self.ranks.__getitem__)


def screen_parameters(
    parameters: Sequence[Parameter] = PARAMETERS,
    platform: CloudPlatform = DEFAULT_PLATFORM,
    folded: bool = True,
    response_fn: Callable[[IorSpec, object], float] | None = None,
) -> PbScreening:
    """Run the foldover PB screening of the full 15-D space with IOR.

    Each PB row assigns every parameter its low (-1) or high (+1) value;
    the row is lowered to a (SystemConfig, IorSpec) pair — applying the
    same validity clamping as training grids — and measured.  The default
    response is the run's *improvement over the baseline configuration*
    (ACIC's learning target): screening raw seconds would spuriously
    crown run-length dimensions like the iteration count, which merely
    scale every configuration's time equally.

    Args:
        parameters: dimensions to screen (defaults to all of Table 1).
        platform: simulated cloud to measure on.
        folded: use the foldover design (32 runs for 15 parameters).
        response_fn: optional override mapping (spec, observation) to the
            response value; receives the :class:`IorObservation`.

    Returns:
        The screening result, including the measurement bill.
    """
    parameters = list(parameters)
    design = PBDesign.build([p.name for p in parameters], folded=folded)
    runner = IorRunner(platform=platform)

    response: list[float] = []
    total_seconds = 0.0
    total_cost = 0.0
    for assignment in design.assignments():
        values = {
            p.name: (p.high if assignment[p.name] > 0 else p.low) for p in parameters
        }
        chars = characteristics_from_values(values)
        config = coerce_valid(config_from_values(values), chars)
        observation = runner.measure_characteristics(chars, config)
        value = (
            observation.speedup
            if response_fn is None
            else float(response_fn(observation.spec, observation))
        )
        response.append(value)
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
