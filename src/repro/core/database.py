"""The ACIC training database.

The crowdsourcing service model (Section 2) revolves around a shared,
append-only store of IOR measurements: community members contribute
observations, the database merges them, ages out points that predate a
platform overhaul, and feeds encoded matrices to whatever learner is
plugged in.  This implementation is JSON-backed so the released artifact
("we have recently released ... all our training data") can be shipped
and re-loaded.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.objectives import Goal
from repro.ior.runner import IorObservation
from repro.ml.encoding import FeatureEncoder, point_values
from repro.space.parameters import PARAMETERS

__all__ = ["TrainingRecord", "TrainingDatabase"]

_SERIALIZABLE = {p.name for p in PARAMETERS}


@dataclass(frozen=True)
class TrainingRecord:
    """One training data point: a 15-D location plus its measurements.

    Attributes:
        values: {dimension name: value} for the concatenated point.
        seconds / cost: measured run time and Eq. (1) cost.
        perf_improvement / cost_improvement: ratios over the baseline
            configuration (the learning targets).
        epoch: logical contribution time; aging drops small epochs after
            platform overhauls.
        source: provenance tag ("initial-training", "walk", a user id...).
    """

    values: dict[str, object]
    seconds: float
    cost: float
    perf_improvement: float
    cost_improvement: float
    epoch: int = 0
    source: str = "initial-training"

    def __post_init__(self) -> None:
        unknown = set(self.values) - _SERIALIZABLE
        if unknown:
            raise ValueError(f"unknown dimensions in record: {sorted(unknown)}")
        # JSON frames and files may carry NaN/Infinity literals; NaN fails
        # every comparison, so the chained bounds refuse it too.
        if not (0 < self.seconds < math.inf and 0 < self.cost < math.inf):
            raise ValueError("seconds and cost must be positive and finite")
        if not (
            0 < self.perf_improvement < math.inf
            and 0 < self.cost_improvement < math.inf
        ):
            raise ValueError("improvement ratios must be positive and finite")

    def target(self, goal: Goal) -> float:
        """The improvement ratio for the given goal."""
        return self.perf_improvement if goal is Goal.PERFORMANCE else self.cost_improvement

    @property
    def fingerprint(self) -> tuple:
        """Identity of the point location + provenance (for dedup)."""
        return (
            tuple(sorted((k, str(v)) for k, v in self.values.items())),
            self.epoch,
            self.source,
        )

    @classmethod
    def from_observation(
        cls, observation: IorObservation, epoch: int = 0, source: str = "initial-training"
    ) -> "TrainingRecord":
        """Build a record from a measured IOR observation."""
        values = point_values(observation.config, observation.spec.to_characteristics())
        return cls(
            values=values,
            seconds=observation.seconds,
            cost=observation.cost,
            perf_improvement=observation.speedup,
            cost_improvement=observation.cost_ratio,
            epoch=epoch,
            source=source,
        )

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The record as a plain JSON-compatible dict (wire/log form)."""
        return {
            "values": {k: _to_json(v) for k, v in self.values.items()},
            "seconds": self.seconds,
            "cost": self.cost,
            "perf_improvement": self.perf_improvement,
            "cost_improvement": self.cost_improvement,
            "epoch": self.epoch,
            "source": self.source,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TrainingRecord":
        """Re-hydrate a record from its :meth:`to_payload` form.

        Raises:
            ValueError: missing fields or invalid record contents (the
                dataclass validators run as usual).
        """
        try:
            return cls(
                values={
                    k: _from_json(k, v) for k, v in payload["values"].items()
                },
                seconds=payload["seconds"],
                cost=payload["cost"],
                perf_improvement=payload["perf_improvement"],
                cost_improvement=payload["cost_improvement"],
                epoch=payload.get("epoch", 0),
                source=payload.get("source", "initial-training"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed training record payload: {exc}") from exc


class TrainingDatabase:
    """Append-only store of :class:`TrainingRecord` with merge and aging.

    Args:
        platform_name: which cloud the data describes; merging databases
            from different platforms is refused (training is
            platform-specific, Section 2).
    """

    def __init__(self, platform_name: str = "ec2-us-east") -> None:
        self.platform_name = platform_name
        self._records: list[TrainingRecord] = []
        self._fingerprints: set[tuple] = set()

    # ------------------------------------------------------------------
    def add(self, record: TrainingRecord) -> bool:
        """Insert one record; returns False for an exact duplicate."""
        fingerprint = record.fingerprint
        if fingerprint in self._fingerprints:
            return False
        self._records.append(record)
        self._fingerprints.add(fingerprint)
        return True

    def extend(self, records: Iterable[TrainingRecord]) -> int:
        """Insert many records; returns how many were new."""
        return sum(1 for record in records if self.add(record))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TrainingRecord]:
        return iter(self._records)

    @property
    def records(self) -> tuple[TrainingRecord, ...]:
        """All records, insertion order (immutable view)."""
        return tuple(self._records)

    def filter(self, predicate: Callable[[TrainingRecord], bool]) -> "TrainingDatabase":
        """A new database holding the records matching ``predicate``."""
        out = TrainingDatabase(self.platform_name)
        out.extend(r for r in self._records if predicate(r))
        return out

    # ------------------------------------------------------------------
    def merge(self, other: "TrainingDatabase") -> int:
        """Fold another contributor's database in; returns new records.

        Raises:
            ValueError: when the platforms differ — cross-platform data
                would poison the model.
        """
        if other.platform_name != self.platform_name:
            raise ValueError(
                f"cannot merge {other.platform_name!r} data into "
                f"{self.platform_name!r} database"
            )
        return self.extend(other.records)

    def age_out(self, min_epoch: int) -> int:
        """Drop records older than ``min_epoch`` (platform overhauls);
        returns how many were removed."""
        keep = [r for r in self._records if r.epoch >= min_epoch]
        removed = len(self._records) - len(keep)
        self._records = keep
        self._fingerprints = {r.fingerprint for r in keep}
        return removed

    # ------------------------------------------------------------------
    def to_matrix(self, encoder: FeatureEncoder, goal: Goal) -> tuple[np.ndarray, np.ndarray]:
        """Encode all records into (X, y) for a learner.

        Targets are log-ratios: improvement factors are multiplicative, so
        learning in log space makes over- and under-estimation symmetric.
        """
        if len(self._records) == 0:
            raise ValueError("training database is empty")
        X = encoder.encode_many([r.values for r in self._records])
        y = np.log(np.array([r.target(goal) for r in self._records], dtype=float))
        return X, y

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The whole database as a JSON-compatible dict (file/wire form)."""
        return {
            "platform": self.platform_name,
            "records": [r.to_payload() for r in self._records],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TrainingDatabase":
        """Re-hydrate a database from its :meth:`to_payload` form.

        The wire contribution path (``CONTRIBUTE`` frames) and the
        JSON artifact share this decoder.

        Raises:
            ValueError: missing fields or an invalid record.
        """
        if not isinstance(payload, dict) or "platform" not in payload:
            raise ValueError("database payload must carry a 'platform'")
        db = cls(str(payload["platform"]))
        for raw in payload.get("records", ()):
            db.add(TrainingRecord.from_payload(raw))
        return db

    def save(self, path: str | Path) -> None:
        """Serialize to JSON (values stringified through their enums)."""
        Path(path).write_text(json.dumps(self.to_payload()))

    @classmethod
    def load(cls, path: str | Path) -> "TrainingDatabase":
        """Deserialize a database from its JSON artifact."""
        return cls.from_payload(json.loads(Path(path).read_text()))


def _to_json(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _from_json(name: str, value: object) -> object:
    """Re-hydrate enum-valued dimensions from their string form."""
    from repro.space.parameters import parameter_by_name

    if value is None or isinstance(value, bool):
        return value
    parameter = parameter_by_name(name)
    if parameter.numeric:
        return value
    for candidate in parameter.values:
        if str(candidate) == value or candidate == value:
            return candidate
    return value
