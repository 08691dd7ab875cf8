"""The ACIC query engine (paper Figure 2, Section 4.2).

Given a trained database, a learner and an optimization goal, a query
joins the target application's I/O characteristics with every candidate
system configuration, predicts each candidate's improvement over the
baseline, and returns the top-k recommendations — with co-champion
detection, since configurations differing only in dimensions the model
was not trained on predict identically.

The invariant half of that join is hoisted: each :class:`Acic` encodes
the default candidate grid once, on its first query, into a
:class:`~repro.core.candidates.CandidateMatrix` (the same join the
serving layer's batch engine uses), and predicts through the fitted
model's packed :mod:`repro.ml.flat` twin, flattened once per fitted
model.  A query then encodes only its own nine application values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from collections.abc import Sequence

from repro.core.candidates import CandidateMatrix
from repro.core.database import TrainingDatabase
from repro.core.objectives import Goal
from repro.ml.encoding import FeatureEncoder, point_values
from repro.ml.flat import flatten_learner
from repro.ml.registry import Learner, make_learner
from repro.reliability.faults import get_injector
from repro.space.characteristics import AppCharacteristics
from repro.space.configuration import SystemConfig
from repro.space.grid import candidate_configs
from repro.telemetry import get_telemetry

__all__ = ["Recommendation", "Acic", "rank_scored", "tied_champions"]


@dataclass(frozen=True)
class Recommendation:
    """One ranked candidate configuration.

    Attributes:
        config: the candidate.
        predicted_improvement: model-predicted ratio over baseline
            (>1 = better), for the query's goal.
        rank: 1-based position in the recommendation list.
        co_champion_group: candidates with (numerically) identical
            predictions share a group id; the paper reports the median
            measurement across co-champions.
    """

    config: SystemConfig
    predicted_improvement: float
    rank: int
    co_champion_group: int


def rank_scored(
    scored: Sequence[tuple[float, SystemConfig]], top_k: int
) -> list[Recommendation]:
    """Turn (score, candidate) pairs into the top-k recommendation list.

    The single ranking rule of the system — score descending, config key
    as the deterministic tie-break, co-champion groups by numerical
    equality — shared by :meth:`Acic.recommend` and the serving layer's
    batch engine so both produce identical lists.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    ordered = sorted(scored, key=lambda pair: (-pair[0], pair[1].key))
    recommendations: list[Recommendation] = []
    group = 0
    previous_score: float | None = None
    for rank, (score, config) in enumerate(ordered[:top_k], start=1):
        if previous_score is None or abs(score - previous_score) > 1e-9:
            group += 1
        previous_score = score
        recommendations.append(
            Recommendation(
                config=config,
                predicted_improvement=score,
                rank=rank,
                co_champion_group=group,
            )
        )
    return recommendations


def tied_champions(
    scored: Sequence[tuple[float, SystemConfig]]
) -> list[SystemConfig]:
    """All candidates tied (within 1e-9) with the best score, key-sorted."""
    if not scored:
        return []
    best = max(score for score, _ in scored)
    return sorted(
        (config for score, config in scored if abs(score - best) <= 1e-9),
        key=lambda config: config.key,
    )


class Acic:
    """Automatic Cloud I/O Configurator.

    Args:
        database: training database for the target platform.
        goal: optimization objective (performance or cost).
        learner_name: registered learner to use ("cart", "knn", "ridge").
        feature_names: dimensions the model may use — normally the top-m
            PB-ranked names the database was collected over; defaults to
            all fifteen.
        encoder: explicit feature encoder; overrides ``feature_names``
            (used with extended spaces, where dimensions carry extra
            values beyond Table 1).
    """

    def __init__(
        self,
        database: TrainingDatabase,
        goal: Goal = Goal.PERFORMANCE,
        learner_name: str = "cart",
        feature_names: tuple[str, ...] | None = None,
        encoder: FeatureEncoder | None = None,
    ) -> None:
        self.database = database
        self.goal = goal
        self.learner_name = learner_name
        self.encoder = encoder if encoder is not None else FeatureEncoder(feature_names)
        self._model: Learner | None = None
        # Query-path state, built on first use: the encoded default
        # candidate grid, and (fitted model, its packed twin) — keyed by
        # the model so a refit flattens afresh.
        self._matrix: CandidateMatrix | None = None
        self._packed: tuple[Learner, object] | None = None

    @classmethod
    def from_fitted(
        cls,
        database: TrainingDatabase,
        model: Learner,
        goal: Goal,
        learner_name: str,
        encoder: FeatureEncoder,
    ) -> "Acic":
        """Wrap an already-fitted learner (e.g. loaded from an artifact).

        The instance answers queries immediately — no :meth:`train` call,
        no touching the database matrices.
        """
        acic = cls(database, goal=goal, learner_name=learner_name, encoder=encoder)
        acic._model = model
        return acic

    # ------------------------------------------------------------------
    def train(self, retry=None) -> "Acic":
        """Fit the plug-in learner on the database (log-ratio targets).

        ``retry`` is an optional :class:`repro.reliability.Retry`; with
        one, a transient injected fault re-fits instead of propagating
        (the service passes its resilience stack's executor here).
        """
        telemetry = get_telemetry()
        X, y = self.database.to_matrix(self.encoder, self.goal)

        def fit_once() -> Learner:
            get_injector().perturb("ml.fit")
            model = make_learner(self.learner_name)
            if hasattr(model, "feature_names"):
                model.feature_names = self.encoder.names
            with telemetry.span(
                "ml.fit", learner=self.learner_name, goal=self.goal.value,
                samples=X.shape[0],
            ):
                return model.fit(X, y)

        self._model = fit_once() if retry is None else retry.call(fit_once)
        telemetry.counter("ml.fits").inc()
        telemetry.counter("ml.fit_samples").inc(X.shape[0])
        return self

    @property
    def model(self) -> Learner:
        """The fitted learner (RuntimeError before train())."""
        if self._model is None:
            raise RuntimeError("call train() before querying")
        return self._model

    def candidate_matrix(self) -> CandidateMatrix:
        """The default candidate set, encoded once for this encoder."""
        if self._matrix is None:
            self._matrix = CandidateMatrix(self.encoder, candidate_configs())
        return self._matrix

    def predictor(self):
        """What queries predict through: the fitted model's packed
        :mod:`repro.ml.flat` twin (the model itself when it has none),
        flattened once per fitted model."""
        model = self.model
        packed = self._packed
        if packed is None or packed[0] is not model:
            flat = flatten_learner(model)
            packed = self._packed = (model, flat if flat is not None else model)
        return packed[1]

    # ------------------------------------------------------------------
    def predict_improvement(self, chars: AppCharacteristics, config: SystemConfig) -> float:
        """Predicted improvement ratio of one configuration over baseline."""
        x = self.encoder.encode_values(point_values(config, chars))
        return float(np.exp(self.model.predict(x[None, :])[0]))

    def score_candidates(
        self,
        chars: AppCharacteristics,
        candidates: Sequence[SystemConfig] | None = None,
    ) -> np.ndarray:
        """Predicted improvement ratios for all candidates, in order.

        Builds the full join into one matrix and calls the learner once,
        so tree routing (and any other learner) runs vectorized.  With
        ``candidates=None`` it scores the default candidate set through
        the hoisted join: the candidates that can host ``chars``, in
        :func:`candidate_configs` order.  Explicit candidates are
        encoded one by one.
        """
        if candidates is None:
            X, _ = self.candidate_matrix().join(chars)
        else:
            X = self.encoder.encode_many(
                [point_values(config, chars) for config in candidates]
            )
        if X.shape[0] == 0:
            return np.empty(0, dtype=float)
        telemetry = get_telemetry()
        get_injector().perturb("ml.predict")
        with telemetry.span("ml.predict", rows=X.shape[0]):
            scores = np.exp(self.predictor().predict(X))
        telemetry.counter("ml.predictions").inc(X.shape[0])
        return scores

    def _scored(
        self,
        chars: AppCharacteristics,
        candidates: Sequence[SystemConfig] | None,
    ) -> list[tuple[float, SystemConfig]]:
        """(score, candidate) pairs of one query's join."""
        scores = self.score_candidates(chars, candidates)
        if candidates is None:
            matrix = self.candidate_matrix()
            candidates = [matrix.candidates[row] for row in matrix.valid_rows(chars)]
        return list(zip(scores.tolist(), candidates))

    def recommend(
        self,
        chars: AppCharacteristics,
        top_k: int = 1,
        candidates: list[SystemConfig] | None = None,
    ) -> list[Recommendation]:
        """Top-k configurations for an application, best first.

        Ranks the full candidate configuration set (affordable: the
        prediction cost is negligible next to training collection)
        through the hoisted join: the grid is encoded once per
        configurator and each query fills in only its application
        columns.  Pass ``candidates`` explicitly to rank an extended or
        restricted set instead.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        return rank_scored(self._scored(chars, candidates), top_k)

    def co_champions(
        self,
        chars: AppCharacteristics,
        candidates: list[SystemConfig] | None = None,
    ) -> list[SystemConfig]:
        """All candidates tied with the best prediction."""
        return tied_champions(self._scored(chars, candidates))
