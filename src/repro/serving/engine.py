"""Vectorized batch inference over the candidate-configuration grid.

Every ACIC query is the same join: the application's characteristics
against *all* candidate system configurations.  :meth:`Acic.recommend`
already hoists the invariant half of that join (one encoded
:class:`~repro.core.candidates.CandidateMatrix` per configurator, the
model's packed twin flattened once); :class:`BatchQueryEngine` runs the
same join for many queries at once:

* the candidate set is encoded once per model into a base matrix —
  the configurator's own matrix by default, or one shared across
  engines via :class:`~repro.serving.matrix.CandidateMatrixCache`,
* per-workload valid-row index sets are memoized, so repeat workload
  shapes skip the Python validity sweep entirely,
* a query only encodes its nine application-side values (one row, not
  one per candidate) and broadcasts them across the base matrix; the
  rows of a whole batch are stacked and scored by a single vectorized
  ``predict``,
* with ``use_flat`` (the default) that predict runs through the packed
  :mod:`repro.ml.flat` twin of the model — array passes instead of
  Python node recursion, bit-identical by the differential suite.

Ranking goes through :func:`repro.core.configurator.rank_scored`, so the
engine's recommendations are *identical* to the sequential path — the
property the tier-1 tests pin down, flat or not.

When telemetry is enabled (:mod:`repro.telemetry`), every batch pass
emits a ``serving.recommend_batch`` span with a nested
``serving.predict`` span around the vectorized learner call, plus
``serving.queries`` / ``serving.candidates_scored`` counters — the
per-stage cost data an advisor's operators size capacity from.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.candidates import CandidateMatrix
from repro.core.configurator import (
    Acic,
    Recommendation,
    rank_scored,
    tied_champions,
)
from repro.ml.flat import FlatForest, FlatTree
from repro.reliability.faults import get_injector
from repro.serving.artifacts import PackedLearner
from repro.serving.matrix import CandidateMatrixCache
from repro.space.characteristics import AppCharacteristics
from repro.space.configuration import SystemConfig
from repro.space.grid import candidate_configs
from repro.telemetry import get_telemetry

__all__ = ["BatchQueryEngine"]


class BatchQueryEngine:
    """Answers many recommendation queries against one trained model.

    Args:
        acic: a trained configurator (RuntimeError when untrained).
        candidates: candidate set to rank; defaults to the platform-side
            grid (every valid system configuration).  Per query,
            candidates that cannot host the workload are masked out —
            the same filter :func:`candidate_configs` applies.
        use_flat: serve predictions through the model's packed flat
            twin when it has one (CART / forest / artifact-packed);
            False forces the legacy object-tree walk.  Either way the
            answers are identical.
        matrix_cache: share encoded candidate matrices across engine
            rebuilds through this cache; None builds a private matrix.
        cache_scope: ``(platform, learner)`` invalidation scope for the
            shared cache (required when ``matrix_cache`` is given).
    """

    def __init__(
        self,
        acic: Acic,
        candidates: Sequence[SystemConfig] | None = None,
        *,
        use_flat: bool = True,
        matrix_cache: CandidateMatrixCache | None = None,
        cache_scope: tuple[str, str] | None = None,
    ) -> None:
        acic.model  # fail fast when untrained
        self.acic = acic
        if matrix_cache is not None:
            if cache_scope is None:
                raise ValueError("matrix_cache requires a (platform, learner) scope")
            platform, learner = cache_scope
            resolved = tuple(
                candidates if candidates is not None else candidate_configs()
            )
            self._matrix = matrix_cache.lease(
                platform, learner, acic.encoder, resolved
            )
        elif candidates is None:
            self._matrix = acic.candidate_matrix()
        else:
            self._matrix = CandidateMatrix(acic.encoder, candidates)
        self.candidates: tuple[SystemConfig, ...] = self._matrix.candidates
        # Base matrix: system-side columns encoded once per candidate;
        # application-side columns are filled per query (on copies — the
        # shared base itself is read-only).
        self._base = self._matrix.base
        if use_flat:
            self._predictor = acic.predictor()
        elif isinstance(acic.model, PackedLearner):
            # An artifact-decoded model predicts through its packed twin
            # by default; a legacy engine must genuinely walk the object
            # tree, so force materialization.
            self._predictor = acic.model.materialize()
        else:
            self._predictor = acic.model

    @property
    def engine_kind(self) -> str:
        """"flat" when serving packed arrays, "tree" on the legacy walk."""
        flat = isinstance(self._predictor, (FlatTree, FlatForest))
        return "flat" if flat else "tree"

    def _predict(self, X: np.ndarray) -> np.ndarray:
        """One vectorized model call — flat twin when available."""
        return self._predictor.predict(X)

    # ------------------------------------------------------------------
    def _join(
        self, chars: AppCharacteristics
    ) -> tuple[np.ndarray, list[SystemConfig]]:
        """(feature matrix, candidate list) for one query's valid join."""
        return self._matrix.join(chars)

    def score(
        self, chars: AppCharacteristics
    ) -> tuple[np.ndarray, list[SystemConfig]]:
        """Predicted improvement ratios over the valid candidates."""
        telemetry = get_telemetry()
        with telemetry.span("serving.score"):
            X, candidates = self._join(chars)
            if X.shape[0] == 0:
                return np.empty(0, dtype=float), candidates
            get_injector().perturb("serving.predict")
            with telemetry.span("serving.predict", rows=X.shape[0]):
                scores = np.exp(self._predict(X))
        telemetry.counter("serving.queries").inc()
        telemetry.counter("serving.candidates_scored").inc(X.shape[0])
        return scores, candidates

    # ------------------------------------------------------------------
    def recommend(
        self, chars: AppCharacteristics, top_k: int = 1
    ) -> list[Recommendation]:
        """Top-k recommendations — identical to :meth:`Acic.recommend`."""
        scores, candidates = self.score(chars)
        return rank_scored(list(zip(scores.tolist(), candidates)), top_k)

    def co_champions(self, chars: AppCharacteristics) -> list[SystemConfig]:
        """All candidates tied with the best prediction."""
        scores, candidates = self.score(chars)
        return tied_champions(list(zip(scores.tolist(), candidates)))

    def recommend_batch(
        self, queries: Sequence[tuple[AppCharacteristics, int]]
    ) -> list[list[Recommendation]]:
        """Answer (characteristics, top_k) queries in one call.

        Rows for all queries are stacked into a single feature matrix and
        the learner runs once over the whole batch, then each query's
        slice is ranked independently.  An empty query list is a no-op
        returning an empty result list.
        """
        telemetry = get_telemetry()
        with telemetry.span("serving.recommend_batch", queries=len(queries)):
            with telemetry.span("serving.join"):
                joins = [self._join(chars) for chars, _ in queries]
            blocks = [X for X, _ in joins if X.shape[0]]
            if not blocks:
                return [[] for _ in queries]
            stacked = np.vstack(blocks)
            get_injector().perturb("serving.predict")
            with telemetry.span("serving.predict", rows=stacked.shape[0]):
                predictions = np.exp(self._predict(stacked))
            with telemetry.span("serving.rank"):
                results: list[list[Recommendation]] = []
                offset = 0
                for (X, candidates), (_, top_k) in zip(joins, queries):
                    scores = predictions[offset : offset + X.shape[0]]
                    offset += X.shape[0]
                    results.append(
                        rank_scored(list(zip(scores.tolist(), candidates)), top_k)
                    )
        telemetry.counter("serving.queries").inc(len(queries))
        telemetry.counter("serving.candidates_scored").inc(stacked.shape[0])
        return results
