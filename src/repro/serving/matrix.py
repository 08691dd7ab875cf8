"""Shared cache of encoded candidate matrices, scoped for invalidation.

Every :class:`~repro.serving.engine.BatchQueryEngine` needs the same
invariant per model: a :class:`~repro.core.candidates.CandidateMatrix`
(the candidate set's system-side feature columns encoded into a base
matrix, plus the per-workload valid-row index sets).  Engines are
rebuilt whenever a model changes — lazily after a community
contribution, wholesale on an online promotion or rollback — and before
this cache each rebuild re-encoded the whole grid from scratch.

:class:`CandidateMatrixCache` memoizes those encodings per
``(platform, learner)`` scope (plus the encoder layout and candidate
set, so a generation that *does* change the feature columns can never
be served a stale matrix).  Promotion/rollback invalidation is scoped:
:meth:`CandidateMatrixCache.invalidate` drops exactly the affected
``(platform, learner)`` entries and leaves every other platform's
matrices warm — the property the cache-invalidation tests pin with
counter assertions (``serving.candidate_matrix.*``).

Entries are shared across goals and across engine rebuilds; the base
matrix is marked read-only and engines copy rows out of it, so sharing
is safe.  A lock serializes mutation — the shadow evaluator leases
entries from the retrain worker's thread while serving leases from the
request path.
"""

from __future__ import annotations

import json
import threading

from repro.core.candidates import CandidateMatrix

__all__ = ["CandidateMatrixCache"]


def _encoder_signature(encoder) -> str:
    """Canonical JSON of the column layout — two encoders that encode
    differently can never collide on a cache key."""
    return json.dumps(encoder.to_dict(), sort_keys=True, separators=(",", ":"))


class CandidateMatrixCache:
    """Bounded-scope cache of :class:`CandidateMatrix` entries.

    Args:
        metrics: registry for the ``<name>.hits`` / ``.misses`` /
            ``.invalidations`` counters and the ``<name>.entries``
            gauge (None = private accounting-free operation is not
            offered; a private registry is created instead so counters
            always exist).
        name: metric-name prefix.
    """

    def __init__(self, metrics=None, name: str = "serving.candidate_matrix") -> None:
        if metrics is None:
            from repro.telemetry import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: dict[tuple, CandidateMatrix] = {}
        self._hits = metrics.counter(
            f"{name}.hits", "candidate-matrix leases served from cache"
        )
        self._misses = metrics.counter(
            f"{name}.misses", "candidate-matrix leases that had to encode"
        )
        self._invalidations = metrics.counter(
            f"{name}.invalidations", "entries dropped by scoped invalidation"
        )
        self._size = metrics.gauge(f"{name}.entries", "matrices resident")

    # ------------------------------------------------------------------
    def lease(self, platform: str, learner: str, encoder, candidates) -> CandidateMatrix:
        """The cached matrix for this scope and layout, building on miss.

        The key includes the encoder layout and candidate identity, so
        a promotion that changes the feature columns (or an engine with
        a restricted candidate set) builds its own entry instead of
        reusing a stale one.
        """
        key = (
            platform,
            learner,
            _encoder_signature(encoder),
            tuple(config.key for config in candidates),
        )
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None:
            self._hits.inc()
            return entry
        self._misses.inc()
        entry = CandidateMatrix(encoder, candidates)
        with self._lock:
            resident = self._entries.setdefault(key, entry)
            self._size.set(len(self._entries))
        return resident

    def invalidate(self, platform: str, learners=None) -> int:
        """Drop this platform's entries; returns how many were dropped.

        Args:
            platform: whose models changed.
            learners: scope to these learner names; None drops every
                entry for the platform.
        """
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if key[0] == platform and (learners is None or key[1] in learners)
            ]
            for key in doomed:
                del self._entries[key]
            self._size.set(len(self._entries))
        self._invalidations.inc(len(doomed))
        return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
