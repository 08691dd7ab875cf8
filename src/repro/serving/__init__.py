"""Model serving: versioned artifacts, batch inference, bounded caching.

The paper's Section 2 service model — one crowdsourced training database
answering many users' configuration queries — needs more than a trained
model in memory.  This subsystem turns the reproduction into an inference
stack:

* :mod:`repro.serving.artifacts` — save/load any registered learner as a
  versioned, hash-verified JSON artifact (train once, ship everywhere);
* :mod:`repro.serving.engine` — :class:`BatchQueryEngine` precomputes the
  candidate-grid feature matrix per model and answers query batches with
  one vectorized prediction pass (through the packed
  :mod:`repro.ml.flat` core by default);
* :mod:`repro.serving.matrix` — :class:`CandidateMatrixCache` shares
  those encoded candidate matrices
  (:class:`~repro.core.candidates.CandidateMatrix`, the join both the
  engine and :meth:`~repro.core.configurator.Acic.recommend` use) across
  engine rebuilds, with scoped invalidation on online promotion/rollback;
* :mod:`repro.serving.cache` — a bounded LRU with hit/miss/eviction
  counters backing the service's response cache.

:class:`repro.service.AcicService` wires all three together (``save`` /
``load`` / ``query_batch``).
"""

from repro.core.candidates import CandidateMatrix
from repro.serving.artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ArtifactError,
    ModelArtifact,
    PackedLearner,
    acic_from_artifact,
    artifact_from_dict,
    artifact_to_dict,
    load_artifact,
    save_artifact,
)
from repro.serving.cache import CacheStats, LruCache
from repro.serving.engine import BatchQueryEngine
from repro.serving.matrix import CandidateMatrixCache

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ModelArtifact",
    "PackedLearner",
    "acic_from_artifact",
    "artifact_from_dict",
    "artifact_to_dict",
    "load_artifact",
    "save_artifact",
    "CacheStats",
    "LruCache",
    "BatchQueryEngine",
    "CandidateMatrix",
    "CandidateMatrixCache",
]
