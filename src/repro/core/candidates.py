"""The query join's invariant half: one encoded candidate grid.

Every ACIC query (paper Figure 2, Section 4.2) joins one application's
characteristics with every candidate system configuration.  The system
side of that join never changes between queries, so
:class:`CandidateMatrix` encodes it once into a read-only base matrix,
memoizes per workload shape which candidates can host the job, and
:meth:`CandidateMatrix.join` fills in only the application-side columns
per query.  The single-query path (:meth:`repro.core.configurator.Acic.
recommend`) and the batch engine (:class:`repro.serving.engine.
BatchQueryEngine`) both join through it, so the two build the same
feature matrix by construction.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.ml.encoding import characteristics_values, config_values
from repro.space.parameters import ParameterKind
from repro.space.validity import is_valid_point

__all__ = ["CandidateMatrix"]


class CandidateMatrix:
    """One encoding of a candidate set for one column layout.

    Attributes:
        encoder: the feature encoder whose column layout ``base`` uses.
        candidates: the candidate configurations, in row order.
        base: (n_candidates, width) float64 matrix with the system-side
            columns encoded (read-only; application-side columns are
            zero and filled per query on copies).
        system_columns / application_columns: column index arrays by
            :class:`~repro.space.parameters.ParameterKind`.
    """

    def __init__(self, encoder, candidates) -> None:
        self.encoder = encoder
        self.candidates = tuple(candidates)
        kinds = [p.kind for p in encoder.parameters]
        self.system_columns = np.array(
            [i for i, kind in enumerate(kinds) if kind is ParameterKind.SYSTEM],
            dtype=int,
        )
        self.application_columns = np.array(
            [i for i, kind in enumerate(kinds) if kind is ParameterKind.APPLICATION],
            dtype=int,
        )
        self.base = np.zeros((len(self.candidates), encoder.width), dtype=float)
        for row, config in enumerate(self.candidates):
            encoded = encoder.encode_values(config_values(config))
            self.base[row, self.system_columns] = encoded[self.system_columns]
        self.base.setflags(write=False)
        self._valid_rows: dict[tuple, np.ndarray] = {}
        self._valid_lock = threading.Lock()

    def valid_rows(self, chars) -> np.ndarray:
        """Row indices of candidates that can host this workload.

        :func:`is_valid_point` depends on the workload only through the
        process count (part-time placement needs servers <= compute
        nodes) and the collective/interface pairing, so the index set
        is memoized under that exact key — one Python validity sweep
        per distinct workload shape, then O(1) lookups.
        """
        key = (chars.num_processes, chars.collective, chars.interface.base)
        rows = self._valid_rows.get(key)
        if rows is None:
            rows = np.array(
                [
                    row
                    for row, config in enumerate(self.candidates)
                    if is_valid_point(config, chars)
                ],
                dtype=np.intp,
            )
            rows.setflags(write=False)
            with self._valid_lock:
                self._valid_rows.setdefault(key, rows)
        return rows

    def join(self, chars) -> tuple[np.ndarray, list]:
        """(feature matrix, candidate list) of one query's valid join.

        The rows are copies of the base matrix's valid rows, in
        candidate order, with the application-side columns set to the
        workload's encoded values.
        """
        rows = self.valid_rows(chars)
        X = self.base[rows, :]
        if self.application_columns.size:
            encoded = self.encoder.encode_values(characteristics_values(chars))
            X[:, self.application_columns] = encoded[self.application_columns]
        return X, [self.candidates[row] for row in rows]
