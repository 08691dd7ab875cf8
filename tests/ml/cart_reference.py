"""The per-feature CART split scan, kept as the reference for the fast fit.

:class:`ReferenceCartTree` grows trees exactly as :class:`CartTree` did
before its split search scored all features in one array pass: node
statistics through ``y.mean()``/``y.std()``, and for every feature its own
stable sort, prefix sums and ``argmax``, accepting a feature only when its
best gain beats every earlier one.  The differential suite and the fit
speed guardrail compare :class:`CartTree` against it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.ml.cart import CartNode, CartTree

__all__ = ["ReferenceCartTree"]


class ReferenceCartTree(CartTree):
    """A :class:`CartTree` that grows through the per-feature scan."""

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> CartNode:
        mean = float(y.mean())
        sse = float(((y - mean) ** 2).sum())
        node = CartNode(
            mean=mean,
            std=float(y.std()),
            n_samples=y.shape[0],
            sse=sse,
        )
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        if y.shape[0] < 2 * self.min_samples_leaf or sse <= 0.0:
            return node

        split = self._best_split(X, y, sse)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, parent_sse: float
    ) -> tuple[int, float] | None:
        n = y.shape[0]
        best_gain = self.min_impurity_decrease
        best: tuple[int, float] | None = None
        min_leaf = self.min_samples_leaf

        for feature in range(X.shape[1]):
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            xs = column[order]
            ys = y[order]
            # candidate boundaries: positions where the value changes
            boundaries = np.nonzero(np.diff(xs))[0]
            if boundaries.size == 0:
                continue
            prefix = np.cumsum(ys)
            prefix_sq = np.cumsum(ys ** 2)
            total = prefix[-1]
            total_sq = prefix_sq[-1]

            counts_left = boundaries + 1
            valid = (counts_left >= min_leaf) & (n - counts_left >= min_leaf)
            if not np.any(valid):
                continue
            counts_left = counts_left[valid]
            cut = boundaries[valid]

            sum_left = prefix[cut]
            sq_left = prefix_sq[cut]
            sum_right = total - sum_left
            sq_right = total_sq - sq_left
            counts_right = n - counts_left

            sse_left = sq_left - sum_left ** 2 / counts_left
            sse_right = sq_right - sum_right ** 2 / counts_right
            gains = parent_sse - (sse_left + sse_right)

            idx = int(np.argmax(gains))
            if gains[idx] > best_gain:
                best_gain = float(gains[idx])
                position = cut[idx]
                threshold = float((xs[position] + xs[position + 1]) / 2.0)
                best = (feature, threshold)
        return best
