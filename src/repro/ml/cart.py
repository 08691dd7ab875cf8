"""CART regression trees, from scratch (Breiman et al., paper ref [35]).

Binary trees grown top-down: at every node the split (feature, threshold)
minimizing the children's summed squared error is chosen; leaves predict
the mean of their samples and also expose the standard deviation, which
the paper's Figure 4 renders in every node.  Each node scores every
(feature, cut) pair at once, with cumulative-sum scans over all columns
in a handful of array passes, so a fit on the 7920-record top-10 ACIC
training set takes a fraction of a second.  Overfitting is handled by
:mod:`repro.ml.pruning`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CartNode", "CartTree"]


@dataclass
class CartNode:
    """One node of a regression tree.

    Internal nodes carry a decision (``feature``, ``threshold``; samples
    with ``x[feature] <= threshold`` go left); every node carries the
    prediction statistics of the samples it covers, so a pruned node can
    serve as a leaf directly.
    """

    mean: float
    std: float
    n_samples: int
    sse: float
    feature: int | None = None
    threshold: float | None = None
    left: "CartNode | None" = None
    right: "CartNode | None" = None

    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return self.left is None

    def predict_one(self, x: np.ndarray) -> float:
        """Route one sample to its leaf and return the leaf mean."""
        node = self
        while not node.is_leaf:
            assert node.feature is not None and node.threshold is not None
            assert node.left is not None and node.right is not None
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.mean

    def leaf_for(self, x: np.ndarray) -> "CartNode":
        """The leaf a sample routes to (exposes mean and std, Figure 4)."""
        node = self
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def count_leaves(self) -> int:
        """Number of leaves in the subtree."""
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return self.left.count_leaves() + self.right.count_leaves()

    def depth(self) -> int:
        """Depth of the (sub)tree (0 = leaf/stump)."""
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())

    def subtree_sse(self) -> float:
        """Summed squared error of the subtree's leaves."""
        if self.is_leaf:
            return self.sse
        assert self.left is not None and self.right is not None
        return self.left.subtree_sse() + self.right.subtree_sse()


@dataclass
class CartTree:
    """A fitted CART regressor.

    Args:
        max_depth: depth cap for growth (None = unlimited).
        min_samples_leaf: smallest admissible leaf.
        min_impurity_decrease: minimum SSE reduction to accept a split.
        feature_names: optional labels used by :meth:`render`.
    """

    max_depth: int | None = None
    min_samples_leaf: int = 2
    min_impurity_decrease: float = 1e-9
    feature_names: tuple[str, ...] | None = None
    root: CartNode | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "CartTree":
        """Grow the tree on training matrix X (n, d) and targets y (n,)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} does not match X rows {X.shape[0]}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("X and y must be finite (no NaN or infinity)")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.root = self._grow(X, y, depth=0)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for an (n, d) matrix (or a single d-vector).

        Batches are routed level by level with index arrays — one numpy
        comparison per visited node instead of one Python tree walk per
        row — which is what makes the serving layer's vectorized batch
        queries cheap.  Identical results to per-row :meth:`CartNode.
        predict_one` routing.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return np.array([self.root.predict_one(X)])
        out = np.empty(X.shape[0], dtype=float)
        stack: list[tuple[CartNode, np.ndarray]] = [
            (self.root, np.arange(X.shape[0]))
        ]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                out[rows] = node.mean
                continue
            assert node.left is not None and node.right is not None
            goes_left = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[goes_left]))
            stack.append((node.right, rows[~goes_left]))
        return out

    def predict_with_std(self, x: np.ndarray) -> tuple[float, float]:
        """Leaf (mean, std) for one sample — the Figure 4 node contents."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        leaf = self.root.leaf_for(np.asarray(x, dtype=float))
        return leaf.mean, leaf.std

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        return self.root.count_leaves()

    def depth(self) -> int:
        """Depth of the (sub)tree (0 = leaf/stump)."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        return self.root.depth()

    # ------------------------------------------------------------------
    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> CartNode:
        n = y.shape[0]
        mean = float(np.add.reduce(y)) / n
        deviation = y - mean
        sse = float(np.add.reduce(np.square(deviation, out=deviation)))
        # sqrt(sse / n) is bit-identical to y.std(), which repeats the same
        # mean, squared deviations and sum.
        node = CartNode(mean=mean, std=math.sqrt(sse / n), n_samples=n, sse=sse)
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        if n < 2 * self.min_samples_leaf or sse <= 0.0:
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
        """The SSE-minimizing (feature, threshold), scoring all features at once.

        Every column is stably sorted in one ``argsort``; column-wise prefix
        sums of ``y`` and ``y**2`` along those orders then give the children's
        SSE for every cut of every feature in one (features, cuts) gains
        matrix.  Cut ``p`` puts the ``p + 1`` smallest samples left; only cuts
        leaving both leaves at least ``min_samples_leaf`` samples are scored,
        and cuts between equal values are masked out.  The winner is the first
        best cut of the lowest-numbered best feature, and its gain must
        strictly exceed ``min_impurity_decrease`` (a feature whose gains hold
        a NaN is skipped, as a per-feature scan taking ``argmax`` and testing
        it with ``>`` would).  The gains are built in place in the prefix-sum
        arrays plus one more, so a node's working memory (``order``, two
        prefix sums, gains) stays near four times its slice of ``X``.
        """
        n, d = X.shape
        if d == 0:
            return None
        lo, hi = self.min_samples_leaf - 1, n - self.min_samples_leaf
        columns = X.T
        order = columns.argsort(axis=1, kind="stable")
        features = np.arange(d)
        # the complement of the boundary rule np.diff(sorted values) != 0
        tied = np.diff(columns[features[:, None], order[:, lo:hi + 1]], axis=1) == 0

        prefix = y[order]
        np.cumsum(prefix, axis=1, out=prefix)
        prefix_sq = np.square(y)[order]
        np.cumsum(prefix_sq, axis=1, out=prefix_sq)
        counts_left = np.arange(lo + 1, hi + 1, dtype=float)
        # sse_left = sq_left - sum_left**2 / counts_left, built in prefix;
        # sse_right = sq_right - sum_right**2 / counts_right, built in gains.
        sum_left = prefix[:, lo:hi]
        sq_left = prefix_sq[:, lo:hi]
        gains = np.subtract(prefix[:, -1:], sum_left)
        np.square(gains, out=gains)
        np.divide(gains, n - counts_left, out=gains)
        np.square(sum_left, out=sum_left)
        np.divide(sum_left, counts_left, out=sum_left)
        np.subtract(sq_left, sum_left, out=sum_left)
        np.subtract(prefix_sq[:, -1:], sq_left, out=sq_left)
        np.subtract(sq_left, gains, out=gains)
        np.add(sum_left, gains, out=gains)
        np.subtract(parent_sse, gains, out=gains)
        np.copyto(gains, -np.inf, where=tied)

        cut = gains.argmax(axis=1)
        top = gains[features, cut]
        top = np.where(top > self.min_impurity_decrease, top, -np.inf)
        feature = int(top.argmax())
        if top[feature] == -np.inf:
            return None
        position = lo + cut[feature]
        column = columns[feature]
        threshold = float(
            (column[order[feature, position]] + column[order[feature, position + 1]])
            / 2.0
        )
        return feature, threshold

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize the fitted tree to a JSON-compatible dict.

        Nodes are stored as a flat preorder list with child indices, so
        arbitrarily deep trees (de)serialize without recursion and the
        JSON text is byte-stable for identical trees.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        nodes: list[CartNode] = []
        index_of: dict[int, int] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            index_of[id(node)] = len(nodes)
            nodes.append(node)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                stack.append(node.right)
                stack.append(node.left)
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "min_impurity_decrease": self.min_impurity_decrease,
            "feature_names": list(self.feature_names) if self.feature_names else None,
            "nodes": [
                {
                    "mean": node.mean,
                    "std": node.std,
                    "n_samples": node.n_samples,
                    "sse": node.sse,
                    "feature": node.feature,
                    "threshold": node.threshold,
                    "left": index_of[id(node.left)] if node.left is not None else None,
                    "right": index_of[id(node.right)] if node.right is not None else None,
                }
                for node in nodes
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CartTree":
        """Rebuild a fitted tree from :meth:`to_dict` output."""
        nodes = [
            CartNode(
                mean=raw["mean"],
                std=raw["std"],
                n_samples=raw["n_samples"],
                sse=raw["sse"],
                feature=raw["feature"],
                threshold=raw["threshold"],
            )
            for raw in payload["nodes"]
        ]
        for node, raw in zip(nodes, payload["nodes"]):
            if raw["left"] is not None:
                node.left = nodes[raw["left"]]
                node.right = nodes[raw["right"]]
        names = payload.get("feature_names")
        return cls(
            max_depth=payload["max_depth"],
            min_samples_leaf=payload["min_samples_leaf"],
            min_impurity_decrease=payload["min_impurity_decrease"],
            feature_names=tuple(names) if names else None,
            root=nodes[0],
        )

    # ------------------------------------------------------------------
    def render(self, max_depth: int = 4) -> str:
        """ASCII rendering in the spirit of the paper's Figure 4."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        lines: list[str] = []

        def name_of(feature: int) -> str:
            if self.feature_names and feature < len(self.feature_names):
                return self.feature_names[feature]
            return f"x{feature}"

        def walk(node: CartNode, prefix: str, depth: int) -> None:
            stats = f"avg={node.mean:.3g} std={node.std:.3g} n={node.n_samples}"
            if node.is_leaf or depth >= max_depth:
                marker = "leaf" if node.is_leaf else "..."
                lines.append(f"{prefix}[{marker}] {stats}")
                return
            lines.append(f"{prefix}{name_of(node.feature)} <= {node.threshold:.4g} ({stats})")
            walk(node.left, prefix + "  |-(yes) ", depth + 1)
            walk(node.right, prefix + "  |-(no)  ", depth + 1)

        walk(self.root, "", 0)
        return "\n".join(lines)
