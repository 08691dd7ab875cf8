"""Tests for the from-scratch CART regression tree."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.objectives import Goal
from repro.ml.cart import CartTree
from repro.ml.registry import make_learner


def step_data(n=200, seed=0):
    """y = 1 if x0 > 0.5 else 0, plus a tiny slope on x1."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 2))
    y = (X[:, 0] > 0.5).astype(float) + 0.01 * X[:, 1]
    return X, y


class TestFitValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CartTree().fit(np.empty((0, 2)), np.empty(0))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CartTree().fit(np.zeros((5, 2)), np.zeros(4))

    def test_rejects_1d_X(self):
        with pytest.raises(ValueError):
            CartTree().fit(np.zeros(5), np.zeros(5))

    def test_rejects_bad_min_samples(self):
        with pytest.raises(ValueError):
            CartTree(min_samples_leaf=0).fit(np.zeros((4, 1)), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_rejects_non_finite(self, where, bad):
        X, y = step_data(20)
        if where == "X":
            X[3, 1] = bad
        else:
            y[3] = bad
        with pytest.raises(ValueError, match="finite"):
            CartTree().fit(X, y)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            CartTree().predict(np.zeros((1, 2)))


class TestLearning:
    def test_recovers_step_function(self):
        X, y = step_data()
        tree = CartTree().fit(X, y)
        predictions = tree.predict(X)
        assert np.mean((predictions - y) ** 2) < 0.01

    def test_first_split_finds_signal_feature(self):
        X, y = step_data()
        tree = CartTree().fit(X, y)
        assert tree.root.feature == 0
        assert 0.4 < tree.root.threshold < 0.6

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(1).uniform(size=(50, 3))
        tree = CartTree().fit(X, np.full(50, 7.0))
        assert tree.n_leaves() == 1
        assert tree.predict(X[0]) == pytest.approx(7.0)

    def test_never_worse_than_constant_model(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(100, 4))
        y = rng.normal(size=100)
        tree = CartTree(min_samples_leaf=5).fit(X, y)
        tree_mse = np.mean((tree.predict(X) - y) ** 2)
        constant_mse = np.var(y)
        assert tree_mse <= constant_mse + 1e-12

    def test_exact_fit_on_unique_inputs(self):
        """Fully grown on distinct points, leaves reproduce targets."""
        X = np.arange(16, dtype=float).reshape(-1, 1)
        y = np.array([float(i % 5) for i in range(16)])
        tree = CartTree(min_samples_leaf=1).fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_single_vector_predict(self):
        X, y = step_data()
        tree = CartTree().fit(X, y)
        assert tree.predict(np.array([0.9, 0.5])).shape == (1,)


class TestConstraints:
    def test_max_depth_respected(self):
        X, y = step_data(400)
        tree = CartTree(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_min_samples_leaf_respected(self):
        X, y = step_data(100)
        tree = CartTree(min_samples_leaf=10).fit(X, y)

        def check(node):
            if node.is_leaf:
                assert node.n_samples >= 10
            else:
                check(node.left)
                check(node.right)

        check(tree.root)

    def test_depth_zero_is_a_stump(self):
        X, y = step_data()
        tree = CartTree(max_depth=0).fit(X, y)
        assert tree.n_leaves() == 1


class TestLeafStatistics:
    def test_predict_with_std_matches_figure4_contract(self):
        X, y = step_data()
        tree = CartTree(min_samples_leaf=5).fit(X, y)
        mean, std = tree.predict_with_std(np.array([0.9, 0.5]))
        assert mean == pytest.approx(1.0, abs=0.05)
        assert std >= 0.0

    def test_node_stats_consistent(self):
        X, y = step_data()
        tree = CartTree().fit(X, y)
        root = tree.root
        assert root.n_samples == len(y)
        assert root.mean == pytest.approx(float(np.mean(y)))
        assert root.sse == pytest.approx(float(np.sum((y - y.mean()) ** 2)))


class TestWorkingMemory:
    def test_fit_peak_stays_within_five_times_x(self, context):
        """A node's split search holds its sort order, two prefix sums and
        the gains, each about the size of its slice of X.  One fit on the
        top-10 ACIC set peaks near 4.4x ``X.nbytes``; the per-feature scan
        it replaced peaked near 3.0x."""
        goal = Goal.PERFORMANCE
        X, y = context.database.to_matrix(context.model(goal).encoder, goal)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            make_learner("cart").fit(X, y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 5 * X.nbytes, f"peak {peak / X.nbytes:.2f}x X.nbytes"


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=5, max_value=80),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_predictions_within_target_range(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        tree = CartTree(min_samples_leaf=2).fit(X, y)
        queries = rng.normal(size=(20, d)) * 10  # even far outside training
        predictions = tree.predict(queries)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_deterministic_fit(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        a = CartTree().fit(X, y).predict(X)
        b = CartTree().fit(X, y).predict(X)
        assert np.array_equal(a, b)


class TestRender:
    def test_render_shows_features_and_stats(self):
        X, y = step_data()
        tree = CartTree(feature_names=("alpha", "beta")).fit(X, y)
        text = tree.render()
        assert "alpha" in text
        assert "avg=" in text and "std=" in text

    def test_render_depth_limited(self):
        X, y = step_data(500)
        tree = CartTree(min_samples_leaf=1).fit(X, y)
        shallow = tree.render(max_depth=1)
        assert "..." in shallow or "leaf" in shallow
