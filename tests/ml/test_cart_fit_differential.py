"""Differential suite: the all-features split search vs the per-feature scan.

:meth:`CartTree._best_split` scores every (feature, cut) pair of a node in
one set of array passes.  :class:`~tests.ml.cart_reference.ReferenceCartTree`
keeps the per-feature scan it replaced.  The claim is byte-identical trees
(``json.dumps(tree.to_dict())``): every float goes through the same
float64 operations in the same order, and the winner is picked by the
scan's tie rules.  The suite checks it on

* hypothesis fits over tie-rich value pools, with constant and duplicate
  columns, tied targets and every growth limit (``min_samples_leaf``,
  ``max_depth``, ``min_impurity_decrease``);
* hand-built cases pinning each tie rule;
* the shared test context's ACIC training set, both goals, top-10 and
  all-15 columns;
* random forests, whose predictions must be bit-identical;

and that a fit still enters ``_grow`` once per node grown.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.objectives import Goal
from repro.ml import forest as forest_module
from repro.ml.cart import CartTree
from repro.ml.encoding import FeatureEncoder
from repro.ml.forest import RandomForestRegressor
from repro.ml.registry import make_learner

from tests.ml.cart_reference import ReferenceCartTree

#: Value pools: small sets force equal values (non-boundary cuts), equal
#: gains across cuts and features, and exactly representable midpoints;
#: the signed zeros must stay one tie group.
_POOLS = (
    (0.0, 1.0),
    (-2.0, -1.0, 0.0, 1.0, 2.0),
    (-3.0, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0),
    (10.0, 12.0, 14.0, 16.0, 20.0, 24.0),
)

fit_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(1, 120),
        "d": st.integers(1, 6),
        "pool": st.one_of(st.sampled_from(_POOLS), st.none()),
        "constant_columns": st.integers(0, 2),
        "duplicate_columns": st.integers(0, 2),
        "target": st.sampled_from(("pool", "tied", "constant", "continuous")),
        "min_samples_leaf": st.integers(1, 6),
        "max_depth": st.one_of(st.none(), st.integers(0, 4)),
        "min_impurity_decrease": st.sampled_from((0.0, 1e-9, 1.0, 1e3)),
    }
)


def _dataset(case):
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["d"])
    pool = case["pool"]
    X = rng.normal(size=shape) if pool is None else rng.choice(pool, size=shape)
    for column in range(min(case["constant_columns"], case["d"])):
        X[:, column] = 0.5 * column
    for column in range(1, min(case["duplicate_columns"] + 1, case["d"])):
        X[:, -column] = X[:, 0]
    target = case["target"]
    if target == "pool":
        y = rng.choice((-1.0, 0.0, 0.5, 2.0), size=case["n"]) + 0.5 * X[:, 0]
    elif target == "tied":
        y = rng.choice((0.0, 1.0, 3.0), size=case["n"])
    elif target == "constant":
        y = np.full(case["n"], 1.25)
    else:
        y = rng.normal(size=case["n"])
    return X, y


def _params(case) -> dict:
    return {
        "max_depth": case["max_depth"],
        "min_samples_leaf": case["min_samples_leaf"],
        "min_impurity_decrease": case["min_impurity_decrease"],
    }


def _tree_bytes(tree: CartTree) -> str:
    return json.dumps(tree.to_dict())


def _assert_same_fit(X, y, **params) -> CartTree:
    tree = CartTree(**params).fit(X, y)
    reference = ReferenceCartTree(**params).fit(X, y)
    assert _tree_bytes(tree) == _tree_bytes(reference)
    return tree


class TestRandomFits:
    @given(fit_cases)
    @settings(max_examples=300, deadline=None)
    def test_trees_are_byte_identical(self, case):
        X, y = _dataset(case)
        _assert_same_fit(X, y, **_params(case))


class TestTieRules:
    def test_first_cut_wins_within_a_feature(self):
        # Cutting after the first or after the third sample gains exactly
        # the same; the scan keeps the first.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 5.0, 5.0, 0.0])
        tree = _assert_same_fit(X, y, min_samples_leaf=1, max_depth=1)
        assert tree.root.threshold == 0.5

    def test_lowest_feature_wins_among_equal_gains(self):
        column = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        X = np.column_stack([np.zeros(6), column, column])
        y = np.array([0.0, 0.0, 1.0, 1.0, 4.0, 4.0])
        tree = _assert_same_fit(X, y, min_samples_leaf=1)
        assert tree.root.feature == 1

    @pytest.mark.parametrize("floor, splits", [(2.0, False), (1.999, True)])
    def test_gain_must_strictly_exceed_the_floor(self, floor, splits):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 2.0])  # the only split gains exactly 2.0
        tree = _assert_same_fit(X, y, min_samples_leaf=1, min_impurity_decrease=floor)
        assert (not tree.root.is_leaf) is splits

    def test_cuts_inside_a_tie_group_are_never_taken(self):
        X = np.array([[-0.0], [0.0], [0.0], [1.0], [-0.0], [1.0]])
        y = np.array([0.0, 9.0, 0.0, 1.0, 9.0, 1.0])
        tree = _assert_same_fit(X, y, min_samples_leaf=1)
        assert tree.root.threshold == 0.5

    def test_no_columns_fits_a_single_leaf(self):
        tree = _assert_same_fit(np.zeros((5, 0)), np.arange(5.0))
        assert tree.n_leaves() == 1


class TestAcicTrainingSet:
    @pytest.mark.parametrize("goal", list(Goal), ids=lambda g: g.value)
    @pytest.mark.parametrize("columns", ["top-10", "all-15"])
    def test_fit_is_byte_identical(self, context, goal, columns):
        encoder = (
            context.model(goal).encoder if columns == "top-10" else FeatureEncoder()
        )
        X, y = context.database.to_matrix(encoder, goal)
        learner = make_learner("cart")
        params = {
            "max_depth": learner.max_depth,
            "min_samples_leaf": learner.min_samples_leaf,
            "min_impurity_decrease": learner.min_impurity_decrease,
        }
        tree = _assert_same_fit(X, y, **params)
        assert tree.n_leaves() > 100

    def test_forest_predictions_are_bit_identical(self, context, monkeypatch):
        model = context.model(Goal.PERFORMANCE)
        X, y = context.database.to_matrix(model.encoder, Goal.PERFORMANCE)
        forest = RandomForestRegressor(n_trees=4).fit(X, y)
        monkeypatch.setattr(forest_module, "CartTree", ReferenceCartTree)
        reference = RandomForestRegressor(n_trees=4).fit(X, y)
        # the training rows, and unseen rows mixing their column values
        mixed = np.random.default_rng(7).permuted(X[:512], axis=0)
        queries = np.vstack([X, mixed])
        assert forest.predict(queries).tobytes() == reference.predict(queries).tobytes()
        assert json.dumps(forest.to_dict()) == json.dumps(reference.to_dict())


class TestGrowthShape:
    def test_grow_is_entered_once_per_node(self, context, monkeypatch):
        """Per-node timing wraps ``CartTree._grow``; every node grown must
        still pass through it, once."""
        X, y = context.database.to_matrix(
            context.model(Goal.COST).encoder, Goal.COST
        )
        depths = []
        grow = CartTree._grow

        def counted(self, X, y, depth):
            depths.append(depth)
            return grow(self, X, y, depth)

        monkeypatch.setattr(CartTree, "_grow", counted)
        tree = make_learner("cart").fit(X, y)
        assert len(depths) == len(tree.to_dict()["nodes"])
        assert max(depths) == tree.depth()
