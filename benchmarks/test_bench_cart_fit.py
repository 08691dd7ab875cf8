"""Benchmark: CART fit speed on the ACIC training set.

:meth:`CartTree._best_split` scores every (feature, cut) pair of a node in
one set of array passes instead of scanning the features one at a time.
This guardrail holds a fit of the registered ``cart`` learner on the
top-10 training set to >= 2x faster than that per-feature scan (kept as
:class:`tests.ml.cart_reference.ReferenceCartTree`), with byte-identical
trees, for both goals.  Rounds interleave and each side keeps its best
(min) time, so scheduler noise hits both sides alike.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.objectives import Goal
from repro.ml.cart import CartTree
from repro.ml.registry import make_learner

from tests.ml.cart_reference import ReferenceCartTree

ROUNDS = 5


@pytest.mark.parametrize("goal", list(Goal), ids=lambda g: g.value)
def test_fit_speedup_over_the_per_feature_scan(context, goal):
    X, y = context.database.to_matrix(context.model(goal).encoder, goal)
    learner = make_learner("cart")
    assert type(learner) is CartTree
    params = {
        "max_depth": learner.max_depth,
        "min_samples_leaf": learner.min_samples_leaf,
        "min_impurity_decrease": learner.min_impurity_decrease,
    }
    scan_times, fit_times = [], []
    scanned = fitted = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        scanned = ReferenceCartTree(**params).fit(X, y)
        scan_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        fitted = CartTree(**params).fit(X, y)
        fit_times.append(time.perf_counter() - start)

    assert json.dumps(fitted.to_dict()) == json.dumps(scanned.to_dict())
    speedup = min(scan_times) / min(fit_times)
    assert speedup >= 2.0, (
        f"{goal.value} fit speedup {speedup:.2f}x is below the 2x bar "
        f"(per-feature scan {min(scan_times) * 1e3:.0f}ms, "
        f"fit {min(fit_times) * 1e3:.0f}ms, {X.shape[0]}x{X.shape[1]} matrix)"
    )
