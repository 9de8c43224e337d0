"""Kernel/recursive equivalence tests for the flattened tree kernels.

The flattened :class:`TreeKernel` / :class:`ForestKernel` traversals must be
*bitwise* identical to the per-row recursive walk they replaced — the what-if
engine's numbers may not move by even one ulp because of the speedup.  These
are property-style checks over many random matrices, plus the degenerate
shapes (root-only leaves, constant features) where a vectorised traversal is
easiest to get wrong.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import WhatIfSession
from repro.core.perturbation import Perturbation
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.server import to_json_safe


def _random_problem(seed: int, n_classes: int = 2):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(5, 120))
    n_features = int(rng.integers(1, 6))
    X = rng.normal(size=(n_rows, n_features))
    if seed % 3 == 0:
        X = np.round(X, 1)  # heavy duplicate values exercise threshold ties
    y_class = rng.integers(0, n_classes, size=n_rows).astype(float)
    y_reg = rng.normal(size=n_rows)
    X_eval = rng.normal(size=(40, n_features))
    return X, y_class, y_reg, X_eval


class TestTreeKernelEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_classifier_probabilities_bitwise_equal(self, seed):
        X, y, _, X_eval = _random_problem(seed, n_classes=2 + seed % 3)
        tree = DecisionTreeClassifier(max_depth=1 + seed % 7, random_state=seed).fit(X, y)
        kernel = tree.predict_proba(X_eval)
        recursive = tree._predict_values_recursive(X_eval)
        assert np.array_equal(kernel, recursive)

    @pytest.mark.parametrize("seed", range(12))
    def test_regressor_means_bitwise_equal(self, seed):
        X, _, y, X_eval = _random_problem(seed)
        tree = DecisionTreeRegressor(max_depth=1 + seed % 7, random_state=seed).fit(X, y)
        kernel = tree.predict(X_eval)
        recursive = tree._predict_values_recursive(X_eval)
        assert np.array_equal(kernel, recursive)

    def test_single_row_prediction(self):
        X, y, y_reg, X_eval = _random_problem(7)
        clf = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        reg = DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, y_reg)
        row = X_eval[:1]
        assert np.array_equal(clf.predict_proba(row), clf._predict_values_recursive(row))
        assert np.array_equal(reg.predict(row), reg._predict_values_recursive(row))
        assert clf.predict_proba(row).shape == (1, 2)
        assert reg.predict(row).shape == (1,)

    def test_root_only_leaf_constant_target(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.ones(20)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.root_.is_leaf()
        assert tree.kernel_.n_nodes == 1
        assert np.array_equal(tree.predict_proba(X), tree._predict_values_recursive(X))

    def test_root_only_leaf_constant_features(self):
        X = np.full((15, 2), 3.0)
        y = np.array([0.0, 1.0] * 7 + [0.0])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.root_.is_leaf()
        probe = np.random.default_rng(1).normal(size=(10, 2))
        assert np.array_equal(tree.predict_proba(probe), tree._predict_values_recursive(probe))
        reg = DecisionTreeRegressor().fit(X, y)
        assert reg.root_.is_leaf()
        assert np.array_equal(reg.predict(probe), reg._predict_values_recursive(probe))

    def test_apply_matches_recursive_leaves(self):
        X, y, _, X_eval = _random_problem(3)
        tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
        kernel_leaves = tree.apply(X_eval)
        recursive_leaves = [tree._predict_node(row) for row in X_eval]
        assert all(a is b for a, b in zip(kernel_leaves, recursive_leaves))

    def test_kernel_arrays_are_contiguous_and_consistent(self):
        X, y, _, _ = _random_problem(5)
        kernel = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y).kernel_
        assert kernel.feature.shape == kernel.threshold.shape
        assert kernel.left.shape == kernel.right.shape == kernel.feature.shape
        assert kernel.value.shape[0] == kernel.n_nodes
        internal = kernel.feature >= 0
        assert np.all(kernel.left[internal] > 0) and np.all(kernel.right[internal] > 0)
        assert np.all(kernel.left[~internal] == -1) and np.all(kernel.right[~internal] == -1)


class TestForestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_classifier_probabilities_bitwise_equal(self, seed):
        X, y, _, X_eval = _random_problem(seed, n_classes=2 + seed % 2)
        forest = RandomForestClassifier(
            n_estimators=8, max_depth=5, random_state=seed
        ).fit(X, y)
        assert np.array_equal(
            forest.predict_proba(X_eval), forest._predict_proba_recursive(X_eval)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_regressor_means_bitwise_equal(self, seed):
        X, _, y, X_eval = _random_problem(seed)
        forest = RandomForestRegressor(
            n_estimators=8, max_depth=5, random_state=seed
        ).fit(X, y)
        assert np.array_equal(forest.predict(X_eval), forest._predict_recursive(X_eval))

    def test_noncontiguous_labels_align_to_forest_classes(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 3))
        y = np.where(X[:, 0] > 0, 7.0, np.where(X[:, 1] > 0, 3.0, 11.0))
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        probe = rng.normal(size=(30, 3))
        proba = forest.predict_proba(probe)
        assert np.array_equal(proba, forest._predict_proba_recursive(probe))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert set(np.unique(forest.predict(probe))) <= {3.0, 7.0, 11.0}


# --------------------------------------------------------------------------- #
# Delta evaluation: predictions against a ForestBaseline are the base-less
# predictions bit for bit, whatever the forest, matrix and perturbation.


@st.composite
def forests(draw):
    """A fitted forest (classifier or regressor, depth 1-10) and its data."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n_rows = draw(st.integers(4, 60))
    n_features = draw(st.integers(1, 5))
    X = rng.normal(size=(n_rows, n_features)) * draw(st.sampled_from([1.0, 50.0]))
    X = np.round(X, draw(st.sampled_from([0, 1, 6])))  # ties at thresholds
    zeros = draw(st.integers(0, n_features))  # columns with many exact zeros
    X[:, :zeros] *= rng.random((n_rows, zeros)) < 0.5
    constant = draw(st.booleans())  # a constant target makes root-only trees
    regressor = draw(st.booleans())
    params = {
        "n_estimators": draw(st.integers(1, 6)),
        "max_depth": draw(st.integers(1, 10)),
        "min_samples_split": draw(st.sampled_from([2, 2, 8, n_rows + 1])),
        "random_state": seed % 1000,
    }
    if regressor:
        y = np.zeros(n_rows) if constant else rng.normal(size=n_rows)
        forest = RandomForestRegressor(**params).fit(X, y)
    else:
        classes = 1 if constant else draw(st.integers(2, 3))
        forest = RandomForestClassifier(**params).fit(
            X, rng.integers(0, classes, size=n_rows).astype(float)
        )
    return forest, np.abs(X) if draw(st.booleans()) else X


@st.composite
def rewrites(draw, forest, X):
    """``X`` with 1-3 columns perturbed the ways a what-if rewrites them."""
    kernel = forest.kernel_
    X = X.copy()
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, X.shape[1] - 1))
        how = draw(st.sampled_from(["percentage", "absolute", "threshold", "column"]))
        if how in ("percentage", "absolute"):
            amount = draw(st.floats(-150.0, 150.0, allow_nan=False))
            X[:, j] = Perturbation(
                "d", amount, how, clip_non_negative=draw(st.booleans())
            ).apply_to_values(X[:, j])
        elif how == "threshold":  # land exactly on split points: the <= edge
            cuts = kernel.threshold[kernel.feature == j]
            if cuts.size:
                hit = rng.random(X.shape[0]) < 0.7
                X[hit, j] = rng.choice(cuts, size=int(hit.sum()))
        else:
            X[:, j] = np.round(rng.normal(size=X.shape[0]) * 20.0, draw(st.sampled_from([0, 3])))
    return X


def _bits(array: np.ndarray) -> tuple:
    return array.shape, array.dtype, array.tobytes()


class TestDeltaEvaluation:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_delta_predictions_bitwise_equal(self, data):
        forest, X = data.draw(forests())
        perturbed = data.draw(rewrites(forest, X))
        kernel = forest.kernel_
        base = kernel.baseline(X)
        for predict in (kernel.predict_proba, kernel.predict):
            assert _bits(predict(perturbed, base=base)) == _bits(predict(perturbed))
            assert _bits(predict(X, base=base)) == _bits(predict(X))
        estimator = (
            forest.predict_proba if isinstance(forest, RandomForestClassifier) else forest.predict
        )
        assert _bits(estimator(perturbed, base=base)) == _bits(estimator(perturbed))
        start = data.draw(st.integers(0, X.shape[0] - 1))
        stop = data.draw(st.integers(start + 1, X.shape[0]))
        rows, sliced = perturbed[start:stop], base.rows(start, stop)
        assert _bits(kernel.predict_proba(rows, base=sliced)) == _bits(kernel.predict_proba(rows))

    def test_boxes_contain_exactly_the_rows_reaching_each_leaf(self):
        X, y, _, X_eval = _random_problem(4)
        forest = RandomForestClassifier(n_estimators=5, max_depth=6, random_state=0).fit(X, y)
        kernel = forest.kernel_
        lo, hi = kernel.boxes()
        leaves = kernel.baseline(X_eval).leaves
        for j in range(lo.shape[0]):
            assert np.all((lo[j][leaves] < X_eval[:, j]) & (X_eval[:, j] <= hi[j][leaves]))

    def test_overflowing_perturbation_raises_the_same_error(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3)) * 1000.0
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(
            X, (X[:, 0] > 0).astype(float)
        )
        base = forest.kernel_.baseline(X)
        overflowed = X.copy()
        with np.errstate(over="ignore"):
            overflowed[:, 1] = Perturbation("d", 1e308, "percentage").apply_to_values(X[:, 1])
        assert not np.all(np.isfinite(overflowed))
        with pytest.raises(ValueError) as plain:
            forest.predict_proba(overflowed)
        with pytest.raises(ValueError) as delta:
            forest.predict_proba(overflowed, base=base)
        assert str(delta.value) == str(plain.value)

    def test_mismatched_baseline_is_rejected(self):
        X, y, _, _ = _random_problem(2)
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        base = forest.kernel_.baseline(X)
        with pytest.raises(ValueError, match="does not match its baseline"):
            forest.predict_proba(X[:-1], base=base)


def _canonical(payload) -> str:
    return json.dumps(to_json_safe(payload), sort_keys=True)


def test_session_answers_match_a_full_traversal_manager(monkeypatch):
    """Sensitivity and goal inversion through the delta path equal the answers
    of an identical session whose manager never builds a forest baseline, so
    every prediction it makes runs the full ``_leaf_values`` traversal."""
    kwargs = {"dataset_kwargs": {"n_prospects": 400}, "random_state": 0}
    delta = WhatIfSession.from_use_case("deal_closing", **kwargs)
    oracle = WhatIfSession.from_use_case("deal_closing", **kwargs)
    monkeypatch.setattr(oracle.model, "forest_baseline", lambda: None)
    drivers = delta.model.drivers
    probes = [
        {drivers[0]: 10.0},
        {drivers[1]: -40.0, drivers[2]: 25.0},
        {drivers[3]: 5.0, drivers[4]: -15.0, drivers[0]: 40.0},
    ]
    for perturbations in probes:
        assert _canonical(delta.sensitivity(perturbations)) == _canonical(
            oracle.sensitivity(perturbations)
        )
    assert delta.model.forest_baseline() is not None
    inversion = {"drivers": drivers[:3], "n_calls": 8}
    assert _canonical(delta.goal_inversion("maximize", **inversion)) == _canonical(
        oracle.goal_inversion("maximize", **inversion)
    )
