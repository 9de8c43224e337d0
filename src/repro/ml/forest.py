"""Random forests (bagged CART ensembles).

The paper's default model for discrete KPIs is a random-forest classifier whose
``feature_importances_`` drive the driver-importance view.  We implement the
standard Breiman construction: bootstrap resampling per tree, random feature
subsets per split, probability averaging for prediction, impurity-decrease
importances averaged over trees, and out-of-bag scoring so the what-if engine
can report a model-confidence number alongside goal-inversion results.
"""

from __future__ import annotations

import numpy as np

from .base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_is_fitted,
    check_X_y,
)
from .kernel import ForestBaseline, ForestKernel
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class _BaseForest(BaseEstimator):
    """Shared bagging machinery for forest classifiers and regressors."""

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        self.estimators_: list = []
        self.n_features_in_: int | None = None
        self.feature_importances_: np.ndarray | None = None
        self.oob_score_: float | None = None
        self._kernel: ForestKernel | None = None

    def _make_tree(self, seed: int):
        raise NotImplementedError

    def _fit_common(self, X: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        """Fit all trees; return the per-tree bootstrap index arrays."""
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        bootstrap_indices: list[np.ndarray] = []
        n_samples = X.shape[0]
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            tree = self._make_tree(seed)
            if self.bootstrap:
                indices = rng.integers(0, n_samples, size=n_samples)
            else:
                indices = np.arange(n_samples)
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)
            bootstrap_indices.append(indices)
        importances = np.mean(
            [tree.feature_importances_ for tree in self.estimators_], axis=0
        )
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return bootstrap_indices


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bootstrap-aggregated CART classifier.

    Parameters mirror the scikit-learn estimator the paper uses; defaults are
    tuned down (50 trees) so interactive latency stays sub-second on the
    use-case datasets.

    Attributes
    ----------
    classes_:
        Sorted unique class labels.
    feature_importances_:
        Mean impurity-decrease importances across trees (sums to 1).
    oob_score_:
        Out-of-bag accuracy when ``oob_score=True``.
    """

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit the forest on ``(X, y)``."""
        X, y = check_X_y(X, y)
        self.n_features_in_ = X.shape[1]
        self.classes_ = np.unique(y)
        bootstrap_indices = self._fit_common(X, y)
        self._kernel = ForestKernel.from_classifier(self)
        if self.oob_score and self.bootstrap:
            self.oob_score_ = self._compute_oob(X, y, bootstrap_indices)
        return self

    @property
    def kernel_(self) -> ForestKernel:
        """The stacked prediction kernel (compiled at fit time)."""
        check_is_fitted(self, "feature_importances_")
        if self._kernel is None:
            self._kernel = ForestKernel.from_classifier(self)
        return self._kernel

    def _compute_oob(
        self, X: np.ndarray, y: np.ndarray, bootstrap_indices: list[np.ndarray]
    ) -> float:
        n_samples = X.shape[0]
        votes = np.zeros((n_samples, self.classes_.shape[0]))
        counts = np.zeros(n_samples)
        for tree, indices in zip(self.estimators_, bootstrap_indices):
            mask = np.ones(n_samples, dtype=bool)
            mask[indices] = False
            if not mask.any():
                continue
            proba = tree.predict_proba(X[mask])
            expanded = np.zeros((proba.shape[0], self.classes_.shape[0]))
            # a bootstrap sample may miss classes, so map the tree's local
            # class order into the forest's by label (not by position)
            class_positions = np.searchsorted(self.classes_, tree.classes_)
            expanded[:, class_positions] = proba
            votes[mask] += expanded
            counts[mask] += 1
        seen = counts > 0
        if not seen.any():
            return float("nan")
        predictions = self.classes_[np.argmax(votes[seen], axis=1)]
        return float(np.mean(predictions == y[seen]))

    def predict_proba(self, X, *, base: ForestBaseline | None = None) -> np.ndarray:
        """Averaged class probabilities across trees (kernel-batched); ``base``
        delta-evaluates ``X`` (see :meth:`ForestKernel.predict_proba`)."""
        check_is_fitted(self, "feature_importances_")
        X = check_array(X, allow_1d=True)
        return self.kernel_.predict_proba(X, base=base)

    def _predict_proba_recursive(self, X: np.ndarray) -> np.ndarray:
        """Pre-kernel prediction path (per-row tree walks); benchmarks only."""
        aggregate = np.zeros((X.shape[0], self.classes_.shape[0]))
        for tree in self.estimators_:
            proba = tree._predict_values_recursive(X)
            positions = np.searchsorted(self.classes_, tree.classes_)
            aggregate[:, positions] += proba
        return aggregate / len(self.estimators_)

    def predict(self, X) -> np.ndarray:
        """Majority-vote (probability-averaged) class labels."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bootstrap-aggregated CART regressor.

    Used by the robustness module as an alternative continuous-KPI model and
    by the optimizer ablation as a more expressive surrogate-quality check.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = 1.0,
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            bootstrap=bootstrap,
            oob_score=oob_score,
            random_state=random_state,
        )

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def fit(self, X, y) -> "RandomForestRegressor":
        """Fit the forest on ``(X, y)``."""
        X, y = check_X_y(X, y)
        self.n_features_in_ = X.shape[1]
        bootstrap_indices = self._fit_common(X, y)
        self._kernel = ForestKernel.from_regressor(self)
        if self.oob_score and self.bootstrap:
            self.oob_score_ = self._compute_oob(X, y, bootstrap_indices)
        return self

    @property
    def kernel_(self) -> ForestKernel:
        """The stacked prediction kernel (compiled at fit time)."""
        check_is_fitted(self, "feature_importances_")
        if self._kernel is None:
            self._kernel = ForestKernel.from_regressor(self)
        return self._kernel

    def _compute_oob(
        self, X: np.ndarray, y: np.ndarray, bootstrap_indices: list[np.ndarray]
    ) -> float:
        from .metrics import r2_score

        n_samples = X.shape[0]
        sums = np.zeros(n_samples)
        counts = np.zeros(n_samples)
        for tree, indices in zip(self.estimators_, bootstrap_indices):
            mask = np.ones(n_samples, dtype=bool)
            mask[indices] = False
            if not mask.any():
                continue
            sums[mask] += tree.predict(X[mask])
            counts[mask] += 1
        seen = counts > 0
        if not seen.any():
            return float("nan")
        return r2_score(y[seen], sums[seen] / counts[seen])

    def predict(self, X, *, base: ForestBaseline | None = None) -> np.ndarray:
        """Mean prediction across trees (kernel-batched); ``base`` delta-evaluates
        ``X`` (see :meth:`ForestKernel.predict`)."""
        check_is_fitted(self, "feature_importances_")
        X = check_array(X, allow_1d=True)
        return self.kernel_.predict(X, base=base)

    def _predict_recursive(self, X: np.ndarray) -> np.ndarray:
        """Pre-kernel prediction path (per-row tree walks); benchmarks only."""
        predictions = np.zeros(X.shape[0])
        for tree in self.estimators_:
            predictions += tree._predict_values_recursive(X)
        return predictions / len(self.estimators_)
