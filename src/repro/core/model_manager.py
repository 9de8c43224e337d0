"""Model selection, training, and KPI prediction.

The paper's backend "trains two widely used models: linear regression models
when the KPI objective is a continuous variable ... and classifiers when the
KPI objective is a discrete variable ... to make predictions", re-running the
prediction on every perturbation.  :class:`ModelManager` owns that lifecycle:

* choose the model family from the KPI kind (linear regression pipeline for
  continuous KPIs, random-forest classifier for discrete ones);
* train on the driver columns of the session's dataset;
* report a cross-validated *model confidence* (R² or accuracy) shown next to
  goal-inversion answers;
* predict the aggregate KPI value for any (possibly perturbed) frame — the
  single number behind each bar in the sensitivity view.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..frame import DataFrame
from ..ml import (
    ForestBaseline,
    LinearRegression,
    Pipeline,
    RandomForestClassifier,
    StandardScaler,
    cross_val_score,
)
from .kpi import KPI

__all__ = ["ModelManager"]


class ModelManager:
    """Trains and serves the KPI model for one (dataset, KPI, drivers) triple.

    Parameters
    ----------
    frame:
        The analysis dataset.
    kpi:
        The KPI definition.
    drivers:
        Driver column names used as model inputs.
    model_params:
        Optional overrides for the underlying estimator (e.g. ``n_estimators``).
    cv_folds:
        Folds used for the confidence estimate (0 disables cross-validation).
    random_state:
        Seed controlling the forest and the CV shuffling.
    """

    def __init__(
        self,
        frame: DataFrame,
        kpi: KPI,
        drivers: list[str],
        *,
        model_params: dict[str, Any] | None = None,
        cv_folds: int = 3,
        random_state: int | None = 0,
    ) -> None:
        if not drivers:
            raise ValueError("at least one driver is required to train a model")
        missing = [d for d in drivers if not frame.has_column(d)]
        if missing:
            raise ValueError(f"drivers not found in the dataset: {missing}")
        if kpi.name in drivers:
            raise ValueError(f"the KPI column {kpi.name!r} cannot also be a driver")
        self.frame = frame
        self.kpi = kpi
        self.drivers = list(drivers)
        self.model_params = dict(model_params or {})
        self.cv_folds = cv_folds
        self.random_state = random_state
        self._model = None
        self._confidence: float | None = None
        self._forest_baseline: ForestBaseline | None = None
        self._baseline_rows: np.ndarray | None = None
        self._baseline_kpi: float | None = None
        self._driver_matrix: np.ndarray | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Memoised identity of this manager's (dataset, KPI, drivers, params,
        seed) tuple — the key process-pool workers cache hydrated models under,
        matching the server-side :class:`~repro.core.cache.ModelCache` key."""
        if self._fingerprint is None:
            from .cache import model_fingerprint

            self._fingerprint = model_fingerprint(
                self.frame, self.kpi, self.drivers, self.model_params, self.random_state
            )
        return self._fingerprint

    # ------------------------------------------------------------------ #
    @property
    def model_kind(self) -> str:
        """Identifier of the chosen model family."""
        return (
            "random_forest_classifier" if self.kpi.is_discrete else "linear_regression"
        )

    def _build_model(self):
        if self.kpi.is_discrete:
            params = {
                "n_estimators": 40,
                "max_depth": 8,
                "max_features": "sqrt",
                "random_state": self.random_state,
            }
            params.update(self.model_params)
            return RandomForestClassifier(**params)
        params = {"fit_intercept": True}
        params.update(self.model_params)
        return Pipeline(
            [("scale", StandardScaler()), ("regress", LinearRegression(**params))]
        )

    def fit(self) -> "ModelManager":
        """Train the KPI model on the session's dataset."""
        X = self.driver_matrix()
        y = self.kpi.target_vector(self.frame)
        self._model = self._build_model()
        self._model.fit(X, y)
        # baselines hold the previous model's predictions and leaf ids
        self._forest_baseline = self._baseline_rows = self._baseline_kpi = None
        return self

    @property
    def model(self):
        """The fitted estimator (fitting lazily on first access)."""
        if self._model is None:
            self.fit()
        return self._model

    # ------------------------------------------------------------------ #
    def confidence(self) -> float:
        """Cross-validated model score (accuracy or R²), clipped to [0, 1].

        The paper's goal-inversion view returns "the confidence of the model
        used" with every recommendation; this is that number.
        """
        if self._confidence is not None:
            return self._confidence
        if self.cv_folds and self.frame.n_rows >= 2 * self.cv_folds:
            X = self.driver_matrix()
            y = self.kpi.target_vector(self.frame)
            estimator = self._build_model()
            if isinstance(estimator, Pipeline):
                estimator = estimator.clone_unfitted()
            scores = cross_val_score(
                estimator, X, y, cv=self.cv_folds, random_state=self.random_state
            )
            self._confidence = float(np.clip(np.mean(scores), 0.0, 1.0))
        else:
            X = self.driver_matrix()
            y = self.kpi.target_vector(self.frame)
            self._confidence = float(np.clip(self.model.score(X, y), 0.0, 1.0))
        return self._confidence

    # ------------------------------------------------------------------ #
    def driver_matrix(self) -> np.ndarray:
        """Memoised ``float64`` design matrix of the session's dataset.

        The what-if hot path perturbs this matrix directly (see
        :meth:`predict_rows_perturbed`) instead of copying frames, so it is
        extracted once per manager.
        """
        if self._driver_matrix is None:
            self._driver_matrix = self.frame.to_matrix(self.drivers)
        return self._driver_matrix

    def forest_baseline(self) -> ForestBaseline | None:
        """Memoised leaf ids of the unperturbed dataset (forest models only).

        Every what-if on this manager perturbs a few columns of the same
        driver matrix, so the forest kernel re-traverses only the pairs the
        perturbation moves out of these baseline leaves.
        """
        # _build_model fits no other forest type
        forest = isinstance(self.model, RandomForestClassifier)
        if self._forest_baseline is None and forest:
            self._forest_baseline = self.model.kernel_.baseline(self.driver_matrix())
        return self._forest_baseline

    def predict_rows_matrix(
        self, X: np.ndarray, *, base: ForestBaseline | None = None
    ) -> np.ndarray:
        """Per-row predictions for an already-extracted design matrix.

        Discrete KPIs return positive-class probabilities; continuous KPIs
        return predicted values.  ``base`` (a forest baseline of a matrix of
        ``X``'s shape) lets the forest kernel delta-evaluate ``X``; the
        predictions are bitwise identical either way.
        """
        model = self.model
        extra = {} if base is None else {"base": base}
        if self.kpi.is_discrete:
            proba = model.predict_proba(X, **extra)
            classes = list(model.classes_)
            positive = 1.0
            column = classes.index(positive) if positive in classes else len(classes) - 1
            return proba[:, column]
        return model.predict(X, **extra)

    def predict_rows_perturbed(
        self, perturbations, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Per-row predictions of rows ``[start, stop)`` of the dataset with
        ``perturbations`` applied, delta-evaluated against the baseline."""
        X = perturbations.apply_to_matrix(self.driver_matrix()[start:stop], self.drivers)
        base = self.forest_baseline()
        if base is not None:
            base = base.rows(start, start + X.shape[0])
        return self.predict_rows_matrix(X, base=base)

    def predict_kpi_perturbed(self, perturbations) -> float:
        """Aggregate KPI predicted for the dataset with ``perturbations`` applied."""
        return self.kpi.aggregate(self.predict_rows_perturbed(perturbations))

    def predict_rows(self, frame: DataFrame) -> np.ndarray:
        """Per-row predictions for the driver columns of ``frame``."""
        return self.predict_rows_matrix(frame.to_matrix(self.drivers))

    def predict_kpi(self, frame: DataFrame) -> float:
        """Aggregate KPI value predicted for ``frame``."""
        return self.kpi.aggregate(self.predict_rows(frame))

    def predict_kpi_batch(self, matrices: list[np.ndarray]) -> np.ndarray:
        """Aggregate KPI for many perturbed matrices in one model call.

        Comparison sweeps build every perturbed matrix up front, stack them,
        and run the tree kernels over the whole stack at once — one batched
        traversal instead of one model call per (driver, amount) pair.
        """
        if not matrices:
            return np.array([])
        rows = self.predict_rows_matrix(np.vstack(matrices))
        kpis = np.empty(len(matrices))
        start = 0
        for index, matrix in enumerate(matrices):
            stop = start + matrix.shape[0]
            kpis[index] = self.kpi.aggregate(rows[start:stop])
            start = stop
        return kpis

    def predict_row(self, frame: DataFrame, index: int) -> float:
        """Prediction for a single row of ``frame`` (per-data analysis)."""
        X = frame.take([index]).to_matrix(self.drivers)
        return float(self.predict_rows_matrix(X)[0])

    def baseline_rows(self) -> np.ndarray:
        """Memoised per-row predictions on the unperturbed dataset.

        Sensitivity analysis re-reads the baseline on every request; the
        dataset never changes underneath a manager (sessions swap managers
        when it does), so predicting it once is enough.
        """
        if self._baseline_rows is None:
            self._baseline_rows = self.predict_rows_matrix(
                self.driver_matrix(), base=self.forest_baseline()
            )
        return self._baseline_rows

    def baseline_kpi(self) -> float:
        """KPI predicted on the original, unperturbed dataset (the blue bar)."""
        if self._baseline_kpi is None:
            self._baseline_kpi = self.kpi.aggregate(self.baseline_rows())
        return self._baseline_kpi

    # ------------------------------------------------------------------ #
    def raw_importances(self) -> np.ndarray:
        """Model-native importance scores aligned with ``self.drivers``.

        Linear pipelines report standardised coefficients (the scaler makes
        them comparable across drivers); forests report impurity-decrease
        feature importances.  Signing and normalisation into ``[-1, 1]`` is
        the driver-importance module's job.
        """
        model = self.model
        if self.kpi.is_discrete:
            return np.asarray(model.feature_importances_, dtype=np.float64)
        return np.asarray(model.coef_, dtype=np.float64)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary of the trained model."""
        return {
            "model_kind": self.model_kind,
            "kpi": self.kpi.to_dict(),
            "drivers": list(self.drivers),
            "confidence": self.confidence(),
            "n_rows": self.frame.n_rows,
        }
