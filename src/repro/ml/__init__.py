"""Machine-learning substrate (the scikit-learn substitute under SystemD).

Provides the two model families the paper trains — linear regression for
continuous KPIs and random-forest classifiers for discrete KPIs — plus the
supporting cast (logistic regression, decision trees, metrics, splitting,
preprocessing, pipelines) used by the robustness analysis and the model
manager's confidence estimates.
"""

from .base import (
    BaseEstimator,
    ClassifierMixin,
    NotFittedError,
    RegressorMixin,
    TransformerMixin,
    check_array,
    check_is_fitted,
    check_X_y,
    clone,
)
from .forest import RandomForestClassifier, RandomForestRegressor
from .kernel import ForestBaseline, ForestKernel, TreeKernel
from .linear import LinearRegression, Ridge
from .logistic import LogisticRegression
from .metrics import (
    accuracy_score,
    brier_score,
    confusion_matrix,
    explained_variance_score,
    f1_score,
    log_loss,
    mean_absolute_error,
    mean_squared_error,
    precision_score,
    r2_score,
    recall_score,
    roc_auc_score,
    root_mean_squared_error,
)
from .model_selection import KFold, cross_val_predict, cross_val_score, train_test_split
from .pipeline import Pipeline
from .preprocessing import LabelEncoder, MinMaxScaler, OneHotEncoder, StandardScaler
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "RegressorMixin",
    "TransformerMixin",
    "NotFittedError",
    "check_array",
    "check_X_y",
    "check_is_fitted",
    "clone",
    "LinearRegression",
    "Ridge",
    "LogisticRegression",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "TreeKernel",
    "ForestKernel",
    "ForestBaseline",
    "Pipeline",
    "StandardScaler",
    "MinMaxScaler",
    "LabelEncoder",
    "OneHotEncoder",
    "KFold",
    "train_test_split",
    "cross_val_score",
    "cross_val_predict",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "confusion_matrix",
    "log_loss",
    "roc_auc_score",
    "brier_score",
    "mean_squared_error",
    "root_mean_squared_error",
    "mean_absolute_error",
    "r2_score",
    "explained_variance_score",
]
