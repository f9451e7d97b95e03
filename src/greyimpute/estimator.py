"""Scikit-learn style estimator wrapper around the imputation engine.

:class:`GreyKNNImputer` follows the fit/transform contract and implements
``get_params``/``set_params`` from its constructor signature, so it
composes with pipelines, grid search and ``clone`` without requiring
scikit-learn itself.

Input is a plain ``(n, p)`` float array with NaN marking missing cells.
Columns listed in ``categorical_features`` are categorical: their cells
are non-negative integer codes, and the distinct codes seen at ``fit``,
ascending, are the levels, so a ``transform`` cell holding another code is
refused; everything else is continuous. ``fit`` runs the full iterative
imputation on the training matrix; ``transform`` imputes new rows in a
single pass against the completed training data, and ``fit_transform``
returns the completed training matrix itself. Imputed categorical cells
hold codes seen at ``fit``.
"""

from __future__ import annotations

import inspect
import numbers

import numpy as np

from .dataset import Dataset, Feature, Schema
from .engine import DEFAULT_K_GRID, ImputeConfig, impute_test, run_impute
from .errors import DataError

__all__ = ["GreyKNNImputer", "check_matrix"]


def check_matrix(X, n_features: int | None = None) -> np.ndarray:
    """Validate a 2-D float matrix: finite or NaN everywhere, optional
    fixed width."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {X.shape}")
    if np.isinf(X).any():
        raise DataError("matrix contains infinities")
    if n_features is not None and X.shape[1] != n_features:
        raise DataError(f"expected {n_features} features, got {X.shape[1]}")
    return X


def _to_levels(X, categories) -> np.ndarray:
    """X with each categorical code as its index in ``categories``, the
    codes seen at fit per column; a code not among them is a DataError."""
    X = X.copy() if categories else X
    for j, codes in categories.items():
        seen = ~np.isnan(X[:, j])
        if not np.isin(X[seen, j], codes).all():
            raise DataError(f"categorical column {j} holds a code not seen at fit")
        X[seen, j] = np.searchsorted(codes, X[seen, j])
    return X


def _to_codes(X, completed, categories) -> np.ndarray:
    """``completed`` with X's observed cells and each level index imputed
    into a categorical gap of X mapped back to its code."""
    out = completed.copy()
    for j, codes in categories.items():
        out[:, j] = np.where(np.isnan(X[:, j]), codes[completed[:, j].astype(int)], X[:, j])
    return out


class GreyKNNImputer:
    """Impute missing cells of a mixed-type matrix by iterative kNN.

    Parameters
    ----------
    method : str, default="cgknn"
        One of "meanmode", "iknn", "miknn", "gknn", "fwgknn", "cgknn".
    n_neighbors : int or None, default=None
        Neighborhood size; None selects it from ``k_grid`` by stratified
        cross-validation, also when ``X`` has no gaps. Selection needs ``y``
        at fit time; with a given k, "iknn" and "fwgknn" fit without it.
    k_grid : tuple of int, default=DEFAULT_K_GRID
        Candidate neighborhood sizes for the selection.
    rho : float, default=ImputeConfig.rho
        Grey distinguishing coefficient in [0, 1].
    epsilon : float, default=ImputeConfig.epsilon
        Convergence tolerance on the largest per-iteration cell change.
    max_iter : int, default=ImputeConfig.max_iter
        Iteration cap.
    categorical_features : tuple of int, default=()
        Column indices holding categorical level codes.
    random_state : int, default=0
        Seed for fold assignment.

    A bad parameter value raises :class:`DataError` at ``fit``, which fixes
    the rule ``transform`` applies, so ``set_params`` acts at the next ``fit``.

    Attributes
    ----------
    result_ : ImputationResult
        Full diagnostics of the training run.
    categories_ : dict of int to ndarray
        Each categorical column's codes seen at fit, ascending: its levels.
    feature_weights_ : ndarray or None
        Feature weights the metric used, when the method has any.
    n_iter_ : int
        Iterations until convergence (or the cap).
    """

    def __init__(
        self,
        method=ImputeConfig.method.value,
        n_neighbors=ImputeConfig.k,
        k_grid=DEFAULT_K_GRID,
        rho=ImputeConfig.rho,
        epsilon=ImputeConfig.epsilon,
        max_iter=ImputeConfig.max_iter,
        categorical_features=(),
        random_state=ImputeConfig.seed,
    ):
        self.method = method
        self.n_neighbors = n_neighbors
        self.k_grid = k_grid
        self.rho = rho
        self.epsilon = epsilon
        self.max_iter = max_iter
        self.categorical_features = categorical_features
        self.random_state = random_state

    # -- sklearn-compatible parameter plumbing ---------------------------
    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for GreyKNNImputer")
            setattr(self, key, value)
        return self

    # -- fitting ----------------------------------------------------------
    def _schema_for(self, X, y) -> tuple[Schema, np.ndarray | None]:
        p, cat = X.shape[1], set()
        for j in self.categorical_features:
            if not isinstance(j, numbers.Integral) or isinstance(j, bool) or not 0 <= j < p:
                raise DataError(f"categorical_features holds {j!r}, not a column index in [0, {p})")
            cat.add(int(j))
        features = []
        for j in range(p):
            if j in cat:
                obs = X[~np.isnan(X[:, j]), j]
                if obs.size == 0:
                    raise DataError(f"categorical column {j} has no observed values")
                if (obs < 0).any() or (obs != np.floor(obs)).any():
                    raise DataError(
                        f"categorical column {j} must hold non-negative integer codes"
                    )
                features.append(Feature(f"f{j}", tuple(str(int(c)) for c in np.unique(obs))))
            else:
                features.append(Feature(f"f{j}"))
        labels = None
        class_levels: tuple[str, ...] = ()
        class_column = None
        if y is not None:
            y = np.asarray(y)
            if y.shape != (X.shape[0],) or any(v != v for v in y):  # v != v: NaN
                raise DataError("y must hold one label per row, none of them NaN")
            seen: dict = {}
            for v in y:
                seen.setdefault(v, len(seen))
            labels = np.array([seen[v] for v in y], dtype=int)
            class_levels = tuple(str(v) for v in seen)
            class_column = "target"
        return Schema(tuple(features), class_column, class_levels), labels

    def _config(self) -> ImputeConfig:
        return ImputeConfig(method=self.method, k=self.n_neighbors, k_grid=self.k_grid,
                            rho=self.rho, epsilon=self.epsilon, max_iter=self.max_iter,
                            seed=self.random_state)

    def fit(self, X, y=None):
        """Run the iterative imputation on the training matrix."""
        X = check_matrix(X)
        schema, labels = self._schema_for(X, y)
        categories = {j: np.array(f.levels, dtype=float)
                      for j, f in enumerate(schema.features) if f.levels}
        dataset = Dataset(schema, _to_levels(X, categories), labels=labels)
        self.result_ = run_impute(dataset, self._config())
        self.schema_, self.categories_ = schema, categories
        self.n_features_in_ = X.shape[1]
        self.feature_weights_ = self.result_.weights_used
        self.n_iter_ = self.result_.iterations
        return self

    def transform(self, X):
        """Impute rows in one pass by the rule fixed at ``fit``."""
        if not hasattr(self, "result_"):
            raise DataError("GreyKNNImputer is not fitted yet; call fit first")
        X = check_matrix(X, self.n_features_in_)
        # the test rows carry no labels; only the features must line up
        bare = Schema(self.schema_.features, None, ())
        test = Dataset(bare, _to_levels(X, self.categories_))
        return _to_codes(X, impute_test(self.result_, test).values, self.categories_)

    def fit_transform(self, X, y=None):
        """Fit and return the completed training matrix."""
        completed = self.fit(X, y).result_.completed.values
        return _to_codes(check_matrix(X), completed, self.categories_)
