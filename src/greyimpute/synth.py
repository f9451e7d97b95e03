"""Synthetic scenario generators and missingness injectors.

Two generators cover the benchmark scenarios: four axis-aligned cubes in
three relevant dimensions padded with uniform noise columns, and per-class
multivariate normals with randomly drawn correlation structure whose last
two features receive logistic missing-at-random gaps driven by the first
three.

Injectors only flip cells to missing; values are never altered, so the
caller's retained copy stays valid as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import make_rng
from .dataset import Dataset, Feature, Schema
from .errors import DataError, PredictorMissingError

__all__ = [
    "MarSpec",
    "gen_cubes",
    "gen_mvn_mar",
    "inject_mcar",
    "inject_mar",
]

CUBE_CENTERS = (
    ((0.0, 0.0, 0.0), 0),
    ((-0.2, -0.4, 0.4), 0),
    ((-0.6, -0.6, 0.5), 1),
    ((0.4, -0.2, -0.2), 1),
)
CUBE_HALF_SIDE = 0.10
CUBE_SAMPLES = 100
CUBE_NOISE_FEATURES = 20
MVN_SAMPLES = 100  # rows per class of gen_mvn_mar
MAR_RATE_TOLERANCE = 0.005


@dataclass(frozen=True)
class MarSpec:
    """Logistic missingness model: each target cell goes missing with
    probability sigmoid(intercept + coefficients . predictors).

    Each target column's intercept is calibrated at injection time so its
    realized missing rate matches ``target_rate`` to within
    :data:`MAR_RATE_TOLERANCE`; :func:`inject_mar` refuses a column whose
    calibration misses that.
    """

    targets: tuple[int | str, ...]  # column indices or names
    predictors: tuple[int | str, ...]
    coefficients: tuple[tuple[float, ...], ...]  # one row per target
    target_rate: float | None = None

    def __post_init__(self):
        if len(self.coefficients) != len(self.targets):
            raise DataError("one coefficient row per target required")
        if any(len(c) != len(self.predictors) for c in self.coefficients):
            raise DataError("coefficient rows must match predictor count")
        if self.target_rate is None or not (0.0 < self.target_rate < 1.0):
            raise DataError(f"target rate must lie in (0, 1), got {self.target_rate!r}")


def _continuous_schema(names, class_levels):
    feats = tuple(Feature(n) for n in names)
    return Schema(feats, class_column="class", class_levels=class_levels)


def gen_cubes(seed: int) -> Dataset:
    """Four 100-point cubes (half-side 0.10) in three dimensions, classes
    paired two cubes each, plus 20 irrelevant U[-1, 1] columns."""
    rng = make_rng(seed, "generate")
    blocks, labels = [], []
    for center, y in CUBE_CENTERS:
        pts = rng.uniform(-CUBE_HALF_SIDE, CUBE_HALF_SIDE, size=(CUBE_SAMPLES, 3))
        blocks.append(pts + np.asarray(center))
        labels.extend([y] * CUBE_SAMPLES)
    n = len(labels)
    noise = rng.uniform(-1.0, 1.0, size=(n, CUBE_NOISE_FEATURES))
    values = np.hstack([np.vstack(blocks), noise])
    names = ["x1", "x2", "x3"] + [f"noise{i}" for i in range(1, CUBE_NOISE_FEATURES + 1)]
    schema = _continuous_schema(names, ("1", "2"))
    return Dataset(schema, values, labels=np.array(labels))


def _random_correlation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Correlation matrix from uniform partial correlations via the vine
    recursion; positive definite by construction."""
    partials = np.zeros((dim, dim))
    corr = np.eye(dim)
    for k in range(dim - 1):
        for i in range(k + 1, dim):
            rho = rng.uniform(-1.0, 1.0)
            partials[k, i] = rho
            for l in range(k - 1, -1, -1):
                rho = rho * np.sqrt(
                    (1.0 - partials[l, i] ** 2) * (1.0 - partials[l, k] ** 2)
                ) + partials[l, i] * partials[l, k]
            corr[k, i] = corr[i, k] = rho
    return corr


def gen_mvn_mar(seed: int) -> tuple[Dataset, MarSpec]:
    """Four classes of :data:`MVN_SAMPLES` normal rows in five dimensions.

    Class means are uniform on [-1, 1]^5 and class covariances are random
    correlation matrices. Features 1-3 are designated always-observed
    predictors; 4-5 are the missingness targets of the returned MAR spec.
    """
    rng = make_rng(seed, "generate")
    dim, m = 5, 4
    blocks, labels = [], []
    for y in range(m):
        mean = rng.uniform(-1.0, 1.0, size=dim)
        cov = _random_correlation(dim, rng)
        blocks.append(rng.multivariate_normal(mean, cov, size=MVN_SAMPLES, method="cholesky"))
        labels.extend([y] * MVN_SAMPLES)
    values = np.vstack(blocks)
    schema = _continuous_schema([f"x{j}" for j in range(1, dim + 1)], ("1", "2", "3", "4"))
    dataset = Dataset(schema, values, labels=np.array(labels))
    spec = MarSpec(
        targets=(3, 4),
        predictors=(0, 1, 2),
        coefficients=((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
        target_rate=0.1,
    )
    return dataset, spec


def _distinct_columns(schema, columns) -> list[int]:
    """The positions of ``columns``, named or indexed; a column named twice
    is a DataError."""
    cols = [schema.index_of(c) for c in columns]
    for i, j in enumerate(cols):
        if j in cols[:i]:
            raise DataError(f"column {schema.features[j].name!r} is named twice")
    return cols


def inject_mcar(dataset: Dataset, columns, rate: float, seed: int) -> Dataset:
    """Flip each cell of the named columns to missing independently with
    the given probability; a column named twice is a DataError."""
    if not (0.0 <= rate < 1.0):
        raise DataError(f"MCAR rate must lie in [0, 1), got {rate}")
    cols = _distinct_columns(dataset.schema, columns)
    rng = make_rng(seed, "inject")
    values = dataset.values.copy()
    for j in cols:
        values[rng.random(dataset.n) < rate, j] = np.nan
    return dataset.with_values(values)


def _sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _calibrate_intercept(z: np.ndarray, u: np.ndarray, rate: float):
    """Bisect the intercept until the realized missing fraction of
    sigmoid(c + z) > u lands within :data:`MAR_RATE_TOLERANCE` of the
    requested rate, or refuse."""
    lo, hi = -40.0, 40.0
    closest = None
    for _ in range(200):
        c = 0.5 * (lo + hi)
        realized = float((_sigmoid(c + z) > u).mean())
        if abs(realized - rate) <= MAR_RATE_TOLERANCE:
            return c
        if closest is None or abs(realized - rate) < abs(closest - rate):
            closest = realized
        if realized < rate:
            lo = c
        else:
            hi = c
    raise DataError(f"MAR calibration missed the missing rate {rate:g} by more than "
                    f"{MAR_RATE_TOLERANCE:g}; the closest realized rate was {closest:g}")


def inject_mar(dataset: Dataset, spec: MarSpec, seed: int) -> Dataset:
    """Apply the logistic missingness model of a :class:`MarSpec`.

    Predictor columns must be fully observed, and no column may be named
    twice among targets and predictors. Each target column's intercept is
    calibrated by bisection against the realized draws for that column; a
    calibration that misses the rate is a :class:`DataError`.
    """
    columns = _distinct_columns(dataset.schema, (*spec.targets, *spec.predictors))
    targets, predictors = columns[:len(spec.targets)], columns[len(spec.targets):]
    for j in predictors:
        if not dataset.mask[:, j].all():
            raise PredictorMissingError(
                f"predictor column {dataset.schema.features[j].name!r} has missing cells"
            )
    rng = make_rng(seed, "inject")
    values = dataset.values.copy()
    pred = dataset.values[:, predictors]
    for t, j in enumerate(targets):
        z = pred @ np.asarray(spec.coefficients[t])
        u = rng.random(dataset.n)
        c = _calibrate_intercept(z, u, spec.target_rate)
        values[_sigmoid(c + z) > u, j] = np.nan
    return dataset.with_values(values)
