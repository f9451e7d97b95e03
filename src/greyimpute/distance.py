"""Distances from one query row to a matrix of candidate rows.

Two families are implemented, both on the unit scale the engine
normalizes continuous columns onto:

* the heterogeneous Euclidean/overlap metric (:class:`HeomMetric`):
  per-feature distance is 1 when the query cell is missing, 0/1 overlap
  for categorical cells and the absolute difference for continuous
  cells, combined as the (optionally feature-weighted) root of summed
  squares;
* grey relational similarity (:class:`GreyMetric`): per-feature grey
  relational coefficients anchored to the query's candidate set,
  averaged (or feature-weighted) into a grade in [0, 1]; the ranking
  distance is one minus the grade.

Both kernels accumulate features left to right, and ``tests/_oracles.py``
holds independent per-cell forms of the same formulas that the kernels
match bit for bit.

Missing cells are NaN throughout; candidate rows must be complete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DeltaBounds",
    "delta_bounds",
    "HeomMetric",
    "GreyMetric",
]


@dataclass(frozen=True)
class DeltaBounds:
    """Min/max absolute continuous difference between a query and its
    candidate set, over pairs where both cells are observed.

    The (0, 1) sentinel stands in when no such pair exists, keeping grey
    coefficients finite and in range.
    """

    delta_min: float
    delta_max: float

    def __post_init__(self):
        if not (0.0 <= self.delta_min <= self.delta_max):
            raise ValueError(f"invalid bounds ({self.delta_min}, {self.delta_max})")


def delta_bounds(
    query: np.ndarray, candidates: np.ndarray, categorical: np.ndarray
) -> DeltaBounds:
    """Bounds over all (candidate, continuous feature) pairs observed on
    both sides. Candidates must exclude the query row itself."""
    cont = ~np.asarray(categorical, dtype=bool)
    if candidates.ndim == 1:
        candidates = candidates[None, :]
    q = query[cont]
    c = candidates[:, cont]
    diffs = np.abs(c - q)
    valid = ~np.isnan(diffs)
    if not valid.any():
        return DeltaBounds(0.0, 1.0)
    d = diffs[valid]
    return DeltaBounds(float(d.min()), float(d.max()))


class HeomMetric:
    """Batch HEOM distances from one query row to a candidate matrix.

    Candidate rows must be complete; the query may contain NaN (each such
    feature contributes the missing-cell distance of 1 to every pair).
    """

    def __init__(self, categorical, weights=None):
        self.categorical = np.asarray(categorical, dtype=bool)
        self.weights = None if weights is None else np.asarray(weights, float)

    def distances(self, query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        nc = candidates.shape[0]
        acc = np.zeros(nc)
        for j in range(len(self.categorical)):
            if np.isnan(query[j]):
                d = np.ones(nc)
            elif self.categorical[j]:
                d = (candidates[:, j] != query[j]).astype(float)
            else:
                d = np.abs(candidates[:, j] - query[j])
            w = 1.0 if self.weights is None else self.weights[j]
            acc += w * d * d
        return np.sqrt(acc)


class GreyMetric:
    """Batch grey distances (1 - GRG) from one query row to a candidate
    matrix, with delta bounds recomputed per query over that candidate set.

    The coefficient of a continuous feature is (dmin + rho*dmax) /
    (|q - c| + rho*dmax); a zero denominator only occurs when every
    candidate value equals the query, which is perfect similarity, so it
    gives 1. The distinguishing coefficient rho lies in [0, 1] (the
    engine's :class:`ImputeConfig` checks the range). Categorical
    features give exact-match 0/1. The grade is the mean of the
    coefficients, evaluated as the uniform-weight sum, or their weighted
    sum when simplex weights are given.

    Candidate rows must be complete; the query may contain NaN (those
    features score a coefficient of 0 against every candidate and are
    excluded from the bounds).
    """

    def __init__(self, categorical, rho: float = 0.5, weights=None):
        self.categorical = np.asarray(categorical, dtype=bool)
        self.rho = rho
        self.weights = None if weights is None else np.asarray(weights, float)

    def distances(self, query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        nc = candidates.shape[0]
        p = len(self.categorical)
        bounds = delta_bounds(query, candidates, self.categorical)
        num = bounds.delta_min + self.rho * bounds.delta_max
        weights = np.full(p, 1.0 / p) if self.weights is None else self.weights
        grade = np.zeros(nc)
        for j in range(p):
            grade += weights[j] * self._coeff(query, candidates, j, bounds, num)
        return 1.0 - grade

    def _coeff(self, query, candidates, j, bounds, num):
        nc = candidates.shape[0]
        if np.isnan(query[j]):
            return np.zeros(nc)
        if self.categorical[j]:
            return (candidates[:, j] == query[j]).astype(float)
        den = np.abs(candidates[:, j] - query[j]) + self.rho * bounds.delta_max
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(den == 0.0, 1.0, num / den)
        return g
