"""Distances from a block of query rows to a matrix of candidate rows.

Two families are implemented, both on the unit scale the engine
normalizes continuous columns onto:

* the heterogeneous Euclidean/overlap metric (:class:`HeomMetric`):
  per-feature distance is 1 when the query cell is missing, 0/1 overlap
  for categorical cells and the absolute difference for continuous
  cells, combined as the (optionally feature-weighted) root of summed
  squares;
* grey relational similarity (:class:`GreyMetric`): per-feature grey
  relational coefficients anchored to each query's candidate set,
  averaged (or feature-weighted) into a grade in [0, 1]; the ranking
  distance is one minus the grade.

``distances`` maps a (queries x p) block and a (candidates x p) matrix to
(queries x candidates). Every element sums its features left to right
whatever the block size, matching the independent per-cell forms in
``tests/_oracles.py`` bit for bit.

Missing cells are NaN throughout; candidate rows must be complete.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HeomMetric",
    "GreyMetric",
]


# bytes of float64 work arrays one kernel call or Parzen chunk may hold
BLOCK_BYTES = 16 * 2**20


def block_rows(width: int, arrays: int) -> int:
    """Rows per block such that ``arrays`` float64 arrays of (rows x
    width) fit in :data:`BLOCK_BYTES`; at least one."""
    return max(1, BLOCK_BYTES // (8 * max(width, 1) * arrays))


def _gaps(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """|candidate - query| as a (features x queries x candidates) array,
    NaN where the query cell is missing."""
    cols = np.ascontiguousarray(np.asarray(candidates, dtype=float).T)
    gaps = np.subtract(cols[:, None, :], queries.T[:, :, None])
    return np.abs(gaps, out=gaps)


class HeomMetric:
    """Batch HEOM distances from a block of query rows to a candidate matrix.

    Candidate rows must be complete; queries may contain NaN (each such
    feature contributes the missing-cell distance of 1 to every pair).
    """

    def __init__(self, categorical, weights=None):
        self.categorical = np.asarray(categorical, dtype=bool)
        self.weights = None if weights is None else np.asarray(weights, float)

    def distances(self, queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        d = _gaps(queries, candidates)
        cat = self.categorical
        if cat.any():
            # overlap: two finite values differ exactly when their gap is nonzero
            d[cat] = d[cat] != 0.0
        d[np.isnan(queries).T] = 1.0
        acc = np.zeros(d.shape[1:])
        for j, dj in enumerate(d):  # features left to right
            dj *= dj if self.weights is None else dj * self.weights[j]  # (w * d) * d
            acc += dj
        return np.sqrt(acc, out=acc)


def _bounds(gaps: np.ndarray, categorical: np.ndarray):
    """Each query's min and max gap over its observed continuous cells, or
    the (0, 1) sentinel when it has none, keeping grey coefficients finite.
    fmin/fmax skip the NaN rows of missing query cells."""
    cont = ~categorical[:, None]
    dmin = np.fmin.reduce(gaps.min(axis=2), axis=0, initial=np.nan, where=cont)
    dmax = np.fmax.reduce(gaps.max(axis=2), axis=0, initial=np.nan, where=cont)
    none = np.isnan(dmin)
    dmin[none], dmax[none] = 0.0, 1.0
    return dmin, dmax


class GreyMetric:
    """Batch grey distances (1 - GRG) from a block of query rows to a
    candidate matrix, with delta bounds taken per query over the whole
    candidate matrix.

    The coefficient of a continuous feature is (dmin + rho*dmax) /
    (|q - c| + rho*dmax); a zero denominator only occurs when rho*dmax is
    0 and the candidate equals the query, which is perfect similarity, so
    it gives 1. The distinguishing coefficient rho lies in [0, 1] (the
    engine's :class:`ImputeConfig` checks the range). Categorical
    features give exact-match 0/1. The grade is the mean of the
    coefficients, evaluated as the uniform-weight sum, or their weighted
    sum when simplex weights are given.

    Candidate rows must be complete; queries may contain NaN (those
    features score a coefficient of 0 against every candidate and are
    excluded from the bounds).
    """

    def __init__(self, categorical, rho: float = 0.5, weights=None):
        self.categorical = np.asarray(categorical, dtype=bool)
        self.rho = rho
        self.weights = None if weights is None else np.asarray(weights, float)

    def distances(self, queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        g = _gaps(queries, candidates)
        cat = self.categorical
        p = len(cat)
        dmin, dmax = _bounds(g, cat)
        match = g[cat] == 0.0
        rdmax = (self.rho * dmax)[:, None]
        g += rdmax
        # categorical slabs take this formula too (and may divide by zero)
        # until their matches overwrite them
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dmin[:, None] + rdmax, g, out=g)
        # dmin is the smallest continuous gap, so every continuous ratio is
        # at most 1 and its only NaN is 0/0: perfect similarity, 1
        flat = rdmax[:, 0] == 0.0
        if flat.any():
            g[:, flat] = np.fmin(g[:, flat], 1.0)
        g[cat] = match
        g[np.isnan(queries).T] = 0.0
        g *= (np.full(p, 1.0 / p) if self.weights is None else self.weights)[:, None, None]
        grade = np.zeros(g.shape[1:])
        for gj in g:  # features left to right
            grade += gj
        return np.subtract(1.0, grade, out=grade)
