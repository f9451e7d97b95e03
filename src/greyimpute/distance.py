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

When only each query's k nearest candidates are wanted and the grey
weights sit on a few features, :meth:`GreyMetric.screen` finds them
without scoring every pair in full (partial-distance elimination, Bei &
Gray 1985). Each query's bounds come from candidate columns sorted once;
a partial grade over the heavy features (weight at least 1/p) ranks all
candidates; a candidate is scored in full only if its partial grade plus
the total light weight could still reach the k-th best partial grade.
Coefficients lie in [0, 1], so no pruned candidate can enter the k
nearest, and survivors are scored by the same per-feature code as
``distances``, bit for bit.

Missing cells are NaN throughout; candidate rows must be complete.
``own[i]``, where given, is query i's own row of the candidates (equal to
it wherever it is observed): it scores +inf, and every other distance is
the same bits as with that row deleted.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HeomMetric",
    "GreyMetric",
    "GreyScreen",
]


# bytes of float64 work arrays one kernel call may hold
BLOCK_BYTES = 16 * 2**20


def block_rows(width: int, arrays: int) -> int:
    """Rows per block such that ``arrays`` float64 arrays of (rows x
    width) fit in :data:`BLOCK_BYTES`; at least one."""
    return max(1, BLOCK_BYTES // (8 * max(width, 1) * arrays))


def _mark_own(a: np.ndarray, own, value: float) -> None:
    """Set each query's own candidate (last two axes) in ``a`` to ``value``."""
    if own is not None:
        a[..., np.arange(len(own)), own] = value


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

    def distances(self, queries: np.ndarray, candidates: np.ndarray, own=None) -> np.ndarray:
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
        _mark_own(acc, own, np.inf)
        return np.sqrt(acc, out=acc)


def _bounds(gaps: np.ndarray, categorical: np.ndarray, own=None):
    """Each query's min and max gap over its observed continuous cells, or
    the (0, 1) sentinel when it has none, keeping grey coefficients finite.
    fmin/fmax skip the NaN rows of missing query cells. An own row's gaps,
    0 where observed, cannot raise dmax; dmin skips them (set to +inf)."""
    cont = ~categorical[:, None]
    dmax = np.fmax.reduce(gaps.max(axis=2), axis=0, initial=np.nan, where=cont)
    _mark_own(gaps, own, np.inf)
    dmin = np.fmin.reduce(gaps.min(axis=2), axis=0, initial=np.nan, where=cont)
    return _sentinel(dmin, dmax)


def _sentinel(dmin, dmax):
    none = np.isnan(dmin)
    dmin[none], dmax[none] = 0.0, 1.0
    return dmin, dmax


def _sorted_bounds(queries: np.ndarray, columns: np.ndarray, continuous: np.ndarray, own=False):
    """:func:`_bounds` of a query block from the continuous candidate
    columns sorted ascending, (continuous features x candidates), without
    the gaps. Rounded subtraction is monotone, so a query cell's smallest
    gap is to a sorted neighbour of it (one past an ``own`` copy at its
    search point; past an end, the far end, never nearer) and its largest
    to a column end."""
    q = queries[:, continuous].T
    near = np.empty_like(q)
    for j, (col, qj) in enumerate(zip(columns, q)):
        at = np.searchsorted(col, qj)
        near[j] = np.minimum(np.abs(col[at - 1] - qj), np.abs(col[(at + own) % len(col)] - qj))
    far = np.maximum(np.abs(columns[:, :1] - q), np.abs(columns[:, -1:] - q))
    dmin = np.fmin.reduce(near, axis=0, initial=np.nan)
    dmax = np.fmax.reduce(far, axis=0, initial=np.nan)
    return _sentinel(dmin, dmax)


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

    def _grade(self, g, qnan, dmin, rdmax, features=slice(None)):
        """Weighted grey grade of the ``features`` whose gaps ``g`` (features
        first) holds, summed left to right; overwrites ``g``. ``qnan`` marks
        the missing query cells (``g.shape[:2]``); ``dmin``/``rdmax`` (the
        query's dmin and rho*dmax) broadcast against ``g[0]``."""
        cat = self.categorical[features]
        match = g[cat] == 0.0
        g += rdmax
        # categorical slabs take this formula too (and may divide by zero)
        # until their matches overwrite them
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dmin + rdmax, g, out=g)
        # dmin is the smallest continuous gap, so every continuous ratio is
        # at most 1 and its only NaN is 0/0: perfect similarity, 1
        flat = rdmax == 0.0
        if flat.any():
            np.fmin(g, 1.0, out=g, where=flat)
        g[cat] = match
        g[qnan] = 0.0
        p = len(self.categorical)
        w = np.full(p, 1.0 / p) if self.weights is None else self.weights
        g *= w[features].reshape((-1,) + (1,) * (g.ndim - 1))
        grade = np.zeros(g.shape[1:])
        for gj in g:  # features left to right
            grade += gj
        return grade

    def distances(self, queries: np.ndarray, candidates: np.ndarray, own=None) -> np.ndarray:
        g = _gaps(queries, candidates)
        dmin, dmax = _bounds(g, self.categorical, own)
        rdmax = (self.rho * dmax)[:, None]
        grade = self._grade(g, np.isnan(queries).T, dmin[:, None], rdmax)
        _mark_own(grade, own, -np.inf)
        return np.subtract(1.0, grade, out=grade)

    def screen(self, candidates: np.ndarray) -> "GreyScreen | None":
        """A :class:`GreyScreen` over ``candidates``, or None when the
        weights give it nothing safe or cheap to prune on. It needs finite,
        non-negative weights; heavy features (weight at least 1/p), no more
        than a quarter of them, since the partial grade costs their share
        of a full kernel call; and light ones that weigh less than 1/p
        together."""
        w = self.weights
        if w is None or not (np.isfinite(w).all() and (w >= 0.0).all()):
            return None
        p = len(w)
        heavy = w >= 1.0 / p
        light = float(w[~heavy].sum())
        if not heavy.any() or 4 * heavy.sum() > p or light >= 1.0 / p:
            return None
        return GreyScreen(self, candidates, np.flatnonzero(heavy), light)


class GreyScreen:
    """The k nearest candidates of query blocks under a weighted
    :class:`GreyMetric`, exactly as ``_nearest(metric.distances(...))``
    ranks them, scoring in full only the candidates a partial grade over
    the heavy features cannot rule out.

    A full grade is at most the partial grade plus the light weight
    (coefficients lie in [0, 1]), and the k candidates with the best
    partial grades have full grades at least the k-th best partial grade
    T. So a candidate whose partial grade plus the light weight falls
    below T cannot be among the k nearest. The cut sits :data:`MARGIN`
    of the total weight below that. Rounding moves a p-term sum by about
    p * eps of the total weight, far less than the margin for any p below
    a million, so a pruned candidate stays strictly farther than k
    survivors after rounding too and no (distance, index) tie is lost.
    The margin is part of that argument, not a tuning knob.
    """

    MARGIN = 1e-9

    def __init__(self, metric: GreyMetric, candidates: np.ndarray, heavy, light: float):
        self.metric = metric
        self.candidates = np.asarray(candidates, dtype=float)
        self.heavy = heavy
        self.continuous = ~metric.categorical
        self.columns = np.sort(self.candidates[:, self.continuous], axis=0).T
        self.slack = light + self.MARGIN * float(metric.weights.sum())

    def nearest(self, queries: np.ndarray, k: int, own=None):
        """(distances, indices) of each query's k nearest candidates other
        than its ``own``, ascending by (distance, index); both (queries x k)."""
        metric, heavy = self.metric, self.heavy
        dmin, dmax = _sorted_bounds(queries, self.columns, self.continuous, own is not None)
        rdmax = metric.rho * dmax
        qnan = np.isnan(queries).T
        partial = metric._grade(
            _gaps(queries[:, heavy], self.candidates[:, heavy]),
            qnan[heavy], dmin[:, None], rdmax[:, None], heavy,
        )
        _mark_own(partial, own, -np.inf)
        n = partial.shape[1]
        cut = np.partition(partial, n - k, axis=1)[:, n - k] - self.slack
        qi, ci = np.nonzero(partial >= cut[:, None])
        d = np.empty(len(qi))
        # the gaps and the two gathered row blocks, p floats each per pair
        step = block_rows(1, 3 * len(metric.categorical) + 2)
        for s in range(0, len(qi), step):
            a, b = qi[s:s + step], ci[s:s + step]
            g = np.subtract(self.candidates[b].T, queries[a].T)
            grade = metric._grade(np.abs(g, out=g), qnan[:, a], dmin[a], rdmax[a])
            d[s:s + step] = np.subtract(1.0, grade, out=grade)
        order = np.lexsort((ci, d, qi))
        counts = np.bincount(qi, minlength=len(queries))
        take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        return d[take], ci[take]
