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
a float32 partial grade over the heavy features (weight at least 1/p)
ranks all candidates; a candidate is scored in full only if its partial
grade plus the total light weight, and a proven bound on the partial's
rounding, could still reach the k-th best partial grade. Coefficients
lie in [0, 1], so no pruned candidate can enter the k nearest, and
survivors are scored by the same per-feature float64 code as
``distances``, bit for bit. The screen takes queries in tiles whose
float32 arrays stay in a core's L2 cache, and gathers survivors from a
feature-major copy of the candidates in cache-sized steps; every step
works per pair or per query, so neither size moves a bit.

Missing cells are NaN throughout; candidate rows must be complete.
``own[i]``, where given, is query i's own row of the candidates (equal to
it wherever it is observed): it scores +inf, and every other distance is
the same bits as with that row deleted.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "HeomMetric",
    "GreyMetric",
    "GreyScreen",
]


# bytes of float64 work arrays one kernel call may hold
BLOCK_BYTES = 16 * 2**20

# bytes of work arrays one tile of the screen holds (its two float32 partial
# grade arrays, or the float64 gaps and query cells of a step of survivors),
# so that they stay in a core's L2 cache from tile to tile
_TILE_BYTES = 2**20

# unit roundoff of float32, the precision of the screen's partial grades
U32 = 2.0**-24


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
    NaN where the query cell is missing. Feature-major (Fortran-ordered)
    candidates are read in place; others are copied into that order once."""
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


def _bounds(gaps: np.ndarray, categorical, own=None):
    """Each query's min and max gap over its observed continuous cells (all
    if ``categorical`` is None) and candidates other than its ``own``, or
    the (0, 1) sentinel, which keeps grey coefficients finite, if it has
    none. Each bound is one reduction over features and candidates: fmin
    and fmax skip the NaN rows of missing query cells and the own row's
    gaps, marked NaN here (they are 0, so could not raise dmax anyway)."""
    cont = True if categorical is None else ~categorical[:, None, None]
    _mark_own(gaps, own, np.nan)
    dmax = np.fmax.reduce(gaps, axis=(0, 2), initial=np.nan, where=cont)
    dmin = np.fmin.reduce(gaps, axis=(0, 2), initial=np.nan, where=cont)
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
        p = len(self.categorical)  # kernel constants; _cat is None when no feature is categorical
        self._cat = self.categorical if self.categorical.any() else None
        self._w = np.full(p, 1.0 / p) if self.weights is None else self.weights

    def _grade(self, g, qnan, dmin, rdmax):
        """Weighted grey grade from the gaps ``g`` (features first), summed
        left to right into ``g[0]``, which it returns; overwrites ``g``.
        ``qnan`` marks the missing query cells (``g.shape[:2]``);
        ``dmin``/``rdmax`` (the query's dmin and rho*dmax) broadcast against
        ``g[0]``."""
        cat = self._cat
        match = None if cat is None else g[cat] == 0.0
        g += rdmax
        # categorical slabs take this formula too (and may divide by zero)
        # until their matches overwrite them
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dmin + rdmax, g, out=g)
        # dmin is the smallest continuous gap, so every continuous ratio is
        # at most 1 and its only NaN is 0/0: perfect similarity, 1 (an own
        # row's NaN gaps give any grade; distances marks it after)
        flat = rdmax == 0.0
        if flat.any():
            np.fmin(g, 1.0, out=g, where=flat)
        if match is not None:
            g[cat] = match
        g[qnan] = 0.0
        g *= self._w.reshape((-1,) + (1,) * (g.ndim - 1))
        grade = g[0]  # 0 + g[0] would differ only in the sign of a zero grade
        for gj in g[1:]:  # features left to right
            grade += gj
        return grade

    def distances(self, queries: np.ndarray, candidates: np.ndarray, own=None) -> np.ndarray:
        g = _gaps(queries, candidates)
        dmin, dmax = _bounds(g, self._cat, own)
        rdmax = (self.rho * dmax)[:, None]
        grade = self._grade(g, np.isnan(queries).T, dmin[:, None], rdmax)
        _mark_own(grade, own, -np.inf)
        return np.subtract(1.0, grade, out=grade)

    def screen(self, candidates: np.ndarray) -> "GreyScreen | None":
        """A :class:`GreyScreen` over ``candidates``, or None when the
        weights give it nothing safe or cheap to prune on. It needs finite,
        non-negative weights with a finite sum; heavy features (weight at
        least 1/p), no more than a quarter of them, since the partial grade
        costs their share of a full kernel call; and light ones that weigh
        less than 1/p together."""
        w = self.weights
        if w is None or not (np.isfinite(w).all() and (w >= 0.0).all() and np.isfinite(w.sum())):
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

    Grades here are shares of the total weight W, so they lie in [0, 1]
    whatever the weights' magnitude. A full grade is at most the partial
    grade plus the light share (coefficients lie in [0, 1]), and the k
    candidates with the best partial grades have full grades at least the
    k-th best partial grade T. So a candidate whose partial grade plus the
    light share falls below T cannot be among the k nearest.

    The partial grade is computed in float32, so the cut also drops by
    2e, where e bounds |computed - exact partial| for the query: the k
    best computed grades may each read e high and a pruned one e low. Let
    u = 2**-24, N = dmin + rho*dmax and R = rho*dmax for the query. A
    continuous heavy feature of share s adds s*N / (g + R), where the gap
    g = |c - q| is at least dmin, so the sum is at least N. Float32
    rounds q and c (by u(|q| + |c|) together), the gap, the sum and the
    quotient once each, and s*N once. With B = u(|q| + max|c|) / N the
    denominator is off by a factor within 1 +- (B + 2u) and the term by
    at most s(B + 5u) / (1 - B - 2u) <= s(2B + 32u) while 2B + 32u < 1:
    the left side is convex in B and below the right at B = 0 and 1/2.
    Where 2B + 32u >= 1, or N lies outside [2**-100, 2**100] (float32
    could under- or overflow), the term is computed as exactly 0 and its
    whole share is the allowance; so is it, for instance, where
    dmin + rho*dmax = 0. A missing query cell gives 0 both ways. A
    categorical feature compares codes exactly and adds its share rounded
    to float32 (off by u*s). Adding the h heavy terms, each at most twice
    its share, costs at most 2hu, the categorical shares at most hu, and
    a numerator or term below float32's normal range less than u each,
    so with 4hu for these

        e = sum over the observed continuous heavy features j of
            s_j * min(1, 2 B_j + 32u)  +  4hu.

    Survivors are scored in float64 by the metric's own code and ranked
    by (distance, index). A pruned candidate's exact full grade is below
    each of k survivors' by more than the margin, :data:`MARGIN` of
    max(W, 1) in weight. Rounding moves a p-term float64 grade by about
    p * eps * W and the distance 1 - grade by eps * max(1, W), far less
    than the margin for any p below a million, so a pruned candidate
    stays strictly farther than k survivors and no (distance, index) tie
    is lost. The margin and the allowance are part of that argument, not
    tuning knobs.
    """

    MARGIN = 1e-9

    def __init__(self, metric: GreyMetric, candidates: np.ndarray, heavy, light: float):
        self.metric = metric
        self.candidates = np.asarray(candidates, dtype=float)
        n, p = self.candidates.shape
        # survivors are gathered from this feature-major copy, so the
        # grade reads each feature's gaps as one contiguous slab
        self.cols = np.ascontiguousarray(self.candidates.T)
        self.continuous = ~metric.categorical
        self.columns = np.sort(self.candidates[:, self.continuous], axis=0).T
        total = float(metric.weights.sum())
        self.slack = (light + self.MARGIN * max(total, 1.0)) / total
        self.summing = 4 * len(heavy) * U32
        share = metric.weights[heavy] / total
        cat = metric.categorical[heavy]
        self.cont, self.cont_share = heavy[~cat], share[~cat]
        with np.errstate(over="ignore"):  # a cell past float32's range only saturates
            self.cont_cols = np.ascontiguousarray(self.candidates[:, self.cont].T, np.float32)
        self.cont_max = np.abs(self.candidates[:, self.cont]).max(axis=0)
        self.cat, self.cat_share = heavy[cat], share[cat].astype(np.float32)
        self.cat_cols = np.ascontiguousarray(self.candidates[:, self.cat].T)
        # queries per tile (two float32 arrays of a tile's pairs) and
        # survivors per step (their gaps and query cells, p floats each)
        self.tile = max(1, _TILE_BYTES // (8 * n))
        self.step = max(1, _TILE_BYTES // (16 * p))
        self._work = threading.local()

    def _arrays(self):
        """The calling thread's work arrays, made at its first call and
        reused by every tile, step and call after (fresh ones would fault
        their pages in anew): a tile's float32 grades and terms, and a
        step's gaps, query cells and missing query cells."""
        arrays = getattr(self._work, "arrays", None)
        if arrays is None:
            p, n = self.cols.shape
            arrays = self._work.arrays = (
                np.empty((2, self.tile, n), np.float32),
                np.empty((2, p * self.step)),
                np.empty(p * self.step, bool),
            )
        return arrays

    def _partial(self, queries, top, rdmax, acc, term):
        """The float32 partial grade share of each query against every
        candidate, summed into ``acc`` (queries x candidates), which it
        returns with each query's bound e on its rounding error; ``term``
        holds one feature's terms, of that shape; ``top`` is dmin +
        rho*dmax, ``rdmax`` rho*dmax."""
        acc.fill(0.0)
        err = np.full(len(queries), self.summing)
        inside = (top >= 2.0**-100) & (top <= 2.0**100)
        for col, cmax, share, q in zip(
            self.cont_cols, self.cont_max, self.cont_share, queries[:, self.cont].T
        ):
            bound = 2.0 * U32 * (np.abs(q) + cmax) / np.where(inside, top, 1.0) + 32.0 * U32
            ok = inside & (bound < 1.0)  # False where q is NaN
            err += share * np.where(ok, bound, ~np.isnan(q))
            x = np.where(ok, q, 0.0).astype(np.float32)
            num = np.where(ok, share * top, 0.0).astype(np.float32)
            r = np.where(ok, rdmax, 1.0).astype(np.float32)
            np.subtract(col, x[:, None], out=term)
            np.abs(term, out=term)
            term += r[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):  # only at an own row
                np.divide(num[:, None], term, out=term)
            acc += term
        for col, share, q in zip(self.cat_cols, self.cat_share, queries[:, self.cat].T):
            np.add(acc, share, out=acc, where=np.equal(col, q[:, None]))
        return acc, err

    def nearest(self, queries: np.ndarray, k: int, own=None):
        """(distances, indices) of each query's k nearest candidates other
        than its ``own``, ascending by (distance, index); both (queries x k).

        Queries go in tiles of :attr:`tile` rows and a tile's survivors are
        scored :attr:`step` at a time, in work arrays each thread reuses
        (:meth:`_arrays`). Each step reads only its own queries' rows, so
        the cut, the survivors and the bits do not depend on either size."""
        metric = self.metric
        dmin, dmax = _sorted_bounds(queries, self.columns, self.continuous, own is not None)
        rdmax = metric.rho * dmax
        top = dmin + rdmax
        qcols = np.ascontiguousarray(queries.T)
        (p, m), n = qcols.shape, len(self.candidates)
        dist, idx = np.empty((m, k)), np.empty((m, k), np.intp)
        tiles, steps, holes = self._arrays()
        for lo in range(0, m, self.tile):
            hi = min(lo + self.tile, m)
            acc, term = tiles[:, :hi - lo]
            partial, err = self._partial(queries[lo:hi], top[lo:hi], rdmax[lo:hi], acc, term)
            _mark_own(partial, None if own is None else own[lo:hi], -np.inf)
            np.copyto(term, partial)
            term.partition(n - k, axis=1)
            cut = term[:, n - k] - (self.slack + 2.0 * err)
            # the smallest float32 at or above each cut keeps exactly the same pairs
            cut32 = cut.astype(np.float32)
            cut32 = np.where(cut32 < cut, np.nextafter(cut32, np.float32(np.inf)), cut32)
            qi, ci = np.divmod(np.flatnonzero(partial >= cut32[:, None]), n)
            d = np.empty(len(qi))
            for s in range(0, len(qi), self.step):
                a, b = qi[s:s + self.step] + lo, ci[s:s + self.step]
                g, x = steps[:, :p * len(a)].reshape(2, p, len(a))
                gone = holes[:p * len(a)].reshape(p, len(a))
                # mode "clip" writes into out directly (the indices are in range)
                np.take(self.cols, b, axis=1, out=g, mode="clip")
                np.take(qcols, a, axis=1, out=x, mode="clip")
                np.abs(np.subtract(g, x, out=g), out=g)
                grade = metric._grade(g, np.isnan(x, out=gone), dmin[a], rdmax[a])
                np.subtract(1.0, grade, out=d[s:s + len(a)])
            # ascending by (query, distance, candidate), as np.lexsort((d, qi))
            # orders them: the key is unique (and fits int64, as a tile holds
            # at most max(n, 2**17) pairs), so an unstable sort of it gives
            # that order, faster
            rank = np.unique(d, return_inverse=True)[1]
            order = np.argsort((qi * len(d) + rank) * len(d) + np.arange(len(d)))
            counts = np.bincount(qi, minlength=hi - lo)
            take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
            dist[lo:hi], idx[lo:hi] = d[take], ci[take]
        return dist, idx
