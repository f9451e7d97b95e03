"""Feature-relevance estimation: entropies, mutual information, weights.

Mutual information between a feature and the class label is the entropy of
the label minus its conditional entropy given the feature. Categorical
features use plug-in histogram estimates; continuous features use Gaussian
Parzen window density estimates, where the class posterior at a training
point is the ratio of its class-restricted kernel sum to its total kernel
sum. The bandwidth follows Silverman's rule h = 1.06 * std * n^(-1/5),
floored so zero-variance features stay finite. The kernel sums are taken
on a linearly binned grid, each class's row convolved with the Gaussian by
FFT, in near-linear time (Silverman 1982, AS 176; Wand 1994).

Inter-feature MI, behind the fwgknn weights, is a plug-in histogram
estimate on discretized columns, taken for all feature pairs of one table
shape at once.

All entropies are in bits (log base 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .distance import block_rows
from .errors import DataError, EmptyInputError, LengthMismatchError

__all__ = [
    "MIEstimate",
    "entropy_discrete",
    "conditional_entropy_discrete",
    "parzen_conditional_entropy",
    "mutual_information",
    "class_weights",
    "feature_feature_weights",
    "dataset_class_weights",
]

BANDWIDTH_FACTOR = 1.06
BANDWIDTH_FLOOR = 1e-6
# Parzen grid nodes per bandwidth h, and the kernel cut-off in bandwidths
GRID_STEPS_PER_BANDWIDTH = 128
KERNEL_CUTOFF = 9
# equal-frequency bins per continuous column in inter-feature MI
FEATURE_MI_BINS = 10


@dataclass(frozen=True)
class MIEstimate:
    """Nonnegative mutual information in bits plus which estimator made it."""

    mi: float
    estimator: str  # "histogram" | "parzen"


def _plogp(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log2(p), 0.0)


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Plug-in entropy of each histogram along the last axis."""
    return -_plogp(counts / counts.sum(axis=-1, keepdims=True)).sum(axis=-1)


def _conditional_entropies(joint: np.ndarray) -> np.ndarray:
    """H(Y|X) of each feature-by-class table on the last two axes. Every
    sum runs over one contiguous run of a C-ordered stack, so a table's
    result has the same bits alone as in any stack of its own shape."""
    p_xy = joint / joint.sum(axis=(-2, -1), keepdims=True)
    p_x = p_xy.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_y_given_x = np.where(p_x > 0, p_xy / p_x, 0.0)
        terms = np.where(p_xy > 0, p_xy * np.log2(p_y_given_x), 0.0)
    return -terms.sum(axis=(-2, -1))


def entropy_discrete(counts) -> float:
    """Plug-in entropy of a histogram, -sum p log2 p with 0 log 0 = 0."""
    counts = np.asarray(counts, dtype=float)
    if counts.sum() <= 0:
        raise EmptyInputError("entropy of an empty histogram")
    return float(_entropies(counts))


def conditional_entropy_discrete(joint) -> float:
    """H(Y|X) from a feature-by-class contingency table."""
    joint = np.asarray(joint, dtype=float)
    if joint.sum() <= 0:
        raise EmptyInputError("conditional entropy of an empty table")
    return float(_conditional_entropies(joint))


def parzen_conditional_entropy(
    feature: np.ndarray, labels: np.ndarray, n_classes: int
) -> float:
    """H(Y|X) for a continuous feature by Parzen windows.

    The class posterior at each training point is its class-restricted
    kernel sum over its total kernel sum (the shared bandwidth and the
    class priors cancel); the conditional entropy is the average posterior
    entropy over training points. Each class's points are binned linearly
    onto a grid of spacing h / :data:`GRID_STEPS_PER_BANDWIDTH`, each class
    row is convolved with the Gaussian sampled on that grid and cut at
    :data:`KERNEL_CUTOFF` h, and each point's class sums are read back by
    linear interpolation. The gap to the exact n x n sum (kept in
    ``tests/_oracles.py``) is below 1e-5 bit and shrinks with the square of
    the spacing. The sample range is at most sqrt(2 (n - 1)) sample sd, so
    the grid needs no cap: it never holds more than about
    128 sqrt(2n) n^0.2 / 1.06 nodes, 57 000 at n = 4000, whatever the data.

    The convolution is a linear one by ``rfft``/``irfft``, zero-padded to
    the power of two at or above the grid plus twice the kernel reach, so
    nothing wraps round. Its rounding leaves about 1e-16 of the class
    count, of either sign, where the direct sum is exactly 0. So a node
    with no occupied node of its class within the reach keeps an exact 0,
    and every other sum is clamped at 0: the posteriors stay in [0, 1], and
    classes further apart than the cut-off stay certain, H(Y|X) = 0, as
    with the direct sum. The class MI moves by about 1e-16 bit against it.
    """
    x = np.asarray(feature, dtype=float)
    y = _codes(labels, n_classes, "class labels")
    n = len(x)
    if n < 2:
        raise EmptyInputError("parzen estimate needs at least 2 observations")
    if not np.isfinite(x).all():
        raise DataError("a continuous column must be finite; it holds NaN or inf")
    sd = float(np.std(x, ddof=1))
    h = max(BANDWIDTH_FACTOR * sd * n ** (-0.2), BANDWIDTH_FLOOR)
    pos = (x - x.min()) * (GRID_STEPS_PER_BANDWIDTH / h)
    left = pos.astype(int)
    frac = pos - left
    m = int(left.max()) + 2
    flat = y * m + left
    grid = np.bincount(flat, 1.0 - frac, n_classes * m)
    grid += np.bincount(flat + 1, frac, n_classes * m)
    # kernel taps past the grid's own span never reach a node
    reach = min(KERNEL_CUTOFF * GRID_STEPS_PER_BANDWIDTH, m - 1)
    kernel = np.exp(-0.5 * (np.arange(-reach, reach + 1) / GRID_STEPS_PER_BANDWIDTH) ** 2)
    rows = grid.reshape(n_classes, m)
    size = 1 << (m + 2 * reach - 1).bit_length()
    spectra = np.fft.rfft(rows, size) * np.fft.rfft(kernel, size)
    conv = np.fft.irfft(spectra, size)[:, reach:reach + m]
    # occupied nodes of each class up to node i - reach - 1 (hits[:, i]) and
    # up to node i + reach (hits[:, i + 2 reach + 1])
    occupied = np.zeros((n_classes, m + 2 * reach + 1), dtype=np.int32)
    occupied[:, reach + 1:reach + 1 + m] = rows > 0
    hits = occupied.cumsum(axis=1)
    sums = np.where(hits[:, 2 * reach + 1:] > hits[:, :m], np.maximum(conv, 0.0), 0.0)
    numer = (sums[:, left] * (1.0 - frac) + sums[:, left + 1] * frac).T
    # the total kernel mass is the sum over class-restricted masses, so the
    # posterior rows sum to exactly one
    denom = numer.sum(axis=1)
    post = numer / denom[:, None]
    return float(-_plogp(post).sum(axis=1).mean())


def _codes(values, count: float, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if not ((v >= 0) & (v < count) & (v == np.floor(v))).all():
        raise DataError(f"{what} must be whole numbers in [0, {count})")
    return v.astype(int)


def _contingency(x: np.ndarray, y: np.ndarray, kx: int, ky: int) -> np.ndarray:
    cells = x.astype(int) * ky + y.astype(int)
    return np.bincount(cells, minlength=kx * ky).reshape(kx, ky).astype(float)


def mutual_information(
    column: np.ndarray,
    labels: np.ndarray,
    categorical: bool,
    n_classes: int,
    n_levels: int | None = None,
) -> MIEstimate:
    """MI between one complete feature column and the class labels.

    Histogram path for categorical columns, Parzen path for continuous.
    Clamped at zero: plug-in estimates can dip slightly negative. Raises
    :class:`DataError` for a NaN or inf continuous cell, for a label or code
    that is not a whole number below its count, and for unequal lengths.
    """
    x = np.asarray(column, dtype=float)
    if x.shape != np.shape(labels):
        raise LengthMismatchError(f"column has shape {x.shape}, labels {np.shape(labels)}")
    y = _codes(labels, n_classes, "class labels")
    h_y = entropy_discrete(np.bincount(y, minlength=n_classes))
    if categorical:
        codes = _codes(x, np.inf if n_levels is None else n_levels, "categorical codes")
        table = _contingency(codes, y, n_levels or int(codes.max()) + 1, n_classes)
        h_y_given_x = conditional_entropy_discrete(table)
        kind = "histogram"
    else:
        h_y_given_x = parzen_conditional_entropy(x, y, n_classes)
        kind = "parzen"
    return MIEstimate(max(0.0, h_y - h_y_given_x), kind)


def _simplex(scores: np.ndarray) -> np.ndarray:
    """``scores`` over their total, or uniform weights when it is 0."""
    total = scores.sum()
    if total <= 0.0:
        return np.full(len(scores), 1.0 / len(scores))
    return scores / total


def class_weights(estimates: list[MIEstimate]) -> np.ndarray:
    """Simplex-normalized feature weights from per-feature MI."""
    return _simplex(np.array([e.mi for e in estimates], dtype=float))


def dataset_class_weights(dataset: Dataset) -> tuple[np.ndarray, tuple[MIEstimate, ...]]:
    """Per-feature class-relevance weights for a complete labeled dataset."""
    cat = dataset.schema.categorical_mask
    m = len(dataset.schema.class_levels)
    estimates = []
    for j, feat in enumerate(dataset.schema.features):
        estimates.append(
            mutual_information(
                dataset.values[:, j],
                dataset.labels,
                bool(cat[j]),
                m,
                len(feat.levels) if feat.levels else None,
            )
        )
    return class_weights(estimates), tuple(estimates)


def feature_feature_weights(dataset: Dataset) -> np.ndarray:
    """Inter-feature relevance weights for a complete dataset.

    Each feature's raw score is the mean pairwise MI between it and every
    other feature, computed on discretized columns (continuous features are
    cut into :data:`FEATURE_MI_BINS` equal-frequency bins, fewer where tied
    values merge edges); scores are simplex-normalized. The feature pairs
    are grouped by table shape (levels of the first x levels of the second)
    and each group's contingency tables are counted by one ``bincount``,
    bounded by :data:`~greyimpute.distance.BLOCK_BYTES`. Within a shape,
    every entropy adds the same runs of cells as a lone table does, so the
    weights match the per-pair loop bit for bit; padding the tables to one
    shape would regroup numpy's pairwise sums and move the last bits.
    """
    p, n = dataset.p, dataset.n
    values = dataset.values
    cat = dataset.schema.categorical_mask
    cols = np.zeros((p, n), dtype=int)
    cols[cat] = values[:, cat].T
    cont = np.flatnonzero(~cat)
    edges = np.quantile(values[:, cont], np.linspace(0, 1, FEATURE_MI_BINS + 1)[1:-1], axis=0)
    for i, j in enumerate(cont):
        cols[j] = np.searchsorted(edges[:, i], values[:, j], side="right")
    levels = cols.max(axis=1) + 1
    first, second = np.triu_indices(p, 1)
    mi = np.zeros((p, p))
    step = block_rows(n, 4)  # the (pairs x rows) code arrays alive at once
    for ka, kb in set(zip(levels[first].tolist(), levels[second].tolist())):
        pairs = np.flatnonzero((levels[first] == ka) & (levels[second] == kb))
        for start in range(0, len(pairs), step):
            chunk = pairs[start:start + step]
            a, b = first[chunk], second[chunk]
            cells = (np.arange(len(a))[:, None] * ka + cols[a]) * kb + cols[b]
            tables = np.bincount(cells.ravel(), minlength=len(a) * ka * kb)
            tables = tables.reshape(-1, ka, kb).astype(float)
            score = _entropies(tables.sum(axis=1)) - _conditional_entropies(tables)
            mi[a, b] = mi[b, a] = np.maximum(score, 0.0)
    return _simplex(mi.sum(axis=1) / max(p - 1, 1))
