"""Stratified folds: the one split that k selection and evaluation share."""

from __future__ import annotations

import numpy as np

from ._rng import make_rng
from .errors import DataError, TooFewRowsError

__all__ = ["stratified_folds", "stratified_fold_ids", "effective_fold_count"]


def effective_fold_count(labels: np.ndarray, requested: int) -> int:
    """Requested fold count, reduced to the smallest class size (min 2)."""
    counts = np.bincount(np.asarray(labels, dtype=int))
    smallest = int(counts[counts > 0].min())
    return max(2, min(requested, smallest))


def stratified_fold_ids(labels: np.ndarray, n_folds: int, seed: int) -> np.ndarray:
    """Deterministic per-seed fold id for every row, stratified by class.

    Within each class the rows are shuffled and dealt round-robin, so every
    fold sees near-identical class proportions.
    """
    labels = np.asarray(labels, dtype=int)
    n = len(labels)
    if n < n_folds:
        raise TooFewRowsError(f"{n} rows cannot fill {n_folds} folds")
    rng = make_rng(seed, "folds")
    fold = np.empty(n, dtype=int)
    for y in np.unique(labels):
        idx = np.nonzero(labels == y)[0]
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % n_folds
    return fold


def stratified_folds(labels, requested: int, seed: int):
    """Each stratified fold's (training rows, held-out rows), ascending, one
    at a time: :func:`stratified_fold_ids` over :func:`effective_fold_count` folds."""
    if labels is None:
        raise DataError("cross-validation needs class labels")
    n_folds = effective_fold_count(labels, requested)
    ids = stratified_fold_ids(labels, n_folds, seed)
    return ((np.flatnonzero(ids != f), np.flatnonzero(ids == f)) for f in range(n_folds))
