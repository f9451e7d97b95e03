import numpy as np
import pytest

from greyimpute.dataset import Dataset, Feature, Schema


def build_dataset(values, categorical_levels=None, labels=None, class_levels=None,
                  names=None):
    """Assemble a Dataset from a plain value matrix; NaN cells are missing.

    categorical_levels: {col_index: (level, ...)} marks categorical columns.
    """
    values = np.asarray(values, dtype=float)
    categorical_levels = categorical_levels or {}
    p = values.shape[1]
    names = names or [f"f{j}" for j in range(p)]
    feats = tuple(
        Feature(names[j], tuple(categorical_levels[j]) if j in categorical_levels else None)
        for j in range(p)
    )
    class_column = None
    cl = ()
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
        class_column = "class"
        cl = tuple(class_levels) if class_levels else tuple(
            str(v) for v in range(int(labels.max()) + 1)
        )
    return Dataset(Schema(feats, class_column, cl), values, labels=labels)


def random_mixed_dataset(rng, max_n=10, max_p=4, missing_rate=0.3, n_classes=2,
                         min_n=5):
    """Small random mixed-type dataset with injected missingness, for
    oracle-equivalence checks."""
    n = int(rng.integers(min_n, max_n + 1))
    p = int(rng.integers(2, max_p + 1))
    cat_cols = {}
    values = np.empty((n, p))
    for j in range(p):
        if rng.random() < 0.4:
            k = int(rng.integers(2, 4))
            cat_cols[j] = tuple(f"l{i}" for i in range(k))
            values[:, j] = rng.integers(0, k, size=n)
        else:
            values[:, j] = rng.normal(size=n)
    mask = rng.random((n, p)) >= missing_rate
    for j in range(p):
        if not mask[:, j].any():
            mask[int(rng.integers(0, n)), j] = True
    values = np.where(mask, values, np.nan)
    labels = rng.integers(0, n_classes, size=n)
    labels[:n_classes] = np.arange(n_classes)  # every class occupied
    return build_dataset(values, cat_cols, labels)


def layouts(a):
    """``a`` as a C-ordered array, a Fortran-ordered one and a strided view
    that is neither."""
    rows, cols = a.shape
    strided = np.zeros((2 * rows, 2 * cols + 1))[::2, 1::2]
    strided[...] = a
    return np.ascontiguousarray(a), np.asfortranarray(a), strided


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
