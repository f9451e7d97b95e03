"""Mixed-type dataset representation shared by every other module.

A dataset is an ``n x p`` matrix of cells. Continuous cells hold finite
reals; categorical cells hold 0-based level indices (stored as floats so a
single ndarray carries both kinds); missing cells hold NaN, and only they
do: the boolean mask (True = observed) is read off the NaN cells.

All values are immutable after construction; every operation returns new
objects.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "Feature",
    "Schema",
    "Dataset",
    "RangeTable",
    "ValidationReport",
    "Violation",
    "validate",
    "normalize",
]


@dataclass(frozen=True)
class Feature:
    """One column: a name plus its kind.

    ``levels`` is an ordered, duplicate-free tuple of level names for a
    categorical feature, or None for a continuous one. Level order is the
    ingestion order, so level indices are reproducible.
    """

    name: str
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.levels is not None:
            if len(self.levels) == 0:
                raise DataError(f"feature {self.name!r}: empty level list")
            if len(set(self.levels)) != len(self.levels):
                raise DataError(f"feature {self.name!r}: duplicate levels")

    @property
    def is_categorical(self) -> bool:
        return self.levels is not None


@dataclass(frozen=True)
class Schema:
    """Ordered feature declarations plus the optional class column."""

    features: tuple[Feature, ...]
    class_column: str | None = None
    class_levels: tuple[str, ...] = ()

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names in schema")
        if self.class_column is not None and self.class_column in names:
            raise DataError("class column may not also be a feature")

    @property
    def p(self) -> int:
        return len(self.features)

    @property
    def categorical_mask(self) -> np.ndarray:
        return np.array([f.is_categorical for f in self.features], dtype=bool)

    def index_of(self, column: str | int) -> int:
        """Position of a feature given by name or by index (negative ones
        count from the end)."""
        if isinstance(column, str):
            for j, f in enumerate(self.features):
                if f.name == column:
                    return j
        elif isinstance(column, numbers.Integral) and -self.p <= column < self.p:
            return int(column) % self.p
        raise DataError(f"unknown column {column!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Cells and optional class labels under one schema.

    ``values`` is float64 with NaN marking missing cells; ``mask``, True
    where a cell is observed, is worked out from them. A mask given at
    construction must agree with the NaN cells, or it is a DataError.
    """

    schema: Schema
    values: np.ndarray
    mask: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        values = _frozen(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != self.schema.p:
            raise DataError(
                f"values shape {values.shape} does not match schema width {self.schema.p}"
            )
        mask = _frozen(~np.isnan(values))
        if self.mask is not None and not np.array_equal(self.mask, mask):
            raise DataError("mask disagrees with the missing (NaN) cells")
        object.__setattr__(self, "mask", mask)
        if self.labels is not None:
            labels = _frozen(np.asarray(self.labels, dtype=int))
            object.__setattr__(self, "labels", labels)
            if labels.shape != (values.shape[0],):
                raise DataError("labels length differs from row count")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "Dataset":
        return Dataset(self.schema, values, labels=self.labels)

    def equals(self, other: "Dataset") -> bool:
        if self.schema != other.schema:
            return False
        if not np.array_equal(self.values, other.values, equal_nan=True):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)


@dataclass(frozen=True)
class RangeTable:
    """Observed min/max per continuous column (NaN rows for categorical).

    ``spans`` yields the per-column denominator for range-normalized
    distances: max - min, with constant and categorical columns mapped to 1
    so they never divide by zero.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", _frozen(np.asarray(self.mins, dtype=float)))
        object.__setattr__(self, "maxs", _frozen(np.asarray(self.maxs, dtype=float)))

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "RangeTable":
        cat = dataset.schema.categorical_mask
        mins = np.full(dataset.p, np.nan)
        maxs = np.full(dataset.p, np.nan)
        for j in range(dataset.p):
            if cat[j]:
                continue
            col = dataset.values[:, j][dataset.mask[:, j]]
            if col.size == 0:
                raise DataError(
                    f"continuous column {dataset.schema.features[j].name!r} has no observed values"
                )
            mins[j] = col.min()
            maxs[j] = col.max()
        return cls(mins, maxs)

    @property
    def spans(self) -> np.ndarray:
        spans = self.maxs - self.mins
        spans = np.where(np.isnan(spans) | (spans == 0.0), 1.0, spans)
        return spans

    def to_unit(self, values) -> np.ndarray:
        """Map an ``(n, p)`` matrix of raw cells onto [0, 1].

        A continuous cell x becomes (max - x) / (max - min), so the column
        max maps to 0; a constant column maps to 0. Categorical columns
        (NaN ranges) and NaN cells pass through unchanged.
        """
        out = np.array(values, dtype=float)
        cols = ~np.isnan(self.maxs)
        maxs, span = self.maxs[cols], self.maxs[cols] - self.mins[cols]
        x = out[:, cols]
        unit = np.where(span == 0.0, 0.0, (maxs - x) / np.where(span == 0.0, 1.0, span))
        out[:, cols] = np.where(np.isnan(x), x, unit)
        return out

    def from_unit(self, values) -> np.ndarray:
        """Invert :meth:`to_unit`: max - u * (max - min), with a constant
        column mapped back to its max."""
        out = np.array(values, dtype=float)
        cols = ~np.isnan(self.maxs)
        maxs, span = self.maxs[cols], self.maxs[cols] - self.mins[cols]
        x = out[:, cols]
        out[:, cols] = np.where(np.isnan(x), x, np.where(span == 0.0, maxs, maxs - x * span))
        return out


@dataclass(frozen=True)
class Violation:
    row: int
    column: int
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    missing_rates: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def validate(dataset: Dataset) -> ValidationReport:
    """Audit a dataset against its invariants.

    Returns a report listing every out-of-range categorical index and
    non-finite numeric cell, plus per-column missing rates. Never raises.
    """
    out: list[Violation] = []
    for j, feat in enumerate(dataset.schema.features):
        col = dataset.values[:, j]
        if feat.is_categorical:
            k = len(feat.levels)
            bad = dataset.mask[:, j] & ((col != np.floor(col)) | (col < 0) | (col >= k))
            for i in np.nonzero(bad)[0]:
                out.append(
                    Violation(int(i), j, "bad-level-index", f"{col[i]!r} outside 0..{k - 1}")
                )
        else:
            for i in np.nonzero(np.isinf(col))[0]:
                out.append(Violation(int(i), j, "non-finite", repr(float(col[i]))))
    rates = 1.0 - dataset.mask.mean(axis=0) if dataset.n else np.zeros(dataset.p)
    return ValidationReport(tuple(out), rates)


def normalize(dataset: Dataset) -> tuple[Dataset, RangeTable]:
    """Rescale observed continuous cells onto [0, 1].

    Each observed continuous cell x becomes (max - x) / (max - min), with
    min/max taken over the column's observed cells, so the largest raw
    value maps to 0 and the smallest to 1. Constant columns map to 0.
    Categorical and missing cells pass through unchanged. The returned
    RangeTable's ``from_unit`` is the inverse transform.
    """
    ranges = RangeTable.from_dataset(dataset)
    return dataset.with_values(ranges.to_unit(dataset.values)), ranges

