"""Correctness checks run on every operation, off the timed path.

Nothing here compares against a stored copy of earlier output. The checks
use properties every method must have (observed cells kept, each estimate
a convex combination of donor values, no cell left missing), the
benchmark's own RMSE and column-mean baseline, and the slow reference
implementations in ``tests/_oracles.py``.
"""

from __future__ import annotations

import csv
import importlib.util
import math

import numpy as np

from greyimpute.engine import ImputeConfig, run_impute

MISSING = "NA"
# largest tolerated gap between the engine and the oracle, raw scale
ORACLE_TOL = 1e-12


class CheckFailed(Exception):
    """An output broke a property it must have; the operation counts as failed."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def once(verdicts, key, check):
    """Run an expensive check once per operation key; its repeats (which
    wrote the same bytes) get the same verdict."""
    if key not in verdicts:
        try:
            check()
        except CheckFailed as exc:
            verdicts[key] = exc
            raise
        verdicts[key] = None
    elif verdicts[key] is not None:
        raise CheckFailed(str(verdicts[key]))


def load_oracle(root):
    path = root / "tests" / "_oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_table(path, dataset):
    """CSV with every feature, then the class column; missing cells as NA."""
    levels = dataset.schema.class_levels
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f.name for f in dataset.schema.features] + [dataset.schema.class_column])
        for values, observed, label in zip(dataset.values, dataset.mask, dataset.labels):
            cells = [repr(float(v)) if seen else MISSING for v, seen in zip(values, observed)]
            writer.writerow(cells + [levels[label]])


def write_schema(path, dataset):
    lines = [f"class = {dataset.schema.class_column}", f"missing = {MISSING}"]
    lines += [f"feature {f.name} = continuous" for f in dataset.schema.features]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path):
    """(header, values with NaN for missing cells, class labels as text)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    values = np.array(
        [[math.nan if cell == MISSING else float(cell) for cell in row[:-1]] for row in body]
    )
    return header, values.reshape(len(body), len(header) - 1), [row[-1] for row in body]


def check_completed(injected, out, lo, hi):
    """No cell left missing, observed cells unchanged, and every imputed
    cell inside [lo, hi] per column (a convex combination of donor values
    cannot leave the donors' range)."""
    require(out.shape == injected.values.shape, f"output shape {out.shape}")
    require(not np.isnan(out).any(), "the completed data has a missing cell")
    observed = injected.mask
    require(np.array_equal(out[observed], injected.values[observed]), "an observed cell changed")
    tol = ORACLE_TOL * np.maximum(hi - lo, 1.0)
    gaps = ~observed
    cols = np.nonzero(gaps)[1]
    inside = (out[gaps] >= lo[cols] - tol[cols]) & (out[gaps] <= hi[cols] + tol[cols])
    require(inside.all(), "an imputed cell lies outside its column's donor range")


def observed_range(dataset):
    return np.nanmin(dataset.values, axis=0), np.nanmax(dataset.values, axis=0)


def normalized_rmse(truth, estimate, positions):
    """RMSE over ``positions`` on the truth's [0, 1] scale."""
    spans = truth.values.max(axis=0) - truth.values.min(axis=0)
    err = (estimate - truth.values) / spans
    return float(np.sqrt(np.mean(err[positions] ** 2)))


def mean_imputation_rmse(truth, injected, columns=None):
    """RMSE of filling each gap with its column's observed mean."""
    means = np.nanmean(injected.values, axis=0)
    filled = np.where(injected.mask, injected.values, means)
    positions = ~injected.mask
    if columns is not None:
        positions = positions & np.isin(np.arange(injected.p), columns)
    return normalized_rmse(truth, filled, positions)


def check_one_sweep(oracle, injected, method, k, seed=0):
    """``run_impute(k=k, max_iter=1)`` against the oracle's single sweep,
    compared on the raw scale at every imputed cell."""
    one = run_impute(injected, ImputeConfig(method=method, k=k, max_iter=1, seed=seed))
    _, current = oracle.oracle_one_iteration(injected, method, k, rho=0.5, weights=one.weights_used)
    lo, hi = observed_range(injected)
    expected = hi - current * (hi - lo)
    gap = float(np.abs(expected - one.completed.values)[~injected.mask].max())
    require(gap <= ORACLE_TOL, f"{method} sweep differs from the oracle by {gap:.3g}")


def check_transform_rows(oracle, imputer, train, batch, out, rows):
    """Recompute the one-pass cgknn estimates of ``rows`` from the oracle's
    bounds, grade and estimator, with the fitted weights and k."""
    lo, hi = observed_range(train)
    span = hi - lo
    donors = ((hi - imputer.result_.completed.values) / span).tolist()
    weights = list(imputer.feature_weights_)
    k = imputer.result_.chosen_k
    categorical = [False] * train.p
    for r in rows:
        query = ((hi - batch.values[r]) / span).tolist()
        dmin, dmax = oracle.oracle_bounds(query, donors, categorical)
        dist = [
            1.0 - oracle.oracle_grg(query, d, categorical, dmin, dmax, 0.5, weights)
            for d in donors
        ]
        nearest = sorted(range(len(donors)), key=lambda i: (dist[i], i))[:k]
        for j in np.nonzero(~batch.mask[r])[0]:
            est = oracle.oracle_numeric_estimate(
                [dist[i] for i in nearest], [donors[i][j] for i in nearest], True
            )
            gap = abs(hi[j] - est * span[j] - out[r, j])
            require(gap <= ORACLE_TOL, f"transform row {r} col {j} differs by {gap:.3g}")
