"""Metrics, a mixed-feature naive Bayes classifier, cross-validation and
the benchmark harness.

Imputation precision is scored as root mean square error over the
artificially masked cells, on the normalized [0, 1] scale so continuous
and categorical errors are commensurable (a wrong category counts 1).
Downstream effect is scored as stratified k-fold naive-Bayes
classification accuracy on the imputed data, against a no-imputation
baseline fit on complete cases only.

Naive Bayes takes each class's continuous means and variances in one
pass over a C-contiguous (features x class rows) block, so every row is
summed in the pairwise order numpy gives a 1-D column; a Fortran-ordered
block would sum in another order and move the last bits. Scores add the
log prior and then each feature's term left to right; the Gaussian terms
of a block of rows come from one broadcast. :func:`nb_predict` refuses a
row of the wrong width, a non-finite cell or a categorical cell that is
not a level code.

:func:`benchmark` runs its cells on forked worker processes, one per
available CPU: a cell is interpreter-bound, so a thread pool over the
cells measured slower than serial. (Threads pay off where array loops
that release the interpreter lock dominate, as in
:func:`~greyimpute.engine.impute_test`.)
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import derive_seed
from .dataset import Dataset, RangeTable
from .distance import block_rows
from .engine import ImputeConfig, Method, _cpus, column_fill, run_impute
from .errors import (
    DataError,
    DegenerateClassError,
    EmptyMaskError,
    LengthMismatchError,
    SchemaMismatchError,
)
from .folds import stratified_folds
from .synth import MarSpec, gen_cubes, gen_mvn_mar, inject_mar, inject_mcar

__all__ = [
    "rmse",
    "NaiveBayesModel",
    "nb_fit",
    "nb_predict",
    "classification_accuracy",
    "kfold_cv",
    "no_imputation_cv",
    "BenchmarkSpec",
    "REPORT_FIELDS",
    "benchmark",
]

VARIANCE_FLOOR = 1e-9


def rmse(truth: Dataset, imputed: Dataset, positions: np.ndarray) -> float:
    """Root mean square error over the masked positions, on the normalized
    scale of the truth dataset; categorical cells score 0/1."""
    if truth.schema != imputed.schema:
        raise SchemaMismatchError("truth and imputed schemas differ")
    positions = np.asarray(positions, dtype=bool)
    shape = truth.values.shape
    if imputed.values.shape != shape or positions.shape != shape:
        raise LengthMismatchError(
            f"truth is {shape}, imputed {imputed.values.shape}, positions {positions.shape}"
        )
    m = int(positions.sum())
    if m == 0:
        raise EmptyMaskError("no masked cells to score")
    rows, cols = np.nonzero(positions)  # row-major
    t, v = truth.values[rows, cols], imputed.values[rows, cols]
    missing = np.isnan(t) | np.isnan(v)
    if missing.any():
        at = int(missing.argmax())
        raise DataError(f"cell ({rows[at]}, {cols[at]}) is missing on one side")
    spans = RangeTable.from_dataset(truth).spans[cols]
    err = np.where(truth.schema.categorical_mask[cols], t != v, (t - v) / spans)
    # a running sum adds the cells left to right, as a loop would
    return float(np.sqrt(np.cumsum(err * err)[-1] / m))


@dataclass(frozen=True)
class NaiveBayesModel:
    """Gaussian likelihoods for continuous features, Laplace-smoothed level
    frequencies for categorical ones."""

    log_prior: np.ndarray  # (m,)
    cont_mean: np.ndarray  # (m, p), NaN at categorical columns
    cont_var: np.ndarray  # (m, p), floored
    cat_log_lik: dict  # j -> (m, K_j) log probabilities
    categorical: np.ndarray
    n_classes: int


def _refuse_bad_codes(codes: np.ndarray, levels: int, column: str) -> None:
    if ((codes < 0) | (codes >= levels) | (codes != np.floor(codes))).any():
        raise DataError(f"column {column} holds a code that is not a level in 0..{levels - 1}")


def nb_fit(dataset: Dataset) -> NaiveBayesModel:
    """Fit on a complete labeled dataset; every class needs >= 2 rows and
    every categorical cell must be a whole level code."""
    if dataset.labels is None:
        raise DataError("naive Bayes needs class labels")
    if not dataset.mask.all():
        raise DataError("naive Bayes training data must be complete")
    m = len(dataset.schema.class_levels)
    counts = np.bincount(dataset.labels, minlength=m)
    if (counts < 2).any():
        lacking = int(np.argmin(counts))
        raise DegenerateClassError(
            f"class {dataset.schema.class_levels[lacking]!r} has {counts[lacking]} row(s)"
        )
    cat = dataset.schema.categorical_mask
    p = dataset.p
    log_prior = np.log(counts / counts.sum())
    mean = np.full((m, p), np.nan)
    var = np.full((m, p), np.nan)
    cat_log_lik: dict[int, np.ndarray] = {}
    cont = ~cat
    cols = dataset.values[:, cont].T
    for y in range(m):
        # one contiguous row per feature: its pairwise sum is the 1-D column's
        block = np.ascontiguousarray(cols[:, dataset.labels == y])
        mean[y, cont] = block.mean(axis=1)
        var[y, cont] = np.maximum(block.var(axis=1), VARIANCE_FLOOR)
    for j in np.flatnonzero(cat):
        feat = dataset.schema.features[j]
        k = len(feat.levels)
        _refuse_bad_codes(dataset.values[:, j], k, repr(feat.name))
        codes = dataset.labels * k + dataset.values[:, j].astype(int)
        table = np.bincount(codes, minlength=m * k).reshape(m, k).astype(float)
        cat_log_lik[j] = np.log((table + 1.0) / (table.sum(axis=1, keepdims=True) + k))
    return NaiveBayesModel(log_prior, mean, var, cat_log_lik, cat, m)


def _joint_log_likelihood(model: NaiveBayesModel, values: np.ndarray) -> np.ndarray:
    """Per-row class scores: the log prior plus each feature's log
    likelihood, added one feature at a time, left to right. The Gaussian
    terms of a block of rows come from one broadcast over (continuous
    features x rows x classes), bounded by :data:`~greyimpute.distance.BLOCK_BYTES`."""
    n = values.shape[0]
    cont = np.flatnonzero(~model.categorical)
    slot = np.cumsum(~model.categorical) - 1  # feature j's row of the Gaussian terms
    mu = model.cont_mean[:, cont].T[:, None, :]
    var = model.cont_var[:, cont].T[:, None, :]
    log_norm = np.log(2.0 * np.pi * var)
    scores = np.tile(model.log_prior, (n, 1))
    step = block_rows(len(cont) * model.n_classes, 3)
    for start in range(0, n, step):
        rows = values[start:start + step]
        out = scores[start:start + step]
        terms = -0.5 * (log_norm + (rows[:, cont].T[:, :, None] - mu) ** 2 / var)
        for j in range(values.shape[1]):
            if model.categorical[j]:
                out += model.cat_log_lik[j][:, rows[:, j].astype(int)].T
            else:
                out += terms[slot[j]]
    return scores


def nb_predict(model: NaiveBayesModel, values: np.ndarray) -> np.ndarray:
    """Most probable class per row (ties to the lower class index). Accepts
    one row or a matrix of the model's width; every cell must be finite and
    every categorical cell a whole level code."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    p = len(model.categorical)
    if values.ndim != 2 or values.shape[1] != p:
        raise LengthMismatchError(f"rows of {p} feature(s) expected, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise DataError("rows to classify must be complete and finite")
    for j, table in model.cat_log_lik.items():
        _refuse_bad_codes(values[:, j], table.shape[1], str(j))
    return np.argmax(_joint_log_likelihood(model, values), axis=1)


def classification_accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise LengthMismatchError(
            f"length {predicted.shape} vs {truth.shape}"
        )
    if predicted.size == 0:
        raise DataError("empty label vectors")
    return float((predicted == truth).mean())


def _rows(dataset: Dataset, rows: np.ndarray) -> Dataset:
    return Dataset(dataset.schema, dataset.values[rows], labels=dataset.labels[rows])


def kfold_cv(dataset: Dataset, folds: int = ImputeConfig.folds, seed: int = 0) -> float:
    """Mean held-out naive-Bayes accuracy over stratified folds."""
    accs = []
    for train, test in stratified_folds(dataset.labels, folds, seed):
        pred = nb_predict(nb_fit(_rows(dataset, train)), dataset.values[test])
        accs.append(classification_accuracy(pred, dataset.labels[test]))
    return float(np.mean(accs))


def no_imputation_cv(
    dataset: Dataset, folds: int = ImputeConfig.folds, seed: int = 0
) -> float:
    """Baseline accuracy without imputation: fit on the training fold's
    complete cases only; fill a test row's gaps with the training fold's
    observed column means/modes (:func:`~greyimpute.engine.column_fill`)
    at predict time."""
    accs = []
    for train, test in stratified_folds(dataset.labels, folds, seed):
        model = nb_fit(_rows(dataset, train[dataset.mask[train].all(axis=1)]))
        fill = column_fill(dataset.values[train], dataset.schema)
        if np.isnan(fill).any():
            j = int(np.argmax(np.isnan(fill)))
            raise DataError(f"column {j} unobserved in a training fold")
        pred = nb_predict(model, np.where(dataset.mask[test], dataset.values[test], fill))
        accs.append(classification_accuracy(pred, dataset.labels[test]))
    return float(np.mean(accs))


@dataclass(frozen=True)
class BenchmarkSpec:
    """A sweep over methods, missing rates and seeds on one data source.

    ``dataset`` is "cubes", "mvn" or an in-memory complete Dataset (file
    sources are loaded by the CLI before building the spec). The MCAR
    mechanism masks ``mcar_columns``; the MAR mechanism calibrates a
    logistic model on ``mar_predictors``/``mar_targets`` to each rate.
    ``config`` holds the run parameters shared by every cell; the sweep
    sets its ``method`` and ``seed`` per cell, and its ``folds`` also
    drive the accuracy cross-validation.
    """

    dataset: object
    methods: tuple[Method, ...]
    rates: tuple[float, ...]
    seeds: tuple[int, ...]
    mechanism: str = "mcar"
    mcar_columns: tuple = ("x1",)
    mar_targets: tuple[int | str, ...] | None = None
    mar_predictors: tuple[int | str, ...] | None = None
    config: ImputeConfig = field(default_factory=ImputeConfig)
    timing: bool = True

    def __post_init__(self):
        methods = tuple(replace(self.config, method=m).method for m in self.methods)
        object.__setattr__(self, "methods", methods)
        if not self.seeds:
            raise DataError("at least one seed is required")
        for name in ("methods", "rates", "seeds"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise DataError(f"{name} must not repeat a value, got {getattr(self, name)!r}")
        if any(not (0.0 < r < 1.0) for r in self.rates):
            raise DataError("missing rates must lie in (0, 1)")
        if self.mechanism not in ("mcar", "mar"):
            raise DataError(f"unknown mechanism {self.mechanism!r}")


def _truth_for(spec: BenchmarkSpec, seed: int):
    if isinstance(spec.dataset, Dataset):
        return spec.dataset, None
    if spec.dataset == "cubes":
        return gen_cubes(seed), None
    if spec.dataset == "mvn":
        return gen_mvn_mar(seed)
    raise DataError(f"unknown dataset source {spec.dataset!r}")


def _inject(spec: BenchmarkSpec, truth: Dataset, default_mar, rate: float, seed: int):
    inj_seed = derive_seed(seed, int(rate * 1e6))
    if spec.mechanism == "mcar":
        return inject_mcar(truth, spec.mcar_columns, rate, inj_seed)
    if spec.mar_targets is not None:
        mar = MarSpec(
            targets=tuple(spec.mar_targets),
            predictors=tuple(spec.mar_predictors),
            coefficients=tuple((1.0,) * len(spec.mar_predictors) for _ in spec.mar_targets),
            target_rate=rate,
        )
    elif default_mar is not None:
        mar = replace(default_mar, target_rate=rate)
    else:
        raise DataError("MAR mechanism needs targets/predictors")
    return inject_mar(truth, mar, inj_seed)


# the columns of a benchmark row, in report and CSV order
REPORT_FIELDS = (
    "method", "missing_rate", "seed", "rmse", "classification_accuracy",
    "baseline_accuracy", "iterations", "chosen_k", "wall_time_ms",
    "converged", "pool_fallback", "error",
)


def _row(method, rate, seed, baseline, error=None):
    """A report row with its keys filled and its results still empty."""
    row = dict.fromkeys(REPORT_FIELDS)
    row.update(
        method=method.value,
        missing_rate=float(rate),
        seed=int(seed),
        baseline_accuracy=baseline,
        wall_time_ms=0.0,
        error=error,
    )
    return row


def _run_cell(spec, method, rate, seed, truth, injected, baseline):
    row = _row(method, rate, seed, baseline)
    config = replace(spec.config, method=method, seed=seed)
    try:
        start = time.perf_counter()
        result = run_impute(injected, config)
        elapsed = (time.perf_counter() - start) * 1000.0
        positions = truth.mask & ~injected.mask
        row["rmse"] = rmse(truth, result.completed, positions)
        row["classification_accuracy"] = kfold_cv(
            result.completed, spec.config.folds, derive_seed(seed, 0xCA)
        )
        row["iterations"] = result.iterations
        row["chosen_k"] = result.chosen_k
        row["converged"] = result.converged
        row["pool_fallback"] = result.used_pool_fallback
        if spec.timing:
            row["wall_time_ms"] = elapsed
    except DataError as exc:
        row["error"] = str(exc)
    return row


def _exit_with_parent(parent: int) -> None:
    """Worker initializer: end the worker once ``parent`` is gone, so a
    benchmark killed mid-sweep leaves no idle worker behind."""

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _cells(spec: BenchmarkSpec, failed: list):
    """The sweep's cells as ``_run_cell`` arguments, made one (seed, rate)
    at a time. The rows of a (seed, rate) whose no-imputation baseline
    cannot be fit go to ``failed`` instead."""
    for seed in spec.seeds:
        truth, default_mar = _truth_for(spec, seed)
        for rate in spec.rates:
            injected = _inject(spec, truth, default_mar, rate, seed)
            try:
                baseline = no_imputation_cv(injected, spec.config.folds, derive_seed(seed, 0xBA))
            except DataError as exc:
                error = f"no-imputation baseline: {exc}"
                failed.extend(_row(method, rate, seed, None, error) for method in spec.methods)
                continue
            for method in spec.methods:
                yield spec, method, rate, seed, truth, injected, baseline


def _map_cells(cells, workers: int) -> list[dict]:
    """``_run_cell`` over ``cells``, in their order, on ``workers`` forked
    processes that live for the call, one cell per task; a worker's
    exception is raised here. With fewer than two workers, without fork,
    or in a process that runs other threads, the cells run here, one at a
    time: a fork copies only the calling thread, so a lock that another
    thread holds would stay held in the worker."""
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_run_cell(*cell) for cell in cells]
    # imported here, so that serial runs and the other commands do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_parent, initargs=(os.getpid(),),
    )
    try:
        futures = [pool.submit(_run_cell, *cell) for cell in cells]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def benchmark(spec: BenchmarkSpec) -> list[dict]:
    """Run the full method x rate x seed sweep.

    Per cell: retain the truth, inject missingness, impute, score RMSE
    against the truth and accuracy by naive-Bayes CV. Failures are recorded
    on their row without aborting the sweep; a no-imputation baseline that
    cannot be fit marks every row of its (seed, rate). The cells run on
    one forked worker per available CPU, each timing its own
    ``wall_time_ms``; the rows do not depend on the number of workers.
    Output order is canonical (method, rate, seed).
    """
    failed = []
    workers = min(_cpus(), len(spec.seeds) * len(spec.rates) * len(spec.methods))
    rows = _map_cells(_cells(spec, failed), workers) + failed
    order = {m: i for i, m in enumerate(spec.methods)}
    rows.sort(key=lambda r: (order[Method(r["method"])], r["missing_rate"], r["seed"]))
    return rows
