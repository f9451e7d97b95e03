"""Iterative kNN imputation engine.

A run proceeds: rescale continuous columns onto [0, 1]; pre-fill missing
cells with column means/modes (within class for the per-class methods);
derive feature weights where the method calls for them; pick k by
stratified cross-validation when not given; settle each incomplete row's
candidate pool; then sweep over the incomplete rows, re-ranking the rows
an imputed cell can move (the rest rank once) and re-estimating every
originally-missing cell, until the largest cell change drops below epsilon
or the iteration cap is hit.

Sweeps update the iterate in place over a fixed ascending row order, so a
run is fully deterministic and later rows benefit from earlier rows'
refreshed estimates within the same pass. The rows that rank once (fixed
rows) are estimated in levels, blocks that give the bits of that order,
and those whose cells can no longer change are skipped after the first
sweep. The iterate is feature-major (Fortran order), which the distance
kernel reads without a copy. Observed cells are never touched: the output
matrix is composed from the original input plus the imputed cells only.
One block cell estimator (:func:`_estimate_rows`) fills the gaps of the
sweeps, a level or a re-ranked row at a time, and of :func:`impute_test`,
a block.

Method variants differ along four orthogonal axes captured by
:class:`MethodPlan`: candidate pool (whole matrix vs same class), metric
(heterogeneous Euclidean/overlap vs grey relational), feature-weight
source (none, class relevance, inter-feature relevance) and whether cell
estimates are distance-weighted.
"""

from __future__ import annotations

import enum
import os
import sys
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, RangeTable, normalize, validate
from .distance import GreyMetric, HeomMetric, block_rows
from .errors import DataError, InsufficientCandidatesError, SchemaMismatchError, TooFewRowsError
from .folds import stratified_folds
from .relevance import MIEstimate, dataset_class_weights, feature_feature_weights

__all__ = [
    "Method",
    "MethodPlan",
    "ImputeConfig",
    "ImputationResult",
    "column_fill",
    "initial_impute",
    "select_k",
    "run_impute",
    "run_plan",
    "prepare",
    "sweep",
    "impute_test",
    "PLANS",
    "DEFAULT_K_GRID",
]

DEFAULT_K_GRID = (1, 3, 5, 7, 9, 11, 13, 15)


class Method(str, enum.Enum):
    MEAN_MODE = "meanmode"
    IKNN = "iknn"
    MIKNN = "miknn"
    GKNN = "gknn"
    FWGKNN = "fwgknn"
    CGKNN = "cgknn"


@dataclass(frozen=True)
class MethodPlan:
    """The four axes a method varies along."""

    per_class_pool: bool
    metric: str  # "heom" | "grey"
    weight_source: str  # "none" | "class_mi" | "feature_mi"
    weighted_cells: bool
    iterative: bool = True


PLANS = {
    Method.MEAN_MODE: MethodPlan(False, "heom", "none", False, iterative=False),
    Method.IKNN: MethodPlan(False, "heom", "none", True),
    Method.MIKNN: MethodPlan(False, "heom", "class_mi", True),
    Method.GKNN: MethodPlan(True, "grey", "none", False),
    Method.FWGKNN: MethodPlan(False, "grey", "feature_mi", True),
    Method.CGKNN: MethodPlan(True, "grey", "class_mi", True),
}


def _positive_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def _real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ImputeConfig:
    """Everything a run needs besides the data: the one place that
    declares, defaults and checks a run parameter.

    ``k=None`` selects k from ``k_grid`` by ``folds``-fold stratified
    cross-validation; ``rho`` is the grey distinguishing coefficient in
    [0, 1]; a run stops when the largest cell change drops below
    ``epsilon`` or after ``max_iter`` sweeps. A bad value raises
    :class:`DataError` naming the parameter.
    """

    method: Method = Method.CGKNN
    k: int | None = None
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    rho: float = 0.5
    epsilon: float = 1e-4
    max_iter: int = 50
    seed: int = 0
    folds: int = 10

    def __post_init__(self):
        try:
            object.__setattr__(self, "method", Method(self.method))
        except ValueError:
            valid = ", ".join(m.value for m in Method)
            raise DataError(f"unknown method {self.method!r}; valid methods: {valid}") from None
        for name in ("max_iter", "folds") + (() if self.k is None else ("k",)):
            if not _positive_int(getattr(self, name)):
                raise DataError(f"{name} must be a positive integer, got {getattr(self, name)!r}")
        try:
            grid = tuple(self.k_grid)
        except TypeError:
            grid = ()
        if not grid or not all(_positive_int(k) for k in grid):
            raise DataError(f"k_grid must hold positive integers, got {self.k_grid!r}")
        object.__setattr__(self, "k_grid", grid)
        if not (_real(self.rho) and 0.0 <= self.rho <= 1.0):
            raise DataError(f"rho must be a number in [0, 1], got {self.rho!r}")
        if not (_real(self.epsilon) and self.epsilon > 0):
            raise DataError(f"epsilon must be a positive number, got {self.epsilon!r}")


@dataclass(frozen=True)
class ImputationResult:
    """A completed dataset plus the run's diagnostics: the fitted model.

    ``trace`` holds the largest absolute cell change (normalized scale;
    categorical changes count as 1) per iteration. ``mi_estimates`` holds the
    class MI behind class-MI weights, per feature. ``converged`` is False
    when the iteration cap stopped the run instead of the tolerance.
    ``plan``, ``metric`` and ``chosen_k`` are the rule :func:`impute_test` applies.
    """

    completed: Dataset
    trace: tuple[float, ...]
    iterations: int
    chosen_k: int
    mi_estimates: tuple[MIEstimate, ...] | None
    converged: bool
    used_pool_fallback: bool
    ranges: RangeTable
    plan: MethodPlan
    metric: object

    @property
    def weights_used(self) -> np.ndarray | None:
        """The metric's feature weights; None when it weighs features equally."""
        return self.metric.weights


def column_fill(values: np.ndarray, schema) -> np.ndarray:
    """Per column of ``values``, the mean of its observed (non-NaN) cells
    for a continuous column or their mode, ties to the lowest level index,
    for a categorical one; NaN where nothing is observed. The continuous
    columns with no gap are averaged in one call, each as one contiguous
    row, whose pairwise sum is the 1-D column's."""
    out = np.full(values.shape[1], np.nan)
    gaps = np.isnan(values).any(axis=0)
    dense = np.flatnonzero(~schema.categorical_mask & ~gaps)
    if len(values):  # no rows, no mean
        out[dense] = np.ascontiguousarray(values[:, dense].T).mean(axis=1)
    for j in np.flatnonzero(schema.categorical_mask | gaps):
        feat = schema.features[j]
        obs = values[~np.isnan(values[:, j]), j]
        if not obs.size:
            continue
        if feat.levels is None:
            out[j] = obs.mean()
        else:
            out[j] = np.argmax(np.bincount(obs.astype(int), minlength=len(feat.levels)))
    return out


def initial_impute(dataset: Dataset, per_class: bool = False) -> Dataset:
    """Mean/mode pre-fill producing a complete matrix.

    Every gap takes its :func:`column_fill` value. With ``per_class`` the
    statistics come from the row's own class, falling back to the whole
    column when a class has nothing observed there.
    """
    if per_class and dataset.labels is None:
        raise DataError("per-class initial imputation requires labels")
    whole = column_fill(dataset.values, dataset.schema)
    empty = np.isnan(whole) & ~dataset.mask.all(axis=0)
    if empty.any():
        name = dataset.schema.features[int(np.argmax(empty))].name
        raise DataError(f"column {name!r} has no observed values to impute from")
    vals = np.where(dataset.mask, dataset.values, whole)
    if per_class:
        for y in np.unique(dataset.labels):
            rows = np.nonzero(dataset.labels == y)[0]
            own = column_fill(dataset.values[rows], dataset.schema)
            gap_rows, gap_cols = np.nonzero(~dataset.mask[rows])
            vals[rows[gap_rows], gap_cols] = np.where(np.isnan(own), whole, own)[gap_cols]
    return dataset.with_values(vals)


def _cpus() -> int:
    """The number of CPUs this process may run on; one in a worker of a
    multiprocessing pool (a forked benchmark cell), whose siblings take
    the others."""
    mp = sys.modules.get("multiprocessing")  # a pool's worker has loaded it
    if mp is not None and mp.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows lack sched_getaffinity
        return os.cpu_count() or 1


def _nearest(d: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries, ascending by
    (value, index): exactly ``np.argsort(d, axis=1, kind="stable")[:, :k]``.
    Only the entries at or below a row's kth smallest value, which always
    hold the k wanted ones, are stable-sorted."""
    kth = np.partition(d, k - 1, axis=1)[:, k - 1]
    out = np.empty((len(d), k), dtype=np.intp)
    for i, row in enumerate(d):
        near = np.flatnonzero(row <= kth[i])  # ascending, so ties stay by index
        out[i] = near[row[near].argsort(kind="stable")[:k]]
    return out


# Fixed rows ranked per unscreened kernel call. Every row of a block holds
# a (features x candidates) slab of gaps: with 16 rows, or 1, one operation
# of the cube benchmark allocated at most 3.4 MB at once; 32 rows took 5.2.
FIXED_BLOCK = 16


def _ranked_blocks(metric, queries, candidates, k, own=None):
    """(offset, distances, indices) of each query's k nearest candidates
    other than its ``own`` row, if given (see :mod:`greyimpute.distance`),
    ascending by (distance, index), per block of query rows. A block's
    work arrays stay within :data:`greyimpute.distance.BLOCK_BYTES`.

    A weighted grey metric whose weights sit on a few features ranks each
    block through its :class:`~greyimpute.distance.GreyScreen`, which
    scores in full only the candidates a float32 partial grade over the
    heavy features cannot rule out, each query's cut lowered by a proven
    bound on that grade's rounding; the result is the same bits. The
    screen takes a block in cache-sized tiles of queries and scores their
    survivors in cache-sized steps, so its own arrays do not grow with the
    block; screened blocks are sized as four 8-byte values per pair. A
    lone query is scored in full, which costs less than sorting the
    candidate columns.
    Unscreened queries with an ``own`` row (the sweeps' fixed rows) go at
    most :data:`FIXED_BLOCK` per block. The sweeps rank their moving rows
    themselves."""
    return _ranked_runs(metric, queries, candidates, k, own)[0]


def _ranked_runs(metric, queries, candidates, k, own=None, runs=1):
    """:func:`_ranked_blocks` over contiguous runs of the queries, one
    generator each: ``runs`` of them, or as many as the queries fill
    blocks of the full budget if that is fewer, and one if there is no
    query. Each run's blocks get BLOCK_BYTES / runs, so the runs hold no
    more at once than one run of full blocks would. The screen, if any, is
    made once and only read, so the runs may go on threads of their own;
    a query's neighbors do not depend on its block or run."""
    lone = len(queries) < 2
    screen = metric.screen(candidates) if isinstance(metric, GreyMetric) and not lone else None
    # 8-byte values per (query, candidate) pair: the full kernel's gaps for
    # every feature and four more; the screen's four, what its survivors'
    # arrays (query and candidate indices, distances, their order) would
    # take should every pair of a block survive at once
    width = (candidates.shape[1] if screen is None else 0) + 4
    blocks = -(-len(queries) // block_rows(len(candidates), width))
    runs = max(1, min(runs, blocks))
    step = block_rows(len(candidates), width * runs)
    if screen is None and own is not None:
        step = min(step, FIXED_BLOCK)

    def ranked(lo, hi):
        for start in range(lo, hi, step):
            block = queries[start:min(start + step, hi)]
            mine = None if own is None else own[start:start + len(block)]
            if screen is None:
                d = metric.distances(block, candidates, mine)
                nearest = _nearest(d, k)
                yield start, d[np.arange(len(d))[:, None], nearest], nearest
            else:
                yield (start, *screen.nearest(block, k, mine))

    edges = [len(queries) * i // runs for i in range(runs + 1)]
    return [ranked(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _cv_errors(values, labels, metric, grid, folds, seed) -> dict[int, int]:
    """Stratified CV errors of a kNN classifier for every grid k no larger
    than the smallest training fold, read off one ranking per query by
    cumulative class counts; vote ties go to the tied label ranked first."""
    n_classes = int(labels.max()) + 1
    splits = list(stratified_folds(labels, folds, seed))
    errors = {k: 0 for k in grid if k <= min(len(train) for train, _ in splits)}
    if not errors:
        return errors
    kmax = max(errors)
    for train, held in splits:
        train_labels, held_labels = labels[train], labels[held]
        for start, _, nearest in _ranked_blocks(metric, values[held], values[train], kmax):
            hits = train_labels[nearest][:, :, None] == np.arange(n_classes)
            counts = np.cumsum(hits, axis=1)
            first = hits.argmax(axis=1)  # rank of each label's nearest; absent ones never tie
            truth = held_labels[start:start + len(hits)]
            for k in errors:
                tied = counts[:, k - 1] == counts[:, k - 1].max(axis=1, keepdims=True)
                errors[k] += int((np.where(tied, first, kmax).argmin(axis=1) != truth).sum())
    return errors


def select_k(
    values: np.ndarray,
    labels: np.ndarray,
    metric,
    grid: tuple[int, ...] = DEFAULT_K_GRID,
    folds: int = ImputeConfig.folds,
    seed: int = 0,
) -> int:
    """Pick k from the grid by stratified CV misclassification of a
    k-nearest-neighbor classifier under the given metric.

    Ties go to the smallest k. Grid values larger than a training fold are
    skipped. The matrix must be complete (pre-filled). Test folds are
    ranked in query blocks of fixed byte size, so memory grows linearly;
    under grey weights that sit on a few features each block goes through
    the exact screen of :func:`_ranked_blocks`, which scores in full only
    the pairs that can still be among the nearest.
    """
    labels = np.asarray(labels, dtype=int)
    n = len(labels)
    if n < 4:
        raise TooFewRowsError(f"k selection needs at least 4 rows, got {n}")
    errors = _cv_errors(values, labels, metric, tuple(sorted(set(grid))), folds, seed)
    if not errors:
        raise TooFewRowsError("every grid value exceeds the training fold size")
    return min(errors, key=lambda k: (errors[k], k))


@dataclass
class RunState:
    """State threaded through the sweeps. :func:`prepare` settles all but the
    iterate and ``fixed``, among it each incomplete row's pool
    (:func:`_pools`), whether a row fell back from its class, and each
    row's gap cells, query and own position in its pool, which hold for
    the run: observed cells never change and gaps stay NaN in the query.
    ``values`` is feature-major (Fortran order)."""

    dataset: Dataset
    plan: MethodPlan
    ranges: RangeTable
    values: np.ndarray  # current complete iterate, normalized scale
    metric: object
    k: int
    mi_estimates: tuple[MIEstimate, ...] | None
    pools: dict[int, np.ndarray]  # incomplete row -> its pool, rows ascending
    gaps: dict[int, tuple]  # incomplete row -> its gap cells as a block of one
    queries: dict[int, tuple]  # incomplete row -> (query block of one, own position in pool)
    used_pool_fallback: bool
    fixed: _Schedule | None = None  # set by the first sweep (_schedule)


@dataclass(frozen=True)
class SweepResult:
    max_change: float
    neighbors: dict[int, np.ndarray]  # row -> donor indices, nearest first


def _require_valid(dataset: Dataset) -> None:
    report = validate(dataset)
    if not report.ok:
        first = report.violations[0]
        raise DataError(
            f"dataset fails validation with {len(report.violations)} violation(s); "
            f"first: {first.kind} at ({first.row}, {first.column})"
        )


def _checked_weights(weights, p: int) -> np.ndarray:
    try:
        out = np.asarray(weights, dtype=float)
    except (TypeError, ValueError):
        out = None
    with np.errstate(over="ignore"):  # a weight sum past the float range is refused too
        if out is None or out.shape != (p,) or not (out >= 0).all() or np.isinf(out.sum()):
            raise DataError(f"weights_override must be {p} finite, non-negative numbers")
    return out


def prepare(
    dataset: Dataset,
    config: ImputeConfig,
    plan: MethodPlan | None = None,
    weights_override: np.ndarray | None = None,
) -> RunState:
    """Normalize, pre-fill, weigh and pick k; returns the ready-to-sweep
    state. ``plan``/``weights_override`` exist so variant combinations can
    be exercised directly; normal callers go through :func:`run_impute`.
    Labels are required exactly when read: by per-class pools, class-MI
    weights and k selection, which runs without a given k on any table."""
    _require_valid(dataset)
    plan = PLANS[config.method] if plan is None else plan
    class_mi = plan.weight_source == "class_mi" and weights_override is None
    if dataset.labels is None and (plan.per_class_pool or class_mi):
        raise DataError(f"method {config.method.value} requires class labels")

    normalized, ranges = normalize(dataset)
    initial = initial_impute(normalized, per_class=plan.per_class_pool)

    weights = mi_estimates = None
    if weights_override is not None:
        weights = _checked_weights(weights_override, dataset.p)
    elif plan.weight_source == "class_mi":
        weights, mi_estimates = dataset_class_weights(initial)
    elif plan.weight_source == "feature_mi":
        weights = feature_feature_weights(initial)

    cat, rho = dataset.schema.categorical_mask, config.rho
    metric = GreyMetric(cat, rho, weights) if plan.metric == "grey" else HeomMetric(cat, weights)

    incomplete = np.nonzero(~dataset.mask.all(axis=1))[0]
    if not plan.iterative:
        k = 0
    elif config.k is not None:
        k = config.k
    elif dataset.labels is None:
        raise DataError("automatic k selection requires class labels")
    else:
        k = select_k(
            initial.values, dataset.labels, metric, config.k_grid, config.folds, config.seed
        )

    pools, fallback = _pools(dataset, plan.per_class_pool, k, incomplete)
    return RunState(
        dataset=dataset,
        plan=plan,
        ranges=ranges,
        values=np.array(initial.values, order="F"),
        metric=metric,
        k=k,
        mi_estimates=mi_estimates,
        pools=pools,
        gaps={r: _gap_cells(dataset.mask[r:r + 1], metric.categorical) for r in pools},
        queries={r: (normalized.values[r:r + 1], np.searchsorted(pool, [r]))
                 for r, pool in pools.items()},
        used_pool_fallback=fallback,
    )


def _pools(dataset: Dataset, per_class: bool, k: int, rows) -> tuple[dict, bool]:
    """The pool of each of ``rows``, the rows, ascending, it is ranked
    against, itself among them: its class, or every row if the class has
    fewer than k others; rows with one pool share its array. Also whether
    a row fell back to every row."""
    if len(rows) and dataset.n <= k:
        raise InsufficientCandidatesError(f"{dataset.n - 1} candidates for k={k}")
    everyone, labels = np.arange(dataset.n), dataset.labels
    classes = {}
    if per_class:
        for y in np.unique(labels[rows]):
            own = np.flatnonzero(labels == y)
            classes[int(y)] = own if len(own) > k else everyone
    pools = {r: classes[int(labels[r])] if per_class else everyone for r in map(int, rows)}
    return pools, any(pool is everyone for pool in classes.values())


def _pool_values(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """The pool's rows of the feature-major iterate, feature-major: the
    iterate itself when the pool is every row, else one gather."""
    return values if len(pool) == len(values) else values.T.take(pool, axis=1).T


def _rank_fixed(state: RunState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed rows, ascending, and their donor rows and distances (rows
    x k, nearest first). A fixed row's pool has no gap where the row is
    observed: the metrics read a candidate only there, and only gaps
    change, so its ranking holds for the run. One call per pool and block."""
    mask, groups, k = state.dataset.mask, {}, state.k
    for r, pool in state.pools.items():
        groups.setdefault(id(pool), (pool, []))[1].append(r)
    rows, idx, dist = [np.empty(0, np.intp)], [np.empty((0, k), np.intp)], [np.empty((0, k))]
    for pool, members in groups.values():
        members = np.array(members)
        members = members[~(mask[members] & ~mask[pool].all(axis=0)).any(axis=1)]
        queries = np.where(mask[members], state.values[members], np.nan)
        candidates, own = _pool_values(state.values, pool), np.searchsorted(pool, members)
        for _, d, near in _ranked_blocks(state.metric, queries, candidates, k, own):
            idx.append(pool[near])
            dist.append(d)
        rows.append(members)
    rows = np.concatenate(rows)
    order = np.argsort(rows)
    return rows[order], np.concatenate(idx)[order], np.concatenate(dist)[order]


@dataclass(frozen=True, eq=False)
class _Level:
    """Fixed rows estimated in one :func:`_estimate_rows` call, which reads
    every cell before any is written: the rows, ascending, their donors and
    distances (rows x k, nearest first), their gap cells (:func:`_gap_cells`)
    and those cells' (rows, columns) in the iterate."""

    rows: np.ndarray
    idx: np.ndarray
    dist: np.ndarray
    gaps: tuple
    cells: tuple

    @classmethod
    def of(cls, rows, idx, dist, mask, categorical) -> _Level:
        gaps = _gap_cells(mask[rows], categorical)
        return cls(rows, idx, dist, gaps, (rows[gaps[0]], gaps[1]))


@dataclass(frozen=True, eq=False)
class _Schedule:
    """The sweep order the first sweep settles: ``steps`` holds a moving
    row, or a level with its non-static rows (None if it has none), in the
    order a row-by-row sweep reaches them. ``neighbors`` maps each fixed
    row to its donors."""

    steps: tuple
    neighbors: dict[int, np.ndarray]


def _schedule(state: RunState, rows, idx, dist) -> _Schedule:
    """Group the fixed rows ``rows`` (ascending, with their donors ``idx``
    and distances ``dist``) into levels whose blocks give the bits of the
    row-by-row sweep (level scheduling of a triangular solve, Anderson &
    Saad 1989).

    A row reads a donor's cell that can change only where the donor has a
    gap in one of the row's gap columns: a hot donor. A segment is a run of
    fixed rows between two moving rows, which stay barriers. Walking the
    rows ascending, a row's level is above that of each hot donor before it
    in its segment, whose new cells it must read, and at or below that of
    each hot donor after it, whose old cells it must read. A row with no
    hot donor is static: its estimate never changes after the first sweep."""
    mask, cat = state.dataset.mask, state.metric.categorical
    gap = ~mask
    hot = (gap[idx] & gap[rows][:, None, :]).any(axis=2)
    fixed = np.zeros(len(mask), dtype=bool)
    fixed[rows] = True
    incomplete = np.fromiter(state.pools, np.intp, len(state.pools))
    moving = incomplete[~fixed[incomplete]]
    segment = np.searchsorted(moving, np.arange(len(mask)))  # moving rows before each row
    linked = hot & fixed[idx] & (segment[idx] == segment[rows][:, None])
    level = dict.fromkeys(rows.tolist(), 0)  # a row's floor until it is walked
    for r, donors, links in zip(level, idx.tolist(), linked.tolist()):
        for d, on in zip(donors, links):
            if on and d < r:
                level[r] = max(level[r], level[d] + 1)
        for d, on in zip(donors, links):
            if on and d > r:
                level[d] = max(level[d], level[r])
    levels = np.fromiter(level.values(), np.intp, len(rows))
    order = np.lexsort((levels, segment[rows]))  # stable: rows stay ascending
    cuts = np.flatnonzero(np.diff(segment[rows][order]) | np.diff(levels[order])) + 1
    static = ~hot.any(axis=1)
    blocks = {}  # segment -> its levels
    for at in np.split(order, cuts) if len(order) else ():
        whole = _Level.of(rows[at], idx[at], dist[at], mask, cat)
        live = at[~static[at]]
        part = _Level.of(rows[live], idx[live], dist[live], mask, cat) if len(live) else None
        blocks.setdefault(int(segment[rows[at[0]]]), []).append((whole, part))
    steps = []
    for s, r in enumerate(moving.tolist() + [None]):
        steps += blocks.get(s, [])
        if r is not None:
            steps.append(r)
    return _Schedule(tuple(steps), dict(zip(rows.tolist(), idx)))


def _gap_cells(observed: np.ndarray, categorical: np.ndarray) -> tuple:
    """(block rows, columns) of a block's gaps, ``~observed``, and which are categorical."""
    rows, cols = np.nonzero(~observed)
    return rows, cols, np.flatnonzero(categorical[cols])


def _estimate_rows(donors, idx, dist, gaps, weighted: bool) -> np.ndarray:
    """Estimate the cells ``gaps`` (:func:`_gap_cells`), in their order, of
    a block of rows from the rows ``idx`` of ``donors`` (normalized scale),
    the neighbors of each block row nearest first at distances ``dist``.

    Weighted form: a continuous cell takes the inverse-square-distance
    mean, short-circuited by any zero-distance neighbor to the plain mean
    over exactly the zero-distance ones (the weighted mean's limit); a
    categorical cell takes the level with the largest sum of rank weights
    (d_k - d_l)/(d_k - d_1), all 1 when every distance is equal.
    Unweighted form: plain mean and plain mode. A categorical tie goes to
    the nearest neighbor's level if it is among the tied, else to the
    lowest level index.

    Each cell's k donor values are a row of a C-contiguous (cells x k)
    array, so sums run along k in the pairwise order of a 1-D sum, and
    ``bincount`` adds votes in rank order: a cell gets the same bits in
    any block.
    """
    rows, cols, voted = gaps
    if len(idx) > 1:  # one (neighbors, distances) row per cell; a lone row broadcasts
        idx, dist = idx[rows], dist[rows]
    vals = donors[idx, cols[:, None]]
    if not weighted:
        est = vals.mean(axis=1)
    else:
        zero = None if dist.all() else np.broadcast_to(dist == 0.0, vals.shape)  # all(): no zero
        finite = dist if zero is None else np.where(zero, 1.0, dist)
        inverse_square = 1.0 / (finite * finite)
        est = np.add.reduce(inverse_square * vals, axis=1) / np.add.reduce(inverse_square, axis=1)
        for c in () if zero is None else np.flatnonzero(zero.any(axis=1)):
            est[c] = vals[c, zero[c]].mean()
    if len(voted):
        codes = vals[voted].astype(np.intp)
        rank = np.ones(codes.shape)
        if weighted:
            d = np.broadcast_to(dist, vals.shape)[voted]
            spread = d[:, -1:] - d[:, :1]
            np.divide(d[:, -1:] - d, spread, out=rank, where=spread != 0.0)
        # levels past the largest code vote 0 < the nearest level's 1, so never tie
        width = int(codes.max()) + 1
        at = np.arange(len(voted))
        sums = np.bincount((at[:, None] * width + codes).ravel(), rank.ravel(), len(voted) * width)
        tied = sums.reshape(-1, width) == sums.reshape(-1, width).max(axis=1, keepdims=True)
        est[voted] = np.where(tied[at, codes[:, 0]], codes[:, 0], tied.argmax(axis=1))
    return est


def sweep(state: RunState) -> SweepResult:
    """One sequential pass: re-rank neighbors and re-estimate every
    originally missing cell, updating the iterate in place.

    Candidates take their values from the iterate (imputed cells count as
    known information), but the query keeps its originally-missing cells
    missing, so those features hit the metrics' missing-cell branches
    instead of anchoring the search on their own current estimates.

    Updates land in the iterate immediately (fixed ascending row order, so
    runs are deterministic); rows later in the sweep see the refreshed
    estimates of earlier ones, which damps the donor flip-flop cycles a
    hold-everything-then-update schedule falls into on correlated data.

    The first sweep ranks the fixed rows once for the run, in blocks
    (:func:`_rank_fixed`), and groups them into levels (:func:`_schedule`).
    Each level is estimated in one call that reads before it writes, which
    gives the bits of the row-by-row order; from the second sweep on, the
    static rows are skipped, as their cells can no longer change. Every
    sweep re-ranks the other (moving) rows in their place in the order,
    row by row: one ``metric.distances`` call on the query, own position
    and pool that :func:`prepare` settled, then the first k of a stable
    argsort, which :func:`_nearest` is defined to equal; each row's gap
    cells are estimated as a block of one row.
    """
    first = state.fixed is None
    if first:
        state.fixed = _schedule(state, *_rank_fixed(state))
    cat, values, weighted = state.metric.categorical, state.values, state.plan.weighted_cells
    neighbors_out: dict[int, np.ndarray] = dict.fromkeys(state.pools)
    neighbors_out.update(state.fixed.neighbors)
    max_change = 0.0
    for step in state.fixed.steps:
        if isinstance(step, int):  # a moving row
            r, pool, gaps = step, state.pools[step], state.gaps[step]
            query, own = state.queries[r]
            d = state.metric.distances(query, _pool_values(values, pool), own)[0]
            near = d.argsort(kind="stable")[:state.k]
            idx, dist = pool[near], d[near]
            neighbors_out[r] = idx
            est = _estimate_rows(values, idx[None], dist[None], gaps, weighted)
            max_change = max(max_change, _store(values, r, gaps[1], est, cat))
        elif (level := step[0] if first else step[1]) is not None:
            est = _estimate_rows(values, level.idx, level.dist, level.gaps, weighted)
            max_change = max(max_change, _store(values, *level.cells, est, cat))
    return SweepResult(max_change, neighbors_out)


def _store(values, rows, cols, est, categorical) -> float:
    """Write ``est`` into the iterate's cells (``rows``, ``cols``), where
    ``rows`` is one row or an array of one per cell, and return the largest
    change: |new - old|, or 1 for a categorical cell whose level changed. A
    NaN change is skipped."""
    if len(est) > 8:  # past a few cells, array calls cost less than a loop
        change = np.abs(est - values[rows, cols])
        voted = categorical[cols]
        change[voted] = change[voted] != 0.0
        values[rows, cols] = est
        return float(np.fmax.reduce(change))
    top = 0.0
    at = [rows] * len(est) if isinstance(rows, int) else rows.tolist()
    for i, j, e in zip(at, cols.tolist(), est.tolist()):
        old = values[i, j]
        change = (0.0 if e == old else 1.0) if categorical[j] else abs(e - old)
        values[i, j] = e
        top = max(top, change)
    return top


def _completed(dataset: Dataset, ranges: RangeTable, unit: np.ndarray) -> Dataset:
    """The dataset with every gap taken from ``unit`` (normalized scale, any
    layout) and every observed cell kept as it was, C-ordered."""
    filled = np.where(dataset.mask, dataset.values, ranges.from_unit(unit))
    return dataset.with_values(np.ascontiguousarray(filled))


def _compose_result(state: RunState, trace: list[float], converged: bool) -> ImputationResult:
    return ImputationResult(
        completed=_completed(state.dataset, state.ranges, state.values),
        trace=tuple(trace),
        iterations=len(trace),
        chosen_k=state.k,
        mi_estimates=state.mi_estimates,
        converged=converged,
        used_pool_fallback=state.used_pool_fallback,
        ranges=state.ranges,
        plan=state.plan,
        metric=state.metric,
    )


def run_plan(
    dataset: Dataset,
    config: ImputeConfig,
    plan: MethodPlan,
    weights_override: np.ndarray | None = None,
) -> ImputationResult:
    """Run an explicit method plan (the advanced entry point)."""
    state = prepare(dataset, config, plan, weights_override)
    trace: list[float] = []
    converged = True
    if plan.iterative and state.pools:
        converged = False
        for _ in range(config.max_iter):
            result = sweep(state)
            trace.append(result.max_change)
            if result.max_change < config.epsilon:
                converged = True
                break
    return _compose_result(state, trace, converged)


def run_impute(dataset: Dataset, config: ImputeConfig) -> ImputationResult:
    """Impute every missing cell of a dataset with the configured method."""
    return run_plan(dataset, config, PLANS[config.method])


def impute_test(result: ImputationResult, test: Dataset) -> Dataset:
    """Impute an unlabeled test set in one pass against the completed
    training matrix, by the plan, metric and k its run fixed in ``result``.

    Neighbors are ranked over all training rows (the class is unknown at
    test time) with the training feature weights; there is no iteration.
    The incomplete test rows are cut into one contiguous chunk per
    available CPU (:func:`_cpus`), no more chunks than blocks of fixed
    byte size they fill, and each chunk runs on a thread of its own,
    joined before the call returns. A chunk is ranked in blocks of the
    byte budget over the chunk count, through the exact screen of
    :func:`_ranked_blocks` where the weights allow it, and each block's gap
    cells are estimated in one array pass. A row's neighbors and estimate
    do not depend on its block or chunk, and it writes only its own cells,
    so every chunk count gives the same bits; numpy releases the
    interpreter lock in these array loops, so the chunks run at once.
    A non-iterative method (mean/mode) fills every gap with the
    :func:`column_fill` of the completed training matrix, which is the
    value its fit wrote into that column's missing training cells.
    """
    train = result.completed
    # the test set carries no class column; only the features must agree
    if test.schema.features != train.schema.features:
        raise SchemaMismatchError("test features differ from training features")
    if test.n == 0:
        return test
    _require_valid(test)
    ranges, k, weighted = result.ranges, result.chosen_k, result.plan.weighted_cells
    donors = ranges.to_unit(train.values)
    unit = ranges.to_unit(test.values)
    if not result.plan.iterative:
        unit = np.where(test.mask, unit, column_fill(donors, train.schema))
    else:
        if train.n < k:
            raise InsufficientCandidatesError(f"{train.n} training rows for k={k}")
        rows = np.nonzero(~test.mask.all(axis=1))[0]
        cat = result.metric.categorical

        def fill(blocks):
            for start, dist, nearest in blocks:
                block = rows[start:start + len(dist)]
                gaps = _gap_cells(test.mask[block], cat)
                est = _estimate_rows(donors, nearest, dist, gaps, weighted)
                unit[block[gaps[0]], gaps[1]] = est

        # the queries are a copy, so they may all be read before any is filled
        runs = _ranked_runs(result.metric, unit[rows], donors, k, runs=_cpus())
        if len(runs) == 1:
            fill(runs[0])
        else:
            from concurrent.futures import ThreadPoolExecutor  # loaded only when it runs

            with ThreadPoolExecutor(len(runs)) as pool:
                list(pool.map(fill, runs))
    return _completed(test, ranges, unit)
