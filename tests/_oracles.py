"""Slow, literal reference implementations used to cross-check the engine.

Everything here is written straight from the defining formulas with plain
loops and explicit sorts: per-feature overlap/range distances combined by
a root of summed squares, grey coefficients anchored at the query's
candidate bounds, cross-validated k selection by full sorts and literal
majority votes, inverse-square / rank-weighted cell estimators, the exact
n x n Parzen conditional entropy, and one full imputation sweep per
method. No code is shared with the package beyond the Dataset container.

Three groups are the exception: the package's earlier numpy code, kept
verbatim as bit-for-bit references for the array versions that replaced
it. :func:`oracle_nb_fit` and :func:`oracle_joint_log_likelihood` are the
per-feature naive Bayes (one numpy call per class x feature statistic, one
Gaussian term per feature); :func:`oracle_feature_feature_weights` is the
inter-feature MI with one contingency table per feature pair;
:func:`oracle_column_fill` takes each column's mean or mode on its own; and
:func:`oracle_rmse` adds the squared errors one cell at a time.
"""

import math

import numpy as np

from greyimpute.dataset import RangeTable
from greyimpute.errors import DataError, DegenerateClassError
from greyimpute.evaluate import NaiveBayesModel

VARIANCE_FLOOR = 1e-9



def oracle_normalize(values, mask, categorical):
    out = values.copy()
    ranges = {}
    for j in range(values.shape[1]):
        if categorical[j]:
            continue
        obs = values[mask[:, j], j]
        lo, hi = obs.min(), obs.max()
        ranges[j] = (lo, hi)
        for i in range(values.shape[0]):
            if mask[i, j]:
                out[i, j] = 0.0 if hi == lo else (hi - values[i, j]) / (hi - lo)
    return out, ranges


def oracle_initial_impute(values, mask, categorical, n_levels, labels=None, per_class=False):
    out = values.copy()
    n, p = values.shape

    def stats(rows, j):
        obs = [values[i, j] for i in rows if mask[i, j]]
        if not obs:
            return None
        if categorical[j]:
            counts = [0] * n_levels[j]
            for v in obs:
                counts[int(v)] += 1
            return float(counts.index(max(counts)))
        return sum(obs) / len(obs)

    groups = [list(range(n))]
    if per_class:
        groups = [
            [i for i in range(n) if labels[i] == y] for y in sorted(set(labels))
        ]
    for rows in groups:
        for j in range(p):
            val = stats(rows, j)
            if val is None:
                val = stats(range(n), j)
            for i in rows:
                if not mask[i, j]:
                    out[i, j] = val
    return out


def oracle_heom(a, b, categorical, weights=None):
    total = 0.0
    for j in range(len(a)):
        if math.isnan(a[j]) or math.isnan(b[j]):
            d = 1.0
        elif categorical[j]:
            d = 0.0 if a[j] == b[j] else 1.0
        else:
            d = abs(a[j] - b[j])  # unit spans on the normalized scale
        w = 1.0 if weights is None else weights[j]
        total += w * d * d
    return math.sqrt(total)


def oracle_bounds(query, candidates, categorical):
    diffs = []
    for c in candidates:
        for j in range(len(query)):
            if categorical[j] or math.isnan(query[j]) or math.isnan(c[j]):
                continue
            diffs.append(abs(query[j] - c[j]))
    if not diffs:
        return 0.0, 1.0
    return min(diffs), max(diffs)


def oracle_grc(a, b, is_cat, dmin, dmax, rho):
    if math.isnan(a) or math.isnan(b):
        return 0.0
    if is_cat:
        return 1.0 if a == b else 0.0
    den = abs(a - b) + rho * dmax
    if den == 0.0:
        return 1.0
    return (dmin + rho * dmax) / den


def oracle_grg(query, cand, categorical, dmin, dmax, rho, weights=None):
    p = len(query)
    if weights is None:
        return sum(
            oracle_grc(query[j], cand[j], categorical[j], dmin, dmax, rho)
            for j in range(p)
        ) / p
    return sum(
        weights[j] * oracle_grc(query[j], cand[j], categorical[j], dmin, dmax, rho)
        for j in range(p)
    )


def oracle_parzen_conditional_entropy(x, labels, n_classes):
    """H(Y|X) in bits by the exact Gaussian Parzen sums: Silverman's
    h = max(1.06 sd n^(-1/5), 1e-6), each point's class masses summed over
    every point (itself included), the posterior entropy averaged."""
    n = len(x)
    mean = sum(x) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in x) / (n - 1))
    h = max(1.06 * sd * n ** (-0.2), 1e-6)
    total = 0.0
    for i in range(n):
        mass = [0.0] * n_classes
        for j in range(n):
            mass[labels[j]] += math.exp(-((x[i] - x[j]) ** 2) / (2 * h * h))
        whole = sum(mass)
        for c in range(n_classes):
            if mass[c] > 0:
                total -= mass[c] / whole * math.log2(mass[c] / whole)
    return total / n


def oracle_select_k(values, labels, fold_ids, grid, categorical, metric, rho=0.5, weights=None):
    """Cross-validated kNN error per usable grid k, and the chosen k.

    Every test row of every fold ranks the whole training fold by a full
    sort on (distance, index); its vote for k is the label with the most
    of the k nearest, ties to the tied label met first in rank order. A k
    is usable when no training fold is smaller. The chosen k has the
    fewest errors, ties to the smallest k."""
    n = len(labels)
    folds = sorted(set(fold_ids))
    smallest_train = min(sum(1 for g in fold_ids if g != f) for f in folds)
    errors = {k: 0 for k in sorted(set(grid)) if k <= smallest_train}
    for f in folds:
        train = [i for i in range(n) if fold_ids[i] != f]
        for q in [i for i in range(n) if fold_ids[i] == f]:
            if metric == "heom":
                dists = [oracle_heom(values[q], values[c], categorical, weights) for c in train]
            else:
                dmin, dmax = oracle_bounds(values[q], [values[c] for c in train], categorical)
                dists = [
                    1.0 - oracle_grg(values[q], values[c], categorical, dmin, dmax, rho, weights)
                    for c in train
                ]
            ranked = [labels[c] for _, c in sorted(zip(dists, train))]
            for k in errors:
                votes = list(ranked[:k])
                best = max(votes.count(y) for y in votes)
                winner = next(y for y in votes if votes.count(y) == best)
                if winner != labels[q]:
                    errors[k] += 1
    chosen = min(errors, key=lambda k: (errors[k], k)) if errors else None
    return errors, chosen


def oracle_numeric_estimate(distances, values, weighted, eq11_literal=False):
    if not weighted:
        return sum(values) / len(values)
    zero = [v for d, v in zip(distances, values) if d == 0.0]
    if zero:
        return sum(zero) / len(zero)
    ws = [1.0 / (d * d) for d in distances]
    est = sum(w * v for w, v in zip(ws, values)) / sum(ws)
    if eq11_literal:
        est /= len(values)
    return est


def oracle_categorical_estimate(distances, values, n_levels, weighted):
    k = len(values)
    if weighted and distances[-1] != distances[0]:
        alpha = [
            (distances[-1] - distances[i]) / (distances[-1] - distances[0])
            for i in range(k)
        ]
    else:
        alpha = [1.0] * k
    sums = [0.0] * n_levels
    for a, v in zip(alpha, values):
        sums[int(v)] += a
    best = max(sums)
    tied = [s for s in range(n_levels) if sums[s] == best]
    if int(values[0]) in tied:
        return int(values[0])
    return min(tied)


METHOD_RULES = {
    "iknn": dict(per_class=False, metric="heom", weighted=True, use_weights=False),
    "miknn": dict(per_class=False, metric="heom", weighted=True, use_weights=True),
    "gknn": dict(per_class=True, metric="grey", weighted=False, use_weights=False),
    "fwgknn": dict(per_class=False, metric="grey", weighted=True, use_weights=True),
    "cgknn": dict(per_class=True, metric="grey", weighted=True, use_weights=True),
}


def oracle_one_iteration(dataset, method, k, rho=0.5, weights=None, eq11_literal=False):
    """Initialize and run a single imputation sweep, returning the neighbor
    table {row: [(index, distance), ...]} and the post-sweep matrix."""
    rules = METHOD_RULES[method]
    categorical = [f.is_categorical for f in dataset.schema.features]
    n_levels = [len(f.levels) if f.levels else 0 for f in dataset.schema.features]
    mask = dataset.mask
    n = dataset.n

    norm, _ = oracle_normalize(dataset.values, mask, categorical)
    current = oracle_initial_impute(
        norm, mask, categorical, n_levels, dataset.labels, rules["per_class"]
    )
    lam = weights if rules["use_weights"] else None
    neighbor_table = {}
    # cells update in place, ascending row order: later rows see the
    # refreshed estimates of earlier ones within the same pass
    for r in range(n):
        gaps = [j for j in range(dataset.p) if not mask[r, j]]
        if not gaps:
            continue
        if rules["per_class"]:
            pool = [i for i in range(n) if i != r and dataset.labels[i] == dataset.labels[r]]
            if len(pool) < k:
                pool = [i for i in range(n) if i != r]
        else:
            pool = [i for i in range(n) if i != r]
        query = [
            float("nan") if not mask[r, j] else current[r, j] for j in range(dataset.p)
        ]
        if rules["metric"] == "heom":
            dists = [oracle_heom(query, current[c], categorical, lam) for c in pool]
        else:
            dmin, dmax = oracle_bounds(query, [current[c] for c in pool], categorical)
            dists = [
                1.0 - oracle_grg(query, current[c], categorical, dmin, dmax, rho, lam)
                for c in pool
            ]
        ranked = sorted(zip(pool, dists), key=lambda t: (t[1], t[0]))[:k]
        neighbor_table[r] = ranked
        nd = [d for _, d in ranked]
        for j in gaps:
            nv = [current[i, j] for i, _ in ranked]
            if categorical[j]:
                current[r, j] = float(
                    oracle_categorical_estimate(nd, nv, n_levels[j], rules["weighted"])
                )
            else:
                current[r, j] = oracle_numeric_estimate(
                    nd, nv, rules["weighted"], eq11_literal
                )
    return neighbor_table, current


def oracle_nb_fit(dataset):
    """Fit on a complete labeled dataset; every class needs >= 2 rows."""
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
    for y in range(m):
        rows = dataset.values[dataset.labels == y]
        for j in range(p):
            if cat[j]:
                continue
            mean[y, j] = rows[:, j].mean()
            var[y, j] = max(rows[:, j].var(), VARIANCE_FLOOR)
    for j in range(p):
        if not cat[j]:
            continue
        k = len(dataset.schema.features[j].levels)
        codes = dataset.labels * k + dataset.values[:, j].astype(int)
        table = np.bincount(codes, minlength=m * k).reshape(m, k).astype(float)
        cat_log_lik[j] = np.log((table + 1.0) / (table.sum(axis=1, keepdims=True) + k))
    return NaiveBayesModel(log_prior, mean, var, cat_log_lik, cat, m)


def oracle_joint_log_likelihood(model, values):
    n = values.shape[0]
    scores = np.tile(model.log_prior, (n, 1))
    for j in range(values.shape[1]):
        col = values[:, j]
        if model.categorical[j]:
            scores += model.cat_log_lik[j][:, col.astype(int)].T
        else:
            mu = model.cont_mean[:, j]
            var = model.cont_var[:, j]
            scores += -0.5 * (np.log(2.0 * np.pi * var) + (col[:, None] - mu) ** 2 / var)
    return scores


def _oracle_plogp(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log2(p), 0.0)


def _oracle_entropy(counts):
    counts = np.asarray(counts, dtype=float)
    return float(-_oracle_plogp(counts / counts.sum()).sum())


def _oracle_conditional_entropy(joint):
    joint = np.asarray(joint, dtype=float)
    p_xy = joint / joint.sum()
    p_x = p_xy.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_y_given_x = np.where(p_x > 0, p_xy / p_x, 0.0)
        terms = np.where(p_xy > 0, p_xy * np.log2(p_y_given_x), 0.0)
    return float(-terms.sum())


def oracle_feature_feature_weights(dataset, bins=10):
    cat = dataset.schema.categorical_mask
    p = dataset.p
    cols = []
    for j in range(p):
        col = dataset.values[:, j]
        if cat[j]:
            cols.append(col.astype(int))
        else:
            edges = np.quantile(col, np.linspace(0, 1, bins + 1)[1:-1])
            cols.append(np.searchsorted(edges, col, side="right"))
    mi = np.zeros((p, p))
    for a in range(p):
        for b in range(a + 1, p):
            ka, kb = cols[a].max() + 1, cols[b].max() + 1
            cells = cols[a] * kb + cols[b]
            table = np.bincount(cells, minlength=ka * kb).reshape(ka, kb).astype(float)
            h_b = _oracle_entropy(table.sum(axis=0))
            mi[a, b] = mi[b, a] = max(0.0, h_b - _oracle_conditional_entropy(table))
    scores = mi.sum(axis=1) / max(p - 1, 1)
    total = scores.sum()
    return np.full(p, 1.0 / p) if total <= 0.0 else scores / total


def oracle_column_fill(values, schema):
    out = np.full(values.shape[1], np.nan)
    for j, feat in enumerate(schema.features):
        obs = values[~np.isnan(values[:, j]), j]
        if not obs.size:
            continue
        if feat.levels is None:
            out[j] = obs.mean()
        else:
            out[j] = np.argmax(np.bincount(obs.astype(int), minlength=len(feat.levels)))
    return out


def oracle_rmse(truth, imputed, positions):
    cat = truth.schema.categorical_mask
    spans = RangeTable.from_dataset(truth).spans
    total = 0.0
    rows, cols = np.nonzero(positions)
    for i, j in zip(rows, cols):
        t, v = truth.values[i, j], imputed.values[i, j]
        if np.isnan(t) or np.isnan(v):
            raise DataError(f"cell ({i}, {j}) is missing on one side")
        if cat[j]:
            err = 0.0 if t == v else 1.0
        else:
            err = (t - v) / spans[j]
        total += err * err
    return float(np.sqrt(total / len(rows)))
