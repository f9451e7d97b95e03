import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyimpute import distance, engine
from greyimpute.distance import GreyMetric, HeomMetric
from greyimpute.engine import (
    DEFAULT_K_GRID,
    PLANS,
    ImputeConfig,
    column_fill,
    Method,
    MethodPlan,
    impute_test,
    initial_impute,
    prepare,
    run_impute,
    run_plan,
    select_k,
    sweep,
    _cv_errors,
    _estimate_rows,
    _gap_cells,
    _nearest,
)
from greyimpute.errors import (
    DataError,
    InsufficientCandidatesError,
    TooFewRowsError,
)
from greyimpute.evaluate import rmse
from greyimpute.folds import effective_fold_count, stratified_fold_ids
from greyimpute.synth import gen_cubes, gen_mvn_mar, inject_mar, inject_mcar

from _oracles import (
    oracle_bounds,
    oracle_categorical_estimate,
    oracle_column_fill,
    oracle_grg,
    oracle_numeric_estimate,
    oracle_one_iteration,
    oracle_select_k,
)
from conftest import build_dataset, layouts, random_mixed_dataset

NAN = float("nan")


class TestInitialImpute:
    def test_global_mean(self):
        ds = build_dataset([[1.0], [NAN], [3.0]])
        out = initial_impute(ds)
        assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_global_mode(self):
        ds = build_dataset(
            [[0.0], [0.0], [1.0], [NAN]], categorical_levels={0: ("a", "b")}
        )
        assert initial_impute(ds).values[3, 0] == 0.0

    def test_mode_tie_takes_lowest_level(self):
        ds = build_dataset(
            [[1.0], [0.0], [NAN]], categorical_levels={0: ("a", "b")}
        )
        assert initial_impute(ds).values[2, 0] == 0.0

    def test_per_class_mean(self):
        ds = build_dataset(
            [[0.0], [NAN], [10.0], [10.0]], labels=[0, 0, 1, 1]
        )
        out = initial_impute(ds, per_class=True)
        assert out.values[1, 0] == 0.0

    def test_per_class_falls_back_to_global(self):
        # class 0 has nothing observed in the column
        ds = build_dataset([[NAN], [4.0], [8.0]], labels=[0, 1, 1])
        out = initial_impute(ds, per_class=True)
        assert out.values[0, 0] == 6.0

    def test_observed_cells_untouched(self, rng):
        vals = rng.normal(size=(10, 3))
        vals[rng.random((10, 3)) < 0.3] = NAN
        vals[0] = [1.0, 2.0, 3.0]
        ds = build_dataset(vals)
        out = initial_impute(ds)
        obs = ~np.isnan(vals)
        assert np.array_equal(out.values[obs], vals[obs])
        assert not np.isnan(out.values).any()


@st.composite
def _fill_tables(draw):
    """Mixed tables for the column-fill oracle: 1 to 25 columns of 1 to 60
    rows, categorical ones of 2 to 5 levels, continuous ones scaled from
    1e-3 to 1e3; each column complete, partly NaN, all NaN or constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    p = draw(st.integers(1, 25))
    values = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
    levels = {}
    for j in range(p):
        if rng.random() < 0.3:
            k = int(rng.integers(2, 6))
            levels[j] = tuple(f"l{i}" for i in range(k))
            values[:, j] = rng.integers(0, k, size=n)
        kind = rng.integers(0, 4)
        if kind == 1:
            values[rng.random(n) < 0.3, j] = NAN
        elif kind == 2:
            values[:, j] = NAN
        elif kind == 3:
            values[:, j] = values[0, j]
    return values, levels


class TestColumnFill:
    """Continuous columns with no gap averaged in one call give the same
    bits as the per-column loop they replaced (kept in ``_oracles``)."""

    @given(_fill_tables())
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_the_per_column_code(self, table):
        values, levels = table
        schema = build_dataset(np.zeros((1, values.shape[1])), levels).schema
        for layout in layouts(values):
            got = column_fill(layout, schema)
            assert np.array_equal(got, oracle_column_fill(layout, schema), equal_nan=True), got

    def test_no_rows_gives_nan(self):
        schema = build_dataset(np.zeros((1, 2)), {1: ("a", "b")}).schema
        assert np.isnan(column_fill(np.zeros((0, 2)), schema)).all()


class TestSelectK:
    def test_separable_blobs_tie_to_smallest(self, rng):
        x = np.vstack([rng.normal(-5, 0.3, (50, 2)), rng.normal(5, 0.3, (50, 2))])
        y = np.array([0] * 50 + [1] * 50)
        metric = HeomMetric(np.array([False, False]))
        assert select_k(x, y, metric, seed=1) == 1

    def test_xor_pattern_prefers_small_k(self, rng):
        corners = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        x = np.repeat(corners, 25, axis=0) + rng.normal(0, 0.05, (100, 2))
        y = np.repeat(labels, 25)
        metric = HeomMetric(np.array([False, False]))
        chosen = select_k(x, y, metric, grid=(1, 3, 5, 7, 9, 11, 13, 15), seed=2)
        assert chosen < 15

    def test_feature_equal_to_label(self):
        x = np.array([[0.0], [1.0]] * 10)
        y = np.array([0, 1] * 10)
        assert select_k(x, y, HeomMetric(np.array([False])), seed=3) == 1

    def test_too_few_rows(self):
        with pytest.raises(TooFewRowsError):
            select_k(np.zeros((3, 1)), np.array([0, 1, 0]),
                     HeomMetric(np.array([False])))


def tied_table(rng, n):
    """Values rounded to one decimal plus a 3-level categorical column, so
    many distances tie, and three classes, so many votes tie."""
    values = np.round(rng.random((n, 4)), 1)
    values[:, 1] = rng.integers(0, 3, size=n)
    labels = rng.integers(0, 3, size=n)
    return values, labels, np.array([False, True, False, False])


def screened_table(rng, n):
    """:func:`tied_table` plus six rounded noise columns, with weights
    on two heavy features (one categorical) that leave the light ones 0.05
    (under 1/p = 0.1) together, so the grey screen engages."""
    values, labels, cat = tied_table(rng, n)
    values = np.hstack([values, np.round(rng.random((n, 6)), 1)])
    cat = np.append(cat, np.zeros(6, dtype=bool))
    weights = np.concatenate([[0.6, 0.35, 0.02, 0.01], np.full(6, 0.02 / 6)])
    assert GreyMetric(cat, 0.5, weights).screen(values) is not None
    return values, labels, cat, weights


class TestSelectKOracle:
    @pytest.mark.parametrize("metric_name", ["heom", "grey"])
    def test_errors_per_k_and_choice_match_oracle(self, rng, metric_name):
        grid = (1, 2, 3, 4, 6, 9)
        for trial in range(4):
            values, labels, cat = tied_table(rng, int(rng.integers(30, 60)))
            weights = None if trial % 2 else rng.dirichlet(np.ones(4))
            if metric_name == "heom":
                metric = HeomMetric(cat, weights)
            else:
                metric = GreyMetric(cat, 0.5, weights)
            fold_ids = stratified_fold_ids(labels, effective_fold_count(labels, 5), trial)
            expected, chosen = oracle_select_k(
                values, labels, fold_ids, grid, cat, metric_name, 0.5, weights
            )
            assert _cv_errors(values, labels, metric, grid, 5, trial) == expected
            assert select_k(values, labels, metric, grid, 5, trial) == chosen

    def test_screened_grey_matches_oracle(self, rng):
        grid = (1, 2, 3, 4, 6, 9, 15)
        for trial in range(4):
            values, labels, cat, weights = screened_table(rng, int(rng.integers(40, 80)))
            metric = GreyMetric(cat, 0.5, weights)
            fold_ids = stratified_fold_ids(labels, effective_fold_count(labels, 5), trial)
            expected, chosen = oracle_select_k(
                values, labels, fold_ids, grid, cat, "grey", 0.5, weights
            )
            assert _cv_errors(values, labels, metric, grid, 5, trial) == expected
            assert select_k(values, labels, metric, grid, 5, trial) == chosen


class TestNearest:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_partial_selection_equals_stable_argsort(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(2, 40))
        k = data.draw(st.integers(1, n - 1))
        levels = data.draw(st.integers(1, 4))
        cells = data.draw(st.lists(st.integers(0, levels - 1), min_size=m * n, max_size=m * n))
        d = np.array(cells, dtype=float).reshape(m, n) / levels
        expected = np.argsort(d, axis=1, kind="stable")[:, :k]
        assert np.array_equal(_nearest(d, k), expected)

    def test_wide_tied_rows(self, rng):
        d = np.round(rng.random((3, 3000)), 2)
        assert np.array_equal(_nearest(d, 15), np.argsort(d, axis=1, kind="stable")[:, :15])


class TestBlockBudget:
    """A tiny byte budget splits every fold and test set into many blocks
    without changing a bit of the result."""

    @pytest.mark.parametrize("budget", [1, 50_000])
    @pytest.mark.parametrize("metric_name", ["heom", "grey"])
    def test_select_k(self, rng, monkeypatch, budget, metric_name):
        values, labels, cat = tied_table(rng, 150)
        weights = rng.dirichlet(np.ones(4))
        metric = HeomMetric(cat, weights) if metric_name == "heom" else GreyMetric(cat, 0.5, weights)
        whole = _cv_errors(values, labels, metric, DEFAULT_K_GRID, 10, 3)
        monkeypatch.setattr(distance, "BLOCK_BYTES", budget)
        assert _cv_errors(values, labels, metric, DEFAULT_K_GRID, 10, 3) == whole

    @pytest.mark.parametrize("budget", [1, 50_000])
    def test_select_k_screened(self, rng, monkeypatch, budget):
        values, labels, cat, weights = screened_table(rng, 150)
        metric = GreyMetric(cat, 0.5, weights)
        whole = _cv_errors(values, labels, metric, DEFAULT_K_GRID, 10, 3)
        monkeypatch.setattr(distance, "BLOCK_BYTES", budget)
        assert _cv_errors(values, labels, metric, DEFAULT_K_GRID, 10, 3) == whole

    @pytest.mark.parametrize("budget", [1, 50_000])
    def test_impute_test_screened(self, rng, monkeypatch, budget):
        levels = {1: ("a", "b", "c")}
        values, labels, _, weights = screened_table(rng, 120)
        values[rng.random(values.shape) < 0.1] = NAN
        train = build_dataset(values, levels, labels=labels)
        config = ImputeConfig(method="cgknn", k=3, seed=1)
        result = run_plan(train, config, PLANS[Method.CGKNN], weights_override=weights)
        queries, _, _, _ = screened_table(rng, 60)
        queries[rng.random(queries.shape) < 0.3] = NAN
        test = build_dataset(queries, levels)
        whole = impute_test(result, test).values
        monkeypatch.setattr(distance, "BLOCK_BYTES", budget)
        assert np.array_equal(impute_test(result, test).values, whole)

    @pytest.mark.parametrize("budget", [1, 50_000])
    @pytest.mark.parametrize("method", ["iknn", "gknn", "cgknn"])
    def test_impute_test(self, rng, monkeypatch, budget, method):
        levels = {1: ("a", "b", "c")}
        values, labels, _ = tied_table(rng, 120)
        values[rng.random(values.shape) < 0.1] = NAN
        train = build_dataset(values, levels, labels=labels)
        config = ImputeConfig(method=method, k=3, seed=1)
        result = run_impute(train, config)
        queries, _, _ = tied_table(rng, 60)
        queries[rng.random(queries.shape) < 0.3] = NAN
        test = build_dataset(queries, levels)
        whole = impute_test(result, test).values
        monkeypatch.setattr(distance, "BLOCK_BYTES", budget)
        assert np.array_equal(impute_test(result, test).values, whole)

    @pytest.mark.parametrize("budget", [1, 50_000])
    @pytest.mark.parametrize("method", ["iknn", "gknn", "cgknn"])
    def test_fixed_rows(self, rng, monkeypatch, budget, method):
        # gaps in x0 only, so every incomplete row is fixed; cgknn's
        # override weights rank them through the screen
        values, labels, cat, weights = screened_table(rng, 90)
        values[1:, 0][rng.random(89) < 0.4] = NAN
        ds = build_dataset(values, {1: ("a", "b", "c")}, labels)
        config = ImputeConfig(method=method, k=3)
        weights = weights if method == "cgknn" else None

        def run():
            # the level blocks' arrays, then each sweep's change, neighbors and iterate
            state = prepare(ds, config, weights_override=weights)
            sweeps = [(sweep(state), state.values.tobytes()) for _ in range(5)]
            levels = [step for step in state.fixed.steps if not isinstance(step, int)]
            assert len(levels) > 1
            arrays = [
                [a.tobytes() for level in step if level for a in (level.rows, level.idx, level.dist)]
                for step in levels
            ]
            return arrays, [
                (result.max_change, {r: d.tolist() for r, d in result.neighbors.items()}, iterate)
                for result, iterate in sweeps
            ]

        whole = run()
        monkeypatch.setattr(distance, "BLOCK_BYTES", budget)
        assert run() == whole


class TestNearestNeighbors:
    """Ranking a query against candidates the way a sweep does: one-row
    block distances, then :func:`_nearest`."""

    def test_simple_ordering(self):
        metric = HeomMetric(np.array([False]))
        d = metric.distances(np.array([[0.0]]), np.array([[1.0], [2.0], [3.0]]))
        got = _nearest(d, 2)[0]
        assert got.tolist() == [0, 1]
        assert d[0, got].tolist() == [1.0, 2.0]

    def test_tie_breaks_to_lower_index(self):
        metric = HeomMetric(np.array([False]))
        d = metric.distances(np.array([[0.0]]), np.array([[1.0], [-1.0]]))
        assert _nearest(d, 1)[0, 0] == 0

    def test_insufficient_candidates(self):
        ds = build_dataset([[0.0], [NAN], [1.0]], labels=[0, 1, 0])
        with pytest.raises(InsufficientCandidatesError):
            run_impute(ds, ImputeConfig(method="iknn", k=3))

    def test_grey_ranking_matches_exhaustive_oracle(self, rng):
        from _oracles import oracle_bounds, oracle_grg

        cat = np.array([False, False, True])
        vals = rng.random((8, 3))
        vals[:, 2] = rng.integers(0, 2, size=8)
        q = vals[0]
        cands = vals[1:]
        d = GreyMetric(cat).distances(q[None, :], cands)
        got = [(int(i) + 1, float(d[0, i])) for i in _nearest(d, 3)[0]]
        dmin, dmax = oracle_bounds(q, list(cands), cat)
        dists = [
            (i + 1, 1.0 - oracle_grg(q, cands[i], cat, dmin, dmax, 0.5))
            for i in range(7)
        ]
        expect = sorted(dists, key=lambda t: (t[1], t[0]))[:3]
        assert [i for i, _ in got] == [i for i, _ in expect]
        assert [d for _, d in got] == pytest.approx([d for _, d in expect], abs=1e-12)


def impute_numeric_cell(distances, values, weighted=True):
    """One continuous cell through :func:`_estimate_rows`."""
    return _one_cell(False, distances, values, weighted)


def impute_categorical_cell(distances, values, weighted=True):
    """One categorical cell through :func:`_estimate_rows`."""
    return _one_cell(True, distances, values, weighted)


def _one_cell(categorical, distances, values, weighted):
    donors = np.asarray(values, dtype=float)[:, None]
    dist = np.asarray(distances, dtype=float)[None]
    gaps = _gap_cells(np.array([[False]]), np.array([categorical]))
    return _estimate_rows(donors, np.arange(len(donors))[None], dist, gaps, weighted)[0]


class TestCellEstimators:
    def test_equal_distances_reduce_to_mean(self):
        assert impute_numeric_cell(
            np.array([0.2, 0.2, 0.2]), np.array([1.0, 2.0, 3.0])
        ) == pytest.approx(2.0)

    def test_inverse_square_weighting(self):
        got = impute_numeric_cell(np.array([0.1, 0.3]), np.array([1.0, 3.0]))
        assert got == pytest.approx(1.2)

    def test_zero_distance_neighbor_wins(self):
        got = impute_numeric_cell(np.array([0.0, 0.5]), np.array([7.0, 99.0]))
        assert got == 7.0

    def test_unweighted_mean(self):
        got = impute_numeric_cell(
            np.array([0.1, 0.9]), np.array([1.0, 3.0]), weighted=False
        )
        assert got == 2.0

    def test_rank_weighted_category(self):
        got = impute_categorical_cell(np.array([0.2, 0.3, 0.6]), np.array([0.0, 1.0, 1.0]))
        assert got == 0  # weights (1, 0.75, 0): a=1.0 beats b=0.75

    def test_unanimous_neighbors(self):
        got = impute_categorical_cell(np.array([0.1, 0.2]), np.array([1.0, 1.0]))
        assert got == 1

    def test_all_equal_distances_majority(self):
        got = impute_categorical_cell(np.array([0.4, 0.4, 0.4]), np.array([0.0, 0.0, 1.0]))
        assert got == 0

    def test_tie_goes_to_nearest_neighbor_category(self):
        # equal distances, categories (b, a): both sum 1; nearest holds b
        got = impute_categorical_cell(np.array([0.4, 0.4]), np.array([1.0, 0.0]))
        assert got == 1

    def test_unweighted_mode(self):
        got = impute_categorical_cell(
            np.array([0.1, 0.2, 0.9]), np.array([2.0, 2.0, 0.0]), weighted=False
        )
        assert got == 2

    def test_mixed_row_estimates_each_cell_as_alone(self):
        # one row, a continuous and a categorical gap: each cell gets what
        # it gets on its own
        cat = np.array([False, True])
        donors = np.array([[1.0, 2.0], [3.0, 1.0], [5.0, 1.0]])
        dist = np.array([0.1, 0.2, 0.4])
        gaps = _gap_cells(np.array([[False, False]]), cat)
        got = _estimate_rows(donors, np.arange(3)[None], dist[None], gaps, True)
        assert got.tolist() == [
            impute_numeric_cell(dist, donors[:, 0]),
            impute_categorical_cell(dist, donors[:, 1]),
        ]


class TestBlockEstimator:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_cell_matches_the_oracles_and_its_row_alone(self, data):
        # mixed columns, k 1-15, weighted or not; distances from a coarse
        # grid give zeros at any rank, all-equal rows and vote ties, and a
        # grid below 0 gives the negative grey distances of override
        # weights that sum past 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m, p = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, 15))
        weighted = data.draw(st.booleans())
        n_levels = [data.draw(st.sampled_from([0, 0, 2, 3])) for _ in range(p)]  # 0: continuous
        cat = np.array([levels > 0 for levels in n_levels])
        n = k + int(rng.integers(0, 10))
        donors = rng.random((n, p))
        for j, levels in enumerate(n_levels):
            if levels:
                donors[:, j] = rng.integers(0, levels, n)
        idx = np.array([rng.permutation(n)[:k] for _ in range(m)])
        low = data.draw(st.sampled_from([0.0, -0.5]))
        if data.draw(st.booleans()):
            dist = rng.choice(np.arange(low, 1.0, 0.25), (m, k))
        else:
            dist = rng.uniform(low, 1.0, (m, k))
        dist[rng.random(m) < 0.2] = dist[0, 0]  # every distance equal
        dist = np.sort(dist, axis=1)
        observed = rng.random((m, p)) < 0.5
        observed[np.arange(m), rng.integers(0, p, m)] = False

        gaps = _gap_cells(observed, cat)
        got = _estimate_rows(donors, idx, dist, gaps, weighted)
        alone = [
            _estimate_rows(donors, idx[[i]], dist[[i]], _gap_cells(observed[[i]], cat), weighted)
            for i in range(m)
        ]
        assert got.tobytes() == np.concatenate(alone).tobytes()
        for est, r, j in zip(got, *gaps[:2]):
            nd, nv = dist[r].tolist(), donors[idx[r], j].tolist()
            if cat[j]:
                assert est == oracle_categorical_estimate(nd, nv, n_levels[j], weighted)
            else:
                assert est == pytest.approx(
                    oracle_numeric_estimate(nd, nv, weighted), rel=1e-12, abs=1e-12
                )


def _mcar(ds, cols, rate, seed):
    return inject_mcar(ds, cols, rate, seed)


class TestImputeConfig:
    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            ImputeConfig(rho=1.5)
        with pytest.raises(ValueError):
            ImputeConfig(rho=-0.1)

    @pytest.mark.parametrize("name, value", [
        ("method", "sparkle"),
        ("k", 0), ("k", 2.5), ("k", True), ("k", "3"),
        ("k_grid", ()), ("k_grid", (1.5, 3)), ("k_grid", (0,)), ("k_grid", 3), ("k_grid", "13"),
        ("max_iter", 0), ("max_iter", 2.5), ("folds", 0), ("folds", True),
        ("rho", "0.5"), ("rho", NAN), ("rho", 2.0),
        ("epsilon", 0.0), ("epsilon", -1e-4), ("epsilon", "1e-4"), ("epsilon", NAN),
    ])
    def test_bad_value_is_data_error_naming_the_parameter(self, name, value):
        with pytest.raises(DataError, match=name):
            ImputeConfig(**{name: value})

    def test_numpy_ints_and_lists_accepted(self):
        config = ImputeConfig(k=np.int64(3), k_grid=[1, np.int64(3)], max_iter=np.int32(4))
        assert config.k_grid == (1, 3)
        assert config == ImputeConfig(k=3, k_grid=(1, 3), max_iter=4)


class TestWeightsOverride:
    @pytest.mark.parametrize("weights", [
        np.full(23, np.nan),
        np.full(5, 0.2),
        np.r_[-0.1, np.full(22, 0.05)],
        np.r_[np.inf, np.zeros(22)],
        np.full((1, 23), 1 / 23),
        ["w"] * 23,
        np.r_[1e308, 1e308, np.zeros(21)],
    ], ids=["nan", "length-5", "negative", "inf", "2-d", "text", "sum-overflows"])
    def test_bad_vector_is_data_error(self, weights):
        ds = inject_mcar(gen_cubes(1), ["x1"], 0.1, 1)
        with pytest.raises(DataError, match="weights_override"):
            run_plan(ds, ImputeConfig(method="cgknn", k=3), PLANS[Method.CGKNN], weights)

    def test_zero_weights_on_some_features_accepted(self):
        ds = inject_mcar(gen_cubes(1), ["x1"], 0.1, 1)
        weights = np.r_[0.5, 0.5, np.zeros(21)]
        result = run_plan(ds, ImputeConfig(method="cgknn", k=3), PLANS[Method.CGKNN], weights)
        assert result.weights_used.tolist() == weights.tolist()

    @pytest.mark.parametrize("method", ["iknn", "cgknn"])
    def test_weights_used_are_the_metrics_own(self, method):
        result = run_impute(inject_mcar(gen_cubes(1), ["x1"], 0.1, 1), ImputeConfig(method, k=3))
        assert result.weights_used is result.metric.weights
        assert (result.weights_used is None) == (method == "iknn")
        with pytest.raises(AttributeError):
            result.weights_used = None


def reference_sweep(state):
    """One sweep that re-ranks every incomplete row against its pool with
    the row deleted, in place; returns each row's neighbors."""
    ds, k = state.dataset, state.k
    neighbors = {}
    for r in state.pools:
        pool = np.delete(np.arange(ds.n), r)
        if state.plan.per_class_pool:
            rows = np.flatnonzero(ds.labels == ds.labels[r])
            if len(rows) - 1 >= k:
                pool = rows[rows != r]
        cols = np.flatnonzero(~ds.mask[r])
        query = state.values[r].copy()
        query[cols] = NAN
        d = state.metric.distances(query[None, :], state.values[pool])
        nearest = _nearest(d, k)[0]
        neighbors[r] = pool[nearest]
        state.values[r, cols] = _estimate_rows(
            state.values, pool[nearest][None], d[:, nearest],
            _gap_cells(ds.mask[r:r + 1], state.metric.categorical), state.plan.weighted_cells,
        )
    return neighbors


def with_gaps(ds, holes):
    return ds.with_values(np.where(holes, NAN, ds.values))


def sweep_table(rng, gaps):
    """A table and weights (None: the method's own) for :class:`TestManySweeps`.

    ``anywhere``: a :func:`random_mixed_dataset`, sometimes with a row that
    has no observed cell; most incomplete rows can be moved by a gap.
    ``one column``: gaps in the first column only, so every incomplete row
    is fixed. ``screened``: a :func:`screened_table` whose weights engage
    the grey screen, gaps in x0 and sometimes in x4, so each class pool
    ranks several fixed rows in one screened block and re-ranks the rest."""
    if gaps == "anywhere":
        classes = int(rng.integers(2, 4))
        ds = random_mixed_dataset(rng, max_n=20, missing_rate=0.2, n_classes=classes)
        if rng.random() < 0.5 and ds.mask[1:].any(axis=0).all():
            ds = with_gaps(ds, ~ds.mask | (np.arange(ds.n) == 0)[:, None])
        return ds, None
    if gaps == "one column":
        ds = random_mixed_dataset(rng, max_n=20, missing_rate=0.0, n_classes=2)
        holes = np.zeros((ds.n, ds.p), dtype=bool)
        holes[1:, 0] = rng.random(ds.n - 1) < 0.4
        return with_gaps(ds, holes), None
    values, labels, cat, weights = screened_table(rng, int(rng.integers(15, 40)))
    labels[:3] = [0, 1, 2]
    ds = build_dataset(values, {1: ("a", "b", "c")}, labels)
    holes = np.zeros(values.shape, dtype=bool)
    holes[1:, 0] = rng.random(ds.n - 1) < 0.4
    if rng.random() < 0.5:
        holes[1:, 4] = rng.random(ds.n - 1) < 0.1
    return with_gaps(ds, holes), weights


class TestPools:
    """``prepare`` settles each incomplete row's pool once for the run."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_pools_fallback_and_too_few_rows_follow_the_rule(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        classes = data.draw(st.integers(1, 3))
        ds = random_mixed_dataset(rng, min_n=3, max_n=9, n_classes=classes)
        k = data.draw(st.integers(1, 4))
        method = data.draw(st.sampled_from(["iknn", "miknn", "gknn", "fwgknn", "cgknn"]))
        config = ImputeConfig(method=method, k=k)
        incomplete = np.flatnonzero(~ds.mask.all(axis=1))
        if len(incomplete) and ds.n <= k:
            with pytest.raises(InsufficientCandidatesError):
                prepare(ds, config)
            return
        state = prepare(ds, config)
        assert sorted(state.pools) == incomplete.tolist()
        # reference: the row's class when it holds more than k rows, else every row
        fallback = False
        for r in incomplete:
            pool = np.arange(ds.n)
            if PLANS[Method(method)].per_class_pool:
                own = np.flatnonzero(ds.labels == ds.labels[r])
                fallback |= len(own) <= k
                pool = own if len(own) > k else pool
            assert state.pools[int(r)].tolist() == pool.tolist()
        assert state.used_pool_fallback == fallback


class TestManySweeps:
    """Sweeps rank a fixed row once per run and re-rank the others; five
    sweeps in a row must equal sweeps that re-rank every row, bit for bit."""

    METHODS = ("iknn", "miknn", "gknn", "fwgknn", "cgknn")

    @pytest.mark.parametrize("gaps", ["anywhere", "one column", "screened"])
    @pytest.mark.parametrize("method", METHODS)
    def test_each_sweep_equals_reranking_every_row(self, method, gaps):
        rng = np.random.default_rng(len(gaps) * 100 + self.METHODS.index(method))
        for trial in range(8):
            ds, weights = sweep_table(rng, gaps)
            config = ImputeConfig(method=method, k=int(rng.integers(1, 4)), seed=trial)
            state = prepare(ds, config, weights_override=weights)
            reference = prepare(ds, config, weights_override=weights)
            for _ in range(5):
                neighbors = sweep(state).neighbors
                expected = reference_sweep(reference)
                assert neighbors.keys() == expected.keys()
                for r, donors in expected.items():
                    assert np.array_equal(neighbors[r], donors), (method, gaps, trial, r)
                assert state.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("method", ["cgknn", "fwgknn"])
    def test_every_sweep_equals_reranking_at_workload_scale(self, method):
        # the mvn-mar benchmark's seed-3 table: 4 class pools of 100 rows
        # for cgknn, which hits the cap; one 400-row pool and k=9 for fwgknn
        truth, mar = gen_mvn_mar(3)
        ds = inject_mar(truth, dataclasses.replace(mar, target_rate=0.2), 1003)
        config = ImputeConfig(method=method)
        state, reference = prepare(ds, config), prepare(ds, config)
        for sweeps in range(1, config.max_iter + 1):
            result = sweep(state)
            expected = reference_sweep(reference)
            assert result.neighbors.keys() == expected.keys()
            for r, donors in expected.items():
                assert np.array_equal(result.neighbors[r], donors), (sweeps, r)
            assert state.values.tobytes() == reference.values.tobytes()
            if result.max_change < config.epsilon:
                break
        assert sweeps == (config.max_iter if method == "cgknn" else 10)

    @pytest.mark.parametrize("two_columns", [False, True])
    def test_later_sweeps_rank_only_the_moving_rows(self, rng, two_columns):
        ds = random_mixed_dataset(rng, min_n=12, max_n=20, missing_rate=0.0)
        holes = np.zeros((ds.n, ds.p), dtype=bool)
        holes[[1, 4, 7], 0] = True
        if two_columns:
            holes[[4, 9], 1] = True
        ds = with_gaps(ds, holes)
        state = prepare(ds, ImputeConfig(method="iknn", k=2))
        sweep(state)
        calls = []
        kernel = state.metric.distances
        state.metric.distances = lambda *args: calls.append(len(args[0])) or kernel(*args)
        sweep(state)
        # rows 1 and 7 observe column 1, where rows 4 and 9 have gaps, and
        # row 9 observes column 0; row 4 observes neither gappy column
        assert calls == ([1, 1, 1] if two_columns else [])


def level_table(data):
    """A table, method and k for :class:`TestLevelledSweeps`. Gaps fall in
    one to three columns, a categorical one among them when drawn: a row
    gapped in all of them is fixed, and a row gapped in some is moving once
    another gappy column has a gap, so fixed and moving rows interleave.
    Cells on a coarse grid tie, some rows repeat others exactly, and a class
    of one or two rows makes per-class pools fall back to every row."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(1, 15))
    n = data.draw(st.integers(k + 2, k + 30))
    p = data.draw(st.integers(2, 5))
    values = np.round(rng.random((n, p)), 1)
    levels = {j: ("a", "b", "c") for j in range(p) if data.draw(st.booleans())}
    for j in levels:
        values[:, j] = rng.integers(0, 3, n)
    copies = np.flatnonzero(rng.random(n) < 0.2)
    values[copies] = values[rng.integers(0, n, len(copies))]
    gappy = rng.permutation(p)[:data.draw(st.integers(1, min(3, p)))]
    holes = np.zeros((n, p), dtype=bool)
    draw = rng.random(n)
    some = (draw >= 0.4) & (draw < 0.6)
    holes[np.ix_(draw < 0.4, gappy)] = True
    holes[some, rng.choice(gappy, n)[some]] = True
    holes[0] = False  # every column observed somewhere
    classes = data.draw(st.integers(1, 3))
    labels = rng.integers(0, classes, n)
    if classes > 1 and data.draw(st.booleans()):
        labels[labels == classes - 1] = 0
        labels[rng.integers(0, n, 2)] = classes - 1
    labels[:classes] = np.arange(classes)
    ds = with_gaps(build_dataset(values, levels, labels), holes)
    return ds, data.draw(st.sampled_from(TestManySweeps.METHODS)), k


def reference_change(before, after, mask, categorical):
    """The largest change of a sweep over the gap cells: |new - old|, or 1
    for a categorical cell whose level moved."""
    rows, cols = np.nonzero(~mask)
    return max(
        [0.0] + [(float(a != b) if categorical[j] else abs(a - b))
                 for a, b, j in zip(after[rows, cols], before[rows, cols], cols)]
    )


class TestLevelledSweeps:
    """Fixed rows are estimated a level at a time and static rows only in
    the first sweep; the iterate, neighbors and largest change must stay
    those of the row-by-row order."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_five_sweeps_equal_the_row_by_row_reference(self, data):
        ds, method, k = level_table(data)
        config = ImputeConfig(method=method, k=k)
        state, reference = prepare(ds, config), prepare(ds, config)
        for _ in range(5):
            before = reference.values.copy()
            result = sweep(state)
            expected = reference_sweep(reference)
            assert list(result.neighbors) == list(expected)
            for r, donors in expected.items():
                assert np.array_equal(result.neighbors[r], donors), r
            assert state.values.tobytes() == reference.values.tobytes()
            assert result.max_change == reference_change(
                before, reference.values, ds.mask, state.metric.categorical
            )

    def test_a_static_row_is_estimated_in_the_first_sweep_only(self, monkeypatch):
        # gaps in x0 only, so every incomplete row is fixed; with k = 1 row
        # 1's donor is row 0, which is complete (static), and rows 3 and 4
        # are each other's donor: row 4 must see row 3's new cell
        ds = build_dataset(
            [[0.1, 0.0], [NAN, 0.0], [0.5, 1.0], [NAN, 1.1], [NAN, 1.15], [0.9, 3.0]],
            labels=[0, 0, 1, 1, 1, 0],
        )
        state = prepare(ds, ImputeConfig(method="iknn", k=1))
        cells = []
        estimate = engine._estimate_rows
        monkeypatch.setattr(
            engine, "_estimate_rows",
            lambda *args: cells.append(len(args[3][1])) or estimate(*args),
        )
        neighbors = [sweep(state).neighbors for _ in range(3)]
        assert [[level.rows.tolist() for level in step] for step in state.fixed.steps] == [
            [[1, 3], [3]], [[4], [4]]
        ]
        assert cells == [2, 1, 1, 1, 1, 1]
        for result in neighbors:
            assert {r: d.tolist() for r, d in result.items()} == {1: [0], 3: [4], 4: [3]}


class TestRunImpute:
    def test_complete_dataset_is_identity(self, rng):
        ds = build_dataset(rng.normal(size=(12, 3)), labels=rng.integers(0, 2, 12))
        for method in Method:
            res = run_impute(ds, ImputeConfig(method=method, k=3))
            assert res.iterations == 0
            assert res.converged
            assert res.completed.equals(
                build_dataset(ds.values, labels=ds.labels)
            ) or np.array_equal(res.completed.values, ds.values)

    def test_duplicated_feature_recovers_exactly(self, rng):
        # feature B duplicates A; every A value appears twice within a class,
        # so the nearest neighbor shares the exact A value
        base0 = rng.random(10)
        base1 = rng.random(10)
        a = np.concatenate([np.repeat(base0, 2), np.repeat(base1, 2)])
        values = np.column_stack([a, a.copy()])
        labels = np.array([0] * 20 + [1] * 20)
        truth = build_dataset(values, labels=labels)
        masked = values.copy()
        hit = rng.choice(40, size=8, replace=False)[::2]  # at most one per pair
        masked[hit, 1] = NAN
        ds = build_dataset(masked, labels=labels)
        res = run_impute(ds, ImputeConfig(method="cgknn", k=1, seed=5))
        err = rmse(truth, res.completed, truth.mask & ~ds.mask)
        assert err <= 1e-6

    def test_observed_cells_bit_identical(self, rng):
        ds = random_mixed_dataset(rng, max_n=10, max_p=4)
        res = run_impute(ds, ImputeConfig(method="cgknn", k=2, seed=1))
        obs = ds.mask
        assert np.array_equal(res.completed.values[obs], ds.values[obs])

    def test_output_is_complete(self, rng):
        for _ in range(5):
            ds = random_mixed_dataset(rng)
            res = run_impute(ds, ImputeConfig(method="gknn", k=2, seed=2))
            assert not np.isnan(res.completed.values).any()
            assert res.completed.mask.all()

    def test_trace_and_termination(self, rng):
        ds = random_mixed_dataset(rng, max_n=10)
        config = ImputeConfig(method="iknn", k=2, max_iter=7, seed=3)
        res = run_impute(ds, config)
        assert res.iterations == len(res.trace) <= 7
        if res.converged and res.trace:
            assert res.trace[-1] < config.epsilon

    def test_seed_determinism(self, rng):
        ds = random_mixed_dataset(rng, max_n=10)
        config = ImputeConfig(method="cgknn", k=2, seed=11)
        a = run_impute(ds, config)
        b = run_impute(ds, config)
        assert a.completed.values.tobytes() == b.completed.values.tobytes()
        assert a.trace == b.trace and a.chosen_k == b.chosen_k

    def test_labels_required_for_class_methods(self, rng):
        ds = build_dataset(np.array([[1.0, NAN], [2.0, 0.5], [0.5, 1.0]]))
        for method in ("miknn", "gknn", "cgknn"):
            with pytest.raises(DataError):
                run_impute(ds, ImputeConfig(method=method, k=1))
        # iknn and fwgknn with explicit k need no labels
        for method in ("iknn", "fwgknn"):
            res = run_impute(ds, ImputeConfig(method=method, k=1))
            assert res.completed.mask.all()

    def test_fwgknn_reads_labels_only_to_select_k(self):
        ds = build_dataset(np.array([[1.0, NAN], [2.0, 0.5], [0.5, 1.0], [0.1, 0.2]]))
        assert run_impute(ds, ImputeConfig(method="fwgknn", k=2)).completed.mask.all()
        with pytest.raises(DataError, match="automatic k selection requires class labels"):
            run_impute(ds, ImputeConfig(method="fwgknn"))

    def test_iknn_without_k_or_labels_rejected(self):
        ds = build_dataset(np.array([[1.0, NAN], [2.0, 0.5], [0.5, 1.0], [0.1, 0.2]]))
        with pytest.raises(DataError):
            run_impute(ds, ImputeConfig(method="iknn"))

    def test_small_class_falls_back_to_global_pool(self):
        values = np.array([[0.1, NAN], [0.2, 0.3], [0.4, 0.5], [0.6, 0.7]])
        labels = np.array([0, 1, 1, 1])  # class 0 has a single row
        ds = build_dataset(values, labels=labels)
        res = run_impute(ds, ImputeConfig(method="cgknn", k=2, seed=1))
        assert res.used_pool_fallback
        assert res.completed.mask.all()

    def test_meanmode_is_plain_mean_mode(self):
        ds = build_dataset([[1.0], [NAN], [3.0]], labels=[0, 0, 1])
        res = run_impute(ds, ImputeConfig(method="meanmode"))
        assert res.completed.values[1, 0] == pytest.approx(2.0)
        assert res.iterations == 0 and res.chosen_k == 0

    def test_validation_failure_rejected(self):
        # code 5 names no level of a two-level column
        ds = build_dataset([[np.nan, 1.0], [5.0, 2.0]], categorical_levels={0: ("a", "b")})
        with pytest.raises(DataError, match="bad-level-index"):
            run_impute(ds, ImputeConfig(method="iknn", k=1))


class TestOracleEquivalence:
    METHODS = ("iknn", "miknn", "gknn", "fwgknn", "cgknn")

    def test_one_iteration_matches_brute_force(self):
        rng = np.random.default_rng(4242)
        for trial in range(40):
            ds = random_mixed_dataset(rng)
            k = int(rng.integers(1, min(4, ds.n - 1)))
            for method in self.METHODS:
                config = ImputeConfig(method=method, k=k, seed=trial)
                state = prepare(ds, config)
                result = sweep(state)
                oracle_nbrs, oracle_vals = oracle_one_iteration(
                    ds, method, k, rho=0.5, weights=state.metric.weights
                )
                for row, nbrs in result.neighbors.items():
                    assert list(nbrs) == [i for i, _ in oracle_nbrs[row]], (
                        f"neighbor sets differ: {method}, trial {trial}, row {row}"
                    )
                assert np.allclose(state.values, oracle_vals, atol=1e-12, rtol=0), (
                    f"values differ: {method}, trial {trial}"
                )

    def test_uniform_weights_degenerate_to_unweighted_grey(self, rng):
        # forcing uniform class weights must reproduce the unweighted grey
        # run with weighted estimators, bit for bit
        ds = random_mixed_dataset(rng, max_n=10)
        config = ImputeConfig(method="cgknn", k=2, seed=9)
        uniform = np.full(ds.p, 1.0 / ds.p)
        a = run_plan(ds, config, PLANS[Method.CGKNN], weights_override=uniform)
        gknn_weighted = MethodPlan(True, "grey", "none", True)
        b = run_plan(ds, ImputeConfig(method="gknn", k=2, seed=9), gknn_weighted)
        assert a.completed.values.tobytes() == b.completed.values.tobytes()


class TestImputeTest:
    def _trained(self, rng):
        values = rng.random((30, 3))
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        ds = build_dataset(values, labels=labels)
        return ds, run_impute(ds, ImputeConfig(method="cgknn", k=1, seed=1))

    def test_complete_row_unchanged(self, rng):
        ds, result = self._trained(rng)
        test = build_dataset(rng.random((4, 3)))
        out = impute_test(result, test)
        assert np.array_equal(out.values, test.values)

    def test_near_duplicate_row_recovers_value(self, rng):
        ds, result = self._trained(rng)
        row = ds.values[7].copy()
        truth = row[2]
        row[2] = NAN
        test = build_dataset(row[None, :])
        out = impute_test(result, test)
        assert out.values[0, 2] == pytest.approx(truth, abs=1e-4)

    def test_empty_test_set(self, rng):
        ds, result = self._trained(rng)
        test = build_dataset(np.empty((0, 3)))
        out = impute_test(result, test)
        assert out.n == 0

    def test_screened_cgknn_matches_oracle(self, rng):
        # the screen engages on these weights; every estimate is rebuilt
        # from the oracle's bounds, grades, ranking and estimators
        levels = {1: ("a", "b", "c")}
        values, labels, cat, weights = screened_table(rng, 90)
        values[rng.random(values.shape) < 0.1] = NAN
        train = build_dataset(values, levels, labels=labels)
        config = ImputeConfig(method="cgknn", k=4, seed=1)
        result = run_plan(train, config, PLANS[Method.CGKNN], weights_override=weights)
        queries, _, _, _ = screened_table(rng, 40)
        queries[rng.random(queries.shape) < 0.3] = NAN
        test = build_dataset(queries, levels)
        out = result.ranges.to_unit(impute_test(result, test).values)
        donors = result.ranges.to_unit(result.completed.values).tolist()
        assert GreyMetric(cat, 0.5, weights).screen(np.array(donors)) is not None
        for r, query in enumerate(result.ranges.to_unit(queries).tolist()):
            dmin, dmax = oracle_bounds(query, donors, cat)
            dist = [1.0 - oracle_grg(query, d, cat, dmin, dmax, 0.5, weights) for d in donors]
            nearest = sorted(range(len(donors)), key=lambda i: (dist[i], i))[:4]
            nd = [dist[i] for i in nearest]
            for j in np.nonzero(np.isnan(queries[r]))[0]:
                nv = [donors[i][j] for i in nearest]
                if cat[j]:
                    assert out[r, j] == oracle_categorical_estimate(nd, nv, 3, True)
                else:
                    assert out[r, j] == pytest.approx(
                        oracle_numeric_estimate(nd, nv, True), rel=1e-12, abs=1e-12
                    )

    @pytest.mark.parametrize("budget", [1, distance.BLOCK_BYTES])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_zero_distance_donors_match_oracle(self, rng, monkeypatch, budget, weighted):
        # each base row appears twice exactly and once with its unweighted
        # cells (c, x3) redrawn; a query copies a base row on the weighted
        # features and always misses c, so unless it also misses x0 it lies
        # at distance 0 from up to three donors
        levels = {2: ("a", "b", "c")}
        cat = [False, False, True, False]
        weights = np.array([0.5, 0.5, 0.0, 0.0])
        base = np.column_stack([rng.random((20, 2)), rng.integers(0, 3, 20), rng.random(20)])
        redrawn = base.copy()
        redrawn[:, 2:] = np.column_stack([rng.integers(0, 3, 20), rng.random(20)])
        values = np.vstack([base, base, redrawn])
        labels = np.arange(60) % 2
        values[rng.random(values.shape) < 0.05] = NAN
        plan = MethodPlan(True, "grey", "none", weighted)
        train = build_dataset(values, levels, labels=labels)
        result = run_plan(train, ImputeConfig(method="cgknn", k=4, seed=1), plan, weights)
        queries = base[rng.integers(0, 20, 30)]
        queries[:, 2] = NAN
        queries[rng.random(30) < 0.5, 3] = NAN
        queries[rng.random(30) < 0.2, 0] = NAN
        monkeypatch.setattr(distance, "BLOCK_BYTES", budget)
        out = result.ranges.to_unit(impute_test(result, build_dataset(queries, levels)).values)
        donors = result.ranges.to_unit(result.completed.values).tolist()
        zero_rows = 0
        for r, query in enumerate(result.ranges.to_unit(queries).tolist()):
            dmin, dmax = oracle_bounds(query, donors, cat)
            dist = [1.0 - oracle_grg(query, d, cat, dmin, dmax, 0.5, weights) for d in donors]
            nearest = sorted(range(len(donors)), key=lambda i: (dist[i], i))[:4]
            nd = [dist[i] for i in nearest]
            zero_rows += 0.0 in nd
            for j in np.nonzero(np.isnan(queries[r]))[0]:
                nv = [donors[i][j] for i in nearest]
                if cat[j]:
                    assert out[r, j] == oracle_categorical_estimate(nd, nv, 3, weighted)
                else:
                    assert out[r, j] == pytest.approx(
                        oracle_numeric_estimate(nd, nv, weighted), rel=1e-12, abs=1e-12
                    )
        assert zero_rows >= 10

    def test_custom_plan_serves_transform(self, rng):
        # gknn's own plan estimates cells by plain means; a run under a
        # plan with weighted cells must impute test rows with weighted ones
        values = rng.random((40, 3))
        values[rng.random(values.shape) < 0.1] = NAN
        labels = np.arange(40) % 2
        train = build_dataset(values, labels=labels)
        weighted = MethodPlan(True, "grey", "none", True)
        result = run_plan(train, ImputeConfig(method="gknn", k=3, seed=1), weighted)
        queries = rng.random((10, 3))
        queries[:, 1] = NAN
        out = result.ranges.to_unit(impute_test(result, build_dataset(queries)).values)
        donors = result.ranges.to_unit(result.completed.values).tolist()
        cat = [False] * 3
        unlike_plain = False
        for r, query in enumerate(result.ranges.to_unit(queries).tolist()):
            dmin, dmax = oracle_bounds(query, donors, cat)
            dist = [1.0 - oracle_grg(query, d, cat, dmin, dmax, 0.5) for d in donors]
            nearest = sorted(range(len(donors)), key=lambda i: (dist[i], i))[:3]
            nd, nv = [dist[i] for i in nearest], [donors[i][1] for i in nearest]
            assert out[r, 1] == pytest.approx(
                oracle_numeric_estimate(nd, nv, True), rel=1e-12, abs=1e-12
            )
            unlike_plain |= out[r, 1] != pytest.approx(oracle_numeric_estimate(nd, nv, False))
        assert unlike_plain

    def test_schema_mismatch_rejected(self, rng):
        from greyimpute.errors import SchemaMismatchError

        ds, result = self._trained(rng)
        test = build_dataset(rng.random((2, 2)))
        with pytest.raises(SchemaMismatchError):
            impute_test(result, test)


class TestCubeScenarioRegression:
    def test_cgknn_beats_mean_mode(self):
        ds = gen_cubes(1)
        injected = _mcar(ds, ["x1"], 0.1, 101)
        positions = ds.mask & ~injected.mask
        cg = run_impute(injected, ImputeConfig(method="cgknn", seed=1))
        mm = run_impute(injected, ImputeConfig(method="meanmode", seed=1))
        assert rmse(ds, cg.completed, positions) < rmse(ds, mm.completed, positions)

    def test_converges_within_cap(self):
        ds = gen_cubes(2)
        injected = _mcar(ds, ["x1"], 0.2, 102)
        res = run_impute(injected, ImputeConfig(method="cgknn", seed=2))
        assert res.converged
        assert res.trace[-1] < 1e-4
