import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyimpute.dataset import normalize
from greyimpute.distance import GreyMetric
from greyimpute.engine import Method, select_k
from greyimpute.errors import DataError
from greyimpute.estimator import GreyKNNImputer, check_matrix
from greyimpute.synth import gen_mvn_mar

NAN = float("nan")


def _toy(rng, n=40):
    x = np.column_stack([
        rng.normal(size=n),
        rng.normal(size=n),
        rng.integers(0, 3, size=n).astype(float),
    ])
    y = (x[:, 0] > 0).astype(int)
    holed = x.copy()
    holed[rng.random((n, 3)) < 0.15] = NAN
    for j in range(3):
        if np.isnan(holed[:, j]).all():
            holed[0, j] = x[0, j]
    return x, holed, y


class TestParams:
    def test_get_params_round_trip(self):
        est = GreyKNNImputer(method="gknn", n_neighbors=5)
        params = est.get_params()
        assert params["method"] == "gknn"
        assert params["n_neighbors"] == 5
        est2 = GreyKNNImputer(**params)
        assert est2.get_params() == params

    def test_set_params_returns_self(self):
        est = GreyKNNImputer()
        assert est.set_params(rho=0.3) is est
        assert est.rho == 0.3

    def test_invalid_param_rejected(self):
        with pytest.raises(ValueError):
            GreyKNNImputer().set_params(bogus=1)

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = GreyKNNImputer(method="iknn", n_neighbors=2)
        cloned = sklearn_base.clone(est)
        assert cloned.get_params() == est.get_params()


class TestFitTransform:
    def test_fit_transform_completes_matrix(self, rng):
        _, holed, y = _toy(rng)
        est = GreyKNNImputer(n_neighbors=3, categorical_features=(2,))
        out = est.fit_transform(holed, y)
        assert not np.isnan(out).any()
        obs = ~np.isnan(holed)
        assert np.array_equal(out[obs], holed[obs])
        assert est.n_iter_ >= 1

    def test_transform_new_rows_single_pass(self, rng):
        x, holed, y = _toy(rng)
        est = GreyKNNImputer(n_neighbors=1, categorical_features=(2,))
        est.fit(holed, y)
        new = x[:5].copy()
        new[0, 1] = NAN
        out = est.transform(new)
        assert not np.isnan(out).any()
        assert np.array_equal(out[1:], new[1:])

    def test_unlabeled_fit_with_fixed_k(self, rng):
        _, holed, _ = _toy(rng)
        est = GreyKNNImputer(method="iknn", n_neighbors=2, categorical_features=(2,))
        out = est.fit_transform(holed)
        assert not np.isnan(out).any()

    def test_set_params_after_fit_leaves_transform_alone(self, rng):
        x, holed, y = _toy(rng)
        est = GreyKNNImputer(method="cgknn", n_neighbors=3, categorical_features=(2,))
        est.fit(holed, y)
        new = x[:10].copy()
        new[::2, 1] = NAN
        new[1::2, 2] = NAN
        before = est.transform(new)
        est.set_params(method="iknn", rho=0.1)
        assert est.transform(new).tobytes() == before.tobytes()

    def test_complete_table_selects_k_for_transform(self):
        ds, _ = gen_mvn_mar(3)
        est = GreyKNNImputer().fit(ds.values, ds.labels)
        metric = GreyMetric(ds.schema.categorical_mask, 0.5, est.feature_weights_)
        picked = select_k(normalize(ds)[0].values, ds.labels, metric)
        assert est.result_.chosen_k == picked == 15
        new = ds.values[::7].copy()
        new[:, 3] = NAN
        fixed = GreyKNNImputer(n_neighbors=15).fit(ds.values, ds.labels)
        assert est.transform(new).tobytes() == fixed.transform(new).tobytes()

    @pytest.mark.parametrize("method", [m.value for m in Method])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_outputs_are_c_contiguous_float64(self, rng, method, order):
        # whatever layout the engine keeps its iterate in
        _, holed, y = _toy(rng)
        holed = np.asarray(holed, order=order)
        est = GreyKNNImputer(method=method, n_neighbors=3)
        outputs = (est.fit_transform(holed, y), est.result_.completed.values,
                   est.transform(holed[:10]))
        for out in outputs:
            assert out.dtype == np.float64 and out.flags.c_contiguous

    def test_transform_before_fit_rejected(self):
        with pytest.raises(DataError):
            GreyKNNImputer().transform(np.zeros((2, 2)))

    def test_feature_count_enforced(self, rng):
        _, holed, y = _toy(rng)
        est = GreyKNNImputer(n_neighbors=1, categorical_features=(2,)).fit(holed, y)
        with pytest.raises(DataError):
            est.transform(np.zeros((2, 5)))

    @pytest.mark.parametrize("param", [
        {"n_neighbors": 2.5}, {"k_grid": (1.5, 3)}, {"max_iter": 2.5}, {"rho": 2.0},
        {"method": "sparkle"}, {"categorical_features": (5,)},
        {"categorical_features": (-1,)}, {"categorical_features": (1.7,)},
    ])
    def test_bad_parameters_rejected_at_fit(self, rng, param):
        _, holed, y = _toy(rng)
        with pytest.raises(DataError):
            GreyKNNImputer(**{"categorical_features": (2,), **param}).fit(holed, y)

    def test_bad_categorical_codes_rejected(self):
        est = GreyKNNImputer(categorical_features=(0,), n_neighbors=1)
        with pytest.raises(DataError):
            est.fit(np.array([[0.5], [1.0]]), [0, 1])

    @pytest.mark.parametrize("code", [7.0, -1.0, 2.5])
    def test_transform_rejects_codes_fit_would_reject(self, rng, code):
        _, holed, y = _toy(rng)
        est = GreyKNNImputer(n_neighbors=1, categorical_features=(2,)).fit(holed, y)
        new = np.array([[0.1, NAN, code]])
        with pytest.raises(DataError):
            est.transform(new)

    def test_code_between_seen_codes_is_refused_at_transform(self, rng):
        _, holed, y = _toy(rng)
        holed[:, 2] = np.where(holed[:, 2] == 1.0, 2.0, holed[:, 2])  # codes 0 and 2
        est = GreyKNNImputer(n_neighbors=1, categorical_features=(2,)).fit(holed, y)
        with pytest.raises(DataError, match="not seen at fit"):
            est.transform(np.array([[0.1, NAN, 1.0]]))

    def test_meanmode_transform_fills_with_training_mean_and_mode(self, rng):
        x, holed, y = _toy(rng)
        est = GreyKNNImputer(method="meanmode", categorical_features=(2,))
        completed = est.fit_transform(holed, y)
        mean_fill = completed[np.isnan(holed[:, 0]), 0][0]
        codes = holed[~np.isnan(holed[:, 2]), 2].astype(int)
        mode = float(np.argmax(np.bincount(codes)))
        new = x[:3].copy()
        new[:, 0] = NAN
        new[1:, 2] = NAN
        out = est.transform(new)
        assert np.allclose(out[:, 0], mean_fill, rtol=0.0, atol=1e-12)
        assert out[1:, 2].tolist() == [mode, mode]


class TestPipelineIntegration:
    def test_works_inside_sklearn_pipeline(self, rng):
        pipeline_mod = pytest.importorskip("sklearn.pipeline")
        tree_mod = pytest.importorskip("sklearn.tree")
        x, holed, y = _toy(rng, n=60)
        pipe = pipeline_mod.Pipeline([
            ("impute", GreyKNNImputer(method="cgknn", n_neighbors=3,
                                      categorical_features=(2,))),
            ("clf", tree_mod.DecisionTreeClassifier(random_state=0)),
        ])
        pipe.fit(holed, y)
        pred = pipe.predict(np.nan_to_num(x[:10]))
        assert pred.shape == (10,)


class TestCheckMatrix:
    def test_rejects_one_dim(self):
        with pytest.raises(DataError):
            check_matrix(np.zeros(3))

    def test_rejects_infinity(self):
        with pytest.raises(DataError):
            check_matrix(np.array([[np.inf]]))

    def test_nan_passes(self):
        out = check_matrix(np.array([[NAN, 1.0]]))
        assert np.isnan(out[0, 0])


@st.composite
def _training_sets(draw):
    """Small labeled matrices with ties, a constant column, a categorical
    column, classes that may hold a single row and rows with no observed
    cell; every column keeps at least one observed cell."""
    n = draw(st.integers(8, 24))
    levels = draw(st.integers(1, 3))
    grid = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
    x = np.column_stack([
        draw(st.lists(grid, min_size=n, max_size=n)),
        np.full(n, draw(grid)),
        draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)),
    ])
    # class 0 fills the table, class 1 is given one row or more
    y = np.zeros(n, dtype=int)
    y[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n // 2, unique=True))] = 1
    holes = np.array(draw(st.lists(st.booleans(), min_size=3 * n, max_size=3 * n)))
    holes = holes.reshape(n, 3)
    holes[draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True))] = True
    holes[0] = False
    x[holes] = NAN
    return x, y, levels


class TestBoundaryProperties:
    @given(
        _training_sets(), st.sampled_from([m.value for m in Method]), st.sampled_from([None, 1, 3])
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_and_transform_complete_every_cell(self, table, method, k):
        x, y, levels = table
        est = GreyKNNImputer(method=method, n_neighbors=k, categorical_features=(2,))
        out = est.fit_transform(x, y)
        observed = ~np.isnan(x)
        assert np.isfinite(out).all()
        assert np.array_equal(out[observed], x[observed])
        assert set(out[:, 2]) <= set(range(levels))
        if est.feature_weights_ is not None:
            assert np.isfinite(est.feature_weights_).all()
            assert est.feature_weights_.sum() == pytest.approx(1.0)
        seen = float(np.nanmax(x[:, 2]))
        new = np.array([[NAN, NAN, NAN], [0.5, NAN, NAN], [NAN, 7.0, seen]])
        filled = est.transform(new)
        assert np.isfinite(filled).all()
        assert np.array_equal(filled[~np.isnan(new)], new[~np.isnan(new)])
        assert set(filled[:, 2]) <= set(range(levels))

    @given(_training_sets(), st.sampled_from([NAN, np.float32("nan")]), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_nan_label_is_refused_at_fit(self, table, label, as_object):
        # a NaN label used to escape as a raw KeyError from the level lookup
        x, y, _ = table
        y = y.astype(object) if as_object else y.astype(float)
        y[-1] = label
        with pytest.raises(DataError, match="NaN"):
            GreyKNNImputer(n_neighbors=1, categorical_features=(2,)).fit(x, y)

    @given(_training_sets(), st.sampled_from([-1.0, 0.5, -0.5, 1.25]))
    @settings(max_examples=30, deadline=None)
    def test_negative_or_fractional_code_is_refused_at_fit(self, table, code):
        x, y, _ = table
        x[0, 2] = code
        with pytest.raises(DataError):
            GreyKNNImputer(n_neighbors=1, categorical_features=(2,)).fit(x, y)

    @given(_training_sets())
    @settings(max_examples=20, deadline=None)
    def test_categorical_column_with_no_code_seen_is_refused_at_fit(self, table):
        # fit takes a column's levels from its observed codes
        x, y, _ = table
        x[:, 2] = NAN
        with pytest.raises(DataError, match="categorical column 2"):
            GreyKNNImputer(n_neighbors=1, categorical_features=(2,)).fit(x, y)

    @given(
        _training_sets(),
        st.sampled_from(["iknn", "miknn", "gknn", "fwgknn", "cgknn"]),
        st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_row_class_and_row_with_no_observed_cell(self, table, method, k):
        # the single-row class falls back to the global pool, and the row
        # with no observed cell is a fixed row, ranked once per run
        x, y, levels = table
        y[:] = 0
        y[1] = 1
        x[1, 0] = NAN
        x[-1] = NAN
        est = GreyKNNImputer(method=method, n_neighbors=k, categorical_features=(2,))
        out = est.fit_transform(x, y)
        observed = ~np.isnan(x)
        assert np.isfinite(out).all()
        assert np.array_equal(out[observed], x[observed])
        assert set(out[:, 2]) <= set(range(levels))
        assert est.result_.used_pool_fallback == (method in ("gknn", "cgknn"))

    @given(_training_sets(), st.sampled_from(["unseen", -1.0, 0.5, 1e9]))
    @settings(max_examples=30, deadline=None)
    def test_unseen_negative_or_fractional_code_is_refused_at_transform(self, table, code):
        x, y, _ = table
        est = GreyKNNImputer(n_neighbors=1, categorical_features=(2,)).fit(x, y)
        if code == "unseen":
            code = np.nanmax(x[:, 2]) + 1.0
        with pytest.raises(DataError):
            est.transform(np.array([[0.5, NAN, code]]))

    @given(_training_sets(), st.sampled_from([m.value for m in Method]), st.sampled_from([None, 1]))
    @settings(max_examples=30, deadline=None)
    def test_sparse_codes_make_one_level_each(self, table, method, k):
        # the levels are the codes seen at fit, not every integer up to the largest
        x, y, _ = table
        x[:, 2] = np.where(x[:, 2] > 0, 1e9, x[:, 2])
        new = np.array([[NAN, NAN, NAN], [0.5, NAN, np.nanmax(x[:, 2])]])
        est = GreyKNNImputer(method=method, n_neighbors=k, categorical_features=(2,))
        tracemalloc.start()
        try:
            out = np.vstack([est.fit_transform(x, y), est.transform(new)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert set(out[:, 2]) <= set(x[~np.isnan(x[:, 2]), 2])

    @given(_training_sets(), st.sampled_from([m.value for m in Method]), st.sampled_from([None, 1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_monotone_relabelling_relabels_the_output(self, table, method, k):
        x, y, _ = table
        relabelled = x.copy()
        relabelled[:, 2] = 10.0 * x[:, 2] + 3.0
        new = np.array([[NAN, NAN, NAN], [0.5, NAN, np.nanmax(x[:, 2])], [NAN, 1.0, NAN]])
        new_relabelled = new.copy()
        new_relabelled[:, 2] = 10.0 * new[:, 2] + 3.0
        outs = []
        for table_x, table_new in ((x, new), (relabelled, new_relabelled)):
            est = GreyKNNImputer(method=method, n_neighbors=k, categorical_features=(2,))
            outs.append((est.fit_transform(table_x, y), est.transform(table_new), est))
        for a, b in zip(outs[0][:2], outs[1][:2]):
            assert a[:, :2].tobytes() == b[:, :2].tobytes()
            assert (10.0 * a[:, 2] + 3.0).tolist() == b[:, 2].tolist()
        plain, relabel = outs[0][2], outs[1][2]
        assert plain.result_.chosen_k == relabel.result_.chosen_k
        assert plain.result_.trace == relabel.result_.trace
        if plain.feature_weights_ is not None:
            assert plain.feature_weights_.tobytes() == relabel.feature_weights_.tobytes()
