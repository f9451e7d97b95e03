import numpy as np
import pytest

from greyimpute.errors import DataError
from greyimpute.estimator import GreyKNNImputer, check_matrix

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
        {"method": "sparkle"},
    ])
    def test_bad_parameters_rejected_at_fit(self, rng, param):
        _, holed, y = _toy(rng)
        with pytest.raises(DataError):
            GreyKNNImputer(categorical_features=(2,), **param).fit(holed, y)

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
