from dataclasses import replace

import numpy as np
import pytest

from greyimpute._rng import make_rng
from greyimpute.dataset import Dataset, validate
from greyimpute.errors import DataError, PredictorMissingError
from greyimpute.synth import (
    MarSpec,
    _random_correlation,
    gen_cubes,
    gen_mvn_mar,
    inject_mar,
    inject_mcar,
)



class TestGenCubes:
    def test_shape_and_classes(self):
        ds = gen_cubes(0)
        assert (ds.n, ds.p) == (400, 23)
        assert np.bincount(ds.labels).tolist() == [200, 200]
        assert ds.schema.class_levels == ("1", "2")

    def test_relevant_feature_extents(self):
        ds = gen_cubes(1)
        x1 = ds.values[:, 0]
        assert x1.min() >= -0.7 and x1.max() <= 0.5
        assert ds.values[:, 1].min() >= -0.7 and ds.values[:, 1].max() <= 0.1
        noise = ds.values[:, 3:]
        assert noise.min() >= -1.0 and noise.max() <= 1.0

    def test_deterministic_per_seed(self):
        a, b = gen_cubes(7), gen_cubes(7)
        assert a.values.tobytes() == b.values.tobytes()
        assert not np.array_equal(gen_cubes(8).values, a.values)

    def test_validates_clean(self):
        assert validate(gen_cubes(3)).ok


class TestRandomCorrelation:
    def test_positive_definite_unit_diagonal(self):
        for seed in range(20):
            corr = _random_correlation(5, make_rng(seed, "generate"))
            assert np.allclose(corr, corr.T)
            assert np.allclose(np.diag(corr), 1.0)
            assert np.linalg.eigvalsh(corr).min() > 0


class TestGenMvnMar:
    def test_shape_and_spec(self):
        ds, spec = gen_mvn_mar(0)
        assert (ds.n, ds.p) == (400, 5)
        assert np.bincount(ds.labels).tolist() == [100] * 4
        assert spec.targets == (3, 4) and spec.predictors == (0, 1, 2)

    def test_class_means_distinct(self):
        ds, _ = gen_mvn_mar(5)
        means = np.array([ds.values[ds.labels == y].mean(axis=0) for y in range(4)])
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.linalg.norm(means[a] - means[b]) > 1e-3

    def test_validates_clean_and_deterministic(self):
        a, _ = gen_mvn_mar(9)
        b, _ = gen_mvn_mar(9)
        assert validate(a).ok
        assert a.values.tobytes() == b.values.tobytes()


class TestInjectMcar:
    def test_rate_zero_is_identity(self):
        ds = gen_cubes(1)
        out = inject_mcar(ds, ["x1"], 0.0, 3)
        assert out.equals(ds)

    def test_binomial_count_concentration(self):
        ds = gen_cubes(2)
        counts = [
            (~inject_mcar(ds, ["x1"], 0.1, seed).mask[:, 0]).sum()
            for seed in range(100)
        ]
        assert 36 <= np.mean(counts) <= 44

    def test_existing_missing_cells_unaffected(self):
        ds = gen_cubes(3)
        first = inject_mcar(ds, ["x1"], 0.2, 1)
        second = inject_mcar(first, ["x1"], 0.2, 2)
        was_missing = ~first.mask[:, 0]
        assert (~second.mask[:, 0])[was_missing].all()
        assert (~second.mask[:, 0]).sum() >= was_missing.sum()

    def test_values_only_flip_to_missing(self):
        ds = gen_cubes(4)
        out = inject_mcar(ds, ["x1", "x2"], 0.3, 9)
        still = out.mask
        assert np.array_equal(out.values[still], ds.values[still])

    def test_bad_rate_rejected(self):
        with pytest.raises(DataError):
            inject_mcar(gen_cubes(0), ["x1"], 1.5, 0)

    @pytest.mark.parametrize("columns", [["x1", "x1"], ["x1", 0], ["x2", -22]])
    def test_column_named_twice_rejected(self, columns):
        with pytest.raises(DataError, match="named twice"):
            inject_mcar(gen_cubes(1), columns, 0.3, 5)


class TestInjectMar:
    def test_monotone_dependence_on_predictor(self):
        ds, _ = gen_mvn_mar(2)
        spec = MarSpec(
            targets=(3,), predictors=(0,),
            coefficients=((4.0,),), target_rate=0.5,
        )
        x1 = ds.values[:, 0]
        top = x1 >= np.quantile(x1, 0.75)
        bottom = x1 <= np.quantile(x1, 0.25)
        wins = 0
        for seed in range(30):
            miss = ~inject_mar(ds, spec, seed).mask[:, 3]
            wins += miss[top].mean() > miss[bottom].mean()
        assert wins >= 28

    def test_calibrated_rate(self):
        for seed in range(5):
            ds, spec = gen_mvn_mar(seed)
            out = inject_mar(ds, spec, 100 + seed)
            for j in spec.targets:
                rate = (~out.mask[:, j]).mean()
                assert 0.095 <= rate <= 0.105

    def test_calibration_miss_is_refused(self):
        # 30 rows realize rates in steps of 1/30: none within 0.005 of 0.15
        ds, spec = gen_mvn_mar(1)
        small = Dataset(ds.schema, ds.values[:30], ds.mask[:30], ds.labels[:30])
        with pytest.raises(DataError, match=r"rate 0\.15 .* closest realized rate was 0\.1(33333|66667)$"):
            inject_mar(small, replace(spec, target_rate=0.15), 1)

    def test_predictor_missing_rejected(self):
        ds, spec = gen_mvn_mar(3)
        holed = inject_mcar(ds, ["x1"], 0.1, 1)
        with pytest.raises(PredictorMissingError):
            inject_mar(holed, spec, 2)

    def test_values_preserved_under_mask(self):
        ds, spec = gen_mvn_mar(4)
        out = inject_mar(ds, spec, 11)
        assert np.array_equal(out.values[out.mask], ds.values[out.mask])

    @pytest.mark.parametrize("targets, predictors", [
        ((1,), (1, 2)), ((3,), (0, -2)), ((3,), ("x4", 0)), ((3, "x4"), (0,)), ((3,), (0, "x1")),
    ])
    def test_overlapping_targets_rejected(self, targets, predictors):
        # -2 and "x4" both name column 3; a column named twice is refused
        # whichever way it is named
        ds, spec = gen_mvn_mar(1)
        coefficients = ((1.0,) * len(predictors),) * len(targets)
        overlap = replace(spec, targets=targets, predictors=predictors, coefficients=coefficients)
        with pytest.raises(DataError, match="named twice"):
            inject_mar(ds, overlap, 1)


class TestMarSpecInvariants:
    def test_rate_bounds(self):
        with pytest.raises(DataError):
            MarSpec((3,), (0,), ((1.0,),), target_rate=1.2)

    def test_needs_target_rate(self):
        with pytest.raises(DataError):
            MarSpec((3,), (0,), ((1.0,),))


class TestMcarIndependence:
    def test_missingness_independent_of_value_quantile(self):
        # pooled over seeds: chi-square of missing x value-quartile, df=3
        ds = gen_cubes(6)
        x = ds.values[:, 0]
        edges = np.quantile(x, [0.25, 0.5, 0.75])
        bins = np.searchsorted(edges, x)
        table = np.zeros((4, 2))
        for seed in range(50):
            miss = ~inject_mcar(ds, ["x1"], 0.1, 1000 + seed).mask[:, 0]
            for b in range(4):
                table[b, 0] += (miss & (bins == b)).sum()
                table[b, 1] += (~miss & (bins == b)).sum()
        row = table.sum(axis=1, keepdims=True)
        col = table.sum(axis=0, keepdims=True)
        expected = row * col / table.sum()
        chi2 = ((table - expected) ** 2 / expected).sum()
        assert chi2 < 16.27  # df=3 at p ~ 0.001
