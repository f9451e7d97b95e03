from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyimpute import evaluate
from greyimpute.engine import ImputeConfig
from greyimpute.errors import (
    DataError,
    DegenerateClassError,
    EmptyMaskError,
    LengthMismatchError,
)
from greyimpute.evaluate import (
    REPORT_FIELDS,
    BenchmarkSpec,
    benchmark,
    classification_accuracy,
    kfold_cv,
    nb_fit,
    nb_predict,
    no_imputation_cv,
    rmse,
)
from greyimpute.folds import effective_fold_count, stratified_fold_ids, stratified_folds
from greyimpute.io import SchemaConfig, read_csv

from _oracles import oracle_joint_log_likelihood, oracle_nb_fit, oracle_rmse
from conftest import build_dataset, layouts

NAN = float("nan")
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _truth_pair(truth_vals, imputed_vals, positions, **kw):
    truth = build_dataset(truth_vals, **kw)
    imputed = build_dataset(imputed_vals, **kw)
    return truth, imputed, np.asarray(positions, dtype=bool)


class TestRmse:
    def test_perfect_imputation(self):
        t, i, p = _truth_pair([[0.0], [1.0]], [[0.0], [1.0]], [[True], [False]])
        assert rmse(t, i, p) == 0.0

    def test_symmetric_errors(self):
        # unit-span column; imputed off by +0.1 and -0.1
        t, i, p = _truth_pair(
            [[0.0], [1.0], [0.5], [0.5]],
            [[0.0], [1.0], [0.6], [0.4]],
            [[False], [False], [True], [True]],
        )
        assert rmse(t, i, p) == pytest.approx(0.1)

    def test_categorical_zero_one(self):
        t, i, p = _truth_pair(
            [[0.0], [0.0], [1.0], [1.0]],
            [[0.0], [0.0], [1.0], [0.0]],
            [[True], [True], [True], [True]],
            categorical_levels={0: ("a", "b")},
        )
        assert rmse(t, i, p) == pytest.approx(0.5)

    def test_empty_mask_rejected(self):
        t, i, p = _truth_pair([[0.0], [1.0]], [[0.0], [1.0]], [[False], [False]])
        with pytest.raises(EmptyMaskError):
            rmse(t, i, p)

    @pytest.mark.parametrize("imputed_rows, positions_rows", [(3, 2), (2, 3), (2, 1)])
    def test_shape_mismatch_rejected(self, imputed_rows, positions_rows):
        truth = build_dataset([[0.0], [1.0]])
        imputed = build_dataset([[0.5]] * imputed_rows)
        positions = np.ones((positions_rows, 1), dtype=bool)
        with pytest.raises(DataError, match="positions"):
            rmse(truth, imputed, positions)

    def test_permutation_invariance(self, rng):
        vals = rng.random((10, 2))
        vals[0] = [0.0, 0.0]
        vals[1] = [1.0, 1.0]
        imp = vals + rng.normal(0, 0.01, vals.shape)
        imp[:2] = vals[:2]
        pos = np.zeros_like(vals, dtype=bool)
        pos[2:, :] = True
        t = build_dataset(vals)
        a = rmse(t, build_dataset(imp), pos)
        perm = rng.permutation(10)
        b = rmse(
            build_dataset(vals[perm]), build_dataset(imp[perm]), pos[perm]
        )
        assert a == pytest.approx(b)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_the_cell_by_cell_sum(self, data):
        # mixed columns, one cell up to a few thousand, errors of many
        # magnitudes, so the order of the sum shows in the last bits
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, p = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 4))
        levels = {j: ("a", "b", "c") for j in range(p) if data.draw(st.booleans())}
        truth = rng.random((n, p)) * 10.0 ** rng.integers(-3, 4, p)
        imputed = truth + rng.normal(size=(n, p)) * 10.0 ** rng.integers(-8, 1, (n, p))
        for j in levels:
            truth[:, j], imputed[:, j] = rng.integers(0, 3, n), rng.integers(0, 3, n)
        positions = rng.random((n, p)) < 0.7
        positions[rng.integers(0, n), rng.integers(0, p)] = True
        t, i = build_dataset(truth, levels), build_dataset(imputed, levels)
        assert rmse(t, i, positions) == oracle_rmse(t, i, positions)

    def test_first_missing_cell_in_row_major_order_is_named(self):
        truth = [[0.0, 1.0], [NAN, 0.5], [1.0, 0.0]]
        imputed = [[0.0, NAN], [0.2, 0.5], [1.0, NAN]]
        t, i, p = _truth_pair(truth, imputed, np.ones((3, 2)))
        message = r"cell \(0, 1\) is missing on one side"
        with pytest.raises(DataError, match=message):
            oracle_rmse(t, i, p)
        with pytest.raises(DataError, match=message):
            rmse(t, i, p)


class TestNaiveBayes:
    def test_separated_gaussians(self, rng):
        x = np.concatenate([rng.normal(-10, 1, 50), rng.normal(10, 1, 50)])[:, None]
        y = np.array([0] * 50 + [1] * 50)
        model = nb_fit(build_dataset(x, labels=y))
        assert nb_predict(model, np.array([[9.0]]))[0] == 1
        assert nb_predict(model, np.array([[-9.0]]))[0] == 0

    def test_chance_level_when_independent(self, rng):
        x = rng.normal(size=(500, 1))
        y = rng.integers(0, 2, size=500)
        ds = build_dataset(x, labels=y)
        acc = kfold_cv(ds, folds=5, seed=0)
        assert acc == pytest.approx(0.5, abs=0.1)

    def test_unseen_level_handled_by_smoothing(self):
        values = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        ds = build_dataset(values, categorical_levels={0: ("a", "b", "c")}, labels=y)
        model = nb_fit(ds)
        # level c never observed in training; smoothing keeps it finite
        pred = nb_predict(model, np.array([[2.0]]))
        assert pred[0] in (0, 1)

    def test_mixed_features(self, rng):
        cont = np.concatenate([rng.normal(-3, 1, 40), rng.normal(3, 1, 40)])
        cat = np.concatenate([np.zeros(40), np.ones(40)])
        values = np.column_stack([cont, cat])
        y = np.array([0] * 40 + [1] * 40)
        ds = build_dataset(values, categorical_levels={1: ("u", "v")}, labels=y)
        model = nb_fit(ds)
        assert nb_predict(model, np.array([[2.5, 1.0]]))[0] == 1

    def test_degenerate_class_rejected(self):
        ds = build_dataset([[1.0], [2.0], [3.0]], labels=[0, 0, 1])
        with pytest.raises(DegenerateClassError):
            nb_fit(ds)

    def test_log_space_stability_at_extremes(self, rng):
        x = np.array([[1e6], [-1e6]] * 5)
        y = np.array([0, 1] * 5)
        model = nb_fit(build_dataset(x, labels=y))
        pred = nb_predict(model, np.array([[1e6], [-1e6]]))
        assert pred.tolist() == [0, 1]

    @pytest.mark.parametrize("row", [
        [NAN, 0.0], [np.inf, 0.0], [-np.inf, 0.0],  # non-finite continuous cell
        [0.0, -1.0], [0.0, 3.0], [0.0, 1.7], [0.0, NAN],  # not a level code
        [0.0], [0.0, 1.0, 2.0],  # wrong width
    ], ids=["nan", "inf", "-inf", "code-1", "code3", "code1.7", "code-nan", "narrow", "wide"])
    def test_malformed_row_is_data_error(self, row):
        values = np.column_stack([np.arange(6.0), [0, 1, 2, 0, 1, 2]])
        ds = build_dataset(values, categorical_levels={1: ("a", "b", "c")}, labels=[0, 1] * 3)
        model = nb_fit(ds)
        assert nb_predict(model, [0.0, 2.0]).shape == (1,)
        with pytest.raises(DataError):
            nb_predict(model, row)

    @pytest.mark.parametrize("row, code", [(2, 3.0), (3, 3.0), (0, -1.0), (4, 1.5)],
                             ids=["past-levels-class0", "past-levels-last-class", "negative", "fraction"])
    def test_bad_training_code_names_its_column(self, row, code):
        # a code of 3 in class 0 used to be counted into class 1's table; in
        # the last class it ran off the table with numpy's ValueError
        codes = np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])
        codes[row] = code
        ds = build_dataset(np.column_stack([np.arange(6.0), codes]),
                           categorical_levels={1: ("a", "b", "c")}, labels=[0, 1] * 3)
        with pytest.raises(DataError, match="column 'f1' holds a code"):
            nb_fit(ds)


@st.composite
def _nb_tables(draw):
    """Labeled mixed tables for the naive-Bayes oracle: 1 to 29 features,
    up to 5 categorical columns of 2 to 4 levels, 2 to 5 classes of uneven
    sizes (4 to 40 rows), columns scaled from 1e-3 to 1e3, and optionally
    a constant column and one constant within each class, whose variances
    hit the floor. Also a copy with about 10% of the cells missing."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 5))
    labels = rng.permutation(np.repeat(np.arange(m), rng.integers(4, 41, size=m)))
    n = len(labels)
    p = draw(st.integers(1, 29))
    values = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
    levels = {}
    for j in rng.choice(p, size=draw(st.integers(0, min(5, p))), replace=False):
        k = int(rng.integers(2, 5))
        levels[int(j)] = tuple(f"l{i}" for i in range(k))
        values[:, j] = rng.integers(0, k, size=n)
    cont = np.setdiff1d(np.arange(p), list(levels))
    if cont.size and draw(st.booleans()):
        values[:, rng.choice(cont)] = 2.5
    if cont.size and draw(st.booleans()):
        values[:, rng.choice(cont)] = 0.5 * labels
    gappy = np.where(rng.random((n, p)) < 0.1, NAN, values)
    return values, gappy, levels, labels


def _outcome(cv, *args):
    """A cross-validation's accuracy as exact hex, or its error."""
    try:
        return cv(*args).hex()
    except DataError as exc:
        return type(exc), str(exc)


class TestNaiveBayesOracle:
    """The per-class block fit and the broadcast scores give the same bits
    as the per-feature code they replaced (kept in ``_oracles``), whatever
    the layout of the table or of the rows scored."""

    @given(_nb_tables(), st.sampled_from([2, 3, 10]), st.integers(0, 99))
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_the_per_feature_code(self, table, folds, seed):
        values, gappy, levels, labels = table
        for layout in layouts(values)[:2]:
            ds = build_dataset(layout, levels, labels)
            model, reference = nb_fit(ds), oracle_nb_fit(ds)
            for name in ("log_prior", "cont_mean", "cont_var", "categorical"):
                assert getattr(model, name).tobytes() == getattr(reference, name).tobytes(), name
            assert model.n_classes == reference.n_classes
            assert model.cat_log_lik.keys() == reference.cat_log_lik.keys()
            for j, lik in reference.cat_log_lik.items():
                assert model.cat_log_lik[j].tobytes() == lik.tobytes()
            scores = oracle_joint_log_likelihood(reference, values)
            for rows in layouts(values):
                assert evaluate._joint_log_likelihood(model, rows).tobytes() == scores.tobytes()
                assert np.array_equal(nb_predict(model, rows), np.argmax(scores, axis=1))
        ds = build_dataset(values, levels, labels)
        holed = build_dataset(np.asfortranarray(gappy), levels, labels)
        with patch.object(evaluate, "nb_fit", oracle_nb_fit), patch.object(
            evaluate, "_joint_log_likelihood", oracle_joint_log_likelihood
        ):
            expected = [_outcome(kfold_cv, ds, folds, seed),
                        _outcome(no_imputation_cv, holed, folds, seed)]
        assert [_outcome(kfold_cv, ds, folds, seed),
                _outcome(no_imputation_cv, holed, folds, seed)] == expected


class TestClassificationAccuracy:
    def test_identical(self):
        assert classification_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert classification_accuracy([1, 1], [0, 0]) == 0.0

    def test_three_of_four(self):
        assert classification_accuracy([1, 1, 0, 0], [1, 1, 0, 1]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            classification_accuracy([1], [1, 2])


class TestKfold:
    def test_separable_data(self, rng):
        x = np.vstack([rng.normal(-5, 0.5, (30, 2)), rng.normal(5, 0.5, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        assert kfold_cv(build_dataset(x, labels=y), folds=5, seed=1) == 1.0

    def test_fold_assignment_deterministic(self):
        labels = np.array([0, 1] * 20)
        a = stratified_fold_ids(labels, 5, seed=7)
        b = stratified_fold_ids(labels, 5, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, stratified_fold_ids(labels, 5, seed=8))

    def test_folds_are_stratified(self):
        labels = np.array([0] * 20 + [1] * 20)
        ids = stratified_fold_ids(labels, 4, seed=3)
        for f in range(4):
            fold_labels = labels[ids == f]
            assert np.bincount(fold_labels).tolist() == [5, 5]

    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=40),
        st.integers(2, 12),
        st.integers(0, 99),
    )
    @settings(max_examples=100, deadline=None)
    def test_splits_partition_the_rows_as_the_fold_ids_group_them(self, labels, requested, seed):
        labels = np.array(labels)
        ids = stratified_fold_ids(labels, effective_fold_count(labels, requested), seed)
        splits = list(stratified_folds(labels, requested, seed))
        assert len(splits) == effective_fold_count(labels, requested)
        for f, (train, held) in enumerate(splits):
            assert held.tolist() == np.flatnonzero(ids == f).tolist()
            assert train.tolist() == np.flatnonzero(ids != f).tolist()
        held = np.concatenate([held for _, held in splits])
        assert sorted(held.tolist()) == list(range(len(labels)))

    def test_splits_need_labels(self):
        with pytest.raises(DataError, match="class labels"):
            stratified_folds(None, 5, 0)

    def test_fold_count_reduced_for_small_classes(self, rng):
        x = rng.normal(size=(12, 1))
        y = np.array([0] * 9 + [1] * 3)
        acc = kfold_cv(build_dataset(x, labels=y), folds=10, seed=0)
        assert 0.0 <= acc <= 1.0  # would raise without the reduction


class TestNoImputationBaseline:
    def test_complete_data_matches_plain_cv(self, rng):
        x = np.vstack([rng.normal(-4, 1, (30, 2)), rng.normal(4, 1, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        ds = build_dataset(x, labels=y)
        assert no_imputation_cv(ds, 5, 3) == kfold_cv(ds, 5, 3)

    def test_runs_on_incomplete_data(self, rng):
        x = np.vstack([rng.normal(-4, 1, (30, 2)), rng.normal(4, 1, (30, 2))])
        x[rng.random((60, 2)) < 0.15] = NAN
        y = np.array([0] * 30 + [1] * 30)
        ds = build_dataset(x, labels=y)
        acc = no_imputation_cv(ds, 5, 3)
        assert 0.5 <= acc <= 1.0


class TestBenchmark:
    def _small_spec(self, **kw):
        defaults = dict(
            dataset="cubes",
            methods=("meanmode", "cgknn"),
            rates=(0.1,),
            seeds=(1, 2),
            mechanism="mcar",
            mcar_columns=("x1",),
            timing=False,
        )
        defaults.update(kw)
        return BenchmarkSpec(**defaults)

    def test_single_cell_single_row(self):
        spec = self._small_spec(methods=("meanmode",), seeds=(1,))
        rows = benchmark(spec)
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "meanmode" and row["error"] is None
        assert row["rmse"] > 0

    def test_grid_shape_and_ordering(self):
        rows = benchmark(self._small_spec())
        assert len(rows) == 4
        assert all(tuple(r) == REPORT_FIELDS for r in rows)
        assert [r["method"] for r in rows] == ["meanmode"] * 2 + ["cgknn"] * 2
        assert all(r["baseline_accuracy"] is not None for r in rows)

    def test_mean_mode_is_worst(self):
        rows = benchmark(self._small_spec())
        mm = np.mean([r["rmse"] for r in rows if r["method"] == "meanmode"])
        cg = np.mean([r["rmse"] for r in rows if r["method"] == "cgknn"])
        assert mm > cg

    def test_mar_mechanism_on_mvn(self):
        spec = BenchmarkSpec(
            dataset="mvn", methods=("meanmode",), rates=(0.1,), seeds=(1,),
            mechanism="mar", timing=False,
        )
        rows = benchmark(spec)
        assert rows[0]["error"] is None and rows[0]["rmse"] > 0

    def test_file_dataset_source(self, rng):
        x = rng.normal(size=(40, 2))
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        ds = build_dataset(x, labels=y)
        spec = BenchmarkSpec(
            dataset=ds, methods=("iknn",), rates=(0.2,), seeds=(5,),
            mcar_columns=("f0",), config=ImputeConfig(k=3), timing=False,
        )
        rows = benchmark(spec)
        assert rows[0]["error"] is None

    def test_bad_rate_rejected(self):
        with pytest.raises(DataError):
            self._small_spec(rates=(1.5,))

    def test_unknown_method_rejected(self):
        with pytest.raises(DataError, match="valid methods"):
            self._small_spec(methods=("meanmode", "sparkle"))

    def test_failed_baseline_marks_its_rows_and_the_sweep_goes_on(self):
        config = SchemaConfig.from_text((DATA_DIR / "iris.schema.cfg").read_text())
        iris = read_csv((DATA_DIR / "iris.csv").read_text(), config)
        spec = BenchmarkSpec(
            dataset=iris, methods=("meanmode", "gknn"), rates=(0.3, 0.4, 0.5), seeds=(1, 2),
            mcar_columns=tuple(f.name for f in iris.schema.features), timing=False,
        )
        rows = benchmark(spec)
        assert len(rows) == 12 and all(tuple(r) == REPORT_FIELDS for r in rows)
        for row in rows:
            if row["missing_rate"] < 0.5:
                assert row["error"] is None and row["baseline_accuracy"] is not None
                assert row["rmse"] is not None
            else:  # too few complete versicolor rows to fit the baseline
                assert row["error"].startswith("no-imputation baseline: class 'versicolor' has")
                assert row["baseline_accuracy"] is None and row["rmse"] is None
                assert row["wall_time_ms"] == 0.0

    def test_failures_recorded_not_raised(self):
        # k larger than any candidate pool forces a per-cell failure
        spec = self._small_spec(methods=("cgknn",), seeds=(1,), config=ImputeConfig(k=400))
        rows = benchmark(spec)
        assert rows[0]["error"] is not None
        assert rows[0]["rmse"] is None
