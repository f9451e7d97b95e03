import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyimpute import relevance
from greyimpute.dataset import Dataset, Schema
from greyimpute.errors import DataError, EmptyInputError, LengthMismatchError
from greyimpute.io import SchemaConfig, read_csv
from greyimpute.relevance import (
    MIEstimate,
    class_weights,
    conditional_entropy_discrete,
    dataset_class_weights,
    entropy_discrete,
    feature_feature_weights,
    mutual_information,
    parzen_conditional_entropy,
)
from greyimpute.synth import gen_cubes

from _oracles import oracle_feature_feature_weights, oracle_parzen_conditional_entropy
from conftest import build_dataset, layouts

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


class TestEntropyDiscrete:
    def test_fair_coin(self):
        assert entropy_discrete([1, 1]) == pytest.approx(1.0)

    def test_uniform_over_four(self):
        assert entropy_discrete([1, 1, 1, 1]) == pytest.approx(2.0)

    def test_skewed(self):
        # -0.25 log2 0.25 - 0.75 log2 0.75
        assert entropy_discrete([1, 3]) == pytest.approx(0.811278124459, abs=1e-9)

    def test_point_mass(self):
        assert entropy_discrete([5, 0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            entropy_discrete([0, 0])


class TestConditionalEntropyDiscrete:
    def test_perfect_dependence(self):
        assert conditional_entropy_discrete([[3, 0], [0, 2]]) == pytest.approx(0.0)

    def test_independence(self):
        assert conditional_entropy_discrete([[1, 1], [1, 1]]) == pytest.approx(1.0)

    def test_plug_in_value(self):
        assert conditional_entropy_discrete([[2, 1], [1, 2]]) == pytest.approx(
            0.918295834054, abs=1e-9
        )

    def test_bounded_by_class_entropy(self, rng):
        for _ in range(20):
            table = rng.integers(0, 10, size=(3, 4)) + 1
            h_y = entropy_discrete(table.sum(axis=0))
            h = conditional_entropy_discrete(table)
            assert -1e-12 <= h <= h_y + 1e-12


class TestParzenConditionalEntropy:
    def test_separated_classes(self, rng):
        x = np.concatenate([rng.normal(-10, 0.5, 20), rng.normal(10, 0.5, 20)])
        y = np.array([0] * 20 + [1] * 20)
        assert parzen_conditional_entropy(x, y, 2) <= 0.05

    def test_independent_feature(self, rng):
        x = rng.normal(size=200)
        y = rng.integers(0, 2, size=200)
        h = parzen_conditional_entropy(x, y, 2)
        h_y = entropy_discrete(np.bincount(y))
        assert abs(h - h_y) <= 0.1

    def test_single_class_is_zero(self, rng):
        x = rng.normal(size=30)
        assert parzen_conditional_entropy(x, np.zeros(30, dtype=int), 1) == 0.0

    def test_classes_past_the_kernel_cutoff_are_certain(self):
        # 190 rows near 0 and 10 near 1 sit about 11.8 bandwidths apart, past
        # the 9 h cut-off, so every cross-class sum is exactly 0; the FFT's
        # rounding leaves about 1e-16 there unless it is set back to 0
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0.0, 0.05, 190), rng.uniform(1.0, 1.05, 10)])
        y = np.repeat([0, 1], [190, 10])
        h = relevance.BANDWIDTH_FACTOR * np.std(x, ddof=1) * len(x) ** -0.2
        assert 0.95 > relevance.KERNEL_CUTOFF * h
        assert parzen_conditional_entropy(x, y, 2) == 0.0
        assert mutual_information(x, y, False, 2).mi == entropy_discrete([190, 10])

    def test_constant_feature_hits_bandwidth_floor(self):
        x = np.full(10, 3.0)
        y = np.array([0, 1] * 5)
        h = parzen_conditional_entropy(x, y, 2)
        assert h == pytest.approx(1.0)  # posterior falls back to the priors


class TestParzenClosedForm:
    """On the cube geometry the exact MI is known: x1 separates the classes
    (1 bit), the classes' x2 intervals touch only at their ends (1 bit) and
    a quarter of the rows lie in an x3 band both classes share half and half
    (0.75 bit). Silverman's bandwidth smooths across the class boundaries and
    underestimates all three; a narrower window must close the gap."""

    EXACT = np.array([1.0, 1.0, 0.75])

    def test_gap_shrinks_with_the_bandwidth(self, monkeypatch):
        cubes = [gen_cubes(seed) for seed in range(1, 11)]
        gaps = []
        for factor in (1.06, 0.5, 0.25, 0.1):
            monkeypatch.setattr(relevance, "BANDWIDTH_FACTOR", factor)
            mi = np.mean([
                [mutual_information(d.values[:, j], d.labels, False, 2).mi for j in range(3)]
                for d in cubes
            ], axis=0)
            gaps.append(np.abs(mi - self.EXACT))
        gaps = np.array(gaps)  # factor x feature
        assert (np.diff(gaps, axis=0) <= 0).all() and (gaps[-1] < gaps[0]).all(), gaps
        assert (gaps[-1] <= 0.07).all(), gaps


class TestParzenBinning:
    """The binned class sums against the exact n x n sum of the oracle."""

    # largest gap measured on these inputs: 6.1e-6 bit (iris petal width)
    BOUND = 1e-5

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(11)
        cube = gen_cubes(2)
        for j in (0, 1, 2, 3):
            yield f"cube x{j + 1}", cube.values[:, j], cube.labels, 2
        config = SchemaConfig.from_text((DATA_DIR / "iris.schema.cfg").read_text())
        iris = read_csv((DATA_DIR / "iris.csv").read_text(), config)
        for j in range(iris.p):
            yield f"iris {j}", iris.values[:, j], iris.labels, 3
        y = rng.integers(0, 2, size=200)
        yield "constant", np.full(200, 3.0), y, 2
        yield "two-valued", rng.integers(0, 2, size=200).astype(float), y, 2
        outlier = rng.normal(size=200)
        outlier[17] = 1e6
        yield "far outlier", outlier, y, 2
        yield "heavy ties", np.round(rng.normal(size=300), 0), rng.integers(0, 3, size=300), 3
        yield "single class", rng.normal(size=100), np.zeros(100, dtype=int), 1

    def test_gap_to_exact_sum_is_bounded(self):
        for name, x, y, m in self._inputs():
            binned = parzen_conditional_entropy(x, y, m)
            exact = oracle_parzen_conditional_entropy(x.tolist(), y.tolist(), m)
            assert abs(binned - exact) <= self.BOUND, (name, binned, exact)

    def test_outlier_grid_stays_small(self):
        # the grid spans the range in steps of h / 128; an outlier widens h
        # as much as the range, so this call stays within a few MB
        x = np.concatenate([np.zeros(3999), [1e12]])
        y = np.arange(4000) % 2
        tracemalloc.start()
        try:
            parzen_conditional_entropy(x, y, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_class_weights_memory_does_not_grow_with_n_squared(self):
        # the dense n x n kernels peaked near 1.5 GB at 8000 rows
        parts = [gen_cubes(seed) for seed in range(1, 21)]
        cols = [0, 1, 3]
        schema = parts[0].schema
        narrow = Schema(
            tuple(schema.features[j] for j in cols), schema.class_column, schema.class_levels
        )
        values = np.vstack([part.values[:, cols] for part in parts])
        labels = np.concatenate([part.labels for part in parts])
        ds = Dataset(narrow, values, np.ones_like(values, dtype=bool), labels)
        tracemalloc.start()
        try:
            dataset_class_weights(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == 8000
        assert peak < 300 * 2**20


class TestMutualInformation:
    def test_feature_equals_label(self):
        x = np.array([0.0, 1.0] * 10)
        y = np.array([0, 1] * 10)
        est = mutual_information(x, y, categorical=True, n_classes=2, n_levels=2)
        assert est.estimator == "histogram"
        assert est.mi == pytest.approx(1.0)

    def test_independent_continuous_feature(self, rng):
        x = rng.normal(size=500)
        y = rng.integers(0, 2, size=500)
        est = mutual_information(x, y, categorical=False, n_classes=2)
        assert est.estimator == "parzen"
        assert est.mi <= 0.05

    def test_histogram_matches_double_sum_oracle(self, rng):
        # plug-in MI as the literal double sum over the joint distribution
        for _ in range(20):
            x = rng.integers(0, 3, size=40)
            y = rng.integers(0, 2, size=40)
            est = mutual_information(x.astype(float), y, True, 2, 3)
            joint = np.zeros((3, 2))
            np.add.at(joint, (x, y), 1.0)
            joint /= joint.sum()
            px, py = joint.sum(axis=1), joint.sum(axis=0)
            direct = sum(
                joint[a, b] * math.log2(joint[a, b] / (px[a] * py[b]))
                for a in range(3)
                for b in range(2)
                if joint[a, b] > 0
            )
            assert est.mi == pytest.approx(max(0.0, direct), abs=1e-12)

    def test_level_relabeling_invariance(self, rng):
        x = rng.integers(0, 4, size=60).astype(float)
        y = rng.integers(0, 3, size=60)
        base = mutual_information(x, y, True, 3, 4).mi
        relabeled = (3 - x).astype(float)  # monotone relabeling of level ids
        assert mutual_information(relabeled, y, True, 3, 4).mi == pytest.approx(base)

    def test_cube_features_regression(self):
        # frozen values of this estimator on the cube scenario, averaged
        # over ten seeds; ordering and the noise ceiling are the contract
        mis = []
        for seed in range(1, 11):
            _, estimates = dataset_class_weights(gen_cubes(seed))
            mis.append([e.mi for e in estimates])
        mis = np.array(mis)
        x1, x2, x3 = mis[:, :3].mean(axis=0)
        assert x1 == pytest.approx(0.888, abs=0.03)
        assert x2 == pytest.approx(0.330, abs=0.03)
        assert x3 == pytest.approx(0.222, abs=0.03)
        assert x1 > x2 > x3
        assert mis[:, 3:].mean(axis=0).max() <= 0.05

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_continuous_cell_is_refused(self, rng, cell):
        # a NaN cell used to come back as MI = H(Y), the largest weight
        x = rng.normal(size=50)
        x[7] = cell
        with pytest.raises(DataError, match="NaN or inf"):
            mutual_information(x, np.arange(50) % 2, False, 2)

    @pytest.mark.parametrize("code", [0.5, 3.0, -1.0, np.nan])
    def test_bad_categorical_code_is_refused(self, code):
        x = np.array([0.0, 1.0, 2.0] * 4)
        x[5] = code
        with pytest.raises(DataError, match=r"categorical codes .*\[0, 3\)"):
            mutual_information(x, np.arange(12) % 2, True, 2, 3)

    @pytest.mark.parametrize("categorical", [True, False])
    @pytest.mark.parametrize("label", [2, -1, 0.5])
    def test_bad_label_is_refused(self, categorical, label):
        y = (np.arange(12) % 2).astype(float)
        y[3] = label
        with pytest.raises(DataError, match=r"class labels .*\[0, 2\)"):
            mutual_information(np.arange(12.0) % 3, y, categorical, 2, 3)

    @pytest.mark.parametrize("categorical", [True, False])
    def test_length_mismatch_is_refused(self, categorical):
        with pytest.raises(LengthMismatchError):
            mutual_information(np.arange(12.0) % 3, np.arange(11) % 2, categorical, 2, 3)

class TestClassWeights:
    def test_normalizes_published_style_values(self):
        est = [MIEstimate(v, "parzen") for v in (0.40, 0.28, 0.21)]
        w = class_weights(est)
        assert w == pytest.approx([0.449438, 0.314607, 0.235955], abs=1e-5)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_falls_back_to_uniform(self):
        w = class_weights([MIEstimate(0.0, "parzen")] * 4)
        assert w.tolist() == [0.25] * 4

    def test_single_feature(self):
        assert class_weights([MIEstimate(0.7, "parzen")]).tolist() == [1.0]

    def test_permutation_equivariance(self, rng):
        vals = [MIEstimate(v, "parzen") for v in rng.random(5)]
        w = class_weights(vals)
        perm = [4, 2, 0, 1, 3]
        w_perm = class_weights([vals[i] for i in perm])
        assert np.allclose(w_perm, w[perm])


class TestFeatureFeatureWeights:
    def test_duplicated_features_outweigh_noise(self, rng):
        a = rng.normal(size=120)
        noise = rng.normal(size=120)
        ds = build_dataset(np.column_stack([a, a, noise]))
        w = feature_feature_weights(ds)
        assert w[0] > w[2] and w[1] > w[2]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_independent_features_near_uniform(self, rng):
        ds = build_dataset(rng.normal(size=(300, 2)))
        w = feature_feature_weights(ds)
        assert w == pytest.approx([0.5, 0.5], abs=0.05)

    def test_single_feature(self, rng):
        ds = build_dataset(rng.normal(size=(20, 1)))
        assert feature_feature_weights(ds).tolist() == [1.0]


@st.composite
def _binned_tables(draw):
    """Complete tables for the inter-feature MI oracle: 2 to 30 features,
    each categorical with 2 to 6 levels, continuous with 2 to 14 distinct
    values (ties merge equal-frequency edges, leaving fewer than 10 bins) or
    continuous with no ties, so the feature pairs fall into tables of many
    shapes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(10, 150))
    p = draw(st.integers(2, 30))
    values = rng.normal(size=(n, p))
    levels = {}
    for j, kind in enumerate(rng.integers(0, 3, size=p)):
        if kind == 0:
            k = int(rng.integers(2, 7))
            levels[j] = tuple(f"l{i}" for i in range(k))
            values[:, j] = rng.integers(0, k, size=n)
        elif kind == 1:
            values[:, j] = 0.1 * rng.integers(0, rng.integers(2, 15), size=n)
    return values, levels


class TestFeatureFeatureOracle:
    """The pairs batched by table shape give the same bits as the per-pair
    loop they replaced (kept in ``_oracles``)."""

    @given(_binned_tables())
    @settings(max_examples=100, deadline=None)
    def test_same_bits_as_the_per_pair_code(self, table):
        values, levels = table
        for layout in layouts(values)[:2]:
            ds = build_dataset(layout, levels)
            got = feature_feature_weights(ds)
            assert np.array_equal(got, oracle_feature_feature_weights(ds)), got


class TestWeightInvariants:
    def test_mi_bounded_by_class_entropy(self, rng):
        for _ in range(10):
            n = 80
            x = rng.normal(size=n)
            y = rng.integers(0, 3, size=n)
            est = mutual_information(x, y, False, 3)
            h_y = entropy_discrete(np.bincount(y, minlength=3))
            assert 0.0 <= est.mi <= h_y + 1e-9
            assert est.mi <= math.log2(3) + 1e-9
