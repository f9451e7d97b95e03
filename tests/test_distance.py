import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyimpute.distance import GreyMetric, HeomMetric, _bounds, _gaps

from _oracles import oracle_bounds, oracle_grg, oracle_heom

NAN = float("nan")

# The kernels require complete candidate rows, so a NaN appears only on
# the query side below.


def heom_pair(a, b, cat, weights=None):
    metric = HeomMetric(cat, weights)
    return metric.distances(np.array([a], float), np.array([b], float))[0, 0]


def grades(query, candidates, cat, weights=None):
    """Grey relational grades of each candidate against the query, under
    bounds shared by the whole candidate matrix."""
    metric = GreyMetric(cat, 0.5, weights)
    return 1.0 - metric.distances(np.array([query], float), np.asarray(candidates, float))[0]


def bounds(query, candidates, cat):
    """The grey delta bounds of one query against a candidate matrix."""
    gaps = _gaps(np.array([query], float), np.asarray(candidates, float))
    dmin, dmax = _bounds(gaps, np.asarray(cat, dtype=bool))
    return float(dmin[0]), float(dmax[0])


class TestFeatureDistance:
    def test_missing_cell_gives_one(self):
        assert heom_pair([NAN], [0.3], [False]) == 1.0
        assert heom_pair([NAN], [1.0], [True]) == 1.0

    def test_categorical_overlap(self):
        assert heom_pair([0.0], [0.0], [True]) == 0.0
        assert heom_pair([0.0], [1.0], [True]) == 1.0

    def test_continuous_range_normalized(self):
        # cells are on the unit scale, so the span is 1
        assert heom_pair([0.2], [0.5], [False]) == pytest.approx(0.3)


class TestHeom:
    def test_identical_rows(self):
        a = np.array([0.4, 1.0])
        assert heom_pair(a, a, np.array([False, True])) == 0.0

    def test_mixed_pair(self):
        # (0.2, red) vs (0.5, blue): sqrt(0.3^2 + 1)
        a, b = np.array([0.2, 0.0]), np.array([0.5, 1.0])
        cat = np.array([False, True])
        assert heom_pair(a, b, cat) == pytest.approx(math.sqrt(1.09))

    def test_weights_can_silence_a_feature(self):
        a, b = np.array([0.2, 0.0]), np.array([0.5, 1.0])
        cat = np.array([False, True])
        assert heom_pair(a, b, cat, weights=np.array([1.0, 0.0])) == pytest.approx(0.3)

    def test_uniform_weights_scale_by_inverse_root_p(self, rng):
        cat = np.array([False, False, True, False])
        for _ in range(20):
            a, b = rng.random(4), np.append(rng.random(3), 1.0)
            plain = heom_pair(a, b, cat)
            uniform = heom_pair(a, b, cat, weights=np.full(4, 0.25))
            assert uniform == pytest.approx(plain / 2.0)

    def test_symmetry(self, rng):
        cat = np.array([False, True, False])
        for _ in range(20):
            a, b = rng.random(3), rng.random(3)
            assert heom_pair(a, b, cat) == heom_pair(b, a, cat)


class TestDeltaBounds:
    def test_single_candidate(self):
        q = np.array([0.0, 0.5])
        c = np.array([[0.2, 0.9]])
        assert bounds(q, c, [False, False]) == (0.2, pytest.approx(0.4))

    def test_identical_candidate(self):
        q = np.array([0.3, 0.7])
        assert bounds(q, q[None, :], [False, False]) == (0.0, 0.0)

    def test_sentinel_when_no_observed_pair(self):
        q = np.array([0.3])
        c = np.array([[NAN], [NAN]])
        assert bounds(q, c, [False]) == (0.0, 1.0)

    def test_categorical_features_excluded(self):
        q = np.array([0.0, 0.1])
        c = np.array([[1.0, 0.3]])
        assert bounds(q, c, [True, False]) == (pytest.approx(0.2), pytest.approx(0.2))

    def test_bounds_ordering_enforced(self, rng):
        # each query of a block gets its own ordered bounds, the ones it
        # has alone against the same candidates
        cat = np.array([False, True, False, False])
        for _ in range(10):
            queries = rng.random((6, 4))
            queries[:, 1] = rng.integers(0, 3, size=6)
            queries[rng.random((6, 4)) < 0.3] = NAN
            c = rng.random((9, 4))
            c[:, 1] = rng.integers(0, 3, size=9)
            dmin, dmax = _bounds(_gaps(queries, c), cat)
            assert ((0.0 <= dmin) & (dmin <= dmax)).all()
            for i, q in enumerate(queries):
                assert (dmin[i], dmax[i]) == oracle_bounds(q, c, cat)


class TestGrc:
    def test_plug_in_value(self):
        # candidates 0.4, 0.0, 0.8 give bounds (0, 0.8);
        # (0 + 0.5*0.8) / (0.4 + 0.5*0.8) = 0.5
        assert grades([0.0], [[0.4], [0.0], [0.8]], [False])[0] == pytest.approx(0.5)

    def test_missing_gives_zero(self):
        assert grades([NAN], [[0.2]], [False])[0] == 0.0

    def test_degenerate_bounds_give_one(self):
        assert grades([0.3], [[0.3]], [False])[0] == 1.0

    def test_categorical_match(self):
        assert grades([1.0], [[1.0], [0.0]], [True]).tolist() == [1.0, 0.0]


class TestGrg:
    def test_identical_rows_grade_one(self):
        a = np.array([0.2, 0.8, 1.0])
        cat = np.array([False, False, True])
        assert grades(a, [a], cat)[0] == pytest.approx(1.0)
        assert GreyMetric(cat).distances(a[None, :], a[None, :])[0, 0] == pytest.approx(0.0)

    def test_mean_of_coefficients(self):
        # one matching categorical (GRC 1), one mismatching (GRC 0)
        cat = np.array([True, True])
        assert grades([0.0, 0.0], [[0.0, 1.0]], cat)[0] == pytest.approx(0.5)

    def test_weighted_sum(self):
        cat = np.array([True, True])
        w = np.array([0.8, 0.2])
        assert grades([0.0, 0.0], [[0.0, 1.0]], cat, w)[0] == pytest.approx(0.8)


@st.composite
def row_pairs(draw):
    p = draw(st.integers(2, 5))
    cat = [draw(st.booleans()) for _ in range(p)]
    def cell(j):
        if cat[j]:
            return float(draw(st.integers(0, 2)))
        return draw(st.floats(0, 1, allow_nan=False))
    a = [cell(j) for j in range(p)]
    b = [cell(j) for j in range(p)]
    return np.array(a), np.array(b), np.array(cat)


class TestGreyAxioms:
    @given(row_pairs())
    @settings(max_examples=100, deadline=None)
    def test_normality(self, pair):
        a, b, cat = pair
        assert -1e-12 <= grades(a, [b], cat)[0] <= 1.0 + 1e-12

    @given(row_pairs())
    @settings(max_examples=100, deadline=None)
    def test_pairwise_dual_symmetry(self, pair):
        a, b, cat = pair
        # with one candidate, both directions share the bounds of the
        # two-row relational space
        assert grades(a, [b], cat)[0] == pytest.approx(grades(b, [a], cat)[0])

    def test_approachability(self):
        # larger |a_j - b_j| strictly lowers the grade, all else fixed;
        # one candidate matrix, so every candidate shares the bounds
        cat = np.array([False, False])
        candidates = [[d, 0.5] for d in (0.1, 0.3, 0.6, 0.9)]
        g = grades([0.0, 0.5], candidates, cat)
        assert all(x > y for x, y in zip(g, g[1:]))


def query_block(rng, m, p, levels):
    """m query rows with categorical columns {j: n_levels} and about a
    third of the cells missing."""
    q = rng.random((m, p))
    for j, k in levels.items():
        q[:, j] = rng.integers(0, k, size=m)
    q[rng.random((m, p)) < 0.3] = NAN
    return q


class TestBatchKernels:
    def test_heom_batch_matches_scalar_bitwise(self, rng):
        cat = np.array([False, True, False, True, False])
        for weights in (None, np.array([0.1, 0.3, 0.2, 0.25, 0.15])):
            for _ in range(10):
                q = query_block(rng, 4, 5, {1: 3, 3: 2})
                c = rng.random((8, 5))
                c[:, 1] = rng.integers(0, 3, size=8)
                c[:, 3] = rng.integers(0, 2, size=8)
                batch = HeomMetric(cat, weights).distances(q, c)
                scalar = [[oracle_heom(qi, c[i], cat, weights) for i in range(8)] for qi in q]
                assert batch.tolist() == scalar

    def test_grey_batch_matches_scalar_bitwise(self, rng):
        cat = np.array([False, False, True])
        w = np.array([0.5, 0.3, 0.2])
        for _ in range(10):
            q = query_block(rng, 4, 3, {2: 2})
            c = rng.random((6, 3))
            c[:, 2] = rng.integers(0, 2, size=6)
            metric = GreyMetric(cat, 0.5, w)
            batch = metric.distances(q, c)
            scalar = []
            for qi in q:
                dmin, dmax = oracle_bounds(qi, c, cat)
                scalar.append(
                    [1.0 - oracle_grg(qi, c[i], cat, dmin, dmax, 0.5, w) for i in range(6)]
                )
            assert batch.tolist() == scalar

    def test_grey_unweighted_equals_uniform_weights_bitwise(self, rng):
        cat = np.array([False, True, False])
        q = rng.random((2, 3))
        c = rng.random((5, 3))
        plain = GreyMetric(cat).distances(q, c)
        uniform = GreyMetric(cat, weights=np.full(3, 1.0 / 3.0)).distances(q, c)
        assert plain.tolist() == uniform.tolist()

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_block_rows_equal_one_row_blocks_bitwise(self, rng, rho):
        # rounded values tie, and a query equal to a candidate hits the
        # zero-denominator case when rho * dmax is 0
        cat = np.array([False, True, False, False])
        c = np.round(rng.random((12, 4)), 1)
        c[:, 1] = rng.integers(0, 3, size=12)
        q = np.round(query_block(rng, 7, 4, {1: 3}), 1)
        q[0] = c[3]
        w = np.array([0.4, 0.1, 0.3, 0.2])
        for metric in (GreyMetric(cat, rho, w), GreyMetric(cat, rho), HeomMetric(cat, w)):
            block = metric.distances(q, c)
            rows = np.vstack([metric.distances(q[i:i + 1], c) for i in range(len(q))])
            assert np.array_equal(block, rows)
            assert block.shape == (7, 12)
