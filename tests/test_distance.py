import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyimpute.dataset import Dataset, normalize
from greyimpute.distance import GreyMetric, GreyScreen, HeomMetric, _bounds, _gaps, _sorted_bounds
from greyimpute.engine import (
    DEFAULT_K_GRID,
    _cv_errors,
    _estimate_rows,
    _gap_cells,
    _nearest,
    _ranked_blocks,
)
from greyimpute.folds import stratified_folds
from greyimpute.relevance import dataset_class_weights
from greyimpute.synth import gen_cubes

from _oracles import oracle_bounds, oracle_grg, oracle_heom
from conftest import layouts

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


@st.composite
def screened_case(draw):
    """Candidates and queries on a coarse grid (many tied gaps and grades),
    categorical codes, maybe a constant column, NaN query cells anywhere,
    and weights that put at least 1/p on each of at most p/4 heavy
    features and less than 1/p on the light ones together, so the screen
    engages. Heavy weights of exactly 1/p (the weights then sum to less
    than one) let the light features reorder many candidates."""
    p = draw(st.integers(4, 10))
    n = draw(st.integers(1, 25))
    m = draw(st.integers(1, 5))
    levels = draw(st.integers(1, 6))
    cat = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    cells = draw(st.lists(st.integers(0, levels), min_size=(n + m) * p, max_size=(n + m) * p))
    rows = np.array(cells, dtype=float).reshape(n + m, p)
    rows[:, ~cat] /= levels
    constant = draw(st.integers(0, p))  # p: no constant column
    if constant < p:
        rows[:, constant] = rows[0, constant]
    candidates, queries = rows[:n], rows[n:]
    holes = draw(st.lists(st.sampled_from([False, False, True]), min_size=m * p, max_size=m * p))
    queries[np.array(holes).reshape(m, p)] = NAN
    heavy = np.zeros(p, dtype=bool)
    heavy[draw(st.permutations(range(p)))[:draw(st.integers(1, p // 4))]] = True
    light = draw(st.sampled_from([0.0, 0.5, 0.99])) / p
    a = np.array(draw(st.lists(st.integers(1, 5), min_size=p, max_size=p)), dtype=float)
    b = np.array(draw(st.lists(st.integers(0, 3), min_size=p, max_size=p)), dtype=float)
    b[heavy] = 0.0
    weights = np.where(heavy, 1.0 / p, 0.0)
    a[~heavy] = 0.0
    if draw(st.booleans()):
        weights += (1.0 - light - heavy.sum() / p) * a / a.sum()
    if b.sum() > 0:
        weights += light * b / b.sum()
    rho = draw(st.sampled_from([0.0, 0.5, 1.0]))
    k = draw(st.integers(1, n))
    return candidates, queries, cat, weights, rho, k


@st.composite
def adversarial_case(draw):
    """Arbitrary doubles where float32 loses the order float64 keeps:
    continuous columns clustered around an anchor at spacings of one
    float64 ulp, 1e-7 relative (float32 resolution) or 1e-4, query cells
    between cluster values or far outside [0, 1] (up to 1e300), NaN query
    cells, categorical codes, any nonempty heavy set, weights scaled by
    1e-30 to 1e30, and queries that are candidate rows with holes
    (``own``) or not."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 5))
    cat = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    anchor = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p)))
    step = np.array([
        draw(st.sampled_from([np.spacing(a), 1e-7 * abs(a), 1e-4])) for a in anchor
    ])
    # cells on a column's cluster mostly, else anywhere
    clustered = st.sampled_from([True, True, True, False])
    near = st.integers(0, 6)
    candidates = np.empty((n, p))
    for (i, j) in np.ndindex(n, p):
        if cat[j]:
            candidates[i, j] = draw(st.integers(0, 3))
        elif draw(clustered):
            candidates[i, j] = anchor[j] + draw(near) * step[j]
        else:
            candidates[i, j] = draw(st.floats(-3.0, 3.0))
    own = None
    if draw(st.booleans()):
        own = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
        queries = candidates[own].copy()
    else:
        far = st.one_of(st.floats(-50.0, 50.0), st.floats(-1e300, 1e300))
        queries = np.empty((m, p))
        for (i, j) in np.ndindex(m, p):
            if cat[j]:
                queries[i, j] = draw(st.integers(0, 4))
            elif draw(clustered):
                queries[i, j] = anchor[j] + (draw(near) - 0.5) * step[j]
            else:
                queries[i, j] = draw(far)
    holes = draw(st.lists(st.sampled_from([False] * 5 + [True]), min_size=m * p, max_size=m * p))
    queries[np.array(holes).reshape(m, p)] = NAN
    heavy = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    heavy[draw(st.integers(0, p - 1))] = True
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p)))
    weights[heavy] += 1.0
    weights[~heavy] *= draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.1]))
    weights *= 10.0 ** draw(st.integers(-30, 30))
    rho = draw(st.sampled_from([0.0, 1e-12, 0.5, 1.0]))
    k = draw(st.integers(1, n - 1 if own is not None else n))
    return candidates, queries, own, cat, heavy, weights, rho, k


@st.composite
def tiled_case(draw):
    """Enough queries on a coarse grid for several tiles, a categorical
    heavy feature (feature 0), a NaN query cell, two equal candidate rows
    (distance ties), queries that may be candidate rows with holes
    (``own``), and k up to candidates - 1; the weights engage
    :meth:`GreyMetric.screen`."""
    p = draw(st.integers(4, 8))
    n = draw(st.integers(3, 25))
    m = draw(st.integers(2, 12))
    levels = draw(st.integers(1, 4))
    cat = np.array([True] + draw(st.lists(st.booleans(), min_size=p - 1, max_size=p - 1)))
    grid = st.lists(st.integers(0, levels), min_size=n * p, max_size=n * p)
    candidates = np.array(draw(grid), dtype=float).reshape(n, p)
    candidates[:, ~cat] /= levels
    candidates[draw(st.integers(1, n - 1))] = candidates[0]
    own = None
    if draw(st.booleans()):
        own = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
        queries = candidates[own].copy()
    else:
        grid = st.lists(st.integers(0, levels), min_size=m * p, max_size=m * p)
        queries = np.array(draw(grid), dtype=float).reshape(m, p)
        queries[:, ~cat] /= levels
    holes = draw(st.lists(st.sampled_from([False, False, True]), min_size=m * p, max_size=m * p))
    queries[np.array(holes).reshape(m, p)] = NAN
    queries[draw(st.integers(0, m - 1)), draw(st.integers(0, p - 1))] = NAN
    heavy = np.arange(p) < draw(st.integers(1, p // 4))
    light = draw(st.sampled_from([0.0, 0.5, 0.99])) / p
    b = np.array(draw(st.lists(st.integers(0, 3), min_size=p, max_size=p)), dtype=float)
    b[heavy] = 0.0
    weights = np.where(heavy, (1.0 - light) / heavy.sum(), 0.0)
    if b.sum() > 0:
        weights += light * b / b.sum()
    rho = draw(st.sampled_from([0.0, 0.5, 1.0]))
    k = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    return candidates, queries, own, cat, weights, rho, k


class CountingGrey(GreyMetric):
    calls = 0

    def distances(self, queries, candidates, own=None):
        self.calls += 1
        return super().distances(queries, candidates, own)


class GradedPairs(GreyMetric):
    """Counts the (query, candidate) pairs given a full grade."""
    pairs = 0

    def _grade(self, g, *rest):
        self.pairs += g[0].size
        return super()._grade(g, *rest)


class TestScreen:
    @given(screened_case())
    @settings(max_examples=300, deadline=None)
    def test_ranking_equals_full_kernel_bitwise(self, case):
        candidates, queries, cat, weights, rho, k = case
        metric = GreyMetric(cat, rho, weights)
        screen = metric.screen(candidates)
        assert screen is not None
        dist, nearest = screen.nearest(queries, k)
        d = metric.distances(queries, candidates)
        expected = _nearest(d, k)
        assert np.array_equal(nearest, expected)
        assert dist.tobytes() == np.take_along_axis(d, expected, axis=1).tobytes()

    @given(adversarial_case())
    @settings(max_examples=500, deadline=None)
    def test_float32_partial_grade_loses_no_neighbor(self, case):
        # built directly, the screen must be exact for any heavy set and
        # any weight scale, not only where GreyMetric.screen engages it
        candidates, queries, own, cat, heavy, weights, rho, k = case
        metric = GreyMetric(cat, rho, weights)
        screen = GreyScreen(metric, candidates, np.flatnonzero(heavy), float(weights[~heavy].sum()))
        dist, nearest = screen.nearest(queries, k, own)
        d = metric.distances(queries, candidates, own)
        expected = _nearest(d, k)
        assert np.array_equal(nearest, expected)
        assert dist.tobytes() == np.take_along_axis(d, expected, axis=1).tobytes()

    @pytest.mark.parametrize("tile", [1, 3, None])
    @pytest.mark.parametrize("step", [1, None])
    @given(case=tiled_case())
    @settings(max_examples=100, deadline=None)
    def test_tiles_and_steps_give_the_full_kernel_bits(self, tile, step, case):
        # one or three queries per tile or the default tiles, one survivor
        # per step or the default steps: each tile cuts from its own rows
        candidates, queries, own, cat, weights, rho, k = case
        metric = GreyMetric(cat, rho, weights)
        screen = metric.screen(candidates)
        assert screen is not None and 1 < len(queries) <= screen.tile
        screen.tile = tile or screen.tile
        screen.step = step or screen.step
        dist, nearest = screen.nearest(queries, k, own)
        d = metric.distances(queries, candidates, own)
        expected = _nearest(d, k)
        assert np.array_equal(nearest, expected)
        assert dist.tobytes() == np.take_along_axis(d, expected, axis=1).tobytes()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sorted_column_bounds_equal_gap_bounds_bitwise(self, data):
        # arbitrary doubles, including queries outside the candidates' span
        p = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 20))
        m = data.draw(st.integers(1, 5))
        cat = np.array(data.draw(st.lists(st.booleans(), min_size=p, max_size=p)))
        cell = st.floats(-2.0, 3.0, allow_nan=False)
        c = np.array(data.draw(st.lists(cell, min_size=n * p, max_size=n * p))).reshape(n, p)
        cells = st.one_of(cell, st.just(NAN))
        q = np.array(data.draw(st.lists(cells, min_size=m * p, max_size=m * p))).reshape(m, p)
        dmin, dmax = _sorted_bounds(q, np.sort(c[:, ~cat], axis=0).T, ~cat)
        emin, emax = _bounds(_gaps(q, c), cat)
        assert dmin.tobytes() == emin.tobytes()
        assert dmax.tobytes() == emax.tobytes()

    @pytest.mark.parametrize("weights", [
        None,
        np.full(8, 0.125),  # uniform: every feature heavy
        np.array([0.6, 0.35, 0.05, -0.05, 0.05, 0.0, 0.0, 0.0]),  # negative
        np.array([0.6, 0.35, NAN, 0.0, 0.0, 0.0, 0.0, 0.0]),
        np.array([0.6, 0.35, np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]),
        np.array([0.5, 0.375, 0.0625, 0.0625, 0.0, 0.0, 0.0, 0.0]),  # light ones weigh 1/p
        np.array([0.4, 0.3, 0.25, 0.01, 0.01, 0.01, 0.01, 0.01]),  # three heavy of eight
        np.zeros(8),  # nothing heavy
        np.array([1e308, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),  # the sum overflows
    ])
    def test_weights_without_a_safe_screen_take_the_full_path(self, rng, weights):
        cat = np.array([False, True] + [False] * 6)
        c = np.round(rng.random((30, 8)), 1)
        metric = CountingGrey(cat, 0.5, weights)
        assert metric.screen(c) is None
        if weights is None or np.isfinite(weights).all():  # NaN grades cannot be ranked
            list(_ranked_blocks(metric, c[:5], c, 3))
            assert metric.calls == 1

    def test_pruning_keeps_its_power_on_stacked_cubes(self):
        # k selection on 1200 stacked cube rows under class-MI weights:
        # 5.62% of the pairs were scored in full with a float64 partial
        # grade; an allowance that switched the screen off would score
        # them all
        parts = [gen_cubes(seed) for seed in (1, 2, 3)]
        stacked = Dataset(parts[0].schema, np.vstack([c.values for c in parts]),
                          labels=np.concatenate([c.labels for c in parts]))
        unit = normalize(stacked)[0]
        metric = GradedPairs(unit.schema.categorical_mask, 0.5, dataset_class_weights(unit)[0])
        _cv_errors(unit.values, unit.labels, metric, DEFAULT_K_GRID, 10, 0)
        pairs = sum(len(train) * len(held) for train, held in stratified_folds(unit.labels, 10, 0))
        assert metric.pairs < 2 * 0.0562 * pairs

    def test_few_heavy_features_and_light_rest_engage_the_screen(self, rng):
        cat = np.array([False, True] + [False] * 6)
        c = np.round(rng.random((30, 8)), 1)
        metric = CountingGrey(cat, 0.5, np.array([0.6, 0.3, 0.02, 0.02, 0.02, 0.02, 0.01, 0.01]))
        assert metric.screen(c) is not None
        list(_ranked_blocks(metric, c[:5], c, 3))
        assert metric.calls == 0


@st.composite
def own_case(draw):
    """A :func:`screened_case` whose queries are candidate rows with holes:
    query i equals its own row ``own[i]`` wherever it is observed. Another
    candidate may copy an own row, so the own values repeat."""
    candidates, queries, cat, weights, rho, k = draw(
        screened_case().filter(lambda case: len(case[0]) >= 2)
    )
    n = len(candidates)
    own = np.array(draw(st.lists(st.integers(0, n - 1), min_size=len(queries),
                                 max_size=len(queries))))
    if draw(st.booleans()):
        candidates[draw(st.integers(0, n - 1))] = candidates[own[0]]
    queries = np.where(np.isnan(queries), NAN, candidates[own])
    return candidates, queries, own, cat, weights, rho, min(k, n - 1)


def without(rows, i):
    return np.delete(rows, i, axis=0)


class TestOwnRow:
    """A query's own row scores +inf, and every other candidate scores and
    ranks exactly as with that row deleted from the candidate matrix."""

    @given(own_case(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_distances_equal_the_deleted_matrix_bitwise(self, case, weighted):
        candidates, queries, own, cat, weights, rho, _ = case
        w = weights if weighted else None
        for metric in (GreyMetric(cat, rho, w), HeomMetric(cat, w)):
            d = metric.distances(queries, candidates, own)
            for i, o in enumerate(own):
                assert d[i, o] == np.inf
                alone = metric.distances(queries[i:i + 1], without(candidates, o))
                assert without(d[i], o).tobytes() == alone[0].tobytes()

    @given(own_case())
    @settings(max_examples=200, deadline=None)
    def test_screen_equals_the_deleted_matrix_bitwise(self, case):
        candidates, queries, own, cat, weights, rho, k = case
        metric = GreyMetric(cat, rho, weights)
        dist, nearest = metric.screen(candidates).nearest(queries, k, own)
        for i, o in enumerate(own):
            alone_dist, alone = metric.screen(without(candidates, o)).nearest(queries[i:i + 1], k)
            assert np.array_equal(nearest[i], alone[0] + (alone[0] >= o))
            assert dist[i].tobytes() == alone_dist[0].tobytes()

    @given(own_case(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_ranked_blocks_leave_the_own_row_out(self, case, weighted):
        # screened in blocks, or unscreened in blocks of at most FIXED_BLOCK rows
        candidates, queries, own, cat, weights, rho, k = case
        metric = GreyMetric(cat, rho, weights if weighted else None)
        d = metric.distances(queries, candidates, own)
        expected = _nearest(d, k)
        for start, dist, nearest in _ranked_blocks(metric, queries, candidates, k, own):
            rows = slice(start, start + len(nearest))
            assert np.array_equal(nearest, expected[rows])
            assert dist.tobytes() == np.take_along_axis(d[rows], expected[rows], 1).tobytes()
            assert not (nearest == own[rows, None]).any()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bounds_skip_one_copy_of_the_own_value(self, data):
        # arbitrary doubles and a coarse grid (repeated values), a constant
        # column, NaN query cells
        p = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(2, 20))
        m = data.draw(st.integers(1, 5))
        cat = np.array(data.draw(st.lists(st.booleans(), min_size=p, max_size=p)))
        cell = st.one_of(st.floats(-2.0, 3.0, allow_nan=False), st.sampled_from([0.0, 0.5, 1.0]))
        c = np.array(data.draw(st.lists(cell, min_size=n * p, max_size=n * p))).reshape(n, p)
        c[:, data.draw(st.integers(0, p - 1))] = data.draw(cell)
        own = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
        holes = np.array(data.draw(st.lists(st.booleans(), min_size=m * p, max_size=m * p)))
        q = np.where(holes.reshape(m, p), NAN, c[own])
        dmin, dmax = _sorted_bounds(q, np.sort(c[:, ~cat], axis=0).T, ~cat, True)
        gmin, gmax = _bounds(_gaps(q, c), cat, own)
        for i, o in enumerate(own):
            rest = without(c, o)
            emin, emax = _sorted_bounds(q[i:i + 1], np.sort(rest[:, ~cat], axis=0).T, ~cat)
            assert dmin[i:i + 1].tobytes() == emin.tobytes() == gmin[i:i + 1].tobytes()
            assert dmax[i:i + 1].tobytes() == emax.tobytes() == gmax[i:i + 1].tobytes()


@st.composite
def layout_case(draw):
    """Mixed candidates of 1 to 30 features (ties on a coarse grid, or
    arbitrary values), queries with holes that are candidate rows
    (``own``) or not, weights with a nonempty heavy set, and a k up to
    every other candidate."""
    p = draw(st.integers(1, 30))
    n = draw(st.integers(2, 25))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cat = rng.random(p) < draw(st.sampled_from([0.0, 0.3]))
    candidates = rng.random((n, p))
    if draw(st.booleans()):
        candidates = np.round(candidates * 4) / 4
    candidates[:, cat] = rng.integers(0, 3, size=(n, int(cat.sum())))
    own = None
    if draw(st.booleans()):
        own = rng.integers(0, n, size=m)
        queries = candidates[own].copy()
    else:
        queries = rng.random((m, p))
        queries[:, cat] = rng.integers(0, 3, size=(m, int(cat.sum())))
    queries[rng.random((m, p)) < 0.2] = NAN
    heavy = rng.random(p) < 0.3
    heavy[rng.integers(0, p)] = True
    weights = np.where(heavy, 1.0 + rng.random(p), 0.01 * rng.random(p))
    rho = draw(st.sampled_from([0.0, 0.5, 1.0]))
    k = draw(st.integers(1, n - 1 if own is not None else n))
    return candidates, queries, own, cat, heavy, weights, rho, k


class TestLayoutIndependence:
    """The kernels, the screen and the cell estimator give the same bits
    whatever the memory layout of their inputs. Past 8 features numpy's
    pairwise sum along a contiguous axis adds in another order than the
    kernels' left-to-right feature loop, so p reaches 30; the screen's
    survivors must also equal the full kernel."""

    @given(layout_case(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_same_bits_for_every_layout(self, case, weighted):
        candidates, queries, own, cat, heavy, weights, rho, k = case
        w = weights if weighted else None
        for metric in (GreyMetric(cat, rho, w), HeomMetric(cat, w)):
            expected = metric.distances(queries, candidates, own).tobytes()
            for c in layouts(candidates):
                for q in layouts(queries):
                    assert metric.distances(q, c, own).tobytes() == expected
        metric = GreyMetric(cat, rho, weights)
        d = metric.distances(queries, candidates, own)
        nearest = _nearest(d, k)
        dist = np.take_along_axis(d, nearest, axis=1)
        light = float(weights[~heavy].sum())
        for c in layouts(candidates):
            screen = GreyScreen(metric, c, np.flatnonzero(heavy), light)
            for q in layouts(queries):
                got_dist, got = screen.nearest(q, k, own)
                assert np.array_equal(got, nearest)
                assert got_dist.tobytes() == dist.tobytes()
        gaps = _gap_cells(~np.isnan(queries), cat)
        estimate = _estimate_rows(candidates, nearest, dist, gaps, weighted).tobytes()
        for donors in layouts(candidates):
            assert _estimate_rows(donors, nearest, dist, gaps, weighted).tobytes() == estimate
