import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyimpute.dataset import (
    Dataset,
    Feature,
    RangeTable,
    Schema,
    normalize,
    validate,
)
from greyimpute.errors import DataError
from greyimpute.synth import gen_cubes, inject_mcar

from conftest import build_dataset


class TestSchema:
    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(DataError):
            Schema((Feature("a"), Feature("a")))

    def test_class_column_cannot_be_a_feature(self):
        with pytest.raises(DataError):
            Schema((Feature("a"),), class_column="a")

    def test_empty_level_list_rejected(self):
        with pytest.raises(DataError):
            Feature("c", ())

    def test_duplicate_levels_rejected(self):
        with pytest.raises(DataError):
            Feature("c", ("x", "x"))

    def test_index_of_takes_a_name_or_an_index(self):
        schema = Schema((Feature("a"), Feature("b"), Feature("c")))
        assert [schema.index_of(c) for c in ("b", 2, -1, np.int64(0))] == [1, 2, 2, 0]
        for bad in ("nope", 3, -4, 1.0, None):
            with pytest.raises(DataError, match="unknown column"):
                schema.index_of(bad)


class TestValidate:
    def test_consistent_complete_dataset(self):
        ds = build_dataset([[1.0, 2.0], [3.0, 4.0]])
        report = validate(ds)
        assert report.ok
        assert np.allclose(report.missing_rates, [0.0, 0.0])

    def test_missing_cell_with_observed_mask_bit(self):
        # NaN is the one marker of a gap: a mask that disagrees with the
        # cells, either way round, is refused before validate could see it
        values = np.array([[np.nan, 2.0], [3.0, 4.0]])
        schema = build_dataset(values).schema
        for wrong in ([[True, True], [True, True]], [[False, False], [True, True]]):
            with pytest.raises(DataError, match="disagrees"):
                Dataset(schema, values, np.array(wrong))

    def test_out_of_range_level_index(self):
        ds = build_dataset([[0.0], [5.0]], categorical_levels={0: ("a", "b")})
        report = validate(ds)
        assert [v.kind for v in report.violations] == ["bad-level-index"]

    def test_non_finite_numeric(self):
        ds = build_dataset([[np.inf], [1.0]])
        assert [v.kind for v in validate(ds).violations] == ["non-finite"]

    def test_injected_cube_missing_rate(self):
        ds = gen_cubes(5)
        injected = inject_mcar(ds, ["x1"], 0.1, 17)
        report = validate(injected)
        assert report.ok
        expected = (~injected.mask[:, 0]).sum() / 400
        assert report.missing_rates[0] == pytest.approx(expected)
        assert 0.04 < report.missing_rates[0] < 0.18


class TestNormalize:
    def test_three_point_column(self):
        ds = build_dataset([[2.0], [4.0], [6.0]])
        out, _ = normalize(ds)
        assert out.values[:, 0].tolist() == [1.0, 0.5, 0.0]

    def test_endpoints(self):
        ds = build_dataset([[0.0], [1.0]])
        out, _ = normalize(ds)
        assert out.values[:, 0].tolist() == [1.0, 0.0]

    def test_constant_column_maps_to_zero(self):
        ds = build_dataset([[5.0], [5.0], [5.0]])
        out, _ = normalize(ds)
        assert out.values[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_missing_and_categorical_untouched(self):
        ds = build_dataset(
            [[2.0, 1.0], [np.nan, 0.0], [6.0, 1.0]],
            categorical_levels={1: ("a", "b")},
        )
        out, _ = normalize(ds)
        assert np.isnan(out.values[1, 0])
        assert out.values[:, 1].tolist() == [1.0, 0.0, 1.0]

    def test_statistics_use_observed_cells_only(self):
        ds = build_dataset([[2.0], [np.nan], [4.0]])
        out, ranges = normalize(ds)
        assert ranges.mins[0] == 2.0 and ranges.maxs[0] == 4.0
        assert out.values[0, 0] == 1.0 and out.values[2, 0] == 0.0

    def test_involution_on_unit_range(self):
        # the transform reverses orientation, so on a [0,1] column with min 0
        # and max 1 applying it twice restores the original values exactly
        ds = build_dataset([[0.0], [0.25], [1.0]])
        once, _ = normalize(ds)
        twice, _ = normalize(once)
        assert once.values[:, 0].tolist() == [1.0, 0.75, 0.0]
        assert twice.values[:, 0].tolist() == [0.0, 0.25, 1.0]

    def test_empty_continuous_column_rejected(self):
        ds = build_dataset([[np.nan], [np.nan]])
        with pytest.raises(DataError):
            normalize(ds)


class TestDenormalize:
    def test_midpoint(self):
        ds = build_dataset([[0.5]])
        ranges = RangeTable(np.array([2.0]), np.array([6.0]))
        assert ranges.from_unit(ds.values)[0, 0] == 4.0

    def test_zero_maps_to_max(self):
        ds = build_dataset([[0.0]])
        ranges = RangeTable(np.array([2.0]), np.array([6.0]))
        assert ranges.from_unit(ds.values)[0, 0] == 6.0

    def test_constant_column_maps_back_to_max(self):
        ds = build_dataset([[0.0], [0.7], [np.nan]])
        ranges = RangeTable(np.array([5.0]), np.array([5.0]))
        back = ranges.from_unit(ds.values)[:, 0]
        assert back[:2].tolist() == [5.0, 5.0] and np.isnan(back[2])

    def test_unit_maps_match_per_cell_formulas(self, rng):
        # mixed columns (continuous, categorical, constant) with gaps; the
        # vectorized maps must equal the scalar expressions bit for bit
        values = np.column_stack([
            rng.normal(scale=10.0, size=30),
            rng.integers(0, 3, size=30).astype(float),
            np.full(30, 2.5),
        ])
        values[rng.random(values.shape) < 0.2] = np.nan
        values[0] = [1.0, 0.0, 2.5]
        ds = build_dataset(values, categorical_levels={1: ("a", "b", "c")})
        ranges = RangeTable.from_dataset(ds)
        unit, back = ranges.to_unit(values), ranges.from_unit(values)
        lo, hi = ranges.mins[0], ranges.maxs[0]
        for x, u, b in zip(values[:, 0], unit[:, 0], back[:, 0]):
            assert np.isnan(x) or (u == (hi - x) / (hi - lo) and b == hi - x * (hi - lo))
        assert np.array_equal(unit[:, 1], values[:, 1], equal_nan=True)
        assert np.array_equal(back[:, 1], values[:, 1], equal_nan=True)
        obs = ~np.isnan(values[:, 2])
        assert (unit[obs, 2] == 0.0).all() and (back[obs, 2] == 2.5).all()
        assert np.isnan(unit[~obs, 2]).all() and np.isnan(back[~obs, 2]).all()

    def test_round_trip_random_matrix(self, rng):
        values = rng.normal(scale=10.0, size=(20, 3))
        ds = build_dataset(values)
        normalized, ranges = normalize(ds)
        back = ranges.from_unit(normalized.values)
        assert np.allclose(back, values, rtol=1e-12, atol=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, column):
        ds = build_dataset(np.array(column)[:, None])
        normalized, ranges = normalize(ds)
        back = ranges.from_unit(normalized.values)
        span = max(column) - min(column)
        assert np.allclose(back[:, 0], column, rtol=1e-12, atol=1e-12 * max(span, 1))


class TestDatasetInvariants:
    def test_values_are_immutable(self):
        ds = build_dataset([[1.0]])
        with pytest.raises(ValueError):
            ds.values[0, 0] = 2.0

    def test_shape_mismatch_rejected(self):
        schema = Schema((Feature("a"), Feature("b")))
        with pytest.raises(DataError):
            Dataset(schema, np.zeros((2, 3)), np.ones((2, 3), dtype=bool))

    def test_mask_is_read_off_the_nan_cells(self):
        values = np.array([[np.nan, 2.0], [3.0, np.nan]])
        schema = build_dataset(values).schema
        ds = Dataset(schema, values)
        assert ds.mask.tolist() == [[False, True], [True, False]]
        assert Dataset(schema, values, ~np.isnan(values)).mask.tolist() == ds.mask.tolist()
        assert ds.with_values(np.zeros((2, 2))).mask.all()
        with pytest.raises(ValueError):
            ds.mask[0, 0] = True

    def test_equals_treats_nan_as_equal(self):
        a = build_dataset([[np.nan, 1.0]])
        b = build_dataset([[np.nan, 1.0]])
        assert a.equals(b)
        assert not a.equals(build_dataset([[np.nan, 2.0]]))
