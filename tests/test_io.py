import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyimpute.errors import DataError, ParseError, RaggedRowError, UnknownLevelError
from greyimpute.dataset import validate
from greyimpute.io import (
    DEFAULT_MISSING_TOKENS,
    SchemaConfig,
    format_json,
    infer_schema,
    read_csv,
    write_csv,
    write_report,
)

from conftest import build_dataset

TWO_COL = SchemaConfig(
    columns=(("a", "continuous", None), ("b", "categorical", None)),
    class_column="class",
)


class TestReadCsv:
    def test_basic_mixed_row(self):
        ds = read_csv("a,b,class\n1.5,red,yes\n", TWO_COL)
        assert (ds.n, ds.p) == (1, 2)
        assert ds.values[0, 0] == 1.5
        assert ds.schema.features[1].levels == ("red",)
        assert ds.schema.class_levels == ("yes",)
        assert ds.labels.tolist() == [0]

    def test_question_mark_is_missing(self):
        ds = read_csv("a,b,class\n?,red,yes\n", TWO_COL)
        assert not ds.mask[0, 0]
        assert np.isnan(ds.values[0, 0])

    def test_voting_style_missing_rate(self):
        # 435 rows x 15 categorical features with exactly 270 '?' cells:
        # 270 / 6525 = 0.04138
        rng = np.random.default_rng(99)
        n, p = 435, 15
        grid = rng.permutation(n * p)[:270]
        rows = []
        for i in range(n):
            row = ["y" if (i + j) % 2 else "n" for j in range(p)]
            rows.append(row + (["democrat"] if i % 2 else ["republican"]))
        for flat in grid:
            rows[flat // p][flat % p] = "?"
        header = ",".join(f"v{j}" for j in range(p)) + ",class"
        text = header + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
        config = SchemaConfig(
            columns=tuple((f"v{j}", "categorical", None) for j in range(p)),
            class_column="class",
        )
        ds = read_csv(text, config)
        report = validate(ds)
        assert report.ok
        assert report.missing_rates.mean() == pytest.approx(0.0414, abs=0.0005)

    def test_ragged_row_located(self):
        with pytest.raises(RaggedRowError) as err:
            read_csv("a,b,class\n1.0\n", TWO_COL)
        assert err.value.row == 2

    def test_unknown_level_with_explicit_list(self):
        config = SchemaConfig(
            columns=(("a", "continuous", None), ("b", "categorical", ("red", "blue"))),
            class_column="class",
        )
        with pytest.raises(UnknownLevelError):
            read_csv("a,b,class\n1.0,green,yes\n", config)

    def test_unparseable_number_located(self):
        with pytest.raises(ParseError) as err:
            read_csv("a,b,class\nnotanum,red,yes\n", TWO_COL)
        assert err.value.row == 2 and err.value.column == "a"

    def test_missing_class_label_rejected(self):
        with pytest.raises(ParseError):
            read_csv("a,b,class\n1.0,red,?\n", TWO_COL)

    def test_undeclared_column_rejected(self):
        with pytest.raises(ParseError):
            read_csv("a,b,extra,class\n1,red,zzz,yes\n", TWO_COL)


class TestWriteCsv:
    def test_single_cell(self):
        ds = build_dataset([[2.5]], names=["col"])
        assert write_csv(ds) == "col\n2.5\n"

    def test_missing_cell_emits_first_token(self):
        ds = build_dataset([[np.nan]], names=["col"])
        assert write_csv(ds) == "col\nNA\n"
        assert DEFAULT_MISSING_TOKENS[0] == "NA"
        assert write_csv(ds, missing_token="?") == "col\n?\n"

    def test_round_trip_mixed(self, rng):
        values = np.column_stack([
            rng.normal(size=50),
            rng.integers(0, 3, size=50).astype(float),
            rng.normal(size=50),
        ])
        values[rng.random((50, 3)) < 0.2] = np.nan
        for j in range(3):
            if np.isnan(values[:, j]).all():
                values[0, j] = 1.0
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        ds = build_dataset(values, categorical_levels={1: ("u", "v", "w")}, labels=labels)
        config = SchemaConfig(
            columns=(
                ("f0", "continuous", None),
                ("f1", "categorical", ("u", "v", "w")),
                ("f2", "continuous", None),
            ),
            class_column="class",
        )
        back = read_csv(write_csv(ds), config)
        assert back.equals(ds)


# names and levels: plain ones, which mostly round-trip, and ones mixing
# letters with the characters the schema syntax gives meaning to, edge
# spaces, non-ASCII and control characters
_TRICKY = st.from_regex(r"[a-zé雪][a-z0-9_. é雪]{0,4}[a-z0-9]?", fullmatch=True) | st.text(
    st.one_of(st.sampled_from("ab ,#=\t\n\r\x00\x0b\x1c\x85\u2028é雪"), st.characters()),
    max_size=6,
)


@st.composite
def schema_configs(draw):
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(_TRICKY)
        if draw(st.booleans()):
            columns.append((name, "continuous", None))
        else:
            levels = draw(st.none() | st.lists(_TRICKY, min_size=1, max_size=3).map(tuple))
            columns.append((name, "categorical", levels))
    class_column = draw(st.none() | _TRICKY)
    tokens = tuple(draw(st.lists(_TRICKY, min_size=1, max_size=3)))
    return SchemaConfig(tuple(columns), class_column, tokens)


class TestSchemaConfig:
    def test_parse_document(self):
        text = """
        # comment line
        class = species
        missing = NA, , ?
        feature sepal = continuous
        feature color = categorical red, green, blue
        feature size = categorical
        """
        config = SchemaConfig.from_text(text)
        assert config.class_column == "species"
        assert config.missing_tokens == ("NA", "", "?")
        assert config.columns[1] == ("color", "categorical", ("red", "green", "blue"))
        assert config.columns[2] == ("size", "categorical", None)

    def test_text_round_trip(self):
        config = SchemaConfig(
            columns=(("a", "continuous", None), ("b", "categorical", ("x", "y"))),
            class_column="c",
            missing_tokens=("NA", ""),
        )
        assert SchemaConfig.from_text(config.to_text()) == config

    @given(schema_configs())
    @settings(max_examples=200, deadline=None)
    def test_text_reads_back_or_is_refused(self, config):
        try:
            text = config.to_text()
        except DataError:
            return
        assert SchemaConfig.from_text(text) == config

    def test_bad_kind_rejected(self):
        with pytest.raises(ParseError):
            SchemaConfig.from_text("feature a = numeric\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            SchemaConfig.from_text("target = y\nfeature a = continuous\n")

    def test_infer_schema(self):
        text = "a,b,class\n1.0,red,yes\nNA,blue,no\n2.5,red,yes\n"
        config = infer_schema(text, class_column="class")
        assert config.columns[0] == ("a", "continuous", None)
        assert config.columns[1] == ("b", "categorical", ("red", "blue"))
        ds = read_csv(text, config)
        assert not ds.mask[1, 0]


def _run(method="cgknn", rate=0.1, seed=1, **metrics):
    row = {
        "method": method, "missing_rate": rate, "seed": seed,
        "rmse": 0.1283, "classification_accuracy": 0.9692,
        "baseline_accuracy": 0.8342, "iterations": 4, "chosen_k": 3,
        "wall_time_ms": 12.5, "converged": True, "pool_fallback": False,
        "error": None,
    }
    row.update(metrics)
    return row


class TestWriteReport:
    def test_empty_report(self):
        report = json.loads(write_report([]))
        assert report == {"report_version": 1, "runs": {}}

    def test_single_run_contains_exact_value(self):
        text = write_report([_run()])
        assert '"rmse": 0.1283' in text
        parsed = json.loads(text)
        cell = parsed["runs"]["cgknn"]["0.1"]["seeds"]["1"]
        assert cell["rmse"] == 0.1283
        assert cell["chosen_k"] == 3

    def test_two_seeds_aggregate(self):
        rows = [_run(seed=1, rmse=0.10), _run(seed=2, rmse=0.14)]
        parsed = json.loads(write_report(rows))
        agg = parsed["runs"]["cgknn"]["0.1"]["aggregate"]
        assert agg["seeds"] == 2
        assert agg["rmse_mean"] == pytest.approx(0.12)
        assert agg["rmse_std"] == pytest.approx(np.std([0.10, 0.14], ddof=1))

    def test_round_trip_bit_exact_floats(self):
        ugly = 1.0 / 3.0
        text = write_report([_run(rmse=ugly)])
        assert json.loads(text)["runs"]["cgknn"]["0.1"]["seeds"]["1"]["rmse"] == ugly

    def test_version_field(self):
        assert json.loads(write_report([]))["report_version"] == 1


class TestFormatJson:
    def test_scalars(self):
        assert format_json(None) == "null"
        assert format_json(True) == "true"
        assert format_json(3) == "3"
        assert format_json(2.0) == "2.0"
        assert format_json("a\"b") == '"a\\"b"'

    def test_nan_becomes_null(self):
        assert format_json(float("nan")) == "null"

    def test_non_finite_and_numpy_scalars(self):
        obj = {"nan": np.nan, "inf": np.inf, "ninf": -np.inf, "n": np.int64(7)}
        assert json.loads(format_json(obj)) == {
            "nan": None, "inf": "Infinity", "ninf": "-Infinity", "n": 7,
        }

    def test_nested_structures_parse_back(self):
        for obj in (
            {"a": [1, 2.5, None], "b": {"c": False}},
            {"error": "line1\nline2\ttab"},
        ):
            assert json.loads(format_json(obj)) == obj
