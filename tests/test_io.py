import csv
import io as stdio
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greyimpute.errors import DataError, ParseError, RaggedRowError, UnknownLevelError
from greyimpute.dataset import Dataset, Feature, Schema, validate
from greyimpute.io import (
    DEFAULT_MISSING_TOKENS,
    SchemaConfig,
    _plain,
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

    def test_empty_class_column_name(self):
        config = SchemaConfig(columns=(("a", "continuous", None),), class_column="")
        ds = read_csv("a,\n1.5,x\n", config)
        assert ds.schema.class_levels == ("x",)
        assert write_csv(ds) == "a,\n1.5,x\n"

    def test_undeclared_column_rejected(self):
        with pytest.raises(ParseError):
            read_csv("a,b,extra,class\n1,red,zzz,yes\n", TWO_COL)

    @pytest.mark.parametrize("text, twice", [
        ("a,a,class\n1.0,2.0,yes\n", "a"),
        ("a,class,class\n1.0,yes,no\n", "class"),
    ])
    def test_header_naming_a_column_twice_rejected(self, text, twice):
        config = SchemaConfig(columns=(("a", "continuous", None),), class_column="class")
        with pytest.raises(ParseError, match=f"{twice!r} twice"):
            read_csv(text, config)
        with pytest.raises(ParseError, match=f"{twice!r} twice"):
            infer_schema(text, class_column="class")

    @pytest.mark.parametrize("ending", ["\r", "\r\n"])
    def test_line_endings_read_alike(self, ending):
        text = 'a,b,class\n1.5,red,yes\nNA,"x\ry",no\n2.5,?,yes\n'
        other = text.replace("\n", ending)
        assert read_csv(other, TWO_COL).equals(read_csv(text, TWO_COL))
        assert infer_schema(other, "class") == infer_schema(text, "class")

    def test_oversized_field_is_parse_error(self):
        with pytest.raises(ParseError, match="field larger"):
            read_csv("a,b,class\n1.0," + "x" * 200_000 + ",yes\n", TWO_COL)


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


def _reference_line(fields):
    # a writer ending rows in "\r\n" quotes every field that holds "\r" or
    # "\n"; the line then ends in "\n" like write_csv's
    buf = stdio.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def reference_csv(dataset, token):
    """write_csv's contract rendered one cell at a time."""
    features = dataset.schema.features
    class_column = dataset.schema.class_column
    header = [f.name for f in features] + ([] if class_column is None else [class_column])
    lines = [_reference_line(header)]
    for i in range(dataset.n):
        row = []
        for j, feat in enumerate(features):
            cell = dataset.values[i, j]
            if np.isnan(cell):
                row.append(token)
            elif feat.is_categorical:
                row.append(feat.levels[int(cell)])
            else:
                row.append(repr(float(cell)))
        if class_column is not None:
            row.append(dataset.schema.class_levels[int(dataset.labels[i])])
        lines.append(_reference_line(row))
    return "".join(lines)


_CELLS = st.one_of(
    st.floats(allow_infinity=False),
    st.sampled_from([-0.0, 0.1 + 0.2, 5e-324, 1.7976931348623157e308, 123456789.12345678]),
)


@st.composite
def csv_datasets(draw):
    """A dataset with tricky names and levels, NaN and unobserved cells,
    plus a missing token; also its schema config."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    names = draw(st.lists(_TRICKY, min_size=p + 1, max_size=p + 1, unique=True))
    features, columns, cells = [], [], []
    for name in names[:p]:
        if draw(st.booleans()):
            features.append(Feature(name))
            columns.append((name, "continuous", None))
            cells.append(draw(st.lists(_CELLS, min_size=n, max_size=n)))
        else:
            levels = tuple(draw(st.lists(_TRICKY, min_size=1, max_size=3, unique=True)))
            features.append(Feature(name, levels))
            columns.append((name, "categorical", levels))
            code = st.integers(0, len(levels) - 1).map(float) | st.just(np.nan)
            cells.append(draw(st.lists(code, min_size=n, max_size=n)))
    values = np.array(cells, dtype=float).T.reshape(n, p)
    holes = draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p))
    values[np.array(holes, dtype=bool).reshape(n, p)] = np.nan
    labels, class_column, class_levels = None, None, ()
    if draw(st.booleans()):
        class_column = names[p]
        class_levels = tuple(draw(st.lists(_TRICKY, min_size=1, max_size=3, unique=True)))
        labels = draw(st.lists(st.integers(0, len(class_levels) - 1), min_size=n, max_size=n))
    dataset = Dataset(Schema(tuple(features), class_column, class_levels), values, labels=labels)
    token = draw(_TRICKY)
    return dataset, SchemaConfig(tuple(columns), class_column, (token,)), token


class TestWriteCsvBytes:
    @given(csv_datasets())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_cell_rendering(self, case):
        dataset, _, token = case
        assert write_csv(dataset, token) == reference_csv(dataset, token)

    @given(csv_datasets())
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, case):
        # the text reads back to the same cells and writes the same text,
        # unless the token is also a level or a number, which then reads as
        # missing
        dataset, config, token = case
        fields = {lv for f in dataset.schema.features if f.levels for lv in f.levels}
        fields |= set(dataset.schema.class_levels) | set(map(repr, dataset.values.ravel().tolist()))
        assume(token not in fields)
        text = write_csv(dataset, token)
        back = read_csv(text, config)
        observed = dataset.mask
        assert np.array_equal(back.mask, observed)
        assert back.values[observed].tobytes() == dataset.values[observed].tobytes()
        assert write_csv(back, token) == text


# text with the characters that CSV and the cell rules give meaning to;
# half of it under the header of TWO_COL, so cells get parsed too
_TEXT = st.text(st.one_of(st.sampled_from('ab1.e,"\r\n\x00 ?'), st.characters()), max_size=30)
_CSV_TEXT = _TEXT | _TEXT.map(lambda t: "a,b,class\n" + t)


def _is_finite_float(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


class TestReadBoundary:
    @given(_CSV_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_text_reads_or_raises_data_error(self, text):
        for parse in (lambda: read_csv(text, TWO_COL), lambda: infer_schema(text, "class")):
            try:
                parse()
            except DataError:
                pass

    @given(csv_datasets())
    @settings(max_examples=300, deadline=None)
    def test_inferred_kind_follows_the_number_rule(self, case):
        # continuous exactly when a column has an observed cell and every
        # observed cell is a finite float
        dataset, config, token = case
        text = write_csv(dataset, token)
        header, *rows = csv.reader(stdio.StringIO(text, newline=""))
        inferred = dict((name, kind) for name, kind, _ in infer_schema(
            text, config.class_column, (token,)).columns)
        for col, name in enumerate(header):
            if name == config.class_column:
                continue
            observed = [row[col] for row in rows if row[col] != token]
            continuous = bool(observed) and all(map(_is_finite_float, observed))
            assert inferred[name] == ("continuous" if continuous else "categorical")


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


def _strict_json(text):
    """Parse as standard JSON: NaN and Infinity are not JSON tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


# control and non-ASCII characters among them
json_text = st.text(
    st.characters(min_codepoint=0, max_codepoint=0x2FFFF, exclude_categories=("Cs",))
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and +-inf among them
    json_text,
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonWritersProperty:
    @given(json_payloads)
    @settings(max_examples=300, deadline=None)
    def test_format_json_parses_back_to_the_plain_image(self, obj):
        assert _strict_json(format_json(obj)) == _plain(obj)

    @given(st.lists(
        st.tuples(json_text, st.floats(0.0, 1.0), st.integers(0, 2**31),
                  st.dictionaries(json_text.filter(lambda key: key not in (
                      "method", "missing_rate", "seed", "rmse", "classification_accuracy",
                      "baseline_accuracy")), json_payloads, max_size=4)),
        max_size=5,
        unique_by=lambda run: (run[0], repr(run[1]), run[2]),
    ))
    @settings(max_examples=150, deadline=None)
    def test_write_report_parses_back_to_the_plain_image(self, runs):
        rows = [{"method": m, "missing_rate": r, "seed": s, **payload} for m, r, s, payload in runs]
        report = _strict_json(write_report(rows))
        assert report["report_version"] == 1
        for method, rate, seed, payload in runs:
            cell = report["runs"][method][repr(rate)]
            assert cell["seeds"][str(seed)] == _plain(payload)
            assert cell["aggregate"]["seeds"] == sum(
                (m, repr(r)) == (method, repr(rate)) for m, r, _, _ in runs
            )
