"""CSV ingestion, schema configuration text, and JSON metric reports.

The CSV dialect is RFC-4180 style with a mandatory header, UTF-8. Column
kinds are declared (never silently inferred) in a line-oriented
``key = value`` schema document::

    # anything after '#' is a comment
    class = species
    missing = NA, , ?
    feature sepal_length = continuous
    feature color = categorical red, green, blue
    feature size = categorical

A ``feature <name>`` line declares a column; a categorical feature may fix
its level list explicitly (values outside it are rejected), otherwise
levels are collected from the data in first-appearance order. ``missing``
lists the exact strings treated as missing cells, matched before numeric
parsing; the first token is also what :func:`write_csv` emits for missing
cells. An :func:`infer_schema` convenience builds a config from the data;
the CLI always writes the inferred document next to the output so runs
stay replayable.

Reports serialize every float as the shortest decimal that round-trips to
the identical IEEE double, so regression comparisons are bit-exact.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
from dataclasses import dataclass

from .dataset import Dataset, Feature, Schema
from .errors import DataError, ParseError, RaggedRowError, UnknownLevelError

import numpy as np

__all__ = [
    "SchemaConfig",
    "read_csv",
    "read_text",
    "write_csv",
    "infer_schema",
    "write_report",
    "format_json",
    "REPORT_VERSION",
]

DEFAULT_MISSING_TOKENS = ("NA", "", "?")
REPORT_VERSION = 1


@dataclass(frozen=True)
class SchemaConfig:
    """Declared column kinds, class column and missing-value tokens."""

    columns: tuple[tuple[str, str, tuple[str, ...] | None], ...]  # (name, kind, levels)
    class_column: str | None = None
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS

    def column_names(self):
        return [name for name, _, _ in self.columns]

    @classmethod
    def from_text(cls, text: str) -> "SchemaConfig":
        columns = []
        class_column = None
        tokens = DEFAULT_MISSING_TOKENS
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {line!r}", row=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "class":
                class_column = value
            elif key == "missing":
                tokens = tuple(tok.strip() for tok in value.split(","))
            elif key.startswith("feature ") or key.startswith("feature\t"):
                name = key[len("feature"):].strip()
                if not name:
                    raise ParseError("feature line without a column name", row=lineno)
                kind, _, levels_part = value.partition(" ")
                if kind == "continuous":
                    columns.append((name, "continuous", None))
                elif kind == "categorical":
                    levels = tuple(
                        lv.strip() for lv in levels_part.split(",") if lv.strip()
                    ) or None
                    columns.append((name, "categorical", levels))
                else:
                    raise ParseError(
                        f"feature kind must be continuous or categorical, got {kind!r}",
                        row=lineno,
                    )
            else:
                raise ParseError(f"unknown schema key {key!r}", row=lineno)
        if not columns:
            raise ParseError("schema declares no feature columns")
        return cls(tuple(columns), class_column, tokens)

    def to_text(self) -> str:
        """The schema document; raises :class:`DataError` unless
        :meth:`from_text` reads it back as this exact config."""
        lines = []
        if self.class_column is not None:
            lines.append(f"class = {self.class_column}")
        lines.append("missing = " + ", ".join(self.missing_tokens))
        for name, kind, levels in self.columns:
            if kind == "categorical" and levels:
                lines.append(f"feature {name} = categorical " + ", ".join(levels))
            else:
                lines.append(f"feature {name} = {kind}")
        text = "\n".join(lines) + "\n"
        try:
            readable = SchemaConfig.from_text(text) == self
        except DataError:
            readable = False
        if not readable:
            raise DataError(
                "schema text would not read back unchanged: a column name, level "
                "or missing token is empty or holds edge whitespace, ',', '#', '=' "
                "or a line break"
            )
        return text


def read_text(path) -> str:
    """The text of the input file (CSV, schema or JSON) at ``path``, line
    endings untranslated, so a quoted carriage return reaches
    :func:`_parse_rows` as written; a file not in UTF-8 is a DataError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{str(path)!r} is not UTF-8 text: {exc}") from None


def _parse_rows(text: str):
    """The header and the body rows of CSV text, its lines ending in LF,
    CR LF or CR alike. A header naming a column twice, a row of another
    width than the header and anything the csv module refuses, such as a
    field over its size limit, are a :class:`ParseError`."""
    reader = csv.reader(_stdio.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", row=reader.line_num) from None
    if not rows:
        raise ParseError("CSV has no header row")
    header, body = rows[0], rows[1:]
    if len(set(header)) != len(header):
        twice = next(name for i, name in enumerate(header) if name in header[:i])
        raise ParseError(f"CSV header names column {twice!r} twice", row=1)
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise RaggedRowError(f"expected {len(header)} fields, got {len(row)}", row=i)
    return header, body


def _numbers(name: str, cells, missing) -> np.ndarray:
    """Column ``name``'s cells as floats, NaN for a missing token; a cell
    that is not a finite number is a :class:`ParseError` at its row."""
    out = []
    for row, cell in enumerate(cells, start=2):
        if cell in missing:
            out.append(math.nan)
            continue
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(
                f"cannot parse {cell!r} as a number in column {name!r}", row=row, column=name
            ) from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite value {cell!r} in column {name!r}", row=row, column=name)
        out.append(v)
    return np.array(out, dtype=float)


def _codes(name: str, cells, missing, levels=None):
    """Column ``name``'s cells as level indices, NaN for a missing token,
    and the levels: the declared ``levels``, a cell outside them being an
    :class:`UnknownLevelError` at its row, or else the cells' values in
    first-appearance order."""
    index = {} if levels is None else {lv: i for i, lv in enumerate(levels)}
    out = []
    for row, cell in enumerate(cells, start=2):
        if cell in missing:
            out.append(math.nan)
            continue
        code = index.get(cell)
        if code is None:
            if levels is not None:
                raise UnknownLevelError(
                    f"value {cell!r} outside declared levels of {name!r}", row=row, column=name
                )
            code = index[cell] = len(index)
        out.append(code)
    return np.array(out, dtype=float), (tuple(index) if levels is None else levels)


def read_csv(text: str, config: SchemaConfig) -> Dataset:
    """Parse CSV text into a dataset under the declared schema.

    Cells equal to a missing token become missing (NaN); a column is
    parsed by :func:`_numbers` or coded by :func:`_codes` per its declared
    kind. The class column, when declared, must be fully observed and is
    coded into labels with levels in first-appearance order.
    """
    header, body = _parse_rows(text)
    positions = {name: i for i, name in enumerate(header)}
    declared = config.column_names() + ([] if config.class_column is None else [config.class_column])
    for name in declared:
        if name not in positions:
            raise ParseError(f"declared column {name!r} not in CSV header")
    for name in header:
        if name not in declared:
            raise ParseError(f"CSV column {name!r} is not declared in the schema")

    missing = set(config.missing_tokens)
    values = np.empty((len(body), len(config.columns)))
    features = []
    for j, (name, kind, levels) in enumerate(config.columns):
        cells = [row[positions[name]] for row in body]
        if kind == "continuous":
            values[:, j] = _numbers(name, cells, missing)
            features.append(Feature(name))
        else:
            values[:, j], levels = _codes(name, cells, missing, levels)
            if not levels:
                raise ParseError(f"categorical column {name!r} has no observed levels")
            features.append(Feature(name, levels))

    labels = None
    class_levels: tuple[str, ...] = ()
    if config.class_column is not None:
        name = config.class_column
        codes, class_levels = _codes(name, [row[positions[name]] for row in body], missing)
        if np.isnan(codes).any():
            row = int(np.argmax(np.isnan(codes))) + 2
            raise ParseError("class labels must be fully observed", row=row, column=name)
        labels = codes.astype(int)

    schema = Schema(tuple(features), config.class_column, class_levels)
    return Dataset(schema, values, labels=labels)


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with its quotes doubled, when it
    holds a comma, quote, line feed or carriage return. (The csv module's
    writer quotes a carriage return only when it ends rows in one, and
    unquoted, a carriage return ends a row.)"""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_table(header, rows) -> str:
    """CSV text: a line of the ``header`` names, each quoted by
    :func:`csv_field`, then a line per row of fields already rendered,
    taken one row at a time. A lone empty field is written as ``""`` so
    its line does not read back as blank."""
    def line(fields):
        return (",".join(fields) if fields != [""] else '""') + "\n"
    return line([csv_field(name) for name in header]) + "".join(map(line, rows))


def write_csv(dataset: Dataset, missing_token: str | None = None) -> str:
    """Render a dataset as CSV text; features first, class column last.

    Missing cells are emitted as ``missing_token`` (default "NA", the
    first default missing token). Levels and the token are quoted once
    each by :func:`csv_field`; a number never needs quotes."""
    token = csv_field(DEFAULT_MISSING_TOKENS[0] if missing_token is None else missing_token)
    schema = dataset.schema
    header = [f.name for f in schema.features]
    levels = [None if f.levels is None else [csv_field(lv) for lv in f.levels]
              for f in schema.features]
    if schema.class_column is None:
        labels = [[]] * dataset.n
    else:
        header.append(schema.class_column)
        classes = [csv_field(c) for c in schema.class_levels]
        labels = [[classes[y]] for y in dataset.labels.tolist()]
    rows = ([token if v != v else repr(v) if lv is None else lv[int(v)]  # v != v: NaN
             for v, lv in zip(values, levels)] + label
            for values, label in zip(dataset.values.tolist(), labels))
    return csv_table(header, rows)


def infer_schema(
    text: str,
    class_column: str | None = None,
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS,
) -> SchemaConfig:
    """Build a schema config from the data: a column with an observed cell
    that :func:`read_csv` parses as continuous is continuous, anything
    else is categorical with levels in first-appearance order."""
    header, body = _parse_rows(text)
    missing = set(missing_tokens)
    columns = []
    for col, name in enumerate(header):
        if name == class_column:
            continue
        cells = [row[col] for row in body]
        try:
            numeric = not np.isnan(_numbers(name, cells, missing)).all()
        except ParseError:
            numeric = False
        columns.append((name, "continuous", None) if numeric
                       else (name, "categorical", _codes(name, cells, missing)[1]))
    return SchemaConfig(tuple(columns), class_column, missing_tokens)


def _plain(obj):
    """Map a payload onto JSON's value space: NaN -> None, +-inf ->
    "Infinity"/"-Infinity", numpy integers, booleans and floats -> Python
    ones."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    return obj


def format_json(obj) -> str:
    """JSON text with two-space indentation and floats in their shortest
    exact form (``repr``), so report comparisons are bit-exact."""
    return json.dumps(_plain(obj), indent=2, ensure_ascii=False, allow_nan=False)


def write_report(runs: list[dict]) -> str:
    """Serialize benchmark results keyed by method, missing rate and seed,
    with per-(method, rate) mean/stddev aggregates across seeds.

    Each run dict needs at least method, missing_rate and seed; metric
    fields (rmse, classification_accuracy, ...) pass through as given.
    """
    nested: dict = {}
    groups: dict = {}
    for run in runs:
        method = str(run["method"])
        rate = repr(float(run["missing_rate"]))
        seed = str(int(run["seed"]))
        payload = {
            k: v for k, v in run.items() if k not in ("method", "missing_rate", "seed")
        }
        nested.setdefault(method, {}).setdefault(rate, {}).setdefault("seeds", {})[
            seed
        ] = payload
        groups.setdefault((method, rate), []).append(payload)

    for (method, rate), cells in groups.items():
        agg: dict = {"seeds": len(cells)}
        for metric in ("rmse", "classification_accuracy", "baseline_accuracy"):
            vals = [c[metric] for c in cells if c.get(metric) is not None]
            if vals:
                arr = np.asarray(vals, dtype=float)
                agg[f"{metric}_mean"] = float(arr.mean())
                agg[f"{metric}_std"] = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        nested[method][rate]["aggregate"] = agg

    return format_json({"report_version": REPORT_VERSION, "runs": nested}) + "\n"
