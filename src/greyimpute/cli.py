"""Command-line front end.

Subcommands: impute, mi, synth {cubes,mvn}, inject {mcar,mar}, benchmark,
eval, validate, rerun. impute, synth, inject and benchmark also write a
manifest (<output>.manifest.json) holding the argv and input digests;
``rerun <manifest>`` replays that argv and reproduces the run byte for
byte.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; data only to the declared output files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import normalize, validate
from .engine import ImputeConfig, Method, initial_impute, run_impute
from .errors import DataError, ParseError
from .evaluate import REPORT_FIELDS, BenchmarkSpec, benchmark, kfold_cv, rmse
from .io import (
    SchemaConfig,
    _parse_rows,
    csv_field,
    csv_table,
    format_json,
    infer_schema,
    read_csv,
    read_text,
    write_csv,
    write_report,
)
from .relevance import dataset_class_weights
from .synth import MarSpec, gen_cubes, gen_mvn_mar, inject_mar, inject_mcar

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_json(path: str):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path!r} is not valid JSON: {exc}") from None


def _write_manifest(ns, inputs: list, outputs: list):
    manifest = {
        "tool": "greyimpute",
        "version": __version__,
        "subcommand": ns.command,
        "argv": ns.argv,
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": outputs,
    }
    path = ns.out + ".manifest.json"
    Path(path).write_text(format_json(manifest) + "\n", encoding="utf-8")
    return path


def _add_table_options(sub):
    """The input table options of impute, mi, inject and validate."""
    sub.add_argument("input")
    sub.add_argument("--schema", default=None)
    sub.add_argument("--infer-schema", action="store_true", help="infer the schema from the data")
    sub.add_argument("--class-column", default=None,
                     help="class column name when inferring the schema")


def _load_table(ns):
    """(dataset, schema config, files read) of the input table options."""
    text = read_text(ns.input)
    if ns.schema is not None:
        config = SchemaConfig.from_text(read_text(ns.schema))
    elif ns.infer_schema:
        config = infer_schema(text, class_column=ns.class_column)
    else:
        raise DataError("either --schema or --infer-schema is required")
    return read_csv(text, config), config, [ns.input] + ([ns.schema] if ns.schema else [])


def _emit(payload, out=None):
    """Write a JSON payload to the file ``out``, or to stdout."""
    text = format_json(payload) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _add_impute_options(sub):
    methods = ", ".join(m.value for m in Method)
    sub.add_argument("--method", default=ImputeConfig.method.value, help=f"one of: {methods}")
    sub.add_argument("--k", type=int, default=ImputeConfig.k,
                     help="neighborhood size (default: select by CV)")
    sub.add_argument("--k-grid", type=int, nargs="+", default=list(ImputeConfig.k_grid))
    sub.add_argument("--rho", type=float, default=ImputeConfig.rho)
    sub.add_argument("--epsilon", type=float, default=ImputeConfig.epsilon)
    sub.add_argument("--max-iter", type=int, default=ImputeConfig.max_iter)
    sub.add_argument("--seed", type=int, default=ImputeConfig.seed)


def _config_from(ns) -> ImputeConfig:
    try:
        return ImputeConfig(**{f.name: getattr(ns, f.name)
                               for f in fields(ImputeConfig) if f.name in ns})
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR) from None


def _cmd_impute(ns) -> int:
    impute_config = _config_from(ns)
    dataset, config, inputs = _load_table(ns)
    # before any output, so a schema that cannot be written back fails cleanly
    schema_text = config.to_text() if ns.infer_schema else None
    result = run_impute(dataset, impute_config)
    out = Path(ns.out)
    out.write_text(write_csv(result.completed, config.missing_tokens[0]), encoding="utf-8")
    trace_path = ns.out + ".trace.json"
    trace = {
        "method": impute_config.method.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "chosen_k": result.chosen_k,
        "pool_fallback": result.used_pool_fallback,
        "max_change_per_iteration": list(result.trace),
        "feature_weights": None if result.weights_used is None else list(result.weights_used),
        "feature_mi": None if result.mi_estimates is None
        else [{"mi_bits": e.mi, "estimator": e.estimator} for e in result.mi_estimates],
    }
    Path(trace_path).write_text(format_json(trace) + "\n", encoding="utf-8")
    outputs = [ns.out, trace_path]
    if schema_text is not None:
        inferred_path = ns.out + ".schema.cfg"
        Path(inferred_path).write_text(schema_text, encoding="utf-8")
        outputs.append(inferred_path)
    _write_manifest(ns, inputs, outputs)
    return 0


def _cmd_mi(ns) -> int:
    dataset = _load_table(ns)[0]
    if dataset.labels is None:
        raise DataError("mi requires a class column in the schema")
    normalized, _ = normalize(dataset)
    filled = initial_impute(normalized, per_class=False)
    weights, estimates = dataset_class_weights(filled)
    _emit({
        "features": [
            {"name": feat.name, "mi_bits": est.mi, "estimator": est.estimator, "weight": float(w)}
            for feat, est, w in zip(dataset.schema.features, estimates, weights)
        ]
    }, ns.out)
    return 0


def _write_dataset_outputs(ns, dataset, inputs, flipped=None):
    Path(ns.out).write_text(write_csv(dataset), encoding="utf-8")
    outputs = [ns.out]
    if flipped is not None:
        mask_path = ns.out + ".mask.csv"
        _write_positions_csv(mask_path, dataset, flipped)
        outputs.append(mask_path)
    _write_manifest(ns, inputs, outputs)
    return 0


def _write_positions_csv(path, dataset, positions):
    rows = np.where(positions, "1", "0").tolist()
    Path(path).write_text(csv_table([f.name for f in dataset.schema.features], rows),
                          encoding="utf-8", newline="")


def _read_positions_csv(path, truth):
    """The 0/1 mask of scored cells: the truth's feature names, then one
    row of 0 or 1 cells per truth row."""
    try:
        header, body = _parse_rows(read_text(path))
    except ParseError as exc:
        raise DataError(f"mask {str(path)!r}: {exc}") from None
    if header != [f.name for f in truth.schema.features]:
        raise DataError("mask header does not match the schema's feature columns")
    if len(body) != truth.n or any(len(r) != truth.p or not set(r) <= {"0", "1"} for r in body):
        raise DataError(f"mask must hold {truth.n} rows of {truth.p} cells, each 0 or 1")
    return np.array(body, dtype=str).reshape(truth.n, truth.p) == "1"


def _cmd_synth(ns) -> int:
    if ns.scenario == "cubes":
        dataset = gen_cubes(ns.seed)
    else:
        dataset, _ = gen_mvn_mar(ns.seed)
    return _write_dataset_outputs(ns, dataset, [])


def _cmd_inject(ns) -> int:
    dataset, _, inputs = _load_table(ns)
    if ns.mechanism == "mcar":
        injected = inject_mcar(dataset, ns.columns, ns.rate, ns.seed)
    else:
        coeffs = tuple((ns.coeff,) * len(ns.predictors) for _ in ns.targets)
        spec = MarSpec(targets=tuple(ns.targets), predictors=tuple(ns.predictors),
                       coefficients=coeffs, target_rate=ns.rate)
        injected = inject_mar(dataset, spec, ns.seed)
    return _write_dataset_outputs(ns, injected, inputs, dataset.mask & ~injected.mask)


# passed to BenchmarkSpec only when the file holds them; it defaults them
_SPEC_MECHANISM_KEYS = ("mechanism", "mcar_columns", "mar_targets", "mar_predictors")
_SPEC_KEYS = {"dataset", "methods", "rates", "seeds", *_SPEC_MECHANISM_KEYS}
# passed straight to ImputeConfig, which defaults and checks them
_SPEC_CONFIG_KEYS = tuple(f.name for f in fields(ImputeConfig) if f.name not in ("method", "seed"))


def _spec_from_file(path: str):
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise DataError(f"spec {path!r} must hold a JSON object")
    unknown = sorted(set(raw) - _SPEC_KEYS - set(_SPEC_CONFIG_KEYS))
    if unknown:
        raise DataError(f"unknown spec key(s) {', '.join(map(repr, unknown))} in {path!r}")
    source = raw.get("dataset")
    if isinstance(source, dict):
        if set(source) != {"file", "schema"} or not all(isinstance(v, str) for v in source.values()):
            raise DataError("spec key 'dataset' must be an object of two paths, 'file' and 'schema'")
        config = SchemaConfig.from_text(read_text(source["schema"]))
        source_obj: object = read_csv(read_text(source["file"]), config)
        extra_inputs = [source["file"], source["schema"]]
    else:
        source_obj = source
        extra_inputs = []

    def required(key, kind):
        if key not in raw:
            raise DataError(f"spec {path!r} lacks the key {key!r}")
        try:
            return tuple(kind(v) for v in raw[key])
        except (TypeError, ValueError):
            raise DataError(f"spec key {key!r} must list {kind.__name__} values") from None

    def integer(value):  # int() would take 1.7, true or "1" and run another seed
        if type(value) is not int:
            raise TypeError(value)
        return value

    mechanism = {key: raw[key] for key in _SPEC_MECHANISM_KEYS if key in raw}
    spec = BenchmarkSpec(
        dataset=source_obj,
        methods=required("methods", str),
        rates=required("rates", float),
        seeds=required("seeds", integer),
        config=ImputeConfig(**{key: raw[key] for key in _SPEC_CONFIG_KEYS if key in raw}),
        **mechanism,
    )
    return spec, extra_inputs


def _cmd_benchmark(ns) -> int:
    spec, extra_inputs = _spec_from_file(ns.spec)
    rows = benchmark(replace(spec, timing=not ns.no_timing))
    Path(ns.out).write_text(write_report(rows), encoding="utf-8")
    outputs = [ns.out]
    if ns.csv:
        table = csv_table(REPORT_FIELDS, ([csv_field("" if row[f] is None else str(row[f]))
                                           for f in REPORT_FIELDS] for row in rows))
        Path(ns.csv).write_text(table, encoding="utf-8")
        outputs.append(ns.csv)
    _write_manifest(ns, [ns.spec] + extra_inputs, outputs)
    return 0


def _cmd_eval(ns) -> int:
    config = SchemaConfig.from_text(read_text(ns.schema))
    truth = read_csv(read_text(ns.truth), config)
    imputed = read_csv(read_text(ns.imputed), config)
    positions = _read_positions_csv(ns.mask, truth)
    metrics = {"rmse": rmse(truth, imputed, positions), "masked_cells": int(positions.sum())}
    if imputed.labels is not None:
        metrics["classification_accuracy"] = kfold_cv(imputed, seed=ns.seed)
    _emit(metrics, ns.out)
    return 0


def _cmd_validate(ns) -> int:
    report = validate(_load_table(ns)[0])
    _emit({
        "violations": [
            {"row": v.row, "column": v.column, "kind": v.kind, "detail": v.detail}
            for v in report.violations
        ],
        "missing_rates": list(report.missing_rates),
    })
    return 0


def _cmd_rerun(ns) -> int:
    manifest = _read_json(ns.manifest)
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise DataError(
            "manifest must be a JSON object whose argv lists strings; one written "
            "by an older greyimpute holds no argv and cannot be replayed"
        )
    replayed = build_parser().parse_args(argv)
    if replayed.command not in ("impute", "synth", "inject", "benchmark"):
        raise DataError(f"manifest argv replays {replayed.command!r}, which writes no manifest")
    inputs = manifest.get("inputs", {})
    if not (isinstance(inputs, dict) and all(isinstance(v, str) for v in inputs.values())):
        raise DataError("manifest inputs must be a JSON object of path: digest strings")
    # a relative --out replays against the current directory, so replay
    # only where it names this manifest's outputs again
    out = replayed.out
    written = Path(out + ".manifest.json")
    here = Path(ns.manifest).resolve()
    if written.resolve() != here:
        where = (
            f"; run rerun from {here.parents[len(written.parts) - 1]}"
            if not written.is_absolute() and ".." not in written.parts
            else ""
        )
        raise DataError(f"manifest replays --out {out!r} from another directory{where}")
    for path, digest in inputs.items():
        actual = _sha256(path)
        if actual != digest:
            raise DataError(f"input {path!r} changed since the manifest was written")
    return main(argv)


def build_parser() -> _Parser:
    parser = _Parser(prog="greyimpute", description=__doc__)
    parser.add_argument("--version", action="version", version=f"greyimpute {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("impute", help="impute a CSV dataset",
                         description="An inferred schema is written next to the output.")
    _add_table_options(sp)
    sp.add_argument("--out", default="imputed.csv")
    _add_impute_options(sp)
    sp.set_defaults(func=_cmd_impute)

    sp = subs.add_parser("mi", help="per-feature class relevance as JSON")
    _add_table_options(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_mi)

    sp = subs.add_parser("synth", help="generate a benchmark scenario")
    sp.add_argument("scenario", choices=["cubes", "mvn"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_synth)

    sp = subs.add_parser("inject", help="inject missingness into a CSV dataset")
    sp.add_argument("mechanism", choices=["mcar", "mar"])
    _add_table_options(sp)
    sp.add_argument("--columns", nargs="+", default=["x1"], help="MCAR target columns")
    sp.add_argument("--targets", nargs="+", default=[], help="MAR target columns")
    sp.add_argument("--predictors", nargs="+", default=[], help="MAR predictor columns")
    sp.add_argument("--coeff", type=float, default=1.0, help="MAR coefficient per predictor")
    sp.add_argument("--rate", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_inject)

    sp = subs.add_parser("benchmark", help="run a benchmark spec file")
    sp.add_argument("spec")
    sp.add_argument("--out", default="report.json")
    sp.add_argument("--csv", default=None, help="also write a flat CSV table")
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility and ignored; cells run on "
                         "one worker process per available CPU")
    sp.add_argument("--no-timing", action="store_true",
                    help="zero the wall_time_ms fields for reproducible bytes")
    sp.set_defaults(func=_cmd_benchmark)

    sp = subs.add_parser("eval", help="score an imputed dataset against the truth")
    sp.add_argument("--truth", required=True)
    sp.add_argument("--imputed", required=True)
    sp.add_argument("--mask", required=True, help="0/1 CSV of scored positions")
    sp.add_argument("--schema", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_eval)

    sp = subs.add_parser("validate", help="report dataset invariant violations")
    _add_table_options(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = subs.add_parser("rerun", help="re-execute a run from its manifest")
    sp.add_argument("manifest")
    sp.set_defaults(func=_cmd_rerun)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    ns.argv = argv
    try:
        return ns.func(ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataError, OSError) as exc:  # OSError: a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
