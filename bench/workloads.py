"""The four workloads: how each makes its inputs, runs one operation and
checks the outputs.

Each workload exposes ``setup(seed)``, ``round()`` (the keys of one whole
round of operations), ``run(key)`` (the timed operation), ``fingerprint``
(the bytes a repeat of the operation must reproduce) and ``check`` (returns
the operation's rmse and accuracy, or raises ``CheckFailed``). ``finish``
holds the checks that speak of the whole run.

Calls into the package that the traced run should see go through module
attributes (``cli.main``, ``synth.gen_cubes``, ``estimator.GreyKNNImputer``)
so the wrappers installed by ``tracing.Tracer`` are the ones called.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from greyimpute import cli, estimator, synth
from greyimpute.dataset import Dataset
from greyimpute.engine import ImputeConfig, run_impute
from greyimpute.evaluate import kfold_cv

from checks import (
    check_completed,
    check_one_sweep,
    check_transform_rows,
    mean_imputation_rmse,
    normalized_rmse,
    observed_range,
    once,
    read_table,
    require,
    write_schema,
    write_table,
)


def rotate(items, seed):
    items = list(items)
    k = seed % len(items)
    return items[k:] + items[:k]


def stack_cubes(seeds):
    """Several ``gen_cubes`` tables, one under the other."""
    parts = [synth.gen_cubes(s) for s in seeds]
    values = np.vstack([p.values for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    return Dataset(parts[0].schema, values, np.ones_like(values, dtype=bool), labels)


def derive_seed(seed, *extra):
    """The per-cell injection seed ``greyimpute benchmark`` documents:
    63 bits of ``SeedSequence([seed, *extra])``."""
    state = np.random.SeedSequence([int(seed), *[int(e) for e in extra]]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFFFFFFFFFF


def accuracy_of(truth, values):
    """Naive-Bayes 10-fold accuracy on the imputed data."""
    completed = Dataset(truth.schema, values, np.ones_like(values, dtype=bool), truth.labels)
    return kfold_cv(completed)


class CliImpute:
    """``greyimpute impute --method cgknn`` with a declared schema, from
    ``read_csv`` to the manifest; one operation per input table."""

    def __init__(self, work, oracle):
        self.work = work
        self.oracle = oracle
        self.tables = {}  # key -> (truth, injected)
        self.rmses, self.baselines = [], []
        self.oracle_verdicts = {}
        self.capped = set()

    def paths(self, key):
        base = self.work / f"t{key}"
        return f"{base}.csv", f"{base}.cfg", f"{base}.out.csv"

    def add_table(self, key, truth, injected):
        data, schema, _ = self.paths(key)
        write_table(data, injected)
        write_schema(schema, injected)
        self.tables[key] = (truth, injected)

    def run(self, key):
        data, schema, out = self.paths(key)
        return cli.main(["impute", data, "--schema", schema, "--method", "cgknn", "--out", out])

    def fingerprint(self, key, code):
        out = self.paths(key)[2]
        return b"".join(
            Path(path).read_bytes() for path in (out, out + ".trace.json", out + ".manifest.json")
        )

    def check(self, key, code):
        require(code == 0, f"impute exited {code}")
        truth, injected = self.tables[key]
        data, _, out = self.paths(key)
        with open(out + ".manifest.json", encoding="utf-8") as fh:
            json.load(fh)
        with open(out + ".trace.json", encoding="utf-8") as fh:
            trace = json.load(fh)
        header, values, labels = read_table(out)
        in_header, _, in_labels = read_table(data)
        require(header == in_header and labels == in_labels, "header or class column changed")
        check_completed(injected, values, *observed_range(injected))
        if not trace["converged"]:
            self.capped.add(key)
        if self.oracle_sweeps:
            once(self.oracle_verdicts, key,
                 lambda: check_one_sweep(self.oracle, injected, "cgknn", trace["chosen_k"]))
        rmse = normalized_rmse(truth, values, ~injected.mask)
        baseline = mean_imputation_rmse(truth, injected)
        self.rmses.append(rmse)
        self.baselines.append(baseline)
        if self.per_op_baseline:
            require(rmse < baseline, f"rmse {rmse:.4f} not below mean imputation {baseline:.4f}")
        return rmse, accuracy_of(truth, values)

    def finish(self):
        if self.capped:
            print(f"capped at max_iter: {sorted(self.capped)}", file=sys.stderr)


class MvnMar(CliImpute):
    """Ten fixed correlated-normal tables (seeds 1-10), 400x5, with
    calibrated MAR at rate 0.2 in x4/x5. A run cycles all ten; the seed
    only rotates where the cycle starts."""

    TABLES = tuple(range(1, 11))
    RATE = 0.2
    INJECT_SEED = 1000  # plus the table seed
    rows_per_op = 400
    oracle_sweeps = True
    per_op_baseline = False

    def setup(self, seed):
        self.order = rotate(self.TABLES, seed)
        for s in self.TABLES:
            truth, mar = synth.gen_mvn_mar(s)
            mar = dataclasses.replace(mar, target_rate=self.RATE)
            self.add_table(s, truth, synth.inject_mar(truth, mar, self.INJECT_SEED + s))

    def round(self):
        return self.order

    def finish(self):
        super().finish()
        require(self.rmses, "no operation passed its checks")
        rmse, baseline = np.mean(self.rmses), np.mean(self.baselines)
        require(rmse < baseline, f"mean rmse {rmse:.4f} not below mean imputation {baseline:.4f}")


class Scale4k(CliImpute):
    """4000x23 rows: ``gen_cubes`` seeds 1-10 stacked, with 10% MCAR in x1.
    The input is the same for every seed: a run holds only two operations,
    and across inputs k selection alone moves the time and the rmse by up
    to 2x."""

    RATE = 0.1
    INJECT_SEED = 4000
    rows_per_op = 4000
    oracle_sweeps = False
    per_op_baseline = True

    def setup(self, seed):
        truth = stack_cubes(range(1, 11))
        self.add_table(0, truth, synth.inject_mcar(truth, ["x1"], self.RATE, self.INJECT_SEED))

    def round(self):
        return [0]


class CubesSweep:
    """``greyimpute benchmark --jobs 2 --no-timing`` on the cube scenario:
    one cube seed per operation, MCAR in x1 at rates 0.1 and 0.2, five
    methods (ten cells of 400 rows). A run cycles the fixed seeds; the
    seed only rotates where the cycle starts."""

    SEEDS = (1, 2, 3)
    METHODS = ("iknn", "miknn", "gknn", "fwgknn", "cgknn")
    RATES = (0.1, 0.2)
    rows_per_op = len(METHODS) * len(RATES) * 400

    def __init__(self, work, oracle):
        self.work = work
        self.oracle = oracle
        self.recompute_verdicts = {}

    def paths(self, key):
        base = self.work / f"cubes{key}"
        return f"{base}.json", f"{base}.report.json"

    def setup(self, seed):
        self.order = rotate(self.SEEDS, seed)
        for s in self.SEEDS:
            spec = {
                "dataset": "cubes",
                "mechanism": "mcar",
                "mcar_columns": ["x1"],
                "methods": list(self.METHODS),
                "rates": list(self.RATES),
                "seeds": [s],
            }
            with open(self.paths(s)[0], "w", encoding="utf-8") as fh:
                json.dump(spec, fh, indent=2)

    def round(self):
        return self.order

    def run(self, key):
        spec, report = self.paths(key)
        return cli.main(["benchmark", spec, "--out", report, "--jobs", "2", "--no-timing"])

    def fingerprint(self, key, code):
        report = self.paths(key)[1]
        return Path(report).read_bytes() + Path(report + ".manifest.json").read_bytes()

    def check(self, key, code):
        require(code == 0, f"benchmark exited {code}")
        report_path = self.paths(key)[1]
        with open(report_path + ".manifest.json", encoding="utf-8") as fh:
            json.load(fh)
        with open(report_path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
        truth = synth.gen_cubes(key)
        cells = {}
        for rate in self.RATES:
            # the cell's input, as the report documents it
            injected = synth.inject_mcar(truth, ["x1"], rate, derive_seed(key, int(rate * 1e6)))
            baseline = mean_imputation_rmse(truth, injected)
            for method in self.METHODS:
                cell = runs[method][repr(rate)]["seeds"][str(key)]
                require(cell["error"] is None, f"{method} {rate}: {cell['error']}")
                require(0.0 < cell["rmse"] < baseline, f"{method} {rate}: rmse {cell['rmse']}")
                require(0.0 < cell["classification_accuracy"] <= 1.0, f"{method} {rate}: accuracy")
                cells[method, rate] = (cell, injected)
        once(self.recompute_verdicts, key, lambda: self.recompute(key, truth, cells))
        reported = [cell for cell, _ in cells.values()]
        return (float(np.mean([c["rmse"] for c in reported])),
                float(np.mean([c["classification_accuracy"] for c in reported])))

    def recompute(self, key, truth, cells):
        """Re-impute two cells of the report, cgknn and one other method
        chosen by the cube seed, and match them to the report and the oracle."""
        other = self.METHODS[(key - 1) % (len(self.METHODS) - 1)]
        for method, rate in (("cgknn", 0.1), (other, 0.2)):
            cell, injected = cells[method, rate]
            result = run_impute(injected, ImputeConfig(method=method, seed=key))
            values = result.completed.values
            check_completed(injected, values, *observed_range(injected))
            rmse = normalized_rmse(truth, values, ~injected.mask)
            where = f"{method} {rate}"
            require(math.isclose(rmse, cell["rmse"], rel_tol=1e-12), f"{where}: report rmse")
            require(result.chosen_k == cell["chosen_k"], f"{where}: report chosen_k")
            check_one_sweep(self.oracle, injected, method, result.chosen_k)

    def finish(self):
        pass


class Transform:
    """``GreyKNNImputer(method="cgknn")`` fitted in set-up on 1200 labeled
    cube rows (10% MCAR in x1-x3); one operation is ``transform`` of a
    2000-row batch from other cube seeds with 10% MCAR in all 23 features.
    The fit rows and the batches are fixed; the seed rotates the batches."""

    BASE = 100_000
    BATCHES = 6
    RATE = 0.1
    SAMPLE_ROWS = 4
    # the 20 noise columns are independent of everything, so no donor
    # estimate beats the column mean there; the baseline check uses x1-x3
    INFORMATIVE = (0, 1, 2)
    rows_per_op = 2000

    def __init__(self, work, oracle):
        self.work = work
        self.oracle = oracle
        self.oracle_verdicts = {}

    def setup(self, seed):
        base = self.BASE
        self.order = rotate(range(self.BATCHES), seed)
        train_truth = stack_cubes([base, base + 1, base + 2])
        self.train = synth.inject_mcar(train_truth, ["x1", "x2", "x3"], self.RATE, base)
        self.imputer = estimator.GreyKNNImputer(method="cgknn")
        self.imputer.fit(self.train.values, self.train.labels)
        names = [f.name for f in train_truth.schema.features]
        self.batches = []
        for b in range(self.BATCHES):
            truth = stack_cubes([base + 10 + 5 * b + i for i in range(5)])
            self.batches.append((truth, synth.inject_mcar(truth, names, self.RATE, base + 50 + b)))

    def round(self):
        return self.order

    def run(self, key):
        return self.imputer.transform(self.batches[key][1].values)

    def fingerprint(self, key, out):
        return out.tobytes()

    def check(self, key, out):
        truth, injected = self.batches[key]
        check_completed(injected, out, *observed_range(self.train))
        incomplete = np.nonzero(~injected.mask.all(axis=1))[0]
        rows = np.random.default_rng(key).choice(incomplete, self.SAMPLE_ROWS, replace=False)
        once(self.oracle_verdicts, key, lambda: check_transform_rows(
            self.oracle, self.imputer, self.train, injected, out, sorted(rows)))
        rmse = normalized_rmse(truth, out, ~injected.mask)
        positions = ~injected.mask & np.isin(np.arange(injected.p), self.INFORMATIVE)
        informative = normalized_rmse(truth, out, positions)
        baseline = mean_imputation_rmse(truth, injected, self.INFORMATIVE)
        require(informative < baseline, f"x1-x3 rmse {informative:.4f} not below {baseline:.4f}")
        return rmse, accuracy_of(truth, out)

    def finish(self):
        pass


WORKLOADS = {
    "cubes-sweep": CubesSweep,
    "mvn-mar": MvnMar,
    "scale-4k": Scale4k,
    "transform": Transform,
}

__all__ = ["WORKLOADS"]
