"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line
per criterion as it completes. Several criteria compare seed-averaged
benchmark results against published reference windows; the suites they
depend on are session-scoped so the expensive sweeps run once.
"""

import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from greyimpute.dataset import Dataset, normalize
from greyimpute.distance import GreyMetric
from greyimpute.engine import ImputeConfig, prepare, run_impute, sweep
from greyimpute.evaluate import BenchmarkSpec, benchmark
from greyimpute.io import SchemaConfig, read_csv, write_report
from greyimpute.relevance import dataset_class_weights
from greyimpute.synth import gen_cubes, inject_mcar

from _oracles import oracle_one_iteration
from conftest import build_dataset, random_mixed_dataset

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
SEEDS = tuple(range(1, 11))
METHODS_CUBE = ("iknn", "gknn", "fwgknn", "cgknn")


def _verdict(name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {name}: {status}"
    if detail:
        line += f" — {detail}"
    if failures:
        line += " — " + "; ".join(failures)
    print(line, flush=True)
    assert not failures, line


def _mean(rows, method, rate, field):
    vals = [
        r[field]
        for r in rows
        if r["method"] == method and r["missing_rate"] == rate and r[field] is not None
    ]
    return float(np.mean(vals))


@pytest.fixture(scope="session")
def cube_rows():
    spec = BenchmarkSpec(
        dataset="cubes", methods=METHODS_CUBE, rates=(0.1, 0.2), seeds=SEEDS,
        mechanism="mcar", mcar_columns=("x1",), timing=False,
    )
    start = time.perf_counter()
    rows = benchmark(spec)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def mvn_rows():
    spec = BenchmarkSpec(
        dataset="mvn", methods=("iknn", "gknn", "cgknn"), rates=(0.1, 0.2),
        seeds=SEEDS, mechanism="mar", timing=False,
    )
    rows = benchmark(spec)
    return rows


@pytest.fixture(scope="session")
def iris_rows():
    config = SchemaConfig.from_text((DATA_DIR / "iris.schema.cfg").read_text())
    iris = read_csv((DATA_DIR / "iris.csv").read_text(), config)
    spec = BenchmarkSpec(
        dataset=iris, methods=("gknn", "cgknn"), rates=(0.1,), seeds=SEEDS,
        mechanism="mar", mar_targets=(2, 3), mar_predictors=(0, 1), timing=False,
    )
    start = time.perf_counter()
    rows = benchmark(spec)
    return rows, time.perf_counter() - start


def test_criterion_1_oracle_equivalence():
    """One sweep of every method matches the brute-force reference on 200
    random mixed datasets: neighbor sets exactly, values within 1e-12."""
    failures = []
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for trial in range(200):
        ds = random_mixed_dataset(rng, max_n=10, max_p=4, missing_rate=0.3)
        k = int(rng.integers(1, min(4, ds.n - 1)))
        for method in ("iknn", "miknn", "gknn", "fwgknn", "cgknn"):
            state = prepare(ds, ImputeConfig(method=method, k=k, seed=trial))
            result = sweep(state)
            oracle_nbrs, oracle_vals = oracle_one_iteration(
                ds, method, k, rho=0.5, weights=state.metric.weights
            )
            for row, nbrs in result.neighbors.items():
                if list(nbrs) != [i for i, _ in oracle_nbrs[row]]:
                    failures.append(f"neighbors diverge ({method}, trial {trial})")
                    break
            if not np.allclose(state.values, oracle_vals, atol=1e-12, rtol=0):
                failures.append(f"values diverge ({method}, trial {trial})")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict("C1 oracle equivalence", failures[:5], f"200 datasets x 5 methods in {elapsed:.1f}s")


def test_criterion_2_mi_reproduction():
    """Seed-averaged MI of (x1, x2, x3) against the published reference
    values 0.40/0.28/0.21 +- 0.05, noise features <= 0.05."""
    failures = []
    start = time.perf_counter()
    mis = []
    for seed in SEEDS:
        _, estimates = dataset_class_weights(gen_cubes(seed))
        mis.append([e.mi for e in estimates])
    mis = np.array(mis)
    x = mis[:, :3].mean(axis=0)
    for value, target, name in zip(x, (0.40, 0.28, 0.21), ("x1", "x2", "x3")):
        if abs(value - target) > 0.05:
            failures.append(f"MI({name})={value:.3f} not within {target}+-0.05")
    worst_noise = mis[:, 3:].mean(axis=0).max()
    if worst_noise > 0.05:
        failures.append(f"noise MI {worst_noise:.3f} > 0.05")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    detail = f"measured ({x[0]:.3f}, {x[1]:.3f}, {x[2]:.3f}), noise<= {worst_noise:.3f}, {elapsed:.1f}s"
    _verdict("C2 MI reproduction", failures, detail)


def test_criterion_3_cube_rmse_table(cube_rows):
    """Cube scenario seed-averaged RMSE: CGKNN inside the published windows
    and the method ordering CGKNN <= FWGKNN <= GKNN, CGKNN <= IKNN."""
    rows, elapsed = cube_rows
    failures = []
    cg10 = _mean(rows, "cgknn", 0.1, "rmse")
    cg20 = _mean(rows, "cgknn", 0.2, "rmse")
    if not (0.10 <= cg10 <= 0.16):
        failures.append(f"cgknn@10%={cg10:.4f} outside [0.10, 0.16]")
    if not (0.12 <= cg20 <= 0.18):
        failures.append(f"cgknn@20%={cg20:.4f} outside [0.12, 0.18]")
    for rate in (0.1, 0.2):
        cg = _mean(rows, "cgknn", rate, "rmse")
        fw = _mean(rows, "fwgknn", rate, "rmse")
        gk = _mean(rows, "gknn", rate, "rmse")
        ik = _mean(rows, "iknn", rate, "rmse")
        if not cg <= fw:
            failures.append(f"cgknn({cg:.4f}) > fwgknn({fw:.4f}) @{rate}")
        if not fw <= gk:
            failures.append(f"fwgknn({fw:.4f}) > gknn({gk:.4f}) @{rate}")
        if not cg <= ik:
            failures.append(f"cgknn({cg:.4f}) > iknn({ik:.4f}) @{rate}")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    _verdict(
        "C3 cube RMSE table", failures,
        f"cgknn 10%={cg10:.4f}, 20%={cg20:.4f}, sweep {elapsed:.0f}s",
    )


def test_criterion_4_cube_accuracy_direction(cube_rows):
    """Naive-Bayes accuracy after CGKNN imputation beats the no-imputation
    baseline by at least 5 percentage points at 10% missingness."""
    rows, _ = cube_rows
    ca = _mean(rows, "cgknn", 0.1, "classification_accuracy")
    base = _mean(rows, "cgknn", 0.1, "baseline_accuracy")
    gap = (ca - base) * 100.0
    failures = []
    if gap < 5.0:
        failures.append(f"accuracy gap {gap:.2f}pt < 5pt (ca={ca:.4f}, baseline={base:.4f})")
    _verdict("C4 cube accuracy direction", failures, f"ca={ca:.4f}, baseline={base:.4f}, gap={gap:.2f}pt")


def test_criterion_5_mar_scenario_direction(mvn_rows):
    """MAR scenario orderings: CGKNN RMSE <= IKNN and GKNN; CGKNN accuracy
    >= GKNN accuracy, at both calibrated rates."""
    rows = mvn_rows
    failures = []
    for rate in (0.1, 0.2):
        cg = _mean(rows, "cgknn", rate, "rmse")
        gk = _mean(rows, "gknn", rate, "rmse")
        ik = _mean(rows, "iknn", rate, "rmse")
        cg_ca = _mean(rows, "cgknn", rate, "classification_accuracy")
        gk_ca = _mean(rows, "gknn", rate, "classification_accuracy")
        if not cg <= ik:
            failures.append(f"rmse cgknn({cg:.4f}) > iknn({ik:.4f}) @{rate}")
        if not cg <= gk:
            failures.append(f"rmse cgknn({cg:.4f}) > gknn({gk:.4f}) @{rate}")
        if not cg_ca >= gk_ca:
            failures.append(f"ca cgknn({cg_ca:.4f}) < gknn({gk_ca:.4f}) @{rate}")
    detail = "; ".join(
        f"@{r}: cgknn={_mean(rows, 'cgknn', r, 'rmse'):.4f} gknn={_mean(rows, 'gknn', r, 'rmse'):.4f} iknn={_mean(rows, 'iknn', r, 'rmse'):.4f}"
        for r in (0.1, 0.2)
    )
    _verdict("C5 MAR scenario direction", failures, detail)


def test_criterion_6_iris_reproduction(iris_rows):
    """Iris at calibrated 10% MAR: seed-averaged CGKNN RMSE inside
    [0.07, 0.13] and CGKNN <= GKNN."""
    rows, elapsed = iris_rows
    failures = []
    cg = _mean(rows, "cgknn", 0.1, "rmse")
    gk = _mean(rows, "gknn", 0.1, "rmse")
    if not (0.07 <= cg <= 0.13):
        failures.append(f"cgknn={cg:.4f} outside [0.07, 0.13]")
    if not cg <= gk:
        failures.append(f"cgknn({cg:.4f}) > gknn({gk:.4f})")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.0f}s >= 60s")
    _verdict("C6 iris reproduction", failures, f"cgknn={cg:.4f}, gknn={gk:.4f}, {elapsed:.0f}s")


def test_criterion_7_invariant_suites(cube_rows, mvn_rows, iris_rows):
    """Cross-cutting invariants: cell preservation, completeness,
    idempotence, grade bounds and approachability, weight simplex, MI
    bounds, round-trip precision, convergence on every benchmark
    scenario."""
    failures = []
    rng = np.random.default_rng(77)

    # observed-cell preservation, completeness, idempotence
    for trial in range(10):
        ds = random_mixed_dataset(rng)
        res = run_impute(ds, ImputeConfig(method="cgknn", k=2, seed=trial))
        if not np.array_equal(res.completed.values[ds.mask], ds.values[ds.mask]):
            failures.append("observed cells not preserved")
        if np.isnan(res.completed.values).any():
            failures.append("output not complete")
    complete = build_dataset(rng.normal(size=(8, 3)), labels=rng.integers(0, 2, 8))
    res = run_impute(complete, ImputeConfig(method="cgknn", k=2, seed=0))
    if res.iterations != 0 or not np.array_equal(res.completed.values, complete.values):
        failures.append("not idempotent on complete data")

    # grade bounds and approachability, one candidate matrix per check so
    # its candidates share the bounds
    grey = GreyMetric(np.array([False, False]))
    for _ in range(50):
        a, b = rng.random(2), rng.random(2)
        g = 1.0 - grey.distances(a[None, :], b[None, :])[0, 0]
        if not (-1e-12 <= g <= 1 + 1e-12):
            failures.append("grade out of [0,1]")
    candidates = np.array([[d, 0.5] for d in (0.1, 0.4, 0.8)])
    grades = 1.0 - grey.distances(np.array([[0.0, 0.5]]), candidates)[0]
    if not (grades[0] > grades[1] > grades[2]):
        failures.append("approachability violated")

    # weight simplex and MI bounds
    w, estimates = dataset_class_weights(gen_cubes(1))
    if abs(w.sum() - 1.0) > 1e-12 or (w < 0).any():
        failures.append("weights not on the simplex")
    if any(e.mi < 0 or e.mi > 1.0 + 1e-9 for e in estimates):  # H(Y)=1 bit here
        failures.append("MI outside [0, H(Y)]")

    # normalize/from_unit round trip at 1e-12
    vals = rng.normal(scale=100.0, size=(30, 4))
    ds = build_dataset(vals)
    norm, ranges = normalize(ds)
    back = ranges.from_unit(norm.values)
    if not np.allclose(back, vals, rtol=1e-12, atol=1e-9):
        failures.append("round trip beyond 1e-12")

    # convergence at epsilon=1e-4 on every benchmark scenario
    all_rows = cube_rows[0] + mvn_rows + iris_rows[0]
    bad = [r for r in all_rows if r["error"] is None and not r["converged"]]
    if bad:
        scenarios = sorted({f"{r['method']}@{r['missing_rate']}" for r in bad})
        failures.append(
            f"{len(bad)}/{len(all_rows)} cells hit the iteration cap: {', '.join(scenarios)}"
        )

    _verdict("C7 invariant suites", failures, f"{len(all_rows)} benchmark cells checked")


def _report_gaps(got, want, where):
    """Every place where ``got`` departs from ``want``: keys and non-float
    values exactly, floats to 1e-12."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys differ"]
        return [gap for key in want for gap in _report_gaps(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, float):
        same = type(got) is float and abs(got - want) <= 1e-12
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


def test_results_tables_match_the_committed_reports(cube_rows, mvn_rows, iris_rows):
    """Beside C3-C7, from the same sweeps: each acceptance scenario's report
    equals its committed ``results/`` file, so a change that moves any
    rmse, accuracy, k or iteration count shows up here, every moved field
    listed in one failure."""
    gaps = []
    for name, rows in (("cube_mcar", cube_rows[0]), ("mvn_mar", mvn_rows), ("iris_mar", iris_rows[0])):
        want = json.loads((RESULTS_DIR / f"{name}.report.json").read_text(encoding="utf-8"))
        gaps += _report_gaps(json.loads(write_report(rows)), want, name)
    assert not gaps, f"{len(gaps)} field(s) moved:\n" + "\n".join(gaps)


def test_criterion_8_complexity_sanity():
    """One CGKNN iteration scales no worse than quadratic-times-log in the
    per-class size (ratio test, 2x slack, sizes 100/200/400)."""
    def scenario(n_per_class, seed=0):
        gen = np.random.default_rng(seed)
        n = 2 * n_per_class
        values = gen.normal(size=(n, 23))
        values[:n_per_class, 0] += 3.0
        labels = np.array([0] * n_per_class + [1] * n_per_class)
        ds = build_dataset(values, labels=labels)
        return inject_mcar(ds, ["f0"], 0.1, seed + 1)

    def one_iteration_seconds(n_per_class):
        ds = scenario(n_per_class)
        best = float("inf")
        for _ in range(3):
            state = prepare(ds, ImputeConfig(method="cgknn", k=5, seed=1))
            t0 = time.perf_counter()
            sweep(state)
            best = min(best, time.perf_counter() - t0)
        return best

    times = {n: one_iteration_seconds(n) for n in (100, 200, 400)}
    failures = []
    details = []
    for a, b in ((100, 200), (200, 400)):
        measured = times[b] / times[a]
        predicted = (b ** 2 * math.log(b)) / (a ** 2 * math.log(a))
        details.append(f"{a}->{b}: {measured:.2f}x (bound {2 * predicted:.2f}x)")
        if measured > 2.0 * predicted:
            failures.append(
                f"{a}->{b} measured {measured:.2f}x exceeds 2x the n^2 log n prediction {predicted:.2f}x"
            )
    _verdict("C8 complexity sanity", failures, "; ".join(details))


def test_impute_memory_grows_at_most_linearly():
    """Beside C8, not a criterion of its own: the tracemalloc peak of a
    cgknn run with k chosen, on 1000, 2000 and 4000 stacked cube rows with
    10% MCAR in x1. Doubling n may at most double the peak, plus 8 MB of
    slack; a single n x n float64 array (128 MB at 4000 rows) fails it."""
    cubes = [gen_cubes(seed) for seed in range(1, 11)]
    stacked = Dataset(
        cubes[0].schema,
        np.vstack([c.values for c in cubes]),
        np.vstack([c.mask for c in cubes]),
        np.concatenate([c.labels for c in cubes]),
    )

    def peak_mb(n):
        head = Dataset(stacked.schema, stacked.values[:n], stacked.mask[:n], stacked.labels[:n])
        ds = inject_mcar(head, ["x1"], 0.1, 1)
        tracemalloc.start()
        try:
            run_impute(ds, ImputeConfig(method="cgknn"))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    peaks = {n: peak_mb(n) for n in (1000, 2000, 4000)}
    print("memory peaks (MB): " + ", ".join(f"{n}: {mb:.1f}" for n, mb in peaks.items()))
    for a, b in ((1000, 2000), (2000, 4000)):
        assert peaks[b] <= 2.0 * peaks[a] + 8.0, peaks
