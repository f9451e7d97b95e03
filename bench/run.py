"""Benchmark for greyimpute: four workloads, each a closed loop with one
client (the next operation starts when the last one ends).

    python3 bench/run.py --workload mvn-mar --seed 3 --seconds 10 --trace 0
    python3 bench/run.py                  # every workload, one process each

A run sets up its inputs several times (``setup_s`` is the import time plus
the median set-up), runs the first operation once untimed as a warm-up and
as the reference for the byte-identity check, then runs whole rounds of
operations until ``--seconds`` of operation time have passed. Every
operation's outputs are checked off the timed path; an operation that
raises or fails a check counts in ``failed``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
SETUPS = 3
NAMES = ("cubes-sweep", "mvn-mar", "scale-4k", "transform")
UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "rmse": "normalized",
    "accuracy": "fraction",
}


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children cover any process pool
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def measure(name, seed, seconds, trace, max_ops=0):
    if not (ROOT / "src" / "greyimpute").is_dir():
        sys.exit(f"error: no greyimpute sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from checks import CheckFailed, load_oracle
    from tracing import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    work = OUT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    workload = WORKLOADS[name](work, load_oracle(ROOT))
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    def timed(phase, fn, *args):
        if tracer:
            tracer.phase = phase
        start = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - start
        finally:
            if tracer:
                tracer.phase = None

    setups = [timed("setup", workload.setup, seed)[1] for _ in range(SETUPS)]
    keys = workload.round()
    fingerprints = {}
    untraced = {}  # key -> time of its first, untraced run (traced runs only)
    times, rmses, accuracies, overheads = [], [], [], []
    attempted = failed = rows = 0
    busy = spent = 0.0
    while attempted == 0 or spent < seconds:
        # a round runs every operation twice in a row; the repeat must
        # write the same bytes. A traced run traces only the repeats and
        # times the first runs untraced, which gives the tracing overhead.
        for key in [key for key in keys for _ in range(2)]:
            if attempted == max_ops > 0:
                break
            attempted += 1
            phase = "op" if not tracer or key in untraced else None
            start = time.perf_counter()
            try:
                out, elapsed = timed(phase, workload.run, key)
            except Exception:
                spent += time.perf_counter() - start
                traceback.print_exc()
                failed += 1
                continue
            spent += elapsed
            if phase is None:
                untraced[key] = elapsed
            else:
                times.append(elapsed)
                if tracer:
                    overheads.append(elapsed - untraced[key])
            try:
                digest = workload.fingerprint(key, out)
                if fingerprints.setdefault(key, digest) != digest:
                    raise CheckFailed("a repeat of the operation wrote different bytes")
                rmse, accuracy = workload.check(key, out)
            except CheckFailed as exc:
                print(f"check failed on {name} op {key}: {exc}", file=sys.stderr)
                failed += 1
                continue
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            rmses.append(rmse)
            accuracies.append(accuracy)
            rows += workload.rows_per_op
            busy += elapsed
        if attempted == max_ops > 0:
            break

    correct = bool(rmses)
    try:
        workload.finish()
    except CheckFailed as exc:
        print(f"check failed on {name}: {exc}", file=sys.stderr)
        correct = False

    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics(len(times), SETUPS)
        layers["trace.overhead_s"] = statistics.fmean(overheads) if overheads else 0.0
        tracer.save(OUT / f"spans-{name}.json")
        if tracer.absent:
            print(f"absent layers: {', '.join(tracer.absent)}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "rows_per_s": rows / busy if busy else 0.0,
            "op_s_p50": statistics.median(times) if times else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "rmse": statistics.fmean(rmses) if rmses else 0.0,
            "accuracy": statistics.fmean(accuracies) if accuracies else 0.0,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed, seconds, trace):
    """Every workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
        result = results[name]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, default=None,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many operations (smoke test; 0: no limit)")
    args = parser.parse_args(argv)
    if args.workload is None:
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.max_ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
