"""Smoke test for the benchmark: every workload runs one operation and its
repeat with all their checks, plus two traced runs whose counts must agree
exactly.

    python3 -m pytest -q bench/test_smoke.py

The runs go in parallel processes so the whole test stays well under a
minute; ``scale-4k`` (two 4000-row imputations) sets its length.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("cubes-sweep", "mvn-mar", "scale-4k", "transform")
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "rmse": "normalized",
    "accuracy": "fraction",
}
EXACT_COUNTS = ("distance.pairs", "engine.sweeps", "engine.capped_runs",
                "relevance.parzen_calls", "evaluate.cells")


def _start(workload, trace):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--max-ops", "2"]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _result(proc):
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_every_workload_one_operation_and_its_repeat():
    plain = {w: _start(w, 0) for w in WORKLOADS}
    traced = [_start("mvn-mar", 1), _start("mvn-mar", 1)]
    results = {w: _result(p) for w, p in plain.items()}
    layers = [_result(p) for p in traced]

    for workload, result in results.items():
        assert result["correct"], workload
        assert (result["attempted"], result["failed"]) == (2, 0), workload
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == END_TO_END, workload
        assert all(v["value"] > 0 for v in result["metrics"].values()), workload

    first, second = (r["metrics"] for r in layers)
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["engine.sweeps"]["value"] > 0
    assert first["distance.pairs"]["value"] > 0
