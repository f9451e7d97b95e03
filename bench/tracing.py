"""Spans and counts around greyimpute's functions, installed from outside.

The traced run replaces each function where its caller looks it up (a
module attribute such as ``greyimpute.engine.select_k``, or a class
attribute such as ``GreyMetric.distances``) with a wrapper that records a
span: name, start, end, parent span and phase. Nothing inside the package
changes. A name that no longer exists is recorded as absent and its layer
reads 0, so renaming or deleting a function never breaks a run.

Spans are recorded only while a phase is set: ``"setup"`` while inputs are
made (and, for ``transform``, the imputer is fitted), ``"op"`` while a timed
operation runs. The benchmark's own checks run with no phase and leave no
spans. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
import tracemalloc

# (module, attribute where the caller looks the function up, span name)
WRAPPED = (
    ("greyimpute.cli", "main", "cli.main"),
    ("greyimpute.cli", "read_csv", "io.read_csv"),
    ("greyimpute.cli", "write_csv", "io.write_csv"),
    ("greyimpute.cli", "format_json", "io.json"),
    ("greyimpute.cli", "write_report", "io.json"),
    ("greyimpute.cli", "benchmark", "evaluate.benchmark"),
    ("greyimpute.evaluate", "_run_cell", "evaluate.cell"),
    ("greyimpute.evaluate", "run_impute", "evaluate.run_impute"),
    ("greyimpute.evaluate", "kfold_cv", "evaluate.kfold_cv"),
    ("greyimpute.evaluate", "no_imputation_cv", "evaluate.no_imputation_cv"),
    ("greyimpute.evaluate", "rmse", "evaluate.rmse"),
    ("greyimpute.evaluate", "gen_cubes", "synth.generate"),
    ("greyimpute.evaluate", "inject_mcar", "synth.inject"),
    ("greyimpute.synth", "gen_cubes", "synth.generate"),
    ("greyimpute.synth", "gen_mvn_mar", "synth.generate"),
    ("greyimpute.synth", "inject_mcar", "synth.inject"),
    ("greyimpute.synth", "inject_mar", "synth.inject"),
    ("greyimpute.engine", "run_plan", "engine.run"),
    ("greyimpute.engine", "validate", "dataset.validate"),
    ("greyimpute.engine", "normalize", "dataset.normalize"),
    ("greyimpute.engine", "initial_impute", "engine.initial_impute"),
    ("greyimpute.engine", "dataset_class_weights", "relevance.class_weights"),
    ("greyimpute.engine", "feature_feature_weights", "relevance.feature_weights"),
    ("greyimpute.engine", "select_k", "engine.select_k"),
    ("greyimpute.engine", "sweep", "engine.sweep"),
    ("greyimpute.engine", "_compose_result", "engine.compose"),
    ("greyimpute.relevance", "parzen_conditional_entropy", "relevance.parzen"),
    ("greyimpute.distance", "GreyMetric.distances", "distance"),
    ("greyimpute.distance", "HeomMetric.distances", "distance"),
    ("greyimpute.estimator", "GreyKNNImputer.fit", "estimator.fit"),
    ("greyimpute.estimator", "GreyKNNImputer.transform", "estimator.transform"),
    ("greyimpute.estimator", "impute_test", "engine.impute_test"),
)

# per-layer metric -> (kind, span or counter name). "incl" is the summed
# wall time inside the spans, "self" subtracts their wrapped children,
# "calls" counts spans and "count" reads a counter.
LAYER_METRICS = {
    "relevance.class_weights_s": ("incl", "relevance.class_weights"),
    "relevance.parzen_s": ("incl", "relevance.parzen"),
    "relevance.parzen_calls": ("calls", "relevance.parzen"),
    "relevance.feature_weights_s": ("incl", "relevance.feature_weights"),
    "relevance.peak_alloc_mb": ("peak", "relevance.class_weights"),
    "engine.select_k_s": ("incl", "engine.select_k"),
    "engine.select_k.self_s": ("self", "engine.select_k"),
    "engine.sweep_s": ("incl", "engine.sweep"),
    "engine.sweep.self_s": ("self", "engine.sweep"),
    "engine.sweeps": ("calls", "engine.sweep"),
    "engine.capped_runs": ("count", "engine.capped_runs"),
    "engine.impute_test_s": ("incl", "engine.impute_test"),
    "engine.initial_impute_s": ("incl", "engine.initial_impute"),
    "engine.compose_s": ("incl", "engine.compose"),
    "distance.calls": ("calls", "distance"),
    "distance.pairs": ("count", "distance.pairs"),
    "distance.s": ("incl", "distance"),
    "dataset.validate_s": ("incl", "dataset.validate"),
    "dataset.normalize_s": ("incl", "dataset.normalize"),
    "io.read_csv_s": ("incl", "io.read_csv"),
    "io.write_csv_s": ("incl", "io.write_csv"),
    "io.json_s": ("incl", "io.json"),
    "cli.self_s": ("self", "cli.main"),
    "evaluate.cells": ("calls", "evaluate.cell"),
    "evaluate.cell_busy_s": ("incl", "evaluate.run_impute"),
    "evaluate.kfold_cv_s": ("incl", "evaluate.kfold_cv"),
    "evaluate.no_imputation_cv_s": ("incl", "evaluate.no_imputation_cv"),
    "evaluate.rmse_s": ("incl", "evaluate.rmse"),
    "estimator.fit_s": ("incl", "estimator.fit"),
    "estimator.transform_s": ("incl", "estimator.transform"),
    "synth.generate_s": ("incl", "synth.generate"),
    "synth.inject_s": ("incl", "synth.inject"),
}


def _count_pairs(tracer, phase, args, kwargs, result):
    # distances(self, query, candidates): one pair per candidate row
    candidates = args[2] if len(args) > 2 else kwargs["candidates"]
    tracer.add(phase, "distance.pairs", len(candidates))


def _count_capped(tracer, phase, args, kwargs, result):
    tracer.add(phase, "engine.capped_runs", 0 if result.converged else 1)


COUNTERS = {"distance": _count_pairs, "engine.run": _count_capped}


class Tracer:
    """In-memory span recorder. Install with :meth:`install`, undo with
    :meth:`uninstall`; set :attr:`phase` around the code to be recorded."""

    def __init__(self):
        self.phase = None
        self.spans = []  # [name, start, end, parent index, phase]
        self.counts = {"setup": {}, "op": {}}
        self.absent = []
        self.peak_alloc = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []
        self._alloc_depth = 0

    def add(self, phase, counter, amount):
        with self._lock:
            bucket = self.counts[phase]
            bucket[counter] = bucket.get(counter, 0) + amount

    def install(self):
        for module_name, attr, span in WRAPPED:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, span))
            self._patched.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, name):
        tracer = self
        counter = COUNTERS.get(name)
        watch_alloc = name == LAYER_METRICS["relevance.peak_alloc_mb"][1]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return original(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, stack[-1] if stack else None, phase])
            stack.append(index)
            if watch_alloc:
                tracer._alloc_enter()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if watch_alloc:
                    tracer._alloc_exit()
                stack.pop()
                tracer.spans[index][1] = start
                tracer.spans[index][2] = end
            if counter is not None:
                counter(tracer, phase, args, kwargs, result)
            return result

        return wrapper

    # tracemalloc is process-wide: overlapping calls from worker threads
    # share one tracing period, and the peak covers both.
    def _alloc_enter(self):
        with self._lock:
            if self._alloc_depth == 0:
                tracemalloc.start()
            self._alloc_depth += 1

    def _alloc_exit(self):
        with self._lock:
            self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
            self._alloc_depth -= 1
            if self._alloc_depth == 0:
                tracemalloc.stop()

    def layer_metrics(self, n_ops: int, n_setups: int) -> dict:
        """Per-layer figures: spans and counters of the operations per
        timed operation, plus those of set-up per set-up."""
        per = {"op": max(n_ops, 1), "setup": max(n_setups, 1)}
        incl, self_s, calls = {}, {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, parent, phase), covered in zip(self.spans, child):
            key = (phase, name)
            incl[key] = incl.get(key, 0.0) + (end - start)
            self_s[key] = self_s.get(key, 0.0) + (end - start - covered)
            calls[key] = calls.get(key, 0) + 1
        tables = {"incl": incl, "self": self_s, "calls": calls}
        out = {}
        for metric, (kind, name) in LAYER_METRICS.items():
            if kind == "peak":
                out[metric] = self.peak_alloc / 2**20
                continue
            value = 0.0
            for phase, units in per.items():
                if kind == "count":
                    value += self.counts[phase].get(name, 0) / units
                else:
                    value += tables[kind].get((phase, name), 0) / units
            out[metric] = value
        out["trace.spans"] = sum(1 for span in self.spans if span[4] == "op") / per["op"]
        return out

    def save(self, path):
        payload = {
            "fields": ["name", "start", "end", "parent", "phase"],
            "absent": self.absent,
            "counts": self.counts,
            "spans": self.spans,
        }
        partial = f"{path}.{os.getpid()}"
        with open(partial, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(partial, path)
