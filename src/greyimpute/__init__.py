"""Iterative kNN imputation for mixed-type tabular data.

Six method variants over one engine: the mean/mode baseline, plain
iterative kNN under the heterogeneous Euclidean/overlap metric, its
class-relevance-weighted form, grey-relational kNN within classes, its
inter-feature-weighted form, and class-relevance-weighted grey kNN. Plus
generators and injectors for benchmark scenarios and an evaluation
harness.
"""

from .dataset import (
    Dataset,
    Feature,
    RangeTable,
    Schema,
    ValidationReport,
    normalize,
    validate,
)
from .engine import (
    ImputationResult,
    ImputeConfig,
    Method,
    impute_test,
    run_impute,
)
from .estimator import GreyKNNImputer
from .evaluate import BenchmarkSpec, benchmark, classification_accuracy, kfold_cv, rmse
from .io import SchemaConfig, infer_schema, read_csv, write_csv, write_report
from .synth import MarSpec, gen_cubes, gen_mvn_mar, inject_mar, inject_mcar

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Feature",
    "Schema",
    "RangeTable",
    "ValidationReport",
    "validate",
    "normalize",
    "Method",
    "ImputeConfig",
    "ImputationResult",
    "run_impute",
    "impute_test",
    "GreyKNNImputer",
    "SchemaConfig",
    "read_csv",
    "write_csv",
    "infer_schema",
    "write_report",
    "MarSpec",
    "gen_cubes",
    "gen_mvn_mar",
    "inject_mcar",
    "inject_mar",
    "BenchmarkSpec",
    "benchmark",
    "rmse",
    "classification_accuracy",
    "kfold_cv",
    "__version__",
]
