import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greyimpute
from greyimpute.cli import (
    _config_from,
    _read_positions_csv,
    _spec_from_file,
    _write_positions_csv,
    build_parser,
    main,
)
from greyimpute.dataset import Dataset, Feature, Schema
from greyimpute.engine import ImputeConfig
from greyimpute.estimator import GreyKNNImputer
from greyimpute.evaluate import REPORT_FIELDS
from greyimpute.io import SchemaConfig, write_csv
from greyimpute.synth import gen_cubes, inject_mcar

SCHEMA = """\
class = class
missing = NA, , ?
feature x1 = continuous
feature x2 = continuous
feature color = categorical red, blue
"""

CSV = """\
x1,x2,color,class
0.1,0.5,red,a
0.2,NA,blue,a
0.9,0.8,red,b
0.8,0.7,?,b
0.15,0.55,red,a
0.85,0.75,blue,b
"""


# the keys a benchmark spec file must hold
BASE_SPEC = {"dataset": "cubes", "methods": ["meanmode"], "rates": [0.1], "seeds": [1]}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "data.csv").write_text(CSV)
    (tmp_path / "schema.cfg").write_text(SCHEMA)
    return tmp_path


def _p(path):
    return str(path)


class TestImputeCommand:
    def test_happy_path_writes_outputs(self, workdir):
        out = workdir / "imputed.csv"
        code = main([
            "impute", _p(workdir / "data.csv"), "--schema", _p(workdir / "schema.cfg"),
            "--method", "cgknn", "--k", "1", "--seed", "7", "--out", _p(out),
        ])
        assert code == 0
        assert out.exists()
        assert (workdir / "imputed.csv.trace.json").exists()
        assert (workdir / "imputed.csv.manifest.json").exists()
        text = out.read_text()
        assert "NA" not in text and "?" not in text

    def test_repeat_run_is_byte_identical(self, workdir):
        argv = [
            "impute", _p(workdir / "data.csv"), "--schema", _p(workdir / "schema.cfg"),
            "--method", "gknn", "--k", "1", "--seed", "3",
            "--out", _p(workdir / "a.csv"),
        ]
        assert main(argv) == 0
        first = (workdir / "a.csv").read_bytes()
        assert main(argv) == 0
        assert (workdir / "a.csv").read_bytes() == first

    @pytest.mark.parametrize("method", ["cgknn", "gknn"])
    def test_trace_records_the_mi_behind_the_weights(self, workdir, method):
        argv = [
            "impute", _p(workdir / "data.csv"), "--schema", _p(workdir / "schema.cfg"),
            "--method", method, "--k", "1", "--out", _p(workdir / "a.csv"),
        ]
        trace_path = workdir / "a.csv.trace.json"
        assert main(argv) == 0
        first = trace_path.read_bytes()
        assert main(argv) == 0
        assert trace_path.read_bytes() == first
        trace = json.loads(first)
        if method == "gknn":
            assert trace["feature_mi"] is None and trace["feature_weights"] is None
            return
        assert [e["estimator"] for e in trace["feature_mi"]] == ["parzen", "parzen", "histogram"]
        mi = np.array([e["mi_bits"] for e in trace["feature_mi"]])
        assert (mi >= 0).all() and mi.sum() > 0
        assert trace["feature_weights"] == pytest.approx(mi / mi.sum(), abs=1e-12)

    def test_unknown_method_is_usage_error(self, workdir, capsys):
        code = main([
            "impute", _p(workdir / "data.csv"), "--schema", _p(workdir / "schema.cfg"),
            "--method", "sparkle", "--out", _p(workdir / "x.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "cgknn" in err and "iknn" in err

    @pytest.mark.parametrize("flags", [
        ["--epsilon", "0"], ["--rho", "2"], ["--k-grid", "0"], ["--k", "0"],
        ["--max-iter", "0"], ["--epsilon", "nan"],
    ])
    def test_bad_run_parameter_is_usage_error(self, workdir, capsys, flags):
        before = sorted(workdir.iterdir())
        code = main([
            "impute", _p(workdir / "data.csv"), "--schema", _p(workdir / "schema.cfg"),
            "--out", _p(workdir / "x.csv"), *flags,
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert sorted(workdir.iterdir()) == before

    def test_missing_input_is_data_error(self, workdir):
        code = main([
            "impute", _p(workdir / "absent.csv"), "--schema", _p(workdir / "schema.cfg"),
            "--out", _p(workdir / "x.csv"),
        ])
        assert code == 2

    def test_input_never_mutated(self, workdir):
        before = (workdir / "data.csv").read_bytes()
        main([
            "impute", _p(workdir / "data.csv"), "--schema", _p(workdir / "schema.cfg"),
            "--method", "iknn", "--k", "1", "--out", _p(workdir / "b.csv"),
        ])
        assert (workdir / "data.csv").read_bytes() == before

    def test_infer_schema_written_for_replay(self, workdir):
        out = workdir / "c.csv"
        code = main([
            "impute", _p(workdir / "data.csv"), "--infer-schema",
            "--method", "iknn", "--k", "1", "--out", _p(out),
        ])
        assert code == 0
        assert main([
            "impute", _p(workdir / "data.csv"), "--schema", _p(workdir / "c.csv.schema.cfg"),
            "--method", "iknn", "--k", "1", "--out", _p(workdir / "c2.csv"),
        ]) == 0
        assert (workdir / "c2.csv").read_bytes() == out.read_bytes()

    def test_infer_schema_with_class_column(self, workdir):
        out = workdir / "cc.csv"
        code = main([
            "impute", _p(workdir / "data.csv"), "--infer-schema",
            "--class-column", "class", "--method", "cgknn", "--k", "1",
            "--seed", "2", "--out", _p(out),
        ])
        assert code == 0
        assert "class = class" in (workdir / "cc.csv.schema.cfg").read_text()

    def test_quoted_carriage_return_level_kept(self, tmp_path):
        text = 'x1,color,class\n1.0,"x\ry",a\nNA,"x\ry",a\n2.0,b,b\n3.0,b,b\n'
        (tmp_path / "cr.csv").write_bytes(text.encode())
        (tmp_path / "cr.cfg").write_text(
            "class = class\nfeature x1 = continuous\nfeature color = categorical\n"
        )
        assert main([
            "impute", _p(tmp_path / "cr.csv"), "--schema", _p(tmp_path / "cr.cfg"),
            "--method", "meanmode", "--out", _p(tmp_path / "o.csv"),
        ]) == 0
        assert (tmp_path / "o.csv").read_bytes() == text.replace("NA", "2.0").encode()

    def test_unwritable_inferred_schema_fails_before_any_output(self, tmp_path):
        # the space after the comma makes the level " red", which the
        # schema text cannot hold
        (tmp_path / "spaced.csv").write_text(
            "x1,color,class\n1.0, red,a\nNA, blue,a\n0.2, red,b\n0.4, blue,b\n"
        )
        code = main([
            "impute", _p(tmp_path / "spaced.csv"), "--infer-schema", "--class-column", "class",
            "--method", "iknn", "--k", "1", "--out", _p(tmp_path / "o.csv"),
        ])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spaced.csv"]


class TestMiCommand:
    def test_emits_weights_summing_to_one(self, workdir, capsys):
        code = main(["mi", _p(workdir / "data.csv"), "--schema", _p(workdir / "schema.cfg")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        weights = [f["weight"] for f in payload["features"]]
        assert sum(weights) == pytest.approx(1.0)
        assert {f["estimator"] for f in payload["features"]} == {"parzen", "histogram"}


class TestSynthAndInject:
    def test_cubes_roundtrip(self, tmp_path):
        out = tmp_path / "cubes.csv"
        assert main(["synth", "cubes", "--seed", "4", "--out", _p(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("x1,x2,x3,noise1")
        assert len(text.splitlines()) == 401

    def test_mvn_scenario(self, tmp_path):
        out = tmp_path / "mvn.csv"
        assert main(["synth", "mvn", "--seed", "4", "--out", _p(out)]) == 0
        assert len(out.read_text().splitlines()) == 401

    def test_inject_mcar_writes_mask(self, tmp_path):
        data = tmp_path / "cubes.csv"
        main(["synth", "cubes", "--seed", "1", "--out", _p(data)])
        out = tmp_path / "holed.csv"
        code = main([
            "inject", "mcar", _p(data), "--infer-schema", "--columns", "x1",
            "--rate", "0.1", "--seed", "2", "--out", _p(out),
        ])
        assert code == 0
        mask_lines = (tmp_path / "holed.csv.mask.csv").read_text().splitlines()
        assert mask_lines[0].startswith("x1,")
        flips = sum(int(line.split(",")[0]) for line in mask_lines[1:])
        assert 20 <= flips <= 60
        assert out.read_text().count("NA") == flips

    def test_inject_mar_calibrated(self, tmp_path):
        data = tmp_path / "mvn.csv"
        main(["synth", "mvn", "--seed", "3", "--out", _p(data)])
        out = tmp_path / "mar.csv"
        code = main([
            "inject", "mar", _p(data), "--infer-schema",
            "--targets", "x4", "x5", "--predictors", "x1", "x2", "x3",
            "--rate", "0.1", "--seed", "5", "--out", _p(out),
        ])
        assert code == 0
        na_count = out.read_text().count("NA")
        assert 70 <= na_count <= 90  # 2 columns x 400 cells at ~10% each

    def test_inject_mar_calibration_miss_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "mvn.csv"
        main(["synth", "mvn", "--seed", "1", "--out", _p(data)])
        small = tmp_path / "small.csv"
        small.write_text("".join(data.read_text().splitlines(keepends=True)[:31]))
        out = tmp_path / "mar.csv"
        code = main([
            "inject", "mar", _p(small), "--infer-schema",
            "--targets", "x4", "x5", "--predictors", "x1", "x2", "x3",
            "--rate", "0.15", "--seed", "5", "--out", _p(out),
        ])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "closest realized rate" in err[0]

    @pytest.mark.parametrize("flags, column", [
        (["mcar", "--columns", "x1", "nope"], "nope"),
        (["mar", "--targets", "nope", "--predictors", "x1"], "nope"),
        (["mar", "--targets", "x4", "--predictors", "x1", "nah"], "nah"),
        (["mcar", "--columns", "x1", "x1"], "x1"),
    ])
    def test_unknown_column_is_data_error(self, tmp_path, capsys, flags, column):
        data = tmp_path / "mvn.csv"
        main(["synth", "mvn", "--seed", "3", "--out", _p(data)])
        before = sorted(p.name for p in tmp_path.iterdir())
        code = main([
            "inject", flags[0], _p(data), "--infer-schema", *flags[1:],
            "--rate", "0.1", "--out", _p(tmp_path / "out.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and repr(column) in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestEvalCommand:
    @staticmethod
    def _files(tmp_path):
        """Truth and imputed CSVs (the imputed one equal to the truth), their
        schema, and the hand-written mask lines of the cells that
        ``inject_mcar`` holes; returns the positions, mask lines and argv."""
        truth = gen_cubes(2)
        holed = inject_mcar(truth, ["x1"], 0.1, 9)
        config = SchemaConfig(
            columns=tuple((f.name, "continuous", None) for f in truth.schema.features),
            class_column="class",
        )
        (tmp_path / "truth.csv").write_text(write_csv(truth))
        (tmp_path / "schema.cfg").write_text(config.to_text())
        main([
            "impute", _p(tmp_path / "truth.csv"), "--schema", _p(tmp_path / "schema.cfg"),
            "--method", "meanmode", "--out", _p(tmp_path / "imp.csv"),
        ])
        positions = truth.mask & ~holed.mask
        # write the mask by hand to match the eval contract
        header = ",".join(f.name for f in truth.schema.features)
        lines = [header] + [
            ",".join(str(int(v)) for v in row) for row in positions.astype(int)
        ]
        (tmp_path / "imputed.csv").write_text(write_csv(truth))
        argv = [
            "eval", "--truth", _p(tmp_path / "truth.csv"),
            "--imputed", _p(tmp_path / "imputed.csv"),
            "--mask", _p(tmp_path / "mask.csv"),
            "--schema", _p(tmp_path / "schema.cfg"),
        ]
        return positions, lines, argv

    def test_scores_injected_cells(self, tmp_path, capsys):
        positions, lines, argv = self._files(tmp_path)
        (tmp_path / "mask.csv").write_text("\n".join(lines) + "\n")
        code = main(argv)
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["rmse"] == 0.0
        assert metrics["masked_cells"] == int(positions.sum())

    @pytest.mark.parametrize("mask", ["short", "empty", "bad-cell"])
    def test_malformed_mask_is_data_error(self, tmp_path, capsys, mask):
        positions, lines, argv = self._files(tmp_path)
        row = int(np.argmax(positions[:, 0])) + 1  # a line holding a 1
        if mask == "short":
            lines = lines[:row + 1]
        elif mask == "empty":
            lines = []
        else:
            lines[row] = "x" + lines[row][1:]
        (tmp_path / "mask.csv").write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "mask" in err[0]
        assert captured.out == ""

    def test_positions_round_trip_carriage_return_names(self, tmp_path):
        schema = Schema((Feature("a\rb"), Feature("c"), Feature("\r")))
        truth = Dataset(schema, np.zeros((2, 3)), np.ones((2, 3), dtype=bool))
        positions = np.array([[True, False, True], [False, False, True]])
        _write_positions_csv(tmp_path / "mask.csv", truth, positions)
        assert np.array_equal(_read_positions_csv(tmp_path / "mask.csv", truth), positions)


class TestBenchmarkCommand:
    def test_report_and_csv(self, tmp_path):
        spec = {
            "dataset": "cubes",
            "methods": ["meanmode"],
            "rates": [0.1],
            "seeds": [1],
            "mechanism": "mcar",
            "mcar_columns": ["x1"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        code = main([
            "benchmark", _p(spec_path), "--out", _p(out), "--csv", _p(csv_out), "--no-timing",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["report_version"] == 1
        assert "meanmode" in report["runs"]
        lines = csv_out.read_text().splitlines()
        assert lines[0].startswith("method,missing_rate,seed,rmse")
        assert lines[0] == ",".join(REPORT_FIELDS)
        assert len(lines) == 2

    def test_jobs_is_accepted_and_changes_nothing(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps({**BASE_SPEC, "methods": ["meanmode", "iknn"]}))
        argv = ["benchmark", _p(tmp_path / "spec.json"), "--no-timing"]
        assert main(argv + ["--out", _p(tmp_path / "serial.json")]) == 0
        assert main(argv + ["--jobs", "2", "--out", _p(tmp_path / "jobs.json")]) == 0
        assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "jobs.json").read_bytes()

    def test_malformed_spec_is_data_error(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text('{"dataset":')
        code = main(["benchmark", _p(tmp_path / "spec.json"), "--out", _p(tmp_path / "r.json")])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("epsilon", 0), ("k", "3"), ("max_iterr", 2), ("rho", 2), ("k_grid", [0]),
        ("folds", 0), ("max_iter", 2.5), ("rates", ["x"]), ("methods", ["sparkle"]),
        ("seeds", [1.7]), ("seeds", [True]), ("dataset", {"schema": "x.cfg"}),
        ("timing", False), ("methods", ["gknn", "gknn"]), ("rates", [0.1, 0.1]),
        ("seeds", [1, 1]),
    ])
    def test_bad_spec_value_is_data_error(self, tmp_path, capsys, key, value):
        (tmp_path / "spec.json").write_text(json.dumps({**BASE_SPEC, key: value}))
        code = main(["benchmark", _p(tmp_path / "spec.json"), "--out", _p(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert key.rstrip("s") in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


    @pytest.mark.parametrize("columns, named", [
        ({"mcar_columns": ["x1", "nope"]}, "'nope'"),
        ({"mcar_columns": [99]}, "99"),
        ({"dataset": "mvn", "mechanism": "mar", "mar_targets": [99], "mar_predictors": [0]}, "99"),
        ({"dataset": "mvn", "mechanism": "mar", "mar_targets": [4], "mar_predictors": [-9]}, "-9"),
        ({"mcar_columns": ["x1", "x1"]}, "'x1'"),
        ({"dataset": "mvn", "mechanism": "mar", "mar_targets": ["x4"], "mar_predictors": ["x1", 3]},
         "'x4'"),
    ])
    def test_unknown_spec_column_is_data_error(self, tmp_path, capsys, columns, named):
        spec = {**BASE_SPEC, "methods": ["cgknn"], **columns}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        code = main(["benchmark", _p(tmp_path / "spec.json"), "--out", _p(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_unknown_mcar_column_is_refused_before_any_cell(self, monkeypatch):
        from greyimpute import evaluate
        from greyimpute.errors import DataError

        ran = []
        monkeypatch.setattr(evaluate, "_run_cell", lambda *args: ran.append(args))
        with pytest.raises(DataError, match="nope"):
            evaluate.benchmark(evaluate.BenchmarkSpec(
                "cubes", ("cgknn",), (0.1,), (1,), mcar_columns=("x1", "nope")
            ))
        assert ran == []


@pytest.mark.parametrize("head, tail", [
    (["impute"], []),
    (["mi"], []),
    (["inject", "mcar"], ["--rate", "0.1", "--out", "o.csv"]),
    (["validate"], []),
])
def test_table_subcommands_accept_the_same_table_options(head, tail):
    table = ["d.csv", "--schema", "s.cfg", "--infer-schema", "--class-column", "c"]
    ns = build_parser().parse_args(head + table + tail)
    assert (ns.input, ns.schema, ns.infer_schema, ns.class_column) == ("d.csv", "s.cfg", True, "c")
    ns = build_parser().parse_args(head + ["d.csv"] + tail)
    assert (ns.input, ns.schema, ns.infer_schema, ns.class_column) == ("d.csv", None, False, None)


def test_run_parameter_defaults_agree(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(BASE_SPEC))
    spec, _ = _spec_from_file(_p(tmp_path / "spec.json"))
    from_flags = _config_from(build_parser().parse_args(["impute", "in.csv"]))
    assert GreyKNNImputer()._config() == from_flags == spec.config == ImputeConfig()


def _replay(argv):
    """Run argv, delete its outputs, rerun its manifest and check that
    every output and the manifest come back byte for byte."""
    assert main(argv) == 0
    manifest_path = Path(argv[argv.index("--out") + 1] + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["argv"] == argv
    before = {path: Path(path).read_bytes() for path in manifest["outputs"]}
    before[str(manifest_path)] = manifest_path.read_bytes()
    for path in manifest["outputs"]:
        Path(path).unlink()
    assert main(["rerun", str(manifest_path)]) == 0
    assert {path: Path(path).read_bytes() for path in before} == before


# argv templates, split before formatting so paths may hold spaces
REPLAYS = {
    "impute-k": "impute {d}/data.csv --schema {d}/schema.cfg --method cgknn --k 1"
                " --seed 7 --out {d}/out.csv",
    "impute-infer-schema": "impute {d}/data.csv --infer-schema --class-column class"
                           " --method gknn --k-grid 1 3 --out {d}/out.csv",
    "inject-mcar": "inject mcar {d}/mvn.csv --infer-schema --columns x1 x2 --rate 0.2"
                   " --seed 2 --out {d}/out.csv",
    "inject-mar": "inject mar {d}/mvn.csv --infer-schema --targets x4 x5"
                  " --predictors x1 x2 x3 --rate 0.1 --seed 5 --out {d}/out.csv",
    "benchmark": "benchmark {d}/spec.json --no-timing --csv {d}/out.report.csv"
                 " --out {d}/out.json",
}


class TestRerun:
    def test_rerun_reproduces_bytes(self, tmp_path):
        _replay(["synth", "cubes", "--seed", "6", "--out", _p(tmp_path / "cubes.csv")])

    @pytest.mark.parametrize("case", sorted(REPLAYS))
    def test_rerun_replays_each_subcommand(self, workdir, case):
        main(["synth", "mvn", "--seed", "3", "--out", _p(workdir / "mvn.csv")])
        (workdir / "spec.json").write_text(json.dumps({
            "dataset": "cubes", "methods": ["meanmode"], "rates": [0.1], "seeds": [1],
        }))
        _replay([arg.format(d=workdir) for arg in REPLAYS[case].split()])

    def test_console_run_records_its_argv(self, tmp_path):
        args = ["synth", "cubes", "--seed", "6", "--out", _p(tmp_path / "cubes.csv")]
        src = str(Path(greyimpute.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "greyimpute.cli", *args], env=env, check=True)
        manifest = json.loads((tmp_path / "cubes.csv.manifest.json").read_text())
        assert manifest["argv"] == args
        first = (tmp_path / "cubes.csv").read_bytes()
        (tmp_path / "cubes.csv").unlink()
        assert main(["rerun", _p(tmp_path / "cubes.csv.manifest.json")]) == 0
        assert (tmp_path / "cubes.csv").read_bytes() == first

    def test_manifest_without_argv_is_data_error(self, tmp_path, capsys):
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps({
            "tool": "greyimpute", "subcommand": "synth",
            "arguments": {"scenario": "cubes", "seed": 6, "out": _p(tmp_path / "c.csv")},
            "inputs": {}, "outputs": [_p(tmp_path / "c.csv")],
        }))
        assert main(["rerun", _p(old)]) == 2
        assert "argv" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("manifest", [["argv"], {"argv": "impute"}, {"argv": ["synth", 3]}])
    def test_manifest_argv_must_list_strings(self, tmp_path, capsys, manifest):
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        assert main(["rerun", _p(tmp_path / "m.manifest.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "argv" in err[0]

    @pytest.mark.parametrize("manifest, key", [
        # each escaped as an AttributeError traceback
        ({"argv": ["synth", "cubes", "--out", "c.csv"], "inputs": [1]}, "inputs"),
        ({"argv": ["validate", "x.csv"]}, "argv"),
    ])
    def test_manifest_is_checked_before_it_is_trusted(self, tmp_path, capsys, manifest, key):
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        assert main(["rerun", _p(tmp_path / "m.manifest.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "c.csv").exists()

    def test_rerun_from_another_directory_is_refused(self, tmp_path, monkeypatch, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        monkeypatch.chdir(a)
        assert main(["synth", "cubes", "--seed", "6", "--out", "c.csv"]) == 0
        monkeypatch.chdir(b)
        assert main(["rerun", "../a/c.csv.manifest.json"]) == 2
        assert list(b.iterdir()) == []
        assert str(a.resolve()) in capsys.readouterr().err
        monkeypatch.chdir(a)
        assert main(["rerun", "c.csv.manifest.json"]) == 0

    def test_rerun_rejects_changed_inputs(self, workdir):
        main([
            "impute", _p(workdir / "data.csv"), "--schema", _p(workdir / "schema.cfg"),
            "--method", "iknn", "--k", "1", "--out", _p(workdir / "d.csv"),
        ])
        (workdir / "data.csv").write_text(CSV + "0.5,0.5,red,a\n")
        code = main(["rerun", _p(workdir / "d.csv.manifest.json")])
        assert code == 2


class TestValidateCommand:
    def test_reports_missing_rates(self, workdir, capsys):
        code = main([
            "validate", _p(workdir / "data.csv"), "--schema", _p(workdir / "schema.cfg"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert len(payload["missing_rates"]) == 3

    def test_oversized_field_is_data_error(self, workdir, capsys):
        (workdir / "big.csv").write_text(CSV + "0.5,0.5," + "r" * 200_000 + ",a\n")
        code = main(["validate", _p(workdir / "big.csv"), "--schema", _p(workdir / "schema.cfg")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "field larger" in err[0]


class TestUnreadableInputs:
    """A file that is not UTF-8 text or a directory given as a file is an
    ``error:`` line and exit 2 at every read, not a traceback."""

    @pytest.mark.parametrize("argv", [
        "validate {bad} --infer-schema",
        "validate {dir} --infer-schema",
        "validate {data} --schema {bad}",
        "impute {data} --schema {dir}",
        "benchmark {bad} --out {d}/report.json",
        "rerun {dir}",
    ])
    def test_is_data_error(self, workdir, capsys, argv):
        (workdir / "bad.txt").write_bytes(b"x1,class\n\xff,a\n")
        (workdir / "sub").mkdir()
        paths = {"bad": workdir / "bad.txt", "dir": workdir / "sub",
                 "data": workdir / "data.csv", "d": workdir}
        assert main(argv.format(**{k: _p(v) for k, v in paths.items()}).split()) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert ("bad.txt" if "{bad}" in argv else "sub") in err[0]
