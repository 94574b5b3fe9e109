"""Command line driver: subcommands, config files, artifacts, exit codes."""

import dataclasses
import io
import json
import re
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlrank
from mlrank import cli
from mlrank.cli import (ExperimentConfig, config_from_text, config_hash,
                        config_to_text, main, render_runtime_svg,
                        render_summary_markdown)
from mlrank.dataset import (MultiLabelDataset, load_sparse, save_csv, save_sparse,
                            synthetic_linear)
from mlrank.model import LinearModel, save_model
from mlrank.optimizer import OptimizerConfig


@pytest.fixture()
def dataset_file(tmp_path):
    data = synthetic_linear(60, 5, 3, seed=21, noise=0.05, name="syn")
    path = tmp_path / "syn.txt"
    save_sparse(data, str(path))
    return path


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_text_roundtrip():
    cfg = ExperimentConfig(datasets=["a.txt", "b.txt"], algos=["pa", "u3"],
                           lambda_grid=[1e-8, 1.0], folds=5, seed=9,
                           label_count=4, select_on_test_folds=True,
                           workers=4, smoke=True)
    back = config_from_text(config_to_text(cfg))
    assert back == cfg


def test_config_parsing_features():
    text = """
# comment
datasets = x.txt
seed = 3          # trailing comment
lambda_grid = 1e-4,1e-2
label_count = none
select_on_test_folds = true
"""
    cfg = config_from_text(text)
    assert cfg.datasets == ["x.txt"]
    assert cfg.seed == 3
    assert cfg.lambda_grid == [1e-4, 1e-2]
    assert cfg.label_count is None
    assert cfg.select_on_test_folds is True


def test_config_errors_carry_line_numbers():
    from mlrank.cli import ConfigError
    # unknown keys, and values that do not parse as their field's declared type
    for line in ("bogus_key = 1", "workers = none", "folds = none", "seed = none",
                 "select_on_test_folds = 0", "smoke = off", "smoke = yes", "folds = 2.5",
                 "tolerance = small", "lambda_grid = 1e-4,x", "datasets = y",
                 # keys of settings that are now fixed or follow label_count, as
                 # an older config_<tag>.txt holds them
                 "format = sparse", "initial_step = 0.1", "inner_steps = none",
                 "standardize = true", "bias = true"):
        with pytest.raises(ConfigError, match=r"^<config>:2: "):
            config_from_text(f"datasets = x\n{line}\n")
    with pytest.raises(ConfigError):
        config_from_text("datasets x\n")


def test_config_hash_ignores_placement_fields():
    a = ExperimentConfig(datasets=["x.txt"])
    b = ExperimentConfig(datasets=["x.txt"], outdir="elsewhere", workers=8)
    c = ExperimentConfig(datasets=["x.txt"], seed=1)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 10


def test_config_validation():
    from mlrank.cli import ConfigError
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=[]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=["x"], algos=["zz"]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=["x"], lambda_grid=[-1.0]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=["x"], label_count=0).validate()


def test_every_solver_option_is_a_config_field_with_its_default():
    # a solver option no config key or flag can set would be a constant
    experiment = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for f in dataclasses.fields(OptimizerConfig):
        assert f.name in experiment, f.name
        assert experiment[f.name] == f.default, f.name


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_convert_roundtrip(tmp_path, dataset_file):
    csv = tmp_path / "syn.csv"
    back = tmp_path / "back.txt"
    assert main(["convert", str(dataset_file), str(csv), "--to", "csv"]) == 0
    assert main(["convert", str(csv), str(back), "--to", "sparse",
                 "--labels", "3"]) == 0
    a, b = load_sparse(str(dataset_file)), load_sparse(str(back))
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_allclose(a.features, b.features)


def test_convert_keep_trivial_writes_a_readable_file(tmp_path):
    # the first row is trivial and has no nonzero feature
    src = tmp_path / "in.csv"
    src.write_text("0,0,0,0\n1,2,1,0\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["convert", str(src), str(out), "--to", "sparse", "--labels", "2",
                 "--keep-trivial"]) == 0
    assert main(["convert", str(out), str(tmp_path / "back.csv"), "--to", "csv",
                 "--keep-trivial"]) == 0
    back = load_sparse(str(out), keep_trivial=True)
    np.testing.assert_array_equal(back.features, [[0.0, 0.0], [1.0, 2.0]])
    np.testing.assert_array_equal(back.labels, [[-1.0, -1.0], [1.0, -1.0]])


def test_train_and_bounds(tmp_path, dataset_file, capsys):
    model = tmp_path / "m.txt"
    trace = tmp_path / "t.csv"
    code = main(["train", "--data", str(dataset_file), "--algo", "u3",
                 "--lam", "1e-4", "--out", str(model), "--trace", str(trace),
                 "--epochs", "4", "--base", "logistic_calibrated"])
    assert code == 0 and model.exists() and trace.exists()
    # the stop line carries the fit's certificate, finite at lambda > 0
    stop = re.search(r"stop: .+  certified gap: (\S+)\n", capsys.readouterr().out)
    assert 0.0 < float(stop.group(1)) < np.inf
    assert main(["bounds", "--model", str(model), "--data",
                 str(dataset_file)]) == 0
    out = capsys.readouterr().out
    ranking = float(re.search(r"empirical ranking loss: (\S+)", out).group(1))
    bounds = re.findall(r"  (u\d): empirical risk \S+ -> ranking-loss bound (\S+)", out)
    assert [which for which, _ in bounds] == ["u2", "u3", "u4"]
    assert all(float(value) >= ranking for _, value in bounds)


def test_bounds_rejects_plain_logistic_base(tmp_path, dataset_file, capsys):
    # plain logistic has ell(0) = ln 2 < 1, so its risks bound no ranking loss
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(dataset_file), "--algo", "u3", "--lam", "1e-4",
                 "--out", str(model), "--epochs", "2"]) == 0
    capsys.readouterr()
    assert main(["bounds", "--model", str(model), "--data", str(dataset_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "logistic_calibrated" in captured.err
    assert "ranking-loss bound" not in captured.out


@pytest.mark.parametrize("lineno,text", [
    (None, "0.5 0.5 0.5"),
    (4, "algorithm bogus"),
    (6, "lambda nan"),
    (6, "lambda inf"),
    (6, "lambda -1"),
    (8, "inf 0 0"),
    (8, "nan 0 0"),
    (8, "0 0"),
    (8, "0 x 0"),
], ids=["trailing-line", "unknown-algorithm", "nan-lambda", "infinite-lambda",
        "negative-lambda", "infinite-weight", "nan-weight", "short-row", "non-numeric-row"])
def test_bounds_rejects_a_corrupt_model_naming_its_line(tmp_path, dataset_file, lineno, text):
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(dataset_file), "--algo", "u3", "--lam", "1e-2",
                 "--out", str(model), "--epochs", "1", "--base", "logistic_calibrated"]) == 0
    lines = model.read_text(encoding="utf-8").splitlines()
    if lineno is None:  # one more line after the weight rows
        lines.append(text)
        lineno = len(lines)
    else:
        lines[lineno - 1] = text
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli", "bounds", "--model", str(model),
                           "--data", str(dataset_file)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {model}:{lineno}: "), proc.stderr


@pytest.mark.parametrize("d", [5, 7])
def test_bounds_rejects_a_model_of_another_feature_count(tmp_path, dataset_file, capsys, d):
    # the file has 5 features, 6 with the bias; the model's c matches its 3 labels
    model = tmp_path / "m.txt"
    save_model(LinearModel(np.zeros((d, 3)), algorithm="u3", base="logistic_calibrated"),
               str(model))
    assert main(["bounds", "--model", str(model), "--data", str(dataset_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: model expects d={d} features but dataset provides 6, bias included"]
    assert "ranking-loss bound" not in captured.out


@pytest.mark.parametrize("c", [2, 4])
def test_bounds_rejects_a_model_of_another_label_count(tmp_path, dataset_file, capsys, c):
    # the file has 3 labels; the model's d matches its 5 features and bias
    model = tmp_path / "m.txt"
    save_model(LinearModel(np.zeros((6, c)), algorithm="u3", base="logistic_calibrated"),
               str(model))
    assert main(["bounds", "--model", str(model), "--data", str(dataset_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: model scores c={c} labels but dataset provides 3"]
    assert "ranking-loss bound" not in captured.out


def test_bounds_reject_an_overflowing_instance_with_one_line(tmp_path):
    # instance 1's first feature, standardized to about 1.39, is the only
    # one whose product with a 1.7e308 weight overflows its score
    features = np.array([[3.0, 0.0], [1.0, 2.0], [0.5, 0.1]])
    labels = np.array([[1.0, -1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
    data, model = tmp_path / "big.txt", tmp_path / "m.txt"
    save_sparse(MultiLabelDataset(features, labels, "big"), str(data))
    weights = np.zeros((3, 3))
    weights[0, 0] = 1.7e308
    save_model(LinearModel(weights, algorithm="u3", base="logistic_calibrated"), str(model))
    code, _, lines = _main_in_process(["bounds", "--model", str(model), "--data", str(data)])
    assert code == 2
    assert lines == ["error: instance 1: a score or the feature norm is not finite, "
                     "so no bound applies"]


def test_bounds_reject_an_overflowing_weight_norm_with_one_line(tmp_path):
    # a finite bias weight of 1.7e308 overflows ||W||_F and the empirical risks
    data, model = tmp_path / "s.txt", tmp_path / "m.txt"
    save_sparse(synthetic_linear(40, 5, 3, seed=0, noise=0.1), str(data))
    assert main(["train", "--data", str(data), "--algo", "u3", "--lam", "1e-2", "--epochs", "2",
                 "--base", "logistic_calibrated", "--out", str(model)]) == 0
    lines = model.read_text(encoding="utf-8").splitlines()
    lines[-1] = " ".join(["1.7e308"] + lines[-1].split()[1:])
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, lines = _main_in_process(["bounds", "--model", str(model), "--data", str(data)])
    assert code == 2
    assert lines == ["error: the weight norm (inf) or an empirical risk is not finite, "
                     "so no bound applies"]


def test_a_large_finite_lambda_trains(tmp_path, dataset_file):
    # 1e12 keeps 4 * lambda finite; only a lambda whose 4 * lambda overflows is refused
    assert main(["train", "--data", str(dataset_file), "--algo", "u1", "--lam", "1e12",
                 "--epochs", "2", "--out", str(tmp_path / "m.txt")]) == 0


def test_a_csv_read_without_labels_names_the_flag(tmp_path, dataset_file):
    # without --labels a CSV is read as sparse text; its first row is named
    # as a CSV row
    csv = tmp_path / "s.csv"
    assert main(["convert", str(dataset_file), str(csv), "--to", "csv"]) == 0
    code, _, lines = _main_in_process(["train", "--data", str(csv), "--algo", "u1", "--lam", "1",
                                       "--out", str(tmp_path / "m.txt")])
    assert code == 2
    [line] = lines
    assert line.startswith(f"error: {csv}:1: bad label list ")
    assert line.endswith(": a CSV row? a CSV file is read with its label count (--labels)")


@pytest.mark.parametrize("argv,named", [
    (["train", "--algo", "u1", "--lam", "nan", "--out", "{tmp}/m.txt",
      "--data", "{tmp}/missing.txt"], "not nan"),
    (["bounds", "--model", "{tmp}/missing-model.txt", "--delta", "1.5",
      "--data", "{tmp}/missing.txt"], "not 1.5"),
    (["train", "--algo", "u1", "--lam", "0.1", "--out", "{tmp}/m.txt", "--seed", "-1",
      "--data", "{tmp}/missing.txt"], "not -1"),
    (["cv", "--algo", "u1", "--seed", "-1", "--data", "{tmp}/missing.txt"], "not -1"),
    (["bench", "--seed", "-2", "--data", "{tmp}/missing.txt"], "not -2"),
    (["bench", "--config", "{tmp}/seed.cfg"], "not -3"),
    (["consistency", "--scheme", "u3", "--seed", "-1"], "--seed must be >= 0, not -1"),
    (["train", "--algo", "u1", "--lam", "0.1", "--out", "{tmp}/m.txt", "--base", "hinge",
      "--data", "{tmp}/missing.txt"], "use squared_hinge"),
    (["cv", "--algo", "u1", "--base", "hinge", "--data", "{tmp}/missing.txt"],
     "use squared_hinge"),
    (["bench", "--base", "hinge", "--data", "{tmp}/missing.txt"], "use squared_hinge"),
    (["train", "--algo", "u1", "--lam", "1e308", "--out", "{tmp}/m.txt",
      "--data", "{tmp}/missing.txt"], "4 * lambda overflows"),
    (["bench", "--grid", "1e-2,1e308", "--data", "{tmp}/missing.txt"], "4 * lambda overflows"),
    (["bench", "--algos", "u1,u1", "--data", "{tmp}/missing.txt"], "'u1' is given twice"),
])
def test_a_bad_value_exits_2_before_any_file_is_read(tmp_path, argv, named):
    # the config file is read, but not the dataset it names
    (tmp_path / "seed.cfg").write_text(f"datasets = {tmp_path / 'missing.txt'}\nseed = -3\n")
    code, _, lines = _main_in_process([a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    [line] = lines
    assert line.startswith("error: ") and named in line


@pytest.mark.parametrize("module", ["mlrank", "mlrank.cli"])
def test_import_loads_no_scipy(module):
    # scipy is a test and benchmark dependency only; mlrank runs on numpy
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bare_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    code = ("import sys, mlrank; "
            "print(sorted(m for m in sys.modules if m.startswith('mlrank.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_truncated_model_header_exits_2_without_traceback(tmp_path, dataset_file):
    model = tmp_path / "m.txt"
    model.write_text("mlrank-model 1\nd 2\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli", "bounds", "--model", str(model),
                           "--data", str(dataset_file)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(model) in proc.stderr and "truncated" in proc.stderr


def test_model_header_larger_than_its_rows_exits_2_without_traceback(tmp_path, dataset_file):
    # 300000 x 100000 weights would take 240 GB; the file holds no row of them
    model = tmp_path / "m.txt"
    model.write_text("mlrank-model 1\nd 300000\nc 100000\nalgorithm u3\nbase logistic\n"
                     "lambda 0.01\nseed 0\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli", "bounds", "--model", str(model),
                           "--data", str(dataset_file)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: {model}:8: weight row 0 must hold 100000 finite numbers"]


def test_closed_stdout_ends_the_command_quietly():
    # the reader of a real pipe is gone before the command writes: every
    # write to stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "mlrank.cli", "consistency", "--scheme", "u3",
                               "--c", "6", "--trials", "200"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_config_type_error_exits_2_without_traceback(tmp_path, dataset_file):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"datasets = {dataset_file}\nworkers = none\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli", "bench", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{cfg}:2:" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["train", "--data", "{csv}", "--algo", "u1", "--lam", "1",
     "--out", "{tmp}/m2.txt"],
    ["convert", "{csv}", "{tmp}/back.txt", "--to", "sparse"],
    ["bounds", "--model", "{model}", "--data", "{csv}"],
    ["train", "--data", "{sparse}", "--algo", "u1", "--lam", "1", "--out", "{tmp}/m2.txt",
     "--inner-steps", "0"],
    ["cv", "--data", "{sparse}", "--algo", "u1", "--grid", "1e-4", "--epochs", "0"],
    ["report", "{bench}", "--outdir", "{tmp}/rep"],
    ["cv", "--data", "{sparse}", "--algo", "u1", "--grid", "1e-4,nan"],
    ["train", "--data", "{sparse}", "--algo", "u1", "--lam", "nan", "--out", "{tmp}/m2.txt"],
    ["cv", "--data", "{sparse}", "--algo", "u1", "--grid", "inf"],
    ["cv", "--data", "{sparse}", "--algo", "u1", "--grid", "1e400"],
    ["train", "--data", "{sparse}", "--algo", "u1", "--lam", "inf", "--out", "{tmp}/m2.txt"],
    ["cv", "--data", "{csv}", "--algo", "u1"],
    ["cv", "--data", "{sparse}", "--algo", "u1", "--keep-trivial"],
    ["bench", "--config", "{config}"],
    ["report", "{bad_cell}", "--outdir", "{tmp}/rep"],
    ["consistency", "--scheme", "u3", "--c", "1"],
    ["consistency", "--scheme", "u3", "--c", "13"],
    ["consistency", "--scheme", "u3", "--c", "4", "--trials", "-2"],
    ["consistency", "--scheme", "u2", "--base", "hinge", "--trials", "0"],
    ["consistency", "--scheme", "u3", "--c", "4", "--trials", "50", "--show", "-1"],
    ["bench", "--config", "{twice}"],
    # the second file does not exist: the names clash before any data is read
    ["bench", "--data", "{sparse}", "{tmp}/elsewhere/syn.txt", "--smoke"],
], ids=["train-csv-no-labels", "convert-csv-no-labels", "bounds-csv-no-labels",
        "train-inner-steps-0", "cv-epochs-0", "report-short-row", "cv-nan-lambda",
        "train-nan-lambda", "cv-inf-lambda", "cv-overflowing-lambda", "train-inf-lambda",
        "cv-csv-no-labels", "cv-keep-trivial", "bench-keep-trivial",
        "report-non-numeric-cell", "consistency-c-1", "consistency-c-13",
        "consistency-trials-negative", "consistency-hinge-trials-0", "consistency-show-negative",
        "bench-config-key-twice", "bench-dataset-name-twice"])
def test_malformed_invocation_exits_2_without_traceback(tmp_path, dataset_file, argv):
    csv, model, bench = tmp_path / "syn.csv", tmp_path / "m.txt", tmp_path / "bench.csv"
    assert main(["convert", str(dataset_file), str(csv), "--to", "csv"]) == 0
    assert main(["train", "--data", str(dataset_file), "--algo", "u1", "--lam", "1e-2",
                 "--out", str(model), "--epochs", "1"]) == 0
    bench.write_text("dataset,algo,fold,lambda,ranking_loss,partial_ranking_loss,seconds\n"
                     "syn,u1,0,0.0001,0.1,0.1,0.01\n\nsyn,u1,1,0.0001,0.1,0.1\n",
                     encoding="utf-8")
    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("dataset,algo,fold,lambda,ranking_loss,partial_ranking_loss,seconds\n"
                        "syn,u1,0,0.0001,x,0.1,0.01\n", encoding="utf-8")
    config = tmp_path / "exp.cfg"
    config.write_text(f"datasets = {dataset_file}\nkeep_trivial = true\n", encoding="utf-8")
    twice = tmp_path / "twice.cfg"
    twice.write_text(f"datasets = {dataset_file}\nseed = 1\nseed = 2\n", encoding="utf-8")
    places = dict(csv=csv, sparse=dataset_file, model=model, bench=bench, bad_cell=bad_cell,
                  config=config, twice=twice, tmp=tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli",
                           *(a.format(**places) for a in argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""  # rejected before any output
    assert "Traceback" not in proc.stderr
    # mlrank's own errors print "error: ..."; argparse prefixes its usage
    # errors (an unknown flag) with the program name
    assert proc.stderr.splitlines()[-1].startswith(("error: ", "mlrank: error: "))


@pytest.mark.parametrize("fmt", ["sparse", "csv"])
@pytest.mark.parametrize("value", ["nan", "1e400"])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_non_finite_feature_value_exits_2_naming_its_line(tmp_path, dataset_file, command,
                                                         value, fmt):
    # a value that reads as nan or inf is a fault of the file, named before
    # any training starts, not an objective that turns non-finite
    data = tmp_path / f"data.{'txt' if fmt == 'sparse' else 'csv'}"
    if fmt == "sparse":
        lines = dataset_file.read_text(encoding="utf-8").splitlines()
        lines[5] = re.sub(r"(\d+):\S+", rf"\1:{value}", lines[5], count=1)
    else:
        assert main(["convert", str(dataset_file), str(data), "--to", "csv"]) == 0
        lines = data.read_text(encoding="utf-8").splitlines()
        lines[5] = ",".join([value] + lines[5].split(",")[1:])
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = {"train": ["train", "--lam", "1e-2", "--out", str(tmp_path / "m.txt")],
            "cv": ["cv", "--grid", "1e-2"]}[command]
    argv += ["--data", str(data), "--algo", "u1"]
    if fmt == "csv":
        argv += ["--labels", "3"]
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {data}:6: feature value {value!r} is not finite\n"


@pytest.mark.parametrize("command", ["train", "cv"])
def test_overflowing_standardization_exits_2_naming_its_column(tmp_path, command):
    # finite values whose sum or squares overflow: the training rows' mean
    # or std is not finite, or a held-out row overflows when standardized
    data = synthetic_linear(60, 5, 3, seed=21, noise=0.05, name="syn")
    data.features[3:5, 0] = 1.7e308
    path = tmp_path / "big.txt"
    save_sparse(data, str(path))
    argv = {"train": ["train", "--lam", "1e-2", "--out", str(tmp_path / "m.txt")],
            "cv": ["cv", "--grid", "1e-2", "--workers", "2"]}[command]
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli", *argv, "--data", str(path),
                           "--algo", "u1"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: feature column 1: ")


@pytest.mark.parametrize("argv", [["train", "--lam", "1e-4", "--out", "{tmp}/m.txt"],
                                  ["cv", "--grid", "1e-4", "--workers", "1"],
                                  ["cv", "--grid", "1e-4", "--workers", "2"]],
                         ids=["train", "cv-1-worker", "cv-2-workers"])
def test_a_diverging_fit_exits_1_with_one_line(tmp_path, argv):
    # SVRG-BB diverges on the exponential base at a small lambda: the
    # objective overflows, the optimizer reports it, and numpy prints no warning
    path = tmp_path / "syn.txt"
    save_sparse(synthetic_linear(60, 5, 3, seed=9, noise=0.05, name="syn"), str(path))
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli", *(a.format(tmp=tmp_path)
                                                                 for a in argv),
                           "--data", str(path), "--algo", "u1", "--base", "exponential"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: training aborted: ")


# a numeric field of a dataset file: a header count, a label id or cell, a
# feature index or value
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


_BENCH_HEADER = "dataset,algo,fold,lambda,ranking_loss,partial_ranking_loss,seconds\n"


@pytest.fixture(scope="module")
def clean_files(tmp_path_factory):
    data = synthetic_linear(30, 4, 3, seed=5, noise=0.05, name="fuzz")
    root = tmp_path_factory.mktemp("fuzz")
    save_sparse(data, str(root / "clean.txt"))
    save_csv(data, str(root / "clean.csv"))
    (root / "clean.bench").write_text(_BENCH_HEADER + "syn,u1,0,0.01,0.25,0.2,0.013\n"
                                      "syn,u1,1,0.01,0.3,0.25,0.02\n"
                                      "syn,pa,0,0.1,0.2,0.15,0.05\n", encoding="utf-8")
    return root


def _corrupt(clean, field, value, path):
    """Write ``clean`` to ``path`` with its numeric field ``field`` (modulo
    their count) replaced by ``value``."""
    text = clean.read_text(encoding="utf-8")
    spans = [m.span() for m in _NUMBER.finditer(text)]
    start, end = spans[field % len(spans)]
    path.write_text(text[:start] + value + text[end:], encoding="utf-8")


def _main_in_process(argv):
    """Exit code of ``main(argv)``, its stderr, and its stderr lines plus
    the messages of the warnings it raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), err.getvalue().splitlines() + [str(w.message) for w in caught]


@settings(max_examples=50, deadline=None)
@given(fmt=st.sampled_from(["sparse", "csv"]), command=st.sampled_from(["train", "cv"]),
       field=st.integers(min_value=0), value=st.sampled_from(
           ["nan", "inf", "-inf", "1e400", "1.7e308", "-1.7e308", "2", "-2", "0.5",
            "zz", "", "1,5", "\n"]))
def test_a_corrupt_number_exits_0_or_2_with_at_most_one_line(clean_files, fmt, command,
                                                              field, value):
    # one numeric field of a sparse or CSV file is replaced by a non-finite,
    # overflowing or extreme value, a label outside {0, 1, -1}, a cell the
    # reader refuses, or a cell more or a line break (a ragged CSV row)
    ext = "txt" if fmt == "sparse" else "csv"
    path = clean_files / f"corrupt.{ext}"
    _corrupt(clean_files / f"clean.{ext}", field, value, path)
    argv = {"train": ["train", "--lam", "1e-2", "--out", str(clean_files / "m.txt")],
            "cv": ["cv", "--grid", "1e-2", "--folds", "2"]}[command]
    argv += ["--data", str(path), "--algo", "u1", "--epochs", "2"]
    if fmt == "csv":
        argv += ["--labels", "3"]
    code, err, lines = _main_in_process(argv)
    assert code in (0, 2), lines
    assert len(lines) <= 1 and "Traceback" not in err, lines


@pytest.mark.parametrize("text", ["", "\n\n", "# a header comment\n\n"],
                         ids=["empty", "blank", "comment"])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_a_csv_without_rows_exits_2_with_one_line(tmp_path, command, text):
    path = tmp_path / "none.csv"
    path.write_text(text, encoding="utf-8")
    argv = {"train": ["train", "--lam", "1e-2", "--out", str(tmp_path / "m.txt")],
            "cv": ["cv", "--grid", "1e-2"]}[command]
    code, _, lines = _main_in_process(argv + ["--data", str(path), "--algo", "u1",
                                              "--labels", "3"])
    assert code == 2
    assert lines == [f"error: {path}:0: no instances found"]


@settings(max_examples=50, deadline=None)
@given(field=st.integers(min_value=0), value=st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "1.7e308", "-1", "2", "-0.5", "zz", ""]))
def test_a_corrupt_bench_number_exits_0_or_2_with_at_most_one_line(clean_files, field,
                                                                    value):
    # one fold, lambda, loss or seconds cell of a bench CSV is replaced
    path = clean_files / "corrupt_bench.csv"
    _corrupt(clean_files / "clean.bench", field, value, path)
    code, err, lines = _main_in_process(["report", str(path), "--outdir",
                                         str(clean_files / "rep")])
    assert code in (0, 2), lines
    assert len(lines) <= 1 and "Traceback" not in err, lines


_FIELD_VALUES = ["nan", "inf", "1.7e308", "-1.7e308", "1e400", "-1", "2", "-0.5", "zz", "", "0",
                 "99999999999999999999"]


@pytest.fixture(scope="module")
def clean_run_files(clean_files):
    """A model trained on ``clean.txt`` for ``bounds``, and a bench config
    whose every line holds a number; datasets and outdir come as flags."""
    model = clean_files / "clean.model"
    code = main(["train", "--data", str(clean_files / "clean.txt"), "--algo", "u3",
                 "--lam", "1e-2", "--epochs", "2", "--base", "logistic_calibrated",
                 "--out", str(model)])
    assert code == 0
    (clean_files / "clean.config").write_text(
        "algos = u1\nlambda_grid = 0.01,1\nfolds = 2\nseed = 0\nouter_epochs = 2\n"
        "tolerance = 1e-07\nworkers = 1\n", encoding="utf-8")
    return clean_files


@settings(max_examples=50, deadline=None)
@given(field=st.integers(min_value=0), value=st.sampled_from(_FIELD_VALUES))
def test_a_corrupt_model_number_exits_0_or_2_with_at_most_one_line(clean_run_files, field,
                                                                    value):
    # the format version, d, c, lambda, seed or a weight of a model file
    path = clean_run_files / "corrupt.model"
    _corrupt(clean_run_files / "clean.model", field, value, path)
    code, err, lines = _main_in_process(["bounds", "--model", str(path), "--data",
                                         str(clean_run_files / "clean.txt")])
    assert code in (0, 2), lines
    assert len(lines) <= 1 and "Traceback" not in err, lines


@settings(max_examples=50, deadline=None)
@given(field=st.integers(min_value=0), value=st.sampled_from(_FIELD_VALUES))
def test_a_corrupt_config_number_exits_0_or_2_with_at_most_one_line(clean_run_files, field,
                                                                     value):
    # a lambda, the folds, seed, epochs, tolerance or workers of a bench config
    path = clean_run_files / "corrupt.config"
    _corrupt(clean_run_files / "clean.config", field, value, path)
    code, err, lines = _main_in_process(["bench", "--config", str(path), "--data",
                                         str(clean_run_files / "clean.txt"), "--outdir",
                                         str(clean_run_files / "bench")])
    assert code in (0, 2), lines
    assert len(lines) <= 1 and "Traceback" not in err, lines


@pytest.mark.parametrize("command", ["train", "cv"])
def test_nothing_to_train_on_exits_2_without_warnings(tmp_path, dataset_file, command):
    header, *rows = dataset_file.read_text(encoding="utf-8").splitlines()
    data = tmp_path / "data.txt"
    if command == "train":
        # one all-relevant and one all-irrelevant row: both are dropped
        data.write_text("2 5 3\n0,1,2 1:0.5\n2:0.25\n", encoding="utf-8")
        argv = ["train", "--data", str(data), "--algo", "u1", "--lam", "1e-2",
                "--out", str(tmp_path / "m.txt")]
    else:
        # two rows in two folds: the nested holdout takes a fold's one training row
        data.write_text("\n".join(["2 5 3", *rows[:2]]) + "\n", encoding="utf-8")
        argv = ["cv", "--data", str(data), "--algo", "u1", "--grid", "1e-2", "--folds", "2"]
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_env_is_validated_like_workers(dataset_file, threads):
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]),
               MLRANK_THREADS=threads)
    proc = subprocess.run([sys.executable, "-m", "mlrank.cli", "cv", "--data", str(dataset_file),
                           "--algo", "u1", "--grid", "1e-4", "--epochs", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stdout
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"error: workers must be >= 1, not {threads}"


@pytest.mark.parametrize("argv", [
    ["convert", "{data}", "{tmp}/out.txt", "--to", "sparse"],
    ["train", "--data", "{data}", "--algo", "u3", "--lam", "1e-2", "--out", "{model}",
     "--epochs", "1", "--base", "logistic_calibrated"],
    ["cv", "--data", "{data}", "--algo", "u3", "--grid", "1e-2", "--epochs", "1"],
    ["bench", "--data", "{data}", "--algos", "u3", "--grid", "1e-2", "--smoke",
     "--outdir", "{tmp}/res"],
    ["bounds", "--model", "{model}", "--data", "{data}"],
], ids=["convert", "train", "cv", "bench", "bounds"])
def test_every_dataset_reader_reports_dropped_rows(tmp_path, dataset_file, capsys, argv):
    # one all-relevant and one all-irrelevant row appended to the 60 x 5 x 3 file
    header, *rows = dataset_file.read_text(encoding="utf-8").splitlines()
    assert header == "60 5 3"
    data = tmp_path / "trivial.txt"
    data.write_text("\n".join(["62 5 3", *rows, "0,1,2 1:0.5", "2:0.25"]) + "\n",
                    encoding="utf-8")
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(dataset_file), "--algo", "u3", "--lam", "1e-2",
                 "--out", str(model), "--epochs", "1", "--base", "logistic_calibrated"]) == 0
    capsys.readouterr()
    assert main([a.format(data=data, model=model, tmp=tmp_path) for a in argv]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "trivial: dropped 2 trivial instances"


@pytest.mark.parametrize("argv", [
    ["convert", "{data}", "{tmp}/out.txt", "--to", "sparse"],
    ["train", "--data", "{data}", "--algo", "u3", "--lam", "1e-2", "--out", "{tmp}/m2.txt",
     "--epochs", "1"],
    ["cv", "--data", "{data}", "--algo", "u3", "--grid", "1e-2", "--epochs", "1"],
    ["bench", "--data", "{data}", "--algos", "u3", "--grid", "1e-2", "--smoke",
     "--outdir", "{tmp}/res"],
    ["bounds", "--model", "{model}", "--data", "{data}"],
], ids=["convert", "train", "cv", "bench", "bounds"])
def test_a_label_count_selects_the_csv_reader(tmp_path, dataset_file, capsys, argv):
    # with --labels every dataset reader reads CSV, whatever the file's name,
    # so a sparse file given a label count is a malformed CSV, not read as
    # sparse text with the count ignored
    csv, model = tmp_path / "syn.data", tmp_path / "m.txt"
    assert main(["convert", str(dataset_file), str(csv), "--to", "csv"]) == 0
    assert main(["train", "--data", str(dataset_file), "--algo", "u3", "--lam", "1e-2",
                 "--out", str(model), "--epochs", "1", "--base", "logistic_calibrated"]) == 0
    capsys.readouterr()

    def run(data):
        return main([a.format(data=data, model=model, tmp=tmp_path) for a in argv]
                    + ["--labels", "3"])

    assert run(csv) == 0
    capsys.readouterr()
    assert run(dataset_file) == 2
    assert capsys.readouterr().err.startswith(f"error: {dataset_file}:1: not numeric CSV")


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"], ids=["comma", "newline", "return"])
@pytest.mark.parametrize("argv", [
    ["bench", "--algos", "u3", "--grid", "1e-2", "--smoke", "--outdir", "{tmp}/res"],
    ["cv", "--algo", "u3", "--grid", "1e-2", "--epochs", "1", "--csv", "{tmp}/cv.csv"],
], ids=["bench", "cv-csv"])
def test_a_dataset_name_a_bench_csv_cannot_hold_exits_2_before_any_read(tmp_path, dataset_file,
                                                                         name, argv):
    # the name is the first cell of each row of the CSV that `report` reads
    # back, so a comma or a line break in it would break that CSV
    path = tmp_path / f"{name}.txt"
    path.write_bytes(dataset_file.read_bytes())
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--data", str(path)]
    with mock.patch.object(cli, "_load_dataset", side_effect=AssertionError("data was read")):
        code, _, lines = _main_in_process(argv)
    assert code == 2
    assert lines == [f"error: dataset {str(path)!r}: its name {name!r} holds a comma or a "
                     "line break, which a bench CSV cell cannot hold"]
    assert not (tmp_path / "res").exists() and not (tmp_path / "cv.csv").exists()
    # without --csv, cv writes no CSV and runs
    if argv[0] == "cv":
        assert main(argv[:argv.index("--csv")] + ["--data", str(path)]) == 0


def test_report_names_the_line_of_a_non_numeric_cell(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    csv.write_text("dataset,algo,fold,lambda,ranking_loss,partial_ranking_loss,seconds\n"
                   "syn,u1,0,0.0001,0.1,0.1,0.01\nsyn,u1,1,0.0001,x,0.1,0.01\n",
                   encoding="utf-8")
    assert main(["report", str(csv), "--outdir", str(tmp_path / "rep")]) == 2
    assert f"error: {csv}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "syn,u1,1,0.0001,0.1,0.1,inf", "syn,u1,1,0.0001,nan,0.1,0.01",
    "syn,u1,1,zz,0.1,0.1,0.01", "syn,u1,1,0.0001,0.1,x,0.01",
    "syn,u1,1,0.0001,0.1,0.1,-0.5", "syn,u1,1,0.0001,1.5,0.1,0.01",
    "syn,u1,1,0.0001,0.1,-0.1,0.01", "syn,u1,1,0.0001,0.1,0.1,1e308",
], ids=["inf-seconds", "nan-loss", "zz-lambda", "x-partial", "negative-seconds",
        "loss-above-1", "negative-partial", "seconds-sum-overflows"])
def test_report_rejects_a_bad_number_naming_its_line(tmp_path, capsys, row):
    # the first row's seconds are finite, but twice them are not
    csv = tmp_path / "bench.csv"
    csv.write_text(_BENCH_HEADER + "syn,u1,0,0.0001,0.1,0.1,1e308\n" + row + "\n",
                   encoding="utf-8")
    assert main(["report", str(csv), "--outdir", str(tmp_path / "rep")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {csv}:3: ")
    assert not (tmp_path / "rep").exists()


def test_report_rejects_files_without_data_rows(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    csv.write_text(_BENCH_HEADER + "\n", encoding="utf-8")
    assert main(["report", str(csv), "--outdir", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == f"error: {csv}: no data rows\n"


def test_report_rejects_a_repeated_row_naming_its_line(tmp_path, capsys):
    # read twice, a file would count each fold's seconds twice
    csv = tmp_path / "bench.csv"
    csv.write_text("dataset,algo,fold,lambda,ranking_loss,partial_ranking_loss,seconds\n"
                   "syn,u1,0,0.0001,0.1,0.1,0.01\n", encoding="utf-8")
    assert main(["report", str(csv), str(csv), "--outdir", str(tmp_path / "rep")]) == 2
    assert (f"error: {csv}:2: dataset syn, algo u1, fold 0 repeats {csv}:2"
            in capsys.readouterr().err)
    assert not (tmp_path / "rep").exists()


def test_cv_writes_csv(tmp_path, dataset_file):
    out = tmp_path / "cv.csv"
    code = main(["cv", "--data", str(dataset_file), "--algo", "u2",
                 "--grid", "1e-6,1e-2", "--epochs", "2", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dataset,algo,fold,lambda,ranking_loss,partial_ranking_loss,seconds"
    assert len(lines) == 4  # header + one row per fold


def test_cv_reports_unconverged_fits(dataset_file, capsys):
    # 3 folds x 2 lambdas of selection plus 3 final refits is 9 fits; one
    # epoch cannot meet the default tolerance, a 100-epoch budget meets 1e-3
    for flags, unconverged in ((["--epochs", "1"], 9),
                               (["--epochs", "100", "--tolerance", "1e-3"], 0)):
        assert main(["cv", "--data", str(dataset_file), "--algo", "u3",
                     "--grid", "1e-6,1e-2", *flags]) == 0
        assert f"unconverged: {unconverged} of 9 fits" in capsys.readouterr().out


def test_exit_codes(tmp_path, dataset_file):
    assert main(["train", "--data", str(dataset_file), "--algo", "zz",
                 "--lam", "1", "--out", str(tmp_path / "m.txt")]) == 2
    assert main(["train", "--data", str(tmp_path / "missing.txt"), "--algo", "u1",
                 "--lam", "1", "--out", str(tmp_path / "m.txt")]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("watermelon\n", encoding="utf-8")
    assert main(["train", "--data", str(bad), "--algo", "u1", "--lam", "1",
                 "--out", str(tmp_path / "m.txt")]) == 2


def test_non_utf8_dataset_exits_2_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2 2 2\n0 1:1.0\n1 2:\xff\n")
    assert main(["convert", str(bad), str(tmp_path / "out.csv"), "--to", "csv"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}:3: not UTF-8 text: cannot decode 0xff (invalid start byte)\n")
    assert not (tmp_path / "out.csv").exists()


def test_bench_artifacts_and_determinism(tmp_path, dataset_file, monkeypatch):
    def run(outdir, threads=None):
        if threads is None:
            monkeypatch.delenv("MLRANK_THREADS", raising=False)
        else:
            monkeypatch.setenv("MLRANK_THREADS", threads)
        code = main(["bench", "--data", str(dataset_file), "--algos", "u1,u3",
                     "--grid", "1e-6,1e-2", "--seed", "5", "--smoke",
                     "--outdir", str(tmp_path / outdir)])
        assert code == 0
        return tmp_path / outdir

    out1, out2 = run("one"), run("two", threads="2")
    bench1 = sorted(out1.glob("bench_*.csv"))
    bench2 = sorted(out2.glob("bench_*.csv"))
    assert len(bench1) == 1 and bench1[0].name == bench2[0].name
    strip = lambda p: ["," .join(ln.split(",")[:6])
                       for ln in p.read_text().splitlines()]
    assert strip(bench1[0]) == strip(bench2[0])
    for pattern in ("summary_*.md", "runtime_*.csv", "runtime_*.svg",
                    "config_*.txt"):
        assert list(out1.glob(pattern)), pattern
    # the stored config reloads to an equivalent experiment
    cfg = config_from_text(next(out1.glob("config_*.txt")).read_text())
    assert cfg.datasets == [str(dataset_file)] and cfg.smoke


def test_bench_config_file(tmp_path, dataset_file):
    cfg = ExperimentConfig(datasets=[str(dataset_file)], algos=["u1"],
                           lambda_grid=[1e-4], outdir=str(tmp_path / "res"),
                           smoke=True)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config_to_text(cfg), encoding="utf-8")
    assert main(["bench", "--config", str(cfg_path)]) == 0
    assert list((tmp_path / "res").glob("summary_*.md"))


def test_invalid_threads_env(tmp_path, dataset_file, monkeypatch):
    monkeypatch.setenv("MLRANK_THREADS", "many")
    code = main(["cv", "--data", str(dataset_file), "--algo", "u1",
                 "--grid", "1e-4", "--epochs", "2"])
    assert code == 2


def test_consistency_subcommand(tmp_path):
    report = tmp_path / "v.jsonl"
    code = main(["consistency", "--scheme", "u3", "--c", "4", "--trials", "50",
                 "--report", str(report)])
    assert code == 0
    records = [json.loads(ln) for ln in report.read_text().splitlines()]
    kinds = {r["type"] for r in records}
    assert "tau" in kinds and "constructive" in kinds and "violation" in kinds
    assert main(["consistency", "--scheme", "u5"]) == 2


def test_consistency_skips_the_sign_audit_for_hinge(tmp_path, capsys):
    # the hinge Bayes link is not strictly monotone, so the audit's premise
    # fails: the search is skipped and says so, never reports 0 violations
    report = tmp_path / "v.jsonl"
    assert main(["consistency", "--scheme", "u2", "--base", "hinge", "--trials", "50",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "random search: skipped; the hinge Bayes link is not strictly increasing" in out
    assert "violating distributions" not in out
    records = [json.loads(ln) for ln in report.read_text().splitlines()]
    assert [r["type"] for r in records] == ["tau", "hinge_counterexample", "search_skipped"]
    assert records[-1]["base"] == "hinge"


def test_report_subcommand(tmp_path, dataset_file):
    outdir = tmp_path / "res"
    main(["bench", "--data", str(dataset_file), "--algos", "u1", "--grid",
          "1e-4", "--smoke", "--outdir", str(outdir)])
    csv = next(outdir.glob("bench_*.csv"))
    code = main(["report", str(csv), "--outdir", str(tmp_path / "rep")])
    assert code == 0
    assert (tmp_path / "rep" / "summary_report.md").exists()
    assert (tmp_path / "rep" / "runtime_report.svg").exists()


def test_report_rebuilds_bench_summary_exactly(tmp_path, dataset_file):
    # under the test-fold protocol the selection fits are the final fits,
    # which a runtime summed from CvResult fields would count twice
    other = tmp_path / "other.txt"
    save_sparse(synthetic_linear(50, 4, 3, seed=22, noise=0.05, name="other"), str(other))
    outdir = tmp_path / "res"
    assert main(["bench", "--data", str(dataset_file), str(other), "--algos", "u3,pa",
                 "--grid", "1e-4,1e-2", "--smoke", "--select-on-test-folds",
                 "--outdir", str(outdir)]) == 0
    csvs = sorted(outdir.glob("bench_*.csv"))
    assert len(csvs) == 2
    assert main(["report", *map(str, csvs), "--outdir", str(tmp_path / "rep")]) == 0
    rep = tmp_path / "rep"
    assert (next(outdir.glob("runtime_*.svg")).read_bytes()
            == (rep / "runtime_report.svg").read_bytes())
    table_rows = lambda path: [ln for ln in path.read_text().splitlines() if ln.startswith("|")]
    rows = table_rows(next(outdir.glob("summary_*.md")))
    assert len(rows) == 4 and rows == table_rows(rep / "summary_report.md")


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def test_summary_markdown_markers():
    table = {"d1": {"pa": (0.10, 0.01), "u3": (0.12, 0.01), "u2": (0.20, 0.02)}}
    md = render_summary_markdown(table, ["pa", "u3", "u2"])
    row = [ln for ln in md.splitlines() if ln.startswith("| d1")][0]
    cells = [c.strip() for c in row.split("|")[2:-1]]
    assert cells[0] == "**0.1000 ± 0.0100†**"   # best: bold + dagger
    assert cells[1] == "**0.1200 ± 0.0100**"    # second: bold
    assert cells[2] == "0.2000 ± 0.0200"        # third: plain


def test_summary_markdown_missing_cells():
    md = render_summary_markdown({"d": {"pa": (0.1, 0.0)}}, ["pa", "u9"])
    assert "| - |" in md or "| - |".replace(" ", "") in md.replace(" ", "")


def test_runtime_svg_structure():
    svg = render_runtime_svg({"d1": {"pa": 12.0, "u3": 1.5},
                              "d2": {"pa": 120.0, "u3": 8.0}}, ["pa", "u3"])
    assert svg.startswith("<svg")
    assert svg.count("<rect") >= 5  # bars + legend swatches + background
    assert "1e1" in svg  # log-scale decade tick
    assert "d2" in svg and "u3" in svg
    # zero seconds must not produce a log-domain error
    svg = render_runtime_svg({"d": {"pa": 0.0}}, ["pa"])
    assert "<svg" in svg
