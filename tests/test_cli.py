"""Command line driver: subcommands, config files, artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlrank
from mlrank.cli import (ExperimentConfig, config_from_text, config_hash,
                        config_to_text, main, render_runtime_svg,
                        render_summary_markdown)
from mlrank.dataset import load_sparse, save_sparse, synthetic_linear


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
                           inner_steps=None, select_on_test_folds=True,
                           workers=4, smoke=True)
    back = config_from_text(config_to_text(cfg))
    assert back == cfg


def test_config_parsing_features():
    text = """
# comment
datasets = x.txt
seed = 3          # trailing comment
lambda_grid = 1e-4,1e-2
inner_steps = none
standardize = false
"""
    cfg = config_from_text(text)
    assert cfg.datasets == ["x.txt"]
    assert cfg.seed == 3
    assert cfg.lambda_grid == [1e-4, 1e-2]
    assert cfg.inner_steps is None
    assert cfg.standardize is False


def test_config_errors_carry_line_numbers():
    from mlrank.cli import ConfigError
    with pytest.raises(ConfigError, match="2"):
        config_from_text("datasets = x\nbogus_key = 1\n")
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
        ExperimentConfig(datasets=["x"], format="csv").validate()


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


def test_train_and_bounds(tmp_path, dataset_file):
    model = tmp_path / "m.txt"
    trace = tmp_path / "t.csv"
    code = main(["train", "--data", str(dataset_file), "--algo", "u3",
                 "--lam", "1e-4", "--out", str(model), "--trace", str(trace),
                 "--epochs", "4"])
    assert code == 0 and model.exists() and trace.exists()
    assert main(["bounds", "--model", str(model), "--data",
                 str(dataset_file)]) == 0


def test_bounds_flags_must_match_training(tmp_path, dataset_file, capsys):
    model = tmp_path / "m.txt"
    main(["train", "--data", str(dataset_file), "--algo", "u1", "--lam", "1e-4",
          "--out", str(model), "--epochs", "2"])
    code = main(["bounds", "--model", str(model), "--data", str(dataset_file),
                 "--no-bias"])
    assert code == 2
    assert "match the --standardize/--bias flags" in capsys.readouterr().err


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


def test_cv_writes_csv(tmp_path, dataset_file):
    out = tmp_path / "cv.csv"
    code = main(["cv", "--data", str(dataset_file), "--algo", "u2",
                 "--grid", "1e-6,1e-2", "--epochs", "2", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dataset,algo,fold,lambda,ranking_loss,partial_ranking_loss,seconds"
    assert len(lines) == 4  # header + one row per fold


def test_exit_codes(tmp_path, dataset_file):
    assert main(["train", "--data", str(dataset_file), "--algo", "zz",
                 "--lam", "1", "--out", str(tmp_path / "m.txt")]) == 2
    assert main(["train", "--data", str(tmp_path / "missing.txt"), "--algo", "u1",
                 "--lam", "1", "--out", str(tmp_path / "m.txt")]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("watermelon\n", encoding="utf-8")
    assert main(["train", "--data", str(bad), "--algo", "u1", "--lam", "1",
                 "--out", str(tmp_path / "m.txt")]) == 2


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


def test_report_subcommand(tmp_path, dataset_file):
    outdir = tmp_path / "res"
    main(["bench", "--data", str(dataset_file), "--algos", "u1", "--grid",
          "1e-4", "--smoke", "--outdir", str(outdir)])
    csv = next(outdir.glob("bench_*.csv"))
    code = main(["report", str(csv), "--outdir", str(tmp_path / "rep")])
    assert code == 0
    assert (tmp_path / "rep" / "summary_report.md").exists()
    assert (tmp_path / "rep" / "runtime_report.svg").exists()


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
