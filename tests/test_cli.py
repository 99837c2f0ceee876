"""Command-line interface."""

import json

import pytest

from mmls.cli import load_config_file, main
from mmls.experiments import ConfigError


def test_synthetic_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main([
        "synthetic", "--seed", "5", "--n-dim", "6", "--samples", "120",
        "--out", str(out), "--no-wall-time",
    ])
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "run.json").exists()
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["experiment"] == "synthetic"
    assert summary["iterations"] == 120


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small deconvolution run\n"
        "seed = 7\n"
        "image_size = 32\n"
        "kernel_size = 3\n"
        "block_size = 16\n"
    )
    out = tmp_path / "trace.csv"
    rc = main(["deconv2d", "--config", str(cfg), "--seed", "9", "--out", str(out), "--no-wall-time"])
    assert rc == 0
    meta = json.loads((tmp_path / "trace.json").read_text())
    # the flag wins over the file
    assert meta["config"]["seed"] == 9
    assert meta["config"]["image_size"] == 32


@pytest.mark.parametrize("experiment, rc", [("deconv2d", 2), ("synthetic", 0)])
def test_config_file_experiment_must_match_subcommand(tmp_path, capsys, experiment, rc):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiment = {experiment}\nn_samples = 20\n")
    assert main(["synthetic", "--config", str(cfg)]) == rc
    captured = capsys.readouterr()
    if rc:
        assert json.loads(captured.err.strip())["error"] == "config"
    else:
        assert json.loads(captured.out.strip())["experiment"] == "synthetic"


def test_reruns_are_bit_identical(tmp_path):
    args = ["synthetic", "--seed", "3", "--n-dim", "5", "--samples", "90", "--no-wall-time"]
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_bad_config_value_exits_2(capsys):
    rc = main(["synthetic", "--vartheta", "2.0"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("stepsize = 0.1\n")
    rc = main(["synthetic", "--config", str(cfg)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_missing_config_file_exits_2(capsys):
    rc = main(["adaptive", "--config", "/nonexistent/path.cfg"])
    assert rc == 2
    capsys.readouterr()


def test_divergent_run_exits_3(tmp_path, capsys):
    # an unstable SGD scale blows up; the harness reports divergence:
    # use the mm engine guard instead via absurd noise injection
    rc = main([
        "synthetic", "--seed", "1", "--n-dim", "4", "--samples", "50",
        "--noise-sigma", "1e14",
    ])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "divergence"
    assert err["iteration"] >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_sgd_run_exits_3(capsys):
    rc = main([
        "synthetic", "--strategy", "sgd", "--sgd-scale", "1e9", "--samples", "60",
    ])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "divergence"


def test_oversized_deconv_config_exits_2(capsys):
    rc = main(["deconv2d", "--image-size", "16384", "--kernel-size", "21"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["deconv2d", "--kernel-size", "4", "--image-size", "32"],
    ["adaptive", "--lambda", "-1", "--samples", "300"],
    ["adaptive", "--operator", "tv2d", "--samples", "300"],
    ["synthetic", "--tau", "-1"],
    ["synthetic", "--operator", "identity"],
    ["synthetic", "--samples", "3", "--blocksize", "5"],
    ["adaptive", "--n-dim", "300", "--samples", "200"],
    ["synthetic", "--strategy", "sgd", "--sgd-scale", "0", "--samples", "10"],
    ["deconv2d", "--image-size", "32", "--kernel-size", "3", "--penalty", "welsch"],
    ["deconv2d", "--image-size", "32", "--kernel-size", "3", "--kappa", "2"],
])
def test_invalid_problem_config_exits_2(argv, capsys):
    rc = main(argv)
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["synthetic", "--noise-sigma", "nan", "--samples", "20"],
    ["synthetic", "--noise-sigma", "inf", "--samples", "20"],
    ["synthetic", "--tau", "nan", "--samples", "20"],
    ["synthetic", "--operator", "identity", "--penalty", "huber", "--kappa", "nan",
     "--samples", "20"],
    ["adaptive", "--kappa", "inf", "--n-dim", "20", "--samples", "300"],
    ["synthetic", "--sgd-scale", "inf", "--samples", "20"],
])
def test_non_finite_config_value_exits_2(argv, capsys):
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


@pytest.mark.parametrize("target", ["missing-dir/run.csv", "."])
def test_unwritable_out_exits_2_before_streaming(tmp_path, capsys, target):
    # a missing parent directory, or a directory in place of the file
    rc = main(["synthetic", "--samples", "50", "--n-dim", "4", "--out", str(tmp_path / target)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"
    assert list(tmp_path.iterdir()) == []


def test_load_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    with pytest.raises(ConfigError):
        load_config_file(str(cfg))


def test_load_config_types(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("seed = 4\nvartheta = 0.99\nstrategy = full-space\n")
    values = load_config_file(str(cfg))
    assert values == {"seed": 4, "vartheta": 0.99, "strategy": "full-space"}
    assert isinstance(values["seed"], int)
    assert isinstance(values["vartheta"], float)
