import dataclasses
import json
import math
import re

import numpy as np
import pytest

from memstress.cli import main
from memstress.experiments import (
    EXPERIMENTS,
    Check,
    ConfigError,
    ExperimentConfig,
    ExperimentSpec,
    Outcome,
    _parse_n_range,
    load_config_file,
    run,
)
from memstress.reporting import write_csv, write_json
from memstress.spectral import EIGENSOLVER, NumericalError


def test_parse_n_range():
    assert _parse_n_range("16..256") == [16, 32, 64, 128, 256]
    assert _parse_n_range("3,4") == [3, 4]
    assert _parse_n_range("5") == [5]
    with pytest.raises(ConfigError):
        _parse_n_range("a..b")


def test_load_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# comment\n"
        "experiment = ising-splitting\n"
        "N_range = 3,4\n"
        "delta = 0.1\n"
        "seed = 7\n"
        "svg = true\n"
    )
    values = load_config_file(cfg)
    assert values == {
        "experiment": "ising-splitting",
        "N_range": [3, 4],
        "delta": 0.1,
        "seed": 7,
        "svg": True,
    }


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_equals_here\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    bad.write_text("bogus_key = 3\n")
    with pytest.raises(ConfigError, match="bogus_key"):
        load_config_file(bad)
    bad.write_text("delta = banana\n")
    with pytest.raises(ConfigError, match="delta"):
        load_config_file(bad)


@pytest.mark.parametrize("span", ["0..4", "-4..8", "16..8"])
def test_load_config_rejects_bad_span(tmp_path, span):
    cfg = tmp_path / "span.cfg"
    cfg.write_text(f"N_range = {span}\n")
    with pytest.raises(ConfigError, match="N_range"):
        load_config_file(cfg)


@pytest.mark.parametrize("value", ["", ",", " , "])
def test_load_config_rejects_empty_n_range(tmp_path, value):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"experiment = ising-splitting\nN_range = {value}\n")
    with pytest.raises(ConfigError, match="N_range: .* lists no N; leave the key out"):
        load_config_file(cfg)


def test_config_validation_names_field():
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig(experiment="nope").validated()
    for delta in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match="delta"):
            ExperimentConfig(experiment="duality-verify", delta=delta).validated()
    for threshold in (2.0, float("nan")):
        with pytest.raises(ConfigError, match="threshold"):
            ExperimentConfig(experiment="duality-verify", threshold=threshold).validated()
    for t_factor in (1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="t_factor"):
            ExperimentConfig(experiment="duality-verify", t_factor=t_factor).validated()
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(experiment="duality-verify", seed=-1).validated()
    with pytest.raises(ConfigError, match="N_range"):
        ExperimentConfig(experiment="duality-verify", N_range=[1]).validated()


def test_write_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [])
    assert path.read_bytes() == b"a,b\r\n"


def test_csv_17_digit_roundtrip(tmp_path):
    path = tmp_path / "x.csv"
    value = 0.1234567890123456789
    write_csv(path, ["v"], [(value,)])
    text = path.read_text().splitlines()[1]
    assert float(text) == value


def test_json_summary_is_strict_with_non_finite_numbers(tmp_path):
    path = tmp_path / "x.json"
    payload = {"nan": float("nan"), "inf": float("inf"), "ninf": -np.inf,
               "np_nan": np.float64("nan"), "np32": np.float32("-inf"),
               "values": np.array([1.5, np.nan]), "fine": np.float64(0.25), "n": np.int64(3)}
    write_json(path, payload)

    def reject(token):
        raise ValueError(f"bare {token} in the summary")

    back = json.loads(path.read_text(), parse_constant=reject)
    assert back["nan"] == back["np_nan"] == "NaN" and math.isnan(float(back["nan"]))
    assert back["inf"] == "Infinity" and float(back["inf"]) == math.inf
    assert back["ninf"] == back["np32"] == "-Infinity" and float(back["ninf"]) == -math.inf
    assert back["values"][0] == 1.5 and math.isnan(float(back["values"][1]))
    assert back["fine"] == 0.25 and back["n"] == 3


def _stub_spec(func):
    return ExperimentSpec(func, (3,), "stub")


def test_run_exit_codes_with_stub(tmp_path, monkeypatch):
    def failing(cfg):
        return Outcome(tables={"": (["x"], [(1.0,)])}, summary={}, checks=[
            Check("always_fails", 0.0, "> 1", False)
        ])

    def broken(cfg):
        raise NumericalError("deliberate")

    monkeypatch.setitem(EXPERIMENTS, "stub-fail", _stub_spec(failing))
    monkeypatch.setitem(EXPERIMENTS, "stub-broken", _stub_spec(broken))
    code = run(ExperimentConfig(experiment="stub-fail", output_dir=str(tmp_path)))
    assert code == 2
    with pytest.raises(NumericalError):
        run(ExperimentConfig(experiment="stub-broken", output_dir=str(tmp_path)))


def test_cli_list_and_exit_codes(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    # config error paths return 1
    assert main(["run", "--experiment", "does-not-exist", "--out", str(tmp_path)]) == 1
    assert main(["run", "--out", str(tmp_path)]) == 1
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text("experiment = ising-splitting\nbogus = 1\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: bogus: unknown config key\n"
    # the splitting digits are worked out per point, not configured
    cfg.write_text("experiment = ising-splitting\nprecision = extended:80\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: precision: unknown config key\n"


def test_cli_rejects_a_key_given_twice(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("experiment = ising-splitting\nN_range = 3\n# later\nexperiment = ising-plateau\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: experiment: given twice, on lines 1 and 4\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment, N",
    [
        ("toric-scaling", 2),
        ("toric-retune", 2),
        ("toric-transfer", 2),
        ("ising-splitting", 2),
        ("banded-splitting", 2),
        ("ising-plateau", 3),
        # an N listed twice, and a single N where exponents are fitted across N
        ("ising-splitting", "3, 3"),
        ("banded-splitting", "4, 3, 4"),
        ("toric-scaling", 16),
    ],
)
def test_cli_rejects_n_below_experiment_minimum(tmp_path, capsys, experiment, N):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"experiment = {experiment}\nN_range = {N}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: N_range:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["oracle-verify", "duality-verify", "two-excitation"])
def test_cli_rejects_extra_n_for_exact_n_experiments(tmp_path, capsys, experiment):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text(f"experiment = {experiment}\nN_range = 3, 5\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: N_range")
    assert not (tmp_path / "out").exists()


def test_cli_names_the_retune_time_limit(tmp_path, capsys):
    cfg = tmp_path / "late.cfg"
    cfg.write_text("experiment = toric-retune\nN_range = 8\nt_factor = 1e16\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "2**53" in capsys.readouterr().err


def test_cli_list_prints_each_config_default(tmp_path, capsys):
    assert main(["list"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
             if line.strip()}
    for f in dataclasses.fields(ExperimentConfig):
        printed = re.search(r"\[([^\]]*)\]$", lines[f.name])
        if f.default is dataclasses.MISSING:
            assert printed is None, f.name
            continue
        # the printed default, read back as a config value, is the field default
        cfg = tmp_path / f"{f.name}.cfg"
        cfg.write_text(f"{f.name} = {printed.group(1)}\n")
        assert load_config_file(cfg)[f.name] == f.default, f.name


def test_cli_list_prints_exact_n_rule(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "oracle-verify      N_range default [3], exactly one N from [2, 3]" in out
    assert "two-excitation     N_range default [3], exactly one N from [3]" in out
    scaling = out.splitlines().index(
        "  toric-scaling      N_range default [16, 32, 64, 128, 256], N >= 3")
    assert "two or more N" in out.splitlines()[scaling + 1]
    assert "precision" not in out


def test_cli_runs_ising_splitting_deterministically(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    cfg.write_text("experiment = ising-splitting\nN_range = 3\ndelta = 0.1\n")
    assert main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "5"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
    main_csv = (out1 / "ising_splitting.csv").read_bytes()
    assert main_csv == (out2 / "ising_splitting.csv").read_bytes()
    contrast = (out1 / "ising_splitting_contrast.csv").read_bytes()
    assert contrast == (out2 / "ising_splitting_contrast.csv").read_bytes()
    summary = json.loads((out1 / "ising_splitting_summary.json").read_text())
    assert summary["experiment"] == "ising-splitting"
    assert summary["config"]["seed"] == 5
    assert summary["all_passed"] is True
    assert "wall_clock_seconds" in summary
    assert summary["eigensolver"] == EIGENSOLVER
    assert EIGENSOLVER in ("numpy-openblas dstevd", "scipy eigh_tridiagonal")
    header = main_csv.decode().splitlines()[0]
    assert header == "N,delta,splitting"


def test_cli_svg_emission(tmp_path):
    out = tmp_path / "plots"
    code = main([
        "run", "--experiment", "ising-plateau", "--out", str(out), "--svg",
    ])
    assert code == 0
    svgs = list(out.glob("*.svg"))
    assert svgs, "expected at least one SVG artifact"
    body = svgs[0].read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_trace_schema_toric_transfer(tmp_path):
    out = tmp_path / "tt"
    code = run(ExperimentConfig(experiment="toric-transfer", N_range=[4, 6], output_dir=str(out)))
    assert code == 0
    trace = (out / "toric_transfer_trace.csv").read_text().splitlines()
    assert trace[0] == "t,fidelity"
    data = np.loadtxt((out / "toric_transfer_trace.csv"), delimiter=",", skiprows=1)
    assert data.shape[1] == 2
