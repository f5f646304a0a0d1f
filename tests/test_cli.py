import json
import os

import pytest

from pesim import inequalities
from pesim.cli import main
from pesim.config import ConfigError, parse_config_text
from pesim.functionals import DiagnosticsRecord


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE = """
grid.n = 48
model.lambda1 = 1.0
model.lambda2 = 2.0
time.t_end = 2.0
time.sample_every = 0.5
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_defaults_and_comments():
    cfg = parse_config_text("# nothing but comments\n\n")
    assert cfg.values["grid.n"] == 128
    assert cfg.kind.value == "regularized"
    cfg = parse_config_text("grid.n = 64  # inline comment\n")
    assert cfg.values["grid.n"] == 64


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("model.gamma = 1.0\n")
    assert "model.gamma" in str(exc.value)


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("model.chi1 = -1\n")
    assert "model.chi1" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_config_text("grid.n = twelve\n")
    with pytest.raises(ConfigError):
        parse_config_text("model.kind = spectral\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_smoke(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {out}\n")
    assert main(["simulate", cfg]) == 0
    lines = open(os.path.join(out, "timeseries.csv")).read().splitlines()
    assert lines[0] == ",".join(DiagnosticsRecord.CSV_COLUMNS)
    assert len(lines) >= 3  # header + at least two rows
    snaps = os.listdir(os.path.join(out, "snapshots"))
    assert len(snaps) == len(lines) - 1
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["run"]["status"] == "ok"
    assert summary["config"]["grid.n"] == 48


def test_simulate_roundtrip_bitwise(tmp_path):
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {out1}\n")
    assert main(["simulate", cfg]) == 0
    summary = json.load(open(os.path.join(out1, "summary.json")))
    # re-emit the fully resolved config and run again
    resolved = summary["config"]
    text = "\n".join(f"{k} = {v}" for k, v in resolved.items() if k != "out.dir")
    cfg2 = _write(tmp_path, "run2.cfg", text + f"\nout.dir = {out2}\n")
    assert main(["simulate", cfg2]) == 0
    ts1 = open(os.path.join(out1, "timeseries.csv")).read()
    ts2 = open(os.path.join(out2, "timeseries.csv")).read()
    assert ts1 == ts2


def test_simulate_bad_config_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", BASE + "model.chi1 = -1\n")
    assert main(["simulate", cfg]) == 1
    assert "model.chi1" in capsys.readouterr().err


def test_simulate_unknown_key_exit_1(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", BASE + "model.zeta = 1\n")
    assert main(["simulate", cfg]) == 1


def test_simulate_solver_failure_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    text = (
        "model.lambda1 = 1.0\nmodel.lambda2 = 1.0\n"
        "ic.kind = constant\nic.base_u = 30\nic.base_v = 30\n"
        "stepper.dt_init = 10\nstepper.dt_min = 10\nstepper.dt_max = 10\n"
        "time.t_end = 50\n"
        f"out.dir = {out}\n"
    )
    cfg = _write(tmp_path, "stiff.cfg", text)
    assert main(["simulate", cfg]) == 2
    # partial outputs flushed: the initial sample is on disk
    lines = open(os.path.join(out, "timeseries.csv")).read().splitlines()
    assert len(lines) >= 2
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["run"]["status"] == "solver_failure"


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_coexistence_smoke(tmp_path):
    out = str(tmp_path / "out")
    text = BASE + "ic.kind = constant\nic.base_u = 1.5\nic.base_v = 0.5\n" + f"out.dir = {out}\n"
    cfg = _write(tmp_path, "coex.cfg", text)
    assert main(["experiment", cfg, "--which", "coexistence"]) == 0
    verdicts = json.load(open(os.path.join(out, "verdicts.json")))
    assert all(v["pass"] for v in verdicts["verdicts"].values())


def test_experiment_regime_mismatch_exit_1(tmp_path):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "coex.cfg", BASE + f"out.dir = {out}\n")
    assert main(["experiment", cfg, "--which", "extinction"]) == 1


def test_experiment_failed_verdict_exit_3(tmp_path):
    # far from the steady state with no time to converge
    out = str(tmp_path / "out")
    text = BASE.replace("time.t_end = 2.0", "time.t_end = 0.1") + f"out.dir = {out}\n"
    cfg = _write(tmp_path, "c.cfg", text)
    assert main(["experiment", cfg, "--which", "coexistence"]) == 3
    verdicts = json.load(open(os.path.join(out, "verdicts.json")))
    assert not all(v["pass"] for v in verdicts["verdicts"].values())


def test_experiment_eps_writes_distances(tmp_path):
    out = str(tmp_path / "out")
    text = BASE.replace("time.t_end = 2.0", "time.t_end = 0.5") + f"out.dir = {out}\n"
    cfg = _write(tmp_path, "eps.cfg", text)
    rc = main(["experiment", cfg, "--which", "eps",
               "--eps-list", "1e-2,2.5e-3,6.25e-4"])
    assert rc == 0
    lines = open(os.path.join(out, "eps_distances.csv")).read().splitlines()
    assert lines[0] == "eps_hi,eps_lo,dist_u,dist_v"
    assert len(lines) == 3


def test_experiment_unknown_name(tmp_path):
    cfg = _write(tmp_path, "c.cfg", BASE)
    assert main(["experiment", cfg, "--which", "bogus"]) == 1


def test_experiment_bad_thread_count_names_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PE_SIM_THREADS", "abc")
    cfg = _write(tmp_path, "eps.cfg", BASE + f"out.dir = {tmp_path / 'out'}\n")
    assert main(["experiment", cfg, "--which", "eps"]) == 1
    err = capsys.readouterr().err
    assert "PE_SIM_THREADS" in err and "'abc'" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all(tmp_path):
    out = str(tmp_path / "reports")
    assert main(["verify", "--out", out, "--suite", "all"]) == 0
    reports = [f for f in os.listdir(out) if f.endswith(".json")]
    assert len(reports) >= 5
    moll = json.load(open(os.path.join(out, "mollifier.json")))
    assert moll["worst_ratio"] <= 1.0
    assert moll["pass"] is True


def test_verify_beta_one_exit_1(tmp_path):
    out = str(tmp_path / "reports")
    assert main(["verify", "--out", out, "--suite", "bernis", "--beta", "1.0"]) == 1


def test_verify_beta_runs_only_that_beta(tmp_path, monkeypatch):
    # the default bernis sweep must not run alongside the requested exponent
    seen = set()
    real = inequalities.check_bernis
    monkeypatch.setattr(inequalities, "check_bernis",
                        lambda f, beta: seen.add(beta) or real(f, beta))
    out = str(tmp_path / "reports")
    assert main(["verify", "--out", out, "--suite", "bernis", "--beta", "2.0"]) == 0
    assert seen == {2.0}
    assert os.listdir(out) == ["bernis.json"]
    rep = json.load(open(os.path.join(out, "bernis.json")))
    assert rep["samples"] == 200  # one ratio per random field
    assert rep["worst_case_payload"]["beta"] == 2.0


def test_verify_single_suite(tmp_path):
    out = str(tmp_path / "reports")
    assert main(["verify", "--out", out, "--suite", "mollifier"]) == 0
    assert os.path.isfile(os.path.join(out, "mollifier.json"))


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_after_simulate(tmp_path):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {out}\n")
    assert main(["simulate", cfg]) == 0
    assert main(["plot", out]) == 0
    script = open(os.path.join(out, "plot.gp")).read()
    # referenced data files all exist
    assert "timeseries.csv" in script
    for token in ("timeseries.csv", "eps_distances.csv"):
        if token in script:
            assert os.path.isfile(os.path.join(out, token)) or token == "eps_distances.csv"
    assert "eps_distances.csv" not in script
    for line in script.splitlines():
        if "snapshots/" in line:
            name = line.split("'")[1]
            assert os.path.isfile(os.path.join(out, name))


def test_plot_empty_dir_exit_1(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["plot", str(empty)]) == 1


def test_plot_eps_table(tmp_path):
    out = str(tmp_path / "out")
    text = BASE.replace("time.t_end = 2.0", "time.t_end = 0.5") + f"out.dir = {out}\n"
    cfg = _write(tmp_path, "eps.cfg", text)
    assert main(["experiment", cfg, "--which", "eps"]) == 0
    assert main(["plot", out]) == 0
    script = open(os.path.join(out, "plot.gp")).read()
    assert "eps_distances.csv" in script
