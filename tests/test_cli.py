import json
import os
import warnings

import numpy as np
import pytest

from pesim import inequalities
from pesim.cli import _fmt, main, write_snapshots
from pesim.config import ConfigError, parse_config_text
from pesim.functionals import DiagnosticsRecord
from pesim.grid import Field, Grid1D
from pesim.model import State


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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
    assert cfg.spec.kind.value == "regularized"
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
    lines = _read(os.path.join(out, "timeseries.csv")).splitlines()
    assert lines[0] == ",".join(DiagnosticsRecord.CSV_COLUMNS)
    assert len(lines) >= 3  # header + at least two rows
    snaps = os.listdir(os.path.join(out, "snapshots"))
    assert len(snaps) == len(lines) - 1
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["run"]["status"] == "ok"
    assert summary["config"]["grid.n"] == 48


def test_write_snapshots_text_and_roundtrip(tmp_path):
    # values the row formatting must render exactly as _fmt does
    g = Grid1D(0.1, 0.7, 64)  # centers that need all 17 digits
    u = np.linspace(-3.0, 3.0, 64) ** 3 / 7.0
    u[:6] = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.0 / 3.0]
    v = np.geomspace(1e-17, 1e17, 64)
    v[:3] = [np.inf, -np.inf, np.nan]
    write_snapshots(str(tmp_path), [State.trusted(0.0, Field.trusted(g, u), Field.trusted(g, v))])
    with open(tmp_path / "snapshots" / "state_00000.csv", encoding="utf-8") as fh:
        text = fh.read()
    expected = "x,u,v\n" + "".join(
        f"{_fmt(x)},{_fmt(a)},{_fmt(b)}\n" for x, a, b in zip(g.centers, u, v))
    assert text == expected
    back = np.array([[float(c) for c in row.split(",")] for row in text.splitlines()[1:]])
    assert np.array_equal(back, np.column_stack([g.centers, u, v]), equal_nan=True)
    assert np.array_equal(np.signbit(back[:2, 1]), [True, False])


def test_simulate_roundtrip_bitwise(tmp_path):
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {out1}\n")
    assert main(["simulate", cfg]) == 0
    summary = json.loads(_read(os.path.join(out1, "summary.json")))
    # re-emit the fully resolved config and run again
    resolved = summary["config"]
    text = "\n".join(f"{k} = {v}" for k, v in resolved.items() if k != "out.dir")
    cfg2 = _write(tmp_path, "run2.cfg", text + f"\nout.dir = {out2}\n")
    assert main(["simulate", cfg2]) == 0
    ts1 = _read(os.path.join(out1, "timeseries.csv"))
    ts2 = _read(os.path.join(out2, "timeseries.csv"))
    assert ts1 == ts2


def test_simulate_bad_config_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", BASE + "model.chi1 = -1\n")
    assert main(["simulate", cfg]) == 1
    assert "model.chi1" in capsys.readouterr().err


def test_simulate_unknown_key_exit_1(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", BASE + "model.zeta = 1\n")
    assert main(["simulate", cfg]) == 1


# lambda2 = a2*lambda1 (the extinction regime) and a far too stiff start: the
# first step is rejected and dt halves below dt_min
STIFF = (
    "model.lambda1 = 1.0\nmodel.lambda2 = 1.0\n"
    "ic.kind = constant\nic.base_u = 30\nic.base_v = 30\n"
    "stepper.dt_init = 10\nstepper.dt_min = 10\nstepper.dt_max = 10\n"
    "time.t_end = 50\ntime.sample_every = 10\n"
)


@pytest.mark.parametrize("key", ["time.t_end", "stepper.newton_tol", "model.lambda1",
                                 "domain.right"])
def test_nonfinite_config_value_exit_1(tmp_path, capsys, key):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "inf.cfg", BASE + f"{key} = inf\nout.dir = {out}\n")
    assert main(["simulate", cfg]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["experiment", "--which", "coexistence"]])
def test_unusable_out_dir_exit_1(tmp_path, capsys, command):
    blocker = _write(tmp_path, "plain_file", "")
    cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {os.path.join(blocker, 'out')}\n")
    assert main(command[:1] + [cfg] + command[1:]) == 1
    assert "out.dir" in capsys.readouterr().err


# one bad value per case; every one of them must be rejected under its own key
@pytest.mark.parametrize("key, value", [
    ("stepper.dt_init", "1"),
    ("stepper.dt_min", "0"),
    ("stepper.newton_tol", "-1"),
    ("stepper.positivity_floor", "0"),
    ("stepper.scheme", "rk4"),
    ("ic.kind", "foo"),
    ("diag.gamma", "-1"),
    ("model.chi1", "-1"),
    ("model.kind", "spectral"),
    ("reg.eps", "2"),
    ("reg.alpha", "0.75"),
    ("reg.n2", "3"),
    ("grid.n", "4"),
    ("domain.right", "-1"),
    ("time.t_end", "-1"),
])
def test_config_rejection_names_its_key(tmp_path, capsys, key, value):
    text = BASE + f"{key} = {value}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.key == key
    cfg = _write(tmp_path, "bad.cfg", text + f"out.dir = {tmp_path / 'out'}\n")
    assert main(["simulate", cfg]) == 1
    assert f"pesim: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["experiment", "--which", "coexistence"]],
                         ids=["simulate", "experiment"])
@pytest.mark.parametrize("text, key", [
    ("ic.base_u = 0.2\n", "ic.base_u"),  # base_u - amp_u < 0 near x = 1
    ("ic.kind = constant\nic.base_v = 0\n", "ic.base_v"),
], ids=["perturbed", "constant"])
def test_nonpositive_initial_state_names_ic_key(tmp_path, capsys, command, text, key):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASE + text)
    assert exc.value.key == key
    cfg = _write(tmp_path, "ic.cfg", BASE + text + f"out.dir = {tmp_path / 'out'}\n")
    assert main(command[:1] + [cfg] + command[1:]) == 1
    assert f"pesim: {key}: " in capsys.readouterr().err


def test_random_trig_mode_zero_exit_1(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "m0.cfg", BASE + f"ic.kind = random-trig\nic.mode = 0\nout.dir = {out}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert "ic.mode" in err and "Warning" not in err
    assert not caught


def test_sample_every_below_dt_min_exit_1(tmp_path, capsys):
    # every step would be cut to the next sample time: rejected up front
    text = "grid.n = 16\ntime.t_end = 1\ntime.sample_every = 1e-13\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.key == "time.sample_every"
    cfg = _write(tmp_path, "tiny.cfg", text + f"out.dir = {tmp_path / 'out'}\n")
    assert main(["simulate", cfg]) == 1
    assert "time.sample_every" in capsys.readouterr().err


def test_simulate_solver_failure_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "stiff.cfg", STIFF + f"out.dir = {out}\n")
    assert main(["simulate", cfg]) == 2
    # partial outputs flushed: the initial sample is on disk
    lines = _read(os.path.join(out, "timeseries.csv")).splitlines()
    assert len(lines) >= 2
    assert len(os.listdir(os.path.join(out, "snapshots"))) == len(lines) - 1
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["run"]["status"] == "solver_failure"


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_coexistence_smoke(tmp_path):
    out = str(tmp_path / "out")
    text = BASE + "ic.kind = constant\nic.base_u = 1.5\nic.base_v = 0.5\n" + f"out.dir = {out}\n"
    cfg = _write(tmp_path, "coex.cfg", text)
    assert main(["experiment", cfg, "--which", "coexistence"]) == 0
    verdicts = json.loads(_read(os.path.join(out, "verdicts.json")))
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
    verdicts = json.loads(_read(os.path.join(out, "verdicts.json")))
    assert not all(v["pass"] for v in verdicts["verdicts"].values())


def test_experiment_eps_writes_distances(tmp_path):
    out = str(tmp_path / "out")
    text = BASE.replace("time.t_end = 2.0", "time.t_end = 0.5") + f"out.dir = {out}\n"
    cfg = _write(tmp_path, "eps.cfg", text)
    rc = main(["experiment", cfg, "--which", "eps",
               "--eps-list", "1e-2,2.5e-3,6.25e-4"])
    assert rc == 0
    lines = _read(os.path.join(out, "eps_distances.csv")).splitlines()
    assert lines[0] == "eps_hi,eps_lo,dist_u,dist_v"
    assert len(lines) == 3


def test_experiment_solver_failure_keeps_partial_output(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "stiff.cfg", STIFF + f"out.dir = {out}\n")
    assert main(["experiment", cfg, "--which", "extinction"]) == 2
    assert "solver failure" in capsys.readouterr().err
    lines = _read(os.path.join(out, "timeseries.csv")).splitlines()
    assert len(lines) >= 2  # header + the initial sample
    assert len(os.listdir(os.path.join(out, "snapshots"))) == len(lines) - 1
    run = json.loads(_read(os.path.join(out, "summary.json")))["run"]
    assert list(run)[:3] == ["status", "failure", "experiment"]
    assert run["status"] == "solver_failure"
    assert "dt underflow" in run["failure"]
    assert run["experiment"] == "extinction"


@pytest.mark.parametrize("which, text, key", [
    ("absorbing", "model.kind = limit\n", "model.kind"),
    ("ode", "", "ic.kind"),  # the default perturbed initial condition
], ids=["absorbing", "ode"])
def test_study_rejection_names_its_key(tmp_path, capsys, which, text, key):
    cfg = _write(tmp_path, "c.cfg", BASE + text + f"out.dir = {tmp_path / 'out'}\n")
    assert main(["experiment", cfg, "--which", which]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("eps_list", [
    "1e-2,2.5e-3",  # too few
    "1e-2,1e-2,1e-3",  # not strictly decreasing
    "2,1e-2,1e-3",  # above 1
    "1e-2,1e-3,0",  # not positive
    "1e-2,nan,1e-3",
    "1e-2,abc,1e-3",
])
def test_experiment_bad_eps_list_exit_1(tmp_path, capsys, eps_list):
    cfg = _write(tmp_path, "eps.cfg", BASE + f"out.dir = {tmp_path / 'out'}\n")
    assert main(["experiment", cfg, "--which", "eps", "--eps-list", eps_list]) == 1
    assert "pesim: --eps-list: " in capsys.readouterr().err


def test_experiment_unknown_name(tmp_path):
    cfg = _write(tmp_path, "c.cfg", BASE)
    assert main(["experiment", cfg, "--which", "bogus"]) == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all(tmp_path):
    out = str(tmp_path / "reports")
    assert main(["verify", "--out", out, "--suite", "all"]) == 0
    reports = [f for f in os.listdir(out) if f.endswith(".json")]
    assert len(reports) >= 5
    moll = json.loads(_read(os.path.join(out, "mollifier.json")))
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
    rep = json.loads(_read(os.path.join(out, "bernis.json")))
    assert rep["samples"] == 200  # one ratio per random field
    assert rep["worst_case_payload"]["beta"] == 2.0


@pytest.mark.parametrize("args", [
    ["--suite", "bernis", "--beta", "nan"],
    ["--suite", "all", "--beta", "inf"],
    ["--suite", "ode", "--beta", "2"],  # a suite without the bernis sweep
    ["--suite", "mollifier", "--beta", "2"],
], ids=["nan", "inf", "ode-suite", "mollifier-suite"])
def test_verify_bad_beta_exit_1(tmp_path, capsys, args):
    out = tmp_path / "reports"
    assert main(["verify", "--out", str(out), *args]) == 1
    assert "pesim: --beta: " in capsys.readouterr().err
    assert not out.exists()


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
    script = _read(os.path.join(out, "plot.gp"))
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
    script = _read(os.path.join(out, "plot.gp"))
    assert "eps_distances.csv" in script
