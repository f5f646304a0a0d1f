import errno
import json
import os
import re
import tracemalloc
import warnings
from dataclasses import MISSING, fields
from enum import Enum

import numpy as np
import pytest

from pesim import cli, config, inequalities, stepper
from pesim.cli import _fmt, _SnapshotWriter, main
from pesim.config import DEFAULTS, ConfigError, parse_config, parse_config_text
from pesim.experiments import ExperimentSpec, InitialCondition
from pesim.functionals import diagnostics_record
from pesim.grid import Grid1D
from pesim.model import KineticParams, RegParams, State
from pesim.stepper import StepperConfig
from conftest import run_python_with_src


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

# the output layouts, each written out once here as README documents it
TIMESERIES_HEADER = "t,mass_u,mass_v,F,D,E1,D1,E2,D2,y,min_u,min_v,max_u,max_v,h1_u,h1_v"
REPORT_KEYS = ["name", "samples", "worst_ratio", "pass", "tolerance", "worst_case_payload"]
VERDICT_KEYS = ["pass", "value", "threshold"]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_defaults_and_comments():
    cfg = parse_config_text("# nothing but comments\n\n")
    assert cfg.values["grid.n"] == 128
    assert cfg.spec.kind.value == "regularized"
    cfg = parse_config_text("grid.n = 64  # inline comment\n")
    assert cfg.values["grid.n"] == 64
    # the stepper settings travel inside the spec
    assert parse_config_text("stepper.dt_max = 0.01").spec.stepper.dt_max == 0.01


def test_config_defaults_are_the_dataclass_defaults():
    # DEFAULTS also sets each value's type: _parse_value reads it from there
    built = [(StepperConfig, "stepper."), (KineticParams, "model."), (RegParams, "reg."),
             (Grid1D, ""), (InitialCondition, "ic."), (ExperimentSpec, "")]
    checked = 0
    for cls, prefix in built:
        for f in fields(cls):
            key = config._RENAMES.get(cls, {}).get(f.name, prefix + f.name)
            if f.default is MISSING or key not in DEFAULTS:
                continue
            default = f.default.value if isinstance(f.default, Enum) else f.default
            assert DEFAULTS[key] == default and type(DEFAULTS[key]) is type(default), key
            checked += 1
    assert checked == 18


def test_empty_config_builds_the_library_defaults():
    # DEFAULTS and the dataclasses state these 18 values each on their own
    spec = parse_config_text("").spec
    assert spec.stepper == StepperConfig()
    assert spec.ic == InitialCondition()
    assert spec.rp == RegParams(eps=DEFAULTS["reg.eps"])
    own = {f.name: f.default for f in fields(ExperimentSpec)}
    assert (spec.sample_every, spec.gamma) == (own["sample_every"], own["gamma"])


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("model.gamma = 1.0\n")
    assert "model.gamma" in str(exc.value)


def test_parse_rejects_line_without_equals(tmp_path, capsys):
    # a line that is no assignment is named by its number, not read as a key
    with pytest.raises(ConfigError) as exc:
        parse_config_text("grid.n = 48\n# comment\ngrid.n 64\n")
    assert exc.value.key == "line 3"
    cfg = _write(tmp_path, "bad.cfg", BASE + f"out.dir = {tmp_path / 'out'}\ntime.t_end 1\n")
    assert main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert err == "pesim: line 8: expected `key = value`, got 'time.t_end 1'\n"
    assert not (tmp_path / "out").exists()


def test_parse_rejects_unknown_override_key():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASE, {"out.path": "elsewhere"})
    assert exc.value.key == "out.path"
    assert str(exc.value) == "out.path: unknown key"


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
    assert lines[0] == TIMESERIES_HEADER
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
    _SnapshotWriter(str(tmp_path))(0, State.trusted(0.0, g, np.array((u, v))))
    with open(tmp_path / "snapshots" / "state_00000.csv", encoding="utf-8") as fh:
        text = fh.read()
    expected = "x,u,v\n" + "".join(
        f"{_fmt(x)},{_fmt(a)},{_fmt(b)}\n" for x, a, b in zip(g.centers, u, v))
    assert text == expected
    back = np.array([[float(c) for c in row.split(",")] for row in text.splitlines()[1:]])
    assert np.array_equal(back, np.column_stack([g.centers, u, v]), equal_nan=True)
    assert np.array_equal(np.signbit(back[:2, 1]), [True, False])


def _snapshot_text(state):
    """A snapshot file's text as the per-row formatting writes it."""
    return "x,u,v\n" + "".join(
        f"{_fmt(x)},{_fmt(a)},{_fmt(b)}\n" for x, a, b in zip(state.grid.centers, *state.w))


def _random_state(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (2, grid.n_cells)  # mantissas in [0.1, 3) over 18 decades
    w = rng.uniform(0.1, 3.0, shape) * 10.0 ** rng.integers(-9, 9, shape)
    return State.trusted(0.0, grid, w)


def _write_states(out_dir, states):
    """Write states' snapshots as a CLI run on their grid does, one sample at
    a time."""
    sink = _SnapshotWriter(str(out_dir))
    for i, s in enumerate(states):
        sink(i, s)


def _assert_snapshots(out_dir, states):
    for i, s in enumerate(states):
        assert _read(os.path.join(out_dir, "snapshots", f"state_{i:05d}.csv")) == _snapshot_text(s)


# below, at and across the writer's 1024-row block edge, and a non-dyadic domain
@pytest.mark.parametrize("grid", [Grid1D(0.0, 1.0, n) for n in (8, 1024, 1025, 2500)]
                         + [Grid1D(-0.3, 2.7, 2500)],
                         ids=lambda g: f"{g.x_left:g}-{g.x_right:g}-n{g.n_cells}")
def test_write_snapshots_matches_per_row_text(tmp_path, grid):
    states = [_random_state(grid, seed) for seed in range(3)]
    _write_states(tmp_path, states)
    _assert_snapshots(tmp_path, states)


def test_write_snapshots_formats_each_grid_own_x(tmp_path):
    # no x column carries over from one run to the next
    g1, g2 = Grid1D(0.0, 1.0, 1100), Grid1D(-0.3, 2.7, 1100)
    runs = [[_random_state(g1, 0), _random_state(g1, 1)], [_random_state(g2, 2)],
            [_random_state(g1, 3)], [_random_state(Grid1D(0.0, 1.0, 9), 4)]]
    for k, states in enumerate(runs):
        _write_states(tmp_path / str(k), states)
    for k, states in enumerate(runs):
        _assert_snapshots(tmp_path / str(k), states)


@pytest.mark.parametrize("scheme", ["imex", "fully_implicit"])
@pytest.mark.parametrize("model", ["limit", "regularized"])
@pytest.mark.parametrize("ic", ["ic.kind = perturbed", "ic.kind = random-trig\nic.mode = 6"],
                         ids=["perturbed", "random-trig"])
def test_simulate_on_the_smallest_grid(tmp_path, scheme, model, ic):
    # n = 8 is the smallest grid that config accepts
    text = (f"grid.n = 8\nmodel.kind = {model}\nstepper.scheme = {scheme}\n{ic}\n"
            f"time.t_end = 1.0\nout.dir = {tmp_path / 'out'}\n")
    assert main(["simulate", _write(tmp_path, "n8.cfg", text)]) == 0


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


@pytest.mark.parametrize("command", [["simulate"], ["experiment", "--which", "coexistence"]],
                         ids=["simulate", "experiment"])
def test_non_utf8_config_exit_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes((BASE + f"out.dir = {out}\n").encode() + b"# \xff\n")
    assert main(command[:1] + [str(cfg)] + command[1:]) == 1
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


def test_config_with_byte_order_mark(tmp_path):
    # editors that save "UTF-8 with BOM" put U+FEFF before the first key
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(BASE.lstrip().encode())
    bom.write_bytes(b"\xef\xbb\xbf" + BASE.lstrip().encode())
    assert parse_config(str(bom)) == parse_config(str(plain))
    assert main(["simulate", str(bom), "--out", str(tmp_path / "out")]) == 0


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


@pytest.mark.parametrize("command", [["simulate"], ["experiment", "--which", "coexistence"],
                                     ["verify", "--suite", "mollifier"]])
def test_unusable_out_dir_exit_1(tmp_path, capsys, command):
    blocker = _write(tmp_path, "plain_file", "")
    out = os.path.join(blocker, "out")
    if command[0] == "verify":
        assert main(command + ["--out", out]) == 1
        assert "pesim: --out: cannot create " in capsys.readouterr().err
        return
    cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {out}\n")
    assert main(command[:1] + [cfg] + command[1:]) == 1
    assert "out.dir" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["experiment", "--which", "coexistence"]],
                         ids=["simulate", "experiment"])
def test_empty_out_exit_1(tmp_path, capsys, command):
    # an empty --out is rejected as an empty out.dir line is, not ignored
    cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {tmp_path / 'cfg_out'}\n")
    assert main(command[:1] + [cfg] + command[1:] + ["--out", ""]) == 1
    assert "pesim: --out: " in capsys.readouterr().err
    assert not (tmp_path / "cfg_out").exists()


def test_simulate_loads_neither_inequalities_nor_numpy_random(tmp_path):
    # two measured peak-RSS choices: cmd_verify imports pesim.inequalities
    # itself, and pesim.rng draws numpy's stream without loading numpy.random
    cfg = _write(tmp_path, "run.cfg", "grid.n = 16\ntime.t_end = 0.01\n"
                 f"time.sample_every = 0.005\nout.dir = {tmp_path / 'out'}\n")
    code = ("import json, sys, pesim.cli; "
            f"rc = pesim.cli.main(['simulate', {cfg!r}]); "
            "print(json.dumps([rc, [m for m in ('pesim.inequalities', 'numpy.random') "
            "if m in sys.modules]]))")
    assert json.loads(run_python_with_src(code)) == [0, []]


def test_seeded_commands_do_not_load_numpy_random(tmp_path):
    # a random-trig run, the eps study and the checkers all draw from
    # pesim.rng; numpy.random would add about 6 MB of peak RSS
    cfg = _write(tmp_path, "run.cfg", BASE.replace("time.t_end = 2.0", "time.t_end = 0.5")
                 + f"ic.kind = random-trig\nic.mode = 2\nout.dir = {tmp_path / 'out'}\n")
    commands = [["simulate", cfg], ["experiment", cfg, "--which", "eps"],
                ["verify", "--suite", "all", "--out", str(tmp_path / "verify")]]
    code = ("import json, sys, pesim.cli\n"
            "print(json.dumps([[pesim.cli.main(c), 'numpy.random' in sys.modules] "
            f"for c in {commands!r}]))")
    assert json.loads(run_python_with_src(code).splitlines()[-1]) == [[0, False]] * 3


# every name `import pesim` exported when it imported its submodules eagerly
PESIM_EXPORTS = """Grid1D KineticParams ModelKind RegParams State fast_diffusion_coeff
    g_mollifier h_flux m4_mobility Scheme StepOutcome StepperConfig StepperFailure run_until
    step CosineBumpTestFunction DiagnosticsRecord Regime SteadyStates conditional_y
    diagnostics_record dissipation_D dissipation_rate_D1 dissipation_rate_D2 entropy_E1
    entropy_E2 m_infinity phi quasi_entropy_F steady_states weak_residual ExperimentResult
    ExperimentSpec InitialCondition run_absorbing_set run_coexistence_study
    run_eps_convergence run_extinction_study run_ode_consistency""".split()

_LOADED = "sorted(m for m in sys.modules if m.startswith(('pesim.', 'scipy')))"


# a coexistence run long enough for the study's verdicts to pass
COEX = BASE.replace("time.t_end = 2.0", "time.t_end = 30.0")


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # verify takes no step: loading the simulation modules cost it about
    # 0.6 MB of peak RSS
    code = ("import json, sys, pesim.cli\n"
            f"rc = pesim.cli.main(['verify', '--suite', 'all', '--out', {str(tmp_path)!r}])\n"
            f"print(json.dumps([rc, {_LOADED}]))")
    assert json.loads(run_python_with_src(code).splitlines()[-1]) == [
        0, ["pesim.cli", "pesim.grid", "pesim.inequalities", "pesim.model", "pesim.rng"]]
    # simulate and experiment take their LAPACK from numpy: no part of scipy
    cfg = _write(tmp_path, "run.cfg", COEX)
    for command in (["simulate", cfg], ["experiment", cfg, "--which", "coexistence"]):
        code = ("import json, sys, pesim.cli\n"
                f"rc = pesim.cli.main({command + ['--out', str(tmp_path / 'out')]!r})\n"
                f"print(json.dumps([rc, {_LOADED}]))")
        assert json.loads(run_python_with_src(code).splitlines()[-1]) == [
            0, ["pesim.cli", "pesim.config", "pesim.experiments", "pesim.functionals",
                "pesim.grid", "pesim.model", "pesim.stepper"]], command
    # import pesim loads no submodule, and each exported name, looked up on
    # first access, is its module's own object
    code = ("import json, sys, pesim\n"
            f"loaded = {_LOADED}\n"
            "names = [n for n in pesim.__all__ if getattr(pesim, n) is "
            "getattr(sys.modules[getattr(pesim, n).__module__], n)]\n"
            "from pesim import cli, stepper\n"
            "print(json.dumps([loaded, names, cli is sys.modules['pesim.cli'], "
            "stepper is sys.modules['pesim.stepper'], hasattr(pesim, 'no_such_name')]))")
    loaded, names, *rest = json.loads(run_python_with_src(code))
    assert loaded == [] and rest == [True, True, False]
    assert sorted(names) == sorted(PESIM_EXPORTS)
    # README's library imports, each in a fresh interpreter
    readme = _read(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md"))
    library = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    statements = re.findall(r"^from pesim import (?:\([^)]*\)|.*)$", library, re.M)
    assert len(statements) == 3
    for statement in statements:
        names = re.findall(r"\w+", statement.split("import", 1)[1])
        code = ("import json, sys, pesim\n"
                f"loaded = {_LOADED}\n"
                f"{statement}\n"
                f"print(json.dumps([loaded, [n for n in {names!r} if globals()[n] is "
                "getattr(sys.modules[globals()[n].__module__], n)]]))")
        assert json.loads(run_python_with_src(code)) == [[], names], statement


def test_runs_need_no_scipy(tmp_path):
    # sys.modules["scipy"] = None makes every import of scipy raise: both
    # models and both schemes run without it, to the same bytes, and so do
    # the inequality suites
    runs = {"imex": BASE, "limit": BASE + "model.kind = limit\n",
            "implicit": BASE + "stepper.scheme = fully_implicit\n"}
    commands = [["simulate", _write(tmp_path, f"{name}.cfg", text)] for name, text in runs.items()]
    commands.append(["experiment", _write(tmp_path, "coex.cfg", COEX), "--which", "coexistence"])
    commands.append(["verify", "--suite", "all"])

    def outputs(command, out):  # a run's time series, or verify's reports
        if command[0] == "verify":
            return {name: _read(os.path.join(out, name)) for name in sorted(os.listdir(out))}
        return _read(os.path.join(out, "timeseries.csv"))

    def run(blocked):
        outs = [str(tmp_path / f"{blocked}-{i}") for i in range(len(commands))]
        code = ("import json, sys\n"
                f"if {blocked}:\n    sys.modules['scipy'] = None\n"
                "import pesim.cli\n"
                f"print(json.dumps([pesim.cli.main(c + ['--out', o]) "
                f"for c, o in zip({commands!r}, {outs!r})]))")
        codes = json.loads(run_python_with_src(code).splitlines()[-1])
        return codes, [outputs(c, o) for c, o in zip(commands, outs)]

    codes, series = run(True)
    assert codes == [0] * len(commands)
    assert (codes, series) == run(False)


def test_missing_lapack_routine_exits_1_without_traceback(tmp_path):
    # the stepper's lookup of scipy_dgbtrf_64_ fails as on a numpy whose
    # LAPACK names its routines otherwise: each command that imports the
    # stepper exits 1 with one line and makes no output directory, while
    # any other import error keeps its traceback
    cfg = _write(tmp_path, "run.cfg", BASE)
    commands = [["simulate", cfg], ["experiment", cfg, "--which", "coexistence"],
                ["experiment", cfg, "--which", "eps", "--eps-list", "1e-2,5e-3"]]
    outs = [str(tmp_path / f"out-{i}") for i in range(len(commands))]
    code = ("import contextlib, ctypes, io, json, sys\n"
            "lookup = ctypes.CDLL.__getattr__\n"
            "def planted(lib, name):\n"
            "    if name == 'scipy_dgbtrf_64_':\n"
            "        raise AttributeError(name)\n"
            "    return lookup(lib, name)\n"
            "ctypes.CDLL.__getattr__ = planted\n"
            "import pesim.cli\n"
            "def run(argv):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        return pesim.cli.main(argv), err.getvalue()\n"
            f"results = [run(c + ['--out', o]) for c, o in zip({commands!r}, {outs!r})]\n"
            "sys.modules['pesim.experiments'] = None\n"
            "ctypes.CDLL.__getattr__ = lookup\n"
            "try:\n"
            f"    run({commands[0]!r} + ['--out', {outs[0]!r}])\n"
            "except ImportError as exc:\n"
            "    results.append(exc.name)\n"
            "print(json.dumps(results))")
    results = json.loads(run_python_with_src(code).splitlines()[-1])
    assert results[-1] == "pesim.experiments"
    for exit_code, err in results[:-1]:
        assert exit_code == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("pesim: LAPACK routine dgbtrf (scipy_dgbtrf_64_) is not in ")
        assert "_umath_linalg" in err
    assert not any(os.path.exists(o) for o in outs)


# an output path taken by the wrong kind of file: a run reports it under its
# key, with no traceback, before the solve instead of dying in the writer
@pytest.mark.parametrize("command, blocked, kind", [
    (["simulate"], "snapshots", "file"),
    (["simulate"], "timeseries.csv", "dir"),
    (["simulate"], "summary.json", "dir"),
    (["simulate"], "eps_distances.csv", "dir"),  # _remove_stale's
    (["experiment", "--which", "coexistence"], "verdicts.json", "dir"),
    (["verify", "--suite", "bernis"], "bernis.json", "dir"),
], ids=["simulate-snapshots-file", "simulate-timeseries-dir", "simulate-summary-dir",
        "simulate-eps-distances-dir", "experiment-verdicts-dir", "verify-report-dir"])
def test_blocked_output_path_exit_1(tmp_path, capsys, monkeypatch, command, blocked, kind):
    def no_solve(*args, **kwargs):
        raise AssertionError("the blocked output was not found before the solve")

    monkeypatch.setattr("pesim.experiments.run_until", no_solve)
    out = tmp_path / "out"
    out.mkdir()
    if kind == "dir":
        (out / blocked).mkdir()
    else:
        (out / blocked).write_text("")
    if command[0] == "verify":
        assert main(command + ["--out", str(out)]) == 1
        key = "--out"
    else:
        cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {out}\n")
        assert main(command[:1] + [cfg] + command[1:]) == 1
        key = "out.dir"
    err = capsys.readouterr().err
    assert err.startswith(f"pesim: {key}: cannot write ") and blocked in err
    assert "Traceback" not in err


# one bad value per case; every one of them must be rejected under its own key
@pytest.mark.parametrize("key, value", [
    ("stepper.dt_init", "1"),
    ("stepper.dt_min", "0"),
    ("stepper.dt_max", "1e-4"),  # below the default dt_init
    ("stepper.dt_init", "1e-11"),  # below the default dt_min
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
    # above 2**20 cells: 10**16 cells would not fit in memory, and at 10**20
    # numpy's own error names no key
    pytest.param("grid.n", "1" + "0" * 16, id="grid.n-1e16"),
    pytest.param("grid.n", "1" + "0" * 20, id="grid.n-1e20"),
    ("domain.right", "-1"),
    ("time.t_end", "-1"),
    ("time.t_end", "3e9"),  # time tolerance 3 above sample_every: a step past dt_max
    ("time.t_end", "1e-10"),  # within the time tolerance: no step at all
    # dt_min above the sample interval that BASE sets
    pytest.param("stepper.dt_min", "2\nstepper.dt_init = 2\nstepper.dt_max = 2",
                 id="stepper.dt_min-dt_init-dt_max-2"),
    pytest.param("ic.seed", "-1\nic.kind = random-trig", id="ic.seed--1-random-trig"),
    # the cell centers resolve modes 0 .. grid.n - 1 only
    pytest.param("ic.mode", "16\ngrid.n = 16", id="ic.mode-16-grid.n-16"),
    pytest.param("ic.mode", "1" + "0" * 400, id="ic.mode-1e400"),
    pytest.param("ic.mode", "1" + "0" * 20 + "\nic.kind = random-trig",
                 id="ic.mode-1e20-random-trig"),
    # base_u + amp_u overflows to inf
    pytest.param("ic.base_u", "1e308\nic.amp_u = 1e308", id="ic.base_u-amp_u-1e308"),
    # x_right - x_left overflows to inf
    pytest.param("domain.right", "1e308\ndomain.left = -1e308", id="domain.right-left-1e308"),
    # cells so narrow that the thin-film scale 1/dx^4 is not finite: dx*dx
    # underflows to 0 at 1e-300, 1/dx^4 overflows at 1e-150
    ("domain.right", "1e-300"),
    ("domain.right", "1e-150"),
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


def test_snapshot_write_error_ends_the_run_exit_1(tmp_path, capsys, monkeypatch):
    # snapshots are written as the run goes: one that cannot be written ends
    # the run there, with exit 1 and no traceback
    steps = []
    real_step, real_write = stepper.step, cli.write_snapshots

    def counted(*args):
        steps.append(args[0].t)
        return real_step(*args)

    def full_disk(out_dir, index, state, rows):
        if index == 2:
            raise OSError(errno.ENOSPC, "No space left on device",
                          os.path.join(out_dir, "snapshots", f"state_{index:05d}.csv"))
        real_write(out_dir, index, state, rows)

    monkeypatch.setattr(stepper, "step", counted)
    monkeypatch.setattr(cli, "write_snapshots", full_disk)
    cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {tmp_path / 'out'}\n")
    assert main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pesim: out.dir: cannot write ") and "state_00002.csv" in err
    assert "Traceback" not in err
    cut_short = len(steps)
    steps.clear()
    monkeypatch.setattr(cli, "write_snapshots", real_write)
    assert main(["simulate", cfg]) == 0
    assert 0 < cut_short < len(steps)


def _full_disk(path, *args):
    raise OSError(errno.ENOSPC, "No space left on device", path)


def test_end_file_write_error_exit_1(tmp_path, capsys, monkeypatch):
    # an end file that cannot be written after a finished run exits 1 with no
    # traceback, and the snapshots written during the run stay
    monkeypatch.setattr(cli, "write_timeseries", _full_disk)
    out = tmp_path / "out"
    cfg = _write(tmp_path, "run.cfg", BASE + f"out.dir = {out}\n")
    assert main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    path = str(out / "timeseries.csv")
    assert err == f"pesim: out.dir: cannot write {path!r}: No space left on device\n"
    assert len(os.listdir(out / "snapshots")) == 5  # t = 0, 0.5, ..., 2
    assert not (out / "summary.json").exists()


# a write error during or after the run names the key that set the directory
@pytest.mark.parametrize("writer", ["write_snapshots", "write_summary"])
@pytest.mark.parametrize("key", ["out.dir", "--out"])
def test_write_error_names_the_out_key(tmp_path, capsys, monkeypatch, writer, key):
    monkeypatch.setattr(cli, writer, _full_disk)
    out = str(tmp_path / "out")
    text, flag = (BASE + f"out.dir = {out}\n", []) if key == "out.dir" else (BASE, ["--out", out])
    cfg = _write(tmp_path, "run.cfg", text)
    assert main(["experiment", cfg, "--which", "coexistence", *flag]) == 1
    assert capsys.readouterr().err.startswith(f"pesim: {key}: cannot write ")


def test_simulate_memory_does_not_grow_with_samples(tmp_path):
    # no sampled state outlives its snapshot: 201 samples instead of 11 raise
    # the traced peak of a run at n = 2048 by less than one state beyond the
    # diagnostics records that the extra samples keep
    n = 2048
    rec_state = State.trusted(0.0, Grid1D(0.0, 1.0, n), np.full((2, n), 1.5))
    kp = KineticParams(1.0, 1.0, 0.05, 0.05, 1.0, 1.0, 1.0, 2.0)
    tracemalloc.start()
    try:
        records = [diagnostics_record(rec_state, kp, RegParams(1e-4)) for _ in range(100)]
        record_bytes = tracemalloc.get_traced_memory()[0] / len(records)
        del records

        def peak(sample_every):
            cfg = _write(tmp_path, "run.cfg", f"grid.n = {n}\ntime.t_end = 1.0\n"
                         f"time.sample_every = {sample_every}\n")
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert cli.cmd_simulate(cfg, str(tmp_path / "out")) == 0
            return tracemalloc.get_traced_memory()[1] - base

        peak(0.1)  # first-call allocations
        few, many = peak(0.1), peak(0.005)
    finally:
        tracemalloc.stop()
    assert many - few < rec_state.w.nbytes + (201 - 11) * record_bytes


@pytest.mark.parametrize("right", ["1e-3", "1e-4", "1e-5", "1e-6"])
def test_fully_implicit_short_domain_fails_or_conserves_mass(tmp_path, right):
    # the flux form conserves mass and the reactions move mass_u by far less
    # than 1e-6 of it in 0.01, so a larger change is a wrong answer; on these
    # domains the Newton roundoff floor can swamp the step, which must then be
    # rejected (exit 2 once dt passes dt_min) rather than taken
    text = ("grid.n = 128\nmodel.kind = regularized\nstepper.scheme = fully_implicit\n"
            f"domain.right = {right}\ntime.t_end = 0.01\ntime.sample_every = 0.005\n")
    out = tmp_path / "out"
    rc = main(["simulate", _write(tmp_path, "short.cfg", text), "--out", str(out)])
    assert rc in (0, 2)
    if rc == 0:
        rows = _read(out / "timeseries.csv").splitlines()[1:]
        mass = [float(row.split(",")[1]) for row in rows]
        assert abs(mass[-1] - mass[0]) <= 1e-6 * mass[0]


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
    assert all(list(v) == VERDICT_KEYS for v in verdicts["verdicts"].values())


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
    # verdicts.json holds the same table: its rows carry the CSV's columns in
    # order, and each CSV row is its JSON row at 17 significant digits
    header = lines[0].split(",")
    rows = json.loads(_read(os.path.join(out, "verdicts.json")))["extras"]["distances"]
    assert [list(row) for row in rows] == [header] * 2
    assert lines[1:] == [",".join(format(row[c], ".17g") for c in header) for row in rows]


def test_failed_eps_study_leaves_no_table(tmp_path, capsys):
    out = str(tmp_path / "out")
    text = BASE.replace("time.t_end = 2.0", "time.t_end = 0.5")
    assert main(["simulate", _write(tmp_path, "sim.cfg", text), "--out", out]) == 0
    assert main(["experiment", _write(tmp_path, "eps.cfg", text), "--which", "eps",
                 "--out", out]) == 0
    # a finished study writes no snapshots and removes the earlier run's
    assert os.listdir(os.path.join(out, "snapshots")) == []
    stiff = _write(tmp_path, "stiff.cfg", STIFF)
    assert main(["experiment", stiff, "--which", "eps", "--out", out]) == 2
    run = json.loads(_read(os.path.join(out, "summary.json")))["run"]
    assert list(run)[:3] == ["status", "failure", "experiment"]
    assert run["experiment"] == "eps"
    # the earlier run's table and verdicts do not outlive the failed run
    assert not os.path.exists(os.path.join(out, "verdicts.json"))
    assert not os.path.exists(os.path.join(out, "eps_distances.csv"))
    # the failed run keeps one snapshot per timeseries row, up to the failure
    rows = _read(os.path.join(out, "timeseries.csv")).splitlines()[1:]
    assert len(rows) >= 1
    assert sorted(os.listdir(os.path.join(out, "snapshots"))) == [
        f"state_{i:05d}.csv" for i in range(len(rows))]


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
    cfg = _write(tmp_path, "c.cfg", BASE + text + f"out.dir = {tmp_path / 'out' / 'run'}\n")
    assert main(["experiment", cfg, "--which", which]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # every directory the call made is gone
    (tmp_path / "out" / "run").mkdir(parents=True)
    assert main(["experiment", cfg, "--which", which]) == 1
    assert (tmp_path / "out" / "run").is_dir()  # a directory that existed is kept


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


def test_eps_list_without_eps_study_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "co.cfg", BASE + f"out.dir = {tmp_path / 'out'}\n")
    # a list the eps study would reject too: the experiment is the problem
    for which, eps_list in (("coexistence", "1e-2,1e-3,1e-4"), ("absorbing", "1,2,3")):
        assert main(["experiment", cfg, "--which", which, "--eps-list", eps_list]) == 1
        err = capsys.readouterr().err
        assert f"pesim: --eps-list: experiment {which!r} has no eps sweep" in err
    assert not (tmp_path / "out").exists()


def test_experiment_unknown_name(tmp_path):
    cfg = _write(tmp_path, "c.cfg", BASE)
    assert main(["experiment", cfg, "--which", "bogus"]) == 1


def test_cmd_experiment_unknown_study_exit_1(tmp_path, capsys):
    # argparse's choices stop a bad --which first; cmd_experiment checks on its own
    cfg = _write(tmp_path, "c.cfg", BASE)
    assert cli.cmd_experiment(cfg, "bogus", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("pesim: unknown experiment 'bogus' (choose from ")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all(tmp_path):
    out = str(tmp_path / "reports")
    assert main(["verify", "--out", out, "--suite", "all"]) == 0
    reports = [f for f in os.listdir(out) if f.endswith(".json")]
    assert len(reports) >= 5
    for name in reports:
        assert list(json.loads(_read(os.path.join(out, name)))) == REPORT_KEYS
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
                        lambda f, g, beta: seen.add(beta) or real(f, g, beta))
    out = str(tmp_path / "reports")
    assert main(["verify", "--out", out, "--suite", "bernis", "--beta", "2.0"]) == 0
    assert seen == {2.0}
    assert os.listdir(out) == ["bernis.json"]
    rep = json.loads(_read(os.path.join(out, "bernis.json")))
    assert rep["samples"] == 200  # one ratio per random field
    assert rep["worst_case_payload"]["beta"] == 2.0


def test_verify_beta_keeps_the_suite_order(tmp_path, capsys, monkeypatch):
    # the swept bernis report leads, as the default bernis report does
    def fake(name):
        return lambda **kw: inequalities.CheckReport(name, 1, 0.5, True, 0.0)

    for builder in ("bernis", "interp_lower", "interp_log", "mollifier", "hflux",
                    "elementary", "ode_comparison"):
        monkeypatch.setattr(inequalities, builder + "_report", fake(builder))
    printed = []
    for beta in ([], ["--beta", "2.5"]):
        assert main(["verify", "--out", str(tmp_path / "reports"), "--suite", "all", *beta]) == 0
        printed.append([line.split()[1] for line in capsys.readouterr().out.splitlines()])
    assert printed[0] == printed[1]
    assert printed[0][0] == "bernis:" and len(printed[0]) == 7


@pytest.mark.parametrize("args", [
    ["--suite", "bernis", "--beta", "nan"],
    ["--suite", "all", "--beta", "inf"],
    ["--suite", "ode", "--beta", "2"],  # a suite without the bernis sweep
    ["--suite", "mollifier", "--beta", "2"],
    ["--suite", "bernis", "--beta", "1e5"],  # the integrals overflow: every ratio NaN
    ["--suite", "all", "--beta", "1e308"],  # (beta - 1)**2 overflows a float
], ids=["nan", "inf", "ode-suite", "mollifier-suite", "1e5", "1e308"])
def test_verify_bad_beta_exit_1(tmp_path, capsys, args):
    out = tmp_path / "reports"
    assert main(["verify", "--out", str(out), *args]) == 1
    assert "pesim: --beta: " in capsys.readouterr().err
    assert not out.exists()


def test_verify_suite_choices_are_the_suites(capsys):
    assert main(["verify", "--help"]) == 0
    choices = re.search(r"--suite \{([^}]*)\}", capsys.readouterr().out)[1]
    assert set(choices.split(",")) == {"all"} | set(inequalities._SUITES)


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


def _plotted_profile(out):
    assert main(["plot", out]) == 0
    lines = _read(os.path.join(out, "plot.gp")).splitlines()
    return next(line.split("'")[1] for line in lines if "snapshots/" in line)


def test_rerun_with_fewer_samples_removes_old_snapshots(tmp_path):
    out = str(tmp_path / "out")
    for t_end in ("3", "1"):
        text = BASE.replace("time.t_end = 2.0", f"time.t_end = {t_end}")
        assert main(["simulate", _write(tmp_path, "run.cfg", text), "--out", out]) == 0
    samples = json.loads(_read(os.path.join(out, "summary.json")))["run"]["sample_times"]
    assert samples[-1] == 1.0
    snaps = sorted(os.listdir(os.path.join(out, "snapshots")))
    assert snaps == [f"state_{i:05d}.csv" for i in range(len(samples))]
    assert _plotted_profile(out) == f"snapshots/{snaps[-1]}"


def test_plot_takes_the_highest_numbered_snapshot(tmp_path):
    # past state_99999 the names no longer sort as text; a stray csv is no snapshot
    out = tmp_path / "out"
    (out / "snapshots").mkdir(parents=True)
    for name in ("state_99999.csv", "state_100000.csv", "zzz.csv"):
        (out / "snapshots" / name).write_text("x,u,v\n0.5,1,1\n")
    assert _plotted_profile(str(out)) == "snapshots/state_100000.csv"


def test_rerun_removes_other_commands_outputs(tmp_path):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "run.cfg", BASE.replace("time.t_end = 2.0", "time.t_end = 0.5"))
    assert main(["simulate", cfg, "--out", out]) == 0
    # the eps study writes no snapshots: none of the simulate run's remain
    assert main(["experiment", cfg, "--which", "eps", "--out", out]) == 0
    assert os.listdir(os.path.join(out, "snapshots")) == []
    assert main(["simulate", cfg, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "verdicts.json"))
    assert not os.path.exists(os.path.join(out, "eps_distances.csv"))
    _plotted_profile(out)
    assert "eps_distances.csv" not in _read(os.path.join(out, "plot.gp"))


def test_plot_unwritable_script_exit_1(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["simulate", _write(tmp_path, "run.cfg", BASE), "--out", out]) == 0
    os.mkdir(os.path.join(out, "plot.gp"))
    assert main(["plot", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pesim: ") and "plot.gp" in err
    assert "Traceback" not in err


def test_plot_empty_dir_exit_1(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["plot", str(empty)]) == 1


def test_plot_not_a_directory_exit_1(tmp_path, capsys):
    path = _write(tmp_path, "timeseries.csv", TIMESERIES_HEADER + "\n")
    for target in (path, str(tmp_path / "missing")):
        assert main(["plot", target]) == 1
        assert capsys.readouterr().err == f"pesim: not a directory: {target}\n"


@pytest.mark.parametrize("text", [
    '{"run": ',  # truncated
    "[1]",
    '{"run": [1]}',
    '{"run": {"u_star": "1.5"}}',
    '{"run": {"u_star": true}}',
], ids=["truncated", "top-level-list", "run-list", "u_star-string", "u_star-bool"])
def test_plot_bad_summary_exit_1(tmp_path, capsys, text):
    out = tmp_path / "out"
    out.mkdir()
    (out / "timeseries.csv").write_text(TIMESERIES_HEADER + "\n")
    (out / "summary.json").write_text(text)
    assert main(["plot", str(out)]) == 1
    assert "summary.json" in capsys.readouterr().err
    assert not (out / "plot.gp").exists()


def test_plot_eps_table(tmp_path):
    out = str(tmp_path / "out")
    text = BASE.replace("time.t_end = 2.0", "time.t_end = 0.5") + f"out.dir = {out}\n"
    cfg = _write(tmp_path, "eps.cfg", text)
    assert main(["experiment", cfg, "--which", "eps"]) == 0
    assert main(["plot", out]) == 0
    script = _read(os.path.join(out, "plot.gp"))
    assert "eps_distances.csv" in script
