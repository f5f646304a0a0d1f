"""Smoke test of the benchmark's in-process hooks (perfbench/child.py).

The benchmark wraps named functions of every pesim layer; renaming or
deleting one of them breaks the benchmark, so both child modes are run here
on a tiny config.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIG = """
grid.n = 16
model.lambda1 = 1.0
model.lambda2 = 2.0
ic.kind = random-trig
ic.mode = 3
time.t_end = 0.01
time.sample_every = 0.005
"""


def _child(*args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "perfbench.child", *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


def test_benchmark_child_setup_and_trace(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)

    # simulate reaches run_until, an experiment its study, through the CLI's runner
    for args in (["simulate", str(cfg)], ["experiment", str(cfg), "--which", "coexistence"]):
        res = _child("setup", "--", *args, "--out", str(tmp_path / args[0]))
        assert res.returncode == 0, res.stderr
        float(res.stdout.strip())  # the moment the workload was reached

    implicit = tmp_path / "implicit.cfg"
    implicit.write_text(CONFIG + "stepper.scheme = fully_implicit\n")
    spans_path = tmp_path / "spans.json"
    for args, expected in (
        (["experiment", str(cfg), "--which", "eps", "--out", str(tmp_path / "eps")],
         {"run_eps_convergence", "run_until", "step", "diagnostics_record"}),
        # IMEX never calls compute_rhs: only the Newton residual reaches the model layer
        (["simulate", str(implicit), "--out", str(tmp_path / "implicit")],
         {"compute_rhs", "step"}),
    ):
        res = _child("trace", str(spans_path), "--", *args)
        assert res.returncode == 0, res.stderr
        names = {sp[3] for sp in json.loads(spans_path.read_text())}  # Span.to_list rows
        assert expected <= names


def test_traced_verify_sees_report_builders(tmp_path):
    # all_reports must reach the builders through the module attributes the
    # tracer rebinds; otherwise inequalities.*_s silently reads 0
    spans_path = tmp_path / "spans.json"
    res = _child("trace", str(spans_path), "--", "verify", "--out", str(tmp_path / "reports"),
                 "--suite", "hflux")
    assert res.returncode == 0, res.stderr
    names = {sp[3] for sp in json.loads(spans_path.read_text())}
    assert {"hflux_report", "elementary_report", "all_reports"} <= names
