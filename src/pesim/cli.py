"""Command-line front end: simulate, experiment, verify, plot.

Exit codes: 0 success, 1 configuration or usage error, 2 solver failure,
3 verdict or inequality-check failure.  Numbers written to CSV carry 17
significant digits so they round-trip 64-bit floats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, RunConfig, parse_config
from .experiments import (
    ExperimentResult,
    RegimeMismatch,
    run_absorbing_set,
    run_coexistence_study,
    run_eps_convergence,
    run_extinction_study,
    run_ode_consistency,
)
from .functionals import DiagnosticsRecord, diagnostics_record, steady_states
from .inequalities import all_reports, bernis_report
from .stepper import StepperFailure, run_until

__all__ = ["main", "cmd_simulate", "cmd_experiment", "cmd_verify", "cmd_plot"]

_EXPERIMENTS = {
    "coexistence": run_coexistence_study,
    "extinction": run_extinction_study,
    "eps": run_eps_convergence,
    "absorbing": run_absorbing_set,
    "ode": run_ode_consistency,
}

_DEFAULT_EPS_LIST = (1e-2, 2.5e-3, 6.25e-4)


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _fail(message: str, code: int) -> int:
    print(f"pesim: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def write_timeseries(path, records: list[DiagnosticsRecord]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(DiagnosticsRecord.CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, c)) for c in DiagnosticsRecord.CSV_COLUMNS) + "\n")


def write_snapshots(out_dir, states):
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    for i, s in enumerate(states):
        x = s.grid.centers
        with open(os.path.join(snap_dir, f"state_{i:05d}.csv"), "w", encoding="utf-8") as fh:
            fh.write("x,u,v\n")
            for xv, uv, vv in zip(x, s.u.values, s.v.values):
                fh.write(f"{_fmt(xv)},{_fmt(uv)},{_fmt(vv)}\n")


def write_summary(out_dir, cfg: RunConfig, run_info: dict):
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": cfg.values, "run": run_info}, fh, indent=2)
        fh.write("\n")


def _verdicts_payload(result: ExperimentResult) -> dict:
    return {
        name: {"pass": v.passed, "value": v.value, "threshold": v.threshold}
        for name, v in result.verdicts.items()
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(config_path, out_override=None) -> int:
    try:
        cfg = parse_config(config_path,
                           {"out.dir": out_override} if out_override else None)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc), 1)

    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    spec = cfg.experiment_spec("simulate")
    records: list[DiagnosticsRecord] = []
    states = []

    def on_sample(s):
        states.append(s)
        records.append(diagnostics_record(s, spec.kp, spec.rp, spec.gamma))

    status, failure = "ok", None
    try:
        state0 = spec.ic.build(spec.grid)
    except ValueError as exc:
        return _fail(f"initial condition: {exc}", 1)
    try:
        final, _ = run_until(state0, spec.t_end, spec.kp, spec.rp, spec.kind,
                             cfg.stepper, spec.sample_every, on_sample=on_sample)
    except StepperFailure as exc:
        status, failure = "solver_failure", str(exc)

    write_timeseries(os.path.join(out_dir, "timeseries.csv"), records)
    write_snapshots(out_dir, states)
    ss = steady_states(spec.kp)
    write_summary(out_dir, cfg, {
        "status": status,
        "failure": failure,
        "final_time": records[-1].t if records else None,
        "sample_times": [r.t for r in records],
        "u_star": ss.u_star,
        "v_star": ss.v_star,
        "regime": ss.regime.value,
    })
    if status != "ok":
        return _fail(f"solver failure: {failure}", 2)
    return 0


def cmd_experiment(config_path, which, out_override=None, eps_list=None) -> int:
    if which not in _EXPERIMENTS:
        return _fail(f"unknown experiment {which!r} "
                     f"(choose from {', '.join(sorted(_EXPERIMENTS))})", 1)
    try:
        cfg = parse_config(config_path,
                           {"out.dir": out_override} if out_override else None)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc), 1)

    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    spec = cfg.experiment_spec(which)
    try:
        if which == "eps":
            result = run_eps_convergence(spec, eps_list or _DEFAULT_EPS_LIST,
                                         cfg.stepper)
        else:
            result = _EXPERIMENTS[which](spec, cfg.stepper)
    except (RegimeMismatch, ValueError) as exc:
        return _fail(str(exc), 1)
    except StepperFailure as exc:
        return _fail(f"solver failure: {exc}", 2)

    write_timeseries(os.path.join(out_dir, "timeseries.csv"), result.records)
    if result.states:
        write_snapshots(out_dir, result.states)
    if "distances" in result.extras:
        with open(os.path.join(out_dir, "eps_distances.csv"), "w", encoding="utf-8") as fh:
            fh.write("eps_hi,eps_lo,dist_u,dist_v\n")
            for row in result.extras["distances"]:
                fh.write(",".join(_fmt(row[c]) for c in
                                  ("eps_hi", "eps_lo", "dist_u", "dist_v")) + "\n")
    verdicts = _verdicts_payload(result)
    with open(os.path.join(out_dir, "verdicts.json"), "w", encoding="utf-8") as fh:
        extras = {k: v for k, v in result.extras.items() if _jsonable(v)}
        json.dump({"experiment": which, "verdicts": verdicts, "extras": extras},
                  fh, indent=2)
        fh.write("\n")
    ss = steady_states(spec.kp)
    write_summary(out_dir, cfg, {
        "status": "ok", "failure": None, "experiment": which,
        "final_time": result.records[-1].t if result.records else None,
        "sample_times": [r.t for r in result.records],
        "u_star": ss.u_star, "v_star": ss.v_star, "regime": ss.regime.value,
    })
    if not all(v["pass"] for v in verdicts.values()):
        return _fail("one or more verdicts failed (see verdicts.json)", 3)
    return 0


def _jsonable(v) -> bool:
    try:
        json.dumps(v)
        return True
    except TypeError:
        return False


def cmd_verify(out_dir, suite="all", bernis_beta=None) -> int:
    if bernis_beta is not None and bernis_beta == 1.0:
        return _fail("bernis: beta must differ from 1", 1)
    os.makedirs(out_dir, exist_ok=True)
    try:
        reports = all_reports(suite, skip=() if bernis_beta is None else ("bernis",))
    except ValueError as exc:
        return _fail(str(exc), 1)
    if bernis_beta is not None:
        reports.append(bernis_report(betas=(bernis_beta,)))
    ok = True
    for rep in reports:
        with open(os.path.join(out_dir, f"{rep.name}.json"), "w", encoding="utf-8") as fh:
            fh.write(rep.to_json() + "\n")
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.name}: "
              f"worst_ratio={rep.worst_ratio:.6g} tol={rep.tolerance:g} "
              f"({rep.samples} samples)")
        ok = ok and rep.passed
    return 0 if ok else 3


def cmd_plot(out_dir) -> int:
    ts = os.path.join(out_dir, "timeseries.csv")
    if not os.path.isdir(out_dir):
        return _fail(f"not a directory: {out_dir}", 1)
    sections = []
    have_any = False

    def png(name):
        return f"set output '{name}.png'"

    if os.path.isfile(ts):
        have_any = True
        sections.append("\n".join([
            png("mass"),
            "set title 'total masses'",
            "set xlabel 't'",
            f"plot 'timeseries.csv' using 1:2 with lines title 'mass_u', \\",
            "     'timeseries.csv' using 1:3 with lines title 'mass_v'",
        ]))
        sections.append("\n".join([
            png("entropies"),
            "set title 'relative entropies'",
            "set logscale y",
            f"plot 'timeseries.csv' using 1:6 with lines title 'E1', \\",
            "     'timeseries.csv' using 1:8 with lines title 'E2'",
            "unset logscale y",
        ]))
        u_star = None
        summary = os.path.join(out_dir, "summary.json")
        if os.path.isfile(summary):
            with open(summary, "r", encoding="utf-8") as fh:
                u_star = json.load(fh).get("run", {}).get("u_star")
        if u_star is not None:
            sections.append("\n".join([
                png("deviation"),
                "mx(a,b) = (a > b) ? a : b",
                f"us = {_fmt(u_star)}",
                "set title 'sup deviation of u from the steady state'",
                "set logscale y",
                "plot 'timeseries.csv' using 1:(mx(abs($13 - us), abs($11 - us))) "
                "with lines title '|u - u*|_inf'",
                "unset logscale y",
            ]))
    snap_dir = os.path.join(out_dir, "snapshots")
    if os.path.isdir(snap_dir):
        snaps = sorted(f for f in os.listdir(snap_dir) if f.endswith(".csv"))
        if snaps:
            have_any = True
            last = f"snapshots/{snaps[-1]}"
            sections.append("\n".join([
                png("profiles"),
                "set title 'final profiles'",
                "set xlabel 'x'",
                f"plot '{last}' using 1:2 with lines title 'u', \\",
                f"     '{last}' using 1:3 with lines title 'v'",
            ]))
    eps_csv = os.path.join(out_dir, "eps_distances.csv")
    if os.path.isfile(eps_csv):
        have_any = True
        sections.append("\n".join([
            png("eps_distances"),
            "set title 'consecutive-eps L2 distances of final profiles'",
            "set logscale xy",
            "plot 'eps_distances.csv' using 1:3 with linespoints title 'u', \\",
            "     'eps_distances.csv' using 1:4 with linespoints title 'v'",
            "unset logscale xy",
        ]))
    if not have_any:
        return _fail(f"no plottable outputs in {out_dir}", 1)
    header = "\n".join([
        "# gnuplot script generated by pesim; run from inside the output directory",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set terminal pngcairo size 900,600",
    ])
    with open(os.path.join(out_dir, "plot.gp"), "w", encoding="utf-8") as fh:
        fh.write(header + "\n\n" + "\n\n".join(sections) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pesim",
        description="cross-diffusive predator-prey simulator and test harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation from a config file")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None, help="override out.dir")

    p_exp = sub.add_parser("experiment", help="run a named study from a config file")
    p_exp.add_argument("config")
    p_exp.add_argument("--which", required=True,
                       choices=sorted(_EXPERIMENTS))
    p_exp.add_argument("--out", default=None, help="override out.dir")
    p_exp.add_argument("--eps-list", default=None,
                       help="comma-separated decreasing eps values for --which eps")

    p_ver = sub.add_parser("verify", help="run the inequality checker suites")
    p_ver.add_argument("--out", required=True, help="directory for report JSON files")
    p_ver.add_argument("--suite", default="all",
                       choices=["all", "bernis", "interp", "mollifier", "hflux", "ode"])
    p_ver.add_argument("--beta", type=float, default=None,
                       help="override the bernis exponent sweep with one value")

    p_plot = sub.add_parser("plot", help="emit a gnuplot script for an output directory")
    p_plot.add_argument("out_dir")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    if args.command == "simulate":
        return cmd_simulate(args.config, args.out)
    if args.command == "experiment":
        eps_list = None
        if args.eps_list:
            try:
                eps_list = [float(tok) for tok in args.eps_list.split(",")]
            except ValueError:
                return _fail(f"bad --eps-list: {args.eps_list!r}", 1)
        return cmd_experiment(args.config, args.which, args.out, eps_list)
    if args.command == "verify":
        return cmd_verify(args.out, args.suite, args.beta)
    return cmd_plot(args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
