"""Command-line front end: simulate, experiment, verify, plot.

Exit codes: 0 success, 1 configuration or usage error, 2 solver failure,
3 verdict or inequality-check failure.  Numbers written to CSV carry 17
significant digits so they round-trip 64-bit floats exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .config import ConfigError, RunConfig, parse_config
from .experiments import (
    _run,
    check_eps_list,
    run_absorbing_set,
    run_coexistence_study,
    run_eps_convergence,
    run_extinction_study,
    run_ode_consistency,
)
from .functionals import DiagnosticsRecord, steady_states
from .inequalities import all_reports, bernis_report
from .stepper import StepperFailure

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
        rows = zip(s.grid.centers, s.u.values, s.v.values)
        with open(os.path.join(snap_dir, f"state_{i:05d}.csv"), "w", encoding="utf-8") as fh:
            fh.write("x,u,v\n")
            fh.writelines("%.17g,%.17g,%.17g\n" % r for r in rows)


def write_summary(out_dir, cfg: RunConfig, run_info: dict):
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": cfg.values, "run": run_info}, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_config(config_path, out_override) -> RunConfig:
    """Parse the config file and create its output directory; raises
    ConfigError or OSError (the config file unreadable)."""
    cfg = parse_config(config_path, {"out.dir": out_override} if out_override else None)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out.dir", f"cannot create {cfg.out_dir!r}: {exc.strerror or exc}")
    return cfg


def cmd_simulate(config_path, out_override=None) -> int:
    try:
        cfg = _load_config(config_path, out_override)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc), 1)

    try:
        states, records = _run(cfg.experiment_spec("simulate"), cfg.stepper)
    except StepperFailure as exc:
        return _write_run(cfg, exc.samples, exc.records, exc)
    return _write_run(cfg, states, records)


def cmd_experiment(config_path, which, out_override=None, eps_list=None) -> int:
    if which not in _EXPERIMENTS:
        return _fail(f"unknown experiment {which!r} "
                     f"(choose from {', '.join(sorted(_EXPERIMENTS))})", 1)
    try:
        cfg = _load_config(config_path, out_override)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc), 1)

    out_dir = cfg.out_dir
    spec = cfg.experiment_spec(which)
    try:
        if which == "eps":
            result = run_eps_convergence(spec, eps_list or _DEFAULT_EPS_LIST,
                                         cfg.stepper)
        else:
            result = _EXPERIMENTS[which](spec, cfg.stepper)
    except ValueError as exc:  # RegimeMismatch included
        return _fail(str(exc), 1)
    except StepperFailure as exc:
        return _write_run(cfg, exc.samples, exc.records, exc, which)

    if "distances" in result.extras:
        with open(os.path.join(out_dir, "eps_distances.csv"), "w", encoding="utf-8") as fh:
            fh.write("eps_hi,eps_lo,dist_u,dist_v\n")
            for row in result.extras["distances"]:
                fh.write(",".join(_fmt(row[c]) for c in
                                  ("eps_hi", "eps_lo", "dist_u", "dist_v")) + "\n")
    verdicts = {name: {"pass": v.passed, "value": v.value, "threshold": v.threshold}
                for name, v in result.verdicts.items()}
    with open(os.path.join(out_dir, "verdicts.json"), "w", encoding="utf-8") as fh:
        json.dump({"experiment": which, "verdicts": verdicts, "extras": result.extras},
                  fh, indent=2)
        fh.write("\n")
    _write_run(cfg, result.states, result.records, experiment=which)
    if not all(v["pass"] for v in verdicts.values()):
        return _fail("one or more verdicts failed (see verdicts.json)", 3)
    return 0


def _write_run(cfg: RunConfig, states, records: list[DiagnosticsRecord],
               failure: StepperFailure | None = None, experiment=None) -> int:
    """Write timeseries.csv, the snapshots (if any states) and summary.json of
    one run, complete or cut short by failure; returns the exit code, 2 after
    a failure and 0 otherwise."""
    write_timeseries(os.path.join(cfg.out_dir, "timeseries.csv"), records)
    if states:
        write_snapshots(cfg.out_dir, states)
    run_info = {"status": "ok" if failure is None else "solver_failure",
                "failure": None if failure is None else str(failure)}
    if experiment is not None:
        run_info["experiment"] = experiment
    ss = steady_states(cfg.spec.kp)
    write_summary(cfg.out_dir, cfg, {
        **run_info,
        "final_time": records[-1].t if records else None,
        "sample_times": [r.t for r in records],
        "u_star": ss.u_star,
        "v_star": ss.v_star,
        "regime": ss.regime.value,
    })
    if failure is not None:
        return _fail(f"solver failure: {failure}", 2)
    return 0


def cmd_verify(out_dir, suite="all", bernis_beta=None) -> int:
    if bernis_beta is not None:
        if suite not in ("all", "bernis"):
            return _fail(f"--beta: suite {suite!r} has no bernis exponent sweep", 1)
        if not math.isfinite(bernis_beta) or bernis_beta == 1.0:
            return _fail(f"--beta: must be finite and differ from 1, got {bernis_beta!r}", 1)
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
                eps_list = check_eps_list(float(tok) for tok in args.eps_list.split(","))
            except ValueError as exc:
                return _fail(f"--eps-list: {exc} ({args.eps_list!r})", 1)
        return cmd_experiment(args.config, args.which, args.out, eps_list)
    if args.command == "verify":
        return cmd_verify(args.out, args.suite, args.beta)
    return cmd_plot(args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
