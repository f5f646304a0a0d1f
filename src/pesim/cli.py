"""Command-line front end: simulate, experiment, verify, plot.

Exit codes: 0 success, 1 configuration or usage error, 2 solver failure,
3 verdict or inequality-check failure.  Numbers written to CSV carry 17
significant digits so they round-trip 64-bit floats exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import RunConfig
    from .functionals import DiagnosticsRecord
    from .stepper import StepperFailure

# The simulation modules are imported by the functions that use them, so that
# `pesim verify`, which takes no step, does not load them (about 0.6 MB of
# peak RSS).  A function imported there is looked
# up at each call, never kept, so that a wrapper that rebinds it in its
# module is the one called.

__all__ = ["main", "cmd_simulate", "cmd_experiment", "cmd_verify", "cmd_plot"]

# each study's function in experiments, by its --which name
_EXPERIMENTS = {
    "coexistence": "run_coexistence_study",
    "extinction": "run_extinction_study",
    "eps": "run_eps_convergence",
    "absorbing": "run_absorbing_set",
    "ode": "run_ode_consistency",
}

# the name that stepper._lapack_routine gives its ImportError, the symbol it
# found missing from numpy's LAPACK: an environment fault, reported without
# a traceback
_LAPACK_SYMBOL = re.compile(r"scipy_\w+_64_")

_SNAPSHOT_COLUMNS = ("x", "u", "v")  # each snapshot file
_SNAPSHOT_BLOCK = 1024  # rows per row template and per write in write_snapshots


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _json_fields(record) -> dict:
    """A Verdict's or CheckReport's fields in order, with passed written as "pass"."""
    return {"pass" if k == "passed" else k: x for k, x in asdict(record).items()}


def _fail(message: str, code: int) -> int:
    print(f"pesim: {message}", file=sys.stderr)
    return code


def _cannot_write(key, exc: OSError, path) -> int:
    """Exit 1 naming key and the path exc names (else path, the file or
    directory being written) for an output that could not be written."""
    return _fail(f"{key}: cannot write {exc.filename or path!r}: {exc.strerror or exc}", 1)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def write_timeseries(path, records: list[DiagnosticsRecord]):
    from .functionals import DiagnosticsRecord

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(DiagnosticsRecord.CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, c)) for c in DiagnosticsRecord.CSV_COLUMNS) + "\n")


def write_snapshots(out_dir, index, state, rows):
    """Write state to snapshots/state_{index:05d}.csv in out_dir, whose
    snapshots directory must exist, as x,u,v rows in %.17g, the text _fmt
    gives.  rows holds (j, template) for each block of _SNAPSHOT_BLOCK rows
    from row j, the template holding each row's x and a %.17g field for its
    u and v; _SnapshotWriter builds them once per run, so that a state costs
    one % and one write per block.  Blocks are streamed, never joined into a
    whole file: a joined file's text raised peak RSS by about 1.5 MB at 8192
    rows."""
    k = _SNAPSHOT_BLOCK
    path = os.path.join(out_dir, "snapshots", f"state_{index:05d}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_SNAPSHOT_COLUMNS) + "\n")
        for j, tpl in rows:
            fh.write(tpl % tuple(state.w[:, j:j + k].T.ravel().tolist()))


class _SnapshotWriter:
    """The on_sample of one CLI run: writes each sample's snapshot as the run
    takes it, so that no sampled state outlives its sample.  At its first
    sample it removes what an earlier run left in out_dir, which would
    otherwise mix with this run's output, creates the snapshots directory
    and builds the row templates of the run's grid; rows stays None while
    the writer has written nothing."""

    def __init__(self, out_dir):
        self.out_dir, self.rows = out_dir, None

    def __call__(self, index, state):
        if self.rows is None:
            _remove_stale(self.out_dir)
            os.makedirs(os.path.join(self.out_dir, "snapshots"), exist_ok=True)
            k, centers = _SNAPSHOT_BLOCK, state.grid.centers
            # %.17g text holds no %, so each template keeps only the u and v fields
            self.rows = [(j, "".join("%.17g,%%.17g,%%.17g\n" % x
                                     for x in centers[j:j + k].tolist()))
                         for j in range(0, len(centers), k)]
        write_snapshots(self.out_dir, index, state, self.rows)


def write_summary(out_dir, cfg: RunConfig, run_info: dict):
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": cfg.values, "run": run_info}, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _make_dir(path, key) -> str | None:
    """Create directory path and its missing parents; returns the topmost
    directory created, None if path existed.  A ConfigError naming key if
    it cannot be created."""
    created, parent = None, os.path.abspath(path)
    while not os.path.exists(parent):
        created, parent = parent, os.path.dirname(parent)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        from .config import ConfigError

        raise ConfigError(key, f"cannot create {path!r}: {exc.strerror or exc}") from None
    return created


_SNAPSHOT = re.compile(r"state_(\d{5,})\.csv")  # write_snapshots' file names
# the files _write_run may leave in out.dir, besides the snapshots
_RUN_FILES = ("timeseries.csv", "summary.json", "verdicts.json", "eps_distances.csv")


def _remove_stale(out_dir):
    """Remove what an earlier run left in out_dir: every file of _RUN_FILES
    (a run writes only some of them) and every snapshot."""
    stale = [os.path.join(out_dir, name) for name in _RUN_FILES]
    snap_dir = os.path.join(out_dir, "snapshots")
    if os.path.isdir(snap_dir):
        stale += [os.path.join(snap_dir, name) for name in os.listdir(snap_dir)
                  if _SNAPSHOT.fullmatch(name)]
    for path in stale:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _check_outputs(out_dir, key):
    """A ConfigError naming key for a path in out_dir whose kind _write_run
    or _remove_stale would fail on: a snapshots that is not a directory, or
    a directory in the place of a run file.  Found before the run, so that
    no run is thrown away for it; permission and disk errors still surface
    from the writers."""
    from .config import ConfigError

    snap_dir = os.path.join(out_dir, "snapshots")
    if os.path.exists(snap_dir) and not os.path.isdir(snap_dir):
        raise ConfigError(key, f"cannot write {snap_dir!r}: Not a directory")
    for name in _RUN_FILES:
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            raise ConfigError(key, f"cannot write {path!r}: Is a directory")


def cmd_simulate(config_path, out_override=None) -> int:
    return _run_command(config_path, out_override)


def cmd_experiment(config_path, which, out_override=None, eps_list=None) -> int:
    if which not in _EXPERIMENTS:
        return _fail(f"unknown experiment {which!r} "
                     f"(choose from {', '.join(sorted(_EXPERIMENTS))})", 1)
    if eps_list is not None and which != "eps":
        return _fail(f"--eps-list: experiment {which!r} has no eps sweep", 1)
    # an empty list, like None, runs the study's default sweep
    return _run_command(config_path, out_override, which, (eps_list,) if eps_list else ())


def _run_command(config_path, out_override, which=None, study_args=()) -> int:
    """Run simulate (which None) or the experiment which from the config at
    config_path, its snapshots written as the run goes, then _write_run;
    returns the exit code.  Every message about the output directory names
    the key that set it: --out when out_override is not None, else out.dir.
    A config error, a study's ValueError (raised before the first sample;
    the directories made for the run are removed) and an output that cannot
    be written exit 1; a StepperFailure keeps what the run wrote."""
    from . import experiments
    from .config import ConfigError, parse_config
    from .stepper import StepperFailure

    key = "out.dir" if out_override is None else "--out"
    try:
        cfg = parse_config(config_path, None if out_override is None else {"out.dir": out_override})
        created = _make_dir(cfg.out_dir, key)
        _check_outputs(cfg.out_dir, key)
    except UnicodeDecodeError as exc:
        return _fail(f"cannot read {config_path!r}: not UTF-8 text "
                     f"({exc.reason} at byte {exc.start})", 1)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc), 1)

    writer = _SnapshotWriter(cfg.out_dir)
    result = failure = None
    try:
        try:
            if which is None:
                records = experiments._run(cfg.spec, writer)[1]
            else:
                study = getattr(experiments, _EXPERIMENTS[which])
                result = study(cfg.spec, *study_args, on_sample=writer)
                records = result.records
        except ValueError as exc:  # RegimeMismatch included
            if created:
                shutil.rmtree(created)
            return _fail(str(exc), 1)
        except StepperFailure as exc:
            records, failure = exc.records, exc
        return _write_run(cfg, records, writer, failure, which, result)
    except OSError as exc:
        return _cannot_write(key, exc, cfg.out_dir)


def _write_run(cfg: RunConfig, records: list[DiagnosticsRecord], writer: _SnapshotWriter,
               failure: StepperFailure | None, experiment, result) -> int:
    """Write timeseries.csv and summary.json of one run, complete or cut
    short by failure, and the verdicts.json and eps_distances.csv (eps study
    only) of a finished experiment's result.  The run's writer has written
    its snapshots, one per record, after removing what an earlier run left;
    a run whose writer wrote nothing (a finished eps study) removes the
    earlier run's files here.  Returns the exit code: 2 after a failure, 3
    when a verdict failed and 0 otherwise; an OSError when an output cannot
    be written."""
    from .experiments import EPS_COLUMNS
    from .functionals import steady_states

    run_info = {"status": "ok" if failure is None else "solver_failure",
                "failure": None if failure is None else str(failure)}
    if experiment is not None:
        run_info["experiment"] = experiment
    ss = steady_states(cfg.spec.kp)
    run_info.update(final_time=records[-1].t if records else None,
                    sample_times=[r.t for r in records], u_star=ss.u_star,
                    v_star=ss.v_star, regime=ss.regime.value)
    if writer.rows is None:
        _remove_stale(cfg.out_dir)
    write_timeseries(os.path.join(cfg.out_dir, "timeseries.csv"), records)
    write_summary(cfg.out_dir, cfg, run_info)
    if result is not None and "distances" in result.extras:
        with open(os.path.join(cfg.out_dir, "eps_distances.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(EPS_COLUMNS) + "\n")
            for row in result.extras["distances"]:
                fh.write(",".join(_fmt(row[c]) for c in EPS_COLUMNS) + "\n")
    if result is not None:
        verdicts = {name: _json_fields(v) for name, v in result.verdicts.items()}
        with open(os.path.join(cfg.out_dir, "verdicts.json"), "w", encoding="utf-8") as fh:
            json.dump({"experiment": experiment, "verdicts": verdicts,
                       "extras": result.extras}, fh, indent=2)
            fh.write("\n")
    if failure is not None:
        return _fail(f"solver failure: {failure}", 2)
    if result is not None and not all(v.passed for v in result.verdicts.values()):
        return _fail("one or more verdicts failed (see verdicts.json)", 3)
    return 0


def cmd_verify(out_dir, suite="all", bernis_beta=None) -> int:
    # imported here so that simulate and experiment runs, which never check
    # an inequality, do not load the module (+0.4 MB peak RSS when they did)
    from .inequalities import all_reports, bernis_report

    swept = []
    if bernis_beta is not None:
        if suite not in ("all", "bernis"):
            return _fail(f"--beta: suite {suite!r} has no bernis exponent sweep", 1)
        try:  # before the out dir exists: a beta it cannot evaluate leaves none
            swept = [bernis_report(betas=(bernis_beta,))]
        except ValueError as exc:
            return _fail(f"--beta: {exc}", 1)
    try:
        _make_dir(out_dir, "--out")
        # bernis is the first suite, so its swept report leads
        reports = swept + all_reports(suite, skip=() if bernis_beta is None else ("bernis",))
    except ValueError as exc:  # ConfigError included
        return _fail(str(exc), 1)
    ok = True
    for rep in reports:
        path = os.path.join(out_dir, f"{rep.name}.json")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(_json_fields(rep), indent=2) + "\n")
        except OSError as exc:
            return _cannot_write("--out", exc, path)
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.name}: "
              f"worst_ratio={rep.worst_ratio:.6g} tol={rep.tolerance:g} "
              f"({rep.samples} samples)")
        ok = ok and rep.passed
    return 0 if ok else 3


def _summary_u_star(path):
    """run.u_star of the summary.json at path, None when absent; a ValueError
    when the file is not such a summary."""
    with open(path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)  # a ValueError if not valid JSON
    run = summary.get("run", {}) if isinstance(summary, dict) else None
    if not isinstance(run, dict):
        raise ValueError("expected an object whose 'run' is an object")
    u_star = run.get("u_star")
    if u_star is not None and (isinstance(u_star, bool) or not isinstance(u_star, (int, float))):
        raise ValueError(f"run.u_star must be a number or null, got {u_star!r}")
    return u_star


def _numbered(columns) -> dict:
    """gnuplot's number of each of a CSV file's columns, by name."""
    return {name: i for i, name in enumerate(columns, start=1)}


def cmd_plot(out_dir) -> int:
    if not os.path.isdir(out_dir):
        return _fail(f"not a directory: {out_dir}", 1)
    sections = []

    def section(name, *lines):
        sections.append("\n".join([f"set output '{name}.png'", *lines]))

    def plot(csv, col, x, style, *curves):
        """gnuplot's plot of csv's (column, title) curves against column x."""
        return "plot " + ", \\\n     ".join(
            f"'{csv}' using {col[x]}:{col[y]} with {style} title '{title}'" for y, title in curves)

    if os.path.isfile(os.path.join(out_dir, "timeseries.csv")):
        from .functionals import DiagnosticsRecord

        ts = _numbered(DiagnosticsRecord.CSV_COLUMNS)
        section("mass", "set title 'total masses'", "set xlabel 't'",
                plot("timeseries.csv", ts, "t", "lines", ("mass_u", "mass_u"), ("mass_v", "mass_v")))
        section("entropies", "set title 'relative entropies'", "set logscale y",
                plot("timeseries.csv", ts, "t", "lines", ("E1", "E1"), ("E2", "E2")),
                "unset logscale y")
        u_star = None
        summary = os.path.join(out_dir, "summary.json")
        if os.path.isfile(summary):
            try:
                u_star = _summary_u_star(summary)
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
                return _fail(f"{summary}: {exc}", 1)
        if u_star is not None:
            section("deviation",
                    "mx(a,b) = (a > b) ? a : b",
                    f"us = {_fmt(u_star)}",
                    "set title 'sup deviation of u from the steady state'",
                    "set logscale y",
                    f"plot 'timeseries.csv' using {ts['t']}:"
                    f"(mx(abs(${ts['max_u']} - us), abs(${ts['min_u']} - us))) "
                    "with lines title '|u - u*|_inf'",
                    "unset logscale y")
    snap_dir = os.path.join(out_dir, "snapshots")
    if os.path.isdir(snap_dir):
        snaps = {int(m[1]): name for name in os.listdir(snap_dir)
                 if (m := _SNAPSHOT.fullmatch(name))}
        if snaps:  # by number: names past state_99999 sort before it as text
            section("profiles", "set title 'final profiles'", "set xlabel 'x'",
                    plot(f"snapshots/{snaps[max(snaps)]}", _numbered(_SNAPSHOT_COLUMNS), "x",
                         "lines", ("u", "u"), ("v", "v")))
    if os.path.isfile(os.path.join(out_dir, "eps_distances.csv")):
        from .experiments import EPS_COLUMNS

        section("eps_distances", "set title 'consecutive-eps L2 distances of final profiles'",
                "set logscale xy",
                plot("eps_distances.csv", _numbered(EPS_COLUMNS), "eps_hi", "linespoints",
                     ("dist_u", "u"), ("dist_v", "v")),
                "unset logscale xy")
    if not sections:
        return _fail(f"no plottable outputs in {out_dir}", 1)
    header = "\n".join([
        "# gnuplot script generated by pesim; run from inside the output directory",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set terminal pngcairo size 900,600",
    ])
    try:
        with open(os.path.join(out_dir, "plot.gp"), "w", encoding="utf-8") as fh:
            fh.write(header + "\n\n" + "\n\n".join(sections) + "\n")
    except OSError as exc:
        return _cannot_write("out_dir", exc, out_dir)
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

    if args.command == "verify":
        return cmd_verify(args.out, args.suite, args.beta)
    if args.command == "plot":
        return cmd_plot(args.out_dir)
    try:  # simulate and experiment import the stepper, which looks up LAPACK
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        eps_list = args.eps_list  # cmd_experiment rejects any list for another experiment
        if eps_list is not None and args.which == "eps":
            from .experiments import check_eps_list

            try:
                eps_list = check_eps_list(float(tok) for tok in eps_list.split(","))
            except ValueError as exc:
                return _fail(f"--eps-list: {exc} ({args.eps_list!r})", 1)
        return cmd_experiment(args.config, args.which, args.out, eps_list)
    except ImportError as exc:
        if not _LAPACK_SYMBOL.fullmatch(exc.name or ""):
            raise
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
