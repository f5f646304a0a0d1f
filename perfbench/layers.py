"""Which `pesim` functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

The layers are the package's modules.  `grid` is only called from inside the
other modules, so its cost lands in their self time.
"""

from __future__ import annotations

from .spans import Span, busy, median, percentile, self_times

_REPORT_SUITES = {
    "bernis_report": "bernis",
    "interp_lower_report": "interp",
    "interp_log_report": "interp",
    "mollifier_report": "mollifier",
    "hflux_report": "hflux",
    "elementary_report": "hflux",
    "ode_comparison_report": "ode",
}
SUITES = ("bernis", "interp", "mollifier", "hflux", "ode")
_IO_WRITERS = ("write_timeseries", "write_snapshots", "write_summary")
_STUDIES = ("run_coexistence_study", "run_extinction_study", "run_eps_convergence",
            "run_absorbing_set", "run_ode_consistency")


def _step_info(args, out) -> dict:
    return {"accepted": bool(out.accepted), "iters": int(out.newton_iters),
            "n": int(out.state.grid.n_cells)}


def _reports_info(args, reports) -> dict:
    return {"samples": sum(int(r.samples) for r in reports)}


def install(tracer):
    """Wrap the public entry points of every layer; pesim must be imported."""
    import pesim.cli as cli
    import pesim.config as config
    import pesim.experiments as experiments
    import pesim.functionals as functionals
    import pesim.inequalities as inequalities
    import pesim.stepper as stepper

    # Innermost first, so that outer wrappers see wrapped inner functions.
    # compute_rhs is called only by the stepper's Newton residual.
    tracer.install(stepper, "compute_rhs", "model")
    tracer.install(stepper, "step", "stepper", _step_info)
    tracer.install(stepper, "run_until", "stepper")
    tracer.install(functionals, "diagnostics_record", "functionals")
    for name in _REPORT_SUITES:
        tracer.install(inequalities, name, "inequalities")
    tracer.install(inequalities, "all_reports", "inequalities", _reports_info)
    for name in _STUDIES:
        tracer.install(experiments, name, "experiments")
    tracer.install(config, "parse_config", "config")
    for name in _IO_WRITERS + ("cmd_simulate", "cmd_experiment", "cmd_verify", "main"):
        tracer.install(cli, name, "cli")


def _durations(spans, layer, names):
    return [sp.duration for sp in spans if sp.layer == layer and sp.name in names]


def layer_metrics(spans: list[Span], io_bytes: int, io_files: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (trace.overhead_s is added by the caller)."""
    selfs = self_times(spans)

    def self_of(layer):
        return sum(selfs[sp.sid] for sp in spans if sp.layer == layer)

    steps = [sp for sp in spans if sp.layer == "stepper" and sp.name == "step"]
    accepted = [sp for sp in steps if sp.info["accepted"]]
    stepper_busy = busy(spans, "stepper")
    cell_steps = sum(sp.info["n"] for sp in accepted)
    step_us = [sp.duration * 1e6 for sp in steps]
    rhs = _durations(spans, "model", {"compute_rhs"})
    diag = _durations(spans, "functionals", {"diagnostics_record"})
    study_busy = busy(spans, "experiments")
    jobs = sum(_durations(spans, "stepper", {"run_until"}))
    samples = sum(sp.info["samples"] for sp in spans if sp.name == "all_reports")

    m = {
        "setup.import_s": sum(_durations(spans, "setup", {"import"})),
        "config.parse_s": sum(_durations(spans, "config", {"parse_config"})),
        "stepper.attempts": len(steps),
        "stepper.accepted": len(accepted),
        "stepper.rejected": len(steps) - len(accepted),
        "stepper.accept_ratio": len(accepted) / len(steps) if steps else 0.0,
        "stepper.newton_iters_mean": (sum(sp.info["iters"] for sp in accepted)
                                      / len(accepted) if accepted else 0.0),
        "stepper.busy_s": stepper_busy,
        "stepper.self_s": self_of("stepper"),
        "stepper.step_us_p50": percentile(step_us, 50),
        "stepper.step_us_p99": percentile(step_us, 99),
        "stepper.cell_steps_per_s": cell_steps / stepper_busy if stepper_busy else 0.0,
        "model.rhs_calls": len(rhs),
        "model.rhs_busy_s": busy(spans, "model"),
        "functionals.diag_calls": len(diag),
        "functionals.diag_busy_s": busy(spans, "functionals"),
        "functionals.diag_us_p50": median(diag) * 1e6,
        "cli.io_busy_s": sum(_durations(spans, "cli", _IO_WRITERS)),
        "cli.io_bytes": io_bytes,
        "cli.io_files": io_files,
        "cli.self_s": self_of("cli"),
        "experiments.study_busy_s": study_busy,
        "experiments.self_s": self_of("experiments"),
        "experiments.job_overlap": jobs / study_busy if study_busy else 0.0,
        "inequalities.samples": samples,
    }
    for suite in SUITES:
        names = {n for n, s in _REPORT_SUITES.items() if s == suite}
        m[f"inequalities.{suite}_s"] = sum(_durations(spans, "inequalities", names))
    return m
