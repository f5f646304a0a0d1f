"""Benchmark of the pesim command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from its `src`.
Each workload runs fresh `python -m pesim.cli ...` processes one at a time
(a closed loop with one client) for about S seconds.  Every run's outputs are
checked against references.json.

--trace 0 prints the end-to-end metrics: setup_s (a fresh process from
interpreter start to its first call into the workload), wall_s, cpu_s and
peak_rss_mb of the untraced CLI process, each the median over the runs.
--trace 1 alternates untraced runs with runs whose layers are wrapped in
spans and prints the per-layer metrics (see METRICS.md).  `all` runs every
workload both ways.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines above it are the
same figures for reading, with sample counts and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.dont_write_bytecode = True

from perfbench import check, proc  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.spans import Span, median, now  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench_work")
REFERENCES = os.path.join(ROOT, "perfbench", "references.json")
MIN_RUNS = 2  # untraced CLI runs per measurement, whatever --seconds says
MIN_TRACED_RUNS = 1
MIN_SETUPS = 5  # setup probes per measurement

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.import_s": "s", "config.parse_s": "s",
    "stepper.attempts": "count", "stepper.accepted": "count",
    "stepper.rejected": "count", "stepper.accept_ratio": "ratio",
    "stepper.newton_iters_mean": "count", "stepper.busy_s": "s",
    "stepper.self_s": "s", "stepper.step_us_p50": "us", "stepper.step_us_p99": "us",
    "stepper.cell_steps_per_s": "1/s",
    "model.rhs_calls": "count", "model.rhs_busy_s": "s",
    "functionals.diag_calls": "count", "functionals.diag_busy_s": "s",
    "functionals.diag_us_p50": "us",
    "cli.io_busy_s": "s", "cli.io_bytes": "B", "cli.io_files": "count",
    "cli.self_s": "s",
    "experiments.study_busy_s": "s", "experiments.self_s": "s",
    "experiments.job_overlap": "ratio",
    "inequalities.bernis_s": "s", "inequalities.interp_s": "s",
    "inequalities.mollifier_s": "s", "inequalities.hflux_s": "s",
    "inequalities.ode_s": "s", "inequalities.samples": "count",
    "trace.overhead_s": "s",
}


class Bench:
    """One workload at one seed: its config, its reference and its runs."""

    def __init__(self, workload: Workload, seed: int, work: str, references: dict):
        self.w = workload
        self.work = work
        self.env = proc.child_env(ROOT)
        entry = references[workload.name]
        self.rtol = entry["rtol"]
        self.ref = entry["runs"][workload.ref_key(seed)]
        text = workload.config_text(seed)
        self.config_path = None
        if text is not None:
            self.config_path = os.path.join(work, "run.cfg")
            with open(self.config_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _scratch(self) -> str:
        return tempfile.mkdtemp(dir=self.work)

    def setup_probe(self) -> float:
        d = self._scratch()
        try:
            args = self.w.cli_args(self.config_path, os.path.join(d, "out"))
            start = now()
            res = proc.run(["-m", "perfbench.child", "setup", "--", *args],
                           ROOT, self.env, d)
            if res.returncode != 0:
                raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
            return float(res.stdout.split()[-1]) - start
        finally:
            shutil.rmtree(d)

    def cli_run(self, traced: bool = False):
        """One checked CLI run; returns (ProcResult, layer metrics or None)."""
        d = self._scratch()
        try:
            out = os.path.join(d, "out")
            args = self.w.cli_args(self.config_path, out)
            spans_path = os.path.join(d, "spans.json")
            if traced:
                res = proc.run(["-m", "perfbench.child", "trace", spans_path, "--", *args],
                               ROOT, self.env, d)
            else:
                res = proc.run(["-m", "pesim.cli", *args], ROOT, self.env, d)
            self.attempted += 1
            try:
                problems = check.check_run(self.w.command, self.ref, self.rtol,
                                           res.returncode, res.stdout, out)
                if not problems:
                    self.digests.append(check.outputs_digest(self.w.command, out))
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
            if problems:
                self.failed += 1
                self.problems += problems + [res.stderr.strip()[-500:]]
            layer = None
            if traced and res.returncode == 0:
                with open(spans_path, encoding="utf-8") as fh:
                    spans = [Span.from_list(row) for row in json.load(fh)]
                sizes = [os.path.getsize(os.path.join(dp, f))
                         for dp, _, files in os.walk(out) for f in files]
                layer = layer_metrics(spans, sum(sizes), len(sizes))
            return res, layer
        finally:
            shutil.rmtree(d)

    def bitwise(self) -> bool:
        return bool(self.digests) and all(d == self.ref["sha256"] for d in self.digests)


def _keep_going(start, seconds, iteration_s, done, minimum) -> bool:
    """Start another iteration while it is expected to end no more than half
    an iteration past the deadline, so that runs last `seconds` on average."""
    if done < minimum:
        return True
    return now() + 0.5 * median(iteration_s) <= start + seconds


def measure_end_to_end(b: Bench, seconds: float):
    b.setup_probe()  # warm-up of the file cache, not reported
    start = now()
    setups, runs, iteration_s = [], [], []
    while _keep_going(start, seconds, iteration_s, len(runs), MIN_RUNS):
        t0 = now()
        if len(setups) < MIN_SETUPS:
            setups.append(b.setup_probe())
        runs.append(b.cli_run()[0])
        iteration_s.append(now() - t0)
    while len(setups) < MIN_SETUPS:
        setups.append(b.setup_probe())
    samples = {
        "setup_s": setups,
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }
    return {k: median(v) for k, v in samples.items()}, samples


def measure_layers(b: Bench, seconds: float):
    b.setup_probe()
    start = now()
    plain, traced, layers, iteration_s = [], [], [], []
    while _keep_going(start, seconds, iteration_s, len(traced), MIN_TRACED_RUNS):
        t0 = now()
        plain.append(b.cli_run()[0].wall_s)
        res, layer = b.cli_run(traced=True)
        traced.append(res.wall_s)
        if layer is not None:
            layers.append(layer)
        iteration_s.append(now() - t0)
    if not layers:
        return {}, {"untraced_wall_s": plain, "traced_wall_s": traced}
    metrics = {k: median([m[k] for m in layers]) for k in layers[0]}
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced}


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def blas_lapack(mod):
        deps = mod.show_config(mode="dicts").get("Build Dependencies", {})
        return {k: {f: deps[k].get(f) for f in ("name", "version")}
                for k in ("blas", "lapack") if k in deps}

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas_lapack": blas_lapack(numpy),
        "scipy_blas_lapack": blas_lapack(scipy),
        "PE_SIM_THREADS": None,  # removed from the program's environment
    }


def run_one(workload: Workload, seed: int, seconds: float, trace: bool,
            references: dict) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        b = Bench(workload, seed, work, references)
        if trace:
            values, samples = measure_layers(b, seconds)
            units = PER_LAYER_UNITS
        else:
            values, samples = measure_end_to_end(b, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    print(f"pesim benchmark: workload {workload.name}, seed {seed}, "
          f"ic.seed {workload.ic_seed(seed)}, trace {int(trace)}")
    for name, value in values.items():
        print(f"  {name:28s} {value:16.6f} {units[name]:6s}"
              + ("" if trace else f" median of {len(samples[name])}"))
    print(f"  {'fail_ratio':28s} {b.failed}/{b.attempted}")
    print(f"  {'outputs_bitwise':28s} {str(b.bitwise()).lower()}")
    for p in b.problems:
        print(f"  problem: {p}")
    record = {"workload": workload.name, "seed": seed,
              "ic_seed": workload.ic_seed(seed), "trace": int(trace),
              "fail_ratio": b.failed / b.attempted, "outputs_bitwise": b.bitwise(),
              "samples": samples, "machine": machine_record()}
    print("record " + json.dumps(record))
    correct = b.failed == 0 and set(values) == set(units)
    return {"correct": correct, "attempted": b.attempted, "failed": b.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units
                        if k in values}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "pesim", "cli.py")):
        print(f"perfbench: no src/pesim under {ROOT}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)

    if args.workload == "all":
        ok = True
        for w in WORKLOADS.values():
            for trace in (False, True):
                result = run_one(w, args.seed, args.seconds, trace, references)
                print(json.dumps(result), flush=True)
                ok = ok and result["correct"]
        return 0 if ok else 3
    result = run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), references)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
