"""Record perfbench/references.json: the outputs the benchmark checks against.

    python3 -m perfbench.record_references      # from the root of a checkout

The file was recorded once at the commit that introduced the benchmark and
must not be re-recorded by a change that the benchmark judges.  For every
workload and every ic.seed it can use, it holds the final timeseries sample,
the sample count and the sha256 of the outputs (verify: the report values).

It also holds each workload's rtol per checked quantity, measured from the
scheme's O(dt) error: the workload (ic.seed 0) is re-run with other
first-order step-size policies (dt_max 0.025 and 1.0; for the fully implicit
workload also the IMEX scheme) and rtol is four times the largest relative
change seen, but at least RTOL_FLOOR so that roundoff-level changes pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from . import check, proc
from .workloads import N_IC_SEEDS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RTOL_FLOOR = 1e-9
RTOL_SAFETY = 4.0
VERIFY_RTOL = 1e-6  # fixed-seed sampling checks: only summation order may change
POLICIES = ("stepper.dt_max = 0.025\n", "stepper.dt_max = 1.0\n")
IMPLICIT_ALTERNATIVE = "stepper.scheme = imex\n"


def _run(workload, seed, extra=""):
    d = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_rec-")
    try:
        cfg = None
        text = workload.config_text(seed)
        if text is not None:
            cfg = os.path.join(d, "run.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text + extra)
        out = os.path.join(d, "out")
        res = proc.run(["-m", "pesim.cli", *workload.cli_args(cfg, out)],
                       ROOT, proc.child_env(ROOT), d)
        if res.returncode != 0:
            raise SystemExit(f"{workload.name} seed {seed}: exit {res.returncode}\n"
                             f"{res.stderr}")
        entry = {"sha256": check.outputs_digest(workload.command, out)}
        if workload.command == "verify":
            entry["reports"] = check.read_reports(out)
        else:
            entry["final"], entry["rows"] = check.read_final(
                os.path.join(out, "timeseries.csv"))
        return entry
    finally:
        shutil.rmtree(d)


def _rtol(workload, base) -> dict:
    if workload.command == "verify":
        return {"worst_ratio": VERIFY_RTOL}
    extras = POLICIES
    if "fully_implicit" in workload.config:
        extras += (IMPLICIT_ALTERNATIVE,)
    rtol = {q: RTOL_FLOOR for q in check.QUANTITIES}
    for extra in extras:
        alt = _run(workload, 0, extra)["final"]
        for q in check.QUANTITIES:
            change = abs(alt[q] - base[q]) / abs(base[q])
            rtol[q] = max(rtol[q], RTOL_SAFETY * change)
    return rtol


def main() -> int:
    references = {}
    for w in WORKLOADS.values():
        seeds = range(N_IC_SEEDS) if w.seeded else [0]
        runs = {w.ref_key(s): _run(w, s) for s in seeds}
        base = runs[w.ref_key(0)]
        references[w.name] = {"rtol": _rtol(w, base.get("final")), "runs": runs}
        print(f"{w.name}: {len(runs)} runs, rtol {references[w.name]['rtol']}",
              flush=True)
    path = os.path.join(ROOT, "perfbench", "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
