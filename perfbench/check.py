"""Output check of one CLI run against the values recorded at the seed commit.

A run passes when it exits 0, every verdict in verdicts.json passes, every
verify report prints PASS, and the final timeseries sample agrees with the
recorded one.  Agreement is relative: |x - x_ref| <= rtol * |x_ref| with a
per-workload, per-quantity rtol kept in references.json.  Each rtol is four
times the largest relative change measured when the workload was re-run with
other first-order step-size policies (see record_references.py), so a change
of dt policy or of scheme passes and an error larger than the scheme's O(dt)
error does not.  Bitwise identity is reported separately and is no gate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

QUANTITIES = ("mass_u", "mass_v", "F", "E1", "E2", "min_u", "min_v")


def read_final(ts_path) -> tuple[dict[str, float], int]:
    """Final row of a timeseries.csv (t and QUANTITIES) and its data-row count."""
    with open(ts_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return {}, 0
    last = rows[-1]
    return {q: float(last[q]) for q in ("t",) + QUANTITIES}, len(rows)


def read_reports(out_dir) -> dict[str, dict]:
    reports = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                rep = json.load(fh)
            reports[rep["name"]] = {"worst_ratio": rep["worst_ratio"],
                                    "samples": rep["samples"], "pass": rep["pass"]}
    return reports


def outputs_digest(command: str, out_dir) -> str:
    """sha256 of timeseries.csv, or of the verify report files in name order."""
    h = hashlib.sha256()
    if command == "verify":
        paths = [os.path.join(out_dir, n) for n in sorted(os.listdir(out_dir))
                 if n.endswith(".json")]
    else:
        paths = [os.path.join(out_dir, "timeseries.csv")]
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


def check_run(command: str, ref: dict, rtol: dict, returncode: int, stdout: str,
              out_dir) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = []
    if command == "verify":
        reports = read_reports(out_dir)
        for name, want in ref["reports"].items():
            got = reports.get(name)
            if got is None:
                problems.append(f"report {name} missing")
                continue
            if f"PASS {name}:" not in stdout or not got["pass"]:
                problems.append(f"report {name} did not pass")
            if got["samples"] != want["samples"]:
                problems.append(f"report {name}: {got['samples']} samples, "
                                f"recorded {want['samples']}")
            if not _close(got["worst_ratio"], want["worst_ratio"], rtol["worst_ratio"]):
                problems.append(f"report {name}: worst_ratio {got['worst_ratio']!r}, "
                                f"recorded {want['worst_ratio']!r}")
        return problems

    if command == "experiment":
        with open(os.path.join(out_dir, "verdicts.json"), encoding="utf-8") as fh:
            verdicts = json.load(fh)["verdicts"]
        problems += [f"verdict {name} failed" for name, v in verdicts.items()
                     if not v["pass"]]
    final, rows = read_final(os.path.join(out_dir, "timeseries.csv"))
    if rows != ref["rows"]:
        return problems + [f"{rows} samples, recorded {ref['rows']}"]
    if not _close(final["t"], ref["final"]["t"], 1e-9):
        problems.append(f"final t {final['t']!r}, recorded {ref['final']['t']!r}")
    for q in QUANTITIES:
        if not _close(final[q], ref["final"][q], rtol[q]):
            problems.append(f"final {q} {final[q]!r}, recorded {ref['final'][q]!r} "
                            f"(rtol {rtol[q]:.1e})")
    return problems
