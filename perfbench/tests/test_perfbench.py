"""Tests of the benchmark's own code: span arithmetic, percentiles, the
per-layer metrics and the output check."""

import csv
import json
import os
import shutil
import sys
import threading
import types

import pytest

from perfbench import check
from perfbench.layers import layer_metrics
from perfbench.spans import (Span, Tracer, busy, median, percentile,
                             replace_everywhere, self_times)


def _span(sid, parent, start, end, layer="l", name="f", thread=1, **info):
    return Span(sid, parent, layer, name, thread, start, end, info)


# ---------------------------------------------------------------------------
# self time, busy time, percentiles
# ---------------------------------------------------------------------------

def test_self_time_nested():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 7.0),
    ]
    assert self_times(spans) == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 8.0),
             _span(3, 0, 9.0, 12.0)]  # the last child runs past its parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_self_time_and_busy_two_threads():
    # thread 1: root [0, 10] with a child [2, 6]; thread 2 runs concurrently,
    # its root [1, 9] has no parent and a child [3, 4]
    spans = [
        _span(0, None, 0.0, 10.0, layer="study", thread=1),
        _span(1, 0, 2.0, 6.0, layer="stepper", thread=1),
        _span(2, None, 1.0, 9.0, layer="stepper", thread=2),
        _span(3, 2, 3.0, 4.0, layer="stepper", thread=2),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 6.0, 1: 4.0, 2: 7.0, 3: 1.0})
    # outermost stepper spans of both threads add up; the nested one does not
    assert busy(spans, "stepper") == pytest.approx(4.0 + 8.0)
    assert busy(spans, "study") == pytest.approx(10.0)


def test_tracer_keeps_one_span_stack_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)
    inner = tracer.wrap(lambda: barrier.wait(), "inner", "inner")
    outer = tracer.wrap(lambda: inner(), "outer", "outer")
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {sp.sid: sp for sp in tracer.spans}
    inners = [sp for sp in tracer.spans if sp.layer == "inner"]
    assert len(inners) == 2 and len(by_id) == 4
    for sp in inners:
        parent = by_id[sp.parent]
        assert parent.layer == "outer" and parent.thread == sp.thread
        assert parent.start <= sp.start <= sp.end <= parent.end
    assert {by_id[sp.parent].thread for sp in inners} == {sp.thread for sp in inners}
    assert len({sp.thread for sp in inners}) == 2


def test_tracer_unwinds_its_stack_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "l", "boom")()
    # the exception propagates before the span is stored, and the stack unwinds
    assert tracer._stack() == []


def test_replace_everywhere_rebinds_module_attributes_and_dict_values():
    def original():
        return 1

    mod = types.ModuleType("fakepkg.mod")
    mod.fn = original
    mod.table = {"a": original, "b": len}
    sys.modules["fakepkg.mod"] = mod
    try:
        replace_everywhere(original, print, package="fakepkg")
    finally:
        del sys.modules["fakepkg.mod"]
    assert mod.fn is print and mod.table == {"a": print, "b": len}


def test_percentile_and_median():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 99) == pytest.approx(3.97)
    assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert median([5.0, 1.0, 3.0]) == 3.0
    assert percentile([], 50) == 0.0


def test_layer_metrics_from_synthetic_run():
    spans = [
        _span(0, None, 0.0, 10.0, layer="cli", name="main"),
        _span(1, 0, 0.5, 1.0, layer="config", name="parse_config"),
        _span(2, 0, 1.0, 8.0, layer="stepper", name="run_until"),
        _span(3, 2, 1.0, 2.0, layer="stepper", name="step", accepted=True, iters=2, n=100),
        _span(4, 2, 2.0, 4.0, layer="stepper", name="step", accepted=False, iters=25, n=100),
        _span(5, 2, 4.0, 5.0, layer="stepper", name="step", accepted=True, iters=4, n=100),
        _span(6, 4, 2.0, 3.0, layer="model", name="compute_rhs"),
        _span(7, 2, 6.0, 6.5, layer="functionals", name="diagnostics_record"),
        _span(8, 0, 8.0, 9.0, layer="cli", name="write_timeseries"),
    ]
    m = layer_metrics(spans, io_bytes=1234, io_files=3)
    assert m["stepper.attempts"] == 3
    assert m["stepper.accepted"] == 2 and m["stepper.rejected"] == 1
    assert m["stepper.accept_ratio"] == pytest.approx(2 / 3)
    assert m["stepper.newton_iters_mean"] == pytest.approx(3.0)
    assert m["stepper.busy_s"] == pytest.approx(7.0)
    # run_until 7 - 4 (steps) - 0.5 (diag) + steps 4 - 1 (rhs)
    assert m["stepper.self_s"] == pytest.approx(2.5 + 3.0)
    assert m["stepper.cell_steps_per_s"] == pytest.approx(200 / 7.0)
    assert m["stepper.step_us_p50"] == pytest.approx(1e6)
    assert m["model.rhs_calls"] == 1 and m["model.rhs_busy_s"] == pytest.approx(1.0)
    assert m["functionals.diag_calls"] == 1
    assert m["functionals.diag_us_p50"] == pytest.approx(5e5)
    assert m["cli.io_busy_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 0.5 - 7.0 - 1.0 + 1.0)
    assert m["config.parse_s"] == pytest.approx(0.5)
    assert m["cli.io_bytes"] == 1234 and m["cli.io_files"] == 3
    assert m["experiments.study_busy_s"] == 0.0 and m["experiments.job_overlap"] == 0.0
    assert m["inequalities.samples"] == 0


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def simulate_run(tmp_path_factory):
    """A small real simulate run and a reference recorded from it."""
    from pesim.cli import main

    tmp = tmp_path_factory.mktemp("sim")
    cfg = tmp / "run.cfg"
    cfg.write_text("grid.n = 48\ntime.t_end = 2.0\ntime.sample_every = 0.5\n")
    out = str(tmp / "out")
    assert main(["simulate", str(cfg), "--out", out]) == 0
    final, rows = check.read_final(os.path.join(out, "timeseries.csv"))
    ref = {"final": final, "rows": rows,
           "sha256": check.outputs_digest("simulate", out)}
    rtol = {q: 1e-6 for q in check.QUANTITIES}
    return out, ref, rtol


def _rewrite_final(out, column, factor):
    path = os.path.join(out, "timeseries.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[-1][col] = repr(float(rows[-1][col]) * factor)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_check_accepts_the_recorded_run(simulate_run):
    out, ref, rtol = simulate_run
    assert check.check_run("simulate", ref, rtol, 0, "", out) == []


def test_check_rejects_nonzero_exit(simulate_run):
    out, ref, rtol = simulate_run
    assert check.check_run("simulate", ref, rtol, 2, "", out) == ["exit code 2"]


@pytest.mark.parametrize("column", check.QUANTITIES)
def test_check_rejects_perturbed_timeseries(simulate_run, tmp_path, column):
    out, ref, rtol = simulate_run
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    _rewrite_final(copy, column, 1.0 + 1e-4)
    problems = check.check_run("simulate", ref, rtol, 0, "", copy)
    assert len(problems) == 1 and f"final {column}" in problems[0]
    assert check.outputs_digest("simulate", copy) != ref["sha256"]


def test_check_rejects_missing_samples_and_failed_verdicts(simulate_run, tmp_path):
    out, ref, rtol = simulate_run
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    path = os.path.join(copy, "timeseries.csv")
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(lines[:-1]) + "\n")
    with open(os.path.join(copy, "verdicts.json"), "w") as fh:
        json.dump({"verdicts": {"u_deviation": {"pass": False}}}, fh)
    problems = check.check_run("experiment", ref, rtol, 0, "", copy)
    assert problems[0] == "verdict u_deviation failed"
    assert "samples, recorded" in problems[1]


def test_check_verify_reports(tmp_path):
    rep = {"name": "bernis", "samples": 800, "worst_ratio": 0.5, "pass": True}
    (tmp_path / "bernis.json").write_text(json.dumps(rep))
    ref = {"reports": {"bernis": {"samples": 800, "worst_ratio": 0.5, "pass": True}}}
    rtol = {"worst_ratio": 1e-6}
    ok_stdout = "PASS bernis: worst_ratio=0.5 tol=0.05 (800 samples)\n"
    assert check.check_run("verify", ref, rtol, 0, ok_stdout, str(tmp_path)) == []
    bad_stdout = ok_stdout.replace("PASS", "FAIL")
    assert check.check_run("verify", ref, rtol, 0, bad_stdout, str(tmp_path)) == [
        "report bernis did not pass"]
    rep["worst_ratio"] = 0.6
    (tmp_path / "bernis.json").write_text(json.dumps(rep))
    assert "worst_ratio" in check.check_run("verify", ref, rtol, 0, ok_stdout,
                                            str(tmp_path))[0]
    assert check.check_run("verify", ref, rtol, 3, ok_stdout, str(tmp_path)) == [
        "exit code 3"]


def test_benchmark_json_declares_what_run_py_prints():
    from perfbench.run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
