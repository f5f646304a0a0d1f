"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; the full suite re-derives every quantitative target at its stated
tolerance (nothing is recalibrated at run time).
"""

import math
import time

import numpy as np
import pytest

from pesim.experiments import (
    ExperimentSpec,
    InitialCondition,
    run_absorbing_set,
    run_coexistence_study,
    run_eps_convergence,
    run_extinction_study,
)
from pesim.functionals import cross_entropy_productions, m_infinity
from pesim.grid import Grid1D
from pesim.model import KineticParams, ModelKind, RegParams, State
from pesim.stepper import StepperConfig, run_until
from conftest import COEX_KP, positive_trig_state

GRID = Grid1D(0.0, 1.0, 128)
EXT_KP = KineticParams(d1=1.0, d2=1.0, chi1=0.05, chi2=0.05,
                       a1=1.0, a2=1.0, lambda1=2.0, lambda2=1.0)


def _report(num, name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def coexistence_run():
    """The criterion-2 configuration, shared with the entropy-tail monitor."""
    spec = ExperimentSpec(
        kp=COEX_KP,
        rp=RegParams(1e-4, alpha=0.5, n1=2.0, n2=2.0),
        kind=ModelKind.REGULARIZED,
        grid=GRID,
        ic=InitialCondition("perturbed", 1.5, 0.5, 0.3, 0.3, 1, 0),
        t_end=100.0,
        sample_every=1.0,
    )
    t0 = time.time()
    result = run_coexistence_study(spec)
    return result, time.time() - t0


def test_criterion_1_steady_state_exactness():
    t0 = time.time()
    ic = State(0.0, GRID, np.full((2, GRID.n_cells), [[1.5], [0.5]]))
    worst = 0.0
    for kind in (ModelKind.LIMIT, ModelKind.REGULARIZED):
        samples = []
        final = run_until(ic, 10.0, COEX_KP, RegParams(1e-4), kind,
                          StepperConfig(), 5.0, samples.append)
        assert final is samples[-1]
        worst = max(worst,
                    np.abs(final.u - 1.5).max(),
                    np.abs(final.v - 0.5).max())
    elapsed = time.time() - t0
    _report(1, "steady-state exactness",
            worst <= 1e-8 and elapsed < 10.0,
            f"max deviation {worst:.3e} (tol 1e-8), runtime {elapsed:.1f}s (cap 10s)")


def test_criterion_2_coexistence_stabilization(coexistence_run):
    result, elapsed = coexistence_run
    dev_u = result.verdicts["u_deviation"].value
    dev_v = result.verdicts["v_deviation"].value
    _report(2, "coexistence stabilization",
            dev_u < 1e-2 and dev_v < 1e-2 and elapsed < 300.0,
            f"|u(T)-1.5|={dev_u:.3e}, |v(T)-0.5|={dev_v:.3e} (tol 1e-2), "
            f"runtime {elapsed:.1f}s (cap 300s)")


def test_criterion_3_extinction_stabilization():
    spec = ExperimentSpec(
        kp=EXT_KP,
        rp=RegParams(1e-4, alpha=0.5, n1=2.0, n2=1.0),
        kind=ModelKind.REGULARIZED,
        grid=GRID,
        ic=InitialCondition("perturbed", 2.0, 0.5, 0.3, 0.2, 2, 0),
        t_end=150.0,
        sample_every=1.0,
    )
    t0 = time.time()
    result = run_extinction_study(spec)
    elapsed = time.time() - t0
    dev_u = result.verdicts["u_deviation"].value
    sup_v = result.verdicts["v_sup"].value
    _report(3, "extinction stabilization",
            dev_u < 1e-2 and sup_v < 1e-2 and elapsed < 480.0,
            f"|u(T)-2|={dev_u:.3e}, |v(T)|={sup_v:.3e} (tol 1e-2), "
            f"runtime {elapsed:.1f}s (cap 480s)")


def test_criterion_4_absorbing_set():
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    spec = ExperimentSpec(
        kp=kp,
        rp=RegParams(1e-4),
        kind=ModelKind.REGULARIZED,
        grid=GRID,
        ic=InitialCondition("constant", 30.0, 30.0),
        t_end=50.0,
        sample_every=1.0,
    )
    t0 = time.time()
    result = run_absorbing_set(spec)
    elapsed = time.time() - t0
    final_mass = result.verdicts["final_mass_within_bound"].value
    bound = m_infinity(kp, 1.0)
    hand_value = 5.9404  # independent evaluation of the closed form
    _report(4, "absorbing set",
            final_mass <= 1.05 * bound and abs(bound - hand_value) < 5e-4
            and elapsed < 180.0,
            f"final mass {final_mass:.4f} <= 1.05*{bound:.4f}, "
            f"runtime {elapsed:.1f}s (cap 180s)")


def test_criterion_5_ode_consistency(homogeneous_ode_run):
    dev = homogeneous_ode_run.verdicts["oracle_deviation"].value
    _report(5, "ODE consistency",
            dev <= 1e-6,
            f"max deviation from RK4 oracle at T=10: {dev:.3e} (tol 1e-6)")


def test_criterion_6_cross_term_cancellation():
    rng = np.random.default_rng(2024)
    kp = KineticParams(1, 1, 0.07, 0.03, 1, 1, 1, 2)
    rp = RegParams(1e-3, 0.5, 2.0, 1.0)
    worst = 0.0
    for _ in range(100):
        st = positive_trig_state(GRID, rng)
        pu, pv = cross_entropy_productions(st, kp, rp)
        rel = abs(pu + pv) / max(abs(pu), abs(pv), 1e-300)
        worst = max(worst, rel)
    _report(6, "cross-term cancellation",
            worst < 1e-12,
            f"worst relative defect over 100 random states: {worst:.3e} (tol 1e-12)")


def test_criterion_7_inequality_suite(shipped_reports):
    reports, elapsed = shipped_reports
    pointwise = {"mollifier", "hflux"}
    ok = True
    details = []
    for rep in reports:
        if rep.name in pointwise:
            ok = ok and rep.worst_ratio <= 1.0
        elif rep.name in ("bernis", "interp_lower", "interp_log"):
            ok = ok and rep.worst_ratio <= 1.05
        else:
            ok = ok and rep.passed
        details.append(f"{rep.name}={rep.worst_ratio:.4g}")
    ok = ok and elapsed < 60.0
    _report(7, "inequality suite", ok,
            ", ".join(details) + f"; runtime {elapsed:.1f}s (cap 60s)")


def test_criterion_8_eps_consistency():
    spec = ExperimentSpec(
        kp=COEX_KP,
        rp=RegParams(1e-2),
        kind=ModelKind.REGULARIZED,
        grid=GRID,
        ic=InitialCondition("perturbed", 1.5, 0.5, 0.3, 0.3, 1, 0),
        t_end=1.0,
        sample_every=0.5,
    )
    result = run_eps_convergence(spec, [1e-2, 2.5e-3, 6.25e-4])
    rows = result.extras["distances"]
    dists_u = [r["dist_u"] for r in rows]
    dists_v = [r["dist_v"] for r in rows]
    passed = (result.verdicts["distances_decreasing_u"].passed
              and result.verdicts["distances_decreasing_v"].passed)
    _report(8, "eps-consistency", passed,
            f"L2 distances u: {[f'{d:.3e}' for d in dists_u]}, "
            f"v: {[f'{d:.3e}' for d in dists_v]} (strictly decreasing)")


def test_criterion_9_entropy_tail_monitor(coexistence_run):
    result, _ = coexistence_run
    slope = result.verdicts["entropy_tail_slope"].value
    allowance = 10.0 * math.sqrt(1e-4)
    _report(9, "entropy tail monitor",
            slope <= allowance,
            f"least-squares E1 slope over final 20%: {slope:.3e} "
            f"(allowance {allowance:.1e})")


def test_criterion_10_weak_residual(weak_residual_pair):
    (ru1, rv1), (ru2, rv2) = weak_residual_pair
    factor = min(ru1 / ru2, rv1 / rv2)
    _report(10, "weak residual refinement",
            factor >= 2.0,
            f"residuals u: {ru1:.3e}->{ru2:.3e}, v: {rv1:.3e}->{rv2:.3e}; "
            f"worst factor {factor:.2f} (need >= 2)")
