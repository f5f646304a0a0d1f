from dataclasses import replace

import numpy as np
import pytest

from pesim import experiments
from pesim.experiments import (
    ExperimentSpec,
    InitialCondition,
    RegimeMismatch,
    run_absorbing_set,
    run_coexistence_study,
    run_eps_convergence,
    run_extinction_study,
    run_ode_consistency,
)
from pesim.functionals import m_infinity
from pesim.grid import Grid1D
from pesim.model import KineticParams, ModelKind, RegParams
from pesim.stepper import StepperConfig


def _grid(n=64):
    return Grid1D(0.0, 1.0, n)


def _coex_spec(t_end=5.0, ic=None, n=64, **kw):
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 2)
    ic = ic or InitialCondition("perturbed", 1.5, 0.5, 0.2, 0.2, 1, 0)
    defaults = dict(kp=kp, rp=RegParams(1e-4), kind=ModelKind.REGULARIZED,
                    grid=_grid(n), ic=ic, t_end=t_end, sample_every=0.5)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_ic_kinds():
    g = _grid()
    st = InitialCondition("constant", 2.0, 0.7).build(g)
    assert np.all(st.u == 2.0) and np.all(st.v == 0.7)
    st = InitialCondition("perturbed", 1.5, 0.5, 0.3, 0.3, 1, 0).build(g)
    assert st.u[0] > 1.5 > st.u[-1]
    st = InitialCondition("random-trig", 2.0, 2.0, 0.5, 0.5, 4, 42).build(g)
    assert st.u.min() > 1.5 and st.v.min() > 1.5  # base > sum |amps|
    st2 = InitialCondition("random-trig", 2.0, 2.0, 0.5, 0.5, 4, 42).build(g)
    assert np.array_equal(st.u, st2.u)
    with pytest.raises(ValueError):
        InitialCondition("gaussian")


def test_spec_rejects_time_tolerance_at_sample_every():
    # a time tolerance of 3 >= sample_every = 0.5 would make run_until cut a
    # step past dt_max; the spec refuses it, not the first step()
    with pytest.raises(ValueError, match="^t_end"):
        _coex_spec(t_end=3e9)


def test_coexistence_at_steady_state_passes_immediately():
    ic = InitialCondition("constant", 1.5, 0.5)
    res = run_coexistence_study(_coex_spec(t_end=0.5, ic=ic))
    assert all(v.passed for v in res.verdicts.values())
    assert res.spec.rp.n1 == 2.0 and res.spec.rp.n2 == 2.0


def test_coexistence_regime_mismatch():
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 2, 1)
    spec = _coex_spec(kp=kp, ic=InitialCondition("constant", 2.0, 0.5))
    with pytest.raises(RegimeMismatch):
        run_coexistence_study(spec)


def test_coexistence_converges_and_chi_free_run_faster():
    res = run_coexistence_study(_coex_spec(t_end=20.0))
    assert all(v.passed for v in res.verdicts.values())
    # nearly vanishing sensitivities: pure reaction-diffusion converges at
    # least as fast (strict positivity of the parameters forbids chi = 0)
    kp0 = KineticParams(1, 1, 1e-12, 1e-12, 1, 1, 1, 2)
    res0 = run_coexistence_study(_coex_spec(t_end=20.0, kp=kp0))
    assert res0.verdicts["u_deviation"].value <= res.verdicts["u_deviation"].value * 1.5


def test_extinction_study_converges(ext_params):
    ic = InitialCondition("perturbed", 2.0, 0.5, 0.3, 0.2, 1, 0)
    spec = _coex_spec(t_end=60.0, ic=ic, kp=ext_params,
                      rp=RegParams(1e-4, 0.5, 2.0, 1.0))
    res = run_extinction_study(spec)
    assert all(v.passed for v in res.verdicts.values())
    assert res.spec.rp.n2 == 1.0
    assert not res.extras["boundary_case"]


def test_extinction_boundary_case_relaxed():
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)  # lambda2 = a2*lambda1
    ic = InitialCondition("perturbed", 1.0, 0.3, 0.1, 0.1, 1, 0)
    spec = _coex_spec(t_end=30.0, ic=ic, kp=kp)
    res = run_extinction_study(spec)
    assert res.extras["boundary_case"]
    assert res.verdicts["u_deviation"].threshold == pytest.approx(0.1)


def test_extinction_tiny_prey_mass_decays(ext_params):
    ic = InitialCondition("constant", 2.0, 1e-6)
    spec = _coex_spec(t_end=5.0, ic=ic, kp=ext_params)
    res = run_extinction_study(spec)
    masses = [r.mass_v for r in res.records]
    assert all(b < a for a, b in zip(masses, masses[1:]))


def test_extinction_regime_mismatch(coex_params):
    spec = _coex_spec(kp=coex_params)
    with pytest.raises(RegimeMismatch):
        run_extinction_study(spec)


def test_eps_convergence_decreasing():
    spec = _coex_spec(t_end=1.0)
    res = run_eps_convergence(spec, [1e-2, 2.5e-3, 6.25e-4])
    assert res.verdicts["distances_decreasing_u"].passed
    assert res.verdicts["distances_decreasing_v"].passed
    rows = res.extras["distances"]
    assert len(rows) == 2
    assert rows[0]["dist_u"] > rows[1]["dist_u"]


def test_eps_study_diagnoses_only_the_run_it_returns(monkeypatch):
    # the study returns its last run's records, so the runs before it
    # compute none; the records are those of the last run made alone
    calls = []
    diagnose = experiments.diagnostics_record
    monkeypatch.setattr(experiments, "diagnostics_record",
                        lambda *args: calls.append(1) or diagnose(*args))
    res = run_eps_convergence(_coex_spec(t_end=1.0), [1e-2, 2.5e-3, 6.25e-4])
    assert len(calls) == len(res.records) == 3  # samples at t = 0, 0.5, 1
    assert res.records == experiments._run(res.spec)[1]


def test_eps_convergence_input_validation():
    spec = _coex_spec(t_end=0.5)
    with pytest.raises(ValueError):
        run_eps_convergence(spec, [1e-2, 1e-2, 1e-3])  # repeated value
    with pytest.raises(ValueError):
        run_eps_convergence(spec, [1e-2, 1e-3])  # too few


def test_eps_convergence_tiny_chi():
    kp0 = KineticParams(1, 1, 1e-12, 1e-12, 1, 1, 1, 2)
    spec = _coex_spec(t_end=1.0, kp=kp0)
    res = run_eps_convergence(spec, [1e-2, 2.5e-3, 6.25e-4])
    assert res.verdicts["distances_decreasing_u"].passed


def test_absorbing_set_large_datum():
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    ic = InitialCondition("constant", 30.0, 30.0)
    spec = _coex_spec(t_end=20.0, ic=ic, kp=kp)
    res = run_absorbing_set(spec)
    assert res.verdicts["final_mass_within_bound"].passed
    assert res.extras["initial_mass"] > 10.0 * res.extras["m_infinity"]


def test_absorbing_set_small_datum_stays_below():
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    bound = m_infinity(kp, 1.0)
    ic = InitialCondition("constant", 1.0, 1.0)
    spec = _coex_spec(t_end=10.0, ic=ic, kp=kp)
    res = run_absorbing_set(spec)
    assert res.extras["max_mass"] <= 1.05 * bound


def test_absorbing_set_requires_regularized(coex_params):
    spec = _coex_spec(kind=ModelKind.LIMIT,
                      ic=InitialCondition("constant", 1.0, 1.0))
    with pytest.raises(ValueError):
        run_absorbing_set(spec)


def test_ode_consistency_steady_start(coex_params):
    ic = InitialCondition("constant", 1.5, 0.5)
    spec = _coex_spec(t_end=2.0, ic=ic, kind=ModelKind.LIMIT)
    cfg = StepperConfig(dt_init=1e-3, dt_max=1e-3)
    res = run_ode_consistency(replace(spec, stepper=cfg), dev_tol=1e-9, oracle_dt=1e-4)
    assert res.verdicts["oracle_deviation"].passed
    # constant trajectories
    assert res.records[-1].mass_u == pytest.approx(1.5, abs=1e-9)


def test_ode_consistency_short_run(coex_params):
    ic = InitialCondition("constant", 1.0, 1.0)
    spec = _coex_spec(t_end=1.0, ic=ic, kind=ModelKind.LIMIT)
    cfg = StepperConfig(dt_init=1e-4, dt_max=1e-4)
    res = run_ode_consistency(replace(spec, stepper=cfg), dev_tol=5e-3, oracle_dt=1e-4)
    assert res.verdicts["oracle_deviation"].passed


def test_ode_consistency_regularized_perturbation(coex_params):
    # with eps = 1e-8 the mollified kinetics sit within O(sqrt(eps)) of the
    # limit kinetics
    ic = InitialCondition("constant", 1.0, 1.0)
    spec = _coex_spec(t_end=2.0, ic=ic, kind=ModelKind.REGULARIZED,
                      rp=RegParams(1e-8))
    cfg = StepperConfig(dt_init=1e-4, dt_max=1e-4)
    res = run_ode_consistency(replace(spec, stepper=cfg), dev_tol=1e-4, oracle_dt=1e-4)
    assert res.verdicts["oracle_deviation"].passed


def test_ode_consistency_rejects_nonhomogeneous():
    spec = _coex_spec(kind=ModelKind.LIMIT)
    with pytest.raises(ValueError):
        run_ode_consistency(spec)


def test_records_satisfy_monitors():
    res = run_coexistence_study(_coex_spec(t_end=5.0))
    for r in res.records:
        assert r.mass_u > 0.0 and r.mass_v > 0.0
        assert r.D >= 0.0 and r.D1 >= 0.0 and r.D2 >= 0.0
        assert r.E1 >= 0.0 and r.E2 >= 0.0
        assert r.min_u > 1e-12 and r.min_v > 1e-12
    # tail growth of E1 never exceeds the sqrt(eps) allowance
    tail = [r for r in res.records if r.t >= 0.8 * res.records[-1].t]
    window = tail[-1].t - tail[0].t
    assert max(r.E1 for r in tail) - tail[-1].E1 >= -10.0 * np.sqrt(1e-4) * window


def test_determinism_bitwise():
    r1 = run_coexistence_study(_coex_spec(t_end=2.0))
    r2 = run_coexistence_study(_coex_spec(t_end=2.0))
    assert [v.value for v in r1.verdicts.values()] == [v.value for v in r2.verdicts.values()]
    for a, b in zip(r1.records, r2.records):
        assert a.t == b.t and a.F == b.F and a.E2 == b.E2
