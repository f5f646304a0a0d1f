import dataclasses
import gc
import json
import os
import weakref

import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded
from scipy.optimize import fsolve

import pesim.stepper as stp
from pesim.experiments import InitialCondition
from pesim.functionals import diagnostics_record
from pesim.grid import Grid1D, integrate_values
from pesim.model import (
    KineticParams,
    ModelKind,
    RegParams,
    State,
    _columns,
    compute_rhs,
    diffusion_face_coeff,
    face_gradient,
    face_third_derivative,
    g_mollifier,
    reaction_jacobian,
    reaction_terms,
    taxis_face_coeff,
    thinfilm_face_coeff,
)
from pesim.stepper import (
    Scheme,
    StepperConfig,
    StepperFailure,
    dgbtrf,
    run_until,
    step,
)
from conftest import positive_trig_state, run_python_with_src


def _smooth_state(grid, t=0.0):
    s = grid.centers
    return State(
        t,
        grid,
        [1.5 + 0.3 * np.cos(np.pi * s), 0.8 + 0.2 * np.cos(2 * np.pi * s)],
    )


def _samples(*args):
    """run_until(*args)'s samples, collected by its on_sample; the run must
    return the last of them."""
    samples = []
    final = run_until(*args, samples.append)
    assert final is samples[-1]
    return samples


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt_init=1e-3, dt_min=2e-3, dt_max=1e-2)


def _dense(ab, kl):
    """Dense matrix held in the padded LAPACK band storage ab."""
    a = ab[:, kl:-kl]
    m = a.shape[1]
    dense = np.zeros((m, m))
    for i in range(m):
        for j in range(max(0, i - kl), min(m, i + kl + 1)):
            dense[i, j] = a[2 * kl + i - j, j]
    return dense


def test_banded_operator_matches_direct_flux(coex_params):
    # write the implicit operator frozen at a state into LAPACK band storage,
    # expand it to dense, apply it to that state and compare against the
    # flux-divergence evaluation
    rng = np.random.default_rng(5)
    grid = Grid1D(0.0, 1.0, 48)
    n = grid.n_cells
    rp = RegParams(1e-3, 0.5, 2.0, 1.0)
    c = _columns(coex_params, rp)  # n1 != n2: an exponent per field
    for kind in ModelKind:
        kl = 2 if kind is ModelKind.REGULARIZED else 1
        for _ in range(5):
            w = positive_trig_state(grid, rng).w
            ab = stp._band_storage(kl, 2 * n)
            stp._stiff_bands(stp._band_slots(ab, kl, n, kl, pair=(n, n)), w, grid.dx,
                             c.d, c.n, rp, kind)
            mat = _dense(ab, kl)
            flux = diffusion_face_coeff(w, c.d, rp, kind) * face_gradient(w, grid.dx)
            if kind is ModelKind.REGULARIZED:
                flux -= thinfilm_face_coeff(w, c.n, rp) * face_third_derivative(w, grid.dx)
            direct = ((flux[:, 1:] - flux[:, :-1]) / grid.dx).ravel()
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(mat @ w.ravel() - direct).max() < 1e-11 * scale


def test_steady_state_step_unchanged(unit_grid, coex_params, reg_params):
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[1.5], [0.5]]))
    for scheme in Scheme:
        cfg = StepperConfig(scheme=scheme)
        out = step(st, 0.05, coex_params, reg_params, ModelKind.REGULARIZED, cfg)
        assert out.accepted
        assert np.abs(out.state.u - 1.5).max() < cfg.newton_tol
        assert np.abs(out.state.v - 0.5).max() < cfg.newton_tol


def test_fully_implicit_matches_backward_euler_oracle(unit_grid):
    # homogeneous limit-system step reduces to scalar backward Euler
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    rp = RegParams(1e-4)
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[1.0], [1.0]]))
    dt = 1e-3
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT, dt_init=dt)
    out = step(st, dt, kp, rp, ModelKind.LIMIT, cfg)
    assert out.accepted
    u1 = out.state.u[0]
    v1 = out.state.v[0]
    # residual of the implicit equations at the returned state
    assert abs(u1 - 1.0 - dt * u1 * (1.0 - u1 + v1)) < 1e-10
    assert abs(v1 - 1.0 - dt * v1 * (1.0 - v1 - u1)) < 1e-10
    # independent oracle: solve the 2x2 backward-Euler system directly
    def res(y):
        a, c = y
        return [a - 1.0 - dt * a * (1.0 - a + c), c - 1.0 - dt * c * (1.0 - c - a)]
    sol = fsolve(res, [1.0, 1.0], full_output=False, xtol=1e-13)
    assert u1 == pytest.approx(sol[0], abs=1e-9)
    assert v1 == pytest.approx(sol[1], abs=1e-9)
    assert np.all(out.state.u == u1)


def test_schemes_agree_for_small_dt(unit_grid, coex_params, reg_params):
    st = _smooth_state(unit_grid)
    dt = 1e-5
    outs = []
    for scheme in Scheme:
        cfg = StepperConfig(scheme=scheme, dt_init=dt, dt_min=1e-12)
        outs.append(step(st, dt, coex_params, reg_params, ModelKind.REGULARIZED, cfg))
    du = np.abs(outs[0].state.u - outs[1].state.u).max()
    dv = np.abs(outs[0].state.v - outs[1].state.v).max()
    assert du < 1e-7 and dv < 1e-7


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nextafter(5e-2, 1.0), np.nan])
def test_step_rejects_dt_outside_range(dt, unit_grid, coex_params, reg_params):
    with pytest.raises(ValueError, match=r"^dt must lie in \(0, dt_max\]"):
        step(_smooth_state(unit_grid), dt, coex_params, reg_params, ModelKind.REGULARIZED,
             StepperConfig())


def test_run_until_rejects_end_before_start(unit_grid, coex_params, reg_params):
    samples = []
    with pytest.raises(ValueError, match=r"^t_end must not precede state\.t"):
        run_until(_smooth_state(unit_grid, t=2.0), 1.0, coex_params, reg_params,
                  ModelKind.REGULARIZED, StepperConfig(), 1.0, samples.append)
    assert samples == []  # rejected before the first sample


def test_run_until_zero_span(unit_grid, coex_params, reg_params):
    st = _smooth_state(unit_grid, t=2.0)
    samples = _samples(st, 2.0, coex_params, reg_params,
                       ModelKind.REGULARIZED, StepperConfig(), 1.0)
    assert len(samples) == 1 and samples[0] is st


def test_run_until_samples_every_multiple(coex_params, reg_params):
    # steps of 0.05 would pass five sample times each; every step is cut to
    # land on the next one, so no multiple of sample_every is skipped
    grid = Grid1D(0.0, 1.0, 32)
    cfg = StepperConfig(dt_init=0.05, dt_max=0.05)
    samples = _samples(_smooth_state(grid), 0.5, coex_params, reg_params,
                       ModelKind.LIMIT, cfg, 0.01)
    assert len(samples) == 51
    for k, s in enumerate(samples):
        assert abs(s.t - k * 0.01) < 1e-12


@pytest.mark.parametrize("scheme", list(Scheme))
def test_run_until_keeps_no_sample(scheme, coex_params, reg_params):
    # run_until hands each sample to on_sample and keeps none of them: when
    # it hands on a sample, every earlier one is gone, and once the run has
    # returned, the final state is the only sample still alive
    refs = []

    def sink(state):
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)
        refs.append(weakref.ref(state))

    final = run_until(_smooth_state(Grid1D(0.0, 1.0, 64)), 0.2, coex_params, reg_params,
                      ModelKind.REGULARIZED, StepperConfig(scheme=scheme), 0.05, sink)
    gc.collect()
    assert len(refs) == 5 and refs[-1]() is final
    assert [r() for r in refs[:-1]] == [None] * 4


def test_homogeneous_run_matches_rk4_oracle(homogeneous_ode_run):
    # the final record's extremes bound every cell of the final state
    final = homogeneous_ode_run.records[-1]
    uo, vo = homogeneous_ode_run.extras["oracle_u"], homogeneous_ode_run.extras["oracle_v"]
    assert final.t == pytest.approx(10.0)
    assert abs(final.min_u - uo) < 1e-6 and abs(final.max_u - uo) < 1e-6
    assert abs(final.min_v - vo) < 1e-6 and abs(final.max_v - vo) < 1e-6


@pytest.mark.parametrize("scheme", list(Scheme))
def test_first_order_temporal_convergence(scheme, coex_params):
    grid = Grid1D(0.0, 1.0, 32)
    rp = RegParams(1e-4, 0.5, 2.0, 2.0)
    st = _smooth_state(grid)
    t_end = 0.1

    def final_u(dt):
        # a fixed dt through step(): run_until sizes fully implicit steps itself
        cfg = StepperConfig(scheme=scheme, dt_init=dt, dt_min=dt * 0.5, dt_max=dt,
                            newton_tol=1e-12)
        s = st
        for _ in range(round(t_end / dt)):
            out = step(s, dt, coex_params, rp, ModelKind.REGULARIZED, cfg)
            assert out.accepted
            s = out.state
        return s.u

    ref = final_u(7.8125e-5)
    errs = [np.abs(final_u(dt) - ref).max() for dt in (4e-3, 2e-3, 1e-3)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    for r in ratios:
        assert 1.6 < r < 2.5


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("kind, eps", [(ModelKind.LIMIT, 1e-4),
                                       (ModelKind.REGULARIZED, 1e-4),
                                       (ModelKind.REGULARIZED, 1e-2)])
def test_run_observed_spatial_order(coex_params, scheme, kind, eps):
    # ten steps at one fixed dt on every grid: the time error is common to all
    # grids and cancels in their differences.  Cell centres nest when n is
    # tripled (coarse cell i is fine cell 3i + 1), so at second order the
    # differences between successive grids fall by a factor of 9
    rp, cfg = RegParams(eps), StepperConfig(scheme=scheme)

    def run(n):
        grid = Grid1D(0.0, 1.0, n)
        x = grid.centers
        s = State.trusted(0.0, grid, np.array((1.5 + 0.3 * np.cos(np.pi * x),
                                               0.5 + 0.3 * np.cos(2 * np.pi * x))))
        for _ in range(10):
            out = step(s, 1e-4, coex_params, rp, kind, cfg)
            assert out.accepted
            s = out.state
        rec = diagnostics_record(s, coex_params, rp)
        return s.w, np.array((rec.F, rec.E1, rec.D)), np.array((rec.mass_u, rec.mass_v))

    runs = [run(n) for n in (27, 81, 243, 729)]
    diffs = [(np.abs(c[0] - f[0][:, 1::3]).max(axis=1), np.abs(c[1] - f[1]),
              np.abs(c[2] - f[2])) for c, f in zip(runs, runs[1:])]
    ratios = [np.concatenate([a / b for a, b in zip(d, d_fine)])
              for d, d_fine in zip(diffs, diffs[1:])]
    # the masses move only through the reactions: between the two finest
    # grids their difference, about 1e-11, is at its roundoff floor, so their
    # last ratio is left out
    ratios[-1] = ratios[-1][:-2]
    for r in ratios:
        assert np.all((7.0 < r) & (r < 11.0)), r


def test_mass_identity_per_implicit_step(unit_grid, coex_params):
    # accepted backward-Euler steps move mass only through the mollified
    # reaction, up to the Newton residual
    rng = np.random.default_rng(9)
    rp = RegParams(1e-3, 0.5, 2.0, 2.0)
    st = positive_trig_state(unit_grid, rng)
    dt = 1e-2
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT, dt_init=dt)
    out = step(st, dt, coex_params, rp, ModelKind.REGULARIZED, cfg)
    assert out.accepted
    u1, v1 = out.state.u, out.state.v
    mass_rate = (integrate_values(u1, unit_grid)
                 - integrate_values(st.u, unit_grid)) / dt
    reaction = integrate_values(
        g_mollifier(u1, rp.eps) * (coex_params.lambda1 - u1 + coex_params.a1 * v1),
        unit_grid,
    )
    assert abs(mass_rate - reaction) < cfg.newton_tol * unit_grid.n_cells


def test_determinism(unit_grid, coex_params, reg_params):
    def run():
        st = _smooth_state(unit_grid)
        cfg = StepperConfig()
        return _samples(st, 1.0, coex_params, reg_params,
                        ModelKind.REGULARIZED, cfg, 0.25)

    s1 = run()
    s2 = run()
    assert len(s1) == len(s2)
    for a, b in zip(s1, s2):
        assert a.t == b.t
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)


def test_positivity_and_rejection(unit_grid):
    # a huge explicit step from a state far above carrying capacity drives the
    # prey negative: the step must be rejected, not clamped
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    rp = RegParams(1e-4)
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[30.0], [30.0]]))
    cfg = StepperConfig(dt_init=10.0, dt_min=10.0, dt_max=10.0)
    out = step(st, 10.0, kp, rp, ModelKind.REGULARIZED, cfg)
    assert not out.accepted
    assert out.state is st


def test_dt_underflow_raises_with_partial_log(unit_grid):
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    rp = RegParams(1e-4)
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[30.0], [30.0]]))
    cfg = StepperConfig(dt_init=10.0, dt_min=10.0, dt_max=10.0)
    samples = []
    with pytest.raises(StepperFailure) as exc:
        run_until(st, 50.0, kp, rp, ModelKind.REGULARIZED, cfg, 1.0, samples.append)
    assert exc.value.last_state.t == 0.0
    assert samples == [st]


def test_adaptive_run_recovers_from_rejections(unit_grid):
    # same stiff start, but with room to shrink dt the run completes and every
    # sampled state stays above the positivity floor
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    rp = RegParams(1e-4)
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[30.0], [30.0]]))
    cfg = StepperConfig(dt_init=0.05, dt_min=1e-10, dt_max=0.05)
    samples = _samples(st, 5.0, kp, rp, ModelKind.REGULARIZED, cfg, 0.5)
    assert samples[-1].t == pytest.approx(5.0, abs=1e-6)
    for s in samples:
        assert s.u.min() > cfg.positivity_floor
        assert s.v.min() > cfg.positivity_floor


@pytest.mark.parametrize("scheme", list(Scheme))
def test_returned_states_are_frozen(scheme, unit_grid, coex_params, reg_params):
    # accepted states adopt the solver's output arrays without a copy: they
    # must be read-only and must not change while later steps run
    kind = ModelKind.REGULARIZED
    cfg = StepperConfig(scheme=scheme)
    samples = _samples(_smooth_state(unit_grid), 0.2, coex_params, reg_params,
                       kind, cfg, 0.05)
    out = step(samples[-1], 1e-3, coex_params, reg_params, kind, cfg)
    assert out.accepted
    states = samples + [out.state]
    saved = [(s.w.copy(), s.u.copy(), s.v.copy()) for s in states]
    for s in states:
        assert not s.w.flags.writeable
        assert not s.u.flags.writeable and not s.v.flags.writeable
        with pytest.raises(ValueError):
            s.v[0] = 1.0
        with pytest.raises(ValueError):
            s.w[0, 0] = 1.0
    st = out.state
    for _ in range(5):
        st = step(st, 1e-3, coex_params, reg_params, kind, cfg).state
    for s, (w0, u0, v0) in zip(states, saved):
        assert np.array_equal(s.w, w0)
        assert np.array_equal(s.u, u0) and np.array_equal(s.v, v0)


@pytest.mark.parametrize("scheme, kind", [
    (Scheme.IMEX, ModelKind.LIMIT),             # gbtrf, half-bandwidth 1
    (Scheme.IMEX, ModelKind.REGULARIZED),       # gbtrf, half-bandwidth 2
    (Scheme.FULLY_IMPLICIT, ModelKind.REGULARIZED),  # gbtrf, half-bandwidth 4
])
def test_singular_band_system_rejects_step(scheme, kind, unit_grid, coex_params,
                                           reg_params, monkeypatch):
    # make I - dt*L (IMEX) or I - dt*J (Newton) the zero matrix: LAPACK
    # reports info > 0, which must come back as a rejected step
    dt = 2.0 ** -10

    def zero_operator(out, *args):
        out[out.shape[0] // 2] = 1.0 / dt

    def zero_jacobian(w, *args):  # J = I / dt
        ab = stp._band_storage(stp._HALFWIDTH, w.size)
        ab[2 * stp._HALFWIDTH] = 1.0 / dt
        return ab

    monkeypatch.setattr(stp, "_stiff_bands", zero_operator)
    monkeypatch.setattr(stp, "_jacobian_ab", zero_jacobian)
    st = _smooth_state(unit_grid)
    cfg = StepperConfig(scheme=scheme, dt_init=dt)
    out = step(st, dt, coex_params, reg_params, kind, cfg)
    assert not out.accepted
    assert out.state is st
    assert np.isnan(out.min_u) and np.isnan(out.min_v)
    assert out.newton_iters <= 1  # the first factorization failed


def test_newton_iteration_cap_rejects_step(unit_grid, coex_params, reg_params, monkeypatch):
    # a solve that has not converged after _NEWTON_MAX_ITER corrections is
    # given up, and the step is rejected with the cap as its iteration count
    st = _smooth_state(unit_grid)
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    args = (st, 1e-2, coex_params, reg_params, ModelKind.REGULARIZED, cfg)
    free = step(*args)
    assert free.accepted and free.newton_iters >= 2
    monkeypatch.setattr(stp, "_NEWTON_MAX_ITER", free.newton_iters - 1)
    out = step(*args)
    assert not out.accepted and out.state is st
    assert out.newton_iters == free.newton_iters - 1
    assert np.isnan(out.min_u) and np.isnan(out.min_v)


def test_nonfinite_newton_increment_rejects_step(unit_grid, coex_params, reg_params,
                                                 monkeypatch):
    # an increment that is not finite ends the correction at once: no
    # residual is evaluated at the non-finite iterate it would give, and a
    # fresh Jacobian's failure rejects the step
    calls = []
    monkeypatch.setattr(stp, "compute_rhs", lambda *args: calls.append(1) or compute_rhs(*args))
    monkeypatch.setattr(stp, "dgbtrs", lambda lu, kl, piv, b: b.fill(-np.inf))
    st = _smooth_state(unit_grid)
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    out = step(st, cfg.dt_init, coex_params, reg_params, ModelKind.REGULARIZED, cfg)
    assert not out.accepted and out.newton_iters == 1 and out.jac_builds == 1
    assert len(calls) == 1  # the residual at the start state only


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_result_rejects_step(scheme, bad, unit_grid, coex_params, reg_params,
                                       monkeypatch):
    # a solve that returns a non-finite value anywhere is rejected, even
    # where the rest of the result is positive
    def planted(w, *args):
        wn = w.copy()
        wn[1, 3] = bad
        return wn

    monkeypatch.setattr(stp, "_imex_advance", lambda w, *args: (planted(w), None))
    monkeypatch.setattr(stp, "_newton_advance", lambda w, *args: (planted(w), 1, None, 0, None))
    st = _smooth_state(unit_grid)
    cfg = StepperConfig(scheme=scheme)
    out = step(st, cfg.dt_init, coex_params, reg_params, ModelKind.REGULARIZED, cfg)
    assert not out.accepted and out.state is st
    assert np.isnan(out.min_u) and np.isnan(out.min_v)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_jacobian_matches_finite_differences(kind, coex_params):
    # J from _jacobian_ab against central differences of the interleaved
    # right-hand side, block by block.  The cross blocks are exact; the
    # diagonal blocks freeze the diffusion, thin-film and taxis coefficients
    # at the iterate, which drops lower-order terms of relative size about dx
    grid = Grid1D(0.0, 1.0, 32)
    rp = RegParams(1e-3, 0.5, 2.0, 1.0)
    st = _smooth_state(grid)
    n, dx = grid.n_cells, grid.dx
    w = np.empty(2 * n)
    w[0::2], w[1::2] = st.u, st.v

    def rhs(w):
        du, dv = compute_rhs(np.array((w[0::2], w[1::2])), dx, coex_params, rp, kind)
        out = np.empty(2 * n)
        out[0::2], out[1::2] = du, dv
        return out

    jac = _dense(stp._jacobian_ab(st.w, dx, coex_params, rp, kind), stp._HALFWIDTH)
    jac_fd = np.empty_like(jac)
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = 1e-6 * w[j]
        jac_fd[:, j] = (rhs(w + e) - rhs(w - e)) / (2 * e[j])
    for rows, cols, rtol in ((0, 0, 1e-2), (0, 1, 1e-6), (1, 0, 1e-6), (1, 1, 1e-2)):
        block, block_fd = jac[rows::2, cols::2], jac_fd[rows::2, cols::2]
        assert np.abs(block - block_fd).max() <= rtol * np.abs(block_fd).max()


def _implicit_n1024_state():
    """The fully implicit benchmark's initial condition at IC seed 1."""
    return InitialCondition("random-trig", mode=4, seed=1).build(Grid1D(0.0, 1.0, 1024))


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_implicit_step_at_n1024_is_accepted(dt, coex_params, reg_params):
    # at n = 1024 the Newton residual stalls at a roundoff floor above
    # newton_tol; the increment test still accepts the step, which must agree
    # with IMEX to first order in dt
    st = _implicit_n1024_state()
    kind = ModelKind.REGULARIZED
    outs = [step(st, dt, coex_params, reg_params, kind, StepperConfig(scheme=scheme))
            for scheme in (Scheme.FULLY_IMPLICIT, Scheme.IMEX)]
    assert outs[0].accepted and outs[1].accepted
    assert outs[0].newton_iters < stp._NEWTON_MAX_ITER
    for field in ("u", "v"):
        diff = getattr(outs[0].state, field) - getattr(outs[1].state, field)
        assert np.abs(diff).max() <= dt


def _count_jacobian_builds(monkeypatch, plant=None):
    """Record each _jacobian_ab call; plant(ab) replaces the first result."""
    builds = []
    build = stp._jacobian_ab

    def counted(*args):
        ab = build(*args)
        builds.append(ab)
        return plant(ab) if plant is not None and len(builds) == 1 else ab

    monkeypatch.setattr(stp, "_jacobian_ab", counted)
    return builds


def test_implicit_step_builds_one_jacobian(coex_params, reg_params, monkeypatch):
    # simplified Newton: one Jacobian and one factorization, at the start
    # state, serve every iteration of the n = 1024 start step
    builds = _count_jacobian_builds(monkeypatch)
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    out = step(_implicit_n1024_state(), cfg.dt_init, coex_params, reg_params,
               ModelKind.REGULARIZED, cfg)
    assert out.accepted and out.newton_iters > 1
    assert len(builds) == 1


def test_wrong_first_jacobian_is_rebuilt(coex_params, reg_params, monkeypatch):
    # a planted -10 * (-dt * J) first Jacobian leads the line search to a
    # dead end; the loop rebuilds at the current iterate and the step still
    # converges to the one a correct Jacobian gives
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    args = (_implicit_n1024_state(), cfg.dt_init, coex_params, reg_params,
            ModelKind.REGULARIZED, cfg)
    expected = step(*args)
    builds = _count_jacobian_builds(monkeypatch, plant=lambda ab: -10.0 * ab)
    out = step(*args)
    assert out.accepted and len(builds) == 2
    for field in ("u", "v"):
        diff = getattr(out.state, field) - getattr(expected.state, field)
        assert np.abs(diff).max() <= 10 * cfg.newton_tol


def _record_attempts(monkeypatch):
    """Record every StepOutcome that run_until gets from step()."""
    attempts = []

    def counted(*args):
        out = step(*args)
        attempts.append(out)
        return out

    monkeypatch.setattr(stp, "step", counted)
    return attempts


def test_implicit_run_carries_the_jacobian(coex_params, reg_params, monkeypatch):
    # a fully implicit run keeps its Jacobian across steps, so it builds far
    # fewer Jacobians than it makes attempts, and each attempt reports its own
    builds = _count_jacobian_builds(monkeypatch)
    attempts = _record_attempts(monkeypatch)
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    _samples(_implicit_n1024_state(), 0.01, coex_params, reg_params,
             ModelKind.REGULARIZED, cfg, 0.005)
    assert sum(out.jac_builds for out in attempts) == len(builds)
    assert attempts[0].jac_builds == 1  # the first step has nothing to carry
    assert 10 * len(builds) <= len(attempts)


@pytest.mark.parametrize("factor", [-100.0, 100.0])
def test_wrong_carried_jacobian_is_rebuilt(factor, coex_params, reg_params):
    # a carried Jacobian planted as -100 * J fails the first line search, and
    # one planted as 100 * J converges too slowly to finish in the iteration
    # cap; either way the step rebuilds once and converges to the step a
    # fresh Jacobian gives.  A good carried Jacobian is used as it is
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    kind = ModelKind.REGULARIZED
    first = step(_implicit_n1024_state(), cfg.dt_init, coex_params, reg_params, kind, cfg)
    assert first.accepted and first.newton_iters <= stp._JAC_KEEP_ITERS
    prev = dataclasses.replace(first, slopes=None)  # no error test: Newton alone decides
    args = (first.state, cfg.dt_init, coex_params, reg_params, kind, cfg)
    expected = step(*args)
    assert expected.accepted and expected.jac_builds == 1
    carried = step(*args, prev)
    assert carried.accepted and carried.jac_builds == 0 and carried.jac is first.jac
    jac, norm = first.jac
    out = step(*args, dataclasses.replace(prev, jac=(factor * jac, norm)))
    assert out.accepted and out.jac_builds == 1
    for field in ("u", "v"):
        for o in (carried, out):
            diff = getattr(o.state, field) - getattr(expected.state, field)
            assert np.abs(diff).max() <= 10 * cfg.newton_tol


def test_carried_rhs_changes_no_bit(coex_params, reg_params, monkeypatch):
    # an accepted outcome hands on compute_rhs at its state; an attempt from
    # that very state object starts from it instead of evaluating it again,
    # bitwise as if it had, and an attempt from any other state object
    # ignores it
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    kind = ModelKind.REGULARIZED
    first = step(_implicit_n1024_state(), cfg.dt_init, coex_params, reg_params, kind, cfg)
    st = first.state
    assert first.accepted and first.rhs is not None
    assert np.array_equal(first.rhs, compute_rhs(st.w, st.grid.dx, coex_params, reg_params, kind))
    calls = []
    monkeypatch.setattr(stp, "compute_rhs", lambda *args: calls.append(1) or compute_rhs(*args))

    def attempt(state, dt, prev):
        calls.clear()
        return step(state, dt, coex_params, reg_params, kind, cfg, prev), len(calls)

    wrong = dataclasses.replace(first, rhs=first.rhs + 1.0)
    twin = State(st.t, st.grid, st.w)
    accepted = 0
    for dt in (1e-5, 1e-4, 1e-3):
        out, n_out = attempt(st, dt, first)
        plain, n_plain = attempt(st, dt, dataclasses.replace(first, rhs=None))
        other, n_other = attempt(twin, dt, wrong)
        assert n_out == n_plain - 1 and n_other == n_plain
        for o in (plain, other):
            assert (o.accepted, o.newton_iters, o.err) == (out.accepted, out.newton_iters, out.err)
            assert np.array_equal(o.state.w, out.state.w)
        accepted += out.accepted
    assert accepted >= 2


def test_fine_grid_newton_stops_at_roundoff_floor(coex_params, monkeypatch):
    # at eps = 1e-2, n = 729 the residual and the increment bottom out at a
    # roundoff floor above newton_tol (||dt * J|| is of order dt * eps / dx^4);
    # Newton must stop there, so that only the error test rejects attempts
    grid = Grid1D(0.0, 1.0, 729)
    x = grid.centers
    st = State(0.0, grid, np.array((1.5 + 0.3 * np.cos(np.pi * x),
                                    0.5 + 0.3 * np.cos(2 * np.pi * x))))
    attempts = _record_attempts(monkeypatch)
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    _samples(st, 0.05, coex_params, RegParams(1e-2), ModelKind.REGULARIZED, cfg, 0.05)
    assert attempts and not [out for out in attempts if not out.accepted and out.err is None]


def test_newton_rejects_a_floor_above_the_error_tolerance(coex_params, reg_params):
    # on a domain of length 1e-3 the thin-film Jacobian is so large that the
    # Newton floor eps * (1 + dt * ||J||_1), relative to max(w), reaches the
    # local error tolerance near dt = 1e-8: a step above that dt is rejected,
    # one below it is taken
    grid = Grid1D(0.0, 1e-3, 128)
    st, kind = _smooth_state(grid), ModelKind.REGULARIZED
    jac = stp._jacobian_ab(st.w, grid.dx, coex_params, reg_params, kind)
    norm = float(np.abs(jac[:, stp._HALFWIDTH:-stp._HALFWIDTH]).sum(axis=0).max())
    dt_cap = (stp._FLOOR_MAX / stp._EPS - 1.0) / norm  # the floor equals _FLOOR_MAX
    assert stp._FLOOR_MAX == stp._TOL and 1e-9 < dt_cap < 1e-7
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT, dt_init=1e-9, dt_min=1e-12)
    over = step(st, 2.0 * dt_cap, coex_params, reg_params, kind, cfg)
    assert not over.accepted and over.state is st
    under = step(st, 0.5 * dt_cap, coex_params, reg_params, kind, cfg)
    assert under.accepted


def test_run_keeps_dt_within_the_newton_floor(coex_params, reg_params, monkeypatch):
    # on a domain of length 3e-3 the Newton floor, not the error test, bounds
    # dt; run_until caps dt at _floor_dt of the Jacobian each attempt hands
    # on, so only the first attempt, which has no Jacobian before it, meets
    # the floor, and the run does not alternate acceptance and rejection
    outs = []

    def spy(*args):
        outs.append(step(*args))
        return outs[-1]

    monkeypatch.setattr(stp, "step", spy)
    st = _smooth_state(Grid1D(0.0, 3e-3, 128))
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    _samples(st, 1e-4, coex_params, reg_params, ModelKind.REGULARIZED, cfg, 1e-4)
    assert len(outs) > 20  # dt is bounded far below t_end
    assert not outs[0].accepted and outs[0].newton_iters == 0
    assert all(out.accepted for out in outs[1:])
    assert all(out.dt_used <= stp._floor_dt(out.jac[1]) for out in outs[1:])


def test_newton_always_takes_a_correction(coex_params, reg_params):
    # a newton_tol that every residual meets must still move the solution
    st = _smooth_state(Grid1D(0.0, 1.0, 16))
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT, newton_tol=1e300)
    samples = _samples(st, 0.1, coex_params, reg_params, ModelKind.REGULARIZED, cfg, 0.1)
    final = samples[-1]
    assert final.t == pytest.approx(0.1)
    assert not np.array_equal(final.u, st.u)
    assert not np.array_equal(final.v, st.v)


def test_step_applies_local_error_test(unit_grid, coex_params, reg_params):
    # step() itself judges a fully implicit attempt by the BDF1 estimate
    # dt^2 / (dt + prev.dt_used) * |slopes - prev.slopes| / (_TOL * (1 + |w_new|))
    st = _smooth_state(unit_grid)
    dt, kind = 1e-2, ModelKind.REGULARIZED
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    first = step(st, dt, coex_params, reg_params, kind, cfg)  # no prev: no estimate
    assert first.accepted and first.err is None
    w_old = st.w
    w_new = first.state.w
    assert np.array_equal(first.slopes, (w_new - w_old) / dt)

    sharp = dataclasses.replace(first, slopes=first.slopes + 100.0)
    out = step(st, dt, coex_params, reg_params, kind, cfg, sharp)
    assert not out.accepted and out.state is st
    expected = (0.5 * dt * 100.0 / (stp._TOL * (1.0 + np.abs(w_new)))).max()
    assert out.err > 1.0 and out.err == pytest.approx(expected, rel=1e-9)
    same = step(st, dt, coex_params, reg_params, kind, cfg, first)
    assert same.accepted and same.err == 0.0
    # an outcome without slopes (IMEX) gives no estimate
    blind = step(st, dt, coex_params, reg_params, kind, cfg,
                 dataclasses.replace(first, slopes=None))
    assert blind.accepted and blind.err is None

    imex = step(st, dt, coex_params, reg_params, kind, StepperConfig(), sharp)
    assert imex.accepted and imex.err is None and imex.slopes is None


def test_implicit_run_sizes_steps_by_local_error(coex_params, reg_params, monkeypatch):
    # on the n = 1024 benchmark start every attempt passes Newton and
    # positivity, yet dt falls well below its first value: only the local
    # error estimate rejects attempts and shrinks dt, by a factor in [0.2, 2]
    # per attempt
    attempts = _record_attempts(monkeypatch)
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    samples = _samples(_implicit_n1024_state(), 0.01, coex_params, reg_params,
                       ModelKind.REGULARIZED, cfg, 0.005)
    assert len(samples) == 3 and samples[-1].t == pytest.approx(0.01)
    rejected = [out for out in attempts if not out.accepted]
    assert rejected and all(out.err is not None and out.err > 1.0 for out in rejected)
    dts = [out.dt_used for out in attempts[:-1]]  # the last step is cut to t_end
    assert dts[1] == pytest.approx(stp._GROWTH * dts[0])  # the first step has no prev
    assert min(dts) < 0.2 * dts[0]
    ratios = [b / a for a, b in zip(dts, dts[1:])]
    assert 0.2 * (1 - 1e-12) <= min(ratios) and max(ratios) <= 2.0 * (1 + 1e-12)


def test_limit_imex_run_factors_once_per_dt(unit_grid, coex_params, reg_params, monkeypatch):
    # the limit model's I - dt*L reads no state: a run at constant dt factors
    # it once, and again only for a new dt (the last step, cut to t_end)
    factored = []
    monkeypatch.setattr(stp, "dgbtrf", lambda ab, kl: factored.append(kl) or dgbtrf(ab, kl))
    attempts = _record_attempts(monkeypatch)
    cfg = StepperConfig(dt_init=1e-4, dt_max=1e-4)
    _samples(_smooth_state(unit_grid), 0.03, coex_params, reg_params, ModelKind.LIMIT, cfg, 0.03)
    dts = {out.dt_used for out in attempts}
    assert len(attempts) >= 300 and all(out.accepted for out in attempts)
    assert factored == [1] * len(dts) and len(dts) <= 2
    assert all(out.lu[0][0] == out.dt_used for out in attempts)


def test_carried_limit_factorization_gives_the_fresh_bits(unit_grid, coex_params, reg_params,
                                                          monkeypatch):
    # a step solves with prev's factorization only when everything I - dt*L
    # reads is equal (dt, the grid, D), and then gets a fresh one's bits; a
    # prev from another dt, grid or d1 is not used
    factored = []
    monkeypatch.setattr(stp, "dgbtrf", lambda ab, kl: factored.append(kl) or dgbtrf(ab, kl))
    dt, cfg, kind = 1e-3, StepperConfig(), ModelKind.LIMIT
    st = _smooth_state(unit_grid)
    fresh = step(st, dt, coex_params, reg_params, kind, cfg)
    carried = step(fresh.state, dt, coex_params, reg_params, kind, cfg, fresh)
    assert factored == [1] and carried.lu[1] is fresh.lu[1]
    again = step(fresh.state, dt, coex_params, reg_params, kind, cfg)
    assert np.array_equal(carried.state.w, again.state.w)
    other_kp = dataclasses.replace(coex_params, d1=2.0)
    planted = [step(st, 2 * dt, coex_params, reg_params, kind, cfg),
               step(_smooth_state(Grid1D(0.0, 2.0, unit_grid.n_cells)), dt, coex_params,
                    reg_params, kind, cfg),
               step(st, dt, other_kp, reg_params, kind, cfg)]
    for prev in planted:
        del factored[:]
        out = step(st, dt, coex_params, reg_params, kind, cfg, prev)
        assert factored == [1] and np.array_equal(out.state.w, fresh.state.w)
    # the regularized IMEX and the fully implicit schemes carry no factorization
    assert step(st, dt, coex_params, reg_params, ModelKind.REGULARIZED, cfg).lu is None
    implicit = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    assert step(st, dt, coex_params, reg_params, kind, implicit, fresh).lu is None


def test_run_hands_step_the_last_accepted_outcome(coex_params, reg_params, monkeypatch):
    # run_until's only memory between attempts is the last accepted
    # StepOutcome: None until the first acceptance, then that very object,
    # also for the attempt right after a rejection
    calls = []

    def spy(state, dt, kp, rp, kind, cfg, prev=None):
        out = step(state, dt, kp, rp, kind, cfg, prev)
        calls.append((prev, out))
        return out

    monkeypatch.setattr(stp, "step", spy)
    st = InitialCondition("random-trig", mode=4, seed=1).build(Grid1D(0.0, 1.0, 64))
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    _samples(st, 0.002, coex_params, reg_params, ModelKind.REGULARIZED, cfg, 0.002)
    last = None
    for prev, out in calls:
        assert prev is last
        if out.accepted:
            last = out
    flags = [out.accepted for _, out in calls]
    assert (True, False) in zip(flags, flags[1:])  # a rejection after an acceptance


# ---------------------------------------------------------------------------
# the bindings to numpy's own LAPACK, against scipy.linalg.lapack
# ---------------------------------------------------------------------------

def _band_system(kl, singular, m=97):
    """A random m x m band matrix in F-ordered band storage, and a right-hand side."""
    rng = np.random.default_rng(10 * kl + singular)
    ab = np.zeros((3 * kl + 1, m), order="F")
    ab[kl:] = rng.standard_normal((2 * kl + 1, m))  # random entries: rows get swapped
    if singular:
        ab[:, m // 2] = 0.0  # a zero column: elimination meets a zero pivot there
    return ab, rng.standard_normal(m)


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("kl", [1, 2, 4])
def test_lapack_routines_match_scipy_linalg(kl, singular):
    ab, b = _band_system(kl, singular)
    # factor once (gbtrf), then solve with the factors (gbtrs); scipy's
    # pivots are 0-based, the bindings' LAPACK's own, 1-based
    lu = ab.copy(order="F")
    piv, info = stp.dgbtrf(lu, kl)
    lu_ref, piv_ref, info_ref = lapack.dgbtrf(ab, kl, kl)
    assert info == info_ref and (info > 0) == singular
    assert np.array_equal(lu, lu_ref) and np.array_equal(piv, piv_ref + 1)
    x = b.copy()
    assert stp.dgbtrs(lu, kl, piv, x) == 0
    x_ref, info_ref = lapack.dgbtrs(lu_ref, kl, kl, b, piv_ref)
    assert info_ref == 0
    # past a zero pivot the solve divides by zero: same infs and nans
    assert np.array_equal(x, x_ref, equal_nan=True)
    # the one-call driver gbsv is gbtrf then gbtrs, which the IMEX step
    # calls in its place: the same LU, and the same solution bits
    lu_sv, _, x_sv, info_sv = lapack.dgbsv(kl, kl, ab, b)
    assert info_sv == info
    assert np.array_equal(lu_sv, lu)
    assert np.array_equal(x_sv, b if singular else x)  # gbsv leaves b when singular


# LAPACK's argument numbers of KL and LDAB in each banded routine
@pytest.mark.parametrize("routine, kl_arg, ldab_arg",
                         [("dgbtrf", 3, 6), ("dgbtrs", 3, 7)])
def test_lapack_bindings_pass_64_bit_integers(routine, kl_arg, ldab_arg):
    # kl = -1 reaches LAPACK whole, and so do the high bits of kl = 2^32,
    # which makes the band storage too short for kl, where its low 32 bits
    # would read as a valid 0
    ab, b = _band_system(2, False)
    piv = stp.dgbtrf(ab.copy(order="F"), 2)[0]
    calls = {"dgbtrf": lambda kl: stp.dgbtrf(ab, kl),
             "dgbtrs": lambda kl: stp.dgbtrs(ab, kl, piv, b)}
    for kl, arg in ((-1, kl_arg), (2 ** 32, ldab_arg)):
        with pytest.raises(ValueError) as exc:
            calls[routine](kl)
        assert str(exc.value) == f"LAPACK: illegal value in argument {arg}"


def test_lapack_bindings_reject_mismatched_arrays():
    # checked before any pointer reaches LAPACK: a wrong dtype or length,
    # and band storage that is not F-contiguous
    ab, b = _band_system(2, False)
    piv = stp.dgbtrf(ab.copy(order="F"), 2)[0]
    bad = [lambda: stp.dgbtrf(ab.astype(np.float32), 2),
           lambda: stp.dgbtrs(ab, 2, piv, b[:-1]),
           lambda: stp.dgbtrs(ab, 2, piv, np.append(b, 0.0)),
           lambda: stp.dgbtrs(ab, 2, piv, b.astype(np.float32)),
           lambda: stp.dgbtrs(ab.astype(np.float32), 2, piv, b),
           lambda: stp.dgbtrs(ab, 2, piv[:-1], b)]
    for call in bad:
        with pytest.raises(ValueError, match="float64 and of matching lengths"):
            call()
    for call in (lambda: stp.dgbtrf(np.ascontiguousarray(ab), 2),
                 lambda: stp.dgbtrs(np.ascontiguousarray(ab), 2, piv, b)):
        with pytest.raises(TypeError, match="not C contiguous"):
            call()


def test_lapack_routine_lookup_failure_names_the_symbol():
    with pytest.raises(ImportError, match="dnosuch.*scipy_dnosuch_64_.*_umath_linalg"):
        stp._lapack_routine("dnosuch")


def test_cli_import_leaves_scipy_linalg_unloaded():
    # the stepper's LAPACK is numpy's own: no run loads any part of scipy
    code = ("import json, pesim.stepper, sys; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    assert json.loads(run_python_with_src(code)) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_starts_no_blas_threads():
    # numpy loads OpenBLAS, whose LAPACK pesim.stepper calls
    code = ("import json, os, pesim.stepper; "
            "print(json.dumps([len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS')]))")
    threads, value = json.loads(run_python_with_src(code, OPENBLAS_NUM_THREADS=None))
    assert (threads, value) == (1, "1")
    # a value set by the user is kept; its thread count depends on the cores
    _, value = json.loads(run_python_with_src(code, OPENBLAS_NUM_THREADS="2"))
    assert value == "2"


# ---------------------------------------------------------------------------
# reference: the banded assembly as dicts of bands (d[i] = A[i, i + k]),
# solved by scipy.linalg.solve_banded, as the stepper did before it wrote
# LAPACK storage directly
# ---------------------------------------------------------------------------

def _ref_diags_to_ab(diags, l, u, n):
    ab = np.zeros((l + u + 1, n))
    for g, d in diags.items():
        if g >= 0:
            ab[u - g, g:n] = d[: n - g]
        else:
            ab[u - g, : n + g] = d[-g:]
    return ab


def _ref_tri_bands(sigma, c_face, dx):
    s = sigma / (dx * dx)
    return {-1: s * c_face[:-1], 0: -s * (c_face[:-1] + c_face[1:]), 1: s * c_face[1:]}


def _ref_penta_bands(tf_face, dx):
    n = tf_face.shape[0] - 1
    inv2 = 1.0 / (dx * dx)
    m = tf_face * inv2
    tl, td, tu = m[:-1], -(m[:-1] + m[1:]), m[1:]
    zl = np.full(n, inv2)
    zl[0] = 0.0
    zd = np.full(n, -2.0 * inv2)
    zd[0] = zd[-1] = -inv2
    zu = np.full(n, inv2)
    zu[-1] = 0.0
    p_m2, p_m1, p_p1, p_p2 = (np.zeros(n) for _ in range(4))
    p_0 = td * zd
    p_m2[1:] = tl[1:] * zl[:-1]
    p_m1[1:] = tl[1:] * zd[:-1] + td[1:] * zl[1:]
    p_0[1:] += tl[1:] * zu[:-1]
    p_0[:-1] += tu[:-1] * zl[1:]
    p_p1[:-1] = td[:-1] * zu[:-1] + tu[:-1] * zd[1:]
    p_p2[:-2] = tu[:-2] * zu[1:-1]
    return {-2: -p_m2, -1: -p_m1, 0: -p_0, 1: -p_p1, 2: -p_p2}


def _ref_operator_bands(w, dx, d_coeff, n_exp, rp, kind):
    bands = _ref_tri_bands(1.0, diffusion_face_coeff(w, d_coeff, rp, kind), dx)
    if kind is ModelKind.REGULARIZED:
        for k, arr in _ref_penta_bands(thinfilm_face_coeff(w, n_exp, rp), dx).items():
            bands[k] = bands[k] + arr if k in bands else arr.copy()
    return bands


def _ref_imex(u, v, dx, dt, kp, rp, kind):
    ux, vx = face_gradient(u, dx), face_gradient(v, dx)
    ru, rv = reaction_terms(np.array((u, v)), kp, rp, kind)
    flux_xu = -kp.chi1 * taxis_face_coeff(u, rp.n1, rp, kind) * vx
    flux_xv = kp.chi2 * taxis_face_coeff(v, rp.n2, rp, kind) * ux
    rhs_u = u + dt * ((flux_xu[1:] - flux_xu[:-1]) / dx + ru)
    rhs_v = v + dt * ((flux_xv[1:] - flux_xv[:-1]) / dx + rv)
    width = 2 if kind is ModelKind.REGULARIZED else 1
    new = []
    for w, rhs, d_coeff, n_exp in ((u, rhs_u, kp.d1, rp.n1), (v, rhs_v, kp.d2, rp.n2)):
        diags = {k: -dt * arr for k, arr in _ref_operator_bands(w, dx, d_coeff, n_exp,
                                                                rp, kind).items()}
        diags[0] = diags[0] + 1.0
        # band LU then solve, as the step does at both widths (solve_banded
        # would call gtsv on the tridiagonal limit system)
        ab = _ref_diags_to_ab(diags, width, width, w.shape[0])
        lu, piv, info = lapack.dgbtrf(np.vstack((np.zeros((width, w.shape[0])), ab)), width, width)
        assert info == 0
        new.append(lapack.dgbtrs(lu, width, width, rhs, piv)[0])
    return new[0], new[1], 0


def _ref_jacobian_ab(u, v, dx, dt, kp, rp, kind):
    n = u.shape[0]
    juu = _ref_operator_bands(u, dx, kp.d1, rp.n1, rp, kind)
    jvv = _ref_operator_bands(v, dx, kp.d2, rp.n2, rp, kind)
    juv = _ref_tri_bands(-kp.chi1, taxis_face_coeff(u, rp.n1, rp, kind), dx)
    jvu = _ref_tri_bands(kp.chi2, taxis_face_coeff(v, rp.n2, rp, kind), dx)
    druu, druv, drvu, drvv = reaction_jacobian(np.array((u, v)), kp, rp, kind)
    juu[0], jvv[0], juv[0], jvu[0] = juu[0] + druu, jvv[0] + drvv, juv[0] + druv, jvu[0] + drvu
    diags = {g: np.zeros(2 * n) for g in range(-10, 11)}
    for bands, parity, shift in ((juu, 0, 0), (jvv, 1, 0), (juv, 0, 1), (jvu, 1, -1)):
        for k, arr in bands.items():
            diags[2 * k + shift][parity::2] += -dt * arr
    diags[0] += 1.0
    diags = {g: d for g, d in diags.items() if -5 <= g <= 5}
    return _ref_diags_to_ab(diags, 5, 5, 2 * n)


def _ref_newton(u, v, dx, dt, kp, rp, kind, cfg):
    def residual(uc, vc):
        du, dv = compute_rhs(np.array((uc, vc)), dx, kp, rp, kind)
        res = np.empty(2 * u.shape[0])
        res[0::2], res[1::2] = uc - u - dt * du, vc - v - dt * dv
        return res

    def tolerance(jac):  # newton_tol, or the floor eps * max(w) * (1 + ||dt * J||_1)
        dt_jac = jac.copy()
        dt_jac[5] -= 1.0  # jac holds I - dt * J
        floor = np.finfo(float).eps * max(u.max(), v.max())
        return max(cfg.newton_tol, floor * (1.0 + np.abs(dt_jac).sum(axis=0).max()))

    uc, vc = u, v
    res = residual(uc, vc)
    norm = float(np.abs(res).max())
    jac, built = _ref_jacobian_ab(u, v, dx, dt, kp, rp, kind), 1  # frozen at the start
    tol = tolerance(jac)
    for it in range(1, stp._NEWTON_MAX_ITER + 1):
        while True:
            delta = solve_banded((5, 5), jac, res)
            if np.abs(delta).max() <= tol:  # converged on the increment
                ut, vt = uc - delta[0::2], vc - delta[1::2]
                if ut.min() > 0.0 and vt.min() > 0.0:
                    return ut, vt, it
            lam, found = 1.0, False
            for _ in range(10):
                ut, vt = uc - lam * delta[0::2], vc - lam * delta[1::2]
                if ut.min() > 0.0 and vt.min() > 0.0:
                    res_t = residual(ut, vt)
                    norm_t = float(np.abs(res_t).max())
                    if np.isfinite(norm_t) and norm_t < norm:
                        found = True
                        break
                lam *= 0.5
            if found:
                break
            if built == it:  # no decrease with a fresh Jacobian either
                return None
            jac, built = _ref_jacobian_ab(uc, vc, dx, dt, kp, rp, kind), it
            tol = tolerance(jac)
        uc, vc, res, norm = ut, vt, res_t, norm_t
        if norm <= tol:
            return uc, vc, it
    return None


# n2 = 1 takes the exponents row by row, n1 = n2 = 2 (shipped) as one scalar
@pytest.mark.parametrize("n, n2", [(128, 1.0), (1024, 1.0), (128, 2.0), (1024, 2.0)],
                         ids=["128", "1024", "128-n2=2", "1024-n2=2"])
@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_step_matches_dict_band_reference(scheme, kind, n, n2, coex_params):
    rng = np.random.default_rng(n)
    grid = Grid1D(0.0, 3.0, n)  # dx is no power of two, so every product rounds
    rp = RegParams(1e-3, 0.5, 2.0, n2)
    st = positive_trig_state(grid, rng)
    u, v = st.u, st.v
    reference = _ref_imex if scheme is Scheme.IMEX else _ref_newton
    accepted = 0
    for dt in (1e-6, 1e-5, 1e-3):
        cfg = StepperConfig(scheme=scheme, dt_init=dt, dt_min=dt)
        out = step(st, dt, coex_params, rp, kind, cfg)
        ref = reference(u, v, grid.dx, dt, coex_params, rp, kind, *(
            () if scheme is Scheme.IMEX else (cfg,)))
        assert out.accepted == (ref is not None)
        if ref is not None:
            accepted += 1
            assert np.array_equal(out.state.u, ref[0])
            assert np.array_equal(out.state.v, ref[1])
            assert out.newton_iters == ref[2]
    assert accepted >= 2
