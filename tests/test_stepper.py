import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.optimize import fsolve

import pesim.stepper as stp
from pesim.grid import Field, Grid1D, integrate, integrate_values
from pesim.model import (
    KineticParams,
    ModelKind,
    RegParams,
    State,
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
    run_until,
    step,
)
from pesim.experiments import lv_rk4_oracle
from conftest import positive_trig_state


def _smooth_state(grid, t=0.0):
    s = grid.centers
    return State(
        t,
        Field(grid, 1.5 + 0.3 * np.cos(np.pi * s)),
        Field(grid, 0.8 + 0.2 * np.cos(2 * np.pi * s)),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt_init=1e-3, dt_min=2e-3, dt_max=1e-2)
    with pytest.raises(ValueError):
        StepperConfig(safety=1.5)


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
    for kind in ModelKind:
        kl = 2 if kind is ModelKind.REGULARIZED else 1
        for _ in range(5):
            w = positive_trig_state(grid, rng).u.values
            ab = stp._band_storage(kl, n)
            stp._stiff_bands(stp._band_slots(ab, kl, n, kl), w, grid.dx,
                             coex_params.d1, rp.n1, rp, kind)
            mat = _dense(ab, kl)
            flux = diffusion_face_coeff(w, coex_params.d1, rp, kind) * face_gradient(w, grid.dx)
            if kind is ModelKind.REGULARIZED:
                flux -= thinfilm_face_coeff(w, rp.n1, rp) * face_third_derivative(w, grid.dx)
            direct = (flux[1:] - flux[:-1]) / grid.dx
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(mat @ w - direct).max() < 1e-11 * scale


def test_steady_state_step_unchanged(unit_grid, coex_params, reg_params):
    st = State(0.0, Field.constant(unit_grid, 1.5), Field.constant(unit_grid, 0.5))
    for scheme in Scheme:
        cfg = StepperConfig(scheme=scheme)
        out = step(st, 0.05, coex_params, reg_params, ModelKind.REGULARIZED, cfg)
        assert out.accepted
        assert np.abs(out.state.u.values - 1.5).max() < cfg.newton_tol
        assert np.abs(out.state.v.values - 0.5).max() < cfg.newton_tol


def test_fully_implicit_matches_backward_euler_oracle(unit_grid):
    # homogeneous limit-system step reduces to scalar backward Euler
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    rp = RegParams(1e-4)
    st = State(0.0, Field.constant(unit_grid, 1.0), Field.constant(unit_grid, 1.0))
    dt = 1e-3
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT, dt_init=dt)
    out = step(st, dt, kp, rp, ModelKind.LIMIT, cfg)
    assert out.accepted
    u1 = out.state.u.values[0]
    v1 = out.state.v.values[0]
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
    assert np.all(out.state.u.values == u1)


def test_schemes_agree_for_small_dt(unit_grid, coex_params, reg_params):
    st = _smooth_state(unit_grid)
    dt = 1e-5
    outs = []
    for scheme in Scheme:
        cfg = StepperConfig(scheme=scheme, dt_init=dt, dt_min=1e-12)
        outs.append(step(st, dt, coex_params, reg_params, ModelKind.REGULARIZED, cfg))
    du = np.abs(outs[0].state.u.values - outs[1].state.u.values).max()
    dv = np.abs(outs[0].state.v.values - outs[1].state.v.values).max()
    assert du < 1e-7 and dv < 1e-7


def test_run_until_zero_span(unit_grid, coex_params, reg_params):
    st = _smooth_state(unit_grid, t=2.0)
    final, samples = run_until(st, 2.0, coex_params, reg_params,
                               ModelKind.REGULARIZED, StepperConfig(), 1.0)
    assert final is st
    assert len(samples) == 1 and samples[0].t == 2.0


def test_homogeneous_run_matches_rk4_oracle(unit_grid, coex_params, reg_params):
    st = State(0.0, Field.constant(unit_grid, 1.0), Field.constant(unit_grid, 1.0))
    cfg = StepperConfig(scheme=Scheme.IMEX, dt_init=1e-4, dt_max=1e-4, dt_min=1e-12)
    final, _ = run_until(st, 10.0, coex_params, reg_params, ModelKind.LIMIT, cfg, 1.0)
    uo, vo = lv_rk4_oracle(1.0, 1.0, coex_params, 10.0, dt=1e-5)
    assert abs(final.u.values[0] - uo) < 1e-6
    assert abs(final.v.values[0] - vo) < 1e-6


@pytest.mark.parametrize("scheme", list(Scheme))
def test_first_order_temporal_convergence(scheme, coex_params):
    grid = Grid1D(0.0, 1.0, 32)
    rp = RegParams(1e-4, 0.5, 2.0, 2.0)
    st = _smooth_state(grid)
    t_end = 0.1

    def final_u(dt):
        cfg = StepperConfig(scheme=scheme, dt_init=dt, dt_min=dt * 0.5, dt_max=dt,
                            newton_tol=1e-12)
        final, _ = run_until(st, t_end, coex_params, rp, ModelKind.REGULARIZED,
                             cfg, t_end)
        return final.u.values

    ref = final_u(7.8125e-5)
    errs = [np.abs(final_u(dt) - ref).max() for dt in (4e-3, 2e-3, 1e-3)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    for r in ratios:
        assert 1.6 < r < 2.5


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
    u1, v1 = out.state.u.values, out.state.v.values
    mass_rate = (integrate(out.state.u) - integrate(st.u)) / dt
    reaction = integrate_values(
        g_mollifier(u1, rp.eps) * (coex_params.lambda1 - u1 + coex_params.a1 * v1),
        unit_grid,
    )
    assert abs(mass_rate - reaction) < cfg.newton_tol * unit_grid.n_cells


def test_determinism(unit_grid, coex_params, reg_params):
    def run():
        st = _smooth_state(unit_grid)
        cfg = StepperConfig()
        final, samples = run_until(st, 1.0, coex_params, reg_params,
                                   ModelKind.REGULARIZED, cfg, 0.25)
        return final, samples

    f1, s1 = run()
    f2, s2 = run()
    assert len(s1) == len(s2)
    for a, b in zip(s1, s2):
        assert a.t == b.t
        assert np.array_equal(a.u.values, b.u.values)
        assert np.array_equal(a.v.values, b.v.values)


def test_positivity_and_rejection(unit_grid):
    # a huge explicit step from a state far above carrying capacity drives the
    # prey negative: the step must be rejected, not clamped
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    rp = RegParams(1e-4)
    st = State(0.0, Field.constant(unit_grid, 30.0), Field.constant(unit_grid, 30.0))
    cfg = StepperConfig(dt_init=10.0, dt_min=10.0, dt_max=10.0)
    out = step(st, 10.0, kp, rp, ModelKind.REGULARIZED, cfg)
    assert not out.accepted
    assert out.state is st


def test_dt_underflow_raises_with_partial_log(unit_grid):
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    rp = RegParams(1e-4)
    st = State(0.0, Field.constant(unit_grid, 30.0), Field.constant(unit_grid, 30.0))
    cfg = StepperConfig(dt_init=10.0, dt_min=10.0, dt_max=10.0)
    with pytest.raises(StepperFailure) as exc:
        run_until(st, 50.0, kp, rp, ModelKind.REGULARIZED, cfg, 1.0)
    assert exc.value.last_state.t == 0.0
    assert len(exc.value.samples) == 1


def test_adaptive_run_recovers_from_rejections(unit_grid):
    # same stiff start, but with room to shrink dt the run completes and every
    # sampled state stays above the positivity floor
    kp = KineticParams(1, 1, 0.05, 0.05, 1, 1, 1, 1)
    rp = RegParams(1e-4)
    st = State(0.0, Field.constant(unit_grid, 30.0), Field.constant(unit_grid, 30.0))
    cfg = StepperConfig(dt_init=0.05, dt_min=1e-10, dt_max=0.05)
    final, samples = run_until(st, 5.0, kp, rp, ModelKind.REGULARIZED, cfg, 0.5)
    assert final.t == pytest.approx(5.0, abs=1e-6)
    for s in samples:
        assert s.u.min() > cfg.positivity_floor
        assert s.v.min() > cfg.positivity_floor


@pytest.mark.parametrize("scheme", list(Scheme))
def test_returned_states_are_frozen(scheme, unit_grid, coex_params, reg_params):
    # accepted states adopt the solver's output arrays without a copy: they
    # must be read-only and must not change while later steps run
    kind = ModelKind.REGULARIZED
    cfg = StepperConfig(scheme=scheme)
    final, samples = run_until(_smooth_state(unit_grid), 0.2, coex_params, reg_params,
                               kind, cfg, 0.05)
    out = step(final, 1e-3, coex_params, reg_params, kind, cfg)
    assert out.accepted
    states = samples + [final, out.state]
    saved = [(s.u.values.copy(), s.v.values.copy()) for s in states]
    for s in states:
        assert not s.u.values.flags.writeable and not s.v.values.flags.writeable
        with pytest.raises(ValueError):
            s.v.values[0] = 1.0
    st = out.state
    for _ in range(5):
        st = step(st, 1e-3, coex_params, reg_params, kind, cfg).state
    for s, (u0, v0) in zip(states, saved):
        assert np.array_equal(s.u.values, u0) and np.array_equal(s.v.values, v0)


@pytest.mark.parametrize("scheme, kind", [
    (Scheme.IMEX, ModelKind.LIMIT),             # gtsv
    (Scheme.IMEX, ModelKind.REGULARIZED),       # gbsv, half-bandwidth 2
    (Scheme.FULLY_IMPLICIT, ModelKind.REGULARIZED),  # gbsv, half-bandwidth 5
])
def test_singular_band_system_rejects_step(scheme, kind, unit_grid, coex_params,
                                           reg_params, monkeypatch):
    # make I - dt*L (IMEX) or I - dt*J (Newton) the zero matrix: LAPACK
    # reports info > 0, which must come back as a rejected step
    dt = 2.0 ** -10

    def zero_operator(out, *args):
        out[out.shape[0] // 2] = 1.0 / dt

    def zero_jacobian(u, *args):
        ab = stp._band_storage(stp._HALFWIDTH, 2 * u.shape[0])
        ab[2 * stp._HALFWIDTH] = -1.0
        return ab

    monkeypatch.setattr(stp, "_stiff_bands", zero_operator)
    monkeypatch.setattr(stp, "_jacobian_ab", zero_jacobian)
    st = _smooth_state(unit_grid)
    cfg = StepperConfig(scheme=scheme, dt_init=dt)
    out = step(st, dt, coex_params, reg_params, kind, cfg)
    assert not out.accepted
    assert out.state is st
    assert np.isnan(out.min_u) and np.isnan(out.min_v)


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
    ru, rv = reaction_terms(u, v, kp, rp, kind)
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
        new.append(solve_banded((width, width), _ref_diags_to_ab(diags, width, width, w.shape[0]),
                                rhs))
    return new[0], new[1], 0


def _ref_jacobian_ab(u, v, dx, dt, kp, rp, kind):
    n = u.shape[0]
    juu = _ref_operator_bands(u, dx, kp.d1, rp.n1, rp, kind)
    jvv = _ref_operator_bands(v, dx, kp.d2, rp.n2, rp, kind)
    juv = _ref_tri_bands(-kp.chi1, taxis_face_coeff(u, rp.n1, rp, kind), dx)
    jvu = _ref_tri_bands(kp.chi2, taxis_face_coeff(v, rp.n2, rp, kind), dx)
    druu, druv, drvu, drvv = reaction_jacobian(u, v, kp, rp, kind)
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
        du, dv = compute_rhs(uc, vc, dx, kp, rp, kind)
        res = np.empty(2 * u.shape[0])
        res[0::2], res[1::2] = uc - u - dt * du, vc - v - dt * dv
        return res

    uc, vc = u.copy(), v.copy()
    res = residual(uc, vc)
    norm = float(np.abs(res).max())
    for it in range(cfg.newton_max_iter):
        if norm <= cfg.newton_tol:
            return uc, vc, it
        delta = solve_banded((5, 5), _ref_jacobian_ab(uc, vc, dx, dt, kp, rp, kind), res)
        lam = 1.0
        for _ in range(10):
            ut, vt = uc - lam * delta[0::2], vc - lam * delta[1::2]
            if ut.min() > 0.0 and vt.min() > 0.0:
                res_t = residual(ut, vt)
                norm_t = float(np.abs(res_t).max())
                if np.isfinite(norm_t) and norm_t < norm:
                    break
            lam *= 0.5
        else:
            return None
        uc, vc, res, norm = ut, vt, res_t, norm_t
    return (uc, vc, cfg.newton_max_iter) if norm <= cfg.newton_tol else None


@pytest.mark.parametrize("n", [128, 1024])
@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_step_matches_dict_band_reference(scheme, kind, n, coex_params):
    rng = np.random.default_rng(n)
    grid = Grid1D(0.0, 3.0, n)  # dx is no power of two, so every product rounds
    rp = RegParams(1e-3, 0.5, 2.0, 1.0)
    st = positive_trig_state(grid, rng)
    u, v = st.u.values, st.v.values
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
            assert np.array_equal(out.state.u.values, ref[0])
            assert np.array_equal(out.state.v.values, ref[1])
            assert out.newton_iters == ref[2]
    assert accepted >= 2
