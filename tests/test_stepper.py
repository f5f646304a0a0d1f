import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded
from scipy.optimize import fsolve

import pesim.stepper as stp
from pesim.experiments import InitialCondition
from pesim.grid import Field, Grid1D, integrate_values
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
    samples = run_until(st, 2.0, coex_params, reg_params,
                        ModelKind.REGULARIZED, StepperConfig(), 1.0)
    assert len(samples) == 1 and samples[0] is st


def test_run_until_samples_every_multiple(coex_params, reg_params):
    # steps of 0.05 would pass five sample times each; every step is cut to
    # land on the next one, so no multiple of sample_every is skipped
    grid = Grid1D(0.0, 1.0, 32)
    cfg = StepperConfig(dt_init=0.05, dt_max=0.05)
    samples = run_until(_smooth_state(grid), 0.5, coex_params, reg_params,
                        ModelKind.LIMIT, cfg, 0.01)
    assert len(samples) == 51
    for k, s in enumerate(samples):
        assert abs(s.t - k * 0.01) < 1e-12


def test_homogeneous_run_matches_rk4_oracle(homogeneous_ode_run):
    final = homogeneous_ode_run.states[-1]
    uo, vo = homogeneous_ode_run.extras["oracle_u"], homogeneous_ode_run.extras["oracle_v"]
    assert abs(final.u.values[0] - uo) < 1e-6
    assert abs(final.v.values[0] - vo) < 1e-6


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
        return s.u.values

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
    mass_rate = (integrate_values(u1, unit_grid)
                 - integrate_values(st.u.values, unit_grid)) / dt
    reaction = integrate_values(
        g_mollifier(u1, rp.eps) * (coex_params.lambda1 - u1 + coex_params.a1 * v1),
        unit_grid,
    )
    assert abs(mass_rate - reaction) < cfg.newton_tol * unit_grid.n_cells


def test_determinism(unit_grid, coex_params, reg_params):
    def run():
        st = _smooth_state(unit_grid)
        cfg = StepperConfig()
        return run_until(st, 1.0, coex_params, reg_params,
                         ModelKind.REGULARIZED, cfg, 0.25)

    s1 = run()
    s2 = run()
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
    samples = run_until(st, 5.0, kp, rp, ModelKind.REGULARIZED, cfg, 0.5)
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
    samples = run_until(_smooth_state(unit_grid), 0.2, coex_params, reg_params,
                        kind, cfg, 0.05)
    out = step(samples[-1], 1e-3, coex_params, reg_params, kind, cfg)
    assert out.accepted
    states = samples + [out.state]
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
    assert out.newton_iters <= 1  # the first factorization failed


def test_jacobian_matches_finite_differences(coex_params):
    # -dt * J from _jacobian_ab against central differences of the interleaved
    # right-hand side, block by block.  The cross blocks are exact; the
    # diagonal blocks freeze the diffusion, thin-film and taxis coefficients
    # at the iterate, which drops lower-order terms of relative size about dx
    grid = Grid1D(0.0, 1.0, 32)
    rp = RegParams(1e-3, 0.5, 2.0, 1.0)
    kind = ModelKind.REGULARIZED
    st = _smooth_state(grid)
    n, dx = grid.n_cells, grid.dx
    w = np.empty(2 * n)
    w[0::2], w[1::2] = st.u.values, st.v.values

    def rhs(w):
        du, dv = compute_rhs(w[0::2], w[1::2], dx, coex_params, rp, kind)
        out = np.empty(2 * n)
        out[0::2], out[1::2] = du, dv
        return out

    jac = -_dense(stp._jacobian_ab(st.u.values, st.v.values, dx, 1.0, coex_params, rp, kind),
                  stp._HALFWIDTH)
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
        diff = getattr(outs[0].state, field).values - getattr(outs[1].state, field).values
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
        diff = getattr(out.state, field).values - getattr(expected.state, field).values
        assert np.abs(diff).max() <= 10 * cfg.newton_tol


def test_newton_always_takes_a_correction(coex_params, reg_params):
    # a newton_tol that every residual meets must still move the solution
    st = _smooth_state(Grid1D(0.0, 1.0, 16))
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT, newton_tol=1e300)
    samples = run_until(st, 0.1, coex_params, reg_params, ModelKind.REGULARIZED, cfg, 0.1)
    final = samples[-1]
    assert final.t == pytest.approx(0.1)
    assert not np.array_equal(final.u.values, st.u.values)
    assert not np.array_equal(final.v.values, st.v.values)


def test_implicit_run_sizes_steps_by_local_error(coex_params, reg_params, monkeypatch):
    # on the n = 1024 benchmark start every attempt passes Newton and
    # positivity, yet dt falls well below its first value: only the local
    # error estimate shrinks dt, by a factor in [0.2, 2] per attempt
    attempts = []

    def counted(*args):
        out = step(*args)
        attempts.append(out)
        return out

    monkeypatch.setattr(stp, "step", counted)
    cfg = StepperConfig(scheme=Scheme.FULLY_IMPLICIT)
    samples = run_until(_implicit_n1024_state(), 0.01, coex_params, reg_params,
                        ModelKind.REGULARIZED, cfg, 0.005)
    assert len(samples) == 3 and samples[-1].t == pytest.approx(0.01)
    assert all(out.accepted for out in attempts)
    dts = [out.dt_used for out in attempts[:-1]]  # the last step is cut to t_end
    assert dts[1] == pytest.approx(stp._GROWTH * dts[0])  # the first step has no history
    assert min(dts) < 0.2 * dts[0]
    ratios = [b / a for a, b in zip(dts, dts[1:])]
    assert 0.2 * (1 - 1e-12) <= min(ratios) and max(ratios) <= 2.0 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the LAPACK routines, loaded from scipy's extension file without scipy.linalg
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("kl", [1, 2, 4])
def test_lapack_routines_match_scipy_linalg(kl, singular):
    m = 97
    rng = np.random.default_rng(10 * kl + singular)
    ab = np.zeros((3 * kl + 1, m))
    ab[kl:] = rng.standard_normal((2 * kl + 1, m))  # random entries: rows get swapped
    if singular:
        ab[:, m // 2] = 0.0  # a zero column: elimination meets a zero pivot there
    b = rng.standard_normal((m, 1))
    if kl == 1:  # tridiagonal: gtsv, called in place as stepper._solve_shifted does
        def gtsv(routine):
            a, rhs = ab.copy(), b.copy()
            return routine(a[3, :-1], a[2], a[1, 1:], rhs, 1, 1, 1, 1)[3:]
        (x, info), (x_ref, info_ref) = gtsv(stp.dgtsv), gtsv(lapack.dgtsv)
        assert info == info_ref and (info > 0) == singular
        assert np.array_equal(x, x_ref)
        return
    # wider bands: factor once (gbtrf), then solve with the factors (gbtrs)
    lu, piv, info = stp.dgbtrf(np.array(ab, order="F"), kl, kl)
    lu_ref, piv_ref, info_ref = lapack.dgbtrf(np.array(ab, order="F"), kl, kl)
    assert info == info_ref and (info > 0) == singular
    assert np.array_equal(lu, lu_ref) and np.array_equal(piv, piv_ref)
    x, info = stp.dgbtrs(lu, kl, kl, b, piv)
    x_ref, info_ref = lapack.dgbtrs(lu_ref, kl, kl, b, piv_ref)
    assert info == info_ref == 0
    # past a zero pivot the solve divides by zero: same infs and nans
    assert np.array_equal(x, x_ref, equal_nan=True)
    if not singular:  # bitwise the solution of the one-call driver gbsv
        assert np.array_equal(x, lapack.dgbsv(kl, kl, np.array(ab, order="F"), b)[2])


def test_cli_import_leaves_scipy_linalg_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the extension module itself registers as scipy.linalg._flapack; any
    # import through scipy.linalg would also load the package
    code = ("import json, pesim.cli, sys; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.linalg'))))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded = json.loads(res.stdout)
    assert "scipy.linalg" not in loaded, loaded


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

    uc, vc = u, v
    res = residual(uc, vc)
    norm = float(np.abs(res).max())
    jac, built = _ref_jacobian_ab(u, v, dx, dt, kp, rp, kind), 1  # frozen at the start
    for it in range(1, stp._NEWTON_MAX_ITER + 1):
        while True:
            delta = solve_banded((5, 5), jac, res)
            if np.abs(delta).max() <= cfg.newton_tol:  # converged on the increment
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
        uc, vc, res, norm = ut, vt, res_t, norm_t
        if norm <= cfg.newton_tol:
            return uc, vc, it
    return None


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
