import math

import numpy as np
import pytest

from pesim.functionals import (
    CosineBumpTestFunction,
    DiagnosticsRecord,
    Regime,
    conditional_y,
    cross_entropy_productions,
    diagnostics_record,
    dissipation_D,
    dissipation_rate_D1,
    dissipation_rate_D2,
    entropy_E1,
    entropy_E2,
    m_infinity,
    phi,
    quasi_entropy_F,
    steady_states,
    weak_residual,
)
from pesim.grid import Grid1D, diff1_values, diff2_values, integrate_values
from pesim.model import (
    KineticParams,
    ModelKind,
    RegParams,
    State,
    face_gradient,
    taxis_face_coeff,
)
from conftest import positive_trig_state


def _kp(**kw):
    base = dict(d1=1.0, d2=1.0, chi1=0.05, chi2=0.05, a1=1.0, a2=1.0,
                lambda1=1.0, lambda2=2.0)
    base.update(kw)
    return KineticParams(**base)


# ---------------------------------------------------------------------------
# steady states and the mass bound
# ---------------------------------------------------------------------------

def test_steady_states_coexistence():
    ss = steady_states(_kp())
    assert ss.regime is Regime.COEXISTENCE
    assert ss.u_star == 1.5 and ss.v_star == 0.5
    # the reaction brackets vanish at the coexistence state
    kp = _kp(a1=0.7, a2=0.3, lambda1=1.1, lambda2=2.3)
    ss = steady_states(kp)
    assert abs(kp.lambda1 - ss.u_star + kp.a1 * ss.v_star) < 1e-14
    assert abs(kp.lambda2 - ss.v_star - kp.a2 * ss.u_star) < 1e-14


def test_steady_states_extinction_and_tie():
    ss = steady_states(_kp(lambda1=2.0, lambda2=1.0))
    assert ss.regime is Regime.EXTINCTION
    assert (ss.u_star, ss.v_star) == (2.0, 0.0)
    tie = steady_states(_kp(lambda1=1.0, lambda2=1.0, a2=1.0))
    assert tie.regime is Regime.EXTINCTION
    assert (tie.u_star, tie.v_star) == (1.0, 0.0)


def test_m_infinity_unit_parameters():
    # independent evaluation of the closed form at unit rates
    r = 1.0 / (2.0 * math.sqrt(3.0))
    expected = 0.5 * (1.0 + r + 1.0 + r) ** 2 + 0.5 * (1.0 + r + 1.0) ** 2
    kp = _kp(lambda1=1.0, lambda2=1.0)
    got = m_infinity(kp, 1.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(5.9404, abs=5e-4)


def test_m_infinity_scaling_and_a1_switch():
    kp = _kp(lambda1=1.0, lambda2=1.0)
    assert m_infinity(kp, 2.0) == pytest.approx(2.0 * m_infinity(kp, 1.0), rel=1e-14)
    # a1 = 2 switches the max{a1^2, 1} factor from 1 to 4
    r = 1.0 / (2.0 * math.sqrt(3.0))
    kp2 = _kp(a1=2.0, lambda1=1.0, lambda2=1.0)
    expected = 0.5 * (1.0 + r + 1.0 + 4.0 * r) ** 2 + 0.5 * (1.0 + r + 1.0) ** 2 * 4.0
    assert m_infinity(kp2, 1.0) == pytest.approx(expected, rel=1e-14)


def test_m_infinity_monotonicity():
    base = dict(lambda1=1.0, lambda2=1.0, a2=1.0)
    for key in ("lambda1", "lambda2", "a2"):
        lo = m_infinity(_kp(**base), 1.0)
        hi = m_infinity(_kp(**{**base, key: base[key] + 0.5}), 1.0)
        assert hi > lo


@pytest.mark.parametrize("omega_len", [0.0, -1.0, math.nan])
def test_m_infinity_rejects_nonpositive_length(omega_len):
    with pytest.raises(ValueError, match="^omega_len must be positive"):
        m_infinity(_kp(), omega_len)


def test_cosine_bump_rejects_bad_mode_and_end():
    with pytest.raises(ValueError, match="^mode must be nonnegative"):
        CosineBumpTestFunction(-1, 1.0)
    for t_end in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^t_end must be positive"):
            CosineBumpTestFunction(1, t_end)


def test_phi():
    assert phi(2.0, 2.0) == 0.0
    assert phi(1.0, math.e) == pytest.approx(math.e - 2.0)
    with pytest.raises(ValueError):
        phi(0.0, 1.0)
    with pytest.raises(ValueError):
        phi(1.0, 0.0)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        xi_star = rng.uniform(0.1, 5.0)
        xi = rng.uniform(xi_star / 2.0, 10.0)
        val = phi(xi_star, xi)
        assert val >= 0.0
        assert val <= 2.0 / xi_star * (xi - xi_star) ** 2 * (1.0 + 1e-12) + 1e-15
    # a (2, 1) column xi_star applies one value per row of a stacked xi
    w = rng.uniform(0.1, 5.0, (2, 9))
    col = phi(np.array([[1.5], [0.5]]), w)
    assert col.shape == (2, 9)
    assert np.array_equal(col[0], phi(1.5, w[0])) and np.array_equal(col[1], phi(0.5, w[1]))
    with pytest.raises(ValueError):
        phi(np.array([[1.5], [0.0]]), w)


# ---------------------------------------------------------------------------
# F, D, E1/D1, E2/D2, y
# ---------------------------------------------------------------------------

def test_quasi_entropy_unit_state(unit_grid):
    kp = _kp(chi1=0.3, chi2=0.3)
    rp = RegParams(eps=0.02, alpha=0.5, n1=2.0, n2=2.0)
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[1.0], [1.0]]))
    assert quasi_entropy_F(st, kp, rp) == pytest.approx(-1.98, rel=1e-13)
    assert dissipation_D(st, kp, rp) == 0.0


def test_dissipation_only_perturbed_component(unit_grid):
    kp = _kp()
    rp = RegParams(eps=0.02, alpha=0.5, n1=2.0, n2=2.0)
    u = 1.0 + 0.1 * np.cos(np.pi * unit_grid.centers)
    st = State(0.0, unit_grid, [u, np.full(unit_grid.n_cells, 1.0)])
    coarse = dissipation_D(st, kp, rp)
    # self-convergence oracle: same integrand family on a much finer grid
    fine_grid = Grid1D(0.0, 1.0, 2048)
    uf = 1.0 + 0.1 * np.cos(np.pi * fine_grid.centers)
    stf = State(0.0, fine_grid, [uf, np.full(fine_grid.n_cells, 1.0)])
    fine = dissipation_D(stf, kp, rp)
    assert coarse == pytest.approx(fine, rel=2e-3)
    # v contributes nothing
    st_swap = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[1.0], [1.0]]))
    assert dissipation_D(st_swap, kp, rp) == 0.0


def test_entropy_E1_homogeneous(unit_grid):
    kp = _kp()
    for eps in (1e-4, 1e-8):
        rp = RegParams(eps=eps)
        st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[1.5], [0.5]]))
        expected = (1.5 * eps / 6.0) / 1.5**2 + (0.5 * eps / 6.0) / 0.5**2
        assert entropy_E1(st, kp, rp) == pytest.approx(expected, rel=1e-12)
        assert dissipation_rate_D1(st, kp, rp) == 0.0
    # eps -> 0 sends the homogeneous entropy to 0
    assert entropy_E1(st, kp, RegParams(1e-8)) < 1e-8


def test_entropy_E1_requires_coexistence(unit_grid):
    kp = _kp(lambda1=2.0, lambda2=1.0)
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[2.0], [0.1]]))
    with pytest.raises(ValueError):
        entropy_E1(st, kp, RegParams(1e-4))


def test_dissipation_D1_perturbed_lower_bound(unit_grid):
    kp = _kp()
    rp = RegParams(1e-4)
    u = 1.5 + 0.1 * np.cos(np.pi * unit_grid.centers)
    st = State(0.0, unit_grid, [u, np.full(unit_grid.n_cells, 0.5)])
    assert dissipation_rate_D1(st, kp, rp) >= 0.005 * (1.0 - 1e-12)


def test_entropy_E2_closed_form(unit_grid):
    # u = lambda1, v = c homogeneous
    kp = _kp(lambda1=2.0, lambda2=1.0)
    eps = 1e-3
    rp = RegParams(eps)
    c = 0.8
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[2.0], [c]]))
    a = kp.a1 / kp.a2
    expected = (
        kp.lambda1 * eps / 6.0 / kp.lambda1**2
        + a * c
        + a / (2.0 * kp.lambda2) * c**2
        + a * eps / (2.0 * kp.lambda2) / c
    )
    assert entropy_E2(st, kp, rp) == pytest.approx(expected, rel=1e-12)
    assert dissipation_rate_D2(st, kp, rp) == pytest.approx(c**3, rel=1e-12)


def test_entropy_E2_substituted_values(unit_grid):
    # c = 1, A = 1, lambda2 = 1, eps ~ 0 -> E2 = 1.5, D2 = 1
    kp = _kp(lambda1=2.0, lambda2=1.0)
    rp = RegParams(1e-15)
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[2.0], [1.0]]))
    assert entropy_E2(st, kp, rp) == pytest.approx(1.5, abs=1e-12)
    assert dissipation_rate_D2(st, kp, rp) == pytest.approx(1.0, rel=1e-12)


def test_conditional_y(unit_grid):
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[1.0], [1.0]]))
    assert conditional_y(st) == 0.0
    v = 1.0 + 0.1 * np.cos(np.pi * unit_grid.centers)
    st2 = State(0.0, unit_grid, [np.full(unit_grid.n_cells, 1.0), v])
    assert conditional_y(st2, 2.0) == pytest.approx(0.01 * np.pi**2, rel=1e-3)
    # linearity in gamma
    h1v = conditional_y(st2, 1.0)
    assert conditional_y(st2, 2.0) - conditional_y(st2, 1.0) == pytest.approx(h1v, rel=1e-12)
    with pytest.raises(ValueError):
        conditional_y(st2, 0.0)


def test_cross_entropy_productions_cancel(unit_grid):
    # acceptance-style check: equal and opposite to < 1e-12 relative
    rng = np.random.default_rng(77)
    kp = _kp(chi1=0.07, chi2=0.03)
    rp = RegParams(1e-3, 0.5, 2.0, 1.0)
    for _ in range(100):
        st = positive_trig_state(unit_grid, rng)
        pu, pv = cross_entropy_productions(st, kp, rp)
        assert abs(pu + pv) <= 1e-12 * max(abs(pu), abs(pv), 1e-300)


def test_scheme_taxis_fluxes_cancel_in_entropy_to_second_order():
    # each equation's own taxis flux, as compute_rhs forms it, tested with the
    # face gradient of its entropy weight L'(s) = ln s - eps/((4-n) s^(4-n));
    # h_eps * L'' = 1 holds pointwise only, so the face mean of h_eps leaves a
    # defect that must fall like dx^2
    kp = KineticParams(1, 1, 0.07, 0.03, 1, 1, 1, 2)
    rp = RegParams(1e-3, 0.5, 2.0, 1.0)
    kind = ModelKind.REGULARIZED

    def weight_gradient(s, n, dx):
        return face_gradient(np.log(s) - rp.eps / ((4.0 - n) * s ** (4.0 - n)), dx)

    worst = []
    for n_cells in (32, 128, 512, 2048):
        g = Grid1D(0.0, 1.0, n_cells)
        rng = np.random.default_rng(2024)
        defects = []
        for _ in range(20):
            u, v = positive_trig_state(g, rng).w
            flux_u = -kp.chi1 * taxis_face_coeff(u, rp.n1, rp, kind) * face_gradient(v, g.dx)
            flux_v = kp.chi2 * taxis_face_coeff(v, rp.n2, rp, kind) * face_gradient(u, g.dx)
            pu = g.dx * float(np.sum(flux_u * weight_gradient(u, rp.n1, g.dx)))
            pv = (kp.chi1 / kp.chi2) * g.dx * float(np.sum(flux_v * weight_gradient(v, rp.n2, g.dx)))
            defects.append(abs(pu + pv) / max(abs(pu), abs(pv)))
        worst.append(max(defects))
    ratios = [coarse / fine for coarse, fine in zip(worst, worst[1:])]
    assert all(12.0 < r < 20.0 for r in ratios), (worst, ratios)


# ---------------------------------------------------------------------------
# diagnostics record
# ---------------------------------------------------------------------------

def test_diagnostics_record_coexistence(unit_grid):
    rng = np.random.default_rng(41)
    kp = _kp()
    rp = RegParams(1e-4)
    st = positive_trig_state(unit_grid, rng)
    rec = diagnostics_record(st, kp, rp, gamma=2.0)
    assert rec.D >= 0.0 and rec.D1 >= 0.0 and rec.D2 >= 0.0
    assert rec.E1 >= 0.0 and rec.E2 >= 0.0
    assert rec.mass_u > 0.0 and rec.mass_v > 0.0
    assert rec.y == pytest.approx(rec.h1_u + 2.0 * rec.h1_v, rel=1e-12)
    assert rec.min_u <= rec.max_u


def test_diagnostics_record_extinction_regime(unit_grid):
    kp = _kp(lambda1=2.0, lambda2=1.0)
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[2.0], [0.5]]))
    rec = diagnostics_record(st, kp, RegParams(1e-4))
    assert rec.E1 is None and rec.D1 is None
    assert rec.E2 >= 0.0


# ---------------------------------------------------------------------------
# weak residual
# ---------------------------------------------------------------------------

def test_weak_residual_steady_data(unit_grid, coex_params, reg_params):
    # constant-in-time steady samples: every term either vanishes or cancels
    states = [
        State(t, unit_grid, np.full((2, unit_grid.n_cells), [[1.5], [0.5]]))
        for t in np.linspace(0.0, 1.0, 11)
    ]
    tf = CosineBumpTestFunction(1, 1.0)
    ru, rv = weak_residual(states, coex_params, tf)
    assert ru < 1e-8 and rv < 1e-8


def test_weak_residual_zero_test_function(unit_grid, coex_params):
    class ZeroFn:
        def value(self, x, t):
            return np.zeros_like(np.asarray(x, dtype=float))
        time_deriv = value
        space_deriv = value

    states = [
        State(t, unit_grid, np.full((2, unit_grid.n_cells), [[1.5], [0.5]]))
        for t in np.linspace(0.0, 1.0, 5)
    ]
    ru, rv = weak_residual(states, coex_params, ZeroFn())
    assert ru == 0.0 and rv == 0.0


def test_weak_residual_needs_three_samples(unit_grid, coex_params):
    states = [
        State(t, unit_grid, np.full((2, unit_grid.n_cells), [[1.0], [1.0]]))
        for t in (0.0, 1.0)
    ]
    with pytest.raises(ValueError):
        weak_residual(states, coex_params, CosineBumpTestFunction(1, 1.0))


def test_weak_residual_refinement(weak_residual_pair):
    (ru1, rv1), (ru2, rv2) = weak_residual_pair
    assert ru1 / ru2 >= 2.0
    assert rv1 / rv2 >= 2.0


# ---------------------------------------------------------------------------
# per-field reference: the functionals as written one field at a time
# ---------------------------------------------------------------------------

def _ref_quad(values, grid):
    return integrate_values(np.asarray(values), grid)


def _ref_record(state, kp, rp, gamma):
    """Every DiagnosticsRecord field from per-field formulas, in the order
    of addition the stacked functionals must keep bit for bit."""
    g = state.grid
    u, v = state.u, state.v
    ux, vx = diff1_values(u, g.dx), diff1_values(v, g.dx)
    rho, a = kp.chi1 / kp.chi2, kp.a1 / kp.a2
    epow = rp.eps ** ((rp.alpha + 2.0) / 2.0)
    ss = steady_states(kp)

    def F_one(w, n):
        tail = rp.eps / ((3.0 - n) * (4.0 - n)) * _ref_quad(w ** -(3.0 - n), g)
        return _ref_quad(w * np.log(w), g) - _ref_quad(w, g) + tail

    def D_one(w, d, n):
        wx = diff1_values(w, g.dx)
        wxx = diff2_values(w, g.dx)
        return (
            d / 2.0 * _ref_quad(wx**2 / w, g)
            + rp.eps * _ref_quad(w ** (n - 1.0) * wxx**2, g)
            + d * rp.eps * _ref_quad(wx**2 / w ** (5.0 - n), g)
        )

    rec = dict(
        t=state.t,
        mass_u=_ref_quad(u, g),
        mass_v=_ref_quad(v, g),
        F=F_one(u, rp.n1) + rho * F_one(v, rp.n2),
        D=D_one(u, kp.d1, rp.n1) + rho * D_one(v, kp.d2, rp.n2),
        E1=None,
        D1=None,
        E2=(
            _ref_quad(phi(kp.lambda1, u), g)
            + kp.lambda1 * rp.eps / 6.0 * _ref_quad(u**-2, g)
            + a * _ref_quad(v, g)
            + a / (2.0 * kp.lambda2) * _ref_quad(v**2, g)
            + a * rp.eps / (2.0 * kp.lambda2) * _ref_quad(1.0 / v, g)
        ),
        D2=(
            _ref_quad(ux**2 / u**2, g)
            + _ref_quad(vx**2, g)
            + _ref_quad((u - kp.lambda1) ** 2, g)
            + _ref_quad(v**3, g)
            + epow * _ref_quad(u ** (-rp.alpha - 4.0) * ux**2, g)
            + epow * _ref_quad(v ** (-rp.alpha - 3.0) * vx**2, g)
        ),
        y=_ref_quad(ux**2, g) + gamma * _ref_quad(vx**2, g),
        min_u=float(u.min()),
        min_v=float(v.min()),
        max_u=float(u.max()),
        max_v=float(v.max()),
        h1_u=_ref_quad(ux**2, g),
        h1_v=_ref_quad(vx**2, g),
    )
    if ss.regime is Regime.COEXISTENCE:
        rec["E1"] = (
            _ref_quad(phi(ss.u_star, u), g)
            + ss.u_star * rp.eps / 6.0 * _ref_quad(u**-2, g)
            + a * _ref_quad(phi(ss.v_star, v), g)
            + a * ss.v_star * rp.eps / 6.0 * _ref_quad(v**-2, g)
        )
        rec["D1"] = (
            _ref_quad(ux**2 / u**2, g)
            + _ref_quad(vx**2 / v**2, g)
            + _ref_quad((u - ss.u_star) ** 2, g)
            + _ref_quad((v - ss.v_star) ** 2, g)
            + epow * _ref_quad(u ** (-rp.alpha - 4.0) * ux**2, g)
            + epow * _ref_quad(v ** (-rp.alpha - 4.0) * vx**2, g)
        )
    return rec


def _ref_weak_residual(samples, kp, test_fn):
    grid = samples[0].grid
    x = grid.centers
    times = np.array([s.t for s in samples])
    trapz = getattr(np, "trapezoid", None) or np.trapz
    rows = []
    for s in samples:
        u, v = s.u, s.v
        ux, vx = diff1_values(u, grid.dx), diff1_values(v, grid.dx)
        ph, ph_t, ph_x = (np.asarray(f(x, s.t)) for f in
                          (test_fn.value, test_fn.time_deriv, test_fn.space_deriv))
        rows.append((
            _ref_quad(u * ph_t, grid),
            _ref_quad(v * ph_t, grid),
            _ref_quad((-kp.d1 * ux + kp.chi1 * u * vx) * ph_x, grid),
            _ref_quad((-kp.d2 * vx - kp.chi2 * v * ux) * ph_x, grid),
            _ref_quad(u * (kp.lambda1 - u + kp.a1 * v) * ph, grid),
            _ref_quad(v * (kp.lambda2 - v - kp.a2 * u) * ph, grid),
        ))
    iu_pt, iv_pt, iu_flux, iv_flux, iu_react, iv_react = (np.array(c) for c in zip(*rows))
    u0, v0 = samples[0].u, samples[0].v
    ph0 = np.asarray(test_fn.value(x, samples[0].t))
    lhs_u = -trapz(iu_pt, times) - _ref_quad(u0 * ph0, grid)
    lhs_v = -trapz(iv_pt, times) - _ref_quad(v0 * ph0, grid)
    rhs_u = trapz(iu_flux, times) + trapz(iu_react, times)
    rhs_v = trapz(iv_flux, times) + trapz(iv_react, times)
    return abs(lhs_u - rhs_u), abs(lhs_v - rhs_v)


# coexistence (lambda2 > a2*lambda1) and extinction, with every rate distinct
_REF_KP = {
    "coexistence": _kp(d1=0.7, d2=1.3, chi1=0.11, chi2=0.04, a1=0.8, a2=0.6,
                       lambda1=1.1, lambda2=2.3),
    "extinction": _kp(d1=1.2, d2=0.9, chi1=0.03, chi2=0.07, a1=1.4, a2=0.9,
                      lambda1=2.0, lambda2=1.0),
}


@pytest.mark.parametrize("n_cells", (16, 128, 1000))
@pytest.mark.parametrize("n_exp", ((2.0, 2.0), (2.0, 1.0), (1.3, 1.7)))
@pytest.mark.parametrize("regime", sorted(_REF_KP))
def test_diagnostics_match_per_field_reference(regime, n_exp, n_cells):
    """The stacked functionals give the per-field formulas' numbers exactly,
    with n1 = n2 and n1 != n2 (the extinction study runs n2 = 1)."""
    kp = _REF_KP[regime]
    rp = RegParams(eps=3e-3, alpha=0.4, n1=n_exp[0], n2=n_exp[1])
    grid = Grid1D(-0.5, 1.25, n_cells)
    rng = np.random.default_rng(n_cells)
    for t in (0.0, 0.5):
        st = positive_trig_state(grid, rng, base=(0.3, 2.5), t=t)
        rec = diagnostics_record(st, kp, rp, gamma=1.7)
        ref = _ref_record(st, kp, rp, 1.7)
        assert {k: getattr(rec, k) for k in DiagnosticsRecord.CSV_COLUMNS} == ref
        assert all(type(x) is float for x in ref.values() if x is not None)
        assert all(type(getattr(rec, k)) is float for k in ref if ref[k] is not None)
        assert quasi_entropy_F(st, kp, rp) == ref["F"]
        assert conditional_y(st, 1.7) == ref["y"]


@pytest.mark.parametrize("n_cells", (16, 200))
@pytest.mark.parametrize("regime", sorted(_REF_KP))
def test_weak_residual_matches_per_field_reference(regime, n_cells):
    kp = _REF_KP[regime]
    grid = Grid1D(0.0, 2.0, n_cells)
    rng = np.random.default_rng(7 + n_cells)
    times = np.linspace(0.0, 1.5, 12)
    samples = [positive_trig_state(grid, rng, base=(0.3, 2.5), t=t) for t in times]
    for mode in (0, 1, 3):
        tf = CosineBumpTestFunction(mode, 1.5, 0.0, 2.0)
        got = weak_residual(samples, kp, tf)
        assert got == _ref_weak_residual(samples, kp, tf)
        assert all(type(r) is float for r in got)
