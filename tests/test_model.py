import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesim.grid import Grid1D, integrate_values
from pesim.model import (
    KineticParams,
    ModelKind,
    RegParams,
    State,
    compute_rhs,
    fast_diffusion_coeff,
    g_mollifier,
    g_mollifier_deriv,
    h_flux,
    h_flux_deriv,
    h_flux_deriv2,
    log_entropy_weight,
    m4_mobility,
    reaction_jacobian,
    reaction_terms,
)
from conftest import positive_trig_state

finite_s = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def test_param_validation():
    with pytest.raises(ValueError):
        KineticParams(1, 1, 0.0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        RegParams(eps=0.0)
    with pytest.raises(ValueError):
        RegParams(eps=0.1, alpha=0.6)
    with pytest.raises(ValueError):
        RegParams(eps=0.1, n1=0.5)


def test_state_requires_positivity(unit_grid):
    with pytest.raises(ValueError):
        State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[1.0], [0.0]]))


@pytest.mark.parametrize("shape", [(2, 15), (1, 16), (16,), (3, 16)])
def test_state_rejects_a_wrong_shape(shape):
    g = Grid1D(0.0, 1.0, 16)
    with pytest.raises(ValueError, match="shape"):
        State(0.0, g, np.ones(shape))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_state_rejects_a_nonpositive_or_nonfinite_entry(bad):
    g = Grid1D(0.0, 1.0, 16)
    for row in (0, 1):
        w = np.ones((2, g.n_cells))
        w[row, 5] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            State(0.0, g, w)


def test_state_holds_its_pair_as_one_frozen_array(unit_grid):
    u, v = np.full(unit_grid.n_cells, 1.5), np.full(unit_grid.n_cells, 0.5)
    st = State(0.0, unit_grid, [u, v])
    assert st.w.shape == (2, unit_grid.n_cells) and not st.w.flags.writeable
    assert np.array_equal(st.w, [u, v])
    # the pair is copied in, so the caller's arrays stay its own
    assert not np.shares_memory(st.w, u) and u.flags.writeable
    # u and v are views of the pair's rows
    assert np.shares_memory(st.w, st.u) and np.shares_memory(st.w, st.v)


def test_trusted_state_adopts_its_array_without_copy(unit_grid):
    w = np.array((np.full(unit_grid.n_cells, 1.5), np.full(unit_grid.n_cells, 0.5)))
    st = State.trusted(0.25, unit_grid, w)
    assert st.w is w and not w.flags.writeable
    assert np.shares_memory(w, st.u) and np.shares_memory(w, st.v)
    assert np.array_equal(st.u, w[0]) and np.array_equal(st.v, w[1])
    assert st.t == 0.25 and st.grid is unit_grid


def test_states_compare_by_identity(unit_grid):
    # their pairs are arrays, so value equality has no single truth value
    w = np.full((2, unit_grid.n_cells), [[1.5], [0.5]])
    st, twin = State(0.0, unit_grid, w), State(0.0, unit_grid, w)
    assert st == st and st != twin
    assert len({st, twin}) == 2
    # grids keep value equality
    assert Grid1D(0.0, 1.0, 128) == unit_grid


def test_g_mollifier_values():
    assert g_mollifier(0.0, 0.5) == 0.0
    assert g_mollifier(1.0, 1.0) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        g_mollifier(-1.0, 0.5)


def test_g_mollifier_gap_maximum():
    # s - g(s) peaks at sqrt(eps/3) with value sqrt(eps)/(2 sqrt(3))
    for eps in (1e-4, 1e-2, 0.5):
        s = np.linspace(0.0, 5.0, 400001)
        gap = s - g_mollifier(s, eps)
        peak = math.sqrt(eps) / (2.0 * math.sqrt(3.0))
        assert gap.max() <= peak + 1e-12
        assert gap.max() == pytest.approx(peak, rel=1e-6)
        s_star = math.sqrt(eps / 3.0)
        assert s_star - g_mollifier(s_star, eps) == pytest.approx(peak, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(s=finite_s, eps=st.floats(min_value=1e-8, max_value=0.999))
def test_g_mollifier_bounds(s, eps):
    g = g_mollifier(s, eps)
    # the exact-arithmetic bound g <= s can wobble by an ulp when eps is far
    # below the floating-point resolution of 3 s^2
    assert 0.0 <= g <= s * (1.0 + 4e-16)


def test_h_flux_values():
    assert h_flux(0.0, 1.5, 0.1) == 0.0
    assert h_flux(1.0, 2.0, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        h_flux(-1.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        h_flux_deriv2(0.0, 2.0, 0.1)


def test_h_flux_bounds_random():
    rng = np.random.default_rng(11)
    s = rng.uniform(0.0, 1e3, 10_000)
    n = rng.uniform(0.0, 3.5, 10_000)
    eps = rng.uniform(1e-4, 0.999, 10_000)
    h = h_flux(s, n, eps)
    hp = h_flux_deriv(s, n, eps)
    assert np.all(h >= 0.0) and np.all(h <= s * (1.0 + 4e-16))
    assert np.all(hp >= 0.0) and np.all(hp <= 5.0 - n)


def test_h_flux_derivatives_match_finite_differences():
    rng = np.random.default_rng(12)
    step = 1e-5
    for _ in range(300):
        s = rng.uniform(0.1, 10.0)
        n = rng.uniform(0.0, 3.5)
        eps = rng.uniform(1e-3, 0.999)
        fd1 = (h_flux(s + step, n, eps) - h_flux(s - step, n, eps)) / (2 * step)
        fd2 = (
            h_flux_deriv(s + step, n, eps) - h_flux_deriv(s - step, n, eps)
        ) / (2 * step)
        assert h_flux_deriv(s, n, eps) == pytest.approx(fd1, rel=1e-6)
        assert h_flux_deriv2(s, n, eps) == pytest.approx(fd2, rel=1e-5, abs=1e-9)


def test_hflux_times_entropy_weight_is_one():
    rng = np.random.default_rng(13)
    s = rng.uniform(1e-3, 1e3, 10_000)
    for n in (1.0, 1.5, 2.0):
        prod = h_flux(s, n, 1e-2) * log_entropy_weight(s, n, 1e-2)
        assert np.abs(prod - 1.0).max() < 1e-12


def test_m4_mobility():
    assert m4_mobility(0.0, 2.0, 0.1) == 0.0
    assert m4_mobility(1.0, 2.0, 1.0) == pytest.approx(0.5)
    rng = np.random.default_rng(14)
    s = rng.uniform(0.0, 100.0, 10_000)
    n = rng.uniform(1.0, 2.0, 10_000)
    eps = rng.uniform(1e-4, 0.999, 10_000)
    assert np.all(m4_mobility(s, n, eps) <= s**n + 1e-15)


@pytest.mark.parametrize("fn", [h_flux, h_flux_deriv, h_flux_deriv2])
def test_h_flux_family_rejects_bad_exponent_and_eps(fn):
    for n in (-0.5, 3.6):
        with pytest.raises(ValueError, match=r"^n must lie in \[0, 7/2\]"):
            fn(1.0, n, 0.1)
    with pytest.raises(ValueError, match="^eps must be positive"):
        fn(1.0, 2.0, 0.0)


def test_m4_mobility_and_entropy_weight_reject_bad_input():
    with pytest.raises(ValueError, match="^eps must be positive"):
        m4_mobility(1.0, 2.0, -1e-3)
    for s in (0.0, -1.0):
        with pytest.raises(ValueError, match="^s must be strictly positive"):
            log_entropy_weight(np.array([1.0, s]), 2.0, 0.1)


def test_fast_diffusion_coeff():
    assert fast_diffusion_coeff(1.0, 0.3, 0.2) == pytest.approx(0.2**0.15)
    assert fast_diffusion_coeff(4.0, 0.5, 1e-4) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        fast_diffusion_coeff(0.0, 0.5, 0.1)
    s = np.linspace(0.5, 10.0, 50)
    vals = fast_diffusion_coeff(s, 0.5, 1e-2)
    assert np.all(np.diff(vals) < 0)


def test_g_mollifier_deriv_matches_fd():
    rng = np.random.default_rng(15)
    for _ in range(200):
        s = rng.uniform(0.05, 20.0)
        eps = rng.uniform(1e-4, 0.999)
        fd = (g_mollifier(s + 1e-6, eps) - g_mollifier(s - 1e-6, eps)) / 2e-6
        assert g_mollifier_deriv(s, eps) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_steady_state_identically_zero(unit_grid, coex_params, reg_params):
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[1.5], [0.5]]))
    for kind in ModelKind:
        du, dv = compute_rhs(st.w, unit_grid.dx, coex_params, reg_params, kind)
        assert np.all(du == 0.0)
        assert np.all(dv == 0.0)


def test_rhs_homogeneous_reduces_to_ode(unit_grid, coex_params, reg_params):
    c1, c2 = 1.3, 0.7
    st = State(0.0, unit_grid, np.full((2, unit_grid.n_cells), [[c1], [c2]]))
    du, dv = compute_rhs(st.w, unit_grid.dx, coex_params, reg_params, ModelKind.LIMIT)
    kp = coex_params
    assert du == pytest.approx(c1 * (kp.lambda1 - c1 + kp.a1 * c2), rel=1e-14)
    assert dv == pytest.approx(c2 * (kp.lambda2 - c2 - kp.a2 * c1), rel=1e-14)


def test_rhs_mass_identity(unit_grid, coex_params, reg_params):
    # flux part telescopes: integral of du equals integral of the reaction
    rng = np.random.default_rng(21)
    for kind in ModelKind:
        for _ in range(10):
            st = positive_trig_state(unit_grid, rng)
            u, v = st.u, st.v
            du, dv = compute_rhs(np.array((u, v)), unit_grid.dx, coex_params, reg_params, kind)
            ru, rv = reaction_terms(np.array((u, v)), coex_params, reg_params, kind)
            for d, r in ((du, ru), (dv, rv)):
                scale = max(1.0, np.abs(d).max())
                gap = integrate_values(d, unit_grid) - integrate_values(r, unit_grid)
                assert abs(gap) < 1e-12 * scale


@pytest.mark.parametrize("kind", list(ModelKind))
def test_reaction_jacobian_matches_finite_differences(unit_grid, kind):
    # every block against central differences of the pointwise reactions; in
    # the full Jacobian the reaction part of the diagonal blocks is hidden
    # behind the diffusion bands
    kp = KineticParams(d1=1.0, d2=1.0, chi1=0.05, chi2=0.05, a1=0.8, a2=0.6,
                       lambda1=1.1, lambda2=2.3)
    rp = RegParams(eps=0.05, alpha=0.5, n1=2.0, n2=1.0)
    st = positive_trig_state(unit_grid, np.random.default_rng(29), base=(0.1, 2.0))
    w = st.w
    h = 1e-6
    # fd[j][i] = d r_i / d w_j: the reactions are pointwise, so perturbing a
    # whole row gives the derivative at every cell at once
    fd = []
    for j in range(2):
        e = np.zeros_like(w)
        e[j] = h
        fd.append((reaction_terms(w + e, kp, rp, kind)
                   - reaction_terms(w - e, kp, rp, kind)) / (2.0 * h))
    jac = reaction_jacobian(w, kp, rp, kind)
    # rows: d ru/du, d ru/dv, d rv/du, d rv/dv
    for row, ref in zip(jac, (fd[0][0], fd[1][0], fd[0][1], fd[1][1])):
        assert np.abs(row - ref).max() <= 1e-6 * np.abs(ref).max()


def test_rhs_rejects_bad_input(unit_grid, coex_params, reg_params):
    other = Grid1D(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        State(0.0, other, np.ones((2, unit_grid.n_cells)))


@pytest.mark.parametrize("kind, eps", [(ModelKind.LIMIT, 1e-4),
                                       (ModelKind.REGULARIZED, 1e-4),
                                       (ModelKind.REGULARIZED, 1e-2)])
def test_rhs_observed_spatial_order(coex_params, kind, eps):
    # cell centres nest when n is tripled (coarse cell i is fine cell 3i + 1),
    # so at second order the max difference between successive grids falls
    # by a factor of 9 for each field
    rp = RegParams(eps)

    def rhs(n):
        x = Grid1D(0.0, 1.0, n).centers
        w = np.array((1.5 + 0.3 * np.cos(np.pi * x), 0.5 + 0.3 * np.cos(2 * np.pi * x)))
        return compute_rhs(w, 1.0 / n, coex_params, rp, kind)

    # the thin-film term's roundoff floor, eps * u_mach * max|w| / dx^4, must
    # stay below 2% of the difference it enters; the limit model's floor
    # (dx^-2 in place of eps * dx^-4) is negligible on these grids
    eps4 = rp.eps if kind is ModelKind.REGULARIZED else 0.0
    n, coarse, diffs = 27, rhs(27), []
    while n < 729:
        n *= 3
        fine = rhs(n)
        d = np.abs(coarse - fine[:, 1::3]).max(axis=1)
        if eps4 * np.finfo(float).eps * 1.8 * n**4 > 0.02 * d.min():
            break
        diffs.append(d)
        coarse = fine
    ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
    assert len(ratios) >= 2
    assert np.all((7.0 < ratios) & (ratios < 11.0)), ratios


def test_rhs_eps_consistency(unit_grid, coex_params):
    # for a fixed smooth positive state, the regularized right-hand side
    # approaches the limit one as eps -> 0; the observed rate is set by the
    # fast-diffusion term, eps^(alpha/2)
    s = unit_grid.centers
    st = State(
        0.0,
        unit_grid,
        [1.5 + 0.4 * np.cos(np.pi * s), 1.0 + 0.3 * np.cos(2 * np.pi * s)],
    )
    u, v, dx = st.u, st.v, unit_grid.dx
    du_lim, dv_lim = compute_rhs(np.array((u, v)), dx, coex_params, RegParams(1e-8),
                                 ModelKind.LIMIT)
    errs = []
    eps_values = (1e-2, 1e-4, 1e-6, 1e-8)
    for eps in eps_values:
        rp = RegParams(eps, alpha=0.5, n1=2.0, n2=2.0)
        du, dv = compute_rhs(np.array((u, v)), dx, coex_params, rp, ModelKind.REGULARIZED)
        interior = slice(2, -2)
        err = max(
            np.abs(du[interior] - du_lim[interior]).max(),
            np.abs(dv[interior] - dv_lim[interior]).max(),
        )
        errs.append(err)
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # six decades of eps shrink the error by ~(1e-6)^(1/4); allow slack
    assert errs[-1] < errs[0] * 2e-2
