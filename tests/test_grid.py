import numpy as np
import pytest

from pesim.grid import (
    Grid1D,
    diff1_values,
    diff2_values,
    integrate_values,
    mirror_extend,
    random_cosine_series,
)
from pesim.model import face_third_derivative


def test_grid_invariants():
    g = Grid1D(0.0, 1.0, 16)
    assert g.dx == pytest.approx(1.0 / 16)
    assert np.all(np.diff(g.centers) > 0)
    assert g.centers[0] == pytest.approx(g.dx / 2)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 16)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 4)
    # the thin-film scale 1/dx^4 overflows at 1e-150; dx*dx underflows to 0
    # at 1e-300, and dx itself at 5e-324
    for right in (1e-150, 1e-300, 5e-324):
        with pytest.raises(ValueError, match=r"^x_right - x_left .*1/dx\^4 finite"):
            Grid1D(0.0, right, 128)
    assert np.isfinite(1.0 / Grid1D(0.0, 1e-70, 128).dx ** 4)  # about 2.7e288


def test_mirror_constant_all_layers():
    g = Grid1D(0.0, 1.0, 16)
    f = np.full(g.n_cells, 3.7)
    ext = mirror_extend(f)
    assert np.all(ext == 3.7)
    assert ext.shape == (16 + 2,)


def test_mirror_cos_left_ghost():
    g = Grid1D(0.0, 1.0, 32)
    f = np.cos(np.pi * g.centers)
    ext = mirror_extend(f)
    assert ext[0] == f[0]
    assert ext[-1] == f[-1]


def test_mirror_linear_one_layer():
    # f = x on 8 cells (minimum size); the reflection rule applied by hand:
    # g[-1] = f[0] = 1/16 and g[n] = f[n-1] = 15/16, the interior untouched
    g = Grid1D(0.0, 1.0, 8)
    f = g.centers
    ext = mirror_extend(f)
    assert ext.shape == (10,)
    assert ext[0] == 1.0 / 16.0
    assert ext[-1] == 15.0 / 16.0
    assert np.array_equal(ext[1:-1], f)


def test_diff2_constant_is_zero():
    g = Grid1D(0.0, 1.0, 64)
    out = diff2_values(np.full(64, 2.0), g.dx)
    assert np.all(out == 0.0)


def test_diff2_cosine_accuracy():
    g = Grid1D(0.0, 1.0, 200)
    f = np.cos(np.pi * g.centers)
    exact = -np.pi**2 * np.cos(np.pi * g.centers)
    assert np.abs(diff2_values(f, g.dx) - exact).max() < 1e-3


def test_diff1_cosine_accuracy_and_neumann():
    g = Grid1D(0.0, 1.0, 200)
    f = np.cos(np.pi * g.centers)
    exact = -np.pi * np.sin(np.pi * g.centers)
    d = diff1_values(f, g.dx)
    assert np.abs(d - exact).max() < 1e-3
    # boundary-adjacent values consistent with the no-flux data: the true
    # derivative at the first cell center is itself ~pi^2*dx/2, so the raw
    # value is O(dx)
    assert abs(d[0]) < np.pi**2 * g.dx
    assert abs(d[-1]) < np.pi**2 * g.dx


def test_diff1_boundary_error_second_order():
    # the mirror extension keeps the *error* against the analytic derivative
    # second order in the boundary cells
    errs = []
    for n in (100, 200):
        g = Grid1D(0.0, 1.0, n)
        f = np.cos(np.pi * g.centers)
        exact = -np.pi * np.sin(np.pi * g.centers)
        errs.append(abs(diff1_values(f, g.dx)[0] - exact[0]))
    assert errs[0] / errs[1] > 3.0  # ~4 for O(dx^2)


def test_diff3_cosine_accuracy():
    # the model's third derivative: face difference of the mirrored cell
    # second difference, zero on the boundary faces (u_xxx = 0 there)
    g = Grid1D(0.0, 1.0, 200)
    f = np.cos(np.pi * g.centers)
    d3 = face_third_derivative(f, g.dx)
    exact = np.pi**3 * np.sin(np.pi * (g.x_left + np.arange(1, g.n_cells) * g.dx))
    assert d3[0] == 0.0 and d3[-1] == 0.0
    assert np.abs(d3[1:-1] - exact).max() < 5e-3


def test_integrate_constant_exact():
    g = Grid1D(0.0, 1.0, 100)
    assert integrate_values(np.ones(100), g) == 1.0


def test_integrate_cos_2pi_cancels():
    g = Grid1D(0.0, 1.0, 100)
    f = np.cos(2 * np.pi * g.centers)
    assert abs(integrate_values(f, g)) < 1e-12


def test_integrate_stacked_rows_match_one_field_integrals():
    # one integral per row, each bitwise the integral of that row alone
    g = Grid1D(-0.3, 0.9, 1000)
    w = np.random.default_rng(5).uniform(0.1, 3.0, (2, g.n_cells))
    stacked = integrate_values(w, g)
    assert stacked.shape == (2,)
    assert stacked.tolist() == [integrate_values(w[0], g), integrate_values(w[1], g)]


def test_integrate_quadratic():
    g = Grid1D(0.0, 1.0, 100)
    f = g.centers**2
    assert abs(integrate_values(f, g) - 1.0 / 3.0) < 5e-5


def test_diff2_self_adjoint():
    # discrete summation by parts: the mirrored second-difference operator is
    # symmetric, so <g, Lf> = <f, Lg> up to roundoff
    rng = np.random.default_rng(3)
    g = Grid1D(0.0, 1.0, 200)
    s = g.centers
    for _ in range(10):
        cf = rng.uniform(-1, 1, 4)
        cg = rng.uniform(-1, 1, 4)
        f = 2.0 + sum(c * np.cos((k + 1) * np.pi * s) for k, c in enumerate(cf))
        h = 2.0 + sum(c * np.cos((k + 1) * np.pi * s) for k, c in enumerate(cg))
        lhs = integrate_values(h * diff2_values(f, g.dx), g)
        rhs = integrate_values(f * diff2_values(h, g.dx), g)
        assert abs(lhs - rhs) < 1e-10


def test_random_cosine_series_draws_and_bounds():
    g = Grid1D(-1.0, 3.0, 64)
    vals = random_cosine_series(g, np.random.default_rng(7), 1.0, 0.4, 5)
    c = np.random.default_rng(7).uniform(-1.0, 1.0, 5)
    c *= 0.4 / np.abs(c).sum()
    s = (g.centers + 1.0) / 4.0
    ref = 1.0 + sum(ck * np.cos(k * np.pi * s) for k, ck in enumerate(c, start=1))
    assert np.allclose(vals, ref, rtol=0.0, atol=1e-14)
    assert np.abs(vals - 1.0).max() <= 0.4 + 1e-14  # positive since base > amp
