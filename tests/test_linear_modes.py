"""Linear-mode oracle: one step() of a single cosine mode against the
scheme's amplification matrix in closed form.

On the cell-centred Neumann grid, phi = cos(m pi (x - x_left) / L) is an
exact eigenvector of every flux stencil at a constant state, with the
discrete wavenumber k_h^2 = (2/dx * sin(m pi dx / 2L))^2.  A perturbation
a*phi of the coexistence state (U, V) in either field therefore stays in
mode m to first order in a, and one step multiplies the mode's two
coefficients by a 2 x 2 matrix G(k_h) built from the linearization M at
(U, V): G = (I - dt*M)^-1 for backward Euler, and
G = (I - dt*M_stiff)^-1 (I + dt*M_explicit) for the IMEX step, which solves
diffusion and the thin film implicitly and takes taxis and reactions
explicitly.

The step's second-order term is a product of two mode-m fields, which has no
mode-m part, so the measured matrix misses G by O(a^2), plus what rounding
adds: the state holds the perturbation against ulps of U and V, O(eps/a),
and a solve for the increment loses O(eps * cond).  The bound is built from
those scales of each problem, at two amplitudes: at the larger one the
remainder shows, at the smaller one the rounding.  Today's regularized IMEX
step solves for the new state itself, so its rounding, about
eps * cond * U / a with cond ~ n^4, lands on the small mode: that case is
checked for that growth (ROADMAP item 11), not against the bound.
"""

import numpy as np
import pytest

from pesim import model, stepper
from pesim.grid import Grid1D
from pesim.model import KineticParams, ModelKind, RegParams, State
from pesim.stepper import Scheme, StepperConfig, step

U, V = 1.5, 0.5  # the coexistence state of kinetic(chi), exactly representable
EPS = float(np.finfo(float).eps)
AMPLITUDES = (1e-4, 1e-7)
ULPS = 8  # rounding allowed per entry of the state, in ulps of max(U, V)
REG = RegParams(1e-2)  # large enough that h, g and the thin film each show


def kinetic(chi):
    return KineticParams(d1=1.0, d2=1.0, chi1=chi, chi2=chi,
                         a1=1.0, a2=1.0, lambda1=1.0, lambda2=2.0)


def wavenumber2(m, grid):
    """The discrete k_h^2 of the cosine mode m (any array of modes)."""
    return (2.0 / grid.dx * np.sin(np.asarray(m) * np.pi * grid.dx / (2.0 * grid.length))) ** 2


def linearization(k2, kp, rp, kind):
    """(stiff, explicit): the 2 x 2 linearizations at (U, V), for each squared
    wavenumber in k2, of the part of the right side IMEX solves implicitly
    (diffusion, fast diffusion and thin film) and of the rest (taxis and
    reactions); shape k2.shape + (2, 2)."""
    k2 = np.asarray(k2, dtype=float)[..., None]  # against the two fields
    s, d, p = np.array([U, V]), np.array([kp.d1, kp.d2]), np.array([rp.n1, rp.n2])
    if kind is ModelKind.LIMIT:
        damping, h, g, dg = d * k2, s, s, np.ones(2)
    else:
        e = rp.eps
        damping = ((d + e ** (rp.alpha / 2) * s ** -rp.alpha) * k2
                   + e * s**4 / (s ** (4 - p) + e) * k2**2)
        h = s ** (5 - p) / (s ** (4 - p) + e)
        g = 3 * s**3 / (3 * s**2 + e)
        dg = (9 * s**4 + 9 * e * s**2) / (3 * s**2 + e) ** 2
    # reactions g(s_i) * b_i, b = (lambda1 - u + a1 v, lambda2 - v - a2 u) = 0
    # at (U, V); taxis -chi1 (h(u) v_x)_x and +chi2 (h(v) u_x)_x
    b = np.array([kp.lambda1 - U + kp.a1 * V, kp.lambda2 - V - kp.a2 * U])
    stiff = np.zeros(k2.shape[:-1] + (2, 2))
    stiff[..., [0, 1], [0, 1]] = -damping
    explicit = np.empty_like(stiff)
    explicit[..., 0, 0] = dg[0] * b[0] - g[0]
    explicit[..., 0, 1] = kp.a1 * g[0] + kp.chi1 * h[0] * k2[..., 0]
    explicit[..., 1, 0] = -kp.a2 * g[1] - kp.chi2 * h[1] * k2[..., 0]
    explicit[..., 1, 1] = dg[1] * b[1] - g[1]
    return stiff, explicit


def amplification(k2, dt, kp, rp, kind, scheme):
    """The closed-form G of one step, for each squared wavenumber in k2."""
    stiff, explicit = linearization(k2, kp, rp, kind)
    eye = np.eye(2)
    if scheme is Scheme.IMEX:
        return np.linalg.solve(eye - dt * stiff, eye + dt * explicit)
    return np.linalg.inv(eye - dt * (stiff + explicit))


def spectral_radius(grid, dt, kp, rp, kind, scheme):
    """(radius, m): the largest |eigenvalue| of the closed-form G over the
    modes m < n of grid, and the mode where it is taken."""
    radii = np.abs(np.linalg.eigvals(amplification(
        wavenumber2(np.arange(grid.n_cells), grid), dt, kp, rp, kind, scheme))).max(axis=-1)
    return float(radii.max()), int(radii.argmax())


def condition(grid, dt, kp, rp, kind):
    """1 + dt * max over the grid's modes of ||M||_inf: the condition of
    I - dt*M, which bounds what a solve for the increment loses."""
    stiff, explicit = linearization(wavenumber2(np.arange(grid.n_cells), grid), kp, rp, kind)
    return 1.0 + dt * float(np.abs(stiff + explicit).sum(axis=-1).max())


def measured(grid, m, dt, kp, rp, kind, scheme):
    """The step's G at each amplitude a: perturb (U, V) by a*phi in each field
    in turn, take one step() and project its change from the step of (U, V)
    onto phi."""
    phi = np.cos(m * np.pi * (grid.centers - grid.x_left) / grid.length)
    cfg = StepperConfig(scheme=scheme, dt_max=dt)
    base = np.repeat([[U], [V]], grid.n_cells, axis=1)

    def stepped(w):
        out = step(State(0.0, grid, w), dt, kp, rp, kind, cfg)
        assert out.accepted
        return out.state.w

    w0 = stepped(base)
    gs = []
    for a in AMPLITUDES:
        cols = []
        for j in range(2):
            w = base.copy()
            w[j] += a * phi
            cols.append((stepped(w) - w0) @ phi / (phi @ phi) / a)
        gs.append(np.array(cols).T)
    return gs


def bound(g, a, cond):
    """What the measured G may miss the closed form g by at amplitude a."""
    return (1.0 + np.abs(g).max()) * ((a / min(U, V)) ** 2
                                      + EPS * (cond + ULPS * max(U, V) / a))


CASES = [(chi, dt, m) for chi in (0.05, 1.5) for dt in (1e-3, 5e-2) for m in (1, 4, None)]


def oracle_misses(kind, scheme, n):
    """The cases (chi, dt, m, a, miss, bound) of one model, scheme and grid
    whose measured G misses the closed form by more than the bound; m None
    stands for n // 6."""
    grid = Grid1D(0.0, 1.0, n)
    misses = []
    for chi, dt, m in CASES:
        m = n // 6 if m is None else m
        kp = kinetic(chi)
        g = amplification(wavenumber2(m, grid), dt, kp, REG, kind, scheme)
        cond = condition(grid, dt, kp, REG, kind)
        for a, gm in zip(AMPLITUDES, measured(grid, m, dt, kp, REG, kind, scheme)):
            miss, tol = float(np.abs(gm - g).max()), bound(g, a, cond)
            if not miss <= tol:
                misses.append((chi, dt, m, a, miss, tol))
    return misses


PASSING = [(ModelKind.LIMIT, Scheme.IMEX), (ModelKind.LIMIT, Scheme.FULLY_IMPLICIT),
           (ModelKind.REGULARIZED, Scheme.FULLY_IMPLICIT)]


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("kind, scheme", PASSING)
def test_step_amplifies_each_mode_as_its_symbol(kind, scheme, n):
    assert oracle_misses(kind, scheme, n) == []


def test_regularized_imex_miss_grows_like_n4():
    # the state-form solve's rounding, eps * cond * U / a with cond ~ dt *
    # eps_reg / dx^4, lands on the mode: from n = 128 to 512 its miss grows
    # as n^3.3 on average over these cases and at least as n^1.5, where a
    # solve for the increment would keep it flat
    kp = kinetic(0.05)
    growth = []
    for dt in (1e-3, 5e-2):
        for m in (1, 4):
            miss = []
            for n in (128, 512):
                grid = Grid1D(0.0, 1.0, n)
                g = amplification(wavenumber2(m, grid), dt, kp, REG, ModelKind.REGULARIZED,
                                  Scheme.IMEX)
                miss.append([np.abs(gm - g).max() for gm in measured(
                    grid, m, dt, kp, REG, ModelKind.REGULARIZED, Scheme.IMEX)])
            growth += list(np.log(np.divide(*miss[::-1])) / np.log(4.0))
    assert 2.5 < np.mean(growth) < 5.5, growth
    assert min(growth) > 1.0, growth


def test_fully_implicit_radius_below_one_on_the_paper_config():
    # perfbench's paper config at chi = 1.5: the coexistence state is
    # linearly stable at every chi, and backward Euler keeps every mode
    kp = kinetic(1.5)
    rp = RegParams(1e-4, 0.5, 2.0, 2.0)
    radius, _ = spectral_radius(Grid1D(0.0, 1.0, 256), 5e-2, kp, rp, ModelKind.REGULARIZED,
                                Scheme.FULLY_IMPLICIT)
    assert radius < 1.0


def _flip_chi2(monkeypatch):
    columns = model._columns

    def flipped(kp, rp):
        c = columns(kp, rp)
        return c._replace(chi=c.chi * np.array([[1.0], [-1.0]]))

    monkeypatch.setattr(model, "_columns", flipped)
    monkeypatch.setattr(stepper, "_columns", flipped)


PLANTS = {
    "chi2-sign": (_flip_chi2, PASSING),
    "h-is-s": (lambda mp: mp.setattr(model, "_h_flux", lambda s, n, eps: s),
               [(ModelKind.REGULARIZED, Scheme.FULLY_IMPLICIT)]),
    "no-mollifier": (lambda mp: mp.setattr(model, "_g_mollifier", lambda s, eps: s),
                     [(ModelKind.REGULARIZED, Scheme.FULLY_IMPLICIT)]),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_faults_fail_the_oracle(monkeypatch, plant):
    plant_fault, affected = PLANTS[plant]
    plant_fault(monkeypatch)
    for kind, scheme in affected:
        assert oracle_misses(kind, scheme, 128), (kind, scheme)
