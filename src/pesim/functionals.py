"""Diagnostic functionals evaluated on simulation states.

Everything here is a pure midpoint-quadrature evaluation: total masses and the
asymptotic mass bound, the homogeneous steady states, the logarithmic
quasi-entropy F with its dissipation rate D, the coexistence pair (E1, D1),
the extinction pair (E2, D2), the gradient functional y used as a conditional
quasi-entropy, and the weak-form residual of a sampled trajectory.

Where u and v enter alike, a functional evaluates both at once in the model's
stacked form: w = (u, v) is the state's (2, n) array State.w, the per-field
constants are (2, 1) columns (model._columns, the steady state), exponents go
through model._pow, one diff1_values call gives both gradients, and
grid.integrate_values integrates each row.  The row integrals are then added
in the order of the per-field formulas (E1 field by field, D1 term by term
with u before v), because any other order changes the last bit.  E2 and D2
are not symmetric in u and v and keep one term per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .grid import diff1_values, diff2_values, integrate_values
from .model import KineticParams, ModelKind, RegParams, State, _columns, _pow, reaction_terms

__all__ = [
    "Regime",
    "SteadyStates",
    "DiagnosticsRecord",
    "steady_states",
    "m_infinity",
    "phi",
    "quasi_entropy_F",
    "dissipation_D",
    "entropy_E1",
    "dissipation_rate_D1",
    "entropy_E2",
    "dissipation_rate_D2",
    "conditional_y",
    "cross_entropy_productions",
    "CosineBumpTestFunction",
    "weak_residual",
    "diagnostics_record",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz

# The limit system reads no regularization constant, but the model's
# parameter columns are built from a RegParams; any valid one will do.
_LIMIT_REG = RegParams(eps=0.5)


class Regime(Enum):
    COEXISTENCE = "coexistence"
    EXTINCTION = "extinction"


@dataclass(frozen=True)
class SteadyStates:
    u_star: float
    v_star: float
    regime: Regime


def steady_states(kp: KineticParams) -> SteadyStates:
    """Attracting homogeneous state: coexistence iff lambda2 > a2*lambda1,
    otherwise the prey-extinction state (lambda1, 0); ties go to extinction."""
    if kp.lambda2 > kp.a2 * kp.lambda1:
        denom = 1.0 + kp.a1 * kp.a2
        return SteadyStates(
            (kp.lambda1 + kp.a1 * kp.lambda2) / denom,
            (kp.lambda2 - kp.a2 * kp.lambda1) / denom,
            Regime.COEXISTENCE,
        )
    return SteadyStates(kp.lambda1, 0.0, Regime.EXTINCTION)


def m_infinity(kp: KineticParams, omega_len: float) -> float:
    """Size of the L1 absorbing set that all trajectories eventually enter."""
    if not omega_len > 0.0:
        raise ValueError("omega_len must be positive")
    beta = max(kp.a1**2, 1.0)
    r = 1.0 / (2.0 * math.sqrt(3.0))
    return (
        omega_len / 2.0 * (kp.lambda1 + r + 1.0 + beta * kp.a2 * r) ** 2
        + omega_len / 2.0 * (kp.lambda2 + r + 1.0) ** 2 * beta
    )


def phi(xi_star, xi):
    """Bregman distance xi - xi_star - xi_star*ln(xi/xi_star) to xi_star; >= 0.

    xi_star is a number, or a (2, 1) column with one value per row of a
    stacked xi.
    """
    if not np.all(np.asarray(xi_star) > 0.0):
        raise ValueError("xi_star must be positive")
    if np.any(np.asarray(xi) <= 0.0):
        raise ValueError("xi must be positive")
    return xi - xi_star - xi_star * np.log(xi / xi_star)


# ---------------------------------------------------------------------------
# entropy / dissipation functionals
# ---------------------------------------------------------------------------

def quasi_entropy_F(state: State, kp: KineticParams, rp: RegParams) -> float:
    """Logarithmic quasi-entropy with the regularization's inverse-power tail."""
    g, w = state.grid, state.w
    n = _columns(kp, rp).n
    # raveled: a (2, 1) column would broadcast against the (2,) row integrals
    coef = np.ravel(rp.eps / ((3.0 - n) * (4.0 - n)))
    f = (integrate_values(w * np.log(w), g) - integrate_values(w, g)
         + coef * integrate_values(_pow(w, -(3.0 - n)), g))
    return float(f[0] + kp.chi1 / kp.chi2 * f[1])


def dissipation_D(state: State, kp: KineticParams, rp: RegParams) -> float:
    """Dissipation rate paired with the quasi-entropy; nonnegative."""
    g, w = state.grid, state.w
    c = _columns(kp, rp)
    d = c.d.ravel()
    wx = diff1_values(w, g.dx)
    wxx = diff2_values(w, g.dx)
    f = (
        d / 2.0 * integrate_values(wx**2 / w, g)
        + rp.eps * integrate_values(_pow(w, c.n - 1.0) * wxx**2, g)
        + d * rp.eps * integrate_values(wx**2 / _pow(w, 5.0 - c.n), g)
    )
    return float(f[0] + kp.chi1 / kp.chi2 * f[1])


def entropy_E1(state: State, kp: KineticParams, rp: RegParams) -> float:
    """Coexistence relative entropy; only defined when the prey persists."""
    ss = steady_states(kp)
    if ss.regime is not Regime.COEXISTENCE:
        raise ValueError("coexistence entropy undefined in the extinction regime")
    g, w = state.grid, state.w
    star = np.array([[ss.u_star], [ss.v_star]])
    # the weight leads each product, as in the per-field a * v_star * eps / 6
    weight = np.array([1.0, kp.a1 / kp.a2])
    rel = weight * integrate_values(phi(star, w), g)
    tail = weight * star.ravel() * rp.eps / 6.0 * integrate_values(w**-2, g)
    return float(rel[0] + tail[0] + rel[1] + tail[1])


def dissipation_rate_D1(state: State, kp: KineticParams, rp: RegParams) -> float:
    """Dissipation rate paired with the coexistence entropy; nonnegative."""
    ss = steady_states(kp)
    g, w = state.grid, state.w
    wx = diff1_values(w, g.dx)
    epow = rp.eps ** ((rp.alpha + 2.0) / 2.0)
    grad = integrate_values(wx**2 / w**2, g)
    dev = integrate_values((w - np.array([[ss.u_star], [ss.v_star]])) ** 2, g)
    fast = epow * integrate_values(w ** (-rp.alpha - 4.0) * wx**2, g)
    return float(grad[0] + grad[1] + dev[0] + dev[1] + fast[0] + fast[1])


def entropy_E2(state: State, kp: KineticParams, rp: RegParams) -> float:
    """Extinction entropy: relative entropy to lambda1 in u plus prey penalties."""
    g = state.grid
    u, v = state.w
    a = kp.a1 / kp.a2
    return float(
        integrate_values(phi(kp.lambda1, u), g)
        + kp.lambda1 * rp.eps / 6.0 * integrate_values(u**-2, g)
        + a * integrate_values(v, g)
        + a / (2.0 * kp.lambda2) * integrate_values(v**2, g)
        + a * rp.eps / (2.0 * kp.lambda2) * integrate_values(1.0 / v, g)
    )


def dissipation_rate_D2(state: State, kp: KineticParams, rp: RegParams) -> float:
    """Dissipation rate paired with the extinction entropy; nonnegative."""
    g = state.grid
    u, v = w = state.w
    ux, vx = diff1_values(w, g.dx)
    epow = rp.eps ** ((rp.alpha + 2.0) / 2.0)
    return float(
        integrate_values(ux**2 / u**2, g)
        + integrate_values(vx**2, g)
        + integrate_values((u - kp.lambda1) ** 2, g)
        + integrate_values(v**3, g)
        + epow * integrate_values(u ** (-rp.alpha - 4.0) * ux**2, g)
        + epow * integrate_values(v ** (-rp.alpha - 3.0) * vx**2, g)
    )


def conditional_y(state: State, gamma: float = 1.0) -> float:
    """Gradient functional  int u_x^2 + gamma * int v_x^2  (gamma > 0)."""
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    g, w = state.grid, state.w
    h1 = integrate_values(diff1_values(w, g.dx) ** 2, g)
    return float(h1[0] + gamma * h1[1])


def cross_entropy_productions(state: State, kp: KineticParams, rp: RegParams):
    """The two cross-diffusion entropy productions, in their collapsed form.

    In the continuum, testing the u-equation's taxis flux with the regularized
    log-entropy weight collapses the factor h(u) * L''(u) to 1, and the same
    happens on the v side, so both productions reduce to one sum S of
    u_x * v_x.  This returns that collapsed pair, (chi1 * S,
    -(chi1/chi2) * chi2 * S), computed from one face sum: it never reads rp,
    and the two cancel to a few ulp for any state.

    The scheme's own fluxes (the face mean of h_eps times the face gradient
    of the other field) cancel only to second order in dx;
    tests/test_functionals.py::test_scheme_taxis_fluxes_cancel_in_entropy_to_second_order
    checks that order.
    """
    g = state.grid
    ux, vx = np.diff(state.w) / g.dx
    s = g.dx * float((ux * vx).sum())
    return kp.chi1 * s, -(kp.chi1 / kp.chi2) * kp.chi2 * s


# ---------------------------------------------------------------------------
# weak-form residual
# ---------------------------------------------------------------------------

class CosineBumpTestFunction:
    """Separable test function cos(k*pi*s(x)) * psi(t) with s the unit-scaled
    coordinate and psi a smooth bump with psi(t_end) = psi'(t_end) = 0."""

    def __init__(self, mode: int, t_end: float, x_left: float = 0.0, x_right: float = 1.0):
        if mode < 0:
            raise ValueError("mode must be nonnegative")
        if not t_end > 0.0:
            raise ValueError("t_end must be positive")
        self.mode = mode
        self.t_end = t_end
        self.x_left = x_left
        self.length = x_right - x_left

    def _s(self, x):
        return (np.asarray(x) - self.x_left) / self.length

    def _psi(self, t):
        return math.cos(math.pi * t / (2.0 * self.t_end)) ** 2

    def _psi_t(self, t):
        return -math.pi / (2.0 * self.t_end) * math.sin(math.pi * t / self.t_end)

    def value(self, x, t):
        return np.cos(self.mode * math.pi * self._s(x)) * self._psi(t)

    def time_deriv(self, x, t):
        return np.cos(self.mode * math.pi * self._s(x)) * self._psi_t(t)

    def space_deriv(self, x, t):
        k = self.mode * math.pi / self.length
        return -k * np.sin(self.mode * math.pi * self._s(x)) * self._psi(t)


def weak_residual(sample_log, kp: KineticParams, test_fn) -> tuple[float, float]:
    """Absolute defects of the weak form of the limit system on a sampled run.

    Space integrals use the midpoint rule, time integrals the trapezoid rule
    over the (ordered) sample log; gradients come from the mirrored central
    difference.  The test function must vanish at the final sample time.
    """
    samples = list(sample_log)
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    grid = samples[0].grid
    x = grid.centers
    times = np.array([s.t for s in samples])
    c = _columns(kp, _LIMIT_REG)

    i_pt, i_flux, i_react = (np.empty((2, len(samples))) for _ in range(3))
    for k, s in enumerate(samples):
        w = s.w
        wx = diff1_values(w, grid.dx)
        ph = np.asarray(test_fn.value(x, s.t))
        ph_t = np.asarray(test_fn.time_deriv(x, s.t))
        ph_x = np.asarray(test_fn.space_deriv(x, s.t))
        i_pt[:, k] = integrate_values(w * ph_t, grid)
        # the limit system's flux as model.compute_rhs forms it, at the cells
        i_flux[:, k] = integrate_values(-(c.d * wx + c.chi * w * wx[::-1]) * ph_x, grid)
        react = reaction_terms(w, kp, _LIMIT_REG, ModelKind.LIMIT)
        i_react[:, k] = integrate_values(react * ph, grid)

    ph0 = np.asarray(test_fn.value(x, samples[0].t))
    lhs = -_trapz(i_pt, times) - integrate_values(samples[0].w * ph0, grid)
    rhs = _trapz(i_flux, times) + _trapz(i_react, times)
    return tuple(np.abs(lhs - rhs).tolist())


# ---------------------------------------------------------------------------
# one sampled row of everything
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass_u: float
    mass_v: float
    F: float
    D: float
    E1: float | None
    D1: float | None
    E2: float
    D2: float
    y: float
    min_u: float
    min_v: float
    max_u: float
    max_v: float
    h1_u: float
    h1_v: float


# the columns of timeseries.csv, in field order
DiagnosticsRecord.CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def diagnostics_record(state: State, kp: KineticParams, rp: RegParams,
                       gamma: float = 1.0) -> DiagnosticsRecord:
    """Evaluate every monitored functional on one state.

    In the extinction regime the coexistence pair (E1, D1) is undefined and
    reported as None (empty in CSV output) rather than infinity or NaN.
    """
    g, w = state.grid, state.w
    coexist = steady_states(kp).regime is Regime.COEXISTENCE
    mass_u, mass_v = integrate_values(w, g).tolist()
    h1_u, h1_v = integrate_values(diff1_values(w, g.dx) ** 2, g).tolist()
    min_u, min_v = w.min(axis=1).tolist()
    max_u, max_v = w.max(axis=1).tolist()
    return DiagnosticsRecord(
        t=state.t,
        mass_u=mass_u,
        mass_v=mass_v,
        F=quasi_entropy_F(state, kp, rp),
        D=dissipation_D(state, kp, rp),
        E1=entropy_E1(state, kp, rp) if coexist else None,
        D1=dissipation_rate_D1(state, kp, rp) if coexist else None,
        E2=entropy_E2(state, kp, rp),
        D2=dissipation_rate_D2(state, kp, rp),
        y=h1_u + gamma * h1_v,
        min_u=min_u,
        min_v=min_v,
        max_u=max_u,
        max_v=max_v,
        h1_u=h1_u,
        h1_v=h1_v,
    )
