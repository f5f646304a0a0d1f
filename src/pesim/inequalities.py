"""Randomized numerical checkers for the analytic toolkit behind the model.

Each checker evaluates both sides of one inequality and reports the worst
LHS/RHS ratio over its samples together with a pass flag.  Pointwise scalar
inequalities are exact and carry zero tolerance; quadrature-based ones carry
a small discretization allowance.  The random field family is restricted to
positive combinations of cos(k*pi*x) so the continuum hypotheses (positivity,
vanishing boundary derivative) hold exactly rather than being violated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (Field, Grid1D, diff1_values, diff2_values, integrate_values,
                   random_cosine_series)
from .model import h_flux, h_flux_deriv, h_flux_deriv2

__all__ = [
    "CheckReport",
    "signed_ratio",
    "check_bernis",
    "check_interp_lower",
    "check_interp_log",
    "check_mollifier_bound",
    "check_hflux_bounds",
    "ode_comparison_bound",
    "random_trig_field",
    "bernis_report",
    "interp_lower_report",
    "interp_log_report",
    "mollifier_report",
    "hflux_report",
    "elementary_report",
    "ode_comparison_report",
    "all_reports",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    samples: int
    worst_ratio: float
    passed: bool
    tolerance: float
    worst_case_payload: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "samples": self.samples,
                "worst_ratio": self.worst_ratio,
                "pass": self.passed,
                "tolerance": self.tolerance,
                "worst_case_payload": self.worst_case_payload,
            },
            indent=2,
        )


def _make_report(name, ratios_payloads, tolerance) -> CheckReport:
    worst = -math.inf
    payload = {}
    count = 0
    for ratio, pl in ratios_payloads:
        count += 1
        if ratio > worst:
            worst, payload = ratio, pl
    return CheckReport(name, count, worst, worst <= 1.0 + tolerance, tolerance, payload)


def signed_ratio(lhs: float, rhs: float) -> float:
    """LHS/RHS ratio normalized so that 'ratio <= 1' means 'LHS <= RHS'.

    Both sides of the logarithmic interpolation bound can be negative; in
    that case LHS <= RHS < 0 is equivalent to RHS/LHS <= 1, which is what is
    returned (ulp-level wobble at an equality case then lands just above 1
    instead of exploding).  A vanishing RHS gives 0 when the inequality holds
    trivially and +inf otherwise.
    """
    if rhs > 0.0:
        return lhs / rhs
    if rhs < 0.0:
        return math.inf if lhs >= 0.0 else rhs / lhs
    return 0.0 if lhs <= 0.0 else math.inf


# ---------------------------------------------------------------------------
# quadrature-based checkers
# ---------------------------------------------------------------------------

def check_bernis(f: Field, beta: float) -> float:
    """Ratio of int f^(beta-2) f_x^4 against 9/(beta-1)^2 int f^beta f_xx^2.

    Constants make both sides vanish; that degenerate case reports 0.
    """
    if beta == 1.0:
        raise ValueError("beta must differ from 1")
    _require_positive_field(f)
    g = f.grid
    w = f.values
    wx = diff1_values(w, g.dx)
    wxx = diff2_values(w, g.dx)
    lhs = integrate_values(w ** (beta - 2.0) * wx**4, g)
    rhs = 9.0 / (beta - 1.0) ** 2 * integrate_values(w**beta * wxx**2, g)
    if rhs == 0.0 and lhs == 0.0:
        return 0.0
    return signed_ratio(lhs, rhs)


def check_interp_lower(f: Field, p: float, q: float) -> float:
    """Ratio for the inverse-power interpolation bound on int f^(-p)."""
    if not (p > 0.0 and q > 0.0):
        raise ValueError("p and q must be positive")
    _require_positive_field(f)
    g = f.grid
    w = f.values
    wx = diff1_values(w, g.dx)
    omega = g.length
    lhs = integrate_values(w**-p, g)
    grad_term = integrate_values(w ** (-q - 2.0) * wx**2, g)
    rhs = (
        q ** (2.0 * p / q) * omega ** ((p + q) / q) * grad_term ** (p / q)
        + 2.0 ** (2.0 * p / q) * omega ** (p + 1.0) * integrate_values(w, g) ** -p
    )
    return signed_ratio(lhs, rhs)


def check_interp_log(f: Field) -> float:
    """Ratio for the bound on -int ln f by the logarithmic gradient integral."""
    _require_positive_field(f)
    g = f.grid
    w = f.values
    wx = diff1_values(w, g.dx)
    omega = g.length
    lhs = -integrate_values(np.log(w), g)
    rhs = (
        omega**1.5 * math.sqrt(integrate_values(wx**2 / w**2, g))
        - omega * math.log(integrate_values(w, g))
        + omega * math.log(omega)
    )
    return signed_ratio(lhs, rhs)


def _require_positive_field(f: Field):
    if f.min() <= 0.0:
        raise ValueError("field must be strictly positive")


# ---------------------------------------------------------------------------
# pointwise scalar checkers
# ---------------------------------------------------------------------------

def check_mollifier_bound(nu: float, eps: float, s_samples) -> float:
    """Worst ratio of s^nu/(3 s^2 + eps) against its closed-form supremum.

    Uses the convention 0^0 = 1, matching the closed form at nu in {0, 2}.
    """
    if not 0.0 <= nu <= 2.0:
        raise ValueError("nu must lie in [0, 2]")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    s = np.asarray(s_samples, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("samples must be nonnegative")
    lhs = s**nu / (3.0 * s**2 + eps)
    rhs = 0.5 * (nu / 3.0) ** (nu / 2.0) * (2.0 - nu) ** ((2.0 - nu) / 2.0) * eps ** (
        -(2.0 - nu) / 2.0
    )
    return float((lhs / rhs).max())


def check_hflux_bounds(n: float, eps: float, s_samples) -> dict:
    """Pointwise ratios for the three taxis-coefficient bounds.

    Returns {'value': h/s, 'deriv': h'/(5-n), 'deriv2': |h''| s^(3/2)/bound},
    each the worst ratio over the strictly positive samples.
    """
    s = np.asarray(s_samples, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("samples must be strictly positive")
    r_val = (h_flux(s, n, eps) / s).max()
    r_d1 = (h_flux_deriv(s, n, eps) / (5.0 - n)).max()
    bound2 = (
        2.0 ** (-(7.0 - 2.0 * n) / (2.0 * (4.0 - n)))
        * (4.0 - n) * (5.0 - n) * eps ** (1.0 / (2.0 * (4.0 - n)))
    )
    r_d2 = (np.abs(h_flux_deriv2(s, n, eps)) * s**1.5 / bound2).max()
    return {"value": float(r_val), "deriv": float(r_d1), "deriv2": float(r_d2)}


# ---------------------------------------------------------------------------
# ODE comparison bound
# ---------------------------------------------------------------------------

_ODE_GRID_STEPS = 100_000
_ODE_BLOCK = 64  # steps per barrier evaluation
# Relative allowance for the barrier check: the bound is approached (never
# crossed) as the solution relaxes to its equilibrium, so exact floating-point
# equality at the limit may wobble by a few ulp.
_ODE_FP_TOL = 1e-9


def _rk4_barrier_worst(t0, a, b, beta, y0, t_end, n_steps=_ODE_GRID_STEPS):
    """Integrate y' = b - a*y^beta for each draw and return the worst
    y(t)/bound(t) over the shared time grid (vectorized over draws), with the
    index of the draw and the time where it occurs.

    Draws above the equilibrium (b/a)^(1/beta) are integrated in z = y^(1-beta),
    whose dynamics z' = (beta-1)*(a - b*z^(beta/(beta-1))) are non-stiff even
    for huge y0; the others in y directly.  The barrier is evaluated once per
    block of steps; a NaN ratio (a diverged draw) is returned at once.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if np.any(beta <= 1.0):
        raise ValueError("beta must exceed 1")
    if np.any(y0 < 0.0) or np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("need a > 0, b > 0, y0 >= 0")
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")

    y_eq = (b / a) ** (1.0 / beta)
    zmode = y0 > y_eq
    bm1 = beta - 1.0
    s = np.where(zmode, np.where(zmode, y0, 1.0) ** (1.0 - beta), y0)
    # both modes share the rate c0*(c1 - c2*s^e); the y-mode factor 1 is exact
    c0, e = np.where(zmode, bm1, 1.0), np.where(zmode, beta / bm1, beta)
    c1, c2 = np.where(zmode, a, b), np.where(zmode, b, a)

    dt = (t_end - t0) / n_steps
    h2, h6, exp_back, bm1a = 0.5 * dt, dt / 6.0, -1.0 / bm1, bm1 * a
    worst, worst_draw, worst_t, t = 0.0, 0, t0, t0
    # for beta near 1 the early barrier overflows to +inf, which is the
    # mathematically correct value (the check is then trivially satisfied)
    with np.errstate(over="ignore"):
        for start in range(0, n_steps, _ODE_BLOCK):
            s_blk = np.empty((min(_ODE_BLOCK, n_steps - start), s.size))
            t_blk = np.empty((len(s_blk), 1))
            for j in range(len(s_blk)):
                k1 = c0 * (c1 - c2 * s**e)
                k2 = c0 * (c1 - c2 * (s + h2 * k1) ** e)
                k3 = c0 * (c1 - c2 * (s + h2 * k2) ** e)
                k4 = c0 * (c1 - c2 * (s + dt * k3) ** e)
                s = np.add(s, h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=s_blk[j])
                t += dt
                t_blk[j] = t
            y = np.where(zmode, np.where(zmode, s_blk, 1.0) ** exp_back, s_blk)
            bound = (bm1a * (t_blk - t0)) ** exp_back + y_eq
            ratios = y / bound
            k = int(ratios.argmax())  # argmax, like max, stops at the first NaN
            ratio = float(ratios.flat[k])
            if ratio > worst or math.isnan(ratio):
                row, worst_draw = divmod(k, s.size)
                worst, worst_t = ratio, float(t_blk[row, 0])
                if math.isnan(ratio):
                    break
    return worst, worst_draw, worst_t


def ode_comparison_bound(t0: float, a: float, b: float, beta: float,
                         y0: float, t_end: float) -> bool:
    """Whether the solution of y' = b - a*y^beta, y(t0) = y0, stays below
    ((beta-1)*a*(t-t0))^(-1/(beta-1)) + (b/a)^(1/beta) on the sampled grid."""
    worst = _rk4_barrier_worst(t0, a, b, beta, y0, t_end)[0]
    return worst <= 1.0 + _ODE_FP_TOL


# ---------------------------------------------------------------------------
# random field family and shipped suites
# ---------------------------------------------------------------------------

def random_trig_field(grid: Grid1D, rng: np.random.Generator,
                      n_modes: int = 4, floor: float = 0.5) -> Field:
    """Positive trig polynomial base + sum c_k cos(k*pi*s(x)), bounded in
    [floor, 3]; satisfies the continuum hypotheses (positivity, vanishing
    boundary derivative) exactly."""
    base = rng.uniform(1.0, 2.0)
    amp = rng.uniform(0.2, min(base - floor, 1.0))
    return Field(grid, random_cosine_series(grid, rng, base, amp, n_modes))


def bernis_report(n_fields=200, n_cells=400, betas=(-1.0, 0.0, 2.0, 3.0),
                  tolerance=0.05, seed=20240) -> CheckReport:
    rng = np.random.default_rng(seed)
    grid = Grid1D(0.0, 1.0, n_cells)
    results = []
    for i in range(n_fields):
        f = random_trig_field(grid, rng)
        for beta in betas:
            results.append((check_bernis(f, beta), {"field": i, "beta": beta}))
    return _make_report("bernis", results, tolerance)


def interp_lower_report(n_fields=200, n_cells=400, pq_values=(1.5, 2.0),
                        tolerance=0.05, seed=20241) -> CheckReport:
    rng = np.random.default_rng(seed)
    grid = Grid1D(0.0, 1.0, n_cells)
    results = []
    for i in range(n_fields):
        f = random_trig_field(grid, rng)
        for pq in pq_values:
            results.append((check_interp_lower(f, pq, pq), {"field": i, "p": pq, "q": pq}))
    return _make_report("interp_lower", results, tolerance)


def interp_log_report(n_fields=200, n_cells=400, tolerance=0.05,
                      seed=20242) -> CheckReport:
    rng = np.random.default_rng(seed)
    grid = Grid1D(0.0, 1.0, n_cells)
    results = [
        (check_interp_log(random_trig_field(grid, rng)), {"field": i})
        for i in range(n_fields)
    ]
    return _make_report("interp_log", results, tolerance)


def mollifier_report(nus=(0.0, 0.5, 1.0, 1.5, 2.0),
                     eps_values=(1e-4, 1e-2, 0.5), tolerance=0.0) -> CheckReport:
    s = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 2000)])
    results = []
    for nu in nus:
        for eps in eps_values:
            results.append((check_mollifier_bound(nu, eps, s), {"nu": nu, "eps": eps}))
    return _make_report("mollifier", results, tolerance)


def hflux_report(n_values=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5),
                 eps_values=(1e-4, 1e-2, 0.5), tolerance=0.0) -> CheckReport:
    # s capped at 1e2 so the h <= s margin eps/s^(4-n) stays far above roundoff
    s = np.geomspace(1e-3, 1e2, 2000)
    results = []
    for n in n_values:
        for eps in eps_values:
            ratios = check_hflux_bounds(n, eps, s)
            for key, r in ratios.items():
                results.append((r, {"n": n, "eps": eps, "bound": key}))
    return _make_report("hflux", results, tolerance)


def elementary_report(n_samples=4000, tolerance=1e-12, seed=20243) -> CheckReport:
    """Two elementary scalar bounds: ln(x) <= 2 sqrt(x) on [1, inf) and
    x^2 ln(x) >= -1/(2e) on (0, 1]; included for coverage."""
    rng = np.random.default_rng(seed)
    xi_hi = np.concatenate([[1.0], np.exp(rng.uniform(0.0, 14.0, n_samples))])
    xi_lo = np.concatenate([[math.exp(-0.5)], rng.uniform(1e-12, 1.0, n_samples)])
    r1 = float((np.log(xi_hi[1:]) / (2.0 * np.sqrt(xi_hi[1:]))).max())
    r1 = max(r1, 0.0)  # at xi = 1 both sides: 0 <= 2
    r2 = float(((-(xi_lo**2) * np.log(xi_lo)) / (1.0 / (2.0 * math.e))).max())
    results = [
        (r1, {"bound": "log_vs_sqrt"}),
        (r2, {"bound": "sq_log_lower"}),
    ]
    return _make_report("elementary", results, tolerance)


def ode_comparison_report(n_draws=100, t_span=10.0, tolerance=0.0,
                          seed=20244) -> CheckReport:
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 10.0, n_draws)
    b = rng.uniform(0.1, 10.0, n_draws)
    beta = rng.uniform(1.001, 3.0, n_draws)
    y0 = rng.uniform(0.0, 1e6, n_draws)
    worst, i, t = _rk4_barrier_worst(0.0, a, b, beta, y0, t_span)
    # the barrier is approached at equilibrium, so allow the ulp-level wobble
    passed = worst <= 1.0 + max(tolerance, _ODE_FP_TOL)
    payload = {"t_span": t_span, "draw": i, "a": float(a[i]), "b": float(b[i]),
               "beta": float(beta[i]), "y0": float(y0[i]), "t": t}
    return CheckReport("ode_comparison", n_draws, worst, passed,
                       max(tolerance, _ODE_FP_TOL), payload)


_SUITES = {
    "bernis": lambda: [bernis_report()],
    "interp": lambda: [interp_lower_report(), interp_log_report()],
    "mollifier": lambda: [mollifier_report()],
    "hflux": lambda: [hflux_report(), elementary_report()],
    "ode": lambda: [ode_comparison_report()],
}


def all_reports(suite: str = "all", skip=()) -> list[CheckReport]:
    """Run one named checker suite (or all of them) and return the reports,
    leaving out the suites named in skip."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = _SUITES if suite == "all" else (suite,)
    return [rep for name in names if name not in skip for rep in _SUITES[name]()]
