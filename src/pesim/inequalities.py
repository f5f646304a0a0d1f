"""Randomized numerical checkers for the analytic toolkit behind the model.

Each checker evaluates both sides of one inequality and reports the worst
LHS/RHS ratio over its samples together with a pass flag.  Pointwise scalar
inequalities are exact and carry zero tolerance; quadrature-based ones carry
a small discretization allowance.  The random field family is restricted to
positive combinations of cos(k*pi*x) so the continuum hypotheses (positivity,
vanishing boundary derivative) hold exactly rather than being violated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (Grid1D, diff1_values, diff2_values, finite_positive, integrate_values,
                   random_cosine_series)
from .model import h_flux, h_flux_deriv, h_flux_deriv2
from .rng import DefaultRng

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


def _worst(results):
    """The (ratio, payload) pair with the first worst ratio; a NaN ratio wins at once."""
    worst = (-math.inf, {})
    for pair in results:
        if math.isnan(pair[0]):
            return pair
        if pair[0] > worst[0]:
            worst = pair
    return worst


def _make_report(name, results, tolerance) -> CheckReport:
    """The report of a list of (ratio, payload) pairs: the _worst one, passed
    when its ratio is at most 1 + tolerance, so a NaN (nothing evaluated) fails."""
    worst, payload = _worst(results)
    return CheckReport(name, len(results), worst, worst <= 1.0 + tolerance, tolerance, payload)


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

def check_bernis(w: np.ndarray, g: Grid1D, beta: float) -> float:
    """Ratio of int w^(beta-2) w_x^4 against 9/(beta-1)^2 int w^beta w_xx^2 on grid g.

    Constants make both sides vanish; that degenerate case reports 0.  A
    beta at which either integral is not finite raises ValueError.
    """
    if beta == 1.0:
        raise ValueError("beta must differ from 1")
    _require_positive_field(w, g)
    wx = diff1_values(w, g.dx)
    wxx = diff2_values(w, g.dx)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = integrate_values(w ** (beta - 2.0) * wx**4, g)
        rhs = integrate_values(w**beta * wxx**2, g)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"beta = {beta:g} makes a bernis integral non-finite")
    return signed_ratio(lhs, 9.0 / (beta - 1.0) ** 2 * rhs)


def check_interp_lower(w: np.ndarray, g: Grid1D, p: float, q: float) -> float:
    """Ratio for the inverse-power interpolation bound on int w^(-p) on grid g."""
    if not (p > 0.0 and q > 0.0):
        raise ValueError("p and q must be positive")
    _require_positive_field(w, g)
    wx = diff1_values(w, g.dx)
    omega = g.length
    lhs = integrate_values(w**-p, g)
    grad_term = integrate_values(w ** (-q - 2.0) * wx**2, g)
    rhs = (
        q ** (2.0 * p / q) * omega ** ((p + q) / q) * grad_term ** (p / q)
        + 2.0 ** (2.0 * p / q) * omega ** (p + 1.0) * integrate_values(w, g) ** -p
    )
    return signed_ratio(lhs, rhs)


def check_interp_log(w: np.ndarray, g: Grid1D) -> float:
    """Ratio for the bound on -int ln w by the logarithmic gradient integral on grid g."""
    _require_positive_field(w, g)
    wx = diff1_values(w, g.dx)
    omega = g.length
    lhs = -integrate_values(np.log(w), g)
    rhs = (
        omega**1.5 * math.sqrt(integrate_values(wx**2 / w**2, g))
        - omega * math.log(integrate_values(w, g))
        + omega * math.log(omega)
    )
    return signed_ratio(lhs, rhs)


def _require_positive_field(w: np.ndarray, g: Grid1D):
    if w.shape != (g.n_cells,):
        raise ValueError(f"expected {g.n_cells} values, got shape {w.shape}")
    if not finite_positive(w):
        raise ValueError("field must be finite and strictly positive")


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

_ODE_GRID_STEPS = 100_000  # sample times on every draw's barrier
# graded RK4 steps: the step from sample j spans max(1, min(floor(C*j), M))
# samples, so h ~ C*(t - t0) inside the initial layer and M samples beyond it
_ODE_GRADE, _ODE_MAX_SPAN = 0.003, 50
_ODE_BLOCK = 64  # fewest samples per barrier evaluation, but for the last
# Relative allowance for the barrier check: the bound is approached (never
# crossed) as the solution relaxes to its equilibrium, so exact floating-point
# equality at the limit may wobble by a few ulp.
_ODE_FP_TOL = 1e-9
_ODE_DRAWS, _ODE_T_SPAN = 100, 10.0  # the shipped report's draws and horizon


@functools.lru_cache(maxsize=None)
def _hermite_weights(m):
    """The (m-1, 4) cubic Hermite weights of (s0, h*f0, s1, h*f1) at
    theta = i/m, i = 1..m-1."""
    th = np.arange(1, m) / m
    return np.stack([(1.0 + 2.0 * th) * (1.0 - th) ** 2, th * (1.0 - th) ** 2,
                     th**2 * (3.0 - 2.0 * th), th**2 * (th - 1.0)], axis=1)


def _rk4_dense(s, rate, dt, n_steps):
    """Yield the RK4 solution of s' = rate(s) at samples 1..n_steps of spacing
    dt, in (rows, draws) blocks of whole graded steps, each at least
    _ODE_BLOCK rows but the last; each block is overwritten by the next.  A
    step's last row is its end value; the rows before it interpolate the end
    values and the slopes, the end slope being the next step's k1 (dense
    output, Hairer, Norsett & Wanner, Solving ODEs I, II.6)."""
    k1, j, rows = rate(s), 0, 0
    buf = np.empty((_ODE_BLOCK + _ODE_MAX_SPAN - 1, s.size))
    while j < n_steps:
        m = min(max(1, min(int(_ODE_GRADE * j), _ODE_MAX_SPAN)), n_steps - j)
        h = m * dt
        k2 = rate(s + 0.5 * h * k1)
        k3 = rate(s + 0.5 * h * k2)
        k4 = rate(s + h * k3)
        s1 = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f1 = rate(s1)
        if m > 1:
            # einsum, not @: BLAS buffers would add about 0.25 MB to the peak RSS
            ends = np.stack([s, h * k1, s1, h * f1])
            np.einsum("ik,kj->ij", _hermite_weights(m), ends, out=buf[rows:rows + m - 1])
        buf[rows + m - 1] = s1
        s, k1, j, rows = s1, f1, j + m, rows + m
        if rows >= _ODE_BLOCK or j == n_steps:
            yield buf[:rows]
            rows = 0


def _ode_ratio_blocks(t0, a, b, beta, y0, t_end, n_steps):
    """Integrate y' = b - a*y^beta for each draw and yield y(t)/bound(t) at
    the n_steps sample times t0 + dt, t0 + 2*dt, ... (summed one dt at a
    time), dt = (t_end - t0)/n_steps, as (t_blk, ratios) per block of
    _rk4_dense: a (rows, 1) column and a (rows, draws) array.

    Draws above the equilibrium (b/a)^(1/beta) are integrated in z = y^(1-beta),
    whose dynamics z' = (beta-1)*(a - b*z^(beta/(beta-1))) are non-stiff even
    for huge y0; the others in y directly.  All draws share one graded RK4
    step sequence (_rk4_dense), vectorized over draws.
    """
    a, b, beta, y0 = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (a, b, beta, y0))
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
    exp_back, bm1a, t = -1.0 / bm1, bm1 * a, t0
    for s_blk in _rk4_dense(s, lambda x: c0 * (c1 - c2 * x**e), dt, n_steps):
        t_blk = np.full((len(s_blk), 1), dt)
        t_blk[0] += t
        t_blk = np.cumsum(t_blk, axis=0)  # sequential, so t += dt to the bit
        t = float(t_blk[-1, 0])
        y = np.where(zmode, np.where(zmode, s_blk, 1.0) ** exp_back, s_blk)
        bound = (bm1a * (t_blk - t0)) ** exp_back + y_eq
        yield t_blk, y / bound


def _rk4_barrier_worst(t0, a, b, beta, y0, t_end, n_steps=_ODE_GRID_STEPS):
    """The _worst y(t)/bound(t) of _ode_ratio_blocks, with the draw and the
    sample time where it first occurs; a NaN ratio (a diverged draw) wins at once."""
    def block_worsts(blocks):
        yield 0.0, (0, t0)  # at t0 the barrier is infinite: every ratio there is 0
        for t_blk, ratios in blocks:
            k = int(ratios.argmax())  # argmax, like max, stops at the first NaN
            row, draw = divmod(k, ratios.shape[1])
            yield float(ratios.flat[k]), (draw, float(t_blk[row, 0]))

    # for beta near 1 the early barrier overflows to +inf, which is the
    # mathematically correct value (the check is then trivially satisfied)
    with np.errstate(over="ignore"):
        blocks = _ode_ratio_blocks(t0, a, b, beta, y0, t_end, n_steps)
        worst, (draw, t) = _worst(block_worsts(blocks))
    return worst, draw, t


def ode_comparison_bound(t0: float, a: float, b: float, beta: float,
                         y0: float, t_end: float) -> bool:
    """Whether the solution of y' = b - a*y^beta, y(t0) = y0, stays below
    ((beta-1)*a*(t-t0))^(-1/(beta-1)) + (b/a)^(1/beta) on the sampled grid."""
    worst = _rk4_barrier_worst(t0, a, b, beta, y0, t_end)[0]
    return _make_report("ode_comparison", [(worst, {})], _ODE_FP_TOL).passed


# ---------------------------------------------------------------------------
# random field family and shipped suites
# ---------------------------------------------------------------------------

def random_trig_field(grid: Grid1D, rng) -> np.ndarray:
    """Positive trig polynomial base + sum c_k cos(k*pi*s(x)), k = 1..4,
    with base, amp and the c_k drawn by rng.uniform in that order;
    bounded in [0.5, 3]; satisfies the continuum hypotheses (positivity,
    vanishing boundary derivative) exactly."""
    base = rng.uniform(1.0, 2.0)
    amp = rng.uniform(0.2, min(base - 0.5, 1.0))
    return random_cosine_series(grid, rng, base, amp, 4)


def _field_sweep(name, seed, check, cases) -> CheckReport:
    """check(f, grid, **case) for every case on each of 200 random_trig_field
    draws f on a 400-cell unit grid, the fields drawn from DefaultRng(seed),
    numpy's default_rng(seed) stream; the payload is {"field": i, **case} and
    the tolerance 0.05 (quadrature)."""
    rng = DefaultRng(seed)
    grid = Grid1D(0.0, 1.0, 400)
    results = []
    for i in range(200):
        f = random_trig_field(grid, rng)
        results += [(check(f, grid, **case), {"field": i, **case}) for case in cases]
    return _make_report(name, results, 0.05)


def bernis_report(betas=(-1.0, 0.0, 2.0, 3.0)) -> CheckReport:
    """check_bernis at each beta on the _field_sweep fields of seed 20240."""
    return _field_sweep("bernis", 20240, check_bernis, [{"beta": b} for b in betas])


def interp_lower_report() -> CheckReport:
    """check_interp_lower at p = q = 1.5 and 2 on the _field_sweep fields of seed 20241."""
    return _field_sweep("interp_lower", 20241, check_interp_lower,
                        [{"p": pq, "q": pq} for pq in (1.5, 2.0)])


def interp_log_report() -> CheckReport:
    """check_interp_log on the _field_sweep fields of seed 20242."""
    return _field_sweep("interp_log", 20242, check_interp_log, [{}])


_POINTWISE_EPS = (1e-4, 1e-2, 0.5)  # eps values of the mollifier and hflux sweeps
_ELEMENTARY_SAMPLES = 4000  # random points per elementary bound


def mollifier_report() -> CheckReport:
    """check_mollifier_bound for nu in {0, 0.5, 1, 1.5, 2} and eps in
    _POINTWISE_EPS on s = 0 and 2000 points log-spaced over [1e-6, 1e3];
    exact, so tolerance 0."""
    s = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 2000)])
    results = [(check_mollifier_bound(nu, eps, s), {"nu": nu, "eps": eps})
               for nu in (0.0, 0.5, 1.0, 1.5, 2.0) for eps in _POINTWISE_EPS]
    return _make_report("mollifier", results, 0.0)


def hflux_report() -> CheckReport:
    """check_hflux_bounds for n = 0, 0.5, ..., 3.5 and eps in _POINTWISE_EPS
    on 2000 points log-spaced over [1e-3, 1e2]; exact, so tolerance 0."""
    # s capped at 1e2 so the h <= s margin eps/s^(4-n) stays far above roundoff
    s = np.geomspace(1e-3, 1e2, 2000)
    results = [(r, {"n": n, "eps": eps, "bound": key})
               for n in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5) for eps in _POINTWISE_EPS
               for key, r in check_hflux_bounds(n, eps, s).items()]
    return _make_report("hflux", results, 0.0)


def elementary_report() -> CheckReport:
    """Two elementary scalar bounds: ln(x) <= 2 sqrt(x) on [1, inf) and
    x^2 ln(x) >= -1/(2e) on (0, 1], each at _ELEMENTARY_SAMPLES random points
    (seed 20243) plus its equality case; tolerance 1e-12.  Included for
    coverage."""
    rng = DefaultRng(20243)
    xi_hi = np.exp(rng.uniform(0.0, 14.0, _ELEMENTARY_SAMPLES))
    xi_lo = np.concatenate([[math.exp(-0.5)], rng.uniform(1e-12, 1.0, _ELEMENTARY_SAMPLES)])
    r1 = max(float((np.log(xi_hi) / (2.0 * np.sqrt(xi_hi))).max()), 0.0)  # xi = 1: 0 <= 2
    r2 = float(((-(xi_lo**2) * np.log(xi_lo)) / (1.0 / (2.0 * math.e))).max())
    results = [(r1, {"bound": "log_vs_sqrt"}), (r2, {"bound": "sq_log_lower"})]
    return _make_report("elementary", results, 1e-12)


def ode_comparison_report() -> CheckReport:
    """ode_comparison_bound's barrier check on _ODE_DRAWS random draws
    (seed 20244) of a, b in [0.1, 10], beta in [1.001, 3] and y0 in [0, 1e6],
    each integrated over [0, _ODE_T_SPAN] by the graded RK4 steps of
    _rk4_dense and compared at all _ODE_GRID_STEPS sample times; tolerance
    _ODE_FP_TOL."""
    rng = DefaultRng(20244)
    # drawn column by column, in this order
    a, b, beta, y0 = (rng.uniform(lo, hi, _ODE_DRAWS)
                      for lo, hi in ((0.1, 10.0), (0.1, 10.0), (1.001, 3.0), (0.0, 1e6)))
    worst, i, t = _rk4_barrier_worst(0.0, a, b, beta, y0, _ODE_T_SPAN)
    payload = {"t_span": _ODE_T_SPAN, "draw": i, "a": float(a[i]), "b": float(b[i]),
               "beta": float(beta[i]), "y0": float(y0[i]), "t": t}
    return replace(_make_report("ode_comparison", [(worst, payload)], _ODE_FP_TOL),
                   samples=_ODE_DRAWS)


# the lambdas look each builder up at call time, so rebinding a module
# attribute (as a tracer does) reaches all_reports too
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
