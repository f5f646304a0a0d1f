"""Model parameters, nonlinear coefficient functions, and spatial right-hand sides.

Two systems share one flux-form discretization:

* the limit system
      u_t = D1 u_xx - chi1 (u v_x)_x + u (lambda1 - u + a1 v)
      v_t = D2 v_xx + chi2 (v u_x)_x + v (lambda2 - v - a2 u)

* its fourth-order regularization, which adds a thin-film term
  -eps (m(u) u_xxx)_x with mobility m(s) = s^4 / (s^(4-n) + eps), a singular
  fast-diffusion correction eps^(alpha/2) (u^(-alpha) u_x)_x, replaces the
  taxis coefficient by h(s) = s^(5-n) / (s^(4-n) + eps), and mollifies the
  reaction factor by g(s) = 3 s^3 / (3 s^2 + eps).

Every flux is assembled at cell faces (coefficients: arithmetic means of the
adjacent cell-centered values; derivatives: central differences), so the flux
part of the right-hand side telescopes to zero mass exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import Field, Grid1D, diff2_values

__all__ = [
    "KineticParams",
    "RegParams",
    "State",
    "ModelKind",
    "g_mollifier",
    "g_mollifier_deriv",
    "h_flux",
    "h_flux_deriv",
    "h_flux_deriv2",
    "m4_mobility",
    "fast_diffusion_coeff",
    "log_entropy_weight",
    "assemble_rhs",
    "compute_rhs",
]


@dataclass(frozen=True)
class KineticParams:
    """Diffusivities, taxis sensitivities and Lotka-Volterra rates (all > 0)."""

    d1: float
    d2: float
    chi1: float
    chi2: float
    a1: float
    a2: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("d1", "d2", "chi1", "chi2", "a1", "a2", "lambda1", "lambda2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class RegParams:
    """Regularization constants: eps in (0,1), alpha in (0,1/2], n1, n2 in [1,2]."""

    eps: float
    alpha: float = 0.5
    n1: float = 2.0
    n2: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 1/2]")
        for name in ("n1", "n2"):
            if not 1.0 <= getattr(self, name) <= 2.0:
                raise ValueError(f"{name} must lie in [1, 2]")


class ModelKind(Enum):
    LIMIT = "limit"
    REGULARIZED = "regularized"


@dataclass(frozen=True)
class State:
    """Time plus the predator/prey density pair, strictly positive on one grid."""

    t: float
    u: Field
    v: Field

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must share a grid")
        if self.u.min() <= 0.0 or self.v.min() <= 0.0:
            raise ValueError("state must be strictly positive")

    @classmethod
    def trusted(cls, t: float, u: Field, v: Field) -> "State":
        """Build a state whose fields share a grid and are known to be positive."""
        st = object.__new__(cls)
        for name, value in (("t", t), ("u", u), ("v", v)):
            object.__setattr__(st, name, value)
        return st

    @property
    def grid(self) -> Grid1D:
        return self.u.grid


# ---------------------------------------------------------------------------
# scalar coefficient functions (vectorized over numpy arrays)
# ---------------------------------------------------------------------------

def _check_nonneg(s, what="s"):
    if np.any(np.asarray(s) < 0.0):
        raise ValueError(f"{what} must be nonnegative")


# The underscored kernels below skip the argument checks: the face
# coefficients and the right-hand sides call them on states that are already
# known to be positive.  The public functions check, then call the kernel.

def _g_mollifier(s, eps):
    return 3.0 * s**3 / (3.0 * s**2 + eps)


def _h_flux(s, n, eps):
    return s ** (5.0 - n) / (s ** (4.0 - n) + eps)


def _m4_mobility(s, n, eps):
    return s**4 / (s ** (4.0 - n) + eps)


def _fast_diffusion_coeff(s, alpha, eps):
    return eps ** (alpha / 2.0) * s ** (-alpha)


def g_mollifier(s, eps):
    """Mollified reaction factor 3 s^3 / (3 s^2 + eps).

    Satisfies 0 <= g(s) <= s, with s - g(s) maximal at s = sqrt(eps/3) where
    it equals sqrt(eps) / (2 sqrt(3)).
    """
    _check_nonneg(s)
    return _g_mollifier(s, eps)


def g_mollifier_deriv(s, eps):
    """d/ds of the mollified reaction factor: (9 s^4 + 9 eps s^2) / (3 s^2 + eps)^2."""
    _check_nonneg(s)
    return (9.0 * s**4 + 9.0 * eps * s**2) / (3.0 * s**2 + eps) ** 2


def h_flux(s, n, eps):
    """Taxis flux coefficient s^(5-n) / (s^(4-n) + eps); 0 <= h(s) <= s."""
    _check_nonneg(s)
    _check_hflux_params(n, eps)
    return _h_flux(s, n, eps)


def h_flux_deriv(s, n, eps):
    """First derivative of h_flux; lies in [0, 5 - n]."""
    _check_nonneg(s)
    _check_hflux_params(n, eps)
    return (s ** (8.0 - 2.0 * n) + (5.0 - n) * eps * s ** (4.0 - n)) / (
        s ** (4.0 - n) + eps
    ) ** 2


def h_flux_deriv2(s, n, eps):
    """Second derivative of h_flux, defined for s > 0 only."""
    if np.any(np.asarray(s) <= 0.0):
        raise ValueError("s must be strictly positive for the second derivative")
    _check_hflux_params(n, eps)
    num = (
        -(3.0 - n) * (4.0 - n) * eps * s ** (7.0 - 2.0 * n)
        + (4.0 - n) * (5.0 - n) * eps**2 * s ** (3.0 - n)
    )
    return num / (s ** (4.0 - n) + eps) ** 3


def _check_hflux_params(n, eps):
    n = np.asarray(n)
    if np.any(n < 0.0) or np.any(n > 3.5):
        raise ValueError("n must lie in [0, 7/2]")
    if np.any(np.asarray(eps) <= 0.0):
        raise ValueError("eps must be positive")


def m4_mobility(s, n, eps):
    """Fourth-order mobility s^4 / (s^(4-n) + eps); bounded by s^n."""
    _check_nonneg(s)
    if np.any(np.asarray(eps) <= 0.0):
        raise ValueError("eps must be positive")
    return _m4_mobility(s, n, eps)


def fast_diffusion_coeff(s, alpha, eps):
    """Singular second-order coefficient eps^(alpha/2) * s^(-alpha), s > 0."""
    if np.any(np.asarray(s) <= 0.0):
        raise ValueError("s must be strictly positive")
    return _fast_diffusion_coeff(s, alpha, eps)


def log_entropy_weight(s, n, eps):
    """Second derivative 1/s + eps/s^(5-n) of the regularized log-entropy density.

    Its product with h_flux(s, n, eps) is identically 1, which is what makes
    the two cross-diffusion entropy productions cancel.
    """
    if np.any(np.asarray(s) <= 0.0):
        raise ValueError("s must be strictly positive")
    return 1.0 / s + eps / s ** (5.0 - n)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _face_mean(a: np.ndarray) -> np.ndarray:
    """Means of adjacent cell values at the interior faces; zero at both ends."""
    c = np.zeros(a.shape[0] + 1)
    np.add(a[:-1], a[1:], out=c[1:-1])
    c *= 0.5
    return c


def reaction_terms(u, v, kp: KineticParams, rp: RegParams, kind: ModelKind):
    """Pointwise reaction pair for either system."""
    bu = kp.lambda1 - u + kp.a1 * v
    bv = kp.lambda2 - v - kp.a2 * u
    if kind is ModelKind.LIMIT:
        return u * bu, v * bv
    return _g_mollifier(u, rp.eps) * bu, _g_mollifier(v, rp.eps) * bv


def reaction_jacobian(u, v, kp: KineticParams, rp: RegParams, kind: ModelKind):
    """Diagonal blocks (d ru/du, d ru/dv, d rv/du, d rv/dv) of the reactions."""
    bu = kp.lambda1 - u + kp.a1 * v
    bv = kp.lambda2 - v - kp.a2 * u
    if kind is ModelKind.LIMIT:
        return bu - u, kp.a1 * u, -kp.a2 * v, bv - v
    gu = _g_mollifier(u, rp.eps)
    gv = _g_mollifier(v, rp.eps)
    gpu = g_mollifier_deriv(u, rp.eps)
    gpv = g_mollifier_deriv(v, rp.eps)
    return gpu * bu - gu, kp.a1 * gu, -kp.a2 * gv, gpv * bv - gv


def diffusion_face_coeff(w, d, rp: RegParams, kind: ModelKind) -> np.ndarray:
    """Second-order face coefficient D (+ fast-diffusion correction); zero ends."""
    if kind is ModelKind.LIMIT:
        c = np.zeros(w.shape[0] + 1)
        c[1:-1] = d
    else:
        c = _face_mean(_fast_diffusion_coeff(w, rp.alpha, rp.eps))
        c[1:-1] += d
    return c


def thinfilm_face_coeff(w, n_exp, rp: RegParams) -> np.ndarray:
    """Face coefficient eps * m4(w) of the fourth-order flux; zero ends."""
    c = _face_mean(_m4_mobility(w, n_exp, rp.eps))
    c *= rp.eps
    return c


def taxis_face_coeff(w, n_exp, rp: RegParams, kind: ModelKind) -> np.ndarray:
    """Face coefficient of the taxis flux: raw density (limit) or h_eps; zero ends."""
    if kind is ModelKind.LIMIT:
        return _face_mean(w)
    return _face_mean(_h_flux(w, n_exp, rp.eps))


def face_gradient(w, dx) -> np.ndarray:
    """First derivative at faces (zero at boundary faces)."""
    g = np.zeros(w.shape[0] + 1)
    np.subtract(w[1:], w[:-1], out=g[1:-1])
    g /= dx
    return g


def face_third_derivative(w, dx) -> np.ndarray:
    """Third derivative at faces: face difference of the mirrored cell u_xx."""
    z = diff2_values(w, dx)
    g = np.zeros(w.shape[0] + 1)
    g[1:-1] = (z[1:] - z[:-1]) / dx
    return g


def compute_rhs(u, v, dx, kp: KineticParams, rp: RegParams, kind: ModelKind):
    """Right-hand side pair (du, dv) on raw arrays; callers guarantee positivity."""
    ux = face_gradient(u, dx)
    vx = face_gradient(v, dx)

    flux_u = diffusion_face_coeff(u, kp.d1, rp, kind) * ux
    flux_v = diffusion_face_coeff(v, kp.d2, rp, kind) * vx
    flux_u -= kp.chi1 * taxis_face_coeff(u, rp.n1, rp, kind) * vx
    flux_v += kp.chi2 * taxis_face_coeff(v, rp.n2, rp, kind) * ux
    if kind is ModelKind.REGULARIZED:
        flux_u -= thinfilm_face_coeff(u, rp.n1, rp) * face_third_derivative(u, dx)
        flux_v -= thinfilm_face_coeff(v, rp.n2, rp) * face_third_derivative(v, dx)

    ru, rv = reaction_terms(u, v, kp, rp, kind)
    du = (flux_u[1:] - flux_u[:-1]) / dx + ru
    dv = (flux_v[1:] - flux_v[:-1]) / dx + rv
    return du, dv


def assemble_rhs(state: State, kp: KineticParams, rp: RegParams, kind: ModelKind):
    """Right-hand sides of both equations as Fields on the state's grid."""
    grid = state.grid
    du, dv = compute_rhs(state.u.values, state.v.values, grid.dx, kp, rp, kind)
    return Field(grid, du), Field(grid, dv)
