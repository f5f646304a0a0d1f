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

The two equations differ only in their parameters, so the kernels evaluate
both at once on the pair stacked as one (2, n) array w = (u, v), with the
per-field parameters as (2, 1) columns (_columns) and the other field read as
the flipped rows w[::-1].  The entry points take w as it is; a State holds
its pair in this form, as State.w.  The face and coefficient helpers work
along the last axis, so they take one field with scalar parameters as well.
The exponents n_i stay scalars, one per row when n1 != n2 (_pow): numpy's
power has a fast path for the scalar exponent 2.0 that an array exponent
skips, and the two differ in the last bit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .grid import Grid1D, diff2_values, finite_positive

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


@dataclass(frozen=True, eq=False)  # equal only to itself: w is an array
class State:
    """Time plus the predator/prey density pair, strictly positive on one grid.

    w is the pair stacked as one read-only (2, n) array, the form every
    kernel computes on; u and v are views of its two rows.
    """

    t: float
    grid: Grid1D
    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.shape != (2, self.grid.n_cells):
            raise ValueError(f"w must have shape (2, {self.grid.n_cells}), got {w.shape}")
        if not finite_positive(w):
            raise ValueError("state must be finite and strictly positive")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @classmethod
    def trusted(cls, t: float, grid: Grid1D, w: np.ndarray) -> "State":
        """Adopt a finite, strictly positive (2, n_cells) array w without copy or
        check; it is frozen in place, so the caller must not keep writing to it."""
        w.flags.writeable = False
        st = object.__new__(cls)
        for name, value in (("t", t), ("grid", grid), ("w", w)):
            object.__setattr__(st, name, value)
        return st

    @property
    def u(self) -> np.ndarray:
        return self.w[0]

    @property
    def v(self) -> np.ndarray:
        return self.w[1]


# ---------------------------------------------------------------------------
# scalar coefficient functions (vectorized over numpy arrays)
# ---------------------------------------------------------------------------

def _check_nonneg(s):
    if np.any(np.asarray(s) < 0.0):
        raise ValueError("s must be nonnegative")


# The underscored kernels below skip the argument checks: the face
# coefficients and the right-hand sides call them on states that are already
# known to be positive.  The public functions check, then call the kernel.

def _g_mollifier(s, eps):
    return 3.0 * s**3 / (3.0 * s**2 + eps)


def _pow(s, p):
    """s ** p; a (2, 1) column p is applied to the rows of a stacked s one
    scalar exponent at a time, which keeps numpy's scalar fast paths."""
    if getattr(p, "ndim", 0) < 2:
        return s**p
    return np.array([w**e for w, e in zip(s, p.ravel().tolist())])


def _h_flux(s, n, eps):
    return _pow(s, 5.0 - n) / (_pow(s, 4.0 - n) + eps)


def _m4_mobility(s, n, eps):
    return s**4 / (_pow(s, 4.0 - n) + eps)


def _g_mollifier_deriv(s, eps):
    return (9.0 * s**4 + 9.0 * eps * s**2) / (3.0 * s**2 + eps) ** 2


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
    return _g_mollifier_deriv(s, eps)


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

_Columns = namedtuple("_Columns", "d chi lam a n")


@lru_cache(maxsize=32)
def _columns(kp: KineticParams, rp: RegParams) -> _Columns:
    """Per-field parameters of the stacked pair as read-only (2, 1) columns:
    d, the signed taxis coefficients chi = (-chi1, chi2), lam, the signed
    cross reaction rates a = (a1, -a2), and n (a scalar when n1 == n2)."""
    cols = np.array([[kp.d1, -kp.chi1, kp.lambda1, kp.a1, rp.n1],
                     [kp.d2, kp.chi2, kp.lambda2, -kp.a2, rp.n2]])
    cols.flags.writeable = False  # shared by every call with these parameters
    d, chi, lam, a, n = np.hsplit(cols, 5)
    return _Columns(d, chi, lam, a, rp.n1 if rp.n1 == rp.n2 else n)


def _faces(w: np.ndarray) -> np.ndarray:
    """Zeros with one more entry than w along the last axis: a face array."""
    return np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))


def _face_mean(a: np.ndarray) -> np.ndarray:
    """Means of adjacent cell values at the interior faces; zero at both ends."""
    c = _faces(a)
    np.add(a[..., :-1], a[..., 1:], out=c[..., 1:-1])
    c *= 0.5
    return c


def reaction_terms(w, kp: KineticParams, rp: RegParams, kind: ModelKind):
    """Pointwise reactions (ru, rv) of either system at w = (u, v), stacked (2, n)."""
    c = _columns(kp, rp)
    g = w if kind is ModelKind.LIMIT else _g_mollifier(w, rp.eps)
    return g * (c.lam - w + c.a * w[::-1])


def reaction_jacobian(w, kp: KineticParams, rp: RegParams, kind: ModelKind):
    """Diagonal blocks d ru/du, d ru/dv, d rv/du, d rv/dv of the reactions at
    the stacked pair w, as the rows of one (4, n) array: rows 0 and 3 are
    d r_i / d w_i, rows 1 and 2 d r_i / d w_j of the other field j."""
    c = _columns(kp, rp)
    b = c.lam - w + c.a * w[::-1]
    if kind is ModelKind.LIMIT:
        g, own = w, b - w
    else:
        g = _g_mollifier(w, rp.eps)
        own = _g_mollifier_deriv(w, rp.eps) * b - g
    return np.concatenate((own[:1], c.a * g, own[1:]))


def diffusion_face_coeff(w, d, rp: RegParams, kind: ModelKind) -> np.ndarray:
    """Second-order face coefficient D (+ fast-diffusion correction); zero ends."""
    if kind is ModelKind.LIMIT:
        c = _faces(w)
    else:
        c = _face_mean(_fast_diffusion_coeff(w, rp.alpha, rp.eps))
    c[..., 1:-1] += d
    return c


def thinfilm_face_coeff(w, n_exp, rp: RegParams) -> np.ndarray:
    """Face coefficient eps * m4(w) of the fourth-order flux; zero ends."""
    c = _face_mean(_m4_mobility(w, n_exp, rp.eps))
    c *= rp.eps
    return c


def taxis_face_coeff(w, n_exp, rp: RegParams, kind: ModelKind) -> np.ndarray:
    """Face coefficient of the taxis flux: raw density (limit) or h_eps; zero ends."""
    return _face_mean(w if kind is ModelKind.LIMIT else _h_flux(w, n_exp, rp.eps))


def face_gradient(w, dx) -> np.ndarray:
    """First derivative at faces (zero at boundary faces)."""
    g = _faces(w)
    np.subtract(w[..., 1:], w[..., :-1], out=g[..., 1:-1])
    g /= dx
    return g


def face_third_derivative(w, dx) -> np.ndarray:
    """Third derivative at faces: face difference of the mirrored cell u_xx."""
    return face_gradient(diff2_values(w, dx), dx)


def compute_rhs(w, dx, kp: KineticParams, rp: RegParams, kind: ModelKind):
    """Right-hand sides (du, dv), stacked (2, n), at the stacked pair
    w = (u, v) of raw arrays; callers guarantee positivity."""
    c = _columns(kp, rp)
    wx = face_gradient(w, dx)
    flux = diffusion_face_coeff(w, c.d, rp, kind) * wx
    flux += c.chi * taxis_face_coeff(w, c.n, rp, kind) * wx[::-1]
    if kind is ModelKind.REGULARIZED:
        flux -= thinfilm_face_coeff(w, c.n, rp) * face_third_derivative(w, dx)
    return (flux[:, 1:] - flux[:, :-1]) / dx + reaction_terms(w, kp, rp, kind)
