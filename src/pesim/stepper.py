"""Time integration: linearly-implicit IMEX (default) and backward Euler with
damped Newton iteration, both backed by banded LU solves.

IMEX treats the stiff parts implicitly with coefficients frozen at the old
state (plain diffusion, the fourth-order thin-film term, and the singular
fast-diffusion correction); cross-diffusion fluxes and reactions are explicit.
That gives one banded solve per step, of the two fields' decoupled systems
stacked block-diagonally.

The fully implicit scheme solves the backward-Euler residual
R(w) = w - w_old - dt * rhs(w) on the interleaved unknown vector
(u0, v0, u1, v1, ...) by damped Newton.  The Jacobian freezes the nonlinear
flux coefficients at the current iterate and differentiates through the
derivative factors and the reactions, which keeps the matrix banded with
half-bandwidth 5 -- matrices are not symmetric, so banded LU with partial
pivoting (LAPACK gbsv) does the solves.

Positivity is enforced by step rejection, never by clamping: clamped values
would silently break the entropy identities the diagnostics monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite

import numpy as np
from scipy.linalg.lapack import dgbsv, dgtsv

from .grid import Field
from .model import (
    KineticParams,
    ModelKind,
    RegParams,
    State,
    compute_rhs,
    diffusion_face_coeff,
    face_gradient,
    reaction_jacobian,
    reaction_terms,
    taxis_face_coeff,
    thinfilm_face_coeff,
)

__all__ = [
    "Scheme",
    "StepperConfig",
    "StepOutcome",
    "StepperFailure",
    "step",
    "run_until",
]


class Scheme(Enum):
    IMEX = "imex"
    FULLY_IMPLICIT = "fully_implicit"


@dataclass(frozen=True)
class StepperConfig:
    dt_init: float = 1e-3
    dt_min: float = 1e-10
    dt_max: float = 5e-2
    scheme: Scheme = Scheme.IMEX
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    positivity_floor: float = 1e-12
    safety: float = 0.5
    growth: float = 1.2

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.newton_tol <= 0.0 or self.positivity_floor <= 0.0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.safety < 1.0:
            raise ValueError("safety must lie in (0, 1)")
        if not self.growth > 1.0:
            raise ValueError("growth must exceed 1")


@dataclass(frozen=True)
class StepOutcome:
    state: State
    dt_used: float
    accepted: bool
    newton_iters: int
    min_u: float
    min_v: float


class StepperFailure(RuntimeError):
    """dt underflowed dt_min after repeated rejections; carries the last valid state."""

    def __init__(self, message, last_state: State, samples=None):
        super().__init__(message)
        self.last_state = last_state
        self.samples = list(samples) if samples is not None else []


# ---------------------------------------------------------------------------
# banded assembly
#
# Matrices live in LAPACK band storage: ab[2kl + i - j, j] = A[i, j] with
# 3kl + 1 rows (the first kl are LU workspace), Fortran order, so gbsv works
# in place and gtsv reads its three diagonals from rows kl..2kl + 1 (kl = 1).
# The array carries kl spare columns on each side.  Operator bands are written
# through a sheared view whose row r + k, index i, is the slot of L[i, i + k];
# slots of entries outside the matrix fall into the spare columns.
# ---------------------------------------------------------------------------

def _band_storage(kl, m):
    """Zeroed band storage of an m x m matrix; the matrix is ab[:, kl:-kl]."""
    return np.zeros((3 * kl + 1, m + 2 * kl), order="F")


def _band_slots(ab, kl, n, r, stride=1, row_off=0, col_off=0):
    """(2r + 1, n) view of ab whose [r + k, i] is the slot of the matrix entry
    A[stride*i + row_off, stride*(i + k) + col_off]."""
    s_row, s_col = ab.strides
    row = 2 * kl + row_off - col_off + stride * r  # slot of k = -r, i = 0
    col = kl + col_off - stride * r
    return np.ndarray((2 * r + 1, n), ab.dtype, ab, row * s_row + col * s_col,
                      (stride * (s_col - s_row), stride * s_col))


def _solve_shifted(ab, kl, b):
    """Solve (I + B) x = b for B in band storage; overwrites ab and b.

    Returns None when LAPACK reports an exactly singular pivot (info > 0).
    """
    a = ab[:, kl:-kl]
    a[2 * kl] += 1.0
    if kl == 1:
        x, info = dgtsv(a[3, :-1], a[2], a[1, 1:], b, 1, 1, 1, 1)[3:]
    else:
        x, info = dgbsv(kl, kl, a, b, 1, 1)[2:]
    if info < 0:
        raise ValueError(f"LAPACK: illegal value in argument {-info}")
    return x if info == 0 else None


def _put_div_bands(out, sigma, c_face, dx):
    """out[0:3] = bands of w -> sigma * div(c_face * w_x), c_face zero at the ends."""
    s = sigma / (dx * dx)
    np.multiply(s, c_face[:-1], out=out[0])
    np.add(c_face[:-1], c_face[1:], out=out[1])
    out[1] *= -s
    np.multiply(s, c_face[1:], out=out[2])


def _stiff_bands(out, w, dx, d_coeff, n_exp, rp, kind):
    """Write into the zeroed out the bands of the stiff operator L(w) of one
    field: second-order diffusion (3 rows), minus div(eps m4(w) w_xxx) for the
    regularized model (5 rows)."""
    c = diffusion_face_coeff(w, d_coeff, rp, kind)
    if kind is ModelKind.LIMIT:
        _put_div_bands(out, 1.0, c, dx)
        return
    _put_div_bands(out[1:4], 1.0, c, dx)
    # subtract the band product T @ Z of the face combiner T (diagonals tl,
    # td, tu) and the mirrored cell second difference Z (diagonal zd).  Z's
    # off-diagonals are inv2 inside the matrix, so their products with T are
    # entries of q = m * inv2 and t2 = td * inv2.
    inv2 = 1.0 / (dx * dx)
    zd = np.full(w.shape[0], -2.0 * inv2)
    zd[0] = zd[-1] = -inv2
    m = thinfilm_face_coeff(w, n_exp, rp) * inv2
    tl, tu = m[:-1], m[1:]
    td = -(tl + tu)
    q = m * inv2
    t2 = td * inv2
    p_0 = td * zd
    p_0[1:] += q[1:-1]
    p_0[:-1] += q[1:-1]
    out[0, 2:] -= q[2:-1]
    out[1, 1:] -= tl[1:] * zd[:-1] + t2[1:]
    out[2] -= p_0
    out[3, :-1] -= t2[:-1] + tu[:-1] * zd[1:]
    out[4, :-2] -= q[1:-2]


# ---------------------------------------------------------------------------
# IMEX scheme
# ---------------------------------------------------------------------------

def _imex_advance(u, v, dx, dt, kp, rp, kind):
    """One IMEX step; returns (u_new, v_new), or None if a solve is singular."""
    ux = face_gradient(u, dx)
    vx = face_gradient(v, dx)
    ru, rv = reaction_terms(u, v, kp, rp, kind)

    flux_xu = -kp.chi1 * taxis_face_coeff(u, rp.n1, rp, kind) * vx
    flux_xv = kp.chi2 * taxis_face_coeff(v, rp.n2, rp, kind) * ux
    rhs_u = u + dt * ((flux_xu[1:] - flux_xu[:-1]) / dx + ru)
    rhs_v = v + dt * ((flux_xv[1:] - flux_xv[:-1]) / dx + rv)

    # both fields in one block-diagonal system, u in rows [0, n) and v in
    # [n, 2n); the bands vanish outside each block, so it solves exactly as
    # two separate systems would
    n = u.shape[0]
    kl = 2 if kind is ModelKind.REGULARIZED else 1
    ab = _band_storage(kl, 2 * n)
    for off, w, d_coeff, n_exp in ((0, u, kp.d1, rp.n1), (n, v, kp.d2, rp.n2)):
        _stiff_bands(_band_slots(ab, kl, n, kl, 1, off, off), w, dx, d_coeff, n_exp, rp, kind)
    ab *= -dt
    x = _solve_shifted(ab, kl, np.concatenate((rhs_u, rhs_v)))
    return None if x is None else (x[:n], x[n:])


# ---------------------------------------------------------------------------
# fully implicit scheme
# ---------------------------------------------------------------------------

_HALFWIDTH = 5  # interleaved stencil: radius 2 per field, two fields


def _jacobian_ab(u, v, dx, dt, kp, rp, kind):
    """-dt * J in band storage for the interleaved unknowns (u0, v0, u1, ...)."""
    n = u.shape[0]
    r = 2 if kind is ModelKind.REGULARIZED else 1
    ab = _band_storage(_HALFWIDTH, 2 * n)
    # blocks d(u eq)/du, d(u eq)/dv, d(v eq)/du, d(v eq)/dv, as reaction_jacobian
    blocks = [_band_slots(ab, _HALFWIDTH, n, width, 2, row_off, col_off)
              for width, row_off, col_off in ((r, 0, 0), (1, 0, 1), (1, 1, 0), (r, 1, 1))]
    _stiff_bands(blocks[0], u, dx, kp.d1, rp.n1, rp, kind)
    _put_div_bands(blocks[1], -kp.chi1, taxis_face_coeff(u, rp.n1, rp, kind), dx)
    _put_div_bands(blocks[2], kp.chi2, taxis_face_coeff(v, rp.n2, rp, kind), dx)
    _stiff_bands(blocks[3], v, dx, kp.d2, rp.n2, rp, kind)
    for bands, dr in zip(blocks, reaction_jacobian(u, v, kp, rp, kind)):
        bands[bands.shape[0] // 2] += dr
        bands *= -dt
    return ab


def _newton_advance(u, v, dx, dt, kp, rp, kind, cfg):
    """Backward-Euler solve; returns (u_new, v_new, iters) or None on failure."""

    def residual(uc, vc):  # interleaved (u0, v0, u1, ...) like the unknowns
        du, dv = compute_rhs(uc, vc, dx, kp, rp, kind)
        res = np.empty(2 * u.shape[0])
        res[0::2], res[1::2] = uc - u - dt * du, vc - v - dt * dv
        return res

    uc, vc = u.copy(), v.copy()
    res = residual(uc, vc)
    norm = float(np.abs(res).max())
    for it in range(cfg.newton_max_iter):
        if norm <= cfg.newton_tol:
            return uc, vc, it
        delta = _solve_shifted(_jacobian_ab(uc, vc, dx, dt, kp, rp, kind), _HALFWIDTH, res)
        if delta is None or not np.all(np.isfinite(delta)):
            return None
        du_step, dv_step = delta[0::2], delta[1::2]
        lam = 1.0
        for _ in range(10):
            ut, vt = uc - lam * du_step, vc - lam * dv_step
            if ut.min() > 0.0 and vt.min() > 0.0:
                res_t = residual(ut, vt)
                norm_t = float(np.abs(res_t).max())
                if np.isfinite(norm_t) and norm_t < norm:
                    break
            lam *= 0.5
        else:
            return None
        uc, vc, res, norm = ut, vt, res_t, norm_t
    if norm <= cfg.newton_tol:
        return uc, vc, cfg.newton_max_iter
    return None


# ---------------------------------------------------------------------------
# public stepping API
# ---------------------------------------------------------------------------

def step(state: State, dt: float, kp: KineticParams, rp: RegParams,
         kind: ModelKind, cfg: StepperConfig) -> StepOutcome:
    """Attempt one step of size dt; rejection is reported, retrying is the caller's job."""
    if not 0.0 < dt <= cfg.dt_max:
        raise ValueError("dt must lie in (0, dt_max]")
    u, v = state.u.values, state.v.values
    dx = state.grid.dx
    iters = 0
    if cfg.scheme is Scheme.IMEX:
        result = _imex_advance(u, v, dx, dt, kp, rp, kind)
        if result is None:
            return StepOutcome(state, dt, False, 0, np.nan, np.nan)
        un, vn = result
    else:
        result = _newton_advance(u, v, dx, dt, kp, rp, kind, cfg)
        if result is None:
            return StepOutcome(state, dt, False, cfg.newton_max_iter, np.nan, np.nan)
        un, vn, iters = result

    min_u, min_v = float(un.min()), float(vn.min())
    # min propagates NaN, so the extremes are finite exactly when the arrays are
    if not (isfinite(min_u) and isfinite(min_v) and isfinite(un.max()) and isfinite(vn.max())):
        return StepOutcome(state, dt, False, iters, np.nan, np.nan)
    if min_u <= cfg.positivity_floor or min_v <= cfg.positivity_floor:
        return StepOutcome(state, dt, False, iters, min_u, min_v)
    # un and vn are fresh arrays, proven finite and positive just above
    grid = state.grid
    new_state = State.trusted(state.t + dt, Field.trusted(grid, un), Field.trusted(grid, vn))
    return StepOutcome(new_state, dt, True, iters, min_u, min_v)


def run_until(state: State, t_end: float, kp: KineticParams, rp: RegParams,
              kind: ModelKind, cfg: StepperConfig, sample_every: float,
              on_sample=None):
    """Advance to t_end with adaptive dt; returns (final state, sample log).

    Samples are taken at the start and then at the first step boundary after
    each multiple of sample_every; the final state is always sampled.  A dt
    underflow below dt_min raises StepperFailure carrying the partial log.
    """
    if t_end < state.t:
        raise ValueError("t_end must not precede state.t")

    def emit(s):
        samples.append(s)
        if on_sample is not None:
            on_sample(s)

    samples: list[State] = []
    emit(state)
    tol_t = 1e-9 * max(1.0, abs(t_end))
    if t_end <= state.t + tol_t:
        return state, samples

    next_sample = state.t + sample_every
    dt = min(max(cfg.dt_init, cfg.dt_min), cfg.dt_max)
    while state.t < t_end - tol_t:
        dt_try = min(dt, t_end - state.t)
        out = step(state, dt_try, kp, rp, kind, cfg)
        if out.accepted:
            state = out.state
            if state.t >= next_sample - tol_t:
                emit(state)
                while next_sample <= state.t + tol_t:
                    next_sample += sample_every
            dt = min(dt * cfg.growth, cfg.dt_max)
        else:
            dt = dt * cfg.safety
            if dt < cfg.dt_min:
                raise StepperFailure(
                    f"dt underflow below dt_min={cfg.dt_min} at t={state.t}",
                    last_state=state, samples=samples,
                )
    if samples[-1].t < state.t:
        emit(state)
    return state, samples
