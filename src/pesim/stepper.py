"""Time integration: linearly-implicit IMEX (default) and backward Euler with
damped Newton iteration, both backed by banded LU solves.

IMEX treats the stiff parts implicitly with coefficients frozen at the old
state (plain diffusion, the fourth-order thin-film term, and the singular
fast-diffusion correction); cross-diffusion fluxes and reactions are explicit.
That gives one banded solve per step, of the two fields' decoupled systems
stacked block-diagonally.

The fully implicit scheme solves the backward-Euler residual
R(w) = w - w_old - dt * rhs(w) on the interleaved unknown vector
(u0, v0, u1, v1, ...) by damped simplified Newton.  The Jacobian freezes the
nonlinear flux coefficients and differentiates through the derivative
factors and the reactions, which keeps the matrix banded with half-bandwidth
4.  It is built once per step, at w_old, and factored once by banded LU with
partial pivoting (LAPACK gbtrf; the matrices are not symmetric); every Newton
iteration then solves with that factorization (gbtrs).  Only when the line
search finds no decrease is it rebuilt, at the current iterate.

Positivity is enforced by step rejection, never by clamping: clamped values
would silently break the entropy identities the diagnostics monitor.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from enum import Enum
from math import isfinite, sqrt

import numpy as np

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

# dgtsv, dgbtrf and dgbtrs come from scipy's f2py LAPACK extension,
# loaded from its file: importing it as scipy.linalg.lapack would run
# scipy.linalg's __init__, which loads about 300 more modules and costs about
# 0.3 s per process.
_FLAPACK = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                        "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
if not os.path.isfile(_FLAPACK):
    raise ImportError(f"scipy's LAPACK extension {_FLAPACK} is missing")
_loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", _FLAPACK)
_flapack = importlib.util.module_from_spec(importlib.util.spec_from_loader(_loader.name, _loader))
_loader.exec_module(_flapack)
dgbtrf, dgbtrs, dgtsv = _flapack.dgbtrf, _flapack.dgbtrs, _flapack.dgtsv

__all__ = [
    "Scheme",
    "StepperConfig",
    "StepOutcome",
    "StepperFailure",
    "step",
    "run_until",
]


_SAFETY = 0.5  # dt factor after a rejected step
_GROWTH = 1.2  # dt factor after an accepted step, capped at dt_max
_TOL = 1e-5  # fully implicit: local error per step, relative to 1 + |w|
_NEWTON_MAX_ITER = 25


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
    positivity_floor: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.dt_min <= self.dt_init:
            raise ValueError(f"dt_min must lie in (0, dt_init = {self.dt_init:g}]")
        if not self.dt_init <= self.dt_max:
            raise ValueError(f"dt_init must not exceed dt_max = {self.dt_max:g}")
        for name in ("newton_tol", "positivity_floor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


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
# 3kl + 1 rows (the first kl are LU workspace), Fortran order, so gbtrf
# works in place and gtsv reads its three diagonals from rows
# kl..2kl + 1 (kl = 1).
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


def _solve_shifted(ab, b):
    """Solve (I + B) x = b for a tridiagonal B in band storage (kl = 1);
    overwrites ab and b.

    Returns None when LAPACK reports an exactly singular pivot (info > 0).
    """
    a = ab[:, 1:-1]
    a[2] += 1.0
    x, info = dgtsv(a[3, :-1], a[2], a[1, 1:], b, 1, 1, 1, 1)[3:]
    if info < 0:
        raise ValueError(f"LAPACK: illegal value in argument {-info}")
    return x if info == 0 else None


def _factor_shifted(ab, kl):
    """Band LU of I + B for B in band storage, in place: (lu, pivots), or None
    when LAPACK reports an exactly singular pivot (info > 0).  Solve with
    dgbtrs(lu, kl, kl, b, pivots)."""
    a = ab[:, kl:-kl]
    a[2 * kl] += 1.0
    lu, piv, info = dgbtrf(a, kl, kl, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"LAPACK: illegal value in argument {-info}")
    return (lu, piv) if info == 0 else None


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
    rhs = np.concatenate((rhs_u, rhs_v))
    if kl == 1:
        x = _solve_shifted(ab, rhs)
    else:
        lu = _factor_shifted(ab, kl)
        x = None if lu is None else dgbtrs(lu[0], kl, kl, rhs, lu[1], overwrite_b=1)[0]
    return None if x is None else (x[:n], x[n:])


# ---------------------------------------------------------------------------
# fully implicit scheme
# ---------------------------------------------------------------------------

_HALFWIDTH = 4  # interleaved stencil: radius 2 per field, two fields


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
    """Backward-Euler solve by damped simplified Newton; returns
    (u_new, v_new, iters), or (None, None, iters) on failure, where iters
    counts the iterations taken.

    The Jacobian is built and factored once, at the start state, and each
    iteration solves with that factorization.  When the line search finds no
    decrease with a factorization built at an earlier iterate, it is rebuilt
    at the current iterate and the iteration retried; a failure with a fresh
    factorization rejects the step.  Every solve takes at least one
    correction.  It has converged once the residual, or the increment with a
    positive result, is at most newton_tol in max norm: on fine grids the
    residual stalls at a roundoff floor, machine epsilon times dt / dx^4,
    while the increment keeps falling.
    """

    def residual(uc, vc):  # interleaved (u0, v0, u1, ...) like the unknowns
        du, dv = compute_rhs(uc, vc, dx, kp, rp, kind)
        res = np.empty(2 * u.shape[0])
        res[0::2], res[1::2] = uc - u - dt * du, vc - v - dt * dv
        return res

    def factor(uc, vc):
        return _factor_shifted(_jacobian_ab(uc, vc, dx, dt, kp, rp, kind), _HALFWIDTH)

    def correct(lu):
        """One damped correction of (uc, vc) with the factorization lu:
        (u, v, residual, norm), with norm 0 when the increment test has
        converged; None when lu is singular, the increment is not finite or
        no damping lowers the residual."""
        if lu is None:
            return None
        delta = dgbtrs(lu[0], _HALFWIDTH, _HALFWIDTH, res, lu[1])[0]
        if not np.all(np.isfinite(delta)):
            return None
        du_step, dv_step = delta[0::2], delta[1::2]
        if float(np.abs(delta).max()) <= cfg.newton_tol:
            ut, vt = uc - du_step, vc - dv_step
            if ut.min() > 0.0 and vt.min() > 0.0:
                return ut, vt, None, 0.0
        lam = 1.0
        for _ in range(10):
            ut, vt = uc - lam * du_step, vc - lam * dv_step
            if ut.min() > 0.0 and vt.min() > 0.0:
                res_t = residual(ut, vt)
                norm_t = float(np.abs(res_t).max())
                if np.isfinite(norm_t) and norm_t < norm:
                    return ut, vt, res_t, norm_t
            lam *= 0.5
        return None

    uc, vc = u, v
    res = residual(uc, vc)
    norm = float(np.abs(res).max())
    lu, built = factor(uc, vc), 1  # built: the iteration whose start iterate lu is at
    for it in range(1, _NEWTON_MAX_ITER + 1):
        new = correct(lu)
        if new is None and built < it:
            lu, built = factor(uc, vc), it
            new = correct(lu)
        if new is None:
            return None, None, it
        uc, vc, res, norm = new
        if norm <= cfg.newton_tol:
            return uc, vc, it
    return None, None, _NEWTON_MAX_ITER


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
        un, vn, iters = _newton_advance(u, v, dx, dt, kp, rp, kind, cfg)
        if un is None:
            return StepOutcome(state, dt, False, iters, np.nan, np.nan)

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


def _bdf1_error(old: State, new: State, dt: float, history):
    """Scaled local error of the backward-Euler step old -> new of size dt, and
    the step's slopes (w_new - w_old) / dt of both fields.

    history is (dt_prev, slopes_prev) of the accepted step before, or None,
    which gives error None.  The estimate needs no extra solve: it is
    dt^2 / (dt + dt_prev) times the change of slope, the BDF1 estimate of
    (dt^2 / 2) w'', measured against _TOL * (1 + |w_new|); above 1 the step
    fails the tolerance.
    """
    pairs = ((old.u.values, new.u.values), (old.v.values, new.v.values))
    slopes = [(w1 - w0) / dt for w0, w1 in pairs]
    if history is None:
        return None, slopes
    dt_prev, slopes_prev = history
    c = dt * dt / (dt + dt_prev)
    err = max(float((np.abs(c * (s1 - s0)) / (_TOL * (1.0 + np.abs(w1)))).max())
              for s1, s0, (_, w1) in zip(slopes, slopes_prev, pairs))
    return err, slopes


def run_until(state: State, t_end: float, kp: KineticParams, rp: RegParams,
              kind: ModelKind, cfg: StepperConfig, sample_every: float):
    """Advance to t_end with adaptive dt; returns the sample log, which ends
    with the final state.

    A step that step() rejects is retried at half the dt.  IMEX grows dt by
    _GROWTH after each accepted step, and so does the fully implicit scheme
    after its first step, which has no history.  After that, a fully
    implicit step is rejected when its BDF1 local error estimate
    (_bdf1_error) exceeds 1, and the next dt is the step just taken times
    the standard controller factor 0.9 / sqrt(err), bounded to [0.2, 2].
    dt never exceeds dt_max.

    Samples are taken at the start and at the first step boundary after each
    multiple of sample_every; a step that would pass two pending multiples is
    cut short to land on the first.  A dt underflow below dt_min raises
    StepperFailure carrying the partial log.
    """
    if t_end < state.t:
        raise ValueError("t_end must not precede state.t")

    samples: list[State] = [state]
    tol_t = 1e-9 * max(1.0, abs(t_end))
    if t_end <= state.t + tol_t:
        return samples

    next_sample = state.t + sample_every
    dt = min(max(cfg.dt_init, cfg.dt_min), cfg.dt_max)
    history = None  # fully implicit: (dt, slopes) of the last accepted step
    while state.t < t_end - tol_t:
        dt_try = min(dt, t_end - state.t)
        if state.t + dt_try >= next_sample + sample_every - tol_t:
            dt_try = next_sample - state.t
        out = step(state, dt_try, kp, rp, kind, cfg)
        accepted, err = out.accepted, None
        if accepted and cfg.scheme is Scheme.FULLY_IMPLICIT:
            err, slopes = _bdf1_error(state, out.state, dt_try, history)
            accepted = err is None or err <= 1.0
            if accepted:
                history = (dt_try, slopes)
        if err is None:
            dt = min(dt * _GROWTH, cfg.dt_max) if accepted else dt * _SAFETY
        else:
            factor = min(2.0, max(0.2, 0.9 / sqrt(err))) if err > 0.0 else 2.0
            dt = min(dt_try * factor, cfg.dt_max)
        if accepted:
            state = out.state
            if state.t >= next_sample - tol_t:
                samples.append(state)
                while next_sample <= state.t + tol_t:
                    next_sample += sample_every
        elif dt < cfg.dt_min:
            raise StepperFailure(
                f"dt underflow below dt_min={cfg.dt_min} at t={state.t}",
                last_state=state, samples=samples,
            )
    if samples[-1].t < state.t:
        samples.append(state)
    return samples
