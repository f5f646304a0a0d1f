"""Time integration: linearly-implicit IMEX (default) and backward Euler with
damped Newton iteration, both backed by banded LU solves.

IMEX treats the stiff parts implicitly with coefficients frozen at the old
state (plain diffusion, the fourth-order thin-film term, and the singular
fast-diffusion correction); cross-diffusion fluxes and reactions are explicit.
Both fields are held as one (2, n) array, a State's w (see the model
module).  The IMEX step is one banded solve of a block-diagonal system with u
in rows [0, n) and v in [n, 2n): the stacked array's own memory order.  It
calls LAPACK itself, through ctypes, from the library that numpy already
loads (see the LAPACK section below): the band LU of gbtrf and the solve of
gbtrs that Newton uses too, at half-bandwidth 1 for the limit model's
tridiagonal bands and 2 for the regularized model's five.  The limit
model's I - dt*L reads no state, so an accepted limit step hands on its
factorization to the next step at the same dt, grid and D.

The fully implicit scheme solves the backward-Euler residual
R(w) = w - w_old - dt * rhs(w) on the interleaved unknown vector
(u0, v0, u1, v1, ...), the transpose of the stacked pair, by damped
simplified Newton.  The Jacobian J freezes the nonlinear flux coefficients
and differentiates through the derivative factors and the reactions, which
keeps the matrix banded with half-bandwidth 4.  I - dt*J is factored once
per step by banded LU with partial pivoting (LAPACK gbtrf; the matrices are
not symmetric), and every Newton iteration solves with that factorization
(gbtrs).  J itself is kept across steps, the stiff-solver practice of
Hairer & Wanner (Solving ODEs II, IV.8): a step builds it at w_old only when
it has none from the run's last accepted step, or when that step took more
than _JAC_KEEP_ITERS iterations; and whenever the line search finds no
decrease with a J built before the current iteration, or a carried J has not
converged within _JAC_KEEP_ITERS iterations, J is rebuilt at the current
iterate.  Newton stops when the residual or the increment reaches
newton_tol or, on fine grids where that lies below roundoff, the floor
eps * max(w_old) * (1 + dt * ||J||_1); a step on which that floor exceeds
the local error tolerance is rejected, and run_until keeps dt below the
largest dt the floor allows.  An accepted step also hands on
rhs(w_new) when its last line search evaluated it there, so the next
attempt from w_new starts without evaluating it again.  step() passes the
run's last accepted outcome on unchanged to either scheme's advance, which
alone decides what of it to reuse.

Positivity is enforced by step rejection, never by clamping: clamped values
would silently break the entropy identities the diagnostics monitor.

run_until streams its samples: it hands each one to the caller's on_sample
as it is taken and keeps only the current state and the last accepted
outcome, so a run's memory does not grow with its sample count.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from enum import Enum
from math import isfinite, sqrt

import numpy as np
from numpy.linalg import _umath_linalg

from .model import (
    KineticParams,
    ModelKind,
    RegParams,
    State,
    _columns,
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


_SAFETY = 0.5  # dt factor after a rejected step
_GROWTH = 1.2  # dt factor after an accepted step, capped at dt_max
_TOL = 1e-5  # fully implicit: local error per step, relative to 1 + |w|
_NEWTON_MAX_ITER = 25


def _time_tol(t_end: float) -> float:
    """Tolerance of run_until's time comparisons on a run to t_end."""
    return 1e-9 * max(1.0, abs(t_end))


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
    err: float | None = None  # fully implicit after an accepted step: scaled local error
    slopes: np.ndarray | None = None  # fully implicit: (w_new - w_old) / dt
    jac_builds: int = 0  # fully implicit: Jacobians built in this attempt
    # fully implicit: the last Jacobian factored or found above the Newton
    # floor, as (J, ||J||_1) with J unscaled in band storage, and, accepted,
    # compute_rhs at state.w or None
    jac: tuple[np.ndarray, float] | None = None
    rhs: np.ndarray | None = None
    # limit IMEX, accepted: the factorization of I - dt*L it solved with,
    # keyed by what that matrix reads (see _imex_advance)
    lu: tuple | None = None


class StepperFailure(RuntimeError):
    """dt underflowed dt_min after repeated rejections; carries the last valid state."""

    def __init__(self, message, last_state: State):
        super().__init__(message)
        self.last_state = last_state


# ---------------------------------------------------------------------------
# LAPACK
#
# The routines come from the LAPACK that numpy's own linalg extension links,
# looked up through that extension's file, so no library path is named here.
# numpy's PyPI wheels bundle it as scipy-openblas64, whose routines are named
# scipy_<routine>_64_ and take 64-bit integers.  Each binding below solves
# or factors in place, on contiguous float64 arrays (band storage
# F-contiguous), raises ValueError on an illegal argument and returns
# LAPACK's info, positive for an exactly singular pivot.  Pivots are LAPACK's
# own, 1-based.  The integer arguments of each shape are built once; info is
# per call, and the pivots belong to the factorization that made them.
# ---------------------------------------------------------------------------

_LAPACK = _umath_linalg.__file__


def _lapack_routine(name):
    """The ctypes function of LAPACK's routine name (e.g. "dgbtrf"), else an
    ImportError whose name is the symbol looked up."""
    symbol = f"scipy_{name}_64_"
    try:
        routine = getattr(ctypes.CDLL(_LAPACK), symbol)
    except AttributeError:
        raise ImportError(f"LAPACK routine {name} ({symbol}) is not in {_LAPACK} or the libraries "
                          "it links (see README)", name=symbol, path=_LAPACK) from None
    # argtypes stay undeclared: their conversions would cost about 1.5 us a
    # call, and every argument is already a pointer built below, to arrays
    # whose dtype and length each binding checks
    routine.restype = None
    return routine


_gbtrf, _gbtrs = map(_lapack_routine, ("dgbtrf", "dgbtrs"))
_F64 = np.dtype(np.float64)
_INT_ARGS = {}  # by-reference 64-bit integer arguments, by their values
_CHAR_LEN = ctypes.c_size_t(1)  # the hidden length of a Fortran character argument
_byref, _from_buffer = ctypes.byref, ctypes.c_char.from_buffer


def _ints(*values):
    args = _INT_ARGS.get(values)
    if args is None:
        args = _INT_ARGS[values] = tuple(_byref(ctypes.c_int64(v)) for v in values)
    return args


def _ptr(a):
    """A pointer to the data of a, C-contiguous if 1-D and F-contiguous if
    2-D (else TypeError), which keeps a alive."""
    return _byref(_from_buffer(a.T))


def _pivots(m):
    """A zeroed ctypes array for m pivots: passed as a pointer, read as an int64 array."""
    return (ctypes.c_int64 * m)()


def _info(info):
    if info.value < 0:
        raise ValueError(f"LAPACK: illegal value in argument {-info.value}")
    return info.value


def _mismatch(routine):
    return ValueError(f"{routine}: the arrays must be float64 and of matching lengths")


def dgbtrf(ab, kl):
    """Band LU, in place, of the band matrix A with kl sub- and superdiagonals
    in the band storage ab, (ldab, m): (pivots, info)."""
    if ab.dtype is not _F64:
        raise _mismatch("dgbtrf")
    n, kl_, ld = _ints(ab.shape[1], kl, ab.shape[0])
    piv, info = _pivots(ab.shape[1]), ctypes.c_int64()
    _gbtrf(n, n, kl_, kl_, _ptr(ab), ld, piv, _byref(info))
    return piv, _info(info)


def dgbtrs(lu, kl, piv, b):
    """Solve A x = b in place in b with dgbtrf's LU and pivots of A: info."""
    if (lu.dtype is not _F64 or b.dtype is not _F64 or b.shape != lu.shape[1:]
            or len(piv) != b.shape[0]):
        raise _mismatch("dgbtrs")
    n, kl_, one, ld = _ints(lu.shape[1], kl, 1, lu.shape[0])
    info = ctypes.c_int64()
    _gbtrs(b"N", n, kl_, kl_, one, _ptr(lu), ld, piv, _ptr(b), n, _byref(info), _CHAR_LEN)
    return _info(info)


# ---------------------------------------------------------------------------
# banded assembly
#
# Matrices live in LAPACK band storage: ab[2kl + i - j, j] = A[i, j] with
# 3kl + 1 rows (the first kl are LU workspace), Fortran order, so gbtrf
# works in place.
# The array carries kl spare columns on each side.  Operator bands are written
# through a sheared view whose row r + k, index i, is the slot of L[i, i + k];
# slots of entries outside the matrix fall into the spare columns.
# ---------------------------------------------------------------------------

def _band_storage(kl, m):
    """Zeroed band storage of an m x m matrix; the matrix is ab[:, kl:-kl]."""
    return np.zeros((3 * kl + 1, m + 2 * kl), order="F")


def _band_slots(ab, kl, n, r, stride=1, col_off=0, *, pair):
    """(2r + 1, 2, n) view of ab holding the bands of the stacked pair's two
    blocks: [r + k, 0, i] is the slot of the matrix entry
    A[stride*i, stride*(i + k) + col_off], and with pair = (dr, dc),
    [r + k, 1, i] is the slot of the entry dr rows and dc columns further on."""
    s_row, s_col = ab.strides
    row = 2 * kl - col_off + stride * r  # slot of k = -r, i = 0
    col = kl + col_off - stride * r
    dr, dc = pair
    strides = (stride * (s_col - s_row), (dr - dc) * s_row + dc * s_col, stride * s_col)
    return np.ndarray((2 * r + 1, 2, n), ab.dtype, ab, row * s_row + col * s_col, strides)


def _factor_shifted(ab, kl):
    """Band LU of I + B for B in band storage, in place: (lu, pivots), or None
    when LAPACK reports an exactly singular pivot (info > 0).  Solve with
    dgbtrs(lu, kl, pivots, b)."""
    a = ab[:, kl:-kl]
    a[2 * kl] += 1.0
    piv, info = dgbtrf(a, kl)
    return (a, piv) if info == 0 else None


def _put_div_bands(out, sigma, c_face, dx):
    """out[0:3] = bands of w -> sigma * div(c_face * w_x), c_face zero at the ends."""
    s = sigma / (dx * dx)
    np.multiply(s, c_face[..., :-1], out=out[0])
    np.add(c_face[..., :-1], c_face[..., 1:], out=out[1])
    out[1] *= -s
    np.multiply(s, c_face[..., 1:], out=out[2])


def _stiff_bands(out, w, dx, d_coeff, n_exp, rp, kind):
    """Write into the zeroed out, a _band_slots view, the bands of the stiff
    operator L(w) of each row of the stacked pair w: second-order diffusion
    (3 rows), minus div(eps m4(w) w_xxx) for the regularized model (5 rows)."""
    mid = out.shape[0] // 2
    _put_div_bands(out[mid - 1:mid + 2], 1.0, diffusion_face_coeff(w, d_coeff, rp, kind), dx)
    if kind is ModelKind.LIMIT:
        return
    # subtract the band product T @ Z of the face combiner T (diagonals tl,
    # td, tu) and the mirrored cell second difference Z (diagonal zd).  Z's
    # off-diagonals are inv2 inside the matrix, so their products with T are
    # entries of q = m * inv2 and t2 = td * inv2.
    inv2 = 1.0 / (dx * dx)
    zd = np.full(w.shape[-1], -2.0 * inv2)
    zd[0] = zd[-1] = -inv2
    m = thinfilm_face_coeff(w, n_exp, rp) * inv2
    tl, tu = m[..., :-1], m[..., 1:]
    td = -(tl + tu)
    q = m * inv2
    t2 = td * inv2
    p_0 = td * zd
    p_0[..., 1:] += q[..., 1:-1]
    p_0[..., :-1] += q[..., 1:-1]
    out[0, ..., 2:] -= q[..., 2:-1]
    out[1, ..., 1:] -= tl[..., 1:] * zd[:-1] + t2[..., 1:]
    out[2] -= p_0
    out[3, ..., :-1] -= t2[..., :-1] + tu[..., :-1] * zd[1:]
    out[4, ..., :-2] -= q[..., 1:-2]


# ---------------------------------------------------------------------------
# IMEX scheme
# ---------------------------------------------------------------------------

def _imex_advance(w, dx, dt, kp, rp, kind, prev):
    """One IMEX step of the stacked pair w: (w_new, lu), w_new None if the
    solve is singular.  It assembles I - dt*L(w), forms the explicit right
    side w + dt*E(w), then factors and solves once.  The limit model's
    I - dt*L reads only dt, dx, n and D, never w: its lu is ((dt, dx, n,
    d1, d2), LU, pivots), and the step solves with prev.lu, from the run's
    last accepted outcome prev, when the keys are equal.  Regularized, lu is None."""
    c = _columns(kp, rp)
    # the bands vanish outside each field's block, so the block-diagonal
    # system solves exactly as two separate systems would
    n = w.shape[1]
    kl = 2 if kind is ModelKind.REGULARIZED else 1
    key = (dt, dx, n, kp.d1, kp.d2) if kl == 1 else None
    lu = prev.lu[1:] if prev is not None and prev.lu and prev.lu[0] == key else None
    if lu is None:
        ab = _band_storage(kl, 2 * n)
        _stiff_bands(_band_slots(ab, kl, n, kl, pair=(n, n)), w, dx, c.d, c.n, rp, kind)
        ab *= -dt
    flux = c.chi * taxis_face_coeff(w, c.n, rp, kind) * face_gradient(w, dx)[::-1]
    rhs = w + dt * ((flux[:, 1:] - flux[:, :-1]) / dx + reaction_terms(w, kp, rp, kind))
    if lu is None:
        lu = _factor_shifted(ab, kl)
        if lu is None:
            return None, None
    dgbtrs(lu[0], kl, lu[1], rhs.reshape(2 * n))
    return rhs, key and (key, *lu)


# ---------------------------------------------------------------------------
# fully implicit scheme
# ---------------------------------------------------------------------------

_HALFWIDTH = 4  # interleaved stencil: radius 2 per field, two fields
_EPS = float(np.finfo(float).eps)  # machine epsilon, for the Newton roundoff floor
_JAC_KEEP_ITERS = 3  # Newton iterations past which a carried Jacobian is rebuilt
# largest roundoff floor relative to max(w), eps * (1 + dt * ||J||_1), that
# Newton may stop at: above the local error tolerance the floor swamps what
# the error test measures, so the attempt is rejected instead
_FLOOR_MAX = _TOL


def _floor_dt(j_norm):
    """The largest dt at which a Jacobian with ||J||_1 = j_norm keeps the
    relative Newton floor eps * (1 + dt * ||J||_1) within _FLOOR_MAX."""
    return (_FLOOR_MAX / _EPS - 1.0) / j_norm


def _jacobian_ab(w, dx, kp, rp, kind):
    """J at the stacked pair w, in band storage for the unknowns (u0, v0, u1, ...)."""
    c = _columns(kp, rp)
    n = w.shape[1]
    r = 2 if kind is ModelKind.REGULARIZED else 1
    ab = _band_storage(_HALFWIDTH, 2 * n)
    # blocks d(u eq)/du and d(v eq)/dv, then d(u eq)/dv and d(v eq)/du
    own = _band_slots(ab, _HALFWIDTH, n, r, 2, 0, pair=(1, 1))
    cross = _band_slots(ab, _HALFWIDTH, n, 1, 2, 1, pair=(1, -1))
    _stiff_bands(own, w, dx, c.d, c.n, rp, kind)
    _put_div_bands(cross, c.chi, taxis_face_coeff(w, c.n, rp, kind), dx)
    jac = reaction_jacobian(w, kp, rp, kind)
    own[r] += jac[::3]
    cross[1] += jac[1:3]
    return ab


def _newton_advance(w, dx, dt, kp, rp, kind, cfg, prev):
    """Backward-Euler solve of the stacked pair w by damped simplified Newton.

    prev is the run's last accepted outcome, or None.  The solve starts from
    its Jacobian prev.jac, (J, ||J||_1), unless prev took more than
    _JAC_KEEP_ITERS Newton iterations, and from its prev.rhs, compute_rhs
    at prev.state.w, when w is that very array.  Returns (w_new, iters,
    jac, builds, rhs_new): w_new is None on failure, iters counts the
    iterations taken, jac is the last Jacobian factored, builds counts the
    Jacobians built here, and rhs_new is compute_rhs at w_new when the last
    line search evaluated it there, else None.

    Without a carried Jacobian, J is built at the start state; I - dt*J is
    factored once, and each iteration solves with that factorization.  When
    the line search finds no decrease with a Jacobian built before the
    current iteration (a carried one included), or a carried Jacobian has
    taken _JAC_KEEP_ITERS iterations without converging, J is rebuilt at
    the current iterate and the iteration retried; a failure with a fresh
    Jacobian rejects the step.  Every solve takes at least one correction.
    It has converged once the residual, or the increment with a positive
    result, is at most tol = max(newton_tol, eps * max(w) * (1 + dt *
    ||J||_1)) in max norm, eps being machine epsilon and ||J||_1 the largest
    column sum of |J|: on fine grids the residual and the increment stall at
    that roundoff floor, of order eps * dt / dx^4, above newton_tol.  A
    Jacobian whose floor relative to max(w), eps * (1 + dt * ||J||_1),
    exceeds _FLOOR_MAX, dt being above _floor_dt, cannot resolve the step:
    the step is rejected at once, without rebuilding J, and retried at a
    smaller dt.
    """

    def residual(wc, f):  # interleaved (u0, v0, u1, ...) like the unknowns
        return (wc - w - dt * f).T.ravel()

    def build(wc):
        ab = _jacobian_ab(wc, dx, kp, rp, kind)
        return ab, float(np.abs(ab[:, _HALFWIDTH:-_HALFWIDTH]).sum(axis=0).max())

    def factor(j):
        """The LU of I - dt*J and the convergence tolerance, for j = (J, ||J||_1);
        None when dt is above _floor_dt(||J||_1)."""
        if dt > _floor_dt(j[1]):
            return None
        return (_factor_shifted(j[0] * -dt, _HALFWIDTH),
                max(cfg.newton_tol, _EPS * w_max * (1.0 + dt * j[1])))

    def correct(lu, tol):
        """One damped correction of wc with the factorization lu:
        (w, residual, norm, rhs), with norm 0 and rhs None when the increment
        test has converged; None when lu is singular, the increment is not
        finite or no damping lowers the residual."""
        if lu is None:
            return None
        delta = res.copy()
        dgbtrs(lu[0], _HALFWIDTH, lu[1], delta)
        if not np.all(np.isfinite(delta)):
            return None
        w_step = delta.reshape(-1, 2).T
        if float(np.abs(delta).max()) <= tol:
            wt = wc - w_step
            if wt.min() > 0.0:
                return wt, None, 0.0, None
        lam = 1.0
        for _ in range(10):
            wt = wc - lam * w_step
            if wt.min() > 0.0:
                f_t = compute_rhs(wt, dx, kp, rp, kind)
                res_t = residual(wt, f_t)
                norm_t = float(np.abs(res_t).max())
                if np.isfinite(norm_t) and norm_t < norm:
                    return wt, res_t, norm_t, f_t
            lam *= 0.5
        return None

    w_max = float(w.max())
    wc = w
    jac = rhs = None
    if prev is not None:
        jac = prev.jac if prev.newton_iters <= _JAC_KEEP_ITERS else None
        rhs = prev.rhs if prev.state.w is w else None
    res = residual(wc, compute_rhs(wc, dx, kp, rp, kind) if rhs is None else rhs)
    norm = float(np.abs(res).max())
    # built: the iteration whose start iterate jac is at, 0 for a carried one
    if jac is None:
        jac, built, builds = build(wc), 1, 1
    else:
        built = builds = 0
    fac = factor(jac)
    if fac is None:
        return None, 0, jac, builds, None
    for it in range(1, _NEWTON_MAX_ITER + 1):
        # a carried J that has not converged in _JAC_KEEP_ITERS iterations is
        # replaced as if its line search had failed
        new = None if built == 0 and it > _JAC_KEEP_ITERS else correct(*fac)
        if new is None and built < it:
            jac, built = build(wc), it
            builds += 1
            fac = factor(jac)
            new = None if fac is None else correct(*fac)
        if new is None:
            return None, it, jac, builds, None
        wc, res, norm, f = new
        if norm <= fac[1]:
            return wc, it, jac, builds, f
    return None, _NEWTON_MAX_ITER, jac, builds, None


# ---------------------------------------------------------------------------
# public stepping API
# ---------------------------------------------------------------------------

def step(state: State, dt: float, kp: KineticParams, rp: RegParams,
         kind: ModelKind, cfg: StepperConfig, prev: StepOutcome | None = None) -> StepOutcome:
    """Attempt one step of size dt; rejection is reported, retrying is the caller's job.

    The attempt is rejected if the solve fails, the result is not finite or
    not above positivity_floor, or a fully implicit step fails its BDF1 local
    error test.  prev is the run's last accepted outcome, or None at the start
    of a run; err is None when prev is None or carries no slopes (IMEX).  The
    estimate needs no extra solve: err = dt^2 / (dt + prev.dt_used) times the
    change of slope from prev.slopes, the BDF1 estimate of (dt^2 / 2) w'',
    against _TOL * (1 + |w_new|); above 1 the step fails.  A fully implicit
    outcome past positivity carries its slopes (w_new - w_old) / dt.

    An attempt hands prev to its scheme's advance, which alone decides what
    of it to reuse: _imex_advance, one factor and solve, the limit model's
    prev.lu, and _newton_advance prev.jac and prev.rhs.  Every fully
    implicit outcome counts its Jacobian builds in jac_builds.
    """
    if not 0.0 < dt <= cfg.dt_max:
        raise ValueError("dt must lie in (0, dt_max]")
    w = state.w
    builds, jac, rhs, lu = 0, None, None, None
    if cfg.scheme is Scheme.IMEX:
        (wn, lu), iters = _imex_advance(w, state.grid.dx, dt, kp, rp, kind, prev), 0
    else:
        wn, iters, jac, builds, rhs = _newton_advance(w, state.grid.dx, dt, kp, rp, kind, cfg, prev)

    def rejected(min_u=np.nan, min_v=np.nan, err=None, slopes=None):
        return StepOutcome(state, dt, False, iters, min_u, min_v, err, slopes, builds, jac)

    if wn is None:
        return rejected()
    min_u, min_v = wn.min(axis=1).tolist()
    # min propagates NaN, so the extremes are finite exactly when the arrays are
    if not (isfinite(min_u) and isfinite(min_v) and isfinite(wn.max())):
        return rejected()
    if min(min_u, min_v) <= cfg.positivity_floor:
        return rejected(min_u, min_v)
    err = slopes = None
    if cfg.scheme is Scheme.FULLY_IMPLICIT:
        slopes = (wn - w) / dt
        if prev is not None and prev.slopes is not None:
            c = dt * dt / (dt + prev.dt_used)
            err = float((np.abs(c * (slopes - prev.slopes)) / (_TOL * (1.0 + np.abs(wn)))).max())
            if err > 1.0:
                return rejected(min_u, min_v, err, slopes)
    # wn is a fresh array, proven finite and positive just above
    new_state = State.trusted(state.t + dt, state.grid, wn)
    return StepOutcome(new_state, dt, True, iters, min_u, min_v, err, slopes, builds, jac, rhs, lu)


def run_until(state: State, t_end: float, kp: KineticParams, rp: RegParams,
              kind: ModelKind, cfg: StepperConfig, sample_every: float,
              on_sample) -> State:
    """Advance to t_end with adaptive dt, handing each sample to on_sample as
    it is taken; returns the final state.

    step() alone accepts or rejects an attempt; run_until passes it the last
    accepted outcome and sizes dt.  A rejection without an error estimate is
    retried at half the dt.  IMEX grows dt by _GROWTH after each accepted
    step, and so does the fully implicit scheme after its first step, which
    has no outcome before it.
    After that, the next dt is the step just taken times the standard
    controller factor 0.9 / sqrt(err) of step()'s error estimate, bounded
    to [0.2, 2].  dt never exceeds dt_max, nor, after a fully implicit
    attempt, _floor_dt of the Jacobian it hands on, above which Newton's
    roundoff floor rejects the step.

    Samples are taken at the start and at the first step boundary after each
    multiple of sample_every; a step that would pass two pending multiples is
    cut short to land on the first.  The final state is the last sample.
    on_sample(state) is called once per sample, in time order, and run_until
    keeps none of them: a caller that wants the log collects it, for example
    with a list's append.  A dt underflow below dt_min raises StepperFailure
    carrying the last accepted state, which on_sample has not seen unless it
    was a sample.
    """
    if t_end < state.t:
        raise ValueError("t_end must not precede state.t")

    on_sample(state)
    sampled_t = state.t  # time of the last sample handed to on_sample
    tol_t = _time_tol(t_end)
    next_sample = state.t + sample_every
    dt = cfg.dt_init
    prev = None  # the last accepted StepOutcome
    while state.t < t_end - tol_t:
        dt_try = min(dt, t_end - state.t)
        if state.t + dt_try >= next_sample + sample_every - tol_t:
            dt_try = next_sample - state.t
        out = step(state, dt_try, kp, rp, kind, cfg, prev)
        if out.err is None:
            dt = min(dt * _GROWTH, cfg.dt_max) if out.accepted else dt * _SAFETY
        else:
            factor = min(2.0, max(0.2, 0.9 / sqrt(out.err))) if out.err > 0.0 else 2.0
            dt = min(dt_try * factor, cfg.dt_max)
        if out.jac is not None:  # fully implicit: the largest dt Newton's floor allows
            dt = min(dt, _floor_dt(out.jac[1]))
        if out.accepted:
            prev = out
            state = out.state
            if state.t >= next_sample - tol_t:
                on_sample(state)
                sampled_t = state.t
                while next_sample <= state.t + tol_t:
                    next_sample += sample_every
        elif dt < cfg.dt_min:
            raise StepperFailure(f"dt underflow below dt_min={cfg.dt_min} at t={state.t}",
                                 last_state=state)
    if sampled_t < state.t:
        on_sample(state)
    return state
