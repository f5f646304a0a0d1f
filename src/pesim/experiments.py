"""Scripted studies that reproduce the model's qualitative long-time claims
at desk scale: stabilization to the coexistence or prey-extinction state,
the L1 absorbing set, consistency of the regularization as eps -> 0, and a
cross-check of the kinetics against the spatially homogeneous ODE reduction.

Each study returns an ExperimentResult holding the sampled diagnostics and a
map of named verdicts (boolean plus the measured value).  The sampled states
are not kept: a study scores the final state, and a caller that wants every
sample (the CLI writes each one to a snapshot) passes on_sample, which gets
(index, state) as each sample is taken.  Stabilization
horizons and tolerances are empirical choices; the underlying statements are
asymptotic and carry no rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .functionals import (
    DiagnosticsRecord,
    Regime,
    diagnostics_record,
    m_infinity,
    steady_states,
)
from .grid import Grid1D, finite_positive, integrate_values, random_cosine_series
from .model import KineticParams, ModelKind, RegParams, State
from .stepper import StepperConfig, StepperFailure, _time_tol, run_until

__all__ = [
    "InitialCondition",
    "ExperimentSpec",
    "Verdict",
    "ExperimentResult",
    "RegimeMismatch",
    "run_coexistence_study",
    "run_extinction_study",
    "check_eps_list",
    "EPS_COLUMNS",
    "run_eps_convergence",
    "run_absorbing_set",
    "run_ode_consistency",
    "lv_rk4_oracle",
]


class RegimeMismatch(ValueError):
    """The parameter regime does not match the requested study."""


@dataclass(frozen=True)
class InitialCondition:
    """Initial-data descriptor.

    kind 'constant':    u = base_u, v = base_v
    kind 'perturbed':   base + amp * cos(mode * pi * s(x))
    kind 'random-trig': base + sum_k c_k cos(k * pi * s(x)), k = 1..mode,
                        with sum |c_k| = amp so positivity needs base > amp;
                        the c_k are drawn from pesim.rng.DefaultRng(seed),
                        numpy's default_rng(seed) stream: u's mode
                        coefficients first, then v's.
    """

    kind: str = "perturbed"
    base_u: float = 1.5
    base_v: float = 0.5
    amp_u: float = 0.3
    amp_v: float = 0.3
    mode: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "perturbed", "random-trig"):
            raise ValueError(f"kind must be constant, perturbed or random-trig, got {self.kind!r}")
        if self.kind == "random-trig" and self.mode < 1:
            raise ValueError(f"mode must be at least 1 for random-trig, got {self.mode}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def build(self, grid: Grid1D) -> State:
        """The initial state on grid; a ValueError if it is not finite and
        strictly positive."""
        # at the cell centers cos(k pi s) is even in k, zero at k = n, and equal
        # to -cos((2n - k) pi s) and to -cos((2n + k) pi s): every mode outside
        # [0, n) repeats one inside, up to sign
        if self.kind != "constant" and not 0 <= self.mode < grid.n_cells:
            raise ValueError(f"mode must lie in [0, {grid.n_cells}) on this grid; at its cell "
                             "centers every other mode repeats one of these")
        base = np.array([[self.base_u], [self.base_v]])
        amp = np.array([[self.amp_u], [self.amp_v]])
        # huge base or amp values overflow here; the check below rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "constant":
                w = base.repeat(grid.n_cells, axis=1)
            elif self.kind == "perturbed":
                s = (grid.centers - grid.x_left) / grid.length
                w = base + amp * np.cos(self.mode * math.pi * s)
            else:
                from .rng import DefaultRng

                rng = DefaultRng(self.seed)
                w = np.empty((2, grid.n_cells))
                for row, b, a in zip(w, (self.base_u, self.base_v), (self.amp_u, self.amp_v)):
                    row[:] = random_cosine_series(grid, rng, b, a, self.mode)
        for name, row in zip("uv", w):
            if not finite_positive(row):
                raise ValueError(f"base_{name} and amp_{name} give an initial {name} in "
                                 f"[{row.min():.6g}, {row.max():.6g}] on this grid; it must be "
                                 "positive and finite")
        return State.trusted(0.0, grid, w)


@dataclass(frozen=True)
class ExperimentSpec:
    kp: KineticParams
    rp: RegParams
    kind: ModelKind
    grid: Grid1D
    ic: InitialCondition
    t_end: float
    sample_every: float = 1.0
    gamma: float = 1.0
    stepper: StepperConfig = StepperConfig()

    def __post_init__(self):
        # run_until takes no step when t_end lies within its time tolerance
        # of the start, t = 0
        tol = _time_tol(self.t_end)
        if not self.t_end > tol:
            raise ValueError(f"t_end must exceed the time tolerance {tol:g}")
        # with a time tolerance of sample_every or more, run_until's cut that
        # lands a step on the next sample time lengthens the step, past dt_max
        if not tol < self.sample_every:
            raise ValueError(f"t_end = {self.t_end:g} puts the time tolerance {tol:g} at or "
                             f"above sample_every = {self.sample_every:g}")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class Verdict:
    passed: bool
    value: float
    threshold: float | None = None


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    records: list[DiagnosticsRecord]
    verdicts: dict[str, Verdict]
    extras: dict = field(default_factory=dict)


def _run(spec: ExperimentSpec, on_sample=None,
         diagnose=True) -> tuple[State, list[DiagnosticsRecord]]:
    """Run one simulation from spec's initial condition; returns the final
    state and one diagnostics record per sample.

    Each sample's record is computed as run_until takes the sample, and then
    on_sample, if given, gets (index, state), the index counting samples from
    0; no sampled state is kept.  A StepperFailure propagates with the
    records of the samples taken attached as `records`.  With diagnose
    False the run computes no record and hands on_sample nothing: the list
    is empty, for a caller that wants only the final state.
    """
    records = []

    def sample(state):
        records.append(diagnostics_record(state, spec.kp, spec.rp, spec.gamma))
        if on_sample is not None:
            on_sample(len(records) - 1, state)

    state0 = spec.ic.build(spec.grid)
    try:
        final = run_until(state0, spec.t_end, spec.kp, spec.rp, spec.kind,
                          spec.stepper, spec.sample_every,
                          sample if diagnose else (lambda state: None))
    except StepperFailure as exc:
        exc.records = records
        raise
    return final, records


def _tail_slope(records, attr) -> float:
    """Least-squares slope of one diagnostic over the final 20% of samples."""
    ts = np.array([r.t for r in records])
    ys = np.array([getattr(r, attr) for r in records], dtype=float)
    cut = ts[0] + 0.8 * (ts[-1] - ts[0])
    mask = ts >= cut
    if mask.sum() < 2:
        mask[-2:] = True
    return float(np.polyfit(ts[mask], ys[mask], 1)[0])


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _stabilization_study(spec, regime: Regime, n2: float, entropy: str,
                         v_verdict: str, mismatch: str, on_sample) -> ExperimentResult:
    """Shared body of the stabilization studies: pin n1 = 2 and n2, run, and
    score the final sup-deviations of u and v from the regime's steady state
    against 1e-2 (1e-1 on the extinction boundary) and the tail slope of its
    entropy against the allowance 10*sqrt(eps)."""
    ss = steady_states(spec.kp)
    if ss.regime is not regime:
        raise RegimeMismatch(mismatch)
    spec = replace(spec, rp=replace(spec.rp, n1=2.0, n2=n2))
    final, records = _run(spec, on_sample)

    boundary = spec.kp.lambda2 == spec.kp.a2 * spec.kp.lambda1  # extinction regime only
    extras = {"boundary_case": boundary} if regime is Regime.EXTINCTION else {}
    tol = 1e-2 * (10.0 if boundary else 1.0)
    star = np.array([[ss.u_star], [ss.v_star]])
    dev_u, dev_v = np.abs(final.w - star).max(axis=1).tolist()
    slope = _tail_slope(records, entropy)
    allowance = 10.0 * math.sqrt(spec.rp.eps)
    verdicts = {
        "u_deviation": Verdict(dev_u < tol, dev_u, tol),
        v_verdict: Verdict(dev_v < tol, dev_v, tol),
        "entropy_tail_slope": Verdict(slope <= allowance, slope, allowance),
    }
    extras["slope_constant"] = max(0.0, slope) / math.sqrt(spec.rp.eps)
    return ExperimentResult(spec, records, verdicts, extras)


def run_coexistence_study(spec: ExperimentSpec, on_sample=None) -> ExperimentResult:
    """Stabilization toward the coexistence state; requires lambda2 > a2*lambda1.

    The regularization exponents are pinned to n1 = n2 = 2, the structural
    choice under which the coexistence entropy dissipates.  Verdicts: final
    sup-deviation of u and v from the coexistence state below 1e-2, and the
    tail slope of E1 at most 10*sqrt(eps).
    """
    return _stabilization_study(
        spec, Regime.COEXISTENCE, n2=2.0, entropy="E1",
        v_verdict="v_deviation", mismatch="coexistence study needs lambda2 > a2*lambda1",
        on_sample=on_sample)


def run_extinction_study(spec: ExperimentSpec, on_sample=None) -> ExperimentResult:
    """Stabilization toward the prey-extinction state (lambda1, 0);
    requires lambda2 <= a2*lambda1 and pins n1 = 2, n2 = 1.  Verdicts: final
    sup-deviations of u from lambda1 and of v from 0 below 1e-2, and the tail
    slope of E2 at most 10*sqrt(eps).

    On the boundary lambda2 = a2*lambda1 the decay is slower and the
    deviation thresholds are relaxed by a factor of 10 (values reported).
    """
    return _stabilization_study(
        spec, Regime.EXTINCTION, n2=1.0, entropy="E2",
        v_verdict="v_sup", mismatch="extinction study needs lambda2 <= a2*lambda1",
        on_sample=on_sample)


def check_eps_list(eps_list) -> list[float]:
    """eps_list as floats; a ValueError unless it holds at least 3 strictly
    decreasing values in (0, 1)."""
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise ValueError(f"need at least 3 eps values, got {len(eps_list)}")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")
    if not all(0.0 < e < 1.0 for e in eps_list):
        raise ValueError("eps values must lie in (0, 1)")
    return eps_list


# the keys of each row of the eps study's extras["distances"], in order
EPS_COLUMNS = ("eps_hi", "eps_lo", "dist_u", "dist_v")


def run_eps_convergence(base_spec: ExperimentSpec, eps_list=(1e-2, 2.5e-3, 6.25e-4),
                        on_sample=None) -> ExperimentResult:
    """Cauchy-in-eps study: identical runs varying only eps, reporting the
    L2 distances of the final profiles between consecutive eps values.  The
    default sweep quarters eps twice from 1e-2.  The study keeps nothing of
    a run but its final state, and computes the records of its last run
    only, the ones it returns.  So a finished study hands on_sample nothing,
    and on_sample gets the samples of the run that fails, if one does: that
    run is run again with its records and on_sample, and fails at the same
    step, a run being a function of its spec.

    Verdict: the distances decrease strictly along the (strictly decreasing)
    eps list, for u and for v.
    """
    eps_list = check_eps_list(eps_list)
    specs = [replace(base_spec, rp=replace(base_spec.rp, eps=e), kind=ModelKind.REGULARIZED)
             for e in eps_list]
    finals = []
    for s in specs:
        try:  # the study keeps the records of its last run only
            final, records = _run(s, diagnose=s is specs[-1])
        except StepperFailure:
            _run(s, on_sample)  # fails again, with the run's records
            raise
        finals.append(final.w)

    rows = []
    for e1, e2, f1, f2 in zip(eps_list, eps_list[1:], finals, finals[1:]):
        dists = np.sqrt(integrate_values((f1 - f2) ** 2, base_spec.grid)).tolist()
        rows.append(dict(zip(EPS_COLUMNS, (e1, e2, *dists))))
    verdicts = {}
    for c in "uv":
        dist = [r["dist_" + c] for r in rows]
        verdicts["distances_decreasing_" + c] = Verdict(
            all(b < a for a, b in zip(dist, dist[1:])), dist[-1])
    return ExperimentResult(specs[-1], records, verdicts, extras={"distances": rows})


def run_absorbing_set(spec: ExperimentSpec, on_sample=None) -> ExperimentResult:
    """Mass absorbing set: by the end of the run, the combined mass must sit
    below 1.05 times the closed-form asymptotic bound."""
    if spec.kind is not ModelKind.REGULARIZED:
        raise ValueError("model.kind must be regularized: the absorbing-set study "
                         "runs the regularized system")
    _, records = _run(spec, on_sample)
    bound = m_infinity(spec.kp, spec.grid.length)
    final_mass = records[-1].mass_u + records[-1].mass_v
    max_mass = max(r.mass_u + r.mass_v for r in records)
    limit = 1.05 * bound
    verdicts = {"final_mass_within_bound": Verdict(final_mass <= limit, final_mass, limit)}
    extras = {"m_infinity": bound, "max_mass": max_mass,
              "initial_mass": records[0].mass_u + records[0].mass_v}
    return ExperimentResult(spec, records, verdicts, extras)


def lv_rk4_oracle(u0: float, v0: float, kp: KineticParams, t_end: float,
                  dt: float = 1e-5):
    """Classical RK4 on the homogeneous kinetics u' = u(l1 - u + a1 v),
    v' = v(l2 - v - a2 u); the reference for the ODE-consistency study."""
    n = max(1, int(round(t_end / dt)))
    h = t_end / n
    l1, a1, l2, a2 = kp.lambda1, kp.a1, kp.lambda2, kp.a2
    u, v = float(u0), float(v0)
    for _ in range(n):
        k1u = u * (l1 - u + a1 * v)
        k1v = v * (l2 - v - a2 * u)
        u2, v2 = u + 0.5 * h * k1u, v + 0.5 * h * k1v
        k2u = u2 * (l1 - u2 + a1 * v2)
        k2v = v2 * (l2 - v2 - a2 * u2)
        u3, v3 = u + 0.5 * h * k2u, v + 0.5 * h * k2v
        k3u = u3 * (l1 - u3 + a1 * v3)
        k3v = v3 * (l2 - v3 - a2 * u3)
        u4, v4 = u + h * k3u, v + h * k3v
        k4u = u4 * (l1 - u4 + a1 * v4)
        k4v = v4 * (l2 - v4 - a2 * u4)
        u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u, v


def run_ode_consistency(spec: ExperimentSpec, dev_tol: float = 1e-6,
                        oracle_dt: float = 1e-5, on_sample=None) -> ExperimentResult:
    """Homogeneous-run cross-check against the RK4 kinetics oracle.

    Requires a constant initial condition.  The verdict is the deviation of
    the final state from the oracle value at t_end, maximized over both
    components and all cells, against dev_tol.  That deviation is mostly the
    stepper's first-order time error, so dev_tol must follow the dt of
    spec.stepper: the CLI's 1e-6 needs dt near 1e-4.  For regularized runs
    the mollified reaction perturbs the kinetics by O(sqrt(eps)), so callers
    should widen dev_tol.
    """
    if spec.ic.kind != "constant":
        raise ValueError("ic.kind must be constant: the ode-consistency study needs "
                         "a homogeneous initial condition")
    final, records = _run(spec, on_sample)
    uo, vo = lv_rk4_oracle(spec.ic.base_u, spec.ic.base_v, spec.kp,
                           spec.t_end, oracle_dt)
    dev = float(np.abs(final.w - np.array([[uo], [vo]])).max())
    verdicts = {"oracle_deviation": Verdict(dev <= dev_tol, dev, dev_tol)}
    extras = {"oracle_u": uo, "oracle_v": vo}
    return ExperimentResult(spec, records, verdicts, extras)
