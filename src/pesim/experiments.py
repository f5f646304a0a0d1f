"""Scripted studies that reproduce the model's qualitative long-time claims
at desk scale: stabilization to the coexistence or prey-extinction state,
the L1 absorbing set, consistency of the regularization as eps -> 0, and a
cross-check of the kinetics against the spatially homogeneous ODE reduction.

Each study returns an ExperimentResult holding the sampled diagnostics and a
map of named verdicts (boolean plus the measured value).  Stabilization
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
from .grid import Field, Grid1D, integrate_values
from .model import KineticParams, ModelKind, RegParams, State
from .stepper import StepperConfig, StepperFailure, run_until

__all__ = [
    "InitialCondition",
    "ExperimentSpec",
    "Verdict",
    "ExperimentResult",
    "RegimeMismatch",
    "run_coexistence_study",
    "run_extinction_study",
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
                        with sum |c_k| = amp so positivity needs base > amp.
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
            raise ValueError(f"unknown ic kind {self.kind!r}")
        if self.kind == "random-trig" and self.mode < 1:
            raise ValueError(f"mode must be at least 1 for random-trig, got {self.mode}")

    def build(self, grid: Grid1D) -> State:
        s = (grid.centers - grid.x_left) / grid.length
        if self.kind == "constant":
            u = np.full(grid.n_cells, self.base_u)
            v = np.full(grid.n_cells, self.base_v)
        elif self.kind == "perturbed":
            u = self.base_u + self.amp_u * np.cos(self.mode * math.pi * s)
            v = self.base_v + self.amp_v * np.cos(self.mode * math.pi * s)
        else:
            rng = np.random.default_rng(self.seed)
            u = np.full(grid.n_cells, self.base_u)
            v = np.full(grid.n_cells, self.base_v)
            for w, amp in ((u, self.amp_u), (v, self.amp_v)):
                c = rng.uniform(-1.0, 1.0, self.mode)
                c *= amp / np.abs(c).sum()
                for k, ck in enumerate(c, start=1):
                    w += ck * np.cos(k * math.pi * s)
        return State(0.0, Field(grid, u), Field(grid, v))


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    kp: KineticParams
    rp: RegParams
    kind: ModelKind
    grid: Grid1D
    ic: InitialCondition
    t_end: float
    sample_every: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")


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
    states: list[State] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def _run(spec: ExperimentSpec, cfg: StepperConfig | None):
    """Run one simulation from spec's initial condition (cfg None: the default
    stepper); returns the sample log and one diagnostics record per sample.

    A StepperFailure propagates with the records of its partial log attached
    as `records`.
    """
    state0 = spec.ic.build(spec.grid)
    try:
        samples = run_until(state0, spec.t_end, spec.kp, spec.rp, spec.kind,
                            cfg or StepperConfig(), spec.sample_every)
    except StepperFailure as exc:
        exc.records = _records(spec, exc.samples)
        raise
    return samples, _records(spec, samples)


def _records(spec: ExperimentSpec, samples) -> list[DiagnosticsRecord]:
    return [diagnostics_record(s, spec.kp, spec.rp, spec.gamma) for s in samples]


def _sup_deviation(values: np.ndarray, target: float) -> float:
    return float(np.abs(values - target).max())


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

def _stabilization_study(spec, cfg, dev_tol, slope_allowance, regime: Regime, n2: float,
                         entropy: str, v_verdict: str, mismatch: str) -> ExperimentResult:
    """Shared body of the stabilization studies: pin n1 = 2 and n2, run, and
    score the final sup-deviations of u and v from the regime's steady state
    and the tail slope of its entropy against the sqrt(eps) allowance."""
    ss = steady_states(spec.kp)
    if ss.regime is not regime:
        raise RegimeMismatch(mismatch)
    spec = replace(spec, rp=replace(spec.rp, n1=2.0, n2=n2))
    samples, records = _run(spec, cfg)

    boundary = spec.kp.lambda2 == spec.kp.a2 * spec.kp.lambda1  # extinction regime only
    extras = {"boundary_case": boundary} if regime is Regime.EXTINCTION else {}
    tol = dev_tol * (10.0 if boundary else 1.0)
    dev_u = _sup_deviation(samples[-1].u.values, ss.u_star)
    dev_v = _sup_deviation(samples[-1].v.values, ss.v_star)
    slope = _tail_slope(records, entropy)
    allowance = slope_allowance * math.sqrt(spec.rp.eps)
    verdicts = {
        "u_deviation": Verdict(dev_u < tol, dev_u, tol),
        v_verdict: Verdict(dev_v < tol, dev_v, tol),
        "entropy_tail_slope": Verdict(slope <= allowance, slope, allowance),
    }
    extras["slope_constant"] = max(0.0, slope) / math.sqrt(spec.rp.eps)
    return ExperimentResult(spec, records, verdicts, samples, extras)


def run_coexistence_study(spec: ExperimentSpec, cfg: StepperConfig | None = None,
                          dev_tol: float = 1e-2,
                          slope_allowance: float = 10.0) -> ExperimentResult:
    """Stabilization toward the coexistence state; requires lambda2 > a2*lambda1.

    The regularization exponents are pinned to n1 = n2 = 2, the structural
    choice under which the coexistence entropy dissipates.  Verdicts: final
    sup-deviation of u and v from the coexistence state, and the tail slope
    of E1 against the sqrt(eps) allowance.
    """
    return _stabilization_study(
        spec, cfg, dev_tol, slope_allowance, Regime.COEXISTENCE, n2=2.0, entropy="E1",
        v_verdict="v_deviation", mismatch="coexistence study needs lambda2 > a2*lambda1")


def run_extinction_study(spec: ExperimentSpec, cfg: StepperConfig | None = None,
                         dev_tol: float = 1e-2,
                         slope_allowance: float = 10.0) -> ExperimentResult:
    """Stabilization toward the prey-extinction state (lambda1, 0);
    requires lambda2 <= a2*lambda1 and pins n1 = 2, n2 = 1.  Verdicts: final
    sup-deviations of u from lambda1 and of v from 0, and the tail slope of E2.

    On the boundary lambda2 = a2*lambda1 the decay is slower and the
    deviation thresholds are relaxed by a factor of 10 (values reported).
    """
    return _stabilization_study(
        spec, cfg, dev_tol, slope_allowance, Regime.EXTINCTION, n2=1.0, entropy="E2",
        v_verdict="v_sup", mismatch="extinction study needs lambda2 <= a2*lambda1")


def run_eps_convergence(base_spec: ExperimentSpec, eps_list,
                        cfg: StepperConfig | None = None) -> ExperimentResult:
    """Cauchy-in-eps study: identical runs varying only eps, reporting the
    L2 distances of the final profiles between consecutive eps values.

    Verdict: the distances decrease strictly along the (strictly decreasing)
    eps list, for u and for v.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise ValueError("need at least 3 eps values")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")
    specs = [
        replace(base_spec, name=f"{base_spec.name}-eps{e:g}",
                rp=replace(base_spec.rp, eps=e), kind=ModelKind.REGULARIZED)
        for e in eps_list
    ]
    runs = [_run(s, cfg) for s in specs]

    grid = base_spec.grid
    def l2(a, b):
        return math.sqrt(integrate_values((a - b) ** 2, grid))

    finals = [samples[-1] for samples, _ in runs]
    rows = []
    for e1, e2, f1, f2 in zip(eps_list, eps_list[1:], finals, finals[1:]):
        rows.append({
            "eps_hi": e1,
            "eps_lo": e2,
            "dist_u": l2(f1.u.values, f2.u.values),
            "dist_v": l2(f1.v.values, f2.v.values),
        })
    du = [r["dist_u"] for r in rows]
    dv = [r["dist_v"] for r in rows]
    dec_u = all(b < a for a, b in zip(du, du[1:]))
    dec_v = all(b < a for a, b in zip(dv, dv[1:]))
    verdicts = {
        "distances_decreasing_u": Verdict(dec_u, du[-1]),
        "distances_decreasing_v": Verdict(dec_v, dv[-1]),
    }
    return ExperimentResult(specs[-1], runs[-1][1], verdicts, extras={"distances": rows})


def run_absorbing_set(spec: ExperimentSpec, cfg: StepperConfig | None = None,
                      margin: float = 1.05) -> ExperimentResult:
    """Mass absorbing set: by the end of the run, the combined mass must sit
    below margin times the closed-form asymptotic bound."""
    if spec.kind is not ModelKind.REGULARIZED:
        raise ValueError("absorbing-set study runs the regularized system")
    samples, records = _run(spec, cfg)
    bound = m_infinity(spec.kp, spec.grid.length)
    final_mass = records[-1].mass_u + records[-1].mass_v
    max_mass = max(r.mass_u + r.mass_v for r in records)
    verdicts = {
        "final_mass_within_bound": Verdict(final_mass <= margin * bound,
                                           final_mass, margin * bound),
    }
    extras = {"m_infinity": bound, "max_mass": max_mass,
              "initial_mass": records[0].mass_u + records[0].mass_v}
    return ExperimentResult(spec, records, verdicts, samples, extras)


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


def run_ode_consistency(spec: ExperimentSpec, cfg: StepperConfig | None = None,
                        dev_tol: float = 1e-6,
                        oracle_dt: float = 1e-5) -> ExperimentResult:
    """Homogeneous-run cross-check against the RK4 kinetics oracle.

    Requires a constant initial condition.  The verdict is the deviation of
    the final state from the oracle value at t_end, maximized over both
    components and all cells.  For regularized runs the mollified reaction
    perturbs the kinetics by O(sqrt(eps)), so callers should widen dev_tol.
    """
    if spec.ic.kind != "constant":
        raise ValueError("ode-consistency study needs a homogeneous initial condition")
    samples, records = _run(spec, cfg)
    final = samples[-1]
    uo, vo = lv_rk4_oracle(spec.ic.base_u, spec.ic.base_v, spec.kp,
                           spec.t_end, oracle_dt)
    dev = max(_sup_deviation(final.u.values, uo), _sup_deviation(final.v.values, vo))
    verdicts = {"oracle_deviation": Verdict(dev <= dev_tol, dev, dev_tol)}
    extras = {"oracle_u": uo, "oracle_v": vo}
    return ExperimentResult(spec, records, verdicts, samples, extras)
