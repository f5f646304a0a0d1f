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
import os
from concurrent.futures import ThreadPoolExecutor
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
from .stepper import StepperConfig, run_until

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
    "chi_sweep",
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


def _default_cfg() -> StepperConfig:
    return StepperConfig()


def _run(spec: ExperimentSpec, cfg: StepperConfig):
    """Run one simulation, collecting a diagnostics record per sample."""
    records: list[DiagnosticsRecord] = []

    def on_sample(s: State):
        records.append(diagnostics_record(s, spec.kp, spec.rp, spec.gamma))

    state0 = spec.ic.build(spec.grid)
    final, states = run_until(
        state0, spec.t_end, spec.kp, spec.rp, spec.kind, cfg,
        spec.sample_every, on_sample=on_sample,
    )
    return final, states, records


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

def run_coexistence_study(spec: ExperimentSpec, cfg: StepperConfig | None = None,
                          dev_tol: float = 1e-2,
                          slope_allowance: float = 10.0) -> ExperimentResult:
    """Stabilization toward the coexistence state; requires lambda2 > a2*lambda1.

    The regularization exponents are pinned to n1 = n2 = 2, the structural
    choice under which the coexistence entropy dissipates.  Verdicts: final
    sup-deviation of u and v from the coexistence state, and the tail slope
    of E1 against the sqrt(eps) allowance.
    """
    ss = steady_states(spec.kp)
    if ss.regime is not Regime.COEXISTENCE:
        raise RegimeMismatch("coexistence study needs lambda2 > a2*lambda1")
    spec = replace(spec, rp=replace(spec.rp, n1=2.0, n2=2.0))
    cfg = cfg or _default_cfg()
    final, states, records = _run(spec, cfg)

    dev_u = _sup_deviation(final.u.values, ss.u_star)
    dev_v = _sup_deviation(final.v.values, ss.v_star)
    slope = _tail_slope(records, "E1")
    allowance = slope_allowance * math.sqrt(spec.rp.eps)
    verdicts = {
        "u_deviation": Verdict(dev_u < dev_tol, dev_u, dev_tol),
        "v_deviation": Verdict(dev_v < dev_tol, dev_v, dev_tol),
        "entropy_tail_slope": Verdict(slope <= allowance, slope, allowance),
    }
    extras = {"slope_constant": max(0.0, slope) / math.sqrt(spec.rp.eps)}
    return ExperimentResult(spec, records, verdicts, states, extras)


def run_extinction_study(spec: ExperimentSpec, cfg: StepperConfig | None = None,
                         dev_tol: float = 1e-2,
                         slope_allowance: float = 10.0) -> ExperimentResult:
    """Stabilization toward the prey-extinction state (lambda1, 0);
    requires lambda2 <= a2*lambda1 and pins n1 = 2, n2 = 1.

    On the boundary lambda2 = a2*lambda1 the decay is slower and the
    deviation thresholds are relaxed by a factor of 10 (values reported).
    """
    ss = steady_states(spec.kp)
    if ss.regime is not Regime.EXTINCTION:
        raise RegimeMismatch("extinction study needs lambda2 <= a2*lambda1")
    spec = replace(spec, rp=replace(spec.rp, n1=2.0, n2=1.0))
    cfg = cfg or _default_cfg()
    final, states, records = _run(spec, cfg)

    boundary = spec.kp.lambda2 == spec.kp.a2 * spec.kp.lambda1
    tol = dev_tol * (10.0 if boundary else 1.0)
    dev_u = _sup_deviation(final.u.values, spec.kp.lambda1)
    dev_v = float(np.abs(final.v.values).max())
    slope = _tail_slope(records, "E2")
    allowance = slope_allowance * math.sqrt(spec.rp.eps)
    verdicts = {
        "u_deviation": Verdict(dev_u < tol, dev_u, tol),
        "v_sup": Verdict(dev_v < tol, dev_v, tol),
        "entropy_tail_slope": Verdict(slope <= allowance, slope, allowance),
    }
    extras = {"boundary_case": boundary,
              "slope_constant": max(0.0, slope) / math.sqrt(spec.rp.eps)}
    return ExperimentResult(spec, records, verdicts, states, extras)


def _worker_count() -> int:
    env = os.environ.get("PE_SIM_THREADS", "")
    if not env.strip():
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"PE_SIM_THREADS must be an integer, got {env!r}") from None


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
    cfg = cfg or _default_cfg()
    specs = [
        replace(base_spec, name=f"{base_spec.name}-eps{e:g}",
                rp=replace(base_spec.rp, eps=e), kind=ModelKind.REGULARIZED)
        for e in eps_list
    ]
    with ThreadPoolExecutor(max_workers=min(_worker_count(), len(specs))) as ex:
        finals = list(ex.map(lambda s: _run(s, cfg), specs))

    grid = base_spec.grid
    def l2(a, b):
        return math.sqrt(integrate_values((a - b) ** 2, grid))

    rows = []
    for (e1, (f1, _, _)), (e2, (f2, _, _)) in zip(
        zip(eps_list, finals), zip(eps_list[1:], finals[1:])
    ):
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
    _, _, records = finals[-1]
    return ExperimentResult(specs[-1], records, verdicts, extras={"distances": rows})


def run_absorbing_set(spec: ExperimentSpec, cfg: StepperConfig | None = None,
                      margin: float = 1.05) -> ExperimentResult:
    """Mass absorbing set: by the end of the run, the combined mass must sit
    below margin times the closed-form asymptotic bound."""
    if spec.kind is not ModelKind.REGULARIZED:
        raise ValueError("absorbing-set study runs the regularized system")
    cfg = cfg or _default_cfg()
    final, states, records = _run(spec, cfg)
    bound = m_infinity(spec.kp, spec.grid.length)
    final_mass = records[-1].mass_u + records[-1].mass_v
    max_mass = max(r.mass_u + r.mass_v for r in records)
    verdicts = {
        "final_mass_within_bound": Verdict(final_mass <= margin * bound,
                                           final_mass, margin * bound),
    }
    extras = {"m_infinity": bound, "max_mass": max_mass,
              "initial_mass": records[0].mass_u + records[0].mass_v}
    return ExperimentResult(spec, records, verdicts, states, extras)


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
    cfg = cfg or _default_cfg()
    final, states, records = _run(spec, cfg)
    uo, vo = lv_rk4_oracle(spec.ic.base_u, spec.ic.base_v, spec.kp,
                           spec.t_end, oracle_dt)
    dev = max(_sup_deviation(final.u.values, uo), _sup_deviation(final.v.values, vo))
    verdicts = {"oracle_deviation": Verdict(dev <= dev_tol, dev, dev_tol)}
    extras = {"oracle_u": uo, "oracle_v": vo}
    return ExperimentResult(spec, records, verdicts, states, extras)


def chi_sweep(base_spec: ExperimentSpec, cfg: StepperConfig | None = None,
              chi_lo: float = 1e-3, chi_hi: float = 2.0, iters: int = 8,
              dev_tol: float = 1e-2) -> dict:
    """Bisect for the empirical stability boundary in chi1 = chi2 = chi.

    A value counts as stable when the coexistence run completes and ends
    within dev_tol of the coexistence state.  The boundary is reported, not
    asserted: the analysis only guarantees existence of a small-chi regime.
    """
    cfg = cfg or _default_cfg()

    def stable(chi: float) -> bool:
        kp = replace(base_spec.kp, chi1=chi, chi2=chi)
        spec = replace(base_spec, kp=kp)
        try:
            result = run_coexistence_study(spec, cfg, dev_tol=dev_tol)
        except Exception:
            return False
        return result.verdicts["u_deviation"].passed and result.verdicts["v_deviation"].passed

    if not stable(chi_lo):
        return {"stable_lo": False, "chi_lo": chi_lo, "chi_hi": chi_hi,
                "boundary": None}
    lo, hi = chi_lo, chi_hi
    if stable(hi):
        return {"stable_lo": True, "chi_lo": chi_lo, "chi_hi": chi_hi,
                "boundary": None, "stable_up_to": hi}
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return {"stable_lo": True, "chi_lo": chi_lo, "chi_hi": chi_hi,
            "boundary": 0.5 * (lo + hi), "bracket": (lo, hi)}
