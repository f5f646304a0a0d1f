"""1D simulator for a fully cross-diffusive predator-prey system, its
thin-film fourth-order regularization, and the entropy/inequality
diagnostics that monitor its quantitative structure.

`import pesim` loads no submodule: each name below is imported from its
module on first access, so that a process loads only the modules it uses
(`pesim verify` never loads the stepper)."""

import importlib
import os

# pesim's only BLAS work is inside OpenBLAS's banded LAPACK, on blocks far too
# small for a thread pool, so the pools OpenBLAS starts on load only burn CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the names pesim exports, by the submodule that defines them; each of these
# submodules is an attribute of pesim too
_EXPORTS = {
    "grid": ("Grid1D",),
    "model": ("KineticParams", "ModelKind", "RegParams", "State", "fast_diffusion_coeff",
              "g_mollifier", "h_flux", "m4_mobility"),
    "stepper": ("Scheme", "StepOutcome", "StepperConfig", "StepperFailure", "run_until", "step"),
    "functionals": ("CosineBumpTestFunction", "DiagnosticsRecord", "Regime", "SteadyStates",
                    "conditional_y", "diagnostics_record", "dissipation_D",
                    "dissipation_rate_D1", "dissipation_rate_D2", "entropy_E1", "entropy_E2",
                    "m_infinity", "phi", "quasi_entropy_F", "steady_states", "weak_residual"),
    "experiments": ("ExperimentResult", "ExperimentSpec", "InitialCondition",
                    "run_absorbing_set", "run_coexistence_study", "run_eps_convergence",
                    "run_extinction_study", "run_ode_consistency"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached: a name rebound in its module (a wrapper, a monkeypatch)
    # is what pesim.<name> returns
    if name in _OWNER or name in _EXPORTS:
        module = importlib.import_module(f"{__name__}.{_OWNER.get(name, name)}")
        return module if name in _EXPORTS else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
