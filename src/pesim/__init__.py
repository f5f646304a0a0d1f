"""1D simulator for a fully cross-diffusive predator-prey system, its
thin-film fourth-order regularization, and the entropy/inequality
diagnostics that monitor its quantitative structure."""

import os

# pesim never calls BLAS, so the thread pools OpenBLAS starts on load only burn CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .grid import Grid1D
from .model import (
    KineticParams,
    ModelKind,
    RegParams,
    State,
    fast_diffusion_coeff,
    g_mollifier,
    h_flux,
    m4_mobility,
)
from .stepper import Scheme, StepOutcome, StepperConfig, StepperFailure, run_until, step
from .functionals import (
    CosineBumpTestFunction,
    DiagnosticsRecord,
    Regime,
    SteadyStates,
    conditional_y,
    diagnostics_record,
    dissipation_D,
    dissipation_rate_D1,
    dissipation_rate_D2,
    entropy_E1,
    entropy_E2,
    m_infinity,
    phi,
    quasi_entropy_F,
    steady_states,
    weak_residual,
)
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    InitialCondition,
    run_absorbing_set,
    run_coexistence_study,
    run_eps_convergence,
    run_extinction_study,
    run_ode_consistency,
)

__version__ = "0.1.0"
