import time
from pathlib import Path

import numpy as np
import pytest

from pesim.experiments import ExperimentSpec, InitialCondition, run_ode_consistency
from pesim.functionals import CosineBumpTestFunction, weak_residual
from pesim.grid import Field, Grid1D
from pesim.inequalities import all_reports
from pesim.model import KineticParams, ModelKind, RegParams, State
from pesim.stepper import Scheme, StepperConfig, run_until

# lambda2 > a2*lambda1: coexistence state (1.5, 0.5), exactly representable
COEX_KP = KineticParams(d1=1.0, d2=1.0, chi1=0.05, chi2=0.05,
                        a1=1.0, a2=1.0, lambda1=1.0, lambda2=2.0)


def pytest_collection_modifyitems(items):
    """Every warning is an error in the tests of this directory.  The filter
    goes on each test here, not into pyproject.toml, so it reaches no other
    test directory run in the same session."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture(scope="session")
def shipped_reports():
    """The shipped inequality suites, all_reports("all"), computed once per
    session, and the wall time in seconds that computing them took."""
    t0 = time.time()
    reports = all_reports("all")
    return reports, time.time() - t0


@pytest.fixture(scope="session")
def homogeneous_ode_run():
    """The ODE-consistency study of acceptance criterion 5, computed once per
    session: 1e5 IMEX steps of dt = 1e-4 from the constant state (1, 1) on
    128 cells (limit model, COEX_KP) to t = 10, against the RK4 kinetics
    oracle at dt = 1e-5."""
    spec = ExperimentSpec(
        name="acceptance-ode",
        kp=COEX_KP,
        rp=RegParams(1e-4),
        kind=ModelKind.LIMIT,
        grid=Grid1D(0.0, 1.0, 128),
        ic=InitialCondition("constant", 1.0, 1.0),
        t_end=10.0,
        sample_every=1.0,
    )
    cfg = StepperConfig(scheme=Scheme.IMEX, dt_init=1e-4, dt_max=1e-4)
    return run_ode_consistency(spec, cfg, dev_tol=1e-6, oracle_dt=1e-5)


@pytest.fixture(scope="session")
def weak_residual_pair():
    """Weak residuals (ru, rv) of two limit-model IMEX runs to t = 1 from
    u = 1.5 + 0.3 cos(pi x), v = 0.5 + 0.3 cos(pi x) (COEX_KP), sampled every
    step: n = 16 at dt = 1e-4, then n = 32 at dt = 5e-5.  Computed once per
    session."""
    def residuals(n, dt, t_end=1.0):
        grid = Grid1D(0.0, 1.0, n)
        s = grid.centers
        st = State(0.0, Field(grid, 1.5 + 0.3 * np.cos(np.pi * s)),
                   Field(grid, 0.5 + 0.3 * np.cos(np.pi * s)))
        cfg = StepperConfig(dt_init=dt, dt_min=dt * 0.5, dt_max=dt,
                            scheme=Scheme.IMEX)
        samples = run_until(st, t_end, COEX_KP, RegParams(1e-4),
                            ModelKind.LIMIT, cfg, sample_every=dt)
        return weak_residual(samples, COEX_KP, CosineBumpTestFunction(1, t_end))

    return residuals(16, 1e-4), residuals(32, 5e-5)


@pytest.fixture
def unit_grid():
    return Grid1D(0.0, 1.0, 128)


@pytest.fixture
def coex_params():
    return COEX_KP


@pytest.fixture
def ext_params():
    # lambda2 <= a2*lambda1: prey-extinction state (2, 0)
    return KineticParams(d1=1.0, d2=1.0, chi1=0.05, chi2=0.05,
                         a1=1.0, a2=1.0, lambda1=2.0, lambda2=1.0)


@pytest.fixture
def reg_params():
    return RegParams(eps=1e-4, alpha=0.5, n1=2.0, n2=2.0)


def positive_trig_state(grid, rng, base=(1.0, 2.5), n_modes=3, t=0.0):
    """Random strictly positive pair of smooth Neumann-compatible fields."""
    s = (grid.centers - grid.x_left) / grid.length
    fields = []
    for _ in range(2):
        b = rng.uniform(*base)
        c = rng.uniform(-1.0, 1.0, n_modes)
        c *= rng.uniform(0.1, 0.4) * b / np.abs(c).sum()
        vals = np.full(grid.n_cells, b)
        for k, ck in enumerate(c, start=1):
            vals += ck * np.cos(k * np.pi * s)
        fields.append(Field(grid, vals))
    return State(t, fields[0], fields[1])
