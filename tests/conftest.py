import time

import numpy as np
import pytest

from pesim.grid import Field, Grid1D
from pesim.inequalities import all_reports
from pesim.model import KineticParams, RegParams, State


@pytest.fixture(scope="session")
def shipped_reports():
    """The shipped inequality suites, all_reports("all"), computed once per
    session, and the wall time in seconds that computing them took."""
    t0 = time.time()
    reports = all_reports("all")
    return reports, time.time() - t0


@pytest.fixture
def unit_grid():
    return Grid1D(0.0, 1.0, 128)


@pytest.fixture
def coex_params():
    # lambda2 > a2*lambda1: coexistence state (1.5, 0.5), exactly representable
    return KineticParams(d1=1.0, d2=1.0, chi1=0.05, chi2=0.05,
                         a1=1.0, a2=1.0, lambda1=1.0, lambda2=2.0)


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
