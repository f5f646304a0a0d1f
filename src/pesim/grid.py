"""Uniform 1D cell-centered grid with mirror ghost cells and O(dx^2) operators.

The mirror (even-reflection) extension makes every odd derivative of the
extended data vanish at the domain endpoints, which realizes the no-flux
boundary conditions u_x = u_xxx = 0 used throughout the model.  All
operators are pure: they never mutate their inputs.  The array kernels work
along the last axis, so they take one field or a stack of fields alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "mirror_extend",
    "diff1_values",
    "diff2_values",
    "integrate_values",
    "finite_positive",
    "random_cosine_series",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered mesh over the open interval (x_left, x_right)."""

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self):
        if not self.x_right > self.x_left:
            raise ValueError("x_right must exceed x_left")
        if not 8 <= self.n_cells <= 2**20:
            raise ValueError("n_cells must lie in [8, 2**20 = 1048576]")
        dx2 = self.dx * self.dx  # * and / by nonzero floats give 0 or inf where ** raises
        if not (math.isfinite(self.length) and dx2 > 0.0 and math.isfinite(1.0 / dx2 / dx2)):
            raise ValueError(f"x_right - x_left = {self.length:g} must be finite and leave "
                             f"1/dx^4 finite on {self.n_cells} cells")

    @property
    def length(self) -> float:
        return self.x_right - self.x_left

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def mirror_extend(values: np.ndarray) -> np.ndarray:
    """Even reflection about both boundary faces, one ghost layer: g[-1] = f[0], g[n] = f[n-1]."""
    return np.concatenate([values[..., :1], values, values[..., -1:]], axis=-1)


def diff1_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central first derivative, one mirror ghost layer."""
    e = mirror_extend(values)
    return (e[..., 2:] - e[..., :-2]) / (2.0 * dx)


def diff2_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central second derivative, one mirror ghost layer."""
    e = mirror_extend(values)
    return (e[..., 2:] - 2.0 * e[..., 1:-1] + e[..., :-2]) / (dx * dx)


def integrate_values(values: np.ndarray, grid: Grid1D):
    """Midpoint-rule integral along the last axis: a float for one field, one
    per row for a stack, each bitwise its row's own; exact for constants."""
    integral = grid.length * values.mean(axis=-1)  # dx * sum; length * mean keeps constants exact
    return float(integral) if values.ndim == 1 else integral


def finite_positive(values: np.ndarray) -> bool:
    """Whether every value is finite and strictly positive; min and max propagate NaN."""
    return bool(0.0 < values.min() <= values.max() < math.inf)


def random_cosine_series(grid: Grid1D, rng, base: float, amp: float,
                         n_modes: int) -> np.ndarray:
    """base + sum_k c_k cos(k pi s(x)), k = 1..n_modes, at the cell centers,
    with s(x) in [0, 1] and c_k drawn by rng.uniform(-1, 1, n_modes), then scaled
    to sum |c_k| = amp; strictly positive whenever base > amp."""
    c = rng.uniform(-1.0, 1.0, n_modes)
    c *= amp / np.abs(c).sum()
    s = (grid.centers - grid.x_left) / grid.length
    vals = np.full(grid.n_cells, base)
    for k, ck in enumerate(c, start=1):
        vals += ck * np.cos(k * np.pi * s)
    return vals
