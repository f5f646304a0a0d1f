"""Uniform 1D cell-centered grid with mirror ghost cells and O(dx^2) operators.

The mirror (even-reflection) extension makes every odd derivative of the
extended data vanish at the domain endpoints, which realizes the no-flux
boundary conditions u_x = u_xxx = 0 used throughout the model.  All
operators are pure: they never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "Field",
    "mirror_extend",
    "diff1_values",
    "diff2_values",
    "integrate_values",
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
        if self.n_cells < 8:
            raise ValueError("n_cells must be at least 8")

    @property
    def length(self) -> float:
        return self.x_right - self.x_left

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return self.x_left + np.arange(self.n_cells + 1) * self.dx


@dataclass(frozen=True)
class Field:
    """Grid function sampled at cell centers."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(
                f"expected {self.grid.n_cells} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def trusted(cls, grid: Grid1D, values: np.ndarray) -> "Field":
        """Adopt a finite float array of shape (n_cells,) without copy or check.

        The array is frozen in place, so the caller must not keep writing to it.
        """
        values.flags.writeable = False
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "values", values)
        return f

    @classmethod
    def constant(cls, grid: Grid1D, c: float) -> "Field":
        return cls(grid, np.full(grid.n_cells, float(c)))

    @classmethod
    def from_function(cls, grid: Grid1D, fn) -> "Field":
        return cls(grid, fn(grid.centers))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def mirror_extend(values: np.ndarray) -> np.ndarray:
    """Even reflection about both boundary faces, one ghost layer: g[-1] = f[0], g[n] = f[n-1]."""
    return np.concatenate([values[:1], values, values[-1:]])


def diff1_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central first derivative, one mirror ghost layer."""
    e = mirror_extend(values)
    return (e[2:] - e[:-2]) / (2.0 * dx)


def diff2_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central second derivative, one mirror ghost layer."""
    e = mirror_extend(values)
    return (e[2:] - 2.0 * e[1:-1] + e[:-2]) / (dx * dx)


def integrate_values(values: np.ndarray, grid: Grid1D) -> float:
    """Midpoint-rule integral over the domain; exact for constants."""
    # algebraically dx * sum(values); evaluated as length * mean so that
    # constants integrate exactly
    return grid.length * float(values.mean())


def random_cosine_series(grid: Grid1D, rng: np.random.Generator, base: float,
                         amp: float, n_modes: int) -> np.ndarray:
    """base + sum_k c_k cos(k pi s(x)), k = 1..n_modes, at the cell centers,
    with s(x) in [0, 1] and c_k drawn uniform in [-1, 1] from rng, then scaled
    to sum |c_k| = amp; strictly positive whenever base > amp."""
    c = rng.uniform(-1.0, 1.0, n_modes)
    c *= amp / np.abs(c).sum()
    s = (grid.centers - grid.x_left) / grid.length
    vals = np.full(grid.n_cells, base)
    for k, ck in enumerate(c, start=1):
        vals += ck * np.cos(k * np.pi * s)
    return vals
