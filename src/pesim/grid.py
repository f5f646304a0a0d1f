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
    "extend_mirror",
    "diff1",
    "diff2",
    "diff3",
    "face_divergence",
    "integrate",
    "integrate_values",
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
# array kernels (used directly by the time stepper for speed)
# ---------------------------------------------------------------------------

def mirror_extend(values: np.ndarray, layers: int) -> np.ndarray:
    """Even reflection about both boundary faces: g[-k] = f[k-1], g[n+k-1] = f[n-k]."""
    if layers not in (1, 2):
        raise ValueError("layers must be 1 or 2")
    left = values[layers - 1 :: -1]
    right = values[: -layers - 1 : -1]
    return np.concatenate([left, values, right])


def diff1_values(values: np.ndarray, dx: float) -> np.ndarray:
    e = mirror_extend(values, 1)
    return (e[2:] - e[:-2]) / (2.0 * dx)


def diff2_values(values: np.ndarray, dx: float) -> np.ndarray:
    e = mirror_extend(values, 1)
    return (e[2:] - 2.0 * e[1:-1] + e[:-2]) / (dx * dx)


def diff3_values(values: np.ndarray, dx: float) -> np.ndarray:
    e = mirror_extend(values, 2)
    return (e[4:] - 2.0 * e[3:-1] + 2.0 * e[1:-3] - e[:-4]) / (2.0 * dx**3)


def integrate_values(values: np.ndarray, grid: Grid1D) -> float:
    # algebraically dx * sum(values); evaluated as length * mean so that
    # constants integrate exactly
    return grid.length * float(values.mean())


# ---------------------------------------------------------------------------
# Field-level operations
# ---------------------------------------------------------------------------

def extend_mirror(f: Field, layers: int) -> np.ndarray:
    """Extended value array of length n_cells + 2*layers with mirror ghosts."""
    return mirror_extend(f.values, layers)


def diff1(f: Field) -> Field:
    """Second-order central first derivative, one mirror ghost layer."""
    return Field(f.grid, diff1_values(f.values, f.grid.dx))


def diff2(f: Field) -> Field:
    """Second-order central second derivative, one mirror ghost layer."""
    return Field(f.grid, diff2_values(f.values, f.grid.dx))


def diff3(f: Field) -> Field:
    """Second-order central third derivative, two mirror ghost layers."""
    return Field(f.grid, diff3_values(f.values, f.grid.dx))


def face_divergence(flux_at_faces: np.ndarray, grid: Grid1D) -> Field:
    """Conservative divergence (flux[i+1] - flux[i]) / dx of a face flux.

    The boundary faces must carry exactly zero flux (no-flux conditions);
    anything else is a contract violation and raises.
    """
    flux = np.asarray(flux_at_faces, dtype=float)
    if flux.shape != (grid.n_cells + 1,):
        raise ValueError(f"expected {grid.n_cells + 1} face values")
    if flux[0] != 0.0 or flux[-1] != 0.0:
        raise ValueError("boundary faces must carry zero flux")
    return Field(grid, (flux[1:] - flux[:-1]) / grid.dx)


def integrate(f: Field) -> float:
    """Midpoint-rule integral over the domain; exact for constants."""
    return integrate_values(f.values, f.grid)
