"""Flat `key = value` run configuration with strict key checking.

The format is deliberately trivial: one assignment per line, `#` comments,
no sections, no nesting.  Unknown keys are rejected, every value is parsed
and validated against the range of the model object it feeds, and a config
resolved with defaults can be echoed back out and re-parsed bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .experiments import ExperimentSpec, InitialCondition
from .grid import Grid1D
from .model import KineticParams, ModelKind, RegParams
from .stepper import Scheme, StepperConfig

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_text", "DEFAULTS"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


DEFAULTS: dict[str, object] = {
    "domain.left": 0.0,
    "domain.right": 1.0,
    "grid.n": 128,
    "model.d1": 1.0,
    "model.d2": 1.0,
    "model.chi1": 0.05,
    "model.chi2": 0.05,
    "model.a1": 1.0,
    "model.a2": 1.0,
    "model.lambda1": 1.0,
    "model.lambda2": 2.0,
    "reg.eps": 1e-4,
    "reg.alpha": 0.5,
    "reg.n1": 2.0,
    "reg.n2": 2.0,
    "model.kind": "regularized",
    "ic.kind": "perturbed",
    "ic.base_u": 1.5,
    "ic.base_v": 0.5,
    "ic.amp_u": 0.3,
    "ic.amp_v": 0.3,
    "ic.mode": 1,
    "ic.seed": 0,
    "time.t_end": 100.0,
    "time.sample_every": 1.0,
    "stepper.scheme": "imex",
    "stepper.dt_init": 1e-3,
    "stepper.dt_min": 1e-10,
    "stepper.dt_max": 5e-2,
    "stepper.newton_tol": 1e-10,
    "stepper.positivity_floor": 1e-12,
    "diag.gamma": 1.0,
    "out.dir": "out",
}

_INT_KEYS = {"grid.n", "ic.mode", "ic.seed"}
_STR_KEYS = {"model.kind", "ic.kind", "stepper.scheme", "out.dir"}


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved flat configuration plus the objects it builds."""

    values: dict

    @property
    def kp(self) -> KineticParams:
        v = self.values
        return _build("model.", KineticParams,
                      d1=v["model.d1"], d2=v["model.d2"],
                      chi1=v["model.chi1"], chi2=v["model.chi2"],
                      a1=v["model.a1"], a2=v["model.a2"],
                      lambda1=v["model.lambda1"], lambda2=v["model.lambda2"])

    @property
    def rp(self) -> RegParams:
        v = self.values
        return _build("reg.", RegParams, eps=v["reg.eps"], alpha=v["reg.alpha"],
                      n1=v["reg.n1"], n2=v["reg.n2"])

    @property
    def grid(self) -> Grid1D:
        v = self.values
        return _build("", Grid1D, x_left=v["domain.left"],
                      x_right=v["domain.right"], n_cells=v["grid.n"],
                      key_map={"x_left": "domain.left", "x_right": "domain.right",
                               "n_cells": "grid.n"})

    @property
    def kind(self) -> ModelKind:
        raw = self.values["model.kind"]
        try:
            return ModelKind(raw)
        except ValueError:
            raise ConfigError("model.kind", f"must be limit or regularized, got {raw!r}")

    @property
    def ic(self) -> InitialCondition:
        v = self.values
        return _build("ic.", InitialCondition, kind=v["ic.kind"],
                      base_u=v["ic.base_u"], base_v=v["ic.base_v"],
                      amp_u=v["ic.amp_u"], amp_v=v["ic.amp_v"],
                      mode=v["ic.mode"], seed=v["ic.seed"])

    @property
    def stepper(self) -> StepperConfig:
        v = self.values
        raw = v["stepper.scheme"]
        try:
            scheme = Scheme(raw)
        except ValueError:
            raise ConfigError("stepper.scheme",
                              f"must be imex or fully_implicit, got {raw!r}")
        return _build("stepper.", StepperConfig,
                      dt_init=v["stepper.dt_init"], dt_min=v["stepper.dt_min"],
                      dt_max=v["stepper.dt_max"], scheme=scheme,
                      newton_tol=v["stepper.newton_tol"],
                      positivity_floor=v["stepper.positivity_floor"])

    @property
    def out_dir(self) -> str:
        return self.values["out.dir"]

    @property
    def gamma(self) -> float:
        if not self.values["diag.gamma"] > 0.0:
            raise ConfigError("diag.gamma", "must be positive")
        return self.values["diag.gamma"]

    def experiment_spec(self, name: str) -> ExperimentSpec:
        v = self.values
        return ExperimentSpec(
            name=name, kp=self.kp, rp=self.rp, kind=self.kind, grid=self.grid,
            ic=self.ic, t_end=v["time.t_end"], sample_every=v["time.sample_every"],
            gamma=self.gamma,
        )

    def validate(self):
        """Force every derived object so bad values surface as ConfigError."""
        _ = (self.kp, self.rp, self.grid, self.kind, self.ic, self.stepper,
             self.gamma)
        if not self.values["time.t_end"] > 0.0:
            raise ConfigError("time.t_end", "must be positive")
        # a sample interval below dt_min would cut every step to a sliver
        dt_min = self.values["stepper.dt_min"]
        if not self.values["time.sample_every"] >= dt_min:
            raise ConfigError("time.sample_every", f"must be at least stepper.dt_min = {dt_min:g}")
        return self


def _build(prefix, cls, key_map=None, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # the dataclass message starts with its own field name; map it back
        # to the config key so the error names what the user wrote
        fld = str(exc).split(" ")[0]
        key = (key_map or {}).get(fld, prefix + fld)
        raise ConfigError(key, str(exc))


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
    values = dict(DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected `key = value`, got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in DEFAULTS:
            raise ConfigError(key, "unknown key")
        values[key] = _parse_value(key, val)
    if overrides:
        for key, val in overrides.items():
            if key not in DEFAULTS:
                raise ConfigError(key, "unknown key")
            values[key] = val
    return RunConfig(values).validate()


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)


def _parse_value(key: str, raw: str):
    if key in _STR_KEYS:
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        value = float(raw)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise ConfigError(key, f"expected {kind}, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {raw!r}")
    return value
