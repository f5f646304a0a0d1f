"""Flat `key = value` run configuration with strict key checking.

The format is deliberately trivial: one assignment per line, `#` comments,
no sections, no nesting.  Unknown keys are rejected, every value is parsed
and validated against the range of the model object it feeds, and a config
resolved with defaults can be echoed back out and re-parsed bitwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved flat configuration and the objects built from it."""

    values: dict
    spec: ExperimentSpec

    @property
    def out_dir(self) -> str:
        return self.values["out.dir"]


# fields whose config key is not the object's prefix plus the field name
_RENAMES = {
    Grid1D: {"x_left": "domain.left", "x_right": "domain.right", "n_cells": "grid.n"},
    ExperimentSpec: {"t_end": "time.t_end", "sample_every": "time.sample_every",
                     "gamma": "diag.gamma"},
}


def _fault(exc, keys, chosen) -> ConfigError:
    """The ConfigError for a ValueError whose message starts with the field it
    rejects; keys maps field names to config keys.  If that field's key was
    not set (chosen) but another field the message names was, as for two
    conflicting step sizes, that one is named instead."""
    message = str(exc)
    named = [keys[word] for word in re.findall(r"\w+", message) if word in keys]
    return ConfigError(next((k for k in named if k in chosen), named[0]), message)


def _build(cls, prefix, values, chosen, **given):
    """cls with each field not in given read from its config key; chosen
    holds the keys the config set."""
    renames = _RENAMES.get(cls, {})
    keys = {f.name: renames.get(f.name, prefix + f.name)
            for f in fields(cls) if f.name not in given}
    try:
        return cls(**given, **{name: values[key] for name, key in keys.items()})
    except ValueError as exc:
        raise _fault(exc, keys, chosen) from None


def _enum(cls, key, values):
    try:
        return cls(values[key])
    except ValueError:
        choices = " or ".join(m.value for m in cls)
        raise ConfigError(key, f"must be {choices}, got {values[key]!r}") from None


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
    values = dict(DEFAULTS)
    chosen = set()  # the keys set by text or overrides
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
        chosen.add(key)
    for key, val in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(key, "unknown key")
        values[key] = val
        chosen.add(key)
    stepper = _build(StepperConfig, "stepper.", values, chosen,
                     scheme=_enum(Scheme, "stepper.scheme", values))
    # a sample interval below dt_min would cut every step to a sliver; checked
    # before ExperimentSpec, whose time-tolerance test a tiny interval fails
    # too, and here, where the error can name whichever of the two keys was set
    sample_every = values["time.sample_every"]
    if not sample_every >= stepper.dt_min:
        exc = ValueError(f"dt_min must not exceed sample_every = {sample_every:g}")
        raise _fault(exc, {"dt_min": "stepper.dt_min", "sample_every": "time.sample_every"},
                     chosen)
    spec = _build(ExperimentSpec, "", values, chosen, stepper=stepper,
                  kp=_build(KineticParams, "model.", values, chosen),
                  rp=_build(RegParams, "reg.", values, chosen),
                  kind=_enum(ModelKind, "model.kind", values),
                  grid=_build(Grid1D, "", values, chosen),
                  ic=_build(InitialCondition, "ic.", values, chosen))
    try:
        spec.ic.build(spec.grid)
    except ValueError as exc:
        ic_keys = {f.name: "ic." + f.name for f in fields(InitialCondition)}
        raise _fault(exc, ic_keys, chosen) from None
    return RunConfig(values, spec)


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_config_text(fh.read(), overrides)


def _parse_value(key: str, raw: str):
    kind = type(DEFAULTS[key])  # str, int or float
    if kind is str:
        return raw
    try:
        value = kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(key, f"expected {expected}, got {raw!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {raw!r}")
    return value
