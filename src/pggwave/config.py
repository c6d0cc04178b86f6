"""Run configuration: the settings are ``RunConfig``'s fields, typed by their
annotations; flat key=value files; validation by each setting's owner when
a configuration is built; the model, grid and weights the settings make;
echo."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import dynamics, grid, kpp, spectrum
from .bounds import default_l
from .errors import ParameterError
from .model import ModelParams, derive_params

__all__ = ["RunConfig", "load_config_file", "resolve_config"]


@dataclass(frozen=True)
class RunConfig:
    """Run parameters, the base configuration by default; l = None is
    ``bounds.default_l``, the one rule for the default l (0.3 at the base
    configuration).

    A configuration is valid once built: construction, and so
    ``dataclasses.replace``, builds what every run builds from the settings,
    and each constructor raises a ParameterError or GridError on a value
    outside its range.  ``params``, ``grid`` and ``weights`` are the one
    place the settings become those objects."""

    alpha: float = 0.25
    k: float = 0.5
    c: float = 1.25
    l: float | None = None
    L: float = 40.0
    n: int = 3999
    sigma1: float = 0.05
    sigma2: float = 0.5
    tol: float = 1e-10
    dt: float = 0.01
    t_end: float = 50.0
    output_dir: str = "out"

    def __post_init__(self):
        # the owners check in this order: alpha and k, l, L and n, the
        # weights, dt and t_end, tol; so the first bad setting is named
        p = self.params
        if self.l is not None:
            kpp.lower_nonlinearity(p, self.l)
        _ = self.grid, self.weights
        dynamics.SimConfig(dt=self.dt, t_end=self.t_end)
        # no constructor takes tol before a solve
        if not 0.0 < self.tol < math.inf:
            raise ParameterError("tol must be positive and finite")

    @property
    def params(self) -> ModelParams:
        return derive_params(self.alpha, self.k)

    @property
    def grid(self) -> grid.Grid:
        return grid.make_grid(self.L, self.n)

    @property
    def weights(self) -> spectrum.WeightPair:
        return spectrum.WeightPair(self.sigma1, self.sigma2)

    def echo(self) -> dict:
        """All resolved values, including a numeric l."""
        d = asdict(self)
        if d["l"] is None:
            d["l"] = default_l(self.params)
        return d


_TYPES = {f.name: f.type for f in fields(RunConfig)}   # e.g. "float | None"


def _coerce(name: str, text: str):
    """The value of setting ``name`` written as ``text``, typed by its field;
    "none" is None for an optional field."""
    text = text.strip()
    typ, _, optional = _TYPES[name].partition(" | ")
    if optional == "None" and text.lower() == "none":
        return None
    try:
        return {"float": float, "int": int, "str": str}[typ](text)
    except ValueError:
        raise ParameterError(f"{name} = {text!r} is not {typ}") from None


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment.  A key set
    twice in one file is refused, not overwritten."""
    values, lines = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _TYPES:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ParameterError(f"{path}:{lineno}: {key!r} is already set "
                                 f"on line {lines[key]}")
        values[key], lines[key] = _coerce(key, val), lineno
    return values


def resolve_config(file_path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides, built (and
    so validated) once: a file value an override replaces is never
    checked."""
    values = {} if file_path is None else load_config_file(file_path)
    return RunConfig(**{**values, **(overrides or {})})
