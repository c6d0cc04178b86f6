"""Run configuration: defaults, flat key=value files, validation, echo."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .bounds import default_l
from .errors import ParameterError
from .model import derive_params

__all__ = ["RunConfig", "load_config_file", "resolve_config"]


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved run parameters; the base configuration is the default."""

    alpha: float = 0.25
    k: float = 0.5
    c: float = 1.25
    l: float | None = 0.3
    L: float = 40.0
    n: int = 3999
    sigma1: float = 0.05
    sigma2: float = 0.5
    tol: float = 1e-10
    max_iter: int = 20000
    dt: float = 0.01
    t_end: float = 50.0
    output_dir: str = "out"

    def echo(self) -> dict:
        """All resolved values, including a numeric l."""
        d = asdict(self)
        if d["l"] is None:
            d["l"] = default_l(derive_params(self.alpha, self.k))
        return d


def _coerce(name: str, text: str):
    text = text.strip()
    if name == "output_dir":
        return text
    if name in ("n", "max_iter"):
        return int(text)
    if name == "l" and text.lower() == "none":
        return None
    return float(text)


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values = {}
    known = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, val)
    return values


def resolve_config(file_path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides; validated."""
    cfg = RunConfig()
    if file_path is not None:
        cfg = replace(cfg, **load_config_file(file_path))
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    derive_params(cfg.alpha, cfg.k)   # raises on an inadmissible (alpha, k)
    if cfg.l is not None:
        lmax = 1.0 - cfg.k + cfg.k * cfg.alpha
        if not (0.0 < cfg.l < lmax):
            raise ParameterError(f"l={cfg.l} outside (0, {lmax})")
    if cfg.L <= 0 or cfg.n < 3:
        raise ParameterError("grid requires L > 0 and n >= 3")
    if cfg.tol <= 0:
        raise ParameterError("tol must be positive")
    if cfg.max_iter < 1:
        raise ParameterError("max_iter must be at least 1")
    if not (0.0 < cfg.dt <= 0.1):
        raise ParameterError("dt must lie in (0, 0.1]")
    if cfg.t_end <= 0:
        raise ParameterError("t_end must be positive")
    if cfg.sigma1 < 0 or cfg.sigma2 < 0:
        raise ParameterError("weight exponents must be nonnegative")
