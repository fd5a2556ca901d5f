"""Run configuration: seed, size caps, tolerances, output selection.

Settings come from (lowest to highest precedence) the built-in defaults, a
key=value file named by the SPECIALFORMS_CONFIG environment variable, a file
passed explicitly, and command line flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .calibration import DEFAULT_RESTARTS, DEFAULT_TOL
from .errors import DomainError, as_ints
from .forms import DEFAULT_CANON_DIMENSION_CAP
from .realization import DEFAULT_SOLVER_VERTEX_CAP

ENV_VAR = "SPECIALFORMS_CONFIG"

_FORMATS = ("json", "dot")


@dataclass
class RunConfig:
    seed: int = 0
    canon_d_cap: int = DEFAULT_CANON_DIMENSION_CAP
    solver_r_cap: int = DEFAULT_SOLVER_VERTEX_CAP
    comass_tol: float = DEFAULT_TOL
    comass_restarts: int = DEFAULT_RESTARTS
    output: str | None = None
    format: str = "json"

    def validate(self) -> None:
        # comass checks seed, comass_tol and comass_restarts, as it does the flags
        for name in ("canon_d_cap", "solver_r_cap"):
            as_ints((getattr(self, name),), name, low=1)
        if self.format not in _FORMATS:
            raise DomainError(
                f"format must be one of {', '.join(_FORMATS)}, got {self.format!r}"
            )


def load_config(path: str | None = None, environ=None) -> RunConfig:
    """Defaults, overlaid with the file named by ENV_VAR, then with `path`."""
    environ = os.environ if environ is None else environ
    cfg = RunConfig()
    for source in (environ.get(ENV_VAR), path):
        if source:
            _apply_file(cfg, source)
    cfg.validate()
    return cfg


def _apply_file(cfg: RunConfig, path: str) -> None:
    # f.type is the annotation's text, "int" say, as annotations are postponed
    convert = {f.name: {"int": int, "float": float}.get(f.type, str)
               for f in fields(RunConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in convert:
                raise DomainError(f"{path}:{lineno}: unknown setting {key!r}")
            try:
                setattr(cfg, key, convert[key](value))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
