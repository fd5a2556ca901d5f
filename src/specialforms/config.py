"""Run configuration: the size caps of the two searches that a deployment tunes.

Caps come from (lowest to highest precedence) the built-in defaults, a
key=value file named by the SPECIALFORMS_CONFIG environment variable, and a
file passed explicitly.  Every per-run value is a command line flag instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import DomainError, as_ints
from .forms import DEFAULT_CANON_DIMENSION_CAP
from .realization import DEFAULT_SOLVER_VERTEX_CAP

ENV_VAR = "SPECIALFORMS_CONFIG"


@dataclass
class RunConfig:
    canon_d_cap: int = DEFAULT_CANON_DIMENSION_CAP
    solver_r_cap: int = DEFAULT_SOLVER_VERTEX_CAP

    def validate(self) -> None:
        for f in fields(self):
            as_ints((getattr(self, f.name),), f.name, low=1)


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
    keys = {f.name for f in fields(RunConfig)}
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
            if key not in keys:
                raise DomainError(f"{path}:{lineno}: unknown setting {key!r}")
            try:
                setattr(cfg, key, int(value))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
