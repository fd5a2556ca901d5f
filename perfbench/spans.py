"""In-memory call spans around the library's public functions.

`Tracer.install` replaces each traced function, in every `specialforms`
module namespace that holds it, by a wrapper that records one span per call:
name, start, end, parent span and job.  Callers look these functions up by
module attribute at call time (`cli` calls `dem.classify_small`, `forms`
calls its own `canonicalize`, `democratic` calls its imported
`is_democratic`), so replacing the attribute is enough to see every call.
The wrappers record only while `active` is set, so output checks that call
the library between jobs leave no spans.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field


def _output_bytes(result, args, kwargs) -> dict:
    argv = list(args[0]) if args else []
    if "-o" not in argv:
        return {}
    path = argv[argv.index("-o") + 1]
    return {"cli.output_bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _comass_counts(result, args, kwargs) -> dict:
    # restart_values lists the support-plane starts first, then the random ones
    random_values = result.restart_values[args[0].weight:]
    converged = sum(1 for v in random_values if abs(v - result.max_value) <= 1e-9)
    return {
        "calibration.comass.restarts": len(result.restart_values),
        "calibration.random_restarts": len(random_values),
        "calibration.converged": converged,
    }


# span name -> counters derived from the call's arguments and result
TRACED = {
    "cli.main": _output_bytes,
    "forms.canonicalize": None,
    "forms.orbit_equivalent": None,
    "realization.solve": lambda res, a, kw: {"realization.solve.solutions": len(res)},
    "realization.realize": None,
    "realization.forms_of": lambda res, a, kw: {"realization.forms_of.classes": len(res)},
    "democratic.classify_small": lambda res, a, kw: {
        "democratic.candidates": res.candidate_count,
        "democratic.democratic": len(res.entries),
    },
    "graphs.is_democratic": None,
    "graphs.find_relabeling": lambda res, a, kw: {
        "graphs.find_relabeling.hits": int(res is not None)
    },
    "graphs.symmetries": None,
    "calibration.comass": _comass_counts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same pass, or -1
    job: str


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    active: bool = False
    job: str = ""
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def _wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.job)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                for key, value in measure(result, args, kwargs).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "specialforms"]
        for name, measure in TRACED.items():
            module, attr = name.split(".")
            original = getattr(sys.modules[f"specialforms.{module}"], attr)
            wrapper = self._wrap(name, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def take(self) -> tuple[list, dict]:
        """Spans and counters recorded since the last call, then reset."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], {}
        return spans, counters


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child_time[i]
    return out
