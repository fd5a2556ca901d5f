"""Numerical comass estimation for sign-valued forms.

`evaluate` pairs a form with an orthonormal p-frame as a signed sum of
p x p minors.  `comass` maximises that pairing over the Stiefel manifold by
Riemannian gradient ascent, from one start per support plane and then
`restarts` random frames drawn from `numpy.random.default_rng(seed)`.
Each start keeps its own step: a trial begins at min(2 * last step, 1) and
halves until the QR-retracted point passes the Armijo test
f(R(x + a xi)) >= f(x) + ARMIJO * a * |xi|^2 (Absil, Mahony and Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008, section 4.2) and
raises the value strictly, since near a maximum the Armijo margin falls
below rounding.  A start stops, flagged converged, once |xi| < GRAD_TOL; it
also stops when no step down to MIN_STEP passes, or after `max_iter` steps.
The starts run as one (n, d, p) array in blocks sized so that the largest
intermediate, the (p-1) x (p-1) cofactor minors of every term, holds at
most BLOCK_FLOATS floats; all arithmetic stays within a start, so its
result does not depend on its block.  More than MAX_RESTARTS restarts are
refused before any work.  The reported frame is the lexicographically
smallest, entries rounded to 9 decimals and compared as numbers, among the
starts within TIE_TOL of the maximum.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, PreconditionError, as_ints, check_cap
from .forms import SpecialForm

if TYPE_CHECKING:  # numpy is imported by the functions that use it
    import numpy as np

ORTHONORMALITY_ATOL = 1e-10

DEFAULT_RESTARTS = 200
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 500

ARMIJO = 0.5
GRAD_TOL = 1e-7
MIN_STEP = 1e-10
# 64 starts of the full 5-form on 10 indices: 64 * 252 terms * 5^2 * 4^2.
BLOCK_FLOATS = 6_451_200
MAX_RESTARTS = 100_000
TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Frame:
    """p orthonormal vectors in R^d, stored as the rows of a (p, d) array."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2:
            raise DomainError("frame must be a 2-dimensional array")
        p, d = v.shape
        if p < 1 or p > d:
            raise DomainError(f"frame shape {v.shape} is not p x d with p <= d")
        gram = v @ v.T
        if float(np.max(np.abs(gram - np.eye(p)))) > ORTHONORMALITY_ATOL:
            raise PreconditionError("frame rows are not orthonormal")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def p(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def coordinate(cls, d: int, indices) -> "Frame":
        """The coordinate plane spanned by the given axes, in order."""
        import numpy as np
        (d,) = as_ints((d,), "dimension")
        idx = as_ints(indices, "axes")
        if any(not 1 <= i <= d for i in idx):
            raise DomainError(f"axes {idx} outside [1, {d}]")
        rows = np.zeros((len(idx), d))
        for a, i in enumerate(idx):
            rows[a, i - 1] = 1.0
        return cls(rows)


def _terms(form: SpecialForm) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based (w, p) index array and (w,) sign vector of the terms."""
    import numpy as np
    idx = np.array([s.indices for s, _ in form.terms], dtype=int) - 1
    signs = np.array([g for _, g in form.terms], dtype=float)
    return idx, signs


def _values(x: np.ndarray, idx: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The form's value on each frame of an (n, d, p) stack.

    The terms are added one at a time in order.  `sum(axis=-1)` would not
    do: it adds pairwise on a lone frame and in order on a stack."""
    import numpy as np
    minors = np.linalg.det(x[:, idx, :]) * signs
    total = minors[:, 0].copy()
    for column in minors.T[1:]:
        total += column
    return total


def evaluate(form: SpecialForm, frame: Frame) -> float:
    """Pairing of the form with the oriented plane spanned by the frame."""
    if frame.d != form.d:
        raise DomainError(f"frame lives in R^{frame.d}, form in R^{form.d}")
    if frame.p != form.p:
        raise DomainError(f"frame has {frame.p} vectors, form degree is {form.p}")
    if form.weight == 0:
        return 0.0
    return float(_values(frame.vectors.T[None], *_terms(form))[0])


def _gradient(x: np.ndarray, idx: np.ndarray, incidence: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the form at each frame of an (n, d, p) stack.

    The gradient of a minor is its cofactor matrix; `incidence[t, b, i]` is
    the sign of term t where its b-th index is axis i, and zero elsewhere."""
    import numpy as np
    p = x.shape[2]
    others = np.array([np.delete(np.arange(p), i) for i in range(p)])
    mats = x[:, idx, :]
    minors = mats[:, :, others[:, None, :, None], others[None, :, None, :]]
    cof = np.linalg.det(minors) * (-1.0) ** np.add.outer(np.arange(p), np.arange(p))
    return np.einsum("ntba,tbi->nia", cof, incidence)


def _retract(a: np.ndarray) -> np.ndarray:
    import numpy as np
    q, r = np.linalg.qr(a)
    s = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    s[s == 0] = 1.0
    return q * s[..., None, :]


def _ascend(x, idx, signs, incidence, max_iter):
    """Armijo gradient ascent of every start in an (n, d, p) block.

    Returns the final frames, values, step counts and converged flags."""
    import numpy as np
    x = x.copy()
    val = _values(x, idx, signs)
    step = np.ones(len(x))
    iterations = np.zeros(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    active = np.flatnonzero(iterations < max_iter)
    while active.size:
        xa = x[active]
        g = _gradient(xa, idx, incidence)
        xtg = np.swapaxes(xa, 1, 2) @ g
        xi = g - xa @ ((xtg + np.swapaxes(xtg, 1, 2)) / 2.0)
        sq = (xi * xi).sum(axis=(1, 2))
        done = sq < GRAD_TOL**2
        converged[active[done]] = True
        trial = np.minimum(2.0 * step[active], 1.0)
        moved = np.zeros(active.size, dtype=bool)
        pending = np.flatnonzero(~done)
        while pending.size:
            a = trial[pending]
            y = _retract(xa[pending] + a[:, None, None] * xi[pending])
            fy = _values(y, idx, signs)
            v = val[active[pending]]
            ok = (fy > v) & (fy >= v + ARMIJO * a * sq[pending])
            k = active[pending[ok]]
            x[k], val[k], step[k] = y[ok], fy[ok], a[ok]
            iterations[k] += 1
            moved[pending[ok]] = True
            pending = pending[~ok]
            trial[pending] /= 2.0
            pending = pending[trial[pending] >= MIN_STEP]
        active = active[moved]
        active = active[iterations[active] < max_iter]
    return x, val, iterations, converged


def _lex_smallest(frames: np.ndarray) -> int:
    """Index of the lexicographically smallest frame after rounding to 9
    decimals, comparing entries as numbers; exact entries, then the index,
    break remaining ties."""
    import numpy as np
    flat = frames.reshape(len(frames), -1)
    keys = np.concatenate([np.round(flat, 9), flat], axis=1)
    return int(np.lexsort(keys.T[::-1])[0])


def _as_bool(value) -> bool:
    """A report flag, which must be a real boolean: "false" or 1 is refused."""
    if not isinstance(value, bool):
        raise DomainError(f"report flags must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class ComassReport:
    """Outcome of the comass search.

    `restart_values` holds the final value of every start: first one entry
    per support plane, then one per random restart.  `iterations` and
    `converged` follow the same order: the ascent steps each start took, and
    whether it stopped on the gradient tolerance.  `calibrated` means the
    maximum equals 1 within the tolerance; `achieved_on_coordinate_plane`
    means no frame beat the best coordinate plane."""

    max_value: float
    calibrated: bool
    achieved_on_coordinate_plane: bool
    n_restarts: int
    restart_values: tuple[float, ...]
    iterations: tuple[int, ...]
    converged: tuple[bool, ...]
    frame: Frame

    def to_dict(self) -> dict:
        return {
            "max_value": self.max_value,
            "calibrated": self.calibrated,
            "achieved_on_coordinate_plane": self.achieved_on_coordinate_plane,
            "n_restarts": self.n_restarts,
            "restart_values": list(self.restart_values),
            "iterations": list(self.iterations),
            "converged": list(self.converged),
            "frame": [[float(x) for x in row] for row in self.frame.vectors],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ComassReport":
        try:
            return cls(
                max_value=float(data["max_value"]),
                calibrated=_as_bool(data["calibrated"]),
                achieved_on_coordinate_plane=_as_bool(
                    data["achieved_on_coordinate_plane"]
                ),
                n_restarts=as_ints((data["n_restarts"],), "n_restarts")[0],
                restart_values=tuple(float(x) for x in data["restart_values"]),
                iterations=as_ints(data["iterations"], "iterations"),
                converged=tuple(map(_as_bool, data["converged"])),
                frame=Frame(data["frame"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed comass report: {exc}") from exc


def comass(
    form: SpecialForm,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ComassReport:
    """Best evaluation over orthonormal frames found by gradient ascent.

    Deterministic for a fixed seed.  Among the starts within TIE_TOL of the
    maximum, the lexicographically smallest rounded frame is reported.
    """
    import numpy as np
    restarts, max_iter, seed = as_ints(
        (restarts, max_iter, seed), "restarts, max_iter and seed"
    )
    if restarts < 0:
        raise DomainError(f"restart count must be >= 0, got {restarts}")
    check_cap(restarts, MAX_RESTARTS, "restart count")
    if max_iter < 0:
        raise DomainError(f"max_iter must be >= 0, got {max_iter}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise DomainError(f"tolerance must be a real number, got {tol!r}")
    if not 0.0 < tol <= 1e-2:
        raise DomainError(f"tolerance must lie in (0, 1e-2], got {tol}")
    d, p, w = form.d, form.p, form.weight
    if w == 0:
        return ComassReport(
            max_value=0.0,
            calibrated=False,
            achieved_on_coordinate_plane=False,
            n_restarts=restarts,
            restart_values=(),
            iterations=(),
            converged=(),
            frame=Frame.coordinate(d, range(1, p + 1)),
        )
    idx, signs = _terms(form)
    incidence = signs[:, None, None] * (idx[:, :, None] == np.arange(d))
    support = np.zeros((w, d, p))
    support[np.arange(w)[:, None], idx, np.arange(p)] = 1.0
    support[:, :, 0] *= signs[:, None]
    rng = np.random.default_rng(seed)

    values, iterations, converged = [], [], []
    near_v, near_x = np.empty(0), np.empty((0, d, p))
    block = max(1, BLOCK_FLOATS // (w * p * p * max(p - 1, 1) ** 2))
    for lo in range(0, w + restarts, block):
        hi = min(lo + block, w + restarts)
        fresh = rng.standard_normal((max(0, hi - max(lo, w)), d, p))
        x0 = np.concatenate([support[lo:hi], _retract(fresh)])
        x, val, its, conv = _ascend(x0, idx, signs, incidence, max_iter)
        values.extend(val.tolist())
        iterations.extend(its.tolist())
        converged.extend(conv.tolist())
        near_v = np.concatenate([near_v, val])
        near_x = np.concatenate([near_x, x])
        keep = near_v >= near_v.max() - TIE_TOL
        near_v, near_x = near_v[keep], near_x[keep]
    best = float(near_v.max())
    coord_best = 1.0  # each support plane evaluates to exactly +-1
    winner = _lex_smallest(np.swapaxes(near_x, 1, 2))
    return ComassReport(
        max_value=best,
        calibrated=abs(best - 1.0) <= tol,
        achieved_on_coordinate_plane=best <= coord_best + tol,
        n_restarts=restarts,
        restart_values=tuple(values),
        iterations=tuple(iterations),
        converged=tuple(converged),
        frame=Frame(near_x[winner].T),
    )
