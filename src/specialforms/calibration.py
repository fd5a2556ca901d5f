"""Numerical comass estimation for sign-valued forms.

`evaluate` pairs a form with an orthonormal p-frame as a signed sum of
p x p minors.  `comass` maximises that pairing over the Stiefel manifold by
Riemannian gradient ascent, from one start per support plane and then
`restarts` random frames drawn from `numpy.random.default_rng(seed)`.
Each start keeps its own step: a trial begins at min(2 * last step, 1) and
halves until the retracted point passes the Armijo test
f(R(x + a xi)) >= f(x) + ARMIJO * a * |xi|^2 (Absil, Mahony and Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008, section 4.2) and
raises the value strictly, since near a maximum the Armijo margin falls
below rounding; R is their QR retraction (section 4.1.1), by Gram-Schmidt.
A start stops, flagged converged, once |xi| < GRAD_TOL; it also stops when
no step down to MIN_STEP passes, or after MAX_ITER steps.  The minors
are Plücker coordinates, taken level by level by Laplace expansion over a
plan of row subsets built once per call; the gradient is its adjoint.  The
starts run in blocks whose plan working set, 4 floats per subset row of
every level, holds at most BLOCK_FLOATS floats.  Every sum adds in an order
fixed by the plan, so a start's result does not depend on its block.  More
than MAX_RESTARTS restarts, and forms or coordinate frames of more than
forms.DEFAULT_CANON_DIMENSION_CAP dimensions, are refused before any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, PreconditionError, as_ints, as_reals, check_cap, malformed
from .forms import DEFAULT_CANON_DIMENSION_CAP, SpecialForm

if TYPE_CHECKING:  # numpy is imported by the functions that use it
    import numpy as np

ORTHONORMALITY_ATOL = 1e-10

DEFAULT_RESTARTS = 200
DEFAULT_TOL = 1e-6

MAX_ITER = 500
ARMIJO = 0.5
GRAD_TOL = 1e-7
MIN_STEP = 1e-10
# 630 starts of the full 5-form on 10 indices, whose plan has 2,560 subset
# rows: 630 * 4 * 2,560.
BLOCK_FLOATS = 6_451_200
MAX_RESTARTS = 100_000
TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Frame:
    """p orthonormal vectors in R^d, stored as the rows of a (p, d) array.

    The entries are read by `as_reals`, a list of rows element by element."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        v = self.vectors
        with malformed("frame"):
            if isinstance(v, np.ndarray):
                v = as_reals(v, "frame entries")
            else:
                v = np.array([as_reals(row, "frame entries") for row in v])
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
        """The coordinate plane spanned by the given axes, in order.

        Dimensions above forms.DEFAULT_CANON_DIMENSION_CAP are refused, as
        in `comass`, before numpy is called."""
        (d,) = as_ints((d,), "dimension", low=1)
        check_cap(d, DEFAULT_CANON_DIMENSION_CAP, "frame dimension")
        import numpy as np
        idx = as_ints(indices, "axes", 1, d)
        return cls(np.eye(d)[[i - 1 for i in idx]])


def _terms(form: SpecialForm) -> tuple[tuple, np.ndarray]:
    """The Laplace plan of the form's terms, and their (w,) sign vector.

    Level k = 1..p holds (m, k) zero-based sorted row subsets, the terms at
    level p and each subset of level k less one row at level k-1 (level 0
    is the empty set); the positions at level k-1 of each subset less its
    j-th row; and the Laplace signs (-1)^(j+k-1)."""
    import numpy as np
    subsets = [tuple(i - 1 for i in s.indices) for s, _ in form.terms]
    levels = []
    for k in range(form.p, 0, -1):
        below: dict = {}
        children = [[below.setdefault(s[:j] + s[j + 1:], len(below))
                     for j in range(k)] for s in subsets]
        sgn = (-1.0) ** (np.arange(k) + k - 1)
        levels.append((np.array(subsets), np.array(children), sgn[:, None, None]))
        subsets = list(below)
    return tuple(levels[::-1]), np.array([g for _, g in form.terms], dtype=float)


def _sum0(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis by halving, in an order fixed by its length;
    `np.sum`'s order depends on the whole stack, so on a start's block."""
    while len(a) > 1:
        h, odd = divmod(len(a), 2)
        b = a[:h] + a[h:2 * h]
        if odd:
            b[0] += a[-1]
        a = b
    return a[0]


def _scatter(values: np.ndarray, targets: np.ndarray, size: int) -> np.ndarray:
    """(size, n) sums of the (..., n) values at their targets, in order."""
    import numpy as np
    n = values.shape[-1]
    index = targets[..., None] * n + np.arange(n)
    return np.bincount(index.ravel(), values.ravel(), size * n).reshape(size, n)


def _plucker(t: np.ndarray, levels: tuple) -> tuple[np.ndarray, list]:
    """Plücker coordinates det x[S, :p] of the terms for a (p, d, n) stack
    t = x.T of frames, and every level's Laplace factors: level k expands
    along column k-1, P_k[S] = sum_j x[S_j, k-1] (-1)^(j+k-1) P_{k-1}[S - S_j]."""
    import numpy as np
    plucker, factors = np.ones((1, t.shape[2])), []  # P_0 of the empty set is 1
    for (rows, children, sgn), column in zip(levels, t):
        xs, ps = column[rows.T], plucker[children.T] * sgn
        plucker = _sum0(xs * ps)
        factors.append((xs, ps))
    return plucker, factors


def _values(x: np.ndarray, levels: tuple, signs: np.ndarray) -> np.ndarray:
    """The form's value on each frame of an (n, d, p) stack."""
    return _sum0(signs[:, None] * _plucker(x.T, levels)[0])


def evaluate(form: SpecialForm, frame: Frame) -> float:
    """Pairing of the form with the oriented plane spanned by the frame."""
    if frame.d != form.d:
        raise DomainError(f"frame lives in R^{frame.d}, form in R^{form.d}")
    if frame.p != form.p:
        raise DomainError(f"frame has {frame.p} vectors, form degree is {form.p}")
    if form.weight == 0:
        return 0.0
    return float(_values(frame.vectors.T[None], *_terms(form))[0])


def _gradient(t: np.ndarray, levels: tuple, signs: np.ndarray) -> np.ndarray:
    """Euclidean gradient at a (p, d, n) stack t = x.T of frames, in that
    layout, by the adjoint of `_plucker`: from dF/dP_p = signs down, level k
    scatters dF/dP_k times each cofactor factor onto column k-1, and times
    each signed entry of x onto dF/dP_{k-1}."""
    import numpy as np
    p, d, _ = t.shape
    factors, grad, bar = _plucker(t, levels)[1], np.empty_like(t), signs[:, None]
    for k in range(p, 0, -1):
        (rows, children, sgn), (xs, ps) = levels[k - 1], factors[k - 1]
        grad[k - 1] = _scatter(bar * ps, rows.T, d)
        if k > 1:
            bar = _scatter(bar * xs * sgn, children.T, len(levels[k - 2][0]))
    return grad


def _retract(t: np.ndarray) -> np.ndarray:
    """The Q factors, R's diagonal positive, of a (p, d, n) stack t = a.T,
    in the same layout: Gram-Schmidt with a second pass, which restores
    orthogonality that one pass loses on ill-conditioned columns."""
    import numpy as np
    q = t.copy()
    for c in range(len(q)):
        v = q[c]
        for _ in range(2 if c else 0):
            coef = _sum0(np.swapaxes(q[:c], 0, 1) * v[:, None])
            v = v - _sum0(coef[:, None] * q[:c])
        q[c] = v / np.sqrt(_sum0(v * v))
    return q


def _ascend(t, levels, signs):
    """Armijo gradient ascent, in place, of every start in a (p, d, n)
    block t = x.T; returns the frames, values, step counts and flags."""
    import numpy as np
    val, n = _values(t.T, levels, signs), t.shape[2]
    step, iterations, converged = np.ones(n), np.zeros(n, int), np.zeros(n, bool)
    active = np.arange(n)
    while active.size:
        ta = t[..., active]
        g = _gradient(ta, levels, signs)
        xtg = _sum0(np.swapaxes(ta, 0, 1)[:, :, None] * np.swapaxes(g, 0, 1)[:, None])
        sym = (xtg + np.swapaxes(xtg, 0, 1)) / 2.0
        xi = g - _sum0(ta[:, None] * sym[:, :, None])
        sq = _sum0((xi * xi).reshape(-1, active.size))
        done = sq < GRAD_TOL**2
        converged[active[done]] = True
        trial = np.minimum(2.0 * step[active], 1.0)
        moved = np.zeros(active.size, dtype=bool)
        pending = np.flatnonzero(~done)
        while pending.size:
            a = trial[pending]
            y = _retract(ta[..., pending] + a * xi[..., pending])
            fy = _values(y.T, levels, signs)
            v = val[active[pending]]
            ok = (fy > v) & (fy >= v + ARMIJO * a * sq[pending])
            k = active[pending[ok]]
            t[..., k], val[k], step[k] = y[..., ok], fy[ok], a[ok]
            iterations[k] += 1
            moved[pending[ok]] = True
            pending = pending[~ok]
            trial[pending] /= 2.0
            pending = pending[trial[pending] >= MIN_STEP]
        active = active[moved]
        active = active[iterations[active] < MAX_ITER]
    return t, val, iterations, converged


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
        with malformed("comass report"):
            return cls(
                max_value=as_reals((data["max_value"],), "max_value")[0],
                calibrated=_as_bool(data["calibrated"]),
                achieved_on_coordinate_plane=_as_bool(
                    data["achieved_on_coordinate_plane"]
                ),
                n_restarts=as_ints((data["n_restarts"],), "n_restarts")[0],
                restart_values=as_reals(data["restart_values"], "restart_values"),
                iterations=as_ints(data["iterations"], "iterations"),
                converged=tuple(map(_as_bool, data["converged"])),
                frame=Frame(data["frame"]),
            )


def comass(
    form: SpecialForm,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = 0,
) -> ComassReport:
    """Best evaluation over orthonormal frames found by gradient ascent.

    Deterministic for a fixed seed.  Among the starts within TIE_TOL of the
    maximum, the lexicographically smallest rounded frame is reported."""
    check_cap(form.d, DEFAULT_CANON_DIMENSION_CAP, "comass dimension")
    import numpy as np
    (restarts,) = as_ints((restarts,), "restart count", low=0)
    check_cap(restarts, MAX_RESTARTS, "restart count")
    (seed,) = as_ints((seed,), "seed", low=0)
    (tol,) = as_reals((tol,), "tolerance")
    if not 0.0 < tol <= 1e-2:
        raise DomainError(f"tolerance must lie in (0, 1e-2], got {tol}")
    d, p, w = form.d, form.p, form.weight
    if w == 0:
        frame = Frame.coordinate(d, range(1, p + 1))
        return ComassReport(0.0, False, False, restarts, (), (), (), frame)
    levels, signs = _terms(form)
    support = np.eye(d)[levels[-1][0].T].swapaxes(1, 2)  # (p, d, w), frames last
    support[0] *= signs
    rng = np.random.default_rng(seed)
    runs, near_v, near_x = [], np.empty(0), np.empty((0, d, p))
    block = max(1, BLOCK_FLOATS // (4 * sum(rows.size for rows, _, _ in levels)))
    for lo in range(0, w + restarts, block):
        hi = min(lo + block, w + restarts)
        fresh = rng.standard_normal((max(0, hi - max(lo, w)), d, p))
        t = np.concatenate([support[..., lo:hi], _retract(fresh.T)], axis=2)
        t, val, its, conv = _ascend(t, levels, signs)
        runs.append((val, its, conv))
        near_v = np.concatenate([near_v, val])
        near_x = np.concatenate([near_x, t.T])
        keep = near_v >= near_v.max() - TIE_TOL
        near_v, near_x = near_v[keep], near_x[keep]
    values, iterations, converged = (tuple(np.concatenate(z).tolist()) for z in zip(*runs))
    best = float(near_v.max())
    return ComassReport(
        max_value=best, calibrated=abs(best - 1.0) <= tol,
        # each support plane evaluates to exactly +-1
        achieved_on_coordinate_plane=best <= 1.0 + tol, n_restarts=restarts,
        restart_values=values, iterations=iterations, converged=converged,
        frame=Frame(near_x[_lex_smallest(np.swapaxes(near_x, 1, 2))].T),
    )
