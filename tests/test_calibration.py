from __future__ import annotations

import itertools
import math
import random
import time

import numpy as np
import pytest

from helpers import cayley_form, exact_comass, random_form
from specialforms import (
    CapacityError,
    ComassReport,
    DomainError,
    Frame,
    PreconditionError,
    SpecialForm,
    comass,
    evaluate,
)
from specialforms import calibration
from specialforms.calibration import MAX_RESTARTS, _lex_smallest


def form(d, p, *terms):
    return SpecialForm.from_terms(d, p, terms)


def test_frame_validation():
    Frame(np.eye(3)[:2])
    with pytest.raises(PreconditionError):
        Frame(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        Frame(np.ones((3, 2)))  # p > d
    with pytest.raises(DomainError):
        Frame(np.ones(3))
    with pytest.raises(DomainError):
        Frame.coordinate(3, (1, 4))
    f = Frame.coordinate(4, (2, 3))
    assert f.p == 2 and f.d == 4
    with pytest.raises(DomainError):
        Frame.coordinate(3, [1.7, 2.2])  # would silently use axes 1 and 2
    with pytest.raises(DomainError):
        Frame.coordinate(4.0, (2, 3))
    with pytest.raises(DomainError):
        Frame.coordinate(-1, ())  # numpy's eye raised a bare ValueError
    g = Frame.coordinate(np.int64(4), np.array([2, 3]))
    assert np.array_equal(g.vectors, f.vectors)
    with pytest.raises(ValueError):
        f.vectors[0, 0] = 5.0  # frames are read-only


def test_evaluate_on_coordinate_planes():
    f = form(4, 2, ((1, 2), 1), ((3, 4), -1))
    assert evaluate(f, Frame.coordinate(4, (1, 2))) == pytest.approx(1.0)
    assert evaluate(f, Frame.coordinate(4, (2, 1))) == pytest.approx(-1.0)
    assert evaluate(f, Frame.coordinate(4, (3, 4))) == pytest.approx(-1.0)
    assert evaluate(f, Frame.coordinate(4, (1, 3))) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        evaluate(f, Frame.coordinate(3, (1, 2)))
    with pytest.raises(DomainError):
        evaluate(f, Frame.coordinate(4, (1, 2, 3)))
    assert evaluate(SpecialForm(4, 2, ()), Frame.coordinate(4, (1, 2))) == 0.0


def _leibniz(f, x):
    """Value and Euclidean gradient of the form at the (d, p) frame x, by
    the permutation expansion of every minor, differentiated term by term."""
    value, grad = 0.0, np.zeros(x.shape)
    for s, g in f.terms:
        for perm in itertools.permutations(range(f.p)):
            sign = g
            for i in range(len(perm)):  # parity by counting inversions
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            factors = [x[s.indices[b] - 1, a] for a, b in enumerate(perm)]
            value += sign * math.prod(factors)
            for a, b in enumerate(perm):
                grad[s.indices[b] - 1, a] += sign * math.prod(factors[:a] + factors[a + 1:])
    return value, grad


def _evaluate_by_minor_expansion(f, frame):
    return _leibniz(f, frame.vectors.T)[0]


def _random_frame(rng, d, p):
    gauss = np.array([[rng.gauss(0, 1) for _ in range(p)] for _ in range(d)])
    q, r = np.linalg.qr(gauss)
    return Frame(q.T)


def test_evaluate_matches_permutation_expansion():
    rng = random.Random(61)
    for _ in range(60):
        f = random_form(rng, d_max=5, w_max=4)
        frame = _random_frame(rng, f.d, f.p)
        assert evaluate(f, frame) == pytest.approx(
            _evaluate_by_minor_expansion(f, frame), abs=1e-10
        )


def test_evaluate_is_bounded_by_weight():
    rng = random.Random(67)
    for _ in range(100):
        f = random_form(rng, d_max=6, w_max=5)
        frame = _random_frame(rng, f.d, f.p)
        assert abs(evaluate(f, frame)) <= f.weight + 1e-9


def test_evaluate_under_frame_moves():
    f = form(4, 2, ((1, 2), 1), ((3, 4), 1))
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    base = Frame.coordinate(4, (1, 2)).vectors
    rotated = Frame(np.array([[c, s, 0, 0], [-s, c, 0, 0]], dtype=float))
    assert evaluate(f, rotated) == pytest.approx(evaluate(f, Frame(base)))
    swapped = Frame(base[::-1].copy())
    assert evaluate(f, swapped) == pytest.approx(-evaluate(f, Frame(base)))


def test_evaluate_is_the_sign_on_each_support_plane():
    f = form(4, 2, ((1, 2), 1), ((3, 4), -1))
    assert [(s.indices, g) for s, g in f.terms] == [((1, 2), 1), ((3, 4), -1)]
    for s, g in f.terms:
        assert evaluate(f, Frame.coordinate(4, s.indices)) == pytest.approx(g)


def test_comass_of_single_term():
    rep = comass(form(3, 2, ((1, 3), -1)), restarts=10)
    assert rep.max_value == pytest.approx(1.0, abs=1e-6)
    assert rep.calibrated and rep.achieved_on_coordinate_plane
    assert len(rep.restart_values) == 11
    assert evaluate(form(3, 2, ((1, 3), -1)), rep.frame) == pytest.approx(
        rep.max_value
    )


def test_comass_sum_of_disjoint_planes():
    rep = comass(form(4, 2, ((1, 2), 1), ((3, 4), 1)), restarts=40)
    assert rep.max_value == pytest.approx(1.0, abs=1e-6)
    assert rep.calibrated


def test_comass_overlapping_planes_reaches_sqrt_two():
    rep = comass(form(3, 2, ((1, 2), 1), ((1, 3), 1)), restarts=40)
    assert rep.max_value == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert not rep.calibrated
    assert not rep.achieved_on_coordinate_plane


def test_comass_empty_form():
    rep = comass(SpecialForm(4, 2, ()), restarts=5)
    assert rep.max_value == 0.0
    assert not rep.calibrated
    assert rep.restart_values == ()


def test_comass_validation():
    f = form(3, 2, ((1, 2), 1))
    with pytest.raises(DomainError):
        comass(f, restarts=-1)
    with pytest.raises(DomainError):
        comass(f, tol=0.0)
    with pytest.raises(DomainError):
        comass(f, tol=0.5)
    for seed in (-1, 1.5, True, "3", None):
        with pytest.raises(DomainError, match="seed"):
            comass(f, seed=seed)


@pytest.mark.parametrize("tol", ["1e-3", True, None, 1e-3j, [1e-3]])
def test_comass_refuses_a_tolerance_that_is_not_a_real_number(tol):
    with pytest.raises(DomainError, match="tolerance"):
        comass(form(3, 2, ((1, 2), 1)), 2, tol)


def test_comass_accepts_numpy_reals_and_refuses_bool_restarts():
    f = form(3, 2, ((1, 2), 1))
    assert comass(f, np.int64(2), np.float32(1e-3)).n_restarts == 2
    with pytest.raises(DomainError):
        comass(f, True)


def test_comass_deterministic_for_fixed_seed():
    f = form(3, 2, ((1, 2), 1), ((1, 3), 1))
    a = comass(f, restarts=15, seed=3)
    b = comass(f, restarts=15, seed=3)
    assert a.to_dict() == b.to_dict()


def test_comass_invariant_under_axis_moves():
    from specialforms import SignedPermutation, apply

    rng = random.Random(71)
    f = form(4, 2, ((1, 2), 1), ((1, 3), 1), ((2, 4), -1))
    a = comass(f, restarts=30)
    g = apply(SignedPermutation.random(4, rng), f)
    b = comass(g, restarts=30)
    assert a.max_value == pytest.approx(b.max_value, abs=1e-5)


def test_comass_of_cayley_form_quick():
    rep = comass(cayley_form(), restarts=25)
    assert rep.max_value == pytest.approx(1.0, abs=1e-6)
    assert rep.calibrated and rep.achieved_on_coordinate_plane


def test_report_round_trip():
    rep = comass(form(3, 2, ((1, 2), 1)), restarts=3)
    back = ComassReport.from_dict(rep.to_dict())
    assert back.max_value == rep.max_value
    assert back.calibrated == rep.calibrated
    assert back.n_restarts == rep.n_restarts
    assert back.restart_values == rep.restart_values
    assert back.iterations == rep.iterations
    assert back.converged == rep.converged
    assert len(rep.iterations) == len(rep.converged) == len(rep.restart_values)
    assert np.allclose(back.frame.vectors, rep.frame.vectors)
    data = rep.to_dict()
    del data["converged"]
    with pytest.raises(DomainError):
        ComassReport.from_dict(data)


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_restarts", 2.9),
        ("iterations", [1.5]),
        ("calibrated", "false"),
        ("achieved_on_coordinate_plane", 1),
        ("converged", ["true"]),
    ],
)
def test_report_rejects_truncated_or_coerced_fields(key, value):
    data = comass(form(3, 2, ((1, 2), 1)), restarts=0).to_dict()
    data["n_restarts"] = np.int64(2)  # numpy integers still pass
    assert ComassReport.from_dict(data).n_restarts == 2
    data[key] = value
    with pytest.raises(DomainError):
        ComassReport.from_dict(data)


def test_tie_break_compares_rounded_frames_as_numbers():
    def smallest(*rows):
        return _lex_smallest(np.array(rows, dtype=float).reshape(len(rows), 1, -1))

    assert smallest([2.0, 0.0], [0.5, 0.0]) == 1  # by IEEE bytes 2.0 sorts first
    assert smallest([0.0, 1.0], [-1.0, 1.0]) == 1
    assert smallest([1.0, 2.0], [1.0, 0.5]) == 1  # later entries decide ties
    assert smallest([-0.0, 1.0], [0.0, 1.0]) == 0
    assert smallest([0.0, 1.0], [-0.0, 1.0]) == 0
    assert smallest([0.3 + 1e-12, 1.0], [0.3, 2.0]) == 0  # rounding comes first


def test_tie_break_ignores_start_order():
    rng = np.random.default_rng(5)
    frames = np.round(rng.standard_normal((40, 2, 3)), 1)
    frames[7] = frames[3]
    first = frames[_lex_smallest(frames)]
    for _ in range(5):
        shuffled = frames[rng.permutation(len(frames))]
        assert np.array_equal(shuffled[_lex_smallest(shuffled)], first)


def test_random_restarts_converge_on_e12_plus_e34():
    f = form(4, 2, ((1, 2), 1), ((3, 4), 1))
    rep = comass(f, restarts=200)
    ok = [
        abs(v - 1.0) <= 1e-9 and conv and its < 500
        for v, its, conv in zip(
            rep.restart_values[f.weight :],
            rep.iterations[f.weight :],
            rep.converged[f.weight :],
        )
    ]
    assert sum(ok) >= 0.95 * 200


def test_restarts_do_not_depend_on_their_batch(monkeypatch):
    f = form(4, 2, ((1, 2), 1), ((1, 3), 1), ((2, 4), -1))
    k = 10
    block = 16  # starts per block: 4 * (3 * 2 + 4) floats each, the plan
    # holding three 2-subsets and four rows
    monkeypatch.setattr(calibration, "BLOCK_FLOATS", 40 * block)
    short = comass(f, restarts=k, seed=8)
    long = comass(f, restarts=block + k, seed=8)  # two blocks
    n = f.weight + k
    assert np.allclose(short.restart_values, long.restart_values[:n], rtol=0, atol=1e-12)
    assert short.iterations == long.iterations[:n]
    assert short.converged == long.converged[:n]


def test_reported_frame_attains_the_maximum():
    for f in (cayley_form(), form(3, 2, ((1, 2), 1), ((1, 3), 1))):
        rep = comass(f, restarts=30, seed=2)
        v = rep.frame.vectors
        assert np.max(np.abs(v @ v.T - np.eye(f.p))) <= 1e-12
        assert abs(evaluate(f, rep.frame) - rep.max_value) <= 1e-12


def test_comass_edge_shapes():
    line = comass(form(3, 1, ((1,), 1), ((2,), -1), ((3,), 1)), restarts=6)
    assert line.max_value == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert all(line.converged)
    volume = comass(form(3, 3, ((1, 2, 3), -1)), restarts=6)
    assert volume.max_value == pytest.approx(1.0, abs=1e-12)
    assert volume.iterations == (0,) * 7 and all(volume.converged)
    bare = comass(form(4, 2, ((1, 2), 1), ((1, 3), 1)), restarts=0)
    assert len(bare.restart_values) == len(bare.iterations) == 2
    assert bare.max_value == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_values_do_not_depend_on_the_block(monkeypatch):
    # Eight or more terms, and up to 10 rows: numpy's sum(axis=-1) adds
    # pairwise on a lone frame and in order on a stack, which used to change
    # the last bit of a start's value with the starts that shared its block.
    rng = random.Random(5)
    for d, p, w, restarts in ((6, 2, 9, 60), (9, 3, 10, 20), (10, 4, 12, 10)):
        subsets = list(itertools.combinations(range(1, d + 1), p))
        f = form(d, p, *((s, rng.choice((1, -1))) for s in rng.sample(subsets, w)))
        whole = comass(f, restarts=restarts, seed=4).to_dict()
        start = 4 * sum(rows.size for rows, _, _ in calibration._terms(f)[0])
        for block in (1, 7, 64):
            monkeypatch.setattr(calibration, "BLOCK_FLOATS", start * block)
            assert comass(f, restarts=restarts, seed=4).to_dict() == whole
        monkeypatch.undo()
        x = np.stack([rep.vectors.T for rep in (comass(f, restarts=3, seed=s).frame
                                               for s in range(4))])
        stacked = calibration._values(x, *calibration._terms(f))
        for frame, value in zip(x, stacked):
            assert evaluate(f, Frame(frame.T)) == value


def _orthonormality_error(x):
    """Largest entry of |x^T x - I| over an (n, d, p) stack of frames."""
    return float(np.max(np.abs(np.swapaxes(x, 1, 2) @ x - np.eye(x.shape[2]))))


def test_comass_matches_the_exact_oracle():
    rng = random.Random(83)
    for d in range(2, 11):
        for p in sorted({1, 2, d - 1, d}):
            subsets = list(itertools.combinations(range(1, d + 1), p))
            chosen = rng.sample(subsets, rng.randint(1, len(subsets)))
            f = form(d, p, *((s, rng.choice((1, -1))) for s in chosen))
            rep = comass(f, restarts=10, seed=d)
            assert abs(rep.max_value - exact_comass(f)) <= 1e-9, (d, p)
            assert _orthonormality_error(rep.frame.vectors.T[None]) <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_kernel_matches_the_leibniz_expansion(p):
    rng = random.Random(89 + p)
    for d in sorted({p, 9, 10}):
        subsets = list(itertools.combinations(range(1, d + 1), p))
        chosen = rng.sample(subsets, min(len(subsets), rng.randint(1, 8)))
        f = form(d, p, *((s, rng.choice((1, -1))) for s in chosen))
        x = np.stack([_random_frame(rng, d, p).vectors.T for _ in range(3)])
        plan = calibration._terms(f)
        values = calibration._values(x, *plan)
        grads = calibration._gradient(x.T, *plan).T
        for frame, value, grad in zip(x, values, grads):
            exact_value, exact_grad = _leibniz(f, frame)
            assert abs(value - exact_value) <= 1e-12
            assert np.max(np.abs(grad - exact_grad)) <= 1e-12
        rep = comass(f, restarts=4, seed=p)
        assert _orthonormality_error(rep.frame.vectors.T[None]) <= 1e-12


@pytest.mark.parametrize("d, p", [(3, 3), (7, 3), (9, 5), (10, 10)])
def test_retraction_is_qr_with_a_positive_diagonal_on_ill_conditioned_starts(d, p):
    # Gaussian starts with condition numbers 1e4 to 1e10, where one
    # Gram-Schmidt pass leaves columns far from orthogonal
    rng = np.random.default_rng(d * p)
    u, _, vt = np.linalg.svd(rng.standard_normal((40, d, p)), full_matrices=False)
    decades = np.linspace(4.0, 10.0, 40)[:, None] * np.linspace(0.0, 1.0, p)
    a = (u * 10.0 ** -decades[:, None, :]) @ vt
    assert np.linalg.cond(a).min() >= 1e4 * 0.99
    q = calibration._retract(a.T).T
    assert _orthonormality_error(q) <= 1e-12
    r = np.swapaxes(q, 1, 2) @ a
    assert np.max(np.abs(np.tril(r, -1))) <= 1e-12
    assert np.all(np.diagonal(r, axis1=1, axis2=2) > 0)
    assert np.max(np.abs(q @ r - a)) <= 1e-12


def test_restart_count_must_be_an_integer(monkeypatch):
    f = form(3, 2, ((1, 2), 1))
    for bad in (2.5, 2.0, "3", None):
        with pytest.raises(DomainError):
            comass(f, bad)
    rep = comass(f, np.int64(2))
    assert rep.n_restarts == 2 and type(rep.n_restarts) is int
    assert ComassReport.from_dict(rep.to_dict()).n_restarts == 2
    # starts on the Cayley form take 12 steps; no start exceeds MAX_ITER
    monkeypatch.setattr(calibration, "MAX_ITER", 5)
    assert max(comass(cayley_form(), 3).iterations) == 5


def test_restarts_above_the_cap_are_refused_before_any_work():
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        comass(cayley_form(), MAX_RESTARTS + 1)
    with pytest.raises(CapacityError):
        comass(cayley_form(), 10**18)
    assert time.perf_counter() - start < 1.0
