from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from helpers import brute_canonical, random_form
from specialforms import (
    CapacityError,
    DomainError,
    OrientedSubset,
    SignedPermutation,
    SpecialForm,
    apply,
    canonicalize,
    component,
    orbit_equivalent,
    subset_distance,
)


def form(d, p, *terms):
    return SpecialForm.from_terms(d, p, terms)


def test_oriented_subset_validation():
    OrientedSubset((1, 3, 7))
    with pytest.raises(DomainError):
        OrientedSubset((3, 1))
    with pytest.raises(DomainError):
        OrientedSubset((1, 1, 2))
    with pytest.raises(DomainError):
        OrientedSubset((0, 1))
    with pytest.raises(DomainError):
        OrientedSubset(())


def test_subset_distance():
    assert subset_distance((1, 2), (3, 4)) == 2
    assert subset_distance((1, 2), (1, 3)) == 1
    assert subset_distance((1, 2, 3), (1, 2, 3)) == 0
    # symmetric and satisfies the triangle inequality on random triples
    rng = random.Random(7)
    subs = list(itertools.combinations(range(1, 7), 3))
    for _ in range(200):
        a, b, c = (rng.choice(subs) for _ in range(3))
        assert subset_distance(a, b) == subset_distance(b, a)
        assert subset_distance(a, c) <= subset_distance(a, b) + subset_distance(b, c)


def test_form_validation():
    with pytest.raises(DomainError):
        form(4, 2, ((1, 2), 1), ((1, 2), -1))  # duplicate support
    with pytest.raises(DomainError):
        form(4, 2, ((1, 2), 2))
    with pytest.raises(DomainError):
        form(4, 2, ((1, 2, 3), 1))  # degree mismatch
    with pytest.raises(DomainError):
        form(3, 2, ((2, 4), 1))  # index out of range
    with pytest.raises(DomainError):
        SpecialForm(0, 1, ())


def test_terms_are_stored_in_canonical_order():
    f = form(4, 2, ((3, 4), -1), ((1, 2), 1))
    assert [tuple(s) for s, _ in f.terms] == [(1, 2), (3, 4)]
    assert f.weight == 2
    assert tuple(s.indices for s in f.support) == ((1, 2), (3, 4))


def test_component_handles_permuted_and_repeated_indices():
    f = form(4, 2, ((1, 2), 1), ((3, 4), -1))
    assert component(f, (1, 2)) == 1
    assert component(f, (2, 1)) == -1
    assert component(f, (4, 3)) == 1
    assert component(f, (1, 1)) == 0
    assert component(f, (1, 3)) == 0
    with pytest.raises(DomainError):
        component(f, (1, 5))


def test_action_worked_examples():
    f = form(3, 2, ((1, 2), 1))
    swap13 = SignedPermutation((3, 2, 1), (1, 1, 1))
    assert apply(swap13, f) == form(3, 2, ((2, 3), -1))

    g = form(3, 2, ((1, 2), 1), ((1, 3), 1))
    flip1 = SignedPermutation((1, 2, 3), (-1, 1, 1))
    assert apply(flip1, g) == form(3, 2, ((1, 2), -1), ((1, 3), -1))


def test_action_is_a_group_action():
    rng = random.Random(11)
    for _ in range(200):
        f = random_form(rng)
        a = SignedPermutation.random(f.d, rng)
        b = SignedPermutation.random(f.d, rng)
        assert apply(a.compose(b), f) == apply(a, apply(b, f))
        assert apply(a.inverse(), apply(a, f)) == f
        assert apply(SignedPermutation.identity(f.d), f) == f


def test_action_preserves_weight_and_pairwise_distances():
    rng = random.Random(13)
    for _ in range(100):
        f = random_form(rng)
        g = apply(SignedPermutation.random(f.d, rng), f)
        assert g.weight == f.weight
        dists = lambda h: sorted(
            subset_distance(tuple(a), tuple(b))
            for a, b in itertools.combinations(h.support, 2)
        )
        assert dists(g) == dists(f)


def test_canonicalize_single_term_forms():
    for d in range(1, 6):
        for p in range(1, d + 1):
            for s in itertools.combinations(range(1, d + 1), p):
                for sign in (1, -1):
                    out = canonicalize(form(d, p, (s, sign)))
                    assert out == form(d, p, (tuple(range(1, p + 1)), 1))


def test_canonicalize_matches_brute_force():
    rng = random.Random(5)
    for _ in range(150):
        f = random_form(rng, d_max=4)
        assert canonicalize(f) == brute_canonical(f)
    for _ in range(25):
        f = random_form(rng, d_max=5)
        assert canonicalize(f) == brute_canonical(f)


def test_canonicalize_is_constant_on_orbits_and_idempotent():
    rng = random.Random(17)
    for _ in range(100):
        f = random_form(rng)
        c = canonicalize(f)
        assert canonicalize(c) == c
        g = apply(SignedPermutation.random(f.d, rng), f)
        assert canonicalize(g) == c


def test_canonicalize_dimension_cap():
    f = form(11, 2, ((1, 2), 1))
    with pytest.raises(CapacityError):
        canonicalize(f)
    assert canonicalize(f, dimension_cap=11) == form(11, 2, ((1, 2), 1))


def test_orbit_equivalent():
    assert orbit_equivalent(form(4, 2, ((1, 2), 1), ((3, 4), 1)),
                            form(4, 2, ((1, 2), 1), ((3, 4), -1)))
    assert not orbit_equivalent(form(4, 2, ((1, 2), 1), ((3, 4), 1)),
                                form(4, 2, ((1, 2), 1), ((1, 3), 1)))
    with pytest.raises(DomainError):
        orbit_equivalent(form(4, 2, ((1, 2), 1)), form(5, 2, ((1, 2), 1)))


def test_form_rejects_non_integers():
    ok = {"d": 4, "p": 2, "terms": [{"indices": [3, 4], "sign": 1}]}
    assert str(SpecialForm.from_dict(ok)) == "e34"
    for bad in (
        {"d": 4, "p": 2, "terms": [{"indices": [3.9, 4], "sign": 1}]},
        {"d": 4, "p": 2, "terms": [{"indices": [3, 4], "sign": 1.5}]},
        {"d": 4, "p": 2, "terms": [{"indices": [3, 4], "sign": 1.0}]},
        {"d": 4.0, "p": 2, "terms": [{"indices": [3, 4], "sign": 1}]},
    ):
        with pytest.raises(DomainError):
            SpecialForm.from_dict(bad)
    with pytest.raises(DomainError):
        OrientedSubset((3.9, 4))


def test_signed_permutation_rejects_non_integers():
    with pytest.raises(DomainError):
        SignedPermutation((2.9, 1), (1, -1))
    with pytest.raises(DomainError):
        SignedPermutation((2, 1), (1, -1.5))
    with pytest.raises(DomainError):
        SignedPermutation((2, 1), (1.0, -1))
    g = SignedPermutation(np.array([2, 1]), (np.int64(1), np.int32(-1)))
    assert g == SignedPermutation((2, 1), (1, -1))
    assert all(type(v) is int for v in g.sigma + g.eta)


def test_json_round_trip():
    rng = random.Random(23)
    for _ in range(50):
        f = random_form(rng)
        assert SpecialForm.from_dict(f.to_dict()) == f
    g = SignedPermutation((2, 3, 1), (1, -1, 1))
    assert str(form(3, 2, ((1, 2), 1), ((1, 3), -1))) == "e12 - e13"
    assert g.compose(g.inverse()) == SignedPermutation.identity(3)
