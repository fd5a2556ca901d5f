from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_canonical,
    brute_least_support,
    cayley_form,
    orbit_counts,
    random_form,
)
from specialforms import (
    CapacityError,
    DomainError,
    OrientedSubset,
    SearchStats,
    SignedPermutation,
    SpecialForm,
    apply,
    canonicalize,
    component,
    orbit_equivalent,
    subset_distance,
)
from specialforms.forms import _invariants


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
    with pytest.raises(DomainError):
        OrientedSubset((1, 2)).distance_to(OrientedSubset((1, 2, 3)))


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
    with pytest.raises(DomainError):
        SpecialForm(3, 4, ())  # p > d


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


def test_orbit_counts_reproduce_the_hand_counts():
    assert orbit_counts(4, 2) == [1, 1, 2, 3, 3, 2, 2]
    assert orbit_counts(6, 3)[:4] == [1, 1, 3, 7]
    # p = d: the volume form and its negative are one orbit
    assert orbit_counts(3, 3) == [1, 1]


# Every weight slice of at most SLICE_FORMS forms for d <= 5: at d = 5 the
# slices at w <= 4 and at full weight, up to 3,360 forms.
SLICE_FORMS = 5000
SLICES = [
    (d, p, w)
    for d in range(1, 6)
    for p in range(1, d + 1)
    for w in range(math.comb(d, p) + 1)
    if math.comb(math.comb(d, p), w) * 2**w <= SLICE_FORMS
]
_orbit_counts = functools.lru_cache(orbit_counts)


@pytest.mark.parametrize("d, p, w", SLICES)
def test_orbits_of_a_weight_slice_are_the_burnside_count(d, p, w):
    """canonicalize has as many outputs on the slice as Burnside's lemma
    counts orbits; orbit_equivalent puts each form with the first form of
    its class, and no two classes together."""
    subsets = list(itertools.combinations(range(1, d + 1), p))
    first = {}
    for support in itertools.combinations(subsets, w):
        for signs in itertools.product((1, -1), repeat=w):
            f = form(d, p, *zip(support, signs))
            rep = first.setdefault(canonicalize(f), f)
            assert orbit_equivalent(rep, f)
    assert len(first) == _orbit_counts(d, p)[w]
    for a, b in itertools.combinations(first.values(), 2):
        assert not orbit_equivalent(a, b)


def test_canonicalize_dimension_cap():
    f = form(11, 2, ((1, 2), 1))
    with pytest.raises(CapacityError):
        canonicalize(f)
    assert canonicalize(f, dimension_cap=11) == form(11, 2, ((1, 2), 1))


def test_canonicalize_search_stats_on_the_cayley_form():
    stats = SearchStats()
    canonicalize(cayley_form(), stats=stats)
    assert stats == SearchStats(nodes=45, leaves=6, pruned=11, solutions=6)
    # without automorphism pruning the search enters 1,219 nodes
    assert stats.nodes * 10 <= 1219
    canonicalize(cayley_form(), stats=stats)
    assert stats == SearchStats(nodes=90, leaves=12, pruned=22, solutions=12)


def _flip_one_sign(f: SpecialForm, k: int) -> SpecialForm:
    terms = list(f.terms)
    terms[k] = (terms[k][0], -terms[k][1])
    return SpecialForm(f.d, f.p, tuple(terms))


def _seeded_full_form(d: int, p: int, seed: int) -> SpecialForm:
    rng = random.Random(seed)
    subsets = itertools.combinations(range(1, d + 1), p)
    return form(d, p, *((s, rng.choice((1, -1))) for s in subsets))


# Canonical forms pinned from the exhaustive search without automorphism
# pruning; the pruned search must reproduce them exactly.
PINNED_CANONICAL = {
    "cayley": (cayley_form(), "e123 + e145 + e167 + e246 - e257 - e347 - e356"),
    "cayley, one sign flipped": (
        _flip_one_sign(cayley_form(), 3),
        "e123 + e145 + e167 + e246 + e257 + e347 + e356",
    ),
    "e1234567": (form(7, 7, ((1, 2, 3, 4, 5, 6, 7), 1)), "e1234567"),
    "full 2-form on 6 indices": (
        _seeded_full_form(6, 2, 2),
        "e12 + e13 + e14 + e15 + e16 + e23 + e24 + e25 + e26 + e34 + e35 - e36"
        " + e45 + e46 + e56",
    ),
    "full 3-form on 7 indices": (
        _seeded_full_form(7, 3, 3),
        "e123 + e124 + e125 + e126 + e127 + e134 + e135 + e136 + e137 + e145"
        " + e146 + e147 + e156 - e157 + e167 + e234 + e235 + e236 - e237 + e245"
        " + e246 - e247 - e256 + e257 - e267 - e345 + e346 - e347 + e356 + e357"
        " + e367 - e456 - e457 - e467 + e567",
    ),
    "five disjoint planes": (
        form(10, 2, ((1, 2), 1), ((3, 4), 1), ((5, 6), 1), ((7, 8), -1), ((9, 10), 1)),
        "e12 + e34 + e56 + e78 + e(9,10)",
    ),
    # Pruning with automorphisms that move a labeled index gives a wrong
    # support on these two.
    "2-form on 7 indices": (
        form(7, 2, ((2, 4), -1), ((2, 5), 1), ((2, 6), -1), ((2, 7), -1),
             ((3, 4), 1), ((3, 6), -1), ((3, 7), 1), ((4, 7), 1), ((5, 6), 1),
             ((6, 7), 1)),
        "e12 + e13 + e14 + e15 + e23 + e24 + e26 + e35 + e36 - e45",
    ),
    "3-form on 6 indices": (
        form(6, 3, ((1, 2, 4), 1), ((1, 2, 5), -1), ((1, 2, 6), 1), ((1, 3, 5), -1),
             ((1, 5, 6), -1), ((2, 3, 5), -1), ((2, 3, 6), 1), ((2, 4, 5), -1),
             ((4, 5, 6), 1)),
        "e123 + e124 + e125 + e134 + e136 + e156 + e235 - e236 - e246",
    ),
}


def _labels_in_order(c: SpecialForm) -> bool:
    """Whether rows 0..t of the support use exactly the labels 1..u_t."""
    seen: set[int] = set()
    for s in c.support:
        seen.update(s.indices)
        if seen != set(range(1, len(seen) + 1)):
            return False
    return True


@pytest.mark.parametrize("name", PINNED_CANONICAL)
def test_canonicalize_pinned_outputs(name):
    f, expected = PINNED_CANONICAL[name]
    c = canonicalize(f)
    assert str(c) == expected
    assert _labels_in_order(c)
    rng = random.Random(41)
    for _ in range(3):
        assert canonicalize(apply(SignedPermutation.random(f.d, rng), f)) == c


def test_one_flipped_sign_leaves_the_cayley_orbit():
    # Alt(phi _|1 phi) is a multiple of psi = *phi: 7 components of 3.  One
    # flipped sign leaves six of them 1, so no search runs.
    f = cayley_form()
    assert _invariants(f)[2] == [(4, 3)] * 7
    for k in range(f.weight):
        g = _flip_one_sign(f, k)
        assert _invariants(g)[2] == [(4, 1)] * 6 + [(4, 3)]
        stats = SearchStats()
        assert not orbit_equivalent(f, g, stats=stats)
        assert stats == SearchStats()


def test_a_sign_coset_outside_the_orbit():
    # The hexagon and the hexagon with one flipped sign have equal
    # invariants: no two of its disjoint edge pairs span the same 4 indices.
    # The full search of the hexagon enters 19 nodes, and the match reaches
    # its rows in 7 nodes and 1 leaf and fails on the signs.
    edges = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))
    hexagon = form(6, 2, *((e, 1) for e in edges))
    flipped = _flip_one_sign(hexagon, 1)
    assert _invariants(hexagon) == _invariants(flipped)
    stats = SearchStats()
    assert not orbit_equivalent(hexagon, flipped, stats=stats)
    assert stats == SearchStats(nodes=19 + 7, leaves=3 + 1, pruned=6, solutions=3 + 1)


def test_orbit_equivalent_search_stats_on_the_cayley_form():
    f = cayley_form()
    moved = apply(SignedPermutation.random(7, random.Random(3)), f)
    stats = SearchStats()
    assert orbit_equivalent(f, moved, stats=stats)
    # the full search, then a match of 8 nodes where canonicalizing the
    # moved copy enters 45
    assert stats == SearchStats(nodes=45 + 8, leaves=6 + 1, pruned=11, solutions=6 + 1)
    full = SearchStats()
    canonicalize(moved, stats=full)
    assert full == SearchStats(nodes=45, leaves=6, pruned=11, solutions=6)


@st.composite
def forms_with_group_elements(draw, dense=False):
    """A form with d <= 6 and at most 10 terms, and a group element.  With
    `dense`, half the forms have d = 6, 2 <= p <= 4 and all p-subsets but at
    most 3: below d = 6 every support has at most 10 terms."""
    if dense and draw(st.booleans()):
        d, p = 6, draw(st.integers(2, 4))
        subsets = list(itertools.combinations(range(1, d + 1), p))
        left_out = draw(st.lists(st.sampled_from(subsets), max_size=3, unique=True))
        support = [s for s in subsets if s not in left_out]
    else:
        d = draw(st.integers(1, 6))
        p = draw(st.integers(1, d))
        subsets = list(itertools.combinations(range(1, d + 1), p))
        support = draw(st.lists(st.sampled_from(subsets), max_size=10, unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(support),
                          max_size=len(support)))
    sigma = draw(st.permutations(range(1, d + 1)))
    eta = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    return form(d, p, *zip(support, signs)), SignedPermutation(tuple(sigma), tuple(eta))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(forms_with_group_elements())
def test_canonicalize_property_invariant_and_idempotent(case):
    f, g = case
    c = canonicalize(f)
    assert canonicalize(apply(g, f)) == c
    assert canonicalize(c) == c
    assert _labels_in_order(c)


# Dense supports put many pairs with p - k odd on one component, which the
# invariants must leave out: sparse ones rarely do.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(forms_with_group_elements(dense=True))
def test_invariants_are_constant_on_orbits(case):
    f, g = case
    assert _invariants(apply(g, f)) == _invariants(f)


def test_invariants_are_constant_on_orbits_up_to_nine_dimensions():
    rng = random.Random(2626)
    for _ in range(2000):
        d = rng.randint(1, 9)
        p = rng.randint(1, d)
        subsets = list(itertools.combinations(range(1, d + 1), p))
        f = _with_signs(rng.sample(subsets, rng.randint(0, min(16, len(subsets)))), d, p, rng)
        assert _invariants(apply(SignedPermutation.random(d, rng), f)) == _invariants(f)


def test_canonical_support_is_the_least_relabeled_support():
    rng = random.Random(61)
    forms = [cayley_form()]
    while len(forms) < 30:
        d = rng.choice((6, 7))
        p = rng.randint(2, d - 2)
        subsets = list(itertools.combinations(range(1, d + 1), p))
        chosen = rng.sample(subsets, rng.randint(3, 10))
        forms.append(form(d, p, *((s, rng.choice((1, -1))) for s in chosen)))
    for f in forms:
        c = canonicalize(f)
        assert tuple(s.indices for s in c.support) == brute_least_support(f)


def _rigid(*terms):
    return form(7, 5, *zip(terms[::2], terms[1::2]))


# Search counts pinned from the placement that tried every set of free
# labels for a term; handing labels out in order must enter the same tree.
# The last three forms have no support automorphism, so nothing prunes.
PINNED_STATS = {
    "full 3-form on 7 indices": (
        _seeded_full_form(7, 3, 3),
        SearchStats(nodes=240, leaves=7, pruned=43, solutions=7),
    ),
    "rigid, weight 10": (
        _rigid((1, 2, 3, 4, 6), -1, (1, 2, 3, 5, 7), 1, (1, 2, 4, 5, 6), 1,
               (1, 2, 4, 5, 7), -1, (1, 2, 4, 6, 7), -1, (1, 3, 4, 5, 7), 1,
               (1, 4, 5, 6, 7), 1, (2, 3, 4, 5, 7), -1, (2, 3, 4, 6, 7), 1,
               (2, 4, 5, 6, 7), -1),
        SearchStats(nodes=3452, leaves=23, pruned=0, solutions=1),
    ),
    "rigid, weight 10, second": (
        _rigid((1, 2, 3, 4, 6), 1, (1, 2, 3, 4, 7), 1, (1, 2, 3, 5, 7), 1,
               (1, 2, 4, 5, 7), -1, (1, 2, 5, 6, 7), 1, (1, 3, 4, 6, 7), -1,
               (2, 3, 4, 5, 6), -1, (2, 3, 4, 5, 7), -1, (2, 3, 4, 6, 7), 1,
               (2, 3, 5, 6, 7), 1),
        SearchStats(nodes=3322, leaves=14, pruned=0, solutions=1),
    ),
    "rigid, weight 9": (
        _rigid((1, 2, 3, 4, 6), 1, (1, 2, 3, 6, 7), 1, (1, 2, 4, 5, 7), 1,
               (1, 2, 4, 6, 7), 1, (1, 2, 5, 6, 7), 1, (1, 3, 4, 6, 7), 1,
               (2, 3, 4, 5, 6), 1, (2, 3, 4, 6, 7), 1, (2, 4, 5, 6, 7), 1),
        SearchStats(nodes=2906, leaves=19, pruned=0, solutions=1),
    ),
}


@pytest.mark.parametrize("name", PINNED_STATS)
def test_canonicalize_pinned_search_stats(name):
    f, expected = PINNED_STATS[name]
    stats = SearchStats()
    c = canonicalize(f, stats=stats)
    assert stats == expected
    assert _labels_in_order(c)


def test_canonicalize_search_stats_summed_over_seeded_forms():
    # Counts pinned from the search that sorted each candidate's labels at
    # every node; keeping per-term label lists must enter the same tree.
    rng = random.Random(600)
    stats = SearchStats()
    for _ in range(600):
        canonicalize(random_form(rng, d_max=7, w_max=10), stats=stats)
    assert stats == SearchStats(nodes=22572, leaves=2410, pruned=3777, solutions=1514)


def test_orbit_equivalent():
    disjoint = form(4, 2, ((1, 2), 1), ((3, 4), 1))
    chain = form(4, 2, ((1, 2), 1), ((1, 3), 1))
    assert orbit_equivalent(disjoint, form(4, 2, ((1, 2), 1), ((3, 4), -1)))
    assert not orbit_equivalent(form(4, 2, ((1, 2), 1)), disjoint)
    with pytest.raises(DomainError):
        orbit_equivalent(form(4, 2, ((1, 2), 1)), form(5, 2, ((1, 2), 1)))
    with pytest.raises(DomainError):
        orbit_equivalent(form(4, 2, ((1, 2), 1)), form(4, 3, ((1, 2, 3), 1)))

    disjoint_full, chain_full = SearchStats(), SearchStats()
    canonicalize(disjoint, stats=disjoint_full)
    canonicalize(chain, stats=chain_full)
    assert disjoint_full == SearchStats(nodes=8, leaves=4, pruned=3, solutions=4)
    assert chain_full == SearchStats(nodes=6, leaves=2, pruned=1, solutions=2)
    # their index degrees differ, so neither order runs a search
    for x, y in ((disjoint, chain), (chain, disjoint)):
        stats = SearchStats()
        assert not orbit_equivalent(x, y, stats=stats)
        assert stats == SearchStats()

    # A triangle and an edge, and a path, on five indices: equal invariants,
    # and each full search enters 15 nodes.  The triangle's rows (12, 13,
    # 23, 45) lie below the path's (12, 13, 24, 35), so matching it against
    # them ends at its first leaf, below the target, in 5 nodes ...
    triangle = form(5, 2, ((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((4, 5), 1))
    path = form(5, 2, ((1, 2), 1), ((1, 3), 1), ((2, 4), 1), ((3, 5), 1))
    assert _invariants(triangle) == _invariants(path)
    stats = SearchStats()
    assert not orbit_equivalent(path, triangle, stats=stats)
    assert stats == SearchStats(nodes=15 + 5, leaves=2 + 1, pruned=2, solutions=2 + 1)
    # ... and the other way round every candidate lies above the target, so
    # the match ends without a leaf, in 15 nodes
    stats = SearchStats()
    assert not orbit_equivalent(triangle, path, stats=stats)
    assert stats == SearchStats(nodes=15 + 15, leaves=4, pruned=5, solutions=4)

    # unequal weights differ before the cap is read; equal ones are refused
    # above it before any search, weight 0 included
    big = form(11, 2, ((1, 2), 1), ((10, 11), 1))
    assert not orbit_equivalent(big, form(11, 2, ((1, 2), 1)))
    assert not orbit_equivalent(SpecialForm(11, 2, ()), big)
    for x, y in ((big, apply(SignedPermutation.identity(11), big)),
                 (SpecialForm(11, 2, ()), SpecialForm(11, 2, ()))):
        stats = SearchStats()
        with pytest.raises(CapacityError):
            orbit_equivalent(x, y, stats=stats)
        assert stats == SearchStats()
    for d in (1, 4, 10):
        stats = SearchStats()
        assert orbit_equivalent(SpecialForm(d, 1, ()), SpecialForm(d, 1, ()), stats=stats)
        assert stats == SearchStats()


def _with_signs(support, d, p, rng):
    return form(d, p, *((s, rng.choice((1, -1))) for s in support))


def test_orbit_equivalent_agrees_with_canonical_equality():
    rng = random.Random(1515)
    forms = [random_form(rng, d_max=6, w_max=10) for _ in range(100)]
    # a form with more terms than axes has more than one sign class
    while len(forms) < 160:
        f = random_form(rng, d_max=6, w_max=10)
        if f.weight > f.d:
            forms.append(f)
    unequal_signs = 0
    for a in forms:
        d, p, support = a.d, a.p, [s.indices for s in a.support]
        subsets = list(itertools.combinations(range(1, d + 1), p))
        # a moved copy, the support with fresh signs twice, then another support
        partners = [a] + [_with_signs(support, d, p, rng) for _ in range(2)]
        partners = [apply(SignedPermutation.random(d, rng), b) for b in partners]
        partners.append(_with_signs(rng.sample(subsets, a.weight), d, p, rng))
        c = canonicalize(a)
        brute = brute_canonical(a) if d <= 4 else None
        for k, b in enumerate(partners):
            same = canonicalize(b) == c
            assert orbit_equivalent(a, b) == orbit_equivalent(b, a) == same
            if brute is not None:
                assert same == (brute_canonical(b) == brute)
            unequal_signs += k in (1, 2) and not same
    assert unequal_signs >= 50


def test_orbit_equivalent_search_stats_summed_over_seeded_pairs():
    # Counts pinned from the search that placed every forced row in a frame
    # of its own; building the fully labeled rows in one pass must enter the
    # same tree.
    rng = random.Random(1717)
    stats, agreeing, same = SearchStats(), SearchStats(), 0
    for _ in range(110):
        d = rng.randint(4, 7)
        p = rng.randint(2, d - 2)
        subsets = list(itertools.combinations(range(1, d + 1), p))
        support = rng.sample(subsets, rng.randint(1, min(12, len(subsets))))
        a = _with_signs(support, d, p, rng)
        # a moved copy, the support with fresh signs moved, another support
        partners = (a, _with_signs(support, d, p, rng))
        partners = [apply(SignedPermutation.random(d, rng), b) for b in partners]
        partners.append(_with_signs(rng.sample(subsets, len(support)), d, p, rng))
        for b in partners:
            same += orbit_equivalent(a, b, stats=stats)
            if _invariants(a) == _invariants(b):
                orbit_equivalent(a, b, stats=agreeing)
    assert same == 216
    # The 221 pairs whose invariants agree walk the same tree as before:
    # their sum was pinned from the search without the invariant check.  The
    # 109 pairs told apart add nothing, so the sum over all pairs is the same.
    assert agreeing == SearchStats(nodes=31304, leaves=1439, pruned=1370, solutions=659)
    assert stats == agreeing


def test_canonicalize_search_stats_summed_over_dense_forms():
    # At least half of all p-subsets: most rows come after every index has
    # its label.
    rng = random.Random(1718)
    stats = SearchStats()
    for _ in range(200):
        d = rng.randint(4, 6)
        p = rng.randint(2, d - 2)
        subsets = list(itertools.combinations(range(1, d + 1), p))
        support = rng.sample(subsets, rng.randint((len(subsets) + 1) // 2, len(subsets)))
        canonicalize(_with_signs(support, d, p, rng), stats=stats)
    assert stats == SearchStats(nodes=41372, leaves=1426, pruned=2295, solutions=433)


def _placement_frames(f: SpecialForm) -> int:
    """The frames of the per-row placement step that canonicalizing f opens."""
    forms_file = canonicalize.__code__.co_filename
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        code = frame.f_code
        if event == "call" and code.co_name == "place" and code.co_filename == forms_file:
            frames += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        canonicalize(f)
    finally:
        sys.setprofile(previous)
    return frames


def test_forced_rows_are_placed_in_one_pass():
    # The node counts stay 45 and 240, see the pins above, but the rows
    # after the last fresh label open no frame of their own.
    assert _placement_frames(cayley_form()) <= 21
    assert _placement_frames(_seeded_full_form(7, 3, 3)) <= 30


def test_match_fails_inside_the_forced_tail():
    star = form(4, 2, ((1, 2), 1), ((1, 3), 1), ((1, 4), 1))
    path = form(4, 2, ((1, 2), 1), ((1, 3), 1), ((2, 4), 1))
    triangle = form(4, 2, ((1, 2), 1), ((1, 3), 1), ((2, 3), 1))
    # their index degrees differ, so no search runs
    for x, y in ((path, triangle), (star, triangle)):
        stats = SearchStats()
        assert not orbit_equivalent(x, y, stats=stats)
        assert stats == SearchStats()
    # These two have equal invariants; the full searches enter 58 and 56
    # nodes.  Rows 123, 124, 135 and 146 label all of either; u's row 236
    # lies below v's row 345, so matching u against v's rows gives a leaf
    # below them there, in 6 nodes ...
    u = form(6, 3, ((1, 2, 3), 1), ((1, 2, 4), 1), ((1, 3, 5), 1), ((1, 4, 6), 1),
             ((2, 3, 6), 1))
    v = form(6, 3, ((1, 2, 3), 1), ((1, 2, 4), 1), ((1, 3, 5), 1), ((1, 4, 6), 1),
             ((3, 4, 5), 1))
    assert _invariants(u) == _invariants(v)
    stats = SearchStats()
    assert not orbit_equivalent(v, u, stats=stats)
    assert stats == SearchStats(nodes=56 + 6, leaves=1 + 1, pruned=0, solutions=1 + 1)
    # ... and matching v against u's rows ends without a leaf, in 55 nodes,
    # each of its forced tails lying above u's.
    stats = SearchStats()
    assert not orbit_equivalent(u, v, stats=stats)
    assert stats == SearchStats(nodes=58 + 55, leaves=1, pruned=0, solutions=1)


def test_the_three_ways_a_match_says_no():
    # Non-equivalent pairs whose invariants agree.  A match of x against y's
    # least rows reaches no leaf, or its first leaf lies below them (the
    # supports differ), or it lies on them and the sign coset falls outside
    # y's orbit (the canonical supports agree).  The match's leaves are those
    # of orbit_equivalent less those of canonicalizing x.
    rng = random.Random(2727)
    ways, pairs = Counter(), 0
    while pairs < 80:
        d = rng.randint(5, 7)
        p = rng.randint(2, d - 2)
        subsets = list(itertools.combinations(range(1, d + 1), p))
        w = rng.randint(2, min(8, len(subsets)))
        a, b = (_with_signs(rng.sample(subsets, w), d, p, rng) for _ in range(2))
        if _invariants(a) != _invariants(b):
            continue
        full = {f: SearchStats() for f in (a, b)}
        canon = {f: canonicalize(f, stats=full[f]) for f in (a, b)}
        if canon[a] == canon[b]:
            continue
        pairs += 1
        for x, y in ((a, b), (b, a)):
            stats = SearchStats()
            assert not orbit_equivalent(x, y, stats=stats)
            if stats.leaves == full[x].leaves:
                ways["no leaf"] += 1
            elif canon[x].support != canon[y].support:
                ways["a leaf below"] += 1
            else:
                ways["a sign coset outside"] += 1
    assert min(ways.values()) >= 20 and len(ways) == 3, ways


def test_forced_tail_from_row_two():
    # Rows 123 and 124 label all four indices.
    f = _seeded_full_form(4, 3, 1)
    stats = SearchStats()
    assert str(canonicalize(f, stats=stats)) == "e123 + e124 + e134 + e234"
    assert stats == SearchStats(nodes=17, leaves=4, pruned=6, solutions=4)
    rng = random.Random(4)
    for g in (apply(SignedPermutation.random(4, rng), f), _flip_one_sign(f, 0)):
        stats = SearchStats()
        assert orbit_equivalent(f, g, stats=stats)
        assert stats == SearchStats(nodes=17 + 5, leaves=4 + 1, pruned=6, solutions=4 + 1)


def test_cayley_sign_classes_through_tie_leaves_in_the_forced_tail():
    # Rows 0-2 of the Fano support label all seven indices, so each of its
    # tie leaves, and the generator taken from it, is reached in one pass.
    # Its 128 sign patterns fall into 8 flip cosets and 2 orbits.  The 112
    # outside the Cayley form's orbit are told apart by their invariants,
    # so only the 16 inside it run a search and a match.
    cayley = cayley_form()
    outputs, full, matched, same = set(), SearchStats(), SearchStats(), 0
    for signs in itertools.product((1, -1), repeat=7):
        f = SpecialForm(7, 3, tuple((s, g) for (s, _), g in zip(cayley.terms, signs)))
        outputs.add(canonicalize(f, stats=full))
        same += orbit_equivalent(cayley, f, stats=matched)
    assert len(outputs) == 2 and same == 16
    assert full == SearchStats(nodes=5760, leaves=768, pruned=1408, solutions=768)
    assert matched == SearchStats(nodes=848, leaves=112, pruned=176, solutions=112)


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


def test_form_rejects_non_integer_dimension_and_degree():
    with pytest.raises(DomainError):
        SpecialForm(4.5, 2.0, ())
    with pytest.raises(DomainError):
        SpecialForm(4, 2.0, ())
    f = SpecialForm(np.int64(4), np.int32(2), ())
    assert (f.d, f.p) == (4, 2)
    assert type(f.d) is int and type(f.p) is int


def test_form_rejects_a_non_integer_sign():
    with pytest.raises(DomainError):
        form(4, 2, ((1, 2), 1.0))
    with pytest.raises(DomainError):
        SpecialForm(4, 2, ((OrientedSubset((1, 2)), -1.0),))
    f = form(4, 2, ((1, 2), np.int64(-1)))
    assert f == form(4, 2, ((1, 2), -1))
    assert type(f.terms[0][1]) is int


def test_component_rejects_non_integer_indices():
    f = form(4, 2, ((1, 2), 1))
    with pytest.raises(DomainError):
        component(f, (1.5, 2.9))
    with pytest.raises(DomainError):
        component(f, (1.0, 2))
    with pytest.raises(DomainError):
        component(f, (1, 2, 3))  # p = 2
    assert component(f, np.array([2, 1])) == -1


def test_signed_permutation_rejects_non_integers():
    with pytest.raises(DomainError):
        SignedPermutation((2.9, 1), (1, -1))
    with pytest.raises(DomainError):
        SignedPermutation((2, 1), (1, -1.5))
    with pytest.raises(DomainError):
        SignedPermutation((2, 1), (1.0, -1))
    with pytest.raises(DomainError):
        SignedPermutation((), ())
    with pytest.raises(DomainError):
        SignedPermutation((2, 1), (1, 0))
    with pytest.raises(DomainError, match="expected 2 axis flips, got 1"):
        SignedPermutation((1, 2), (1,))
    with pytest.raises(DomainError):
        SignedPermutation.identity(2).compose(SignedPermutation.identity(3))
    with pytest.raises(DomainError):
        apply(SignedPermutation.identity(3), form(4, 2, ((1, 2), 1)))
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
    assert str(SpecialForm(3, 2, ())) == "0"
    assert g.compose(g.inverse()) == SignedPermutation.identity(3)
