"""The library's own producers build their objects without the constructors'
checks.  Each such object must equal what the checked constructors build
from the same fields, nested objects included, and every field must keep
its type: `cli._dump` writes a value as a JSON int only when its type is
`int`, so a numpy integer that compares equal would still change the output.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
from helpers import cayley_form
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specialforms import (
    DistanceAssignment,
    OrientedSubset,
    Realization,
    SignedPermutation,
    SpecialForm,
    apply,
    canonicalize,
    circulant_matrix,
    classify_small,
    even_example_matrix,
    forms_of,
    graph_of_form,
    product_matrix,
    realize,
    solve,
)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _checked(x):
    """x rebuilt through the checked constructors, innermost objects first."""
    if dataclasses.is_dataclass(x):
        fields = {f.name: _checked(getattr(x, f.name)) for f in dataclasses.fields(x)}
        return type(x)(**fields)
    if isinstance(x, tuple):
        return tuple(map(_checked, x))
    return x


def _types(x):
    if dataclasses.is_dataclass(x):
        return type(x), tuple(_types(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple, tuple(map(_types, x))
    return type(x)


def assert_as_checked(obj) -> None:
    again = _checked(obj)
    assert obj == again
    assert _types(obj) == _types(again)


@st.composite
def forms(draw, d_max=6, p_max=6, min_weight=0):
    d = draw(st.integers(1, d_max))
    p = draw(st.integers(1, min(d, p_max)))
    subsets = list(itertools.combinations(range(1, d + 1), p))
    support = draw(
        st.lists(st.sampled_from(subsets), min_size=min(min_weight, len(subsets)),
                 max_size=8, unique=True)
    )
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(support),
                          max_size=len(support)))
    return SpecialForm.from_terms(d, p, list(zip(support, signs)))


@SETTINGS
@given(form=forms(), data=st.data())
def test_canonicalize_apply_and_graph_of_form_build_checked_objects(form, data):
    assert_as_checked(canonicalize(form))
    sigma = data.draw(st.permutations(range(1, form.d + 1)))
    eta = data.draw(st.lists(st.sampled_from((1, -1)), min_size=form.d, max_size=form.d))
    assert_as_checked(apply(SignedPermutation(tuple(sigma), tuple(eta)), form))
    if form.weight:
        assert_as_checked(graph_of_form(form))


@SETTINGS
@given(form=forms(d_max=6, p_max=3, min_weight=2))
@example(form=cayley_form())  # 30 solutions, each passing subsets of weight 0
def test_solve_realize_and_forms_of_build_checked_objects(form):
    for f in solve(graph_of_form(form), form.p):
        assert_as_checked(f)
        real = realize(f)
        assert_as_checked(real)
        for g in forms_of(real):
            assert_as_checked(g)


@SETTINGS
@given(data=st.data())
def test_forms_of_builds_checked_forms_whatever_the_vertex_order(data):
    d = data.draw(st.integers(1, 6))
    p = data.draw(st.integers(1, d))
    subsets = list(itertools.combinations(range(1, d + 1), p))
    chosen = data.draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=6,
                                unique=True))
    real = Realization(len(chosen), p, d, tuple(map(OrientedSubset, chosen)), ())
    for g in forms_of(real):
        assert_as_checked(g)


@st.composite
def factor_tuples(draw):
    factors = sorted(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    return tuple(factors[:1] if np.prod(factors) > 60 else factors[::-1])


@SETTINGS
@given(factors=factor_tuples(), data=st.data())
def test_democratic_constructions_build_checked_matrices(factors, data):
    reps = DistanceAssignment.orbit_representatives(factors)
    dist = data.draw(st.lists(st.integers(1, 9), min_size=len(reps), max_size=len(reps)))
    assignment = DistanceAssignment.from_sequence(factors, np.array(dist))
    assert_as_checked(product_matrix(factors, assignment))
    assert_as_checked(product_matrix(factors))
    # an assignment on the same factors in another order
    given = data.draw(st.permutations(factors))
    assert_as_checked(product_matrix(factors, DistanceAssignment.from_sequence(given, dist)))
    n = data.draw(st.integers(1, 6))
    dist = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    assert_as_checked(circulant_matrix(n, np.array(dist)))
    r = 2 * n
    dist = data.draw(st.lists(st.integers(1, 9), min_size=r - 1, max_size=r - 1))
    assert_as_checked(even_example_matrix(r, np.array(dist)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(r=st.sampled_from((3, 5)), data=st.data())
def test_classify_small_builds_checked_matrices(r, data):
    alphabet = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    assert_as_checked(classify_small(r, 6, alphabet=np.array(alphabet)))


def test_classify_small_on_seven_vertices_builds_checked_matrices():
    catalog = classify_small(7, 5, alphabet=(2, 3, 5))
    assert len(catalog.entries) == 720
    assert_as_checked(catalog)
