"""Round-trip and rejection properties of every `from_dict`.

Round trips compare `to_dict` outputs, since frames compare by identity.
Rejection replaces one integer in a valid dict by a non-integral float or
a boolean, one float by a string, a boolean, NaN or infinity, or one flag
by a string or an integer, and expects DomainError, as it does for a dict
missing a key.
"""

from __future__ import annotations

import copy
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specialforms import (
    ComassReport,
    DistanceMatrix,
    DomainError,
    Frame,
    GraphFunction,
    OrientedSubset,
    Realization,
    SpecialForm,
)


def _sized_lists(elements, n):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def matrices(draw):
    r = draw(st.integers(1, 6))
    rows = [[0] * r for _ in range(r)]
    for i, j in itertools.combinations(range(r), 2):
        rows[i][j] = rows[j][i] = draw(st.integers(1, 10**12))
    return DistanceMatrix.from_rows(rows)


@st.composite
def forms(draw):
    d = draw(st.integers(1, 6))
    p = draw(st.integers(1, d))
    subsets = list(itertools.combinations(range(1, d + 1), p))
    support = draw(st.lists(st.sampled_from(subsets), max_size=8, unique=True))
    signs = draw(_sized_lists(st.sampled_from((1, -1)), len(support)))
    return SpecialForm.from_terms(d, p, list(zip(support, signs)))


@st.composite
def graph_functions(draw):
    r = draw(st.integers(2, 6))
    proper = [
        s for k in range(1, r) for s in itertools.combinations(range(1, r + 1), k)
    ]
    subsets = draw(st.lists(st.sampled_from(proper), max_size=8, unique=True))
    weights = draw(_sized_lists(st.integers(1, 9), len(subsets)))
    return GraphFunction(r, draw(st.integers(1, 9)), tuple(zip(subsets, weights)))


def _increasing(elements, max_size):
    return st.lists(elements, min_size=1, max_size=max_size, unique=True).map(
        lambda xs: tuple(sorted(xs))
    )


@st.composite
def realizations(draw):
    r = draw(st.integers(1, 5))
    p = draw(st.integers(1, 4))
    d = draw(st.integers(p, 9))
    subsets = draw(_sized_lists(_increasing(st.integers(1, d), p), r))
    blocks = draw(
        st.lists(st.tuples(_increasing(st.integers(1, r), r),
                           _increasing(st.integers(1, d), 3)), max_size=4)
    )
    return Realization(r, p, d, tuple(map(OrientedSubset, subsets)), tuple(blocks))


@st.composite
def reports(draw):
    n = draw(st.integers(0, 5))
    value = st.floats(-10, 10, allow_nan=False)
    d = draw(st.integers(1, 5))
    axes = draw(st.permutations(range(1, d + 1)))[: draw(st.integers(1, d))]
    return ComassReport(
        max_value=draw(value),
        calibrated=draw(st.booleans()),
        achieved_on_coordinate_plane=draw(st.booleans()),
        n_restarts=draw(st.integers(0, 10**6)),
        restart_values=tuple(draw(_sized_lists(value, n))),
        iterations=tuple(draw(_sized_lists(st.integers(0, 500), n))),
        converged=tuple(draw(_sized_lists(st.booleans(), n))),
        frame=Frame.coordinate(d, axes),
    )


CASES = [
    (DistanceMatrix, matrices()),
    (SpecialForm, forms()),
    (GraphFunction, graph_functions()),
    (Realization, realizations()),
    (ComassReport, reports()),
]
IDS = [cls.__name__ for cls, _ in CASES]


def _number_and_flag_leaves(data, path=()):
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _number_and_flag_leaves(value, (*path, key))
    elif isinstance(data, list):
        for k, value in enumerate(data):
            yield from _number_and_flag_leaves(value, (*path, k))
    elif isinstance(data, (int, float)):  # bool included
        yield path, data


def _replaced(data, path, value):
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize("cls, objects", CASES, ids=IDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_from_dict_round_trips_through_json(cls, objects, data):
    obj = data.draw(objects)
    text = json.dumps(obj.to_dict())
    assert cls.from_dict(json.loads(text)).to_dict() == obj.to_dict()


@pytest.mark.parametrize("cls, objects", CASES, ids=IDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_from_dict_rejects_non_integers_coerced_flags_and_missing_keys(
    cls, objects, data
):
    good = data.draw(objects).to_dict()
    path, leaf = data.draw(st.sampled_from(list(_number_and_flag_leaves(good))))
    if isinstance(leaf, bool):
        bad = data.draw(st.sampled_from((str(leaf).lower(), int(leaf))))
    elif isinstance(leaf, float):
        bad = data.draw(st.sampled_from((str(leaf), True, math.nan, -math.inf)))
    else:
        bad = data.draw(st.sampled_from((leaf + 0.5, True, False)))
    with pytest.raises(DomainError):
        cls.from_dict(_replaced(good, path, bad))
    missing = dict(good)
    del missing[data.draw(st.sampled_from(sorted(good)))]
    with pytest.raises(DomainError):
        cls.from_dict(missing)


def test_json_true_is_not_read_as_an_integer():
    e1 = {"d": 1, "p": 1, "terms": [{"indices": [1], "sign": 1}]}
    assert SpecialForm.from_dict(e1).to_dict() == e1
    for path in (("d",), ("p",), ("terms", 0, "indices", 0), ("terms", 0, "sign")):
        with pytest.raises(DomainError):
            SpecialForm.from_dict(_replaced(e1, path, True))
    with pytest.raises(DomainError):
        SpecialForm.from_dict(
            {"d": True, "p": True, "terms": [{"indices": [True], "sign": True}]}
        )
