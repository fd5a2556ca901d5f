from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (brute_automorphisms, cayley_form, counter_predemocratic, fano_matrix,
                     random_form)
from specialforms import (
    CapacityError,
    DomainError,
    DistanceMatrix,
    PreconditionError,
    SearchStats,
    SpecialForm,
    circulant_matrix,
    curve_decomposition,
    even_example_matrix,
    find_relabeling,
    graph_of_form,
    is_admissible,
    is_democratic,
    is_predemocratic,
    subset_distance,
    symmetries,
    to_dot,
)
from specialforms import graphs
from specialforms.graphs import _extend, _row_profiles


def _closure(generators, r):
    """All permutations generated by `generators` (1-based image tuples)."""
    identity = tuple(range(1, r + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        h = frontier.pop()
        for g in generators:
            k = tuple(g[h[v - 1] - 1] for v in range(1, r + 1))
            if k not in seen:
                seen.add(k)
                frontier.append(k)
    return seen


def _random_matrix(rng, r, value_max=3):
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            rows[i][j] = rows[j][i] = rng.randint(1, value_max)
    return DistanceMatrix.from_rows(rows)


def _relabel(m, perm):
    """The matrix whose (i, j) entry is m's (perm[i], perm[j]) entry."""
    return DistanceMatrix.from_rows(
        [[m.entries[perm[i]][perm[j]] for j in range(m.r)] for i in range(m.r)]
    )


def _is_relabeling(src, dst, pi):
    r = src.r
    return sorted(pi) == list(range(1, r + 1)) and all(
        dst.entries[pi[v] - 1][pi[w] - 1] == src.entries[v][w]
        for v in range(r)
        for w in range(r)
    )


def test_matrix_validation():
    with pytest.raises(DomainError):
        DistanceMatrix.from_rows([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(DomainError):
        DistanceMatrix.from_rows([[0, 0], [0, 0]])  # zero off-diagonal
    with pytest.raises(DomainError):
        DistanceMatrix.from_rows([[1]])
    with pytest.raises(DomainError):
        DistanceMatrix(0, ())
    with pytest.raises(DomainError):
        DistanceMatrix(2, ((0, 1), (1,)))  # not square
    m = DistanceMatrix.from_rows([[0, 2], [2, 0]])
    assert m.distances() == (2,)
    assert DistanceMatrix.from_dict(m.to_dict()) == m


def test_matrix_rejects_non_integers():
    with pytest.raises(DomainError):
        DistanceMatrix.from_dict({"r": 2, "entries": [[0, 1.7], [1.2, 0]]})
    with pytest.raises(DomainError):
        DistanceMatrix.from_dict({"r": 2, "entries": [[0, 2.0], [2.0, 0]]})
    with pytest.raises(DomainError):
        DistanceMatrix.from_dict({"r": 2.0, "entries": [[0, 2], [2, 0]]})
    with pytest.raises(DomainError):
        DistanceMatrix.from_rows([[0, "2"], ["2", 0]])
    with pytest.raises(DomainError):
        DistanceMatrix(2.0, ((0, 1), (1, 0)))
    m = DistanceMatrix(np.int64(2), ((0, 1), (1, 0)))
    assert m == DistanceMatrix.from_rows([[0, 1], [1, 0]]) and type(m.r) is int


def test_graph_of_form_examples():
    f = SpecialForm.from_terms(4, 2, [((1, 2), 1), ((3, 4), -1)])
    assert graph_of_form(f).entries == ((0, 2), (2, 0))
    g = SpecialForm.from_terms(3, 2, [((1, 2), 1), ((1, 3), 1), ((2, 3), 1)])
    assert graph_of_form(g).entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    with pytest.raises(DomainError):
        graph_of_form(SpecialForm(4, 2, ()))


def test_graph_of_cayley_form_is_all_two():
    m = graph_of_form(cayley_form())
    assert m == fano_matrix()
    assert is_admissible(m)


def test_admissibility():
    assert is_admissible(circulant_matrix(2, (1, 2)))
    bad = DistanceMatrix.from_rows([[0, 1, 1], [1, 0, 3], [1, 3, 0]])
    assert not is_admissible(bad)  # 3 > 1 + 1


def test_symmetries_pentagon_is_dihedral():
    rep = symmetries(circulant_matrix(2, (1, 2)))
    assert rep.order == 10
    assert rep.transitive
    assert len(_closure(rep.generators, 5)) == 10


def test_symmetries_all_equal_matrix_is_full_symmetric_group():
    m = DistanceMatrix.from_rows([[0 if i == j else 1 for j in range(4)] for i in range(4)])
    rep = symmetries(m)
    assert rep.order == 24
    assert rep.transitive
    assert len(_closure(rep.generators, 4)) == 24


def test_symmetries_rigid_matrix():
    m = DistanceMatrix.from_rows(
        [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]]
    )
    rep = symmetries(m)
    assert rep.order == 1
    assert not rep.transitive
    assert rep.generators == ()


def test_symmetries_generators_close_to_reported_order():
    rng = random.Random(31)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(3, 6), value_max=2)
        rep = symmetries(m)
        assert len(_closure(rep.generators, m.r)) == rep.order


def test_democratic_agrees_with_transitivity():
    rng = random.Random(37)
    for _ in range(50):
        m = _random_matrix(rng, rng.randint(3, 6))
        assert is_democratic(m) == symmetries(m).transitive


def test_vertex_cap(monkeypatch):
    m = DistanceMatrix.from_rows(
        [[0 if i == j else 1 for j in range(13)] for i in range(13)]
    )
    with pytest.raises(CapacityError):
        symmetries(m)
    with pytest.raises(CapacityError):
        is_democratic(m)
    with pytest.raises(CapacityError):
        find_relabeling(m, m)
    monkeypatch.setattr(graphs, "DEFAULT_AUTOMORPHISM_VERTEX_CAP", 13)
    assert symmetries(m).order == 6227020800  # 13!


def test_searches_agree_with_brute_force_automorphisms():
    rng = random.Random(43)
    orders = set()
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 6), value_max=rng.randint(1, 3))
        auts = brute_automorphisms(m)
        rep = symmetries(m)
        assert rep.order == len(auts)
        assert _closure(rep.generators, m.r) == auts
        transitive = {g[0] for g in auts} == set(range(1, m.r + 1))
        assert rep.transitive == transitive
        assert is_democratic(m) == transitive
        orders.add(rep.order)
    assert len(orders) >= 5  # the sample is not all rigid or all full


def test_find_relabeling_agrees_with_brute_force():
    rng = random.Random(47)
    hits = 0
    for _ in range(40):
        r = rng.randint(1, 6)
        m = _random_matrix(rng, r, value_max=rng.randint(1, 3))
        perm = list(range(r))
        rng.shuffle(perm)
        relabeled = _relabel(m, perm)
        assert _is_relabeling(m, relabeled, find_relabeling(m, relabeled))
        other = _random_matrix(rng, r, value_max=2)
        pi = find_relabeling(m, other)
        exists = any(
            _is_relabeling(m, other, q)
            for q in itertools.permutations(range(1, r + 1))
        )
        assert (pi is not None) == exists
        if pi is not None:
            assert _is_relabeling(m, other, pi)
            hits += 1
    assert 0 < hits < 40


def test_find_relabeling_separates_equal_row_profiles():
    # distance 1 around a 6-cycle against distance 1 inside two triangles,
    # 2 elsewhere: every row of both reads 0, 1, 1, 2, 2, 2
    hexagon = DistanceMatrix.from_rows(
        [[0 if i == j else 1 if (i - j) % 6 in (1, 5) else 2 for j in range(6)]
         for i in range(6)]
    )
    triangles = DistanceMatrix.from_rows(
        [[0 if i == j else 1 if i // 3 == j // 3 else 2 for j in range(6)]
         for i in range(6)]
    )
    assert sorted(map(sorted, hexagon.entries)) == sorted(map(sorted, triangles.entries))
    assert find_relabeling(hexagon, triangles) is None
    assert find_relabeling(triangles, hexagon) is None
    assert symmetries(hexagon).order == len(brute_automorphisms(hexagon)) == 12
    assert symmetries(triangles).order == len(brute_automorphisms(triangles)) == 72


def test_kernel_checks_the_pinned_prefix():
    m = DistanceMatrix.from_rows(
        [[0, 2, 1, 1, 1], [2, 0, 1, 2, 1], [1, 1, 0, 2, 1], [1, 2, 2, 0, 2],
         [1, 1, 1, 2, 0]]
    )
    e, prof = m.entries, _row_profiles(m.entries)
    # 1 -> 3, 2 -> 2 breaks entry (1, 2), although the rest would complete
    refused = SearchStats()
    assert _extend(e, e, prof, prof, [2, 1, 0, 3], refused) is None
    assert refused == SearchStats()  # a refused prefix enters no node
    assert _extend(e, e, prof, prof, [], SearchStats()) == [0, 1, 2, 3, 4]
    pentagon = circulant_matrix(2, (1, 2)).entries
    prof = _row_profiles(pentagon)
    assert _extend(pentagon, pentagon, prof, prof, [0, 4], SearchStats()) == [0, 4, 3, 2, 1]


def test_symmetries_generators_of_fano_matrix_are_pinned():
    # one witness per (level, target), the rest filled in ascending order
    rep = symmetries(fano_matrix())
    assert rep.order == 5040 and rep.transitive
    assert rep.generators == (
        (1, 2, 3, 4, 5, 7, 6), (1, 2, 3, 4, 6, 5, 7), (1, 2, 3, 4, 7, 5, 6),
        (1, 2, 3, 5, 4, 6, 7), (1, 2, 3, 6, 4, 5, 7), (1, 2, 3, 7, 4, 5, 6),
        (1, 2, 4, 3, 5, 6, 7), (1, 2, 5, 3, 4, 6, 7), (1, 2, 6, 3, 4, 5, 7),
        (1, 2, 7, 3, 4, 5, 6), (1, 3, 2, 4, 5, 6, 7), (1, 4, 2, 3, 5, 6, 7),
        (1, 5, 2, 3, 4, 6, 7), (1, 6, 2, 3, 4, 5, 7), (1, 7, 2, 3, 4, 5, 6),
        (2, 1, 3, 4, 5, 6, 7), (3, 1, 2, 4, 5, 6, 7), (4, 1, 2, 3, 5, 6, 7),
        (5, 1, 2, 3, 4, 6, 7), (6, 1, 2, 3, 4, 5, 7), (7, 1, 2, 3, 4, 5, 6),
    )


def test_kernel_stats_are_pinned_and_add_up():
    fano, circ = fano_matrix(), circulant_matrix(3, (1, 2, 3))
    cases = (
        # 21 witnesses; each extension past a pinned prefix enters r - level
        # positions, the leaf included
        (lambda s: symmetries(fano, stats=s), SearchStats(nodes=112, leaves=21)),
        (lambda s: symmetries(circ, stats=s), SearchStats(nodes=48, leaves=7)),
        (lambda s: is_democratic(fano, stats=s), SearchStats(nodes=42, leaves=6)),
        (lambda s: is_democratic(circ, stats=s), SearchStats(nodes=42, leaves=6)),
        (lambda s: find_relabeling(circulant_matrix(3, (2, 3, 1)), circ, stats=s),
         SearchStats(nodes=8, leaves=1)),
        # no multiplier of Z_7 maps the distances (1, 3, 2) onto (1, 2, 3)
        (lambda s: find_relabeling(circulant_matrix(3, (1, 3, 2)), circ, stats=s),
         SearchStats(nodes=22, leaves=0)),
    )
    total = SearchStats()
    for run, expected in cases:
        stats = SearchStats()
        assert run(stats) == run(None)
        assert stats == expected
        run(total)
        run(total)
    assert total.nodes == 2 * sum(e.nodes for _, e in cases)
    assert total.leaves == 2 * sum(e.leaves for _, e in cases)
    assert total.pruned == total.solutions == 0


def test_predemocratic():
    flag, counts = is_predemocratic(circulant_matrix(2, (1, 2)))
    assert flag and counts == {1: 2, 2: 2}
    flag, counts = is_predemocratic(fano_matrix())
    assert flag and counts == {2: 6}
    flag, counts = is_predemocratic(
        DistanceMatrix.from_rows([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    )
    assert not flag and counts is None


def test_predemocratic_without_democracy():
    m = even_example_matrix(6, (1, 2, 3, 4, 5))
    flag, counts = is_predemocratic(m)
    assert flag and all(n == 1 for n in counts.values())
    assert not is_democratic(m)


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices with r <= 6 and values <= 3: circulants, whose rows
    all hold the same values, or free upper triangles, which mostly do not."""
    r = draw(st.integers(1, 6))
    rows = [[0] * r for _ in range(r)]
    circulant = draw(st.booleans())
    dist = draw(st.lists(st.integers(1, 3), min_size=r // 2, max_size=r // 2))
    for i, j in itertools.combinations(range(r), 2):
        rows[i][j] = rows[j][i] = (
            dist[min(j - i, r - j + i) - 1] if circulant else draw(st.integers(1, 3))
        )
    return DistanceMatrix.from_rows(rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=symmetric_matrices())
def test_predemocratic_agrees_with_row_counters(m):
    assert is_predemocratic(m) == counter_predemocratic(m)


def test_graph_of_form_agrees_with_subset_distance():
    rng = random.Random(2011)
    for _ in range(200):
        form = random_form(rng, d_max=7, w_max=8)
        support = form.support
        assert graph_of_form(form).entries == tuple(
            tuple(subset_distance(s, t) for t in support) for s in support
        )


def test_curve_decomposition_pentagon():
    dec = curve_decomposition(circulant_matrix(2, (1, 2)))
    assert [f.distance for f in dec.families] == [1, 2]
    near, far = dec.families
    assert near.cycles == ((1, 2, 3, 4, 5),)
    assert far.cycles == ((1, 3, 5, 2, 4),)
    assert near.pathlengths == (5,) and far.pathlengths == (5,)
    assert dec.all_uniform


def test_curve_decomposition_heptagon():
    dec = curve_decomposition(circulant_matrix(3, (1, 2, 3)))
    assert all(f.pathlengths == (7,) for f in dec.families)
    assert dec.all_uniform


def test_curve_decomposition_requires_two_per_row():
    with pytest.raises(PreconditionError):
        curve_decomposition(fano_matrix())
    with pytest.raises(PreconditionError):
        curve_decomposition(DistanceMatrix.from_rows([[0, 1, 1], [1, 0, 2], [1, 2, 0]]))


def test_curves_of_random_circulants_are_uniform():
    rng = random.Random(41)
    for _ in range(40):
        r = rng.choice((5, 7, 9, 11))
        k = (r - 1) // 2
        dists = rng.sample(range(1, 10), k)
        dec = curve_decomposition(circulant_matrix(k, tuple(dists)))
        assert dec.all_uniform
        for fam in dec.families:
            assert r % fam.pathlengths[0] == 0


def test_find_relabeling():
    src = circulant_matrix(2, (1, 2))
    dst = circulant_matrix(2, (2, 1))
    pi = find_relabeling(src, dst)
    assert pi is not None
    for v in range(5):
        for w in range(5):
            assert dst.entries[pi[v] - 1][pi[w] - 1] == src.entries[v][w]
    assert find_relabeling(src, circulant_matrix(2, (1, 3))) is None
    assert find_relabeling(src, fano_matrix()) is None


def test_to_dot():
    m = DistanceMatrix.from_rows([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    assert to_dot(m) == (
        "graph distances {\n"
        "  v1;\n"
        "  v2;\n"
        "  v3;\n"
        '  v1 -- v2 [label="d=1"];\n'
        '  v1 -- v3 [label="d=2"];\n'
        '  v2 -- v3 [label="d=2"];\n'
        "}\n"
    )
    # edges at distance p are dropped: only the short edge remains
    assert to_dot(m, p=2).count("--") == 1
    # every distance from p up is dropped, not only p itself
    m = DistanceMatrix.from_rows([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    assert [line for line in to_dot(m, p=2).splitlines() if "--" in line] == [
        '  v1 -- v2 [label="d=1"];',
        '  v3 -- v4 [label="d=1"];',
    ]
