from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
import pytest

from helpers import (
    all_admissible_matrices,
    fano_matrix,
    graph_function_invariant,
    oracle_solve,
)
from specialforms import (
    CapacityError,
    DistanceMatrix,
    DomainError,
    GraphFunction,
    PreconditionError,
    Realization,
    OrientedSubset,
    SearchStats,
    circulant_matrix,
    classify_small,
    equivalent,
    forms_of,
    graph_of_form,
    is_admissible,
    lift_symmetry,
    realize,
    solve,
    verify,
)
from specialforms import realization
from specialforms.realization import _search_tables


def test_graph_function_basics():
    f = GraphFunction(3, 2, (((1, 2), 1), ((1, 3), 1), ((2, 3), 1)))
    assert f.dimension == 3
    assert f.value((2, 1)) == 1
    assert f.value((1,)) == 0
    assert f.vertex_sums() == (2, 2, 2)
    f.check()
    assert f.induced_matrix().entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert GraphFunction.from_dict(f.to_dict()) == f


def test_graph_function_validation():
    with pytest.raises(DomainError):
        GraphFunction(3, 2, (((1, 2), -1),))
    with pytest.raises(DomainError):
        GraphFunction(3, 2, (((1, 2, 3), 1),))  # improper subset
    with pytest.raises(DomainError):
        GraphFunction(3, 2, (((2, 1), 1),))
    with pytest.raises(DomainError):
        GraphFunction(3, 2, (((1, 2), 1), ((1, 2), 2)))
    with pytest.raises(DomainError):
        GraphFunction(0, 2, ())
    with pytest.raises(DomainError):
        GraphFunction(3, 0, ())
    with pytest.raises(DomainError):
        GraphFunction(3, 2, (((2, 4), 1),))  # vertex 4 of 3
    with pytest.raises(PreconditionError):
        GraphFunction(3, 2, (((1, 2), 1),)).check()  # vertex 3 uncovered


def test_solve_triangle_of_ones():
    m = DistanceMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    sols = solve(m, 2)
    assert len(sols) == 1
    assert sols[0].values == (((1, 2), 1), ((1, 3), 1), ((2, 3), 1))
    assert sols[0].dimension == 3


def test_solve_two_vertices():
    # with two vertices no proper subset contains both, so d(1,2) must be p
    far = DistanceMatrix.from_rows([[0, 2], [2, 0]])
    sols = solve(far, 2)
    assert len(sols) == 1
    assert sols[0].values == (((1,), 2), ((2,), 2))
    near = DistanceMatrix.from_rows([[0, 1], [1, 0]])
    assert solve(near, 2) == []


def test_solve_single_vertex():
    assert solve(DistanceMatrix.from_rows([[0]]), 2) == []


def test_solve_pentagon():
    sols = solve(circulant_matrix(2, (1, 2)), 2)
    assert len(sols) == 1
    assert sols[0].values == (
        ((1, 2), 1),
        ((1, 5), 1),
        ((2, 3), 1),
        ((3, 4), 1),
        ((4, 5), 1),
    )


def test_solve_four_vertices_all_one():
    m = DistanceMatrix.from_rows([[0 if i == j else 1 for j in range(4)] for i in range(4)])
    sols = solve(m, 3)
    assert len(sols) == 1
    assert sols[0].values == (
        ((1, 2, 3), 1),
        ((1, 2, 4), 1),
        ((1, 3, 4), 1),
        ((2, 3, 4), 1),
    )


def test_solve_validation():
    m = circulant_matrix(2, (1, 2))
    with pytest.raises(DomainError):
        solve(m, 0)
    with pytest.raises(DomainError):
        solve(m, 2, d_filter=-1)
    all_two = DistanceMatrix.from_rows(
        [[0 if i == j else 2 for j in range(8)] for i in range(8)]
    )
    st = SearchStats()
    for p, d_filter in ((3.0, None), ("3", None), (True, None), (3, 6.0), (3, True)):
        with pytest.raises(DomainError):
            solve(all_two, p, d_filter, stats=st)
    assert st == SearchStats()  # refused before the search
    with pytest.raises(PreconditionError):
        solve(m, 1)  # a distance exceeds the degree
    bad = DistanceMatrix.from_rows([[0, 1, 1], [1, 0, 3], [1, 3, 0]])
    with pytest.raises(PreconditionError):
        solve(bad, 3)
    big = DistanceMatrix.from_rows(
        [[0 if i == j else 1 for j in range(9)] for i in range(9)]
    )
    with pytest.raises(CapacityError):
        solve(big, 2)


def test_solve_matches_independent_oracle_spot_checks():
    for m in all_admissible_matrices(3, 2):
        for p in (2, 3):
            assert [f.values for f in solve(m, p)] == oracle_solve(m, p)
    rng = random.Random(43)
    mats = list(all_admissible_matrices(4, 2))
    for m in rng.sample(mats, 8):
        assert [f.values for f in solve(m, 2)] == oracle_solve(m, 2)


def all_two(r: int) -> DistanceMatrix:
    return DistanceMatrix.from_rows(
        [[0 if i == j else 2 for j in range(r)] for i in range(r)]
    )


def test_solve_matches_independent_oracle_on_five_vertices():
    # 20 matrices with entries <= 2 at p = 2 and 20 with a 3 entry at p = 3
    mats = list(all_admissible_matrices(5, 3))
    rng = random.Random(53)
    for top in (2, 3):
        group = [m for m in mats if max(map(max, m.entries)) == top]
        for m in rng.sample(group, 20):
            assert [f.values for f in solve(m, top)] == oracle_solve(m, top)


def test_solve_all_two_counts():
    for r, p, count in ((5, 3, 15), (6, 4, 210), (7, 3, 30), (8, 3, 0)):
        assert len(solve(all_two(r), p)) == count


def test_solve_stats():
    # without the pair-budget bound the r = 8 search visits 4,377,898 nodes
    stats = SearchStats()
    assert solve(all_two(8), 3, stats=stats) == []
    assert stats == SearchStats(nodes=38306, leaves=0, pruned=849, solutions=0)
    assert stats.nodes * 10 <= 4_377_898
    # a second call adds to the same object
    assert len(solve(all_two(7), 3, stats=stats)) == 30
    assert stats == SearchStats(nodes=50777, leaves=57, pruned=1949, solutions=30)
    filtered = SearchStats()
    assert solve(fano_matrix(), 3, d_filter=6, stats=filtered) == []
    assert filtered.leaves == 57 and filtered.solutions == 0


def _values_digest(solutions) -> str:
    return hashlib.sha256(repr([f.values for f in solutions]).encode()).hexdigest()[:16]


# Every all-2 row up to the vertex cap: (r, p, solutions, nodes, leaves,
# pruned, digest of the solution values).  A change to the cost of a node
# must leave the tree, and so every figure here, as it is.
ALL_TWO_ROWS = [
    (1, 2, 0, 0, 0, 0, '4f53cda18c2baa0c'),
    (1, 3, 0, 0, 0, 0, '4f53cda18c2baa0c'),
    (1, 4, 0, 0, 0, 0, '4f53cda18c2baa0c'),
    (2, 2, 1, 1, 1, 0, 'f67e1ac0582e2d7b'),
    (2, 3, 0, 1, 1, 0, '4f53cda18c2baa0c'),
    (2, 4, 0, 1, 1, 0, '4f53cda18c2baa0c'),
    (3, 2, 1, 1, 1, 0, '736c6754ef8de2d9'),
    (3, 3, 1, 1, 1, 0, '9d80a65f1e2e30e8'),
    (3, 4, 1, 1, 1, 0, '8a6ae473312128b8'),
    (4, 2, 1, 5, 1, 0, '1fdc9904a93f9d44'),
    (4, 3, 5, 15, 5, 0, 'b86d9a6d7dd4483b'),
    (4, 4, 5, 32, 11, 4, '80586c8990de3095'),
    (5, 2, 1, 16, 1, 0, 'f422c5a02c83a191'),
    (5, 3, 15, 162, 21, 6, '5bacbdfcd48330d9'),
    (5, 4, 45, 1078, 93, 209, '438087dfaba0cfde'),
    (6, 2, 1, 42, 1, 0, 'e095b89c99d135ee'),
    (6, 3, 30, 1446, 54, 119, '90da3aff84e10352'),
    (6, 4, 210, 10428, 285, 927, 'dd5939f23fd93206'),
    (7, 2, 1, 99, 1, 0, 'ff38838cc0fb7f5b'),
    (7, 3, 30, 12471, 57, 1100, '6de3e6add4f278fd'),
    (7, 4, 450, 175821, 474, 17024, '59a4f9f9554ee719'),
    (8, 2, 1, 219, 1, 0, '4ecdb5b211df3183'),
    (8, 3, 0, 38306, 0, 849, '4f53cda18c2baa0c'),
    (8, 4, 0, 1607524, 0, 61965, '4f53cda18c2baa0c'),
]


@pytest.mark.parametrize(
    "r, p, count, nodes, leaves, pruned, digest",
    ALL_TWO_ROWS,
    ids=[f"r{r}-p{p}" for r, p, *_ in ALL_TWO_ROWS],
)
def test_solve_pinned_on_the_all_two_rows(r, p, count, nodes, leaves, pruned, digest):
    stats = SearchStats()
    solutions = solve(all_two(r), p, stats=stats)
    assert stats == SearchStats(nodes, leaves, pruned, count)
    assert len(solutions) == count
    assert _values_digest(solutions) == digest


def test_solve_pinned_on_the_r7_catalog():
    stats = SearchStats()
    solutions = [
        f
        for entry in classify_small(7, 3, 3).entries
        if is_admissible(entry.matrix)
        for f in solve(entry.matrix, 3, stats=stats)
    ]
    assert stats == SearchStats(nodes=60172, leaves=432, pruned=4716, solutions=360)
    assert _values_digest(solutions) == "cb6c82219c65eabb"


def test_solve_tables_are_cached_and_equal_fresh_ones():
    fresh = _search_tables.__wrapped__
    for r in range(2, 9):
        assert solve(all_two(r), 2)  # a search ran on the cached tables
        pairs, branch, drops = _search_tables(r)
        assert _search_tables(r) is _search_tables(r)
        assert (pairs, branch, drops) == fresh(r)
        assert pairs == tuple(itertools.combinations(range(r), 2))
        assert [members for members, _, _ in branch] == [
            c
            for size in range(r - 1, 2, -1)
            for c in itertools.combinations(range(r), size)
        ]
        for members, internal, s1 in branch:
            assert [pairs[q] for q in internal] == list(
                itertools.combinations(members, 2)
            )
            assert s1 == len(members) - 1
        assert len(drops) == len(branch)
        assert all(type(t) is tuple for t in (pairs, branch, drops, *drops))


def test_dimension_filter():
    m = fano_matrix()
    assert len(solve(m, 3)) == 30
    assert len(solve(m, 3, d_filter=7)) == 30
    assert len(solve(m, 3, d_filter=6)) == 0
    # filtering by each occurring dimension partitions the solution list
    m2 = circulant_matrix(2, (1, 2))
    all_sols = solve(m2, 3)
    dims = sorted({f.dimension for f in all_sols})
    assert sum(len(solve(m2, 3, d_filter=d)) for d in dims) == len(all_sols)


def test_realize_round_trip():
    rng = random.Random(47)
    mats = list(all_admissible_matrices(4, 2))
    for m in rng.sample(mats, 10):
        for f in solve(m, 2):
            real = realize(f)
            assert real.d == f.dimension
            rep = verify(real, m)
            assert rep.ok and rep.failures == ()
            assert realize(f) == real  # deterministic
            assert Realization.from_dict(real.to_dict()) == real


def test_realize_pentagon_blocks():
    f = solve(circulant_matrix(2, (1, 2)), 2)[0]
    real = realize(f)
    assert real.d == 5
    assert [s.indices for s in real.subsets] == [
        (1, 2),
        (1, 3),
        (3, 4),
        (4, 5),
        (2, 5),
    ]
    assert real.blocks == (
        ((1, 2), (1,)),
        ((1, 5), (2,)),
        ((2, 3), (3,)),
        ((3, 4), (4,)),
        ((4, 5), (5,)),
    )
    bad = real.to_dict()
    bad["blocks"][0]["indices"] = [1.5]
    with pytest.raises(DomainError):
        Realization.from_dict(bad)
    short = {"r": 3, "p": 1, "d": 1, "subsets": [[1]], "blocks": []}
    with pytest.raises(DomainError):
        Realization.from_dict(short)


def test_realization_reads_r_p_and_d_as_integers():
    with pytest.raises(DomainError):
        Realization(1.5, "x", None, (), ())
    with pytest.raises(DomainError):
        Realization(2, 1, 2.0, (), ())
    with pytest.raises(DomainError):
        Realization(0, 0, 0, (), ())
    one = np.int64(1)
    real = Realization(one, one, one, (OrientedSubset((1,)),), ())
    assert (real.r, real.p, real.d) == (1, 1, 1) and type(real.d) is int


def test_verify_reports_failures():
    m = circulant_matrix(2, (1, 2))
    real = realize(solve(m, 2)[0])
    wrong_matrix = circulant_matrix(2, (2, 1))
    rep = verify(real, wrong_matrix)
    assert not rep.ok
    assert any("distance" in x for x in rep.failures)

    broken = Realization(
        r=real.r,
        p=real.p,
        d=real.d + 1,  # index 6 never covered
        subsets=real.subsets,
        blocks=real.blocks,
    )
    rep = verify(broken, m)
    assert not rep.ok
    assert any("cover" in x for x in rep.failures)

    overlapping = Realization(
        r=real.r,
        p=real.p,
        d=real.d,
        subsets=real.subsets,
        blocks=real.blocks + (((1, 2), (1,)),),
    )
    rep = verify(overlapping, m)
    assert not rep.ok
    assert any("overlap" in x for x in rep.failures)

    rep = verify(real, circulant_matrix(1, (1,)))
    assert rep.failures == ("vertex count 5 != matrix size 3",)
    oversized = Realization(
        r=real.r, p=real.p + 1, d=real.d, subsets=real.subsets, blocks=real.blocks
    )
    rep = verify(oversized, m)
    assert not rep.ok
    assert any("does not have size 3" in x for x in rep.failures)


def _relabel_indices(real: Realization, perm: dict[int, int]) -> Realization:
    return Realization(
        r=real.r,
        p=real.p,
        d=real.d,
        subsets=tuple(
            OrientedSubset(tuple(sorted(perm[i] for i in s.indices)))
            for s in real.subsets
        ),
        blocks=tuple(
            (s, tuple(sorted(perm[i] for i in idx))) for s, idx in real.blocks
        ),
    )


def test_equivalent():
    real = realize(solve(circulant_matrix(2, (1, 2)), 2)[0])
    relabeled = _relabel_indices(real, {i: 6 - i for i in range(1, 6)})
    assert equivalent(real, relabeled)
    assert equivalent(relabeled, real)
    # two distinct labeled solutions of the all-2 matrix share no index fibers
    a, b = solve(fano_matrix(), 3)[:2]
    assert not equivalent(realize(a), realize(b))
    assert not equivalent(real, realize(a))  # unequal (r, p, d)


def _sign_classes_by_enumeration(real: Realization):
    """Orbits of {-1,+1}^r under coordinate-axis flips, as bitmask sets."""
    order = sorted(range(real.r), key=lambda v: real.subsets[v].indices)
    w = real.r
    span = {0}
    for i in range(1, real.d + 1):
        bits = 0
        for pos, v in enumerate(order):
            if i in real.subsets[v].indices:
                bits |= 1 << (w - 1 - pos)
        span |= {s ^ bits for s in span}
    orbits = []
    seen = set()
    for eps in range(2**w):
        if eps in seen:
            continue
        orbit = {eps ^ s for s in span}
        seen |= orbit
        orbits.append(orbit)
    return orbits


def test_forms_of_matches_orbit_enumeration():
    cases = [
        (circulant_matrix(2, (1, 2)), 2),
        (DistanceMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), 2),
        (DistanceMatrix.from_rows([[0, 2], [2, 0]]), 2),
        (DistanceMatrix.from_rows([[0 if i == j else 1 for j in range(4)] for i in range(4)]), 3),
    ]
    for m, p in cases:
        for f in solve(m, p):
            real = realize(f)
            forms = forms_of(real)
            orbits = _sign_classes_by_enumeration(real)
            assert len(forms) == len(orbits)
            order = sorted(range(real.r), key=lambda v: real.subsets[v].indices)
            w = real.r
            signs = dict()
            for form in forms:
                by_subset = {s.indices: g for s, g in form.terms}
                eps = 0
                for pos, v in enumerate(order):
                    if by_subset[real.subsets[v].indices] < 0:
                        eps |= 1 << (w - 1 - pos)
                signs[eps] = form
            # exactly one representative per orbit, and it is the orbit minimum
            for orbit in orbits:
                hits = orbit & set(signs)
                assert len(hits) == 1
                assert hits.pop() == min(orbit)
            # term order sorts the subsets, so the form's graph is m with
            # its vertices renamed accordingly
            for form in forms:
                assert form.terms[0][1] == 1
                got = graph_of_form(form)
                for a, v in enumerate(order):
                    for b, u in enumerate(order):
                        assert got.entries[a][b] == m.entries[v][u]
    # free sign bits 3 and 0, not the lowest ones: the orbit minima, ascending
    rows = [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4)]
    real = Realization(6, 2, 5, tuple(map(OrientedSubset, rows)), ())
    got = [
        sum(1 << (5 - t) for t, (_, g) in enumerate(form.terms) if g < 0)
        for form in forms_of(real)
    ]
    assert got == sorted(min(o) for o in _sign_classes_by_enumeration(real))
    assert got == [0b000000, 0b000001, 0b001000, 0b001001]


def test_forms_of_class_cap(monkeypatch):
    real = realize(solve(circulant_matrix(2, (1, 2)), 2)[0])
    assert len(forms_of(real)) == 2
    monkeypatch.setattr(realization, "DEFAULT_SIGN_CLASS_BIT_CAP", 0)
    with pytest.raises(CapacityError):
        forms_of(real)


def test_induced_matrix_refuses_a_distance_of_zero():
    f = GraphFunction(3, 1, (((1, 2), 1), ((3,), 1)))
    f.check()  # every vertex sum is p
    with pytest.raises(DomainError, match=r"off-diagonal entry \(1,2\) must be >= 1"):
        f.induced_matrix()


def test_forms_of_refuses_what_the_realization_does_not_check():
    e12 = OrientedSubset((1, 2))
    with pytest.raises(DomainError, match="duplicate term e12"):
        forms_of(Realization(2, 2, 2, (e12, e12), ()))
    with pytest.raises(DomainError, match="degree"):
        forms_of(Realization(1, 3, 2, (e12,), ()))


def test_lift_symmetry_pentagon_rotation():
    f = solve(circulant_matrix(2, (1, 2)), 2)[0]
    sigma = (2, 3, 4, 5, 1)
    perm = lift_symmetry(f, sigma)
    assert sorted(perm) == [1, 2, 3, 4, 5]
    real = realize(f)
    for v in range(1, 6):
        mapped = tuple(sorted(perm[i - 1] for i in real.subsets[v - 1].indices))
        assert mapped == real.subsets[sigma[v - 1] - 1].indices


def test_lift_symmetry_rejects_bad_input():
    f = solve(circulant_matrix(2, (1, 2)), 2)[0]
    with pytest.raises(DomainError):
        lift_symmetry(f, (1, 1, 3, 4, 5))
    with pytest.raises(PreconditionError):
        lift_symmetry(f, (2, 1, 3, 4, 5))  # sends {2,3} to the unweighted {1,3}


def test_is_invariant_matches_oracle():
    rng = random.Random(59)
    sols = solve(fano_matrix(), 3)
    fano_line_map = (2, 3, 4, 5, 6, 7, 1)  # x -> x + 1 mod 7 on 1-based labels
    hits = 0
    for f in sols:
        shuffles = [tuple(rng.sample(range(1, 8), 7)) for _ in range(20)]
        for sigma in [fano_line_map] + shuffles:
            got = f.is_invariant(sigma)
            assert got == graph_function_invariant(f, sigma)
            hits += got
    assert hits > 0
    f = sols[0]
    assert f.is_invariant(tuple(range(1, 8)))
    for bad in ((1, 1, 3, 4, 5, 6, 7), (1, 2, 3), (1.0, 2, 3, 4, 5, 6, 7)):
        with pytest.raises(DomainError):
            f.is_invariant(bad)


def test_graph_function_rejects_non_integers():
    good = {"r": 3, "p": 2, "values": [{"subset": [1, 2], "f": 1}]}
    assert GraphFunction.from_dict(good).values == (((1, 2), 1),)
    with pytest.raises(DomainError):
        GraphFunction.from_dict(
            {"r": 3, "p": 2, "values": [{"subset": [1.9, 2], "f": 1}]}
        )
    with pytest.raises(DomainError):
        GraphFunction.from_dict(
            {"r": 3, "p": 2, "values": [{"subset": [1, 2], "f": 1.5}]}
        )
    with pytest.raises(DomainError):
        GraphFunction.from_dict({"r": 3.0, "p": 2, "values": []})


def test_graph_function_rejects_non_integer_r_and_p():
    with pytest.raises(DomainError):
        GraphFunction(3.5, 2, ())
    with pytest.raises(DomainError):
        GraphFunction(3, 2.0, ())
    f = GraphFunction(np.int64(3), np.int32(2), (((1, 2), 1),))
    assert f == GraphFunction(3, 2, (((1, 2), 1),))
    assert type(f.r) is int and type(f.p) is int


def test_graph_function_value_rejects_non_integer_vertices():
    f = GraphFunction(3, 2, (((1, 2), 1),))
    with pytest.raises(DomainError):
        f.value([1.5, 2.7])
    with pytest.raises(DomainError):
        f.value([1.0, 2])
    assert f.value(np.array([2, 1])) == 1
    assert f.value((np.int64(1), 3)) == 0


def test_lift_symmetry_identity_on_every_solution():
    for f in itertools.islice(iter(solve(fano_matrix(), 3)), 5):
        perm = lift_symmetry(f, tuple(range(1, 8)))
        assert perm == tuple(range(1, realize(f).d + 1))
