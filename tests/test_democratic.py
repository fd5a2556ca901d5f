from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from helpers import brute_classify, random_two_factorization, set_partitions
from specialforms import democratic
from specialforms import (
    CapacityError,
    DistanceAssignment,
    DistanceMatrix,
    DomainError,
    Factorization,
    SearchStats,
    SpecialFormsError,
    bell,
    circulant_matrix,
    classify_small,
    count_symmetry_families,
    curve_decomposition,
    cyclic_shift_generators,
    even_example_matrix,
    find_relabeling,
    is_democratic,
    is_predemocratic,
    product_matrix,
    symmetry_families,
)


def test_circulant_pentagon_entries():
    m = circulant_matrix(2, (1, 2))
    assert m.entries == (
        (0, 1, 2, 2, 1),
        (1, 0, 1, 2, 2),
        (2, 1, 0, 1, 2),
        (2, 2, 1, 0, 1),
        (1, 2, 2, 1, 0),
    )
    assert m.distances() == (1, 2)
    flag, counts = is_predemocratic(m)
    assert flag and counts == {1: 2, 2: 2}
    assert is_democratic(m)


def test_circulant_validation():
    with pytest.raises(DomainError):
        circulant_matrix(0, ())
    with pytest.raises(DomainError):
        circulant_matrix(2, (1,))
    with pytest.raises(DomainError):
        circulant_matrix(2, (1, 0))
    # repeated distance values are allowed
    m = circulant_matrix(3, (1, 1, 2))
    flag, counts = is_predemocratic(m)
    assert flag and counts == {1: 4, 2: 2}


def test_even_example_four_vertices():
    m = even_example_matrix(4, (1, 2, 3))
    assert m.entries == (
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    )
    flag, counts = is_predemocratic(m)
    assert flag and counts == {1: 1, 2: 1, 3: 1}
    assert is_democratic(m)


def test_even_example_validation():
    with pytest.raises(DomainError):
        even_example_matrix(5, (1, 2, 3, 4))
    with pytest.raises(DomainError):
        even_example_matrix(4, (1, 2))
    with pytest.raises(DomainError):
        even_example_matrix(4, (1, 2, 0))


def test_even_example_six_vertices_not_democratic():
    # with generic distances the construction stays predemocratic only
    for dist in ((1, 2, 3, 4, 5), (1, 2, 4, 8, 16), (2, 3, 5, 7, 11)):
        m = even_example_matrix(6, dist)
        flag, counts = is_predemocratic(m)
        assert flag and all(n == 1 for n in counts.values())
        assert not is_democratic(m)


def test_even_example_unique_on_four_vertices():
    """Among symmetric 4x4 matrices over {1,2,3} with three distinct values
    per row, every one is democratic and a relabeled even example."""
    targets = [
        even_example_matrix(4, perm) for perm in itertools.permutations((1, 2, 3))
    ]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    found = 0
    for vals in itertools.product((1, 2, 3), repeat=6):
        rows = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(pairs, vals):
            rows[i][j] = rows[j][i] = v
        m = DistanceMatrix.from_rows(rows)
        flag, counts = is_predemocratic(m)
        if not flag or set(counts.values()) != {1} or len(counts) != 3:
            continue
        found += 1
        assert is_democratic(m)
        assert any(find_relabeling(m, t) is not None for t in targets)
    assert found == 6


def _loop_circulant(distances):
    r = 2 * len(distances) + 1
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            gap = min((i - j) % r, (j - i) % r)
            rows[i][j] = rows[j][i] = distances[gap - 1]
    return rows


def _loop_even_example(distances):
    r = len(distances) + 1

    def dval(k):
        k = k % (r - 1)
        return distances[k - 1] if k >= 1 else distances[r - 2]

    rows = [[0] * r for _ in range(r)]
    for i in range(1, r):
        for j in range(i + 1, r):
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = dval(i + j - 2)
        rows[i - 1][r - 1] = rows[r - 1][i - 1] = dval(2 * i - 2)
    return rows


def _loop_shift_generators(factors):
    vertices = list(itertools.product(*(range(n) for n in factors)))
    index = {v: i for i, v in enumerate(vertices)}
    gens = []
    for axis in range(len(factors)):
        shifted = [list(v) for v in vertices]
        for v in shifted:
            v[axis] = (v[axis] + 1) % factors[axis]
        gens.append(tuple(index[tuple(v)] + 1 for v in shifted))
    return tuple(gens)


def test_constructions_match_entrywise_loop_references():
    """Seeded circulants (distances up to 10^20), even examples and products
    against the entry-by-entry loops they replaced."""
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(1, 9)
        dist = tuple(rng.randint(1, 10 ** rng.randint(1, 20)) for _ in range(n))
        m = circulant_matrix(n, dist)
        assert [list(row) for row in m.entries] == _loop_circulant(dist)
        one_factor = DistanceAssignment.from_sequence((2 * n + 1,), dist)
        assert product_matrix((2 * n + 1,), one_factor) == m

        r = 2 * rng.randint(1, 9)
        dist = tuple(rng.randint(1, 9) for _ in range(r - 1))
        m = even_example_matrix(r, dist)
        assert [list(row) for row in m.entries] == _loop_even_example(dist)

        k = rng.randint(1, 3)
        factors = sorted((rng.randint(2, 5) for _ in range(k)), reverse=True)
        orbits = DistanceAssignment.orbit_representatives(factors)
        values = [rng.randint(1, 6) for _ in orbits]
        a = DistanceAssignment.from_sequence(factors, values)
        m = product_matrix(factors, a)
        vertices = list(itertools.product(*(range(n) for n in factors)))
        for (i, u), (j, v) in itertools.product(enumerate(vertices), repeat=2):
            delta = [y - x for x, y in zip(u, v)]
            assert m.entries[i][j] == (a.value(delta) if i != j else 0)
        assert cyclic_shift_generators(factors) == _loop_shift_generators(factors)


def test_product_single_factor_is_circulant():
    assert product_matrix((5,)) == circulant_matrix(2, (1, 2))
    assert product_matrix((7,)) == circulant_matrix(3, (1, 2, 3))


def test_product_three_by_three():
    m = product_matrix((3, 3))
    assert m.r == 9
    flag, counts = is_predemocratic(m)
    assert flag and counts == {1: 2, 2: 2, 3: 2, 4: 2}
    assert is_democratic(m)
    dec = curve_decomposition(m)
    assert dec.all_uniform


def test_product_is_democratic_for_random_assignments():
    rng = random.Random(53)
    reps = DistanceAssignment.orbit_representatives((3, 3))
    assert len(reps) == 4
    for _ in range(5):
        dist = tuple(rng.randint(1, 4) for _ in reps)
        m = product_matrix((3, 3), DistanceAssignment.from_sequence((3, 3), dist))
        assert is_democratic(m)


def test_shift_generators_preserve_product_matrix():
    for factors in ((3, 3), (2, 2, 2)):
        m = product_matrix(factors)
        for gen in cyclic_shift_generators(factors):
            for v in range(m.r):
                for w in range(m.r):
                    assert m.entries[gen[v] - 1][gen[w] - 1] == m.entries[v][w]


def test_product_matrix_reads_an_assignment_in_any_factor_order():
    # the vertices are row-major in (3, 2) order, whatever the assignment's
    a = DistanceAssignment.sequential((2, 3))
    assert a.values == (((0, 1), 1), ((1, 0), 2), ((1, 1), 3))
    swapped = DistanceAssignment((3, 2), tuple(((y, x), v) for (x, y), v in a.values))
    m = product_matrix((2, 3), a)
    assert m == product_matrix((3, 2), swapped) == product_matrix(Factorization((3, 2)), a)
    assert m != product_matrix((3, 2))
    for gen in cyclic_shift_generators((2, 3)):
        assert all(m.entries[gen[v] - 1][gen[w] - 1] == m.entries[v][w]
                   for v in range(m.r) for w in range(m.r))
    assert is_democratic(m)
    rng = random.Random(27)
    for _ in range(20):
        given = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
        reps = DistanceAssignment.orbit_representatives(given)
        a = DistanceAssignment.from_sequence(given, [rng.randint(1, 6) for _ in reps])
        factors = sorted(given, reverse=True)
        order = sorted(range(len(given)), key=given.__getitem__, reverse=True)
        m = product_matrix(given, a)
        vertices = list(itertools.product(*(range(n) for n in factors)))
        for (i, u), (j, v) in itertools.product(enumerate(vertices), repeat=2):
            delta = [0] * len(given)
            for axis, (x, y) in zip(order, zip(u, v)):
                delta[axis] = y - x
            assert m.entries[i][j] == (a.value(delta) if i != j else 0)
    # a different multiset of factors is still refused
    with pytest.raises(DomainError, match=r"do not match \(2, 2\)"):
        product_matrix((2, 2), DistanceAssignment.sequential((4,)))
    with pytest.raises(DomainError, match="do not match"):
        product_matrix((3, 2), DistanceAssignment.sequential((2, 2)))


def test_distance_assignment_validation():
    assert DistanceAssignment.orbit_representatives((5,)) == ((1,), (2,))
    a = DistanceAssignment.sequential((5,))
    assert a.value((1,)) == 1 and a.value((4,)) == 1 and a.value((3,)) == 2
    with pytest.raises(DomainError):
        DistanceAssignment.from_sequence((5,), (1, 2, 3))
    with pytest.raises(DomainError):
        DistanceAssignment((5,), (((1,), 1),))  # orbit (2,) missing
    with pytest.raises(DomainError):
        DistanceAssignment.from_sequence((5,), (1, 0))
    b = DistanceAssignment.sequential((3, 5))
    assert b.value((1, 2)) == b.value((2, 3)) == b.value((4, -3)) == 5  # (2, 3) = -(1, 2)
    for delta in [(1, 2, 99), (1,), (3, -5)]:  # too long, too short, zero
        with pytest.raises(DomainError, match=r"is not a nonzero element of Z_\(3, 5\)"):
            b.value(delta)
    # factors below 2 are refused as Factorization refuses them
    for build in (
        lambda: DistanceAssignment((0,), ()),
        lambda: DistanceAssignment((3, 0), ()),
        lambda: DistanceAssignment.sequential((1,)),
        lambda: DistanceAssignment.orbit_representatives((2, -2)),
    ):
        with pytest.raises(DomainError, match="factors must be >= 2"):
            build()
    with pytest.raises(DomainError):
        Factorization((4, 1))
    with pytest.raises(DomainError):
        Factorization(())
    assert Factorization((2, 3, 2)).factors == (3, 2, 2)
    assert Factorization((12,)).r == 12


def test_cached_difference_orbits_keep_every_check(monkeypatch):
    good = DistanceAssignment.from_sequence((7,), (1, 2, 3))
    assert product_matrix((7,), good) == circulant_matrix(3, (1, 2, 3))
    # the orbits of Z_7 are cached now; each new assignment is still checked
    for values in (
        (((1,), 1), ((2,), 2)),  # orbit (3,) missing
        (((1,), 1), ((2,), 2), ((4,), 3)),  # (4,) is no representative
        (((1,), 1), ((2,), 2), ((3,), 0)),
    ):
        with pytest.raises(DomainError):
            DistanceAssignment((7,), values)
    with pytest.raises(DomainError):
        DistanceAssignment.from_sequence((7,), (1, 2))
    with pytest.raises(DomainError):
        product_matrix((7,), DistanceAssignment.sequential((5,)))
    monkeypatch.setattr(democratic, "MAX_VERTICES", 6)
    for build in (
        lambda: DistanceAssignment.from_sequence((7,), (1, 2, 3)),
        lambda: DistanceAssignment.orbit_representatives((7,)),
        lambda: circulant_matrix(3, (1, 2, 3)),
        lambda: product_matrix((7,), good),
    ):
        with pytest.raises(CapacityError):
            build()


def test_bell_matches_partition_enumeration():
    for m in range(9):
        assert bell(m) == len(list(set_partitions(list(range(m)))))
    assert [bell(m) for m in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    with pytest.raises(DomainError):
        bell(-1)


def test_symmetry_families():
    assert symmetry_families(4) == ((2, 2), (4,))
    assert symmetry_families(6) == ((3, 2), (6,))
    assert symmetry_families(12) == ((3, 2, 2), (4, 3), (6, 2), (12,))
    assert count_symmetry_families(30) == 5
    assert count_symmetry_families(13) == 1
    # squarefree counts are bell numbers of the prime multiplicity
    assert count_symmetry_families(2 * 3 * 5 * 7) == bell(4)
    with pytest.raises(DomainError):
        symmetry_families(1)
    with pytest.raises(CapacityError, match="vertex count of 5001 digits exceeds"):
        symmetry_families(10**5000)  # too long for str()


def _prime_factors(r: int) -> list[int]:
    out, f = [], 2
    while f * f <= r:
        while r % f == 0:
            out.append(f)
            r //= f
        f += 1
    return out + [r] if r > 1 else out


def test_symmetry_families_match_a_set_partition_oracle():
    """Each family groups the prime factors of r into blocks; listing every
    set partition of the prime factors and removing duplicates gives them."""
    for r in (*range(2, 130), 2**10, 30030, 9973, 864, 4004, 3**6):
        expected = sorted(
            {
                tuple(sorted((math.prod(block) for block in part), reverse=True))
                for part in set_partitions(_prime_factors(r))
            }
        )
        assert symmetry_families(r) == tuple(expected), r
        assert count_symmetry_families(r) == len(expected), r


def test_family_counts_of_prime_powers_are_partition_numbers():
    partitions = [1] + [0] * 30  # p(n) by the coin recurrence over parts 1..30
    for part in range(1, 31):
        for n in range(part, 31):
            partitions[n] += partitions[n - part]
    assert [count_symmetry_families(2**n) for n in range(1, 31)] == partitions[1:]
    assert (count_symmetry_families(4096), count_symmetry_families(8192)) == (77, 101)
    families = symmetry_families(2**30)
    assert len(families) == 5604 and len(set(families)) == 5604
    assert list(families) == sorted(families)


def test_bell_matches_the_binomial_recurrence():
    b = [1]
    for n in range(150):
        b.append(sum(math.comb(n, k) * b[k] for k in range(n + 1)))
    assert [bell(m) for m in range(151)] == b


def test_construction_caps_refuse_before_any_work(monkeypatch):
    start = time.perf_counter()
    for build in (
        lambda: product_matrix((40, 50)),
        lambda: product_matrix((2,) * 11),
        lambda: cyclic_shift_generators((10**9,)),
        lambda: circulant_matrix(10**12, range(1, 10**12 + 1)),
        lambda: even_example_matrix(10**12, range(1, 10**12)),
        lambda: DistanceAssignment.sequential((10**6, 10**6)),
        lambda: count_symmetry_families(democratic.MAX_FAMILY_VERTICES + 1),
        lambda: symmetry_families(10**30),
        lambda: symmetry_families(1036800),  # 20,741 families
        lambda: bell(democratic.MAX_BELL_M + 1),
        lambda: bell(10**12),
    ):
        with pytest.raises(CapacityError):
            build()
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(democratic, "MAX_VERTICES", 9)
    assert product_matrix((3, 3)).r == circulant_matrix(4, (1, 2, 3, 4)).r == 9
    assert even_example_matrix(8, range(1, 8)).r == 8
    for build in (
        lambda: product_matrix((2, 5)),
        lambda: cyclic_shift_generators((5, 2)),
        lambda: circulant_matrix(5, range(1, 6)),
        lambda: even_example_matrix(10, range(1, 10)),
        lambda: DistanceAssignment.from_sequence((11,), range(1, 6)),
    ):
        with pytest.raises(CapacityError):
            build()
    monkeypatch.setattr(democratic, "MAX_FAMILIES", 4)
    assert len(symmetry_families(12)) == 4
    assert count_symmetry_families(24) == 7
    with pytest.raises(CapacityError):
        symmetry_families(24)
    monkeypatch.setattr(democratic, "MAX_BELL_M", 10)
    assert bell(10) == 115975
    with pytest.raises(CapacityError):
        bell(11)


def test_classify_three_vertices():
    cat = classify_small(3, 2, 2)
    assert cat.candidate_count == 2
    assert len(cat.entries) == 2
    assert cat.theorem_verified
    for entry in cat.entries:
        assert entry.distances is not None and entry.witness is not None


def test_classify_five_vertices():
    cat = classify_small(5, 2, 2)
    assert cat.candidate_count == 12
    assert len(cat.entries) == 12
    assert cat.theorem_verified
    for entry in cat.entries:
        target = circulant_matrix(2, entry.distances)
        wit = entry.witness
        for v in range(5):
            for w in range(5):
                assert (
                    target.entries[wit[v] - 1][wit[w] - 1]
                    == entry.matrix.entries[v][w]
                )
    by_alphabet = classify_small(5, 2, alphabet=(1, 2))
    assert by_alphabet.candidate_count == cat.candidate_count
    assert by_alphabet.to_dict() == cat.to_dict()


def test_classify_validation():
    with pytest.raises(DomainError):
        classify_small(9, 3, 3)  # odd but composite
    with pytest.raises(CapacityError):
        classify_small(11, 5, 5)
    with pytest.raises(DomainError):
        classify_small(4, 2, 2)
    with pytest.raises(DomainError):
        classify_small(5, 0, 2)
    with pytest.raises(DomainError):
        classify_small(5, 2)  # no alphabet given
    with pytest.raises(DomainError, match="not both"):
        classify_small(5, 2, 2, alphabet=(1, 2))
    with pytest.raises(DomainError):
        classify_small(5, 2, 3)  # distance 3 cannot occur in degree 2
    with pytest.raises(DomainError):
        classify_small(5, 2, 0)
    with pytest.raises(DomainError):
        classify_small(5, 2, alphabet=(0,))
    with pytest.raises(DomainError, match="alphabet must not be empty"):
        classify_small(5, 2, alphabet=[])
    with pytest.raises(SpecialFormsError):
        classify_small(10**400 + 1, 3, 3)  # larger than any float
    with pytest.raises(CapacityError, match="count of 5001 digits exceeds the cap"):
        classify_small(10**5000 + 1, 3, 3)  # too long for str()


def test_classify_rejects_a_non_integer_alphabet():
    with pytest.raises(DomainError):
        classify_small(5, 2, alphabet=[1.9, 2])
    with pytest.raises(DomainError):
        classify_small(5, 2, alphabet=[1.0, 2])
    cat = classify_small(5, 2, alphabet=np.array([2, 1]))
    assert cat.to_dict() == classify_small(5, 2, alphabet=(1, 2)).to_dict()


@pytest.mark.parametrize(
    "args, counts",
    [
        ((7, 3, 3), (185539, 13950, 329229, 720)),
        ((5, 2, 2), (109, 12, 86, 12)),
        ((5, 3, 3), (109, 36, 86, 36)),
        ((3, 2, 2), (4, 2, 0, 2)),
        ((7, 3, 2), (1, 0, 0, 0)),
    ],
)
def test_classify_stats_walk_the_recursive_search_tree(args, counts):
    """Counts taken on a one-call-per-node recursive search of the tree over
    the ranks 1..q, walked once whatever the alphabet, with the candidates
    counted once per value set: equal node counts show that the level-wise
    enumeration walks it.  With no value set only the root is entered."""
    stats = SearchStats()
    cat = classify_small(*args, stats=stats)
    assert (stats.nodes, stats.leaves, stats.pruned, stats.solutions) == counts
    assert (cat.candidate_count, len(cat.entries)) == (counts[1], counts[3])
    classify_small(*args, stats=stats)
    assert stats.nodes == 2 * counts[0] and stats.solutions == 2 * counts[3]


def test_classify_walks_the_rank_tree_once_whatever_the_alphabet():
    stats = SearchStats()
    cat = classify_small(7, 5, 5, stats=stats)
    assert stats.nodes == 185539 and stats.pruned == 329229
    assert cat.candidate_count == stats.leaves == math.comb(5, 3) * 13950


@pytest.mark.parametrize(
    "r, p, alphabet",
    [
        (3, 2, (1, 2)),
        (5, 2, (1, 2)),
        (5, 3, (1, 2, 3)),
        (3, 9, (2, 5, 9)),
        (5, 9, (2, 5, 9)),
    ],
)
def test_classify_matches_brute_force(r, p, alphabet):
    count, democratic_matrices = brute_classify(r, alphabet)
    cat = classify_small(r, p, alphabet=alphabet)
    assert cat.candidate_count == count
    assert [e.matrix for e in cat.entries] == democratic_matrices


def test_classify_tests_democracy_only_where_no_circulant_matches(monkeypatch):
    tested = []

    def stub(m):  # a stand-in verdict, so that some candidates fail it
        tested.append(m)
        return m.entries[0][1] == 1

    monkeypatch.setattr(democratic, "is_democratic", stub)
    assert classify_small(5, 2, 2).theorem_verified and not tested
    monkeypatch.setattr(democratic, "find_relabeling", lambda src, dst: None)
    cat = classify_small(5, 2, 2)
    assert len(tested) == 12
    assert [e.matrix for e in cat.entries] == [m for m in tested if m.entries[0][1] == 1]
    assert 0 < len(cat.entries) < 12
    assert all(e.witness is None for e in cat.entries) and not cat.theorem_verified


def test_classify_seven_vertices_output_is_pinned():
    data = json.dumps(classify_small(7, 3, 3).to_dict()).encode()
    assert hashlib.sha256(data).hexdigest() == (
        "25329481ef6d88828556bf2e4d5b78692ca17d4aa0aa6ac4ed1dcb1c0e153c14"
    )


@pytest.mark.parametrize(
    "args, digest",
    [
        ((7, 4, 4), "8f437dcd7890168ee75bb2591bf08daac2558906f11bb4e811fd650ab9a785eb"),
        ((5, 6, 6), "b78ff80bd5aa7717134b8ec301869b12d55e2ea7599afd596df793117096eb8d"),
    ],
)
def test_classify_output_over_several_value_sets_is_pinned(args, digest):
    """Each value set's catalog is renamed from the ranks and all are merged,
    so a slip in the renaming or in the merge order moves the digest."""
    data = json.dumps(classify_small(*args).to_dict()).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_classify_refuses_too_many_candidates_before_enumerating(monkeypatch):
    start = time.perf_counter()
    for args, kw in (
        ((7, 10, 10), {}),  # C(10, 3) * 13,950 candidates
        ((7, 9), {"alphabet": range(1, 10)}),
        ((5, 10**9, 10**9), {}),
        ((3, 10**12, 10**12), {}),
        ((3, 10**40, 10**40), {}),  # more distances than a range's len() takes
        ((7, 10**40, 10**40), {}),
    ):
        with pytest.raises(CapacityError):
            classify_small(*args, **kw)
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(democratic, "MAX_CANDIDATES", 36)
    assert classify_small(5, 3, 3).candidate_count == 36
    with pytest.raises(CapacityError):
        classify_small(5, 4, 4)  # 72 candidates


def _loop_triangles_at(entries, v) -> list[tuple[int, int, int]]:
    """Vertex v's triangles, sorted: (shorter, longer side at v, opposite side)."""
    others = [x for x in range(len(entries)) if x != v]
    return sorted(
        (*sorted((entries[v][a], entries[v][b])), entries[a][b])
        for a, b in itertools.combinations(others, 2)
    )


def test_triangle_filter_matches_a_loop_reference():
    """The filter's verdict, and the vertex-0 keys it hands to the target
    skip, both agree with a loop over every vertex's triangles."""
    rng = random.Random(61)
    mats = []
    for perm in itertools.permutations((1, 2, 3)):
        sigma = list(range(7))
        rng.shuffle(sigma)
        e = circulant_matrix(3, perm).entries
        mats.append([[e[sigma[v]][sigma[w]] for w in range(7)] for v in range(7)])
    while len(mats) < 200:
        classes = random_two_factorization(rng, 7)
        if classes is None:
            continue
        rows = [[0] * 7 for _ in range(7)]
        for dist, cls in enumerate(classes, start=1):
            for edge in cls:
                a, b = sorted(edge)
                rows[a][b] = rows[b][a] = dist
        mats.append(rows)
    same, keys = democratic._same_triangles(np.array(mats, dtype=np.int8) - 1, 3)
    first = [_loop_triangles_at(m, 0) for m in mats]
    assert same.tolist() == [
        all(_loop_triangles_at(m, v) == t for v in range(7)) for m, t in zip(mats, first)
    ]
    assert 6 <= sum(same) < len(mats)
    # ranks 0..2 read in base 3, an encoding that keeps the sorted order
    code = [[((a - 1) * 3 + b - 1) * 3 + c - 1 for a, b, c in t] for t in first]
    assert keys.tolist() == code


@pytest.mark.parametrize(
    "args, kw",
    [((5, 2, 2), {}), ((7, 3, 3), {}), ((5, 9), {"alphabet": (2, 5, 9)})],
    ids=["5-ranks", "7-ranks", "5-gapped-alphabet"],
)
def test_circulants_are_skipped_exactly_where_no_relabeling_exists(args, kw, monkeypatch):
    """Every search classify_small makes finds a relabeling, and on every
    catalog entry (the filter's survivors, renamed) a circulant's vertex-0
    triangles differ from the entry's exactly when find_relabeling fails."""
    hits = []

    def recording(src, dst):
        wit = find_relabeling(src, dst)
        hits.append(wit is not None)
        return wit

    monkeypatch.setattr(democratic, "find_relabeling", recording)
    cat = classify_small(*args, **kw)
    q = (cat.r - 1) // 2
    assert all(hits) and len(hits) * math.comb(len(cat.alphabet), q) == len(cat.entries)
    pairs = 0
    for e in cat.entries:
        rows = e.matrix.entries
        mine = _loop_triangles_at(rows, 0)
        for perm in itertools.permutations(sorted(set(rows[0][1:]))):
            target = circulant_matrix(q, perm)
            fits = _loop_triangles_at(target.entries, 0) == mine
            assert fits == (find_relabeling(e.matrix, target) is not None)
            pairs += 1
    assert pairs == len(cat.entries) * math.factorial(q)


@pytest.mark.parametrize(
    "build",
    [
        lambda: circulant_matrix(2, (1.5, 2)),
        lambda: Factorization((3.7, 2)),
        lambda: even_example_matrix(4, (1.5, 2, 3)),
        lambda: DistanceAssignment.from_sequence((3,), (1.7,)),
        lambda: DistanceAssignment((3,), (((1.2,), 1),)),
        lambda: DistanceAssignment.sequential((5,)).value((1.5,)),
        lambda: classify_small(5.0, 2, 2),
        lambda: classify_small(5, 2, 2.0),
        lambda: symmetry_families(6.0),
        lambda: count_symmetry_families(6.0),
        lambda: bell(2.5),
        lambda: circulant_matrix(2.0, (1, 2)),
        lambda: even_example_matrix(4.0, (1, 2, 3)),
    ],
    ids=[
        "circulant", "factorization", "even-example", "from-sequence",
        "assignment", "assignment-value", "classify-r", "classify-max-distance",
        "families-r", "count-r", "bell-m", "circulant-n", "even-example-r",
    ],
)
def test_democratic_inputs_reject_non_integers(build):
    with pytest.raises(DomainError):
        build()


def test_democratic_inputs_accept_numpy_integers():
    assert circulant_matrix(2, np.array([1, 2])) == circulant_matrix(2, (1, 2))
    assert Factorization(np.array([2, 3])).factors == (3, 2)
    even = even_example_matrix(4, np.array([1, 2, 3]))
    assert even == even_example_matrix(4, (1, 2, 3))
    a = DistanceAssignment.from_sequence(np.array([3]), np.array([1]))
    assert a.values == (((1,), 1),) and type(a.values[0][1]) is int
    assert a.value(np.array([2])) == 1
    assert classify_small(np.int64(5), 2, np.int64(2)).candidate_count == 12
    assert symmetry_families(np.int64(12)) == symmetry_families(12)
    assert count_symmetry_families(np.int64(30)) == 5
    assert bell(np.int64(7)) == 877
    assert circulant_matrix(np.int64(2), (1, 2)) == circulant_matrix(2, (1, 2))
    assert even_example_matrix(np.int64(4), (1, 2, 3)) == even


def test_democratic_samples_on_nine_vertices_match_known_families():
    """Randomized probe: among matrices with every distance twice per row on
    nine vertices, each democratic sample relabels onto a cyclic or product
    difference construction."""
    rng = random.Random(59)
    targets = [
        circulant_matrix(4, perm) for perm in itertools.permutations((1, 2, 3, 4))
    ] + [
        product_matrix((3, 3), DistanceAssignment.from_sequence((3, 3), perm))
        for perm in itertools.permutations((1, 2, 3, 4))
    ]
    sampled = democratic_hits = 0
    for _ in range(40):
        classes = random_two_factorization(rng, 9)
        if classes is None:
            continue
        rows = [[0] * 9 for _ in range(9)]
        for dist, cls in enumerate(classes, start=1):
            for edge in cls:
                a, b = sorted(edge)
                rows[a][b] = rows[b][a] = dist
        m = DistanceMatrix.from_rows(rows)
        flag, counts = is_predemocratic(m)
        assert flag and set(counts.values()) == {2}
        sampled += 1
        if is_democratic(m):
            democratic_hits += 1
            assert any(find_relabeling(m, t) is not None for t in targets)
    assert sampled >= 20
    # the known constructions themselves must of course be hit by the check
    for t in (targets[0], targets[-1]):
        assert is_democratic(t)
        assert any(find_relabeling(t, u) is not None for u in targets)
