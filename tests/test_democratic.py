from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from helpers import random_two_factorization, set_partitions
from specialforms import (
    CapacityError,
    DistanceAssignment,
    DistanceMatrix,
    DomainError,
    Factorization,
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
    with pytest.raises(DomainError):
        Factorization((4, 1))
    assert Factorization((2, 3, 2)).factors == (3, 2, 2)
    assert Factorization((12,)).r == 12


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
    with pytest.raises(DomainError):
        classify_small(5, 2, 3)  # distance 3 cannot occur in degree 2


def test_classify_rejects_a_non_integer_alphabet():
    with pytest.raises(DomainError):
        classify_small(5, 2, alphabet=[1.9, 2])
    with pytest.raises(DomainError):
        classify_small(5, 2, alphabet=[1.0, 2])
    cat = classify_small(5, 2, alphabet=np.array([2, 1]))
    assert cat.to_dict() == classify_small(5, 2, alphabet=(1, 2)).to_dict()


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
