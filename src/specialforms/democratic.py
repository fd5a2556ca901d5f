"""Constructions and classification of democratic distance matrices.

A matrix is democratic when its automorphism group is vertex-transitive.
Difference matrices over products of cyclic groups, circulants being the
one-factor case, give the standard families; `symmetry_families` splits a
vertex count into cyclic factors by a recursion over its divisors.
`classify_small` exhaustively enumerates the candidates whose rows all hold
the same values, each twice, for small odd prime vertex counts and checks
that each democratic one is a relabeled circulant; it classifies once over
the ranks of the values and renames that catalog for each value set.  Each
construction checks a module cap before any work and raises CapacityError
above it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .errors import DomainError, as_factors, as_ints, check_cap, unchecked
from .forms import SearchStats
from .graphs import DistanceMatrix, find_relabeling, is_democratic

if TYPE_CHECKING:  # numpy is imported by the functions that use it
    import numpy as np

# Caps, checked before any work: group order and matrix size, r for the
# family counts, families listed at once, and m for bell(m), which must stay
# below 1981, where its value passes Python's 4,300-digit int-to-str limit.
MAX_VERTICES = 1024
MAX_FAMILY_VERTICES = 2**30
MAX_FAMILIES = 20_000
MAX_BELL_M = 1500

# classify_small: candidates per set of (r - 1) / 2 values, and the cap on all
# of them (on 3 and 5 vertices each is a ~1 KB catalog entry).
CANDIDATES_PER_VALUE_SET = {3: 1, 5: 12, 7: 13950}
MAX_CANDIDATES = 200_000


def circulant_matrix(n: int, distances: Sequence[int]) -> DistanceMatrix:
    """Circulant matrix on r = 2n + 1 vertices from n positive distances.

    The difference matrix of Z_r: entry (i, j) is distances[k - 1] where k
    is the cyclic gap between i and j, so each distance occurs twice per row.
    """
    fac = Factorization((2 * n + 1,))
    return product_matrix(fac, DistanceAssignment.from_sequence(fac.factors, distances))


def even_example_matrix(r: int, distances: Sequence[int]) -> DistanceMatrix:
    """Predemocratic matrix on an even number of vertices.

    Built from r - 1 positive distances d_1 .. d_{r-1} with indices read
    modulo r - 1 (and d_0 meaning d_{r-1}): entry (i, j) for i, j < r is
    d_{i+j-2}, and entry (i, r) is d_{2i-2}.  Every row contains each
    index class exactly once.
    """
    import numpy as np
    (r,) = as_ints((r,), "vertex count", low=2)
    if r % 2 != 0:
        raise DomainError(f"vertex count must be even, got {r}")
    check_cap(r, MAX_VERTICES, "vertex count")
    dist = _distances(distances, r - 1)
    # index (i + j) mod (r - 1) + 1 into [0, d_{r-1}, d_1, ..., d_{r-2}] on
    # the first r - 1 vertices; vertex r meets vertex i at index 2i
    a = np.arange(r - 1)
    index = np.zeros((r, r), dtype=np.intp)
    index[:-1, :-1] = np.add.outer(a, a) % (r - 1) + 1
    index[-1, :-1] = index[:-1, -1] = index[a, a]
    index[a, a] = 0
    values = [0, dist[-1], *dist[:-1]]
    return _matrix(values, index.tolist())


def _matrix(values: Sequence[int], index: Sequence[Sequence[int]]) -> DistanceMatrix:
    """The matrix of entries values[index[u][v]], built unchecked: the index table
    is symmetric and 0 on the diagonal only, and ints values[0] == 0 < values[1:]."""
    entries = tuple(tuple(map(values.__getitem__, row)) for row in index)
    return unchecked(DistanceMatrix, r=len(entries), entries=entries)


def _distances(distances: Sequence[int], count: int) -> tuple[int, ...]:
    dist = as_ints(distances, "distances", low=1)
    if len(dist) != count:
        raise DomainError(f"expected {count} distances, got {len(dist)}")
    return dist


@dataclass(frozen=True)
class Factorization:
    """Vertex count r <= MAX_VERTICES split into factors r_1 >= ... >= 2."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = as_factors(self.factors, MAX_VERTICES)
        object.__setattr__(self, "factors", tuple(sorted(factors, reverse=True)))

    @property
    def r(self) -> int:
        return math.prod(self.factors)


def _factorization(factorization: Factorization | Sequence[int]) -> Factorization:
    if isinstance(factorization, Factorization):
        return factorization
    return Factorization(tuple(factorization))


def _orbit(delta: Sequence[int], factors: Sequence[int]) -> tuple[int, ...]:
    """Representative min(delta, -delta) of a group difference's orbit."""
    delta = tuple(x % n for x, n in zip(delta, factors))
    return min(delta, tuple(-x % n for x, n in zip(delta, factors)))


@functools.lru_cache(maxsize=64)
def _difference_orbits(factors: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The orbit representative of each group element, row-major, and the
    sorted representatives of the nonzero elements."""
    orbits = tuple(_orbit(x, factors) for x in itertools.product(*map(range, factors)))
    return orbits, tuple(sorted(set(orbits[1:])))


@dataclass(frozen=True)
class DistanceAssignment:
    """Distance value for each difference orbit of a product of cyclic groups.

    Vertices are tuples over Z_{r_1} x .. x Z_{r_k}; the difference of a
    pair is defined up to global negation, so values are keyed by the
    orbit representatives min(delta, -delta).
    """

    factors: tuple[int, ...]
    values: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        factors = as_factors(self.factors, MAX_VERTICES)
        object.__setattr__(self, "factors", factors)
        orbits = [as_ints(rep, "difference orbits") for rep, _ in self.values]
        dist = as_ints((v for _, v in self.values), "distances", low=1)
        vals = tuple(sorted(zip(orbits, dist)))
        object.__setattr__(self, "values", vals)
        if tuple(rep for rep, _ in vals) != _difference_orbits(factors)[1]:
            raise DomainError("assignment must give exactly one value per difference orbit")

    @staticmethod
    def orbit_representatives(factors: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        return _difference_orbits(as_factors(factors, MAX_VERTICES))[1]

    @classmethod
    def sequential(cls, factors: Sequence[int]) -> "DistanceAssignment":
        """Distinct distances 1, 2, .. in representative order."""
        reps = cls.orbit_representatives(factors)
        return cls(tuple(factors), tuple((rep, k + 1) for k, rep in enumerate(reps)))

    @classmethod
    def from_sequence(
        cls, factors: Sequence[int], distances: Sequence[int]
    ) -> "DistanceAssignment":
        """Values assigned to the sorted orbit representatives, in order."""
        reps = cls.orbit_representatives(factors)
        return cls(tuple(factors), tuple(zip(reps, _distances(distances, len(reps)))))

    @functools.cached_property
    def _lookup(self) -> dict[tuple[int, ...], int]:
        return dict(self.values)

    def value(self, delta: Sequence[int]) -> int:
        delta, fac = as_ints(delta, "difference"), self.factors
        if len(delta) != len(fac) or not any(x % n for x, n in zip(delta, fac)):
            raise DomainError(f"difference {delta} is not a nonzero element of Z_{fac}")
        return self._lookup[_orbit(delta, fac)]


def product_matrix(
    factorization: Factorization | Sequence[int],
    assignment: Optional[DistanceAssignment] = None,
) -> DistanceMatrix:
    """Difference matrix over a product of cyclic groups, row-major vertices.

    Entry (u, v) is the assignment value of v - u, looked up once per group
    element.  Vertices follow the factorization's non-increasing order; an
    assignment given on the same factors in another order is read through
    the coordinate permutation that sorts its factors.  Translations of the
    group are automorphisms, so the result is democratic for every
    assignment.
    """
    import numpy as np
    fac = _factorization(factorization)
    if assignment is None:
        assignment = DistanceAssignment.sequential(fac.factors)
    given = tuple(assignment.factors)
    if tuple(sorted(given, reverse=True)) != fac.factors:
        raise DomainError(f"assignment factors {given} do not match {fac.factors}")
    order = sorted(range(len(given)), key=given.__getitem__, reverse=True)
    # position[k]: where the k-th group element in the factorization's
    # row-major order lies in the assignment's row-major order
    position = np.arange(fac.r).reshape(given).transpose(order).ravel().tolist()
    orbits, _ = _difference_orbits(given)
    values = [0, *(assignment._lookup[orbits[k]] for k in position[1:])]
    # index[u, v] is the row-major position of the difference v - u
    index = 0
    for n, x in zip(fac.factors, np.indices(fac.factors).reshape(len(fac.factors), -1)):
        index = index * n + (x - x[:, None]) % n
    return _matrix(values, index.tolist())


def cyclic_shift_generators(
    factorization: Factorization | Sequence[int],
) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations (1-based) shifting each cyclic factor by one."""
    import numpy as np
    fac = _factorization(factorization)
    positions = np.arange(fac.r).reshape(fac.factors)
    return tuple(
        tuple((np.roll(positions, -1, axis).ravel() + 1).tolist())
        for axis in range(len(fac.factors))
    )


def bell(m: int) -> int:
    """Number of partitions of an m element set, read off the Bell triangle:
    each row starts with the last entry of the row before and adds that
    row's entries in turn, and row m starts with bell(m)."""
    (m,) = as_ints((m,), "bell index", low=0)
    check_cap(m, MAX_BELL_M, "bell index")
    row = [1]
    for _ in range(m):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[0]


def _factorizations(r: int) -> tuple[int, Iterator[tuple[int, ...]]]:
    """Number of non-increasing factorizations of r into parts >= 2 (OEIS
    A001055), and a lazy walk listing them in lexicographic order.

    Both follow one recursion over r's divisors: a factorization of n into
    parts <= largest is a divisor d of n with 2 <= d <= largest, followed
    by a factorization of n // d into parts <= d, so each is reached once.
    """
    (r,) = as_ints((r,), "vertex count", low=2)
    check_cap(r, MAX_FAMILY_VERTICES, "vertex count")
    low = [d for d in range(2, math.isqrt(r) + 1) if r % d == 0]
    divisors = sorted({*low, *(r // d for d in low), r})

    @functools.cache
    def parts(n: int) -> list[int]:
        return [d for d in divisors if n % d == 0]

    def steps(n: int, largest: int) -> Iterator[int]:
        return itertools.takewhile(largest.__ge__, parts(n))

    @functools.cache
    def count(n: int, largest: int) -> int:
        return 1 if n == 1 else sum(count(n // d, d) for d in steps(n, largest))

    def walk(n: int, largest: int) -> Iterator[tuple[int, ...]]:
        if n == 1:
            yield ()
        for d in steps(n, largest):
            for rest in walk(n // d, d):
                yield (d, *rest)

    return count(r, r), walk(r, r)


def symmetry_families(r: int) -> tuple[tuple[int, ...], ...]:
    """Distinct factor multisets of r into parts >= 2, sorted, each
    non-increasing; CapacityError when more than MAX_FAMILIES."""
    count, families = _factorizations(r)
    check_cap(count, MAX_FAMILIES, "symmetry family count")
    return tuple(families)


def count_symmetry_families(r: int) -> int:
    """Number of symmetry families of r, counted without listing them."""
    return _factorizations(r)[0]


@dataclass(frozen=True)
class CatalogEntry:
    """A democratic matrix from the enumeration, with its circulant match.

    `witness` relabels the matrix onto circulant_matrix(q, distances);
    both are None when no circulant matches (which would refute the
    classification)."""

    matrix: DistanceMatrix
    distances: Optional[tuple[int, ...]]
    witness: Optional[tuple[int, ...]]

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.to_dict(),
            "circulant_distances": list(self.distances) if self.distances else None,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass(frozen=True)
class ClassificationCatalog:
    r: int
    p: int
    alphabet: tuple[int, ...]
    candidate_count: int
    entries: tuple[CatalogEntry, ...]
    theorem_verified: bool

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "p": self.p,
            "alphabet": list(self.alphabet),
            "candidates": self.candidate_count,
            "democratic": [e.to_dict() for e in self.entries],
            "theorem_verified": self.theorem_verified,
        }


def _same_triangles(m: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of ranks below q (diagonals unread) show every vertex
    the same multiset of triangles (shorter and longer side at the vertex,
    opposite side): a necessary condition for vertex transitivity.  Also
    returns each matrix's sorted triangle keys at vertex 0."""
    import numpy as np
    r = m.shape[1]
    same, first = np.ones(len(m), bool), None
    for v in range(r):  # one vertex at a time keeps the working set small
        a, b = (v + 1 + np.array(np.triu_indices(r - 1, 1))) % r
        va, vb = m[:, v, a], m[:, v, b]
        key = (np.minimum(va, vb) * q + np.maximum(va, vb)) * q + m[:, a, b]
        key = np.sort(key.astype(np.int16))  # numpy sorts int16 rows faster than int8
        first = key if first is None else first
        same &= (key == first).all(1)
    return same, first


def classify_small(
    r: int,
    p: int,
    max_distance: Optional[int] = None,
    *,
    alphabet: Optional[Sequence[int]] = None,
    stats: Optional[SearchStats] = None,
) -> ClassificationCatalog:
    """Enumerate and classify the n_a = 2 candidates on r vertices.

    Candidates are the symmetric matrices over the alphabet whose rows all
    hold the same q = (r - 1) / 2 values, each exactly twice; no democratic
    matrix is lost, as an automorphism maps row v onto row sigma(v), so a
    vertex-transitive matrix has equal row multisets.  Their number,
    C(|alphabet|, q) * CANDIDATES_PER_VALUE_SET[r], must not exceed
    MAX_CANDIDATES (CapacityError).

    Renaming a value set onto the ranks 1..q in order is a bijection onto
    the candidates over 1..q that keeps lexicographic order, triangle
    profiles, automorphisms and circulant witnesses, so the search runs once,
    over the ranks: the upper triangle is filled level by level, row by row
    and ranks ascending, keeping the children whose two rows hold the rank
    at most once, as told by a count of each rank in each row that each
    child copies from its parent and updates.  A vectorised triangle-profile
    filter runs on the leaves; only its survivors become DistanceMatrix
    objects and are matched against the q! circulants on 1..q whose vertex-0
    triangle keys equal theirs.  The others cannot match: a relabeling
    carries a vertex's triangles onto its image's, and all vertices of a
    survivor, or of a circulant, are alike.  A match is democratic, as the
    translations of Z_r are automorphisms of every circulant, so only a
    candidate that matches none is tested for democracy; one that passes
    refutes the theorem and is kept with no witness (theorem_verified: none
    such).  For each q-subset V of the alphabet the catalog, circulant
    distances included, is renamed through 1..q -> V, and all entries are
    merged into lexicographic upper-triangle order.  `stats` gains the counts
    that SearchStats lists; the tree is not walked when no value set exists.
    """
    import numpy as np
    (r,) = as_ints((r,), "vertex count")
    cap = max(CANDIDATES_PER_VALUE_SET)
    # odd factors up to the cap settle primality up to it; the cap refuses the rest
    if not (r > 2 and r % 2 and all(r % f for f in range(3, min(r, cap + 1), 2))):
        raise DomainError(f"classification needs an odd prime vertex count, got {r}")
    check_cap(r, cap, "classification vertex count")
    (p,) = as_ints((p,), "degree", low=1)
    if alphabet is None:
        if max_distance is None:
            raise DomainError("either max_distance or alphabet is required")
        (size,) = as_ints((max_distance,), "max_distance", 1, p)
        alpha = range(1, size + 1)  # len() of a range overflows above sys.maxsize
    elif max_distance is not None:
        raise DomainError("give either max_distance or alphabet, not both")
    else:
        alpha = tuple(sorted(set(as_ints(alphabet, "alphabet", 1, p))))
        if not alpha:
            raise DomainError("alphabet must not be empty")
        size = len(alpha)
    q = (r - 1) // 2
    expected = math.comb(size, q) * CANDIDATES_PER_VALUE_SET[r]
    check_cap(expected, MAX_CANDIDATES, "candidate count")
    value_sets = list(itertools.combinations(alpha, q))
    stats = SearchStats() if stats is None else stats
    stats.nodes += 1

    iu, ju = np.triu_indices(r, 1)
    pos = np.full((r, r), -1)
    pos[iu, ju] = pos[ju, iu] = np.arange(len(iu))
    upper = np.zeros((1 if value_sets else 0, 0), np.int8)
    held = np.zeros((len(upper), r, q), np.int8)  # how often each row holds each rank
    for i, j in zip(iu, ju):
        room = (held[:, i] < 2) & (held[:, j] < 2)
        parent, val = np.nonzero(room)
        stats.nodes += len(parent)
        stats.pruned += room.size - len(parent)
        upper = np.column_stack([upper[parent], val.astype(np.int8)])
        held, child = held[parent], np.arange(len(parent))
        held[child, i, val] += 1
        held[child, j, val] += 1
    candidate_count = len(upper) * len(value_sets)
    stats.leaves += candidate_count

    same, keys = _same_triangles(upper[:, pos], q)
    full = np.pad(upper[same] + 1, ((0, 0), (0, 1)))[:, pos]
    perms = itertools.permutations(range(1, q + 1))
    targets = [(perm, circulant_matrix(q, perm)) for perm in perms]
    circ = np.array([t.entries for _, t in targets], np.int8) - 1
    fits = (keys[same, None] == _same_triangles(circ, q)[1]).all(2)
    found = []  # the catalog over the ranks 1..q
    for rows, fit in zip(full.tolist(), fits):  # symmetric, 0 on the diagonal only
        cand = unchecked(DistanceMatrix, r=r, entries=tuple(map(tuple, rows)))
        for perm, target in itertools.compress(targets, fit):
            wit = find_relabeling(cand, target)
            if wit is not None:
                found.append((cand, perm, wit))
                break
        else:
            if is_democratic(cand):
                found.append((cand, None, None))
    entries = []
    for vs in value_sets:
        name = (0, *vs)
        renamed = name != tuple(range(q + 1))
        for cand, perm, wit in found:
            matrix = cand
            if renamed:
                matrix = _matrix(name, cand.entries)
            dist = None if perm is None else tuple(name[k] for k in perm)
            entries.append(CatalogEntry(matrix=matrix, distances=dist, witness=wit))
    entries.sort(key=lambda e: e.matrix.entries)  # upper triangles in lexicographic order
    stats.solutions += len(entries)

    return ClassificationCatalog(
        r=r,
        p=p,
        alphabet=tuple(alpha),
        candidate_count=candidate_count,
        entries=tuple(entries),
        theorem_verified=all(e.witness is not None for e in entries),
    )
