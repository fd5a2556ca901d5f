"""Constructions and classification of democratic distance matrices.

A matrix is democratic when its automorphism group is vertex-transitive.
Difference matrices over products of cyclic groups, circulants being the
one-factor case, give the standard families; `symmetry_families` splits a
vertex count into cyclic factors by a recursion over its divisors.
`classify_small` exhaustively enumerates the candidates whose rows all hold
the same values, each twice, for small odd prime vertex counts and checks
that each democratic one is a relabeled circulant.  Each construction checks
a module cap before any work and raises CapacityError above it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .errors import DomainError, as_ints, check_cap
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

# classify_small: candidates per set of (r - 1) / 2 values, the cap on all of
# them (on 3 and 5 vertices each is a ~1 KB catalog entry), rows 0 per block.
CANDIDATES_PER_VALUE_SET = {3: 1, 5: 12, 7: 13950}
MAX_CANDIDATES = 200_000
BLOCK_SIZE = 16


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
    (r,) = as_ints((r,), "vertex count")
    if r < 2 or r % 2 != 0:
        raise DomainError(f"vertex count must be even and >= 2, got {r}")
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
    return DistanceMatrix.from_rows([[values[i] for i in row] for row in index.tolist()])


def _distances(distances: Sequence[int], count: int) -> tuple[int, ...]:
    dist = as_ints(distances, "distances")
    if len(dist) != count:
        raise DomainError(f"expected {count} distances, got {len(dist)}")
    if any(x < 1 for x in dist):
        raise DomainError("distances must be >= 1")
    return dist


@dataclass(frozen=True)
class Factorization:
    """Vertex count r <= MAX_VERTICES split into factors r_1 >= ... >= 2."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(sorted(as_ints(self.factors, "factors"), reverse=True))
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise DomainError("factorization must have at least one factor")
        if factors[-1] < 2:
            raise DomainError(f"factors must be >= 2, got {factors}")
        check_cap(self.r, MAX_VERTICES, "vertex count")

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
        factors = as_ints(self.factors, "factors")
        object.__setattr__(self, "factors", factors)
        orbits = [as_ints(rep, "difference orbits") for rep, _ in self.values]
        dist = as_ints((v for _, v in self.values), "distances")
        vals = tuple(sorted(zip(orbits, dist)))
        object.__setattr__(self, "values", vals)
        reps = self.orbit_representatives(factors)
        if tuple(rep for rep, _ in vals) != reps:
            raise DomainError(
                "assignment must give exactly one value per difference orbit"
            )
        if any(v < 1 for _, v in vals):
            raise DomainError("distances must be >= 1")

    @staticmethod
    def orbit_representatives(factors: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        factors = as_ints(factors, "factors")
        check_cap(math.prod(factors), MAX_VERTICES, "group order")
        return _difference_orbits(factors)[1]

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
        return self._lookup[_orbit(as_ints(delta, "difference"), self.factors)]


def product_matrix(
    factorization: Factorization | Sequence[int],
    assignment: Optional[DistanceAssignment] = None,
) -> DistanceMatrix:
    """Difference matrix over a product of cyclic groups, row-major vertices.

    Entry (u, v) is the assignment value of v - u, looked up once per group
    element.  Translations of the group are automorphisms, so the result is
    democratic for every assignment.
    """
    import numpy as np
    fac = _factorization(factorization)
    if assignment is None:
        assignment = DistanceAssignment.sequential(fac.factors)
    if tuple(assignment.factors) != fac.factors:
        raise DomainError(
            f"assignment factors {assignment.factors} do not match {fac.factors}"
        )
    orbits, _ = _difference_orbits(fac.factors)
    values = [0, *map(assignment._lookup.__getitem__, orbits[1:])]
    # index[u, v] is the row-major position of the difference v - u
    index = 0
    for n, x in zip(fac.factors, np.indices(fac.factors).reshape(len(fac.factors), -1)):
        index = index * n + (x - x[:, None]) % n
    return DistanceMatrix.from_rows([[values[i] for i in row] for row in index.tolist()])


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
    (m,) = as_ints((m,), "m")
    if m < 0:
        raise DomainError(f"bell numbers are defined for m >= 0, got {m}")
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
    (r,) = as_ints((r,), "vertex count")
    if r < 2:
        raise DomainError(f"vertex count must be >= 2, got {r}")
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


def _first_rows(r: int, q: int, size: int, stats: SearchStats) -> np.ndarray:
    """Every completed row 0 over the alphabet ranks, in search order.

    A child closes a value its parent holds once, or opens an unused one
    while the parent holds fewer than q values (with 2q slots, that leaves a
    slot for each value held once).  Only the children are built."""
    import numpy as np
    ranks = np.arange(size, dtype=np.min_scalar_type(size))
    rows = np.zeros((1, 0), ranks.dtype)
    for _ in range(r - 1):
        count = (rows[:, :, None] == rows[:, None, :]).sum(2)
        distinct = (count == 1).sum(1) + (count == 2).sum(1) // 2
        opens = np.flatnonzero(distinct < q)
        open_parent, open_val = opens.repeat(size), np.tile(ranks, len(opens))
        unused = ~(rows[open_parent] == open_val[:, None]).any(1)
        close_parent, col = np.nonzero(count == 1)
        parent = np.concatenate([open_parent[unused], close_parent])
        val = np.concatenate([open_val[unused], rows[close_parent, col]])
        order = np.lexsort((val, parent))
        stats.nodes += len(order)
        stats.pruned += len(rows) * size - len(order)
        rows = np.column_stack([rows[parent[order]], val[order]])
    return rows


def _same_triangles(m: np.ndarray, q: int) -> np.ndarray:
    """Which matrices of ranks below q (diagonals unread) show every vertex
    the same multiset of triangles (shorter and longer side at the vertex,
    opposite side): a necessary condition for vertex transitivity."""
    import numpy as np
    r = m.shape[1]
    v = np.arange(r)[:, None]
    a, b = (v + 1 + np.array(np.triu_indices(r - 1, 1))[:, None]) % r
    va, vb = m[:, v, a], m[:, v, b]
    key = (np.minimum(va, vb) * q + np.maximum(va, vb)) * q + m[:, a, b]
    key.sort(axis=2)
    return (key == key[:, :1]).all(axis=(1, 2))


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
    MAX_CANDIDATES (CapacityError).  The upper triangle is filled row by
    row, values ascending, so candidates come in lexicographic order: row 0
    level by level over the alphabet, then blocks of BLOCK_SIZE completed
    rows 0 over their own values as int8 ranks, keeping the children whose
    two rows hold the value at most once.  A vectorised triangle-profile
    filter runs per block; only its survivors become DistanceMatrix objects
    and are matched against the circulants on their value set.  A match is
    democratic, as the translations of Z_r are automorphisms of every
    circulant, so only a candidate that matches none is tested for
    democracy; one that passes refutes the theorem and is kept with no
    witness (theorem_verified: none such).  `stats` gains the prefixes
    entered, root included, as nodes, rejected value choices as pruned,
    candidates as leaves and catalog entries as solutions.
    """
    import numpy as np
    r, p = as_ints((r, p), "vertex count and degree")
    cap = max(CANDIDATES_PER_VALUE_SET)
    # odd factors up to the cap settle primality up to it; the cap refuses the rest
    if not (r > 2 and r % 2 and all(r % f for f in range(3, min(r, cap + 1), 2))):
        raise DomainError(f"classification needs an odd prime vertex count, got {r}")
    check_cap(r, cap, "classification vertex count")
    if p < 1:
        raise DomainError(f"degree must be >= 1, got {p}")
    if alphabet is None:
        if max_distance is None:
            raise DomainError("either max_distance or alphabet is required")
        alpha = range(1, as_ints((max_distance,), "max_distance")[0] + 1)
        if not alpha:
            raise DomainError(f"max_distance must be >= 1, got {max_distance}")
    else:
        alpha = tuple(sorted(set(as_ints(alphabet, "alphabet"))))
        if not alpha or alpha[0] < 1:
            raise DomainError(f"alphabet must contain integers >= 1, got {alpha}")
    if alpha[-1] > p:
        raise DomainError(f"distances up to {alpha[-1]} cannot occur in degree p={p}")
    q = (r - 1) // 2
    expected = math.comb(len(alpha), q) * CANDIDATES_PER_VALUE_SET[r]
    check_cap(expected, MAX_CANDIDATES, "candidate count")
    stats = stats or SearchStats()
    stats.nodes += 1

    iu, ju = np.triu_indices(r, 1)
    pos = np.full((r, r), -1)
    pos[iu, ju] = pos[ju, iu] = np.arange(len(iu))
    levels = [(pos[i, np.r_[:i, i + 1 : j]], pos[j, :i]) for i, j in zip(iu, ju) if i]
    first = _first_rows(r, q, len(alpha), stats)
    value_sets = np.sort(first, axis=1)[:, ::2]
    local = (first[:, :, None] > value_sets[:, None, :]).sum(2, dtype=np.int8)
    ranks, values = np.arange(q, dtype=np.int8), np.array(alpha)
    candidates, candidate_count = [], 0
    for lo in range(0, len(first), BLOCK_SIZE):
        upper = local[lo : lo + BLOCK_SIZE]
        owner = np.arange(lo, lo + len(upper))
        for row_i, row_j in levels:
            room = (upper[:, row_i, None] == ranks).sum(1) < 2
            room &= (upper[:, row_j, None] == ranks).sum(1) < 2
            parent, val = np.nonzero(room)
            stats.nodes += len(parent)
            stats.pruned += room.size - len(parent)
            upper = np.column_stack([upper[parent], val.astype(np.int8)])
            owner = owner[parent]
        candidate_count += len(upper)
        keep = _same_triangles(upper[:, pos], q)
        ranked = np.take_along_axis(value_sets[owner[keep]], upper[keep], axis=1)
        full = np.pad(values[ranked], ((0, 0), (0, 1)))[:, pos]
        candidates.extend(map(DistanceMatrix.from_rows, full.tolist()))
    stats.leaves += candidate_count

    entries: list[CatalogEntry] = []
    target_cache: dict[tuple[int, ...], list] = {}
    for cand in candidates:
        used = cand.distances()
        if used not in target_cache:
            perms = itertools.permutations(used)
            target_cache[used] = [(perm, circulant_matrix(q, perm)) for perm in perms]
        for perm, target in target_cache[used]:
            wit = find_relabeling(cand, target)
            if wit is not None:
                entries.append(CatalogEntry(matrix=cand, distances=perm, witness=wit))
                break
        else:
            if is_democratic(cand):
                entries.append(CatalogEntry(matrix=cand, distances=None, witness=None))
    stats.solutions += len(entries)

    return ClassificationCatalog(
        r=r,
        p=p,
        alphabet=tuple(alpha),
        candidate_count=candidate_count,
        entries=tuple(entries),
        theorem_verified=all(e.witness is not None for e in entries),
    )
