"""Constructions and classification of democratic distance matrices.

A matrix is democratic when its automorphism group is vertex-transitive.
Difference constructions over cyclic groups and their products give the
standard families; `classify_small` exhaustively enumerates the candidates
whose rows all hold the same values, each twice, for small odd prime vertex
counts and checks that each democratic one is a relabeled circulant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityError, DomainError, as_ints
from .forms import SearchStats
from .graphs import (
    DEFAULT_AUTOMORPHISM_VERTEX_CAP,
    DistanceMatrix,
    find_relabeling,
    is_democratic,
)

# classify_small: candidates per set of (r - 1) / 2 values, the cap on all of
# them (on 3 and 5 vertices each is a ~1 KB catalog entry), rows 0 per block.
CANDIDATES_PER_VALUE_SET = {3: 1, 5: 12, 7: 13950}
MAX_CANDIDATES = 200_000
BLOCK_SIZE = 16


def circulant_matrix(n: int, distances: Sequence[int]) -> DistanceMatrix:
    """Circulant matrix on r = 2n + 1 vertices from n positive distances.

    Entry (i, j) is distances[k - 1] where k is the cyclic gap between i
    and j, so each distance occurs exactly twice per row.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 cyclic distances, got {n}")
    dist = as_ints(distances, "distances")
    if len(dist) != n:
        raise DomainError(f"expected {n} distances, got {len(dist)}")
    if any(x < 1 for x in dist):
        raise DomainError("distances must be >= 1")
    r = 2 * n + 1
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            gap = min((i - j) % r, (j - i) % r)
            rows[i][j] = rows[j][i] = dist[gap - 1]
    return DistanceMatrix.from_rows(rows)


def even_example_matrix(r: int, distances: Sequence[int]) -> DistanceMatrix:
    """Predemocratic matrix on an even number of vertices.

    Built from r - 1 positive distances d_1 .. d_{r-1} with indices read
    modulo r - 1 (and d_0 meaning d_{r-1}): entry (i, j) for i, j < r is
    d_{i+j-2}, and entry (i, r) is d_{2i-2}.  Every row contains each
    index class exactly once.
    """
    if r < 2 or r % 2 != 0:
        raise DomainError(f"vertex count must be even and >= 2, got {r}")
    dist = as_ints(distances, "distances")
    if len(dist) != r - 1:
        raise DomainError(f"expected {r - 1} distances, got {len(dist)}")
    if any(x < 1 for x in dist):
        raise DomainError("distances must be >= 1")

    def dval(k: int) -> int:
        k = k % (r - 1)
        return dist[k - 1] if k >= 1 else dist[r - 2]

    rows = [[0] * r for _ in range(r)]
    for i in range(1, r):
        for j in range(i + 1, r):
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = dval(i + j - 2)
        rows[i - 1][r - 1] = rows[r - 1][i - 1] = dval(2 * i - 2)
    return DistanceMatrix.from_rows(rows)


@dataclass(frozen=True)
class Factorization:
    """Vertex count split into ordered factors r_1 >= r_2 >= ... >= 2."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(sorted(as_ints(self.factors, "factors"), reverse=True))
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise DomainError("factorization must have at least one factor")
        if factors[-1] < 2:
            raise DomainError(f"factors must be >= 2, got {factors}")

    @property
    def r(self) -> int:
        return math.prod(self.factors)


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
        reps = set()
        for delta in itertools.product(*(range(n) for n in factors)):
            if all(x == 0 for x in delta):
                continue
            neg = tuple((n - x) % n for x, n in zip(delta, factors))
            reps.add(min(delta, neg))
        return tuple(sorted(reps))

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
        dist = as_ints(distances, "distances")
        if len(dist) != len(reps):
            raise DomainError(
                f"expected {len(reps)} distances for factors {tuple(factors)}, "
                f"got {len(dist)}"
            )
        return cls(tuple(factors), tuple(zip(reps, dist)))

    @cached_property
    def _lookup(self) -> dict[tuple[int, ...], int]:
        return dict(self.values)

    def value(self, delta: Sequence[int]) -> int:
        delta = tuple(x % n for x, n in zip(as_ints(delta, "difference"), self.factors))
        neg = tuple((n - x) % n for x, n in zip(delta, self.factors))
        return self._lookup[min(delta, neg)]


def product_matrix(
    factorization: Factorization | Sequence[int],
    assignment: Optional[DistanceAssignment] = None,
) -> DistanceMatrix:
    """Difference matrix over a product of cyclic groups, row-major vertices.

    Entry for vertices u, v is the assignment value of the difference
    orbit of v - u.  Translations of the group are automorphisms, so the
    result is democratic for every assignment.
    """
    fac = (
        factorization
        if isinstance(factorization, Factorization)
        else Factorization(tuple(factorization))
    )
    if assignment is None:
        assignment = DistanceAssignment.sequential(fac.factors)
    if tuple(assignment.factors) != fac.factors:
        raise DomainError(
            f"assignment factors {assignment.factors} do not match {fac.factors}"
        )
    vertices = list(itertools.product(*(range(n) for n in fac.factors)))
    r = len(vertices)
    rows = [[0] * r for _ in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            delta = tuple(
                (vertices[b][k] - vertices[a][k]) % n
                for k, n in enumerate(fac.factors)
            )
            rows[a][b] = rows[b][a] = assignment.value(delta)
    return DistanceMatrix.from_rows(rows)


def cyclic_shift_generators(
    factorization: Factorization | Sequence[int],
) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations (1-based) shifting each cyclic factor by one."""
    fac = (
        factorization
        if isinstance(factorization, Factorization)
        else Factorization(tuple(factorization))
    )
    vertices = list(itertools.product(*(range(n) for n in fac.factors)))
    index = {v: i for i, v in enumerate(vertices)}
    gens = []
    for axis in range(len(fac.factors)):
        perm = []
        for v in vertices:
            shifted = tuple(
                (x + 1) % n if k == axis else x
                for k, (x, n) in enumerate(zip(v, fac.factors))
            )
            perm.append(index[shifted] + 1)
        gens.append(tuple(perm))
    return tuple(gens)


def bell(m: int) -> int:
    """Number of partitions of an m element set."""
    if m < 0:
        raise DomainError(f"bell numbers are defined for m >= 0, got {m}")
    b = [1]
    for n in range(m):
        b.append(sum(math.comb(n, k) * b[k] for k in range(n + 1)))
    return b[m]


def _prime_factors(r: int) -> list[int]:
    out = []
    x = r
    f = 2
    while f * f <= x:
        while x % f == 0:
            out.append(f)
            x //= f
        f += 1
    if x > 1:
        out.append(x)
    return out


def _partitions(items: list) -> Iterable[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def symmetry_families(r: int) -> tuple[tuple[int, ...], ...]:
    """Distinct factor multisets of r into parts >= 2, one per way of
    grouping its prime factorization; sorted, each non-increasing."""
    if r < 2:
        raise DomainError(f"vertex count must be >= 2, got {r}")
    primes = _prime_factors(r)
    fams = {
        tuple(sorted((math.prod(block) for block in part), reverse=True))
        for part in _partitions(primes)
    }
    return tuple(sorted(fams))


def count_symmetry_families(r: int) -> int:
    return len(symmetry_families(r))


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
    vertex_cap: int = DEFAULT_AUTOMORPHISM_VERTEX_CAP,
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
    and are tested for democracy and matched against the circulants on
    their value set (theorem_verified: all matched).  `stats` gains the
    prefixes entered, root included, as nodes, rejected value choices as
    pruned, candidates as leaves and catalog entries as solutions.
    """
    r, p = as_ints((r, p), "vertex count and degree")
    if r not in CANDIDATES_PER_VALUE_SET:
        if r > 2 and r % 2 and all(r % f for f in range(3, int(r**0.5) + 1, 2)):
            raise CapacityError(f"classification on {r} vertices exceeds the cap 7")
        raise DomainError(f"classification needs an odd prime vertex count, got {r}")
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
    if expected > MAX_CANDIDATES:
        raise CapacityError(f"{expected} candidates exceed the cap {MAX_CANDIDATES}")
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
    verified = True
    target_cache: dict[tuple[int, ...], list] = {}
    for cand in candidates:
        if not is_democratic(cand, vertex_cap=vertex_cap):
            continue
        used = cand.distances()
        if used not in target_cache:
            target_cache[used] = [
                (perm, circulant_matrix(q, perm))
                for perm in itertools.permutations(used)
            ]
        match: Optional[CatalogEntry] = None
        for perm, target in target_cache[used]:
            wit = find_relabeling(cand, target)
            if wit is not None:
                match = CatalogEntry(matrix=cand, distances=perm, witness=wit)
                break
        if match is None:
            verified = False
            match = CatalogEntry(matrix=cand, distances=None, witness=None)
        entries.append(match)
    stats.solutions += len(entries)

    return ClassificationCatalog(
        r=r,
        p=p,
        alphabet=tuple(alpha),
        candidate_count=candidate_count,
        entries=tuple(entries),
        theorem_verified=verified,
    )
