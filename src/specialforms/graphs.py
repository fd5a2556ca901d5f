"""Distance-labeled complete graphs attached to sign-valued forms.

The graph of a form has one vertex per term and edge labels given by the
subset distance (degree minus overlap).  This module provides admissibility
checks, the automorphism group of a distance matrix, the vertex-transitivity
predicates, relabeling equivalence, and the decomposition of a matrix into
closed curves when every distance occurs exactly twice per row.
`symmetries`, `is_democratic` and `find_relabeling` share one backtracking
kernel, `_extend`, which tries images in ascending vertex order, so each
returns the first witness in that order.  Each takes an optional
`SearchStats`, to which the kernel adds the positions it enters as nodes
and each bijection it finds as a leaf.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, PreconditionError, as_ints, check_cap, malformed, unchecked
from .forms import SearchStats, SpecialForm

# symmetries, is_democratic and find_relabeling refuse more vertices than this.
DEFAULT_AUTOMORPHISM_VERTEX_CAP = 12

_Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric integer matrix with zero diagonal and positive off-diagonal."""

    r: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        (r,) = as_ints((self.r,), "vertex count", low=1)
        ent = tuple(as_ints(row, "matrix entries") for row in self.entries)
        if len(ent) != r or any(len(row) != r for row in ent):
            raise DomainError(f"entries are not a {r} x {r} matrix")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "entries", ent)
        for i in range(r):
            if ent[i][i] != 0:
                raise DomainError(f"diagonal entry ({i + 1},{i + 1}) must be 0")
            for j in range(i + 1, r):
                if ent[i][j] != ent[j][i]:
                    raise DomainError(f"entries ({i + 1},{j + 1}) break symmetry")
                if ent[i][j] < 1:
                    raise DomainError(
                        f"off-diagonal entry ({i + 1},{j + 1}) must be >= 1"
                    )

    @classmethod
    def from_rows(cls, rows) -> "DistanceMatrix":
        rows = [list(r) for r in rows]
        return cls(len(rows), tuple(tuple(r) for r in rows))

    def distances(self) -> tuple[int, ...]:
        """Distinct off-diagonal values, ascending."""
        vals = {self.entries[i][j] for i in range(self.r) for j in range(i + 1, self.r)}
        return tuple(sorted(vals))

    def to_dict(self) -> dict:
        return {"r": self.r, "entries": [list(row) for row in self.entries]}

    @classmethod
    def from_dict(cls, data: dict) -> "DistanceMatrix":
        with malformed("matrix object"):
            return cls(data["r"], tuple(data["entries"]))


def graph_of_form(form: SpecialForm) -> DistanceMatrix:
    """Pairwise subset distances of the terms, in term order."""
    if form.weight == 0:
        raise DomainError("the graph of a form needs at least one term")
    subsets = form.support
    r = len(subsets)
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            dist = subsets[i].distance_to(subsets[j])
            rows[i][j] = rows[j][i] = dist
    # distinct terms of one degree lie at distance >= 1
    return unchecked(DistanceMatrix, r=r, entries=tuple(map(tuple, rows)))


def is_admissible(m: DistanceMatrix) -> bool:
    """Whether every triangle inequality holds; DistanceMatrix entries are positive."""
    e = m.entries
    for i in range(m.r):
        for j in range(i + 1, m.r):
            for k in range(j + 1, m.r):
                a, b, c = e[i][j], e[i][k], e[j][k]
                if a > b + c or b > a + c or c > a + b:
                    return False
    return True


def _row_profiles(e: _Rows) -> list[tuple[int, ...]]:
    return [tuple(sorted(row)) for row in e]


def _extend(
    a: _Rows,
    b: _Rows,
    pa: list[tuple],
    pb: list[tuple],
    prefix: list[int],
    stats: Optional[SearchStats] = None,
) -> Optional[list[int]]:
    """First bijection pi with b[pi(v)][pi(w)] == a[v][w] that sends each
    vertex v < len(prefix) to prefix[v], or None.  Vertex v may only go to a
    vertex x with the same row profile (pa[v] == pb[x]); the other images
    are tried in ascending order.  Vertices are 0-based here.  `stats`
    gains the positions entered past the prefix as nodes, and the bijection
    found, if any, as a leaf; a refused prefix enters no node."""
    r = len(a)
    used = [False] * r
    # Callers vary the last pinned vertex, so it is checked first.
    for v in reversed(range(len(prefix))):
        x = prefix[v]
        if used[x] or pa[v] != pb[x]:
            return None
        used[x] = True
        for u in range(v):
            if a[v][u] != b[x][prefix[u]]:
                return None
    image = list(prefix)
    nodes = 0

    def extend(v: int) -> bool:
        nonlocal nodes
        nodes += 1
        if v == r:
            return True
        for x in range(r):
            if used[x] or pa[v] != pb[x]:
                continue
            for u in range(v):
                if a[v][u] != b[x][image[u]]:
                    break
            else:
                image.append(x)
                used[x] = True
                if extend(v + 1):
                    return True
                image.pop()
                used[x] = False
        return False

    found = extend(len(prefix))
    if stats is not None:
        stats.nodes += nodes
        stats.leaves += found
    return image if found else None


@dataclass(frozen=True)
class SymmetryGroupReport:
    """Automorphism group of a distance matrix.

    `generators` are vertex permutations given as tuples of 1-based images;
    together with the identity they generate the full group of `order`
    elements.  `transitive` records whether the group moves vertex 1 to
    every other vertex.
    """

    order: int
    transitive: bool
    generators: tuple[tuple[int, ...], ...]


def symmetries(
    m: DistanceMatrix, *, stats: Optional[SearchStats] = None
) -> SymmetryGroupReport:
    """Order, transitivity, and generators of the automorphism group.

    Works down a stabilizer chain: the group order is the product over i of
    the orbit size of vertex i under the stabilizer of 1..i-1, and each
    orbit member contributes one witness automorphism.  The witnesses form
    a generating set.  Refused above DEFAULT_AUTOMORPHISM_VERTEX_CAP vertices.
    """
    check_cap(m.r, DEFAULT_AUTOMORPHISM_VERTEX_CAP, "automorphism search vertex count")
    e = m.entries
    profiles = _row_profiles(e)
    orbits: list[int] = []
    gens: set[tuple[int, ...]] = set()
    for level in range(m.r):
        orbits.append(1)
        for x in range(level + 1, m.r):
            g = _extend(e, e, profiles, profiles, [*range(level), x], stats)
            if g is not None:
                orbits[-1] += 1
                gens.add(tuple(v + 1 for v in g))
    return SymmetryGroupReport(
        order=math.prod(orbits),
        transitive=(orbits[0] == m.r),
        generators=tuple(sorted(gens)),
    )


def is_democratic(m: DistanceMatrix, *, stats: Optional[SearchStats] = None) -> bool:
    """Whether the automorphism group is vertex-transitive.  Refused, like
    `symmetries`, above DEFAULT_AUTOMORPHISM_VERTEX_CAP vertices."""
    check_cap(m.r, DEFAULT_AUTOMORPHISM_VERTEX_CAP, "automorphism search vertex count")
    e = m.entries
    profiles = _row_profiles(e)
    return all(
        _extend(e, e, profiles, profiles, [x], stats) is not None
        for x in range(1, m.r)
    )


def is_predemocratic(m: DistanceMatrix) -> tuple[bool, Optional[dict[int, int]]]:
    """Whether every row realises the same distance counts.

    Returns (flag, counts); counts maps each distance a to the number n_a
    of times it occurs in a row, and is None when the flag is False.
    """
    counts = []
    for i in range(m.r):
        row = Counter(m.entries[i][j] for j in range(m.r) if j != i)
        counts.append(row)
    if any(c != counts[0] for c in counts[1:]):
        return False, None
    common = dict(sorted(counts[0].items()))
    return True, common


@dataclass(frozen=True)
class CurveFamily:
    """The closed curves traced by one distance value.

    `cycles` lists each curve as a tuple of 1-based vertices in traversal
    order; `uniform` holds when all curves have the same length and that
    length divides the vertex count.
    """

    distance: int
    cycles: tuple[tuple[int, ...], ...]
    pathlengths: tuple[int, ...]
    uniform: bool


@dataclass(frozen=True)
class CurveDecomposition:
    families: tuple[CurveFamily, ...]

    @property
    def all_uniform(self) -> bool:
        return all(f.uniform for f in self.families)


def curve_decomposition(m: DistanceMatrix) -> CurveDecomposition:
    """Split the graph into closed curves, one family per distance.

    Requires a predemocratic matrix with n_a = 2 for every distance a, so
    that each distance induces a 2-regular graph, i.e. disjoint cycles.
    """
    flag, counts = is_predemocratic(m)
    if not flag or any(n != 2 for n in counts.values()):
        raise PreconditionError(
            "curve decomposition needs every distance exactly twice per row"
        )
    families = []
    for dist in sorted(counts):
        nbrs = [
            [j for j in range(m.r) if j != i and m.entries[i][j] == dist]
            for i in range(m.r)
        ]
        seen = [False] * m.r
        cycles = []
        for start in range(m.r):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            prev, cur = start, min(nbrs[start])
            while cur != start:
                cyc.append(cur)
                seen[cur] = True
                a, b = nbrs[cur]
                prev, cur = cur, (b if a == prev else a)
            cycles.append(tuple(v + 1 for v in cyc))
        lengths = tuple(len(c) for c in cycles)
        uniform = len(set(lengths)) == 1 and m.r % lengths[0] == 0
        families.append(
            CurveFamily(
                distance=dist,
                cycles=tuple(cycles),
                pathlengths=lengths,
                uniform=uniform,
            )
        )
    return CurveDecomposition(families=tuple(families))


def find_relabeling(
    src: DistanceMatrix, dst: DistanceMatrix, *, stats: Optional[SearchStats] = None
) -> Optional[tuple[int, ...]]:
    """Vertex permutation pi (1-based images) with dst[pi(v), pi(w)] == src[v, w],
    or None when the matrices are not relabeling-equivalent.  Refused, like
    the automorphism searches, above DEFAULT_AUTOMORPHISM_VERTEX_CAP vertices."""
    if src.r != dst.r:
        return None
    check_cap(src.r, DEFAULT_AUTOMORPHISM_VERTEX_CAP, "automorphism search vertex count")
    a, b = src.entries, dst.entries
    pa, pb = _row_profiles(a), _row_profiles(b)
    if sorted(pa) != sorted(pb):
        return None
    pi = _extend(a, b, pa, pb, [], stats)
    return None if pi is None else tuple(x + 1 for x in pi)


def to_dot(m: DistanceMatrix, p: Optional[int] = None) -> str:
    """GraphViz rendering; edges at distance p are omitted when p is given."""
    lines = ["graph distances {"]
    for v in range(1, m.r + 1):
        lines.append(f"  v{v};")
    for i in range(m.r):
        for j in range(i + 1, m.r):
            dist = m.entries[i][j]
            if p is not None and dist >= p:
                continue
            lines.append(f'  v{i + 1} -- v{j + 1} [label="d={dist}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
