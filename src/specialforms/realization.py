"""Realising an admissible distance matrix by index subsets.

A realisation assigns to each vertex v an index subset s_v of size p so that
pairwise distances p - #(s_v & s_w) reproduce the matrix.  Realisations are
governed by a weight function f on proper nonempty vertex subsets S: f(S)
counts the indices shared by exactly the vertices of S, and the matrix is
reproduced iff for every pair v != w the weights of subsets containing both
sum to p - d(v, w), while the weights of subsets containing a fixed vertex
sum to p.  `solve` finds all such f exhaustively; `realize` turns one f into
concrete subsets; `forms_of` enumerates the genuinely different sign choices
on a realisation.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (DomainError, PreconditionError, as_ints, as_permutation, as_subset,
                     check_cap, malformed, unchecked)
from .forms import OrientedSubset, SearchStats, SpecialForm, flip_basis
from .graphs import DistanceMatrix, is_admissible

# Exhaustive weight-function search is refused above this vertex count.
DEFAULT_SOLVER_VERTEX_CAP = 8
# forms_of refuses to expand more than 2**DEFAULT_SIGN_CLASS_BIT_CAP classes.
DEFAULT_SIGN_CLASS_BIT_CAP = 12


@dataclass(frozen=True)
class GraphFunction:
    """Weight function on proper nonempty subsets of the vertex set.

    Only nonzero values are stored, as (subset, value) pairs with subsets
    given by ascending 1-based vertex tuples, sorted lexicographically.
    """

    r: int
    p: int
    values: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        (r,) = as_ints((self.r,), "vertex count", low=1)
        (p,) = as_ints((self.p,), "degree", low=1)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        norm = []
        weights = as_ints((val for _, val in self.values), "weights", low=0)
        for (subset, _), val in zip(self.values, weights):
            subset = as_subset(subset, "subset vertices", r)
            if len(subset) == r:
                raise DomainError(f"subset {subset} is not proper")
            if val > 0:
                norm.append((subset, val))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a[0] == b[0]:
                raise DomainError(f"duplicate subset {a[0]}")
        object.__setattr__(self, "values", tuple(norm))

    @property
    def dimension(self) -> int:
        """Total weight; the ambient dimension of the realisation."""
        return sum(v for _, v in self.values)

    def value(self, subset: Iterable[int]) -> int:
        return dict(self.values).get(tuple(sorted(as_ints(subset, "subset vertices"))), 0)

    def vertex_sums(self) -> tuple[int, ...]:
        sums = [0] * self.r
        for subset, val in self.values:
            for v in subset:
                sums[v - 1] += val
        return tuple(sums)

    def is_invariant(self, sigma: Sequence[int]) -> bool:
        """Whether f(sigma(S)) == f(S) for every subset S.

        `sigma` gives 1-based images of the vertices 1..r.
        """
        sigma = as_permutation(sigma, self.r, "vertex images")
        values = dict(self.values)
        return all(
            values.get(tuple(sorted(sigma[v - 1] for v in subset)), 0) == val
            for subset, val in self.values
        )

    def check(self) -> None:
        """Raise unless every vertex is covered with total weight p."""
        sums = self.vertex_sums()
        bad = [v + 1 for v, s in enumerate(sums) if s != self.p]
        if bad:
            raise PreconditionError(
                f"vertex sums differ from p={self.p} at vertices {bad}"
            )

    def induced_matrix(self) -> DistanceMatrix:
        """Distances p - sum of weights over subsets containing both vertices."""
        self.check()
        rows = [[0] * self.r for _ in range(self.r)]
        for i in range(self.r):
            for j in range(i + 1, self.r):
                shared = sum(
                    val for s, val in self.values if i + 1 in s and j + 1 in s
                )
                rows[i][j] = rows[j][i] = self.p - shared
        return DistanceMatrix.from_rows(rows)

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "p": self.p,
            "values": [{"subset": list(s), "f": v} for s, v in self.values],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GraphFunction":
        with malformed("graph function object"):
            values = tuple(
                (tuple(entry["subset"]), entry["f"]) for entry in data["values"]
            )
            return cls(data["r"], data["p"], values)


@functools.lru_cache(maxsize=16)
def _search_tables(r: int) -> tuple[tuple, tuple, tuple]:
    """The tables of `solve` that depend only on the vertex count r > 1.

    `pairs` lists the vertex pairs (i, j), i < j.  `branch` lists the
    subsets of size r-1 down to 3 as (members, positions of their internal
    pairs in `pairs`, size - 1).  `drops[k]` holds (v, s_v - 1) for the
    vertices whose s_v drops on reaching position k: after v's last subset
    of each size, s_v falls to the next size, and to 2 after the last one.
    Drops at the leaf are left to settle.
    """
    verts = range(r)
    pairs = tuple((i, j) for i in verts for j in range(i + 1, r))
    pair_idx = {pq: k for k, pq in enumerate(pairs)}
    branch = tuple(
        (combo, tuple(pair_idx[ab] for ab in itertools.combinations(combo, 2)), s - 1)
        for s in range(r - 1, 2, -1)
        for combo in itertools.combinations(verts, s)
    )
    drops: list[list[tuple[int, int]]] = [[] for _ in branch]
    if branch:
        drops[0] = [(v, r - 2) for v in verts]
    for v in verts:
        at_v = [(k, s1) for k, (combo, _, s1) in enumerate(branch) if v in combo]
        for (k, s1), (_, nxt) in zip(at_v, at_v[1:] + [(len(branch), 1)]):
            if nxt != s1 and k + 1 < len(branch):
                drops[k + 1].append((v, nxt))
    return pairs, branch, tuple(map(tuple, drops))


def solve(
    m: DistanceMatrix,
    p: int,
    d_filter: Optional[int] = None,
    *,
    vertex_cap: int = DEFAULT_SOLVER_VERTEX_CAP,
    stats: Optional[SearchStats] = None,
) -> list[GraphFunction]:
    """All weight functions realising the matrix in degree p.

    Exhaustive search over the proper nonempty subsets.  Subsets are
    processed by decreasing size; once every subset of size >= 3 is fixed,
    each pair subset is the last one covering its pair, so its weight is
    forced by the remaining pair budget, and singleton weights are forced
    by the remaining vertex budgets.  Branching therefore happens on sizes
    3..r-1 only, with weights bounded by the smallest open budget.

    Branches are pruned by a pair-budget bound.  Let s_v be the size of the
    largest subset containing v that the search has not reached (2 once
    only pairs and singletons remain).  Each remaining unit of v's vertex
    budget covers at most s_v - 1 units of the pair budgets at v, so a
    branch is infeasible once the open pair budgets at v sum to more than
    (s_v - 1) times v's vertex budget.  Fixing a subset of size s_v that
    contains v leaves that slack unchanged, so the bound is checked only at
    the positions where s_v drops: at the first subset, and right after
    the last subset of each size that contains v.  The leaf test on the
    pair weights is the s_v = 2 case, applied pair by pair.

    A position whose bound is 0 has one child, weight 0, which changes no
    state, so runs of such positions are walked in one loop; each still
    counts as a node and has its drops checked.

    Solutions are sorted by their values.  When `stats` is given, the
    search adds its node, leaf, prune and solution counts to it.
    """
    (p,) = as_ints((p,), "degree", low=1)
    if d_filter is not None:
        (d_filter,) = as_ints((d_filter,), "dimension filter", low=0)
    check_cap(m.r, vertex_cap, "solver vertex count")
    if not is_admissible(m):
        raise PreconditionError("matrix is not admissible")
    worst = max(
        (m.entries[i][j] for i in range(m.r) for j in range(i + 1, m.r)),
        default=0,
    )
    if worst > p:
        raise PreconditionError(f"matrix distance {worst} exceeds the degree {p}")

    r = m.r
    if r == 1:
        return []  # no proper nonempty subsets exist to cover the vertex
    verts = range(r)
    pairs, branch, drops = _search_tables(r)
    pair_budget = [p - m.entries[i][j] for i, j in pairs]
    vert_budget = [p] * r
    pair_sum = [0] * r  # open pair budget at each vertex
    for (i, j), c in zip(pairs, pair_budget):
        pair_sum[i] += c
        pair_sum[j] += c

    chosen: list[tuple[tuple[int, ...], int]] = []
    solutions: list[GraphFunction] = []
    nodes = leaves = pruned = 0
    last = len(branch)
    pair_at, vert_at = pair_budget.__getitem__, vert_budget.__getitem__

    def settle() -> None:
        vb = list(vert_budget)
        forced: list[tuple[tuple[int, ...], int]] = []
        for k, (i, j) in enumerate(pairs):
            c = pair_budget[k]
            if c:
                if r == 2:
                    return  # the pair is the whole vertex set, weight must be 0
                if vb[i] < c or vb[j] < c:
                    return
                vb[i] -= c
                vb[j] -= c
                forced.append(((i, j), c))
        for v in verts:
            if vb[v]:
                forced.append(((v,), vb[v]))
        entries = chosen + forced
        if d_filter is not None and sum(c for _, c in entries) != d_filter:
            return
        # weights are positive: a weight-0 choice is never in `chosen`
        values = sorted((tuple(v + 1 for v in subset), c) for subset, c in entries)
        solutions.append(unchecked(GraphFunction, r=r, p=p, values=tuple(values)))

    def descend(k: int) -> None:
        nonlocal nodes, leaves, pruned
        while True:  # through the positions whose bound is 0
            nodes += 1
            if k == last:
                leaves += 1
                settle()
                return
            for v, s1 in drops[k]:
                if pair_sum[v] > s1 * vert_budget[v]:
                    pruned += 1
                    return
            members, internal, s1 = branch[k]
            ub = min(map(pair_at, internal))  # the internal pairs usually bind
            if ub:
                ub = min(ub, min(map(vert_at, members)))
                if ub:
                    break
            k += 1
        descend(k + 1)  # weight 0, then 1..ub, each one unit above the last
        chosen.append((members, 0))
        for c in range(1, ub + 1):
            for v in members:
                vert_budget[v] -= 1
                pair_sum[v] -= s1
            for q in internal:
                pair_budget[q] -= 1
            chosen[-1] = (members, c)
            descend(k + 1)
        chosen.pop()
        for v in members:
            vert_budget[v] += ub
            pair_sum[v] += ub * s1
        for q in internal:
            pair_budget[q] += ub

    descend(0)
    solutions.sort(key=lambda f: f.values)
    if stats is not None:
        stats.nodes += nodes
        stats.leaves += leaves
        stats.pruned += pruned
        stats.solutions += len(solutions)
    return solutions


@dataclass(frozen=True)
class Realization:
    """Concrete index subsets for the vertices, plus the block structure.

    `blocks` records which consecutive index block realises each weighted
    subset: pairs (vertex subset, index tuple); the blocks partition 1..d.
    `subsets[v-1]` is s_v, the union of the blocks whose subset contains v.
    """

    r: int
    p: int
    d: int
    subsets: tuple[OrientedSubset, ...]
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        r, p, d = as_ints((self.r, self.p, self.d), "r, p and d", low=1)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        if len(self.subsets) != r:
            raise DomainError(f"{len(self.subsets)} subsets for {r} vertices")

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "p": self.p,
            "d": self.d,
            "subsets": [list(s.indices) for s in self.subsets],
            "blocks": [
                {"subset": list(s), "indices": list(idx)} for s, idx in self.blocks
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Realization":
        with malformed("realization object"):
            return cls(
                data["r"],
                data["p"],
                data["d"],
                tuple(OrientedSubset(tuple(s)) for s in data["subsets"]),
                tuple(
                    (
                        as_ints(b["subset"], "block vertices"),
                        as_ints(b["indices"], "block indices"),
                    )
                    for b in data["blocks"]
                ),
            )


def realize(f: GraphFunction) -> Realization:
    """Assign index blocks to the weighted subsets in subset order.

    Deterministic: the support subsets are walked lexicographically and
    receive consecutive indices starting at 1, so equal inputs produce
    identical realisations.
    """
    f.check()
    next_index = 1
    blocks = []
    covered: dict[int, list[int]] = {v: [] for v in range(1, f.r + 1)}
    for subset, val in f.values:
        idx = tuple(range(next_index, next_index + val))
        next_index += val
        blocks.append((subset, idx))
        for v in subset:
            covered[v].extend(idx)
    # blocks come in increasing index order, and check() gives each vertex p >= 1
    subsets = tuple(unchecked(OrientedSubset, indices=tuple(c)) for c in covered.values())
    return unchecked(Realization, r=f.r, p=f.p, d=next_index - 1, subsets=subsets,
                     blocks=tuple(blocks))


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify(real: Realization, m: DistanceMatrix) -> VerificationReport:
    """Check a realisation against a matrix, reporting each violation."""
    failures = []
    if real.r != m.r:
        failures.append(f"vertex count {real.r} != matrix size {m.r}")
        return VerificationReport(False, tuple(failures))
    for s in real.subsets:
        if s.degree != real.p:
            failures.append(f"subset {s} does not have size {real.p}")
    for i in range(real.r):
        for j in range(i + 1, real.r):
            got = real.subsets[i].distance_to(real.subsets[j])
            want = m.entries[i][j]
            if got != want:
                failures.append(
                    f"distance(v{i + 1}, v{j + 1}) = {got}, expected {want}"
                )
    union = set().union(*(s.indices for s in real.subsets))
    if union != set(range(1, real.d + 1)):
        failures.append(f"subsets cover {sorted(union)}, not 1..{real.d}")
    counts = Counter()
    for subset, idx in real.blocks:
        for i in idx:
            counts[i] += 1
    if any(c > 1 for c in counts.values()):
        dup = sorted(i for i, c in counts.items() if c > 1)
        failures.append(f"blocks overlap at indices {dup}")
    return VerificationReport(not failures, tuple(failures))


def _index_signature(real: Realization) -> Counter:
    """Multiset of index fibers: for each index, the set of vertices using it."""
    sig: Counter = Counter()
    for i in range(1, real.d + 1):
        owners = frozenset(
            v for v in range(1, real.r + 1) if i in real.subsets[v - 1].indices
        )
        sig[owners] += 1
    return sig


def equivalent(a: Realization, b: Realization) -> bool:
    """Whether some index permutation carries one realisation to the other.

    Such a permutation exists iff the two realisations use, for every vertex
    subset S, the same number of indices shared by exactly S.
    """
    if (a.r, a.p, a.d) != (b.r, b.p, b.d):
        return False
    return _index_signature(a) == _index_signature(b)


def forms_of(real: Realization) -> list[SpecialForm]:
    """One form per genuinely different sign choice on the realisation.

    Signs eps in {-1,+1}^r differ inessentially when related by flipping
    coordinate axes: axis i negates every vertex whose subset contains i.
    The classes are the cosets of the flip span of `forms.flip_basis`, the
    space in which `canonicalize` minimises signs, taken over the subsets
    in term order.  Each coset's least element is the one pattern in it
    with no pivot bit set, and these are returned in ascending order,
    which is sign-lexicographic order; the first term always carries +1.
    More than 2**DEFAULT_SIGN_CLASS_BIT_CAP classes are refused.
    """
    first = SpecialForm(real.d, real.p, tuple((s, 1) for s in real.subsets))
    support = first.support  # the subsets in term order
    w = len(support)
    free = (1 << w) - 1
    for piv, _ in flip_basis([s.indices for s in support]):
        free ^= 1 << piv
    check_cap(free.bit_count(), DEFAULT_SIGN_CLASS_BIT_CAP, "sign class bit count")
    forms = [first]
    eps = free & -free  # every pattern within `free`, ascending
    while eps:
        terms = tuple(
            (s, -1 if (eps >> (w - 1 - pos)) & 1 else 1) for pos, s in enumerate(support)
        )
        forms.append(unchecked(SpecialForm, d=first.d, p=first.p, terms=terms))
        eps = (eps - free) & free
    return forms


def lift_symmetry(f: GraphFunction, sigma: Sequence[int]) -> tuple[int, ...]:
    """Index permutation realising a vertex symmetry of the weight function.

    `sigma` gives 1-based images of the vertices and must preserve f, i.e.
    f(sigma(S)) == f(S) for every subset.  The returned tuple maps each
    index block of realize(f) order-preservingly onto the block of the
    image subset, so relabeling indices by it permutes the realisation's
    subsets exactly as sigma permutes vertices.
    """
    if not f.is_invariant(sigma):
        raise PreconditionError(
            f"weight function is not invariant under {tuple(sigma)}"
        )
    real = realize(f)
    block_of = {subset: idx for subset, idx in real.blocks}
    perm = [0] * real.d
    for subset, idx in real.blocks:
        image = tuple(sorted(sigma[v - 1] for v in subset))
        target = block_of[image]
        for a, b in zip(idx, target):
            perm[a - 1] = b
    return tuple(perm)
