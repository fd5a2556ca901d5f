"""Shared fixtures and independent oracles for the test suite.

Everything here is deliberately written without reusing the package's own
search machinery, so tests compare two genuinely different computations.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from specialforms import (
    DistanceMatrix,
    SignedPermutation,
    SpecialForm,
    apply,
    is_admissible,
)

# ---------------------------------------------------------------------------
# Octonion structure constants.
#
# Imaginary units e_1..e_7 multiply along the seven lines generated by the
# cyclic rule e_i * e_{i+1} = e_{i+3} (indices mod 7).  The multiplication
# table is validated by test_octonion_composition_norm: the composition
# property |xy| = |x| |y| holds only for a correct table.
# ---------------------------------------------------------------------------

OCT_LINES = [(i, i % 7 + 1, (i + 2) % 7 + 1) for i in range(1, 8)]

_MULT: dict[tuple[int, int], tuple[int, int]] = {}
for _a, _b, _c in OCT_LINES:
    for _x, _y, _z in ((_a, _b, _c), (_b, _c, _a), (_c, _a, _b)):
        _MULT[(_x, _y)] = (1, _z)
        _MULT[(_y, _x)] = (-1, _z)


def octonion_multiply(x, y):
    """Product of two octonions given as length-8 coefficient lists."""
    out = [0.0] * 8
    out[0] = x[0] * y[0] - sum(x[i] * y[i] for i in range(1, 8))
    for i in range(1, 8):
        out[i] += x[0] * y[i] + y[0] * x[i]
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j:
                s, k = _MULT[(i, j)]
                out[k] += s * x[i] * y[j]
    return out


def cayley_form() -> SpecialForm:
    """The 7-term 3-form with components <e_i e_j, e_k> on sorted triples."""
    terms = []
    for i, j, k in itertools.combinations(range(1, 8), 3):
        sign, image = _MULT[(i, j)]
        if image == k:
            terms.append(((i, j, k), sign))
    assert len(terms) == 7
    return SpecialForm.from_terms(7, 3, terms)


# ---------------------------------------------------------------------------
# Brute-force orbit minimum (oracle for canonicalize).
# ---------------------------------------------------------------------------


def brute_canonical(form: SpecialForm) -> SpecialForm:
    best = None
    for sigma in itertools.permutations(range(1, form.d + 1)):
        for bits in range(2**form.d):
            eta = tuple(-1 if (bits >> i) & 1 else 1 for i in range(form.d))
            cand = apply(SignedPermutation(sigma, eta), form)
            if best is None or cand.sort_key() < best.sort_key():
                best = cand
    return best


def brute_least_support(form: SpecialForm) -> tuple[tuple[int, ...], ...]:
    """Least sorted support over all d! relabelings of the indices."""
    support = [s.indices for s in form.support]
    return tuple(min(
        sorted(tuple(sorted(perm[i - 1] for i in s)) for s in support)
        for perm in itertools.permutations(range(1, form.d + 1))
    ))


# ---------------------------------------------------------------------------
# Orbit counts by Burnside's lemma (oracle for canonicalize and
# orbit_equivalent, with no search).
#
# A signed permutation g = (sigma, eta) of B_d permutes the p-subsets, each
# image carrying the sign of its sorting permutation times the eta of its
# members.  Along a cycle of g on the subsets let epsilon be the product of
# those signs: a form that g fixes is 0 on the cycle when epsilon = -1, and
# one value of {-1, 0, +1} on all of it when epsilon = +1.  So the forms
# that g fixes have weight enumerator prod over epsilon = +1 cycles of
# (1 + 2 x^len), and the orbits by weight are the average of these over the
# 2^d d! elements of B_d (de Bruijn, "Polya's theory of counting", 1964;
# Harary and Palmer, Graphical Enumeration, 1973).
# ---------------------------------------------------------------------------


def orbit_counts(d: int, p: int) -> list[int]:
    """The number of B_d orbits of the (d, p) forms of each weight 0..C(d, p)."""
    subsets = list(itertools.combinations(range(d), p))
    index = {s: k for k, s in enumerate(subsets)}
    masks = [sum(1 << i for i in s) for s in subsets]
    total = [0] * (len(subsets) + 1)
    for sigma in itertools.permutations(range(d)):
        step, odd = [], []
        for s in subsets:
            image = [sigma[i] for i in s]
            step.append(index[tuple(sorted(image))])
            odd.append(sum(a > b for a, b in itertools.combinations(image, 2)) % 2)
        # a cycle's epsilon under eta is its sorting parity plus the parity of
        # the eta = -1 axes in the sum mod 2 of its subsets' indicator masks
        cycles, seen = [], [False] * len(subsets)
        for k in range(len(subsets)):
            length, parity, mask = 0, 0, 0
            while not seen[k]:
                seen[k] = True
                length, parity, mask = length + 1, parity ^ odd[k], mask ^ masks[k]
                k = step[k]
            if length:
                cycles.append((length, parity, mask))
        for flips in range(2**d):  # bit i set: eta_i = -1
            poly = [1]
            for length, parity, mask in cycles:
                if parity ^ (bin(flips & mask).count("1") % 2) == 0:
                    grown = poly + [0] * length
                    for i, c in enumerate(poly):
                        grown[i + length] += 2 * c
                    poly = grown
            for i, c in enumerate(poly):
                total[i] += c
    order = 2**d * math.factorial(d)
    assert all(t % order == 0 for t in total)
    return [t // order for t in total]


def random_form(rng, d_max=5, w_max=4) -> SpecialForm:
    d = rng.randint(1, d_max)
    p = rng.randint(1, d)
    subs = list(itertools.combinations(range(1, d + 1), p))
    rng.shuffle(subs)
    w = rng.randint(1, min(w_max, len(subs)))
    return SpecialForm.from_terms(d, p, [(s, rng.choice((1, -1))) for s in subs[:w]])


# ---------------------------------------------------------------------------
# Exact comass (oracle for calibration.comass).
#
# A 1-form, an (n-1)-form and an n-form on R^n are simple, so their comass
# is their Euclidean norm, sqrt(w) for w terms of +-1.  The comass of a
# 2-form is the largest singular value of its antisymmetric coefficient
# matrix (Federer, Geometric Measure Theory, 1969, section 1.8).
# ---------------------------------------------------------------------------


def exact_comass(form: SpecialForm) -> float | None:
    """The comass of a form of degree 1, 2, d - 1 or d; None otherwise."""
    if form.p in (1, form.d - 1, form.d):
        return math.sqrt(form.weight)
    if form.p != 2:
        return None
    a = np.zeros((form.d, form.d))
    for s, g in form.terms:
        i, j = (v - 1 for v in s.indices)
        a[i, j], a[j, i] = g, -g
    return float(np.linalg.svd(a, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# Independent realisation-equation oracle.
#
# Enumerates all proper nonempty subsets in plain lexicographic order (mixed
# sizes) and bounds each weight only by the defining equations' partial sums;
# no forcing, no size ordering.  Returns solutions in the package's
# (subset tuple, value) shape for direct comparison.
# ---------------------------------------------------------------------------


def oracle_solve(m: DistanceMatrix, p: int):
    r = m.r
    subsets = sorted(
        combo
        for size in range(1, r)
        for combo in itertools.combinations(range(r), size)
    )
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    pidx = {pq: k for k, pq in enumerate(pairs)}
    ptarget = [p - m.entries[i][j] for i, j in pairs]
    vsum = [0] * r
    psum = [0] * len(pairs)
    internal = [
        [pidx[ab] for ab in itertools.combinations(s, 2)] for s in subsets
    ]
    out = []
    assign = []

    def rec(k):
        if k == len(subsets):
            if all(v == p for v in vsum) and psum == ptarget:
                out.append(
                    tuple(
                        sorted(
                            (tuple(v + 1 for v in s), c)
                            for s, c in zip(subsets, assign)
                            if c
                        )
                    )
                )
            return
        s = subsets[k]
        cmax = min(p - vsum[v] for v in s)
        for q in internal[k]:
            if ptarget[q] - psum[q] < cmax:
                cmax = ptarget[q] - psum[q]
        for c in range(cmax + 1):
            for v in s:
                vsum[v] += c
            for q in internal[k]:
                psum[q] += c
            assign.append(c)
            rec(k + 1)
            assign.pop()
            for v in s:
                vsum[v] -= c
            for q in internal[k]:
                psum[q] -= c

    rec(0)
    return sorted(out)


def all_admissible_matrices(r: int, value_max: int):
    """Every admissible symmetric matrix on r vertices with entries <= value_max."""
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    for vals in itertools.product(range(1, value_max + 1), repeat=len(pairs)):
        rows = [[0] * r for _ in range(r)]
        for (i, j), v in zip(pairs, vals):
            rows[i][j] = rows[j][i] = v
        m = DistanceMatrix.from_rows(rows)
        if is_admissible(m):
            yield m


# ---------------------------------------------------------------------------
# Random edge-disjoint 2-factors, used to sample matrices in which every
# distance occurs exactly twice per row without starting from a known
# symmetric construction.
# ---------------------------------------------------------------------------

CYCLE_SHAPES = {
    5: ((5,),),
    7: ((7,), (3, 4)),
    9: ((9,), (3, 6), (4, 5), (3, 3, 3)),
}


def random_two_factor(rng, r, banned, attempts=300):
    """Random 2-regular graph on r vertices avoiding `banned` edges, or None."""
    shapes = CYCLE_SHAPES[r]
    for _ in range(attempts):
        verts = list(range(r))
        rng.shuffle(verts)
        edges = set()
        pos = 0
        for size in rng.choice(shapes):
            cyc = verts[pos : pos + size]
            pos += size
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                edges.add(frozenset((a, b)))
        if not edges & banned:
            return edges
    return None


def _two_factor_of(edges, r, rng):
    """A 2-regular spanning subgraph using only `edges`, by backtracking.

    The callers pass 4-regular graphs, which always contain one."""
    adj = {v: [] for v in range(r)}
    for e in edges:
        a, b = sorted(e)
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        rng.shuffle(adj[v])
    deg = [0] * r
    chosen: list[frozenset] = []

    def rec(v: int) -> bool:
        if v == r:
            return True
        need = 2 - deg[v]
        if need == 0:
            return rec(v + 1)
        cands = [w for w in adj[v] if w > v and deg[w] < 2]
        if len(cands) < need:
            return False
        for combo in itertools.combinations(cands, need):
            deg[v] += need
            for w in combo:
                deg[w] += 1
                chosen.append(frozenset((v, w)))
            if rec(v + 1):
                return True
            deg[v] -= need
            for w in combo:
                deg[w] -= 1
                chosen.pop()
        return False

    return set(chosen) if rec(0) else None


def random_two_factorization(rng, r):
    """Split the edges of K_r into (r - 1) / 2 classes of 2-regular graphs.

    Early classes are rejection-sampled; the second-to-last is extracted
    from the remaining 4-regular graph by exact search, and the leftover
    edges close the partition.  Returns None when rejection fails.
    """
    every = {frozenset((a, b)) for a in range(r) for b in range(a + 1, r)}
    used: set = set()
    classes = []
    k = (r - 1) // 2
    for i in range(k - 1):
        if i == k - 2:
            fac = _two_factor_of(every - used, r, rng)
        else:
            fac = random_two_factor(rng, r, used)
        if fac is None:
            return None
        classes.append(fac)
        used |= fac
    classes.append(every - used)
    return classes


# ---------------------------------------------------------------------------
# Set partitions (oracle for bell).
# ---------------------------------------------------------------------------


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def fano_matrix() -> DistanceMatrix:
    rows = [[0 if i == j else 2 for j in range(7)] for i in range(7)]
    return DistanceMatrix.from_rows(rows)


def graph_function_invariant(f, sigma) -> bool:
    values = dict(f.values)
    return all(
        values.get(tuple(sorted(sigma[v - 1] for v in subset)), 0) == val
        for subset, val in f.values
    )


def brute_automorphisms(m: DistanceMatrix) -> set[tuple[int, ...]]:
    """Every vertex permutation (1-based images) preserving the entries,
    found by trying all r! permutations."""
    e, r = m.entries, m.r
    return {
        tuple(v + 1 for v in perm)
        for perm in itertools.permutations(range(r))
        if all(e[perm[v]][perm[w]] == e[v][w] for v in range(r) for w in range(v))
    }


# ---------------------------------------------------------------------------
# Brute-force democratic classification (oracle for classify_small).
# ---------------------------------------------------------------------------


def brute_classify(r: int, alphabet) -> tuple[int, list[DistanceMatrix]]:
    """Candidate count and democratic candidates, in order, by trying every
    symmetric matrix over the alphabet in lexicographic upper-triangle
    order.  A candidate's rows all hold one set of (r - 1) / 2 values, each
    twice; it is democratic when its automorphisms move vertex 1 anywhere."""
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    count, democratic = 0, []
    for vals in itertools.product(sorted(alphabet), repeat=len(pairs)):
        rows = [[0] * r for _ in range(r)]
        for (i, j), v in zip(pairs, vals):
            rows[i][j] = rows[j][i] = v
        profiles = {
            frozenset(Counter(row[:i] + row[i + 1 :]).items())
            for i, row in enumerate(rows)
        }
        if len(profiles) != 1 or any(n != 2 for _, n in min(profiles)):
            continue
        count += 1
        m = DistanceMatrix.from_rows(rows)
        if {perm[0] for perm in brute_automorphisms(m)} == set(range(1, r + 1)):
            democratic.append(m)
    return count, democratic


# ---------------------------------------------------------------------------
# Weight sums and row counts (oracles for induced_matrix and is_predemocratic).
# ---------------------------------------------------------------------------


def weight_sum_matrix(f) -> list[list[int]]:
    """Rows of p minus the total weight of the subsets that hold both
    vertices, pair by pair, with a zero diagonal."""
    return [
        [0 if v == w else f.p - sum(c for s, c in f.values if v in s and w in s)
         for w in range(1, f.r + 1)]
        for v in range(1, f.r + 1)
    ]


def counter_predemocratic(m: DistanceMatrix):
    """(flag, counts) as is_predemocratic defines them, from one Counter of
    the off-diagonal entries per row."""
    counts = [
        Counter(x for j, x in enumerate(row) if j != i) for i, row in enumerate(m.entries)
    ]
    if any(c != counts[0] for c in counts):
        return False, None
    return True, dict(sorted(counts[0].items()))
