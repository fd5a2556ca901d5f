"""Sign-valued p-forms on R^d and the signed coordinate-permutation action.

A form is stored sparsely as its support: the strictly increasing index
tuples that carry a nonzero component, each with a sign in {-1, +1}.  The
group of signed permutations (permute the d coordinate axes, then flip any
subset of them) acts on forms; `canonicalize` returns the least element of
the orbit under a fixed total order, and `orbit_equivalent` matches one form
against the least support and the automorphisms found for the other.

Total order used throughout: terms are ordered by their index tuples
lexicographically, and forms with the same support compare by their sign
sequence with +1 before -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (DomainError, as_ints, as_permutation, as_signs, as_subset, check_cap,
                     malformed, unchecked)

# Above this dimension a full orbit minimisation is refused by default.
DEFAULT_CANON_DIMENSION_CAP = 10


def _sorted_with_parity(seq: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Insertion-sort a sequence of distinct integers, tracking swap parity."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


@dataclass(frozen=True, order=True)
class OrientedSubset:
    """A coordinate p-plane: a strictly increasing tuple of indices >= 1."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", as_subset(self.indices, "indices"))

    @property
    def degree(self) -> int:
        return len(self.indices)

    def distance_to(self, other: "OrientedSubset") -> int:
        """Degree minus the overlap size; a metric on equal-degree subsets."""
        if other.degree != self.degree:
            raise DomainError("distance is defined between subsets of equal degree")
        return self.degree - len(set(self.indices) & set(other.indices))

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        if self.indices[-1] <= 9:
            return "e" + "".join(str(i) for i in self.indices)
        return "e(" + ",".join(str(i) for i in self.indices) + ")"


def subset_distance(s, t) -> int:
    """Degree minus shared indices, accepting subsets or plain index tuples."""
    if not isinstance(s, OrientedSubset):
        s = OrientedSubset(tuple(s))
    if not isinstance(t, OrientedSubset):
        t = OrientedSubset(tuple(t))
    return s.distance_to(t)


@dataclass(frozen=True)
class SpecialForm:
    """A p-form on R^d whose components all lie in {-1, 0, +1}.

    `terms` holds the support as (subset, sign) pairs; it is normalised to
    be sorted by subset, and duplicate subsets are rejected.
    """

    d: int
    p: int
    terms: tuple[tuple[OrientedSubset, int], ...]

    def __post_init__(self) -> None:
        (d,) = as_ints((self.d,), "dimension", low=1)
        (p,) = as_ints((self.p,), "degree", 1, d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", p)
        signs = as_signs((sign for _, sign in self.terms), "signs")
        norm = []
        for (subset, _), sign in zip(self.terms, signs):
            if not isinstance(subset, OrientedSubset):
                subset = OrientedSubset(tuple(subset))
            if subset.degree != p:
                raise DomainError(f"term {subset} does not have degree {p}")
            if subset.indices[-1] > d:
                raise DomainError(f"term {subset} uses an index beyond d={d}")
            norm.append((subset, sign))
        norm.sort(key=lambda t: t[0].indices)
        for a, b in zip(norm, norm[1:]):
            if a[0] == b[0]:
                raise DomainError(f"duplicate term {a[0]}")
        object.__setattr__(self, "terms", tuple(norm))

    @classmethod
    def from_terms(
        cls, d: int, p: int, terms: Iterable[tuple[Iterable[int], int]]
    ) -> "SpecialForm":
        return cls(d, p, tuple((OrientedSubset(tuple(s)), g) for s, g in terms))

    @property
    def weight(self) -> int:
        return len(self.terms)

    @property
    def support(self) -> tuple[OrientedSubset, ...]:
        return tuple(s for s, _ in self.terms)

    @cached_property
    def _sign_by_subset(self) -> dict[tuple[int, ...], int]:
        return {s.indices: g for s, g in self.terms}

    def sort_key(self) -> tuple:
        """Key realising the canonical total order on equal (d, p) forms."""
        return (
            tuple(s.indices for s, _ in self.terms),
            tuple(0 if g > 0 else 1 for _, g in self.terms),
        )

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "p": self.p,
            "terms": [
                {"indices": list(s.indices), "sign": g} for s, g in self.terms
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpecialForm":
        with malformed("form object"):
            terms = [(tuple(t["indices"]), t["sign"]) for t in data["terms"]]
            return cls.from_terms(data["d"], data["p"], terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (s, g) in enumerate(self.terms):
            if i == 0:
                parts.append(("-" if g < 0 else "") + str(s))
            else:
                parts.append(("- " if g < 0 else "+ ") + str(s))
        return " ".join(parts)


def component(form: SpecialForm, indices: Sequence[int]) -> int:
    """Component of the form at an arbitrary index tuple.

    Repeated indices give 0; otherwise the stored sign at the sorted tuple,
    times the parity of the permutation that sorts the input.
    """
    idx = as_ints(indices, "indices", 1, form.d)
    if len(idx) != form.p:
        raise DomainError(f"expected {form.p} indices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        return 0
    key, parity = _sorted_with_parity(idx)
    sign = form._sign_by_subset.get(key)
    return 0 if sign is None else sign * parity


@dataclass(frozen=True)
class SignedPermutation:
    """Element of the signed permutation group: axis relabeling plus flips.

    `sigma[i-1]` is the image of axis i; `eta[i-1]` in {-1, +1} is the flip
    applied to axis i of the argument's index, see `apply`.
    """

    sigma: tuple[int, ...]
    eta: tuple[int, ...]

    def __post_init__(self) -> None:
        (d,) = as_ints((len(self.sigma),), "dimension", low=1)
        sigma = as_permutation(self.sigma, d, "permutation images")
        eta = as_signs(self.eta, "axis flips")
        if len(eta) != d:
            raise DomainError(f"expected {d} axis flips, got {len(eta)}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "eta", eta)

    @property
    def d(self) -> int:
        return len(self.sigma)

    @classmethod
    def identity(cls, d: int) -> "SignedPermutation":
        return cls(tuple(range(1, d + 1)), (1,) * d)

    @classmethod
    def random(cls, d: int, rng) -> "SignedPermutation":
        """Uniform group element from a `random.Random` instance."""
        sigma = list(range(1, d + 1))
        rng.shuffle(sigma)
        eta = tuple(rng.choice((1, -1)) for _ in range(d))
        return cls(tuple(sigma), eta)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """Element k with apply(k, f) == apply(self, apply(other, f))."""
        if other.d != self.d:
            raise DomainError("cannot compose elements of different dimension")
        sigma = tuple(other.sigma[self.sigma[i] - 1] for i in range(self.d))
        eta = tuple(
            self.eta[i] * other.eta[self.sigma[i] - 1] for i in range(self.d)
        )
        return SignedPermutation(sigma, eta)

    def inverse(self) -> "SignedPermutation":
        inv = [0] * self.d
        for i, img in enumerate(self.sigma, start=1):
            inv[img - 1] = i
        eta = tuple(self.eta[inv[j] - 1] for j in range(self.d))
        return SignedPermutation(tuple(inv), eta)


def apply(g: SignedPermutation, form: SpecialForm) -> SpecialForm:
    """Act on a form: (g.f)_{i_1..i_p} = eta_{i_1}..eta_{i_p} f_{sigma(i_1)..sigma(i_p)}."""
    if g.d != form.d:
        raise DomainError(f"group element lives in dimension {g.d}, form in {form.d}")
    inv = [0] * (form.d + 1)
    for i, img in enumerate(g.sigma, start=1):
        inv[img] = i
    new_terms = []
    for subset, sign in form.terms:
        pre = tuple(sorted(inv[mu] for mu in subset.indices))
        # parity of (sigma(t_1), .., sigma(t_p)) against ascending order
        _, par = _sorted_with_parity([g.sigma[i - 1] for i in pre])
        flips = 1
        for i in pre:
            flips *= g.eta[i - 1]
        new_terms.append((pre, sign * par * flips))
    new_terms.sort()  # the preimages are distinct, so no sign is compared
    terms = tuple((unchecked(OrientedSubset, indices=pre), s) for pre, s in new_terms)
    return unchecked(SpecialForm, d=form.d, p=form.p, terms=terms)


# ---------------------------------------------------------------------------
# Canonical orbit representative.
#
# Minimising the support over all relabelings is done by placing the terms
# one at a time as the rows of the sorted support, depth first.  A placement
# step picks a still-unplaced term, which realises one complete row, and a
# realised prefix that already exceeds the incumbent's prefix is pruned.
# The term's k unlabeled indices take the next labels n+1, .., n+k (n
# labels are handed out), smallest first, each to one of them, so the row
# is the term's fixed labels followed by those.
# No other choice can be least: in a least relabeling the rows 0..t use
# exactly the labels 1..u_t.  Were row t to use a fresh label L while a
# smaller L' is unused by rows 0..t, swapping L and L' would keep rows
# 0..t-1 and turn row t into a smaller row that is none of them, so the
# swapped support would have t+1 rows below the old row t: a smaller
# sorted row list.
#
# Each term keeps the list of its fixed labels: labeling an index appends
# the label to the list of every term that contains the index, and undoing
# it pops the label again.  Labels are handed out in increasing order along
# a path, so every list is sorted by construction and a candidate row is
# the list followed by the first fresh labels, with no sort.  The incumbent
# bound on row t is read once per node: a new incumbent can only come from
# the node's own subtree, so it shares rows 0..t-1 with the node.
#
# Rows increase strictly with no test for it.  A term's candidate row never
# falls as labels are handed out.  A term whose row lay below row t-1 when
# row t-1 was chosen came first in that loop, and the incumbent bound its
# subtree left stops the loop before row t-1 is placed.  A term whose row
# equalled row t-1 has the same fixed labels and cannot take all of row
# t-1's fresh labels without being that term, so its row grows.
#
# Once every index of the support has a label, each unplaced term's row is
# its fixed labels, and the walk is forced: one node per row, in sorted
# order, and no sibling, which the bound left by the first child's subtree
# cuts.  So these rows are sorted once and compared with the incumbent's:
# at the first that differs the branch is cut if it is above, a match fails
# if it is below, and a search goes on to a new incumbent.  `nodes` gains
# what the walk would enter, one for each row compared and one for a leaf.
#
# Automorphisms of the support prune the search (McKay & Piperno, "Practical
# graph isomorphism, II", 2014).  Let l0 be the labeling that first reaches
# the incumbent rows.  A later leaf l that ties with them gives
# g = l0^-1 . l, a permutation of the indices that maps the support onto
# itself; it is stored as a generator, and the group is never listed.
# - At each node, the generators that fix every labeled index map the node
#   onto itself, so a child that their closure maps onto an explored sibling
#   holds only images of leaves already seen and is skipped.
# - g also maps the child through which l left l0's path onto l0's child
#   there, whose subtree is done, so the search returns to that node at once.
# Only true automorphisms prune, so every tie leaf is an explored one times
# a product of generators, and the generators generate the whole
# automorphism group of the support.
#
# Signs are minimised afterwards over that group.  Flipping label j negates
# every row containing j, a linear action over GF(2), so sign patterns
# matter only modulo the flip span, and a coset's least element is its
# echelon-reduced representative.  Each generator acts on the rows of l0 as
# a permutation plus parity bits, which maps the flip span onto itself; the
# answer is the least reduced coset in the orbit of l0's signature under
# these actions, an orbit of at most 2^(w - rank) cosets.
#
# A match runs the same search with another form's least rows as the
# incumbent from the start.  A candidate row below the target's row makes
# this form's least rows smaller and fails the match at once; the first leaf
# on the target ends it, before a tie could give a generator.  The forms are
# equivalent when that leaf's sign coset is in the other's coset orbit.
# ---------------------------------------------------------------------------


@dataclass
class SearchStats:
    """Work counters of an exhaustive search; a search adds its counts to
    the fields, so one object can total several calls.  By search:

    - placement (`canonicalize`; `orbit_equivalent` adds its search of the
      first form and its match of the second): `nodes` the positions
      entered, rows built in one pass after the last fresh label counting as
      the walk would, a node per row compared and one for a leaf; `leaves`
      the leaves reached; `pruned` the children skipped as an automorphism
      maps them onto an explored sibling, and each leaf that ties the
      incumbent and jumps back, but no bound cut, one-pass cut or failed
      match; `solutions` the leaves on the least rows (a match: its leaf).
    - `realization.solve`: `nodes` the subset positions entered, forced
      zero weights included; `leaves` the positions past the last branching
      subset; `pruned` the positions cut by the pair-budget bound;
      `solutions` the weight functions returned.
    - `graphs._extend`, the kernel of `symmetries`, `is_democratic` and
      `find_relabeling`: `nodes` the positions entered past the pinned
      prefix, `leaves` one per bijection found, and nothing else.
    - `democratic.classify_small`: `nodes` the prefixes entered of its tree
      over the ranks 1..q, root included, and `pruned` the rank choices
      rejected, the tree walked once per call; `leaves` the candidates over
      the alphabet; `solutions` the catalog entries.
    """

    nodes: int = 0
    leaves: int = 0
    pruned: int = 0
    solutions: int = 0


class _Generator(NamedTuple):
    """A support automorphism: its index map, moved indices and term map."""

    points: dict[int, int]
    moved: frozenset[int]
    terms: tuple[int, ...]


def flip_basis(rows: Sequence[Iterable[int]]) -> list[tuple[int, int]]:
    """Echelon basis of the flip span of a row list, pivots descending.

    A sign pattern sets bit w-1-t when row t has sign -1, and flipping
    label j adds the pattern of the rows that contain j.  Each basis vector
    is given with its pivot, its highest bit, and no two share a pivot, so
    clearing the pivot bits in this order reduces a pattern to the one
    element of its coset with no pivot bit set, the coset's least element.
    """
    w = len(rows)
    incidence: dict[int, int] = {}
    for t, row in enumerate(rows):
        for lab in row:
            incidence[lab] = incidence.get(lab, 0) | (1 << (w - 1 - t))
    basis: dict[int, int] = {}
    for v in incidence.values():
        while v:
            piv = v.bit_length() - 1
            if piv not in basis:
                basis[piv] = v
                break
            v ^= basis[piv]
    return sorted(basis.items(), reverse=True)


def _orbit(start, images) -> Iterator:
    """The elements reachable from `start`; `images(a)` lists a's images."""
    seen = {start}
    stack = [start]
    while stack:
        a = stack.pop()
        yield a
        for b in images(a):
            if b not in seen:
                seen.add(b)
                stack.append(b)


def _reduced(v: int, pivots: list[tuple[int, int]]) -> int:
    """The least element of a sign pattern's coset, given `flip_basis`."""
    for piv, vec in pivots:
        if (v >> piv) & 1:
            v ^= vec
    return v


def _sign_orbit(rows, start: int, pivots, relabelings) -> Iterator[int]:
    """The reduced cosets in the relabelings' orbit of the reduced coset `start`.

    Bit w-1-t of a pattern is set when row t has sign -1.  Each relabeling
    maps the rows onto themselves.
    """
    w = len(rows)
    index = {row: t for t, row in enumerate(rows)}
    actions = set()  # (image of each bit, parity mask) per relabeling
    for h in relabelings:
        bits, mask = [0] * w, 0
        for t, row in enumerate(rows):
            img, par = _sorted_with_parity([h[a] for a in row])
            bits[w - 1 - t] = 1 << (w - 1 - index[img])
            if par < 0:
                mask |= bits[w - 1 - t]
        actions.add((tuple(bits), mask))

    def images(v: int) -> list[int]:
        out = []
        for bits, mask in actions:
            u, rest = mask, v
            while rest:
                low = rest & -rest
                u ^= bits[low.bit_length() - 1]
                rest ^= low
            out.append(_reduced(u, pivots))
        return out

    return _orbit(start, images)


def _least_signature(rows, base: int, relabelings) -> int:
    """Least reduced coset in the relabelings' orbit of a sign pattern's coset."""
    pivots = flip_basis(rows)
    least = _reduced(base, pivots)
    for v in _sign_orbit(rows, least, pivots, relabelings) if least else ():
        least = min(least, v)
        if not least:
            break
    return least


def _labeling(form: SpecialForm, st: SearchStats, target=None) -> Optional[tuple]:
    """The least rows of the relabeled support, by the placement search above.

    Returns the rows, the sign pattern that the first leaf reaching them
    gives the form, and the support automorphisms as maps of that leaf's
    labels.  Given `target` rows it matches them instead, see above, and
    returns None when no leaf reaches them.
    """
    w, p = form.weight, form.p
    members = [s.indices for s, _ in form.terms]
    terms_of: dict[int, list[int]] = {}
    for k, t in enumerate(members):
        for x in t:
            terms_of.setdefault(x, []).append(k)

    label_of: dict[int, int] = {}
    fixed: list[list[int]] = [[] for _ in range(w)]  # each term's labels
    placed = [False] * w
    rows: list[tuple[int, ...]] = []
    path: list = []  # the choice made at each branching node above
    gens: list[_Generator] = []
    # the incumbent rows; the labels, term of each row and path of the leaf l0
    best, inverse, best_term, best_path = target, None, None, None
    ties, jump = 0, None

    def label(x: int, lab: int) -> None:
        label_of[x] = lab
        for k in terms_of[x]:
            fixed[k].append(lab)

    def unlabel(x: int) -> None:
        del label_of[x]
        for k in terms_of[x]:
            fixed[k].pop()

    def finish() -> None:
        nonlocal best, inverse, best_term, best_path, ties, jump
        st.leaves += 1
        rows_t = tuple(rows)
        if inverse is None or rows_t < best:
            best, best_path, ties = rows_t, list(path), 1
            inverse = {lab: x for x, lab in label_of.items()}
            # at a leaf each term's fixed labels are its row
            best_term = {tuple(fixed[k]): k for k in range(w)}
            if target:
                jump = -1  # a match ends at its first leaf
        elif rows_t == best:
            points = {x: inverse[lab] for x, lab in label_of.items()}
            moved = frozenset(x for x, y in points.items() if x != y)
            # the tie puts the same rows where l0 does, so each term maps
            # onto l0's term with its row
            terms = tuple(best_term[tuple(fixed[k])] for k in range(w))
            gens.append(_Generator(points, moved, terms))
            ties += 1
            # back to the node where this path leaves l0's, see above
            jump = next(k for k, (a, b) in enumerate(zip(path, best_path)) if a != b)
            st.pruned += 1

    def jumped() -> bool:
        """After a child returns: whether to leave this node's other children."""
        nonlocal jump
        if jump is not None and jump >= len(path):
            jump = None
        return jump is not None

    def fixing(seen: int) -> list[_Generator]:
        """The generators from the `seen`-th on that fix every labeled index."""
        return [g for g in gens[seen:] if g.moved.isdisjoint(label_of)]

    def meets(item: int, explored, maps: list) -> bool:
        """Whether the maps' closure takes item to an explored sibling."""
        hit = any(a in explored for a in _orbit(item, lambda a: [m[a] for m in maps]))
        st.pruned += hit
        return hit

    def assign(t: int, term: int, need: list[int], labs: tuple[int, ...]) -> None:
        """Hand out `labs` smallest first to the unlabeled indices `need`."""
        if len(need) < 2:
            for x in need:
                label(x, labs[0])
            place(t + 1)
            for x in need:
                unlabel(x)
            return
        explored: set[int] = set()
        maps, seen = [], 0
        for x in need:
            if explored and len(gens) > seen:
                maps += [g.points for g in fixing(seen) if g.terms[term] == term]
                seen = len(gens)
            if maps and meets(x, explored, maps):
                continue
            explored.add(x)
            label(x, labs[0])
            path.append(x)
            rest = [y for y in need if y != x]
            if len(rest) > 1:
                assign(t, term, rest, labs[1:])
            else:  # the last label has one place to go
                label(rest[0], labs[1])
                place(t + 1)
                unlabel(rest[0])
            path.pop()
            unlabel(x)
            if jumped():
                return

    def place(t: int) -> None:
        nonlocal jump
        st.nodes += 1
        if t == w:
            finish()
            return
        incumbent = best
        bound = incumbent[t] if incumbent and list(incumbent[:t]) == rows else None
        n = len(label_of)
        if n == len(terms_of):  # the forced tail, see above
            tail = sorted(tuple(fixed[k]) for k in range(w) if not placed[k])
            for i, row in enumerate(tail if bound else ()):
                goal = incumbent[t + i]
                if row < goal and not target:
                    break  # the leaf is a new incumbent
                if row != goal:  # a cut, or a failed match as below
                    st.nodes += i
                    jump = -1 if row < goal else None
                    return
            st.nodes += w - t
            rows.extend(tail)
            finish()
            del rows[t:]
            return
        fresh = tuple(range(n + 1, n + 1 + p))
        cands = []
        for term in range(w):
            if not placed[term]:
                combo = fresh[: p - len(fixed[term])]
                cands.append((tuple(fixed[term]) + combo, term, combo))
        cands.sort()
        if target and cands[0][0] < bound:
            jump = -1  # every leaf below lies under the target
            return
        explored: dict[tuple[int, ...], set[int]] = {}
        maps, seen = [], 0
        for tup, term, combo in cands:
            if best is not incumbent:
                incumbent = best
                bound = incumbent[t]
            if bound is not None and tup > bound:
                break  # candidates are sorted; nothing below can beat the incumbent
            if combo in explored:
                if len(gens) > seen:
                    maps += [g.terms for g in fixing(seen)]
                    seen = len(gens)
                if maps and meets(term, explored[combo], maps):
                    continue
            explored.setdefault(combo, set()).add(term)
            placed[term] = True
            rows.append(tup)
            path.append((term, combo))
            assign(t, term, [x for x in members[term] if x not in label_of], combo)
            path.pop()
            rows.pop()
            placed[term] = False
            if jumped():
                return

    place(0)
    st.solutions += ties
    if inverse is None:
        return None
    base = 0
    for t, row in enumerate(best):
        preimage, par = _sorted_with_parity([inverse[a] for a in row])
        if form._sign_by_subset[preimage] * par < 0:
            base |= 1 << (w - 1 - t)
    labels = {x: lab for lab, x in inverse.items()}
    maps = ({lab: labels[g.points[x]] for x, lab in labels.items()} for g in gens)
    return best, base, maps


def canonicalize(
    form: SpecialForm,
    *,
    dimension_cap: int = DEFAULT_CANON_DIMENSION_CAP,
    stats: Optional[SearchStats] = None,
) -> SpecialForm:
    """Least orbit element under the signed permutation group.

    `stats`, when given, gains the placement counts that SearchStats lists.
    """
    check_cap(form.d, dimension_cap, "canonicalization dimension")
    w = form.weight
    if w == 0:
        return form
    rows, base, maps = _labeling(form, SearchStats() if stats is None else stats)
    sig = _least_signature(rows, base, maps)
    terms = tuple(
        (unchecked(OrientedSubset, indices=row), -1 if (sig >> (w - 1 - t)) & 1 else 1)
        for t, row in enumerate(rows)
    )
    return unchecked(SpecialForm, d=form.d, p=form.p, terms=terms)


def orbit_equivalent(
    a: SpecialForm, b: SpecialForm, *, stats: Optional[SearchStats] = None
) -> bool:
    """Whether two forms of equal (d, p) lie in the same orbit.

    Forms of unequal weight differ; others are refused, like `canonicalize`,
    above DEFAULT_CANON_DIMENSION_CAP dimensions.  One full search finds a's
    least rows and automorphisms, and b is matched against those rows, in 45
    and 8 placement nodes for the octonion 3-form and a moved copy.  b is in
    a's orbit when its signs on the rows fall in the orbit of a's under a's
    automorphisms, modulo the axis flips.  `stats` receives both counts.
    """
    if (a.d, a.p) != (b.d, b.p):
        raise DomainError("orbit equivalence requires equal dimension and degree")
    if a.weight != b.weight:
        return False
    check_cap(a.d, DEFAULT_CANON_DIMENSION_CAP, "canonicalization dimension")
    if a.weight == 0:
        return True
    stats = SearchStats() if stats is None else stats
    rows, start, maps = _labeling(a, stats)
    match = _labeling(b, stats, rows)
    if match is None:
        return False
    pivots = flip_basis(rows)
    start, goal = _reduced(start, pivots), _reduced(match[1], pivots)
    return start == goal or goal in _sign_orbit(rows, start, pivots, maps)
