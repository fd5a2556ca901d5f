"""Sign-valued p-forms on R^d and the signed coordinate-permutation action.

A form is stored sparsely as its support: the strictly increasing index
tuples that carry a nonzero component, each with a sign in {-1, +1}.  The
group of signed permutations (permute the d coordinate axes, then flip any
subset of them) acts on forms; `canonicalize` returns the least element of
the orbit under a fixed total order, so orbit equivalence reduces to an
equality test on canonical representatives.

Total order used throughout: terms are ordered by their index tuples
lexicographically, and forms with the same support compare by their sign
sequence with +1 before -1.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, DomainError, as_ints

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
        idx = as_ints(self.indices, "indices")
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise DomainError("oriented subset must be nonempty")
        if idx[0] < 1:
            raise DomainError(f"indices must be >= 1, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise DomainError(f"indices must be strictly increasing, got {idx}")

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
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if not 1 <= self.p <= self.d:
            raise DomainError(f"degree must lie in [1, {self.d}], got {self.p}")
        norm = []
        for subset, sign in self.terms:
            if not isinstance(subset, OrientedSubset):
                subset = OrientedSubset(tuple(subset))
            if sign not in (1, -1):
                raise DomainError(f"signs must be +1 or -1, got {sign!r}")
            if subset.degree != self.p:
                raise DomainError(f"term {subset} does not have degree {self.p}")
            if subset.indices[-1] > self.d:
                raise DomainError(f"term {subset} uses an index beyond d={self.d}")
            norm.append((subset, int(sign)))
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
        try:
            terms = [
                (tuple(t["indices"]), operator.index(t["sign"])) for t in data["terms"]
            ]
            return cls.from_terms(
                operator.index(data["d"]), operator.index(data["p"]), terms
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed form object: {exc}") from exc

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
    idx = tuple(int(i) for i in indices)
    if len(idx) != form.p:
        raise DomainError(f"expected {form.p} indices, got {len(idx)}")
    for i in idx:
        if not 1 <= i <= form.d:
            raise DomainError(f"index {i} outside [1, {form.d}]")
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
        sigma = as_ints(self.sigma, "permutation images")
        eta = as_ints(self.eta, "axis flips")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "eta", eta)
        d = len(sigma)
        if d < 1:
            raise DomainError("permutation on an empty index set")
        if sorted(sigma) != list(range(1, d + 1)):
            raise DomainError(f"not a permutation of 1..{d}: {sigma}")
        if len(eta) != d or any(e not in (1, -1) for e in eta):
            raise DomainError("eta must assign +1 or -1 to each of the d axes")

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
        pre, _ = _sorted_with_parity([inv[mu] for mu in subset.indices])
        # parity of (sigma(t_1), .., sigma(t_p)) against ascending order
        _, par = _sorted_with_parity([g.sigma[i - 1] for i in pre])
        flips = 1
        for i in pre:
            flips *= g.eta[i - 1]
        new_terms.append((OrientedSubset(pre), sign * par * flips))
    return SpecialForm(form.d, form.p, tuple(new_terms))


# ---------------------------------------------------------------------------
# Canonical orbit representative.
#
# Minimising the support over all relabelings is done by placing the terms
# one at a time as the rows of the sorted support, depth first.  A placement
# step picks a still-unplaced term, gives fresh labels to its unlabeled
# indices, and realises one complete row; rows must increase strictly, and a
# realised prefix that already exceeds the incumbent's prefix is pruned.
# Because the label images of a minimal relabeling are exactly 1..u (u =
# number of used indices), labels are drawn from that range only.
#
# Signs are minimised afterwards, per minimal support: flipping label j
# negates every row containing j, which is a linear action over GF(2), so
# the reachable sign patterns form a coset and the echelon-reduced coset
# representative is the lexicographic minimum.
# ---------------------------------------------------------------------------


def _echelon_insert(basis: dict[int, int], v: int) -> None:
    while v:
        piv = v.bit_length() - 1
        if piv in basis:
            v ^= basis[piv]
        else:
            basis[piv] = v
            return


def _echelon_reduce(basis: dict[int, int], v: int) -> int:
    for piv in sorted(basis, reverse=True):
        if (v >> piv) & 1:
            v ^= basis[piv]
    return v


def canonicalize(
    form: SpecialForm, *, dimension_cap: int = DEFAULT_CANON_DIMENSION_CAP
) -> SpecialForm:
    """Least orbit element under the signed permutation group."""
    if form.d > dimension_cap:
        raise CapacityError(
            f"canonicalization in dimension {form.d} exceeds the cap {dimension_cap}"
        )
    w = form.weight
    if w == 0:
        return form
    p = form.p
    members = [s.indices for s, _ in form.terms]
    member_sets = [frozenset(t) for t in members]
    signs = [g for _, g in form.terms]
    used = sorted(set().union(*member_sets))

    label_of: dict[int, int] = {}
    free = set(range(1, len(used) + 1))
    placed = [False] * w
    rows: list[tuple[int, ...]] = []
    row_term: list[int] = []
    best: dict = {"rows": None, "sig": None, "basis": None}

    def base_signature() -> int:
        bits = 0
        for t in range(w):
            term = row_term[t]
            order = sorted(member_sets[term], key=lambda x: label_of[x])
            _, par = _sorted_with_parity(order)
            if signs[term] * par < 0:
                bits |= 1 << (w - 1 - t)
        return bits

    def flip_basis(rows_t: tuple[tuple[int, ...], ...]) -> dict[int, int]:
        incidence: dict[int, int] = {}
        for t, row in enumerate(rows_t):
            for lab in row:
                incidence[lab] = incidence.get(lab, 0) | (1 << (w - 1 - t))
        basis: dict[int, int] = {}
        for v in incidence.values():
            _echelon_insert(basis, v)
        return basis

    def finish() -> None:
        rows_t = tuple(rows)
        if best["rows"] is None or rows_t < best["rows"]:
            best["rows"] = rows_t
            best["basis"] = flip_basis(rows_t)
            best["sig"] = _echelon_reduce(best["basis"], base_signature())
        elif rows_t == best["rows"]:
            sig = _echelon_reduce(best["basis"], base_signature())
            if sig < best["sig"]:
                best["sig"] = sig

    def place(t: int) -> None:
        if t == w:
            finish()
            return
        prev = rows[-1] if rows else None
        free_sorted = sorted(free)
        cands = []
        for term in range(w):
            if placed[term]:
                continue
            fixed = sorted(label_of[x] for x in member_sets[term] if x in label_of)
            need = [x for x in members[term] if x not in label_of]
            if not need:
                cands.append((tuple(fixed), term, ()))
            else:
                for combo in itertools.combinations(free_sorted, len(need)):
                    cands.append((tuple(sorted(fixed + list(combo))), term, combo))
        cands.sort()
        for tup, term, combo in cands:
            if prev is not None and tup <= prev:
                continue
            b = best["rows"]
            if b is not None and list(b[:t]) == rows and tup > b[t]:
                break  # candidates are sorted; nothing below can beat the incumbent
            need = [x for x in members[term] if x not in label_of]
            placed[term] = True
            rows.append(tup)
            row_term.append(term)
            free.difference_update(combo)
            for labs in itertools.permutations(combo):
                for x, lab in zip(need, labs):
                    label_of[x] = lab
                place(t + 1)
                for x in need:
                    del label_of[x]
            free.update(combo)
            rows.pop()
            row_term.pop()
            placed[term] = False

    place(0)
    sig = best["sig"]
    terms = tuple(
        (OrientedSubset(row), -1 if (sig >> (w - 1 - t)) & 1 else 1)
        for t, row in enumerate(best["rows"])
    )
    return SpecialForm(form.d, p, terms)


def orbit_equivalent(
    a: SpecialForm, b: SpecialForm, *, dimension_cap: int = DEFAULT_CANON_DIMENSION_CAP
) -> bool:
    """Whether two forms of equal (d, p) lie in the same orbit."""
    if (a.d, a.p) != (b.d, b.p):
        raise DomainError("orbit equivalence requires equal dimension and degree")
    if a.weight != b.weight:
        return False
    ca = canonicalize(a, dimension_cap=dimension_cap)
    cb = canonicalize(b, dimension_cap=dimension_cap)
    return ca == cb
