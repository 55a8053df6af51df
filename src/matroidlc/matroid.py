"""Matroid construction, validation, and queries.

A matroid is a ground set of labeled elements together with a family of
independent subsets that is nonempty, downward closed, and satisfies the
exchange axiom: when |S| < |T| for independent S, T, some element of
T - S extends S independently.

Elements carry 1-based integer labels.  A freshly constructed matroid
has ground set {1..n}.  Contracting an independent set removes its
labels but never renumbers the survivors, so derivative comparisons
between a polynomial of the original matroid and polynomials of its
contractions stay aligned variable by variable.  ``ambient`` records the
original label space.

Subsets are handled internally as bitmasks (bit i-1 holds element i).
Explicit families are stored as mask sets bucketed by popcount.  The
structured representations (uniform, graphic, linear) answer
independence queries directly from their data without materializing the
family; enumeration materializes and caches it, guarded by a size bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import (
    AxiomViolation,
    ElementOutOfRange,
    EmptyFamily,
    EnumerationLimitExceeded,
    InvalidRank,
    InvalidVertexIndex,
    NonPrimeModulus,
    NotAMatroid,
    NotIndependent,
)

# Exhaustive subset enumeration refuses ground sets above this size
# unless the caller raises the bound explicitly.
DEFAULT_ENUMERATION_LIMIT = 20

# Axiom validation checks every size-adjacent pair up to this ground
# size and falls back to randomized pair sampling above it.
EXHAUSTIVE_VALIDATION_LIMIT = 16

_VALIDATION_SAMPLES = 20000


def _mask_bits(mask: int) -> tuple:
    """Element labels present in a mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _set_of(mask: int) -> frozenset:
    return frozenset(_mask_bits(mask))


def _find(parent: list, x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _not_transitive(a: int, b: int, c: int) -> None:
    """Raise for single-bit masks a, b, c with a parallel to b and to c
    although b and c are not parallel."""
    a, b, c = (x.bit_length() for x in (a, b, c))
    raise NotAMatroid(
        f"parallelism not transitive: {a} is parallel to {b} and to {c}, "
        f"but {b} and {c} are not parallel"
    )


@dataclass(frozen=True)
class ParallelPartition:
    """Loops plus the partition of non-loops into parallel classes.

    Two non-loops are parallel when their pair has rank 1.  Classes are
    ordered by their smallest member.
    """

    loops: frozenset
    classes: tuple

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_of(self, element: int) -> frozenset:
        for cls in self.classes:
            if element in cls:
                return cls
        raise KeyError(element)


class Matroid:
    """Common behavior; subclasses supply ``_indep_impl`` on masks."""

    kind = "abstract"

    def __init__(self, ground_mask: int, ambient: int):
        self._ground_mask = ground_mask
        self.ambient = ambient
        self._family_cache: Optional[frozenset] = None
        self._rank_cache: Optional[int] = None

    # -- representation-specific -------------------------------------

    def _indep_impl(self, mask: int) -> bool:
        raise NotImplementedError

    def _enumerate_masks(self) -> Iterable[int]:
        """Generic DFS over independent sets, ascending-label chains.

        Downward closure guarantees every independent set is reachable
        by inserting its elements in increasing order.
        """
        bits = [1 << (i - 1) for i in self.ground]
        found = [0]
        stack = [(0, 0)]
        while stack:
            mask, start = stack.pop()
            for idx in range(start, len(bits)):
                cand = mask | bits[idx]
                if self._indep_impl(cand):
                    found.append(cand)
                    stack.append((cand, idx + 1))
        return found

    def to_json(self) -> dict:
        raise NotImplementedError(f"{self.kind} matroids have no JSON form")

    # -- shared queries ------------------------------------------------

    @property
    def ground(self) -> tuple:
        return _mask_bits(self._ground_mask)

    @property
    def n_elements(self) -> int:
        return self._ground_mask.bit_count()

    def _subset_mask(self, elements: Iterable[int]) -> int:
        mask = 0
        for e in elements:
            if not isinstance(e, int) or e < 1 or not (self._ground_mask >> (e - 1)) & 1:
                raise ElementOutOfRange(f"element {e!r} not in ground set {self.ground}")
            mask |= 1 << (e - 1)
        return mask

    def _is_independent_mask(self, mask: int) -> bool:
        fam = self._family_cache
        if fam is not None:
            return mask in fam
        return self._indep_impl(mask)

    def is_independent(self, elements: Iterable[int]) -> bool:
        return self._is_independent_mask(self._subset_mask(elements))

    def rank_of(self, elements: Iterable[int]) -> int:
        """Greedy rank: exchange makes any maximal chain maximum."""
        return self._rank_of_mask(self._subset_mask(elements))

    def _rank_of_mask(self, mask: int) -> int:
        acc = 0
        rank = 0
        m = mask
        while m:
            bit = m & -m
            if self._is_independent_mask(acc | bit):
                acc |= bit
                rank += 1
            m ^= bit
        return rank

    @property
    def rank(self) -> int:
        if self._rank_cache is None:
            self._rank_cache = self._rank_of_mask(self._ground_mask)
        return self._rank_cache

    def contract(self, elements: Iterable[int]) -> "Matroid":
        """Matroid on ground - S with T independent iff S + T was.

        Labels of surviving elements are preserved.
        """
        smask = self._subset_mask(elements)
        if not self._is_independent_mask(smask):
            raise NotIndependent(f"cannot contract dependent set {sorted(_mask_bits(smask))}")
        return _Contraction(self, smask)

    def independent_set_masks(self, limit: Optional[int] = None) -> frozenset:
        """All independent sets as masks, materialized once and cached."""
        if self._family_cache is None:
            bound = DEFAULT_ENUMERATION_LIMIT if limit is None else limit
            n = self.n_elements
            if n > bound:
                raise EnumerationLimitExceeded(
                    f"ground set of size {n} exceeds enumeration bound {bound}"
                )
            self._family_cache = frozenset(self._enumerate_masks())
        return self._family_cache

    def independent_sets(self, limit: Optional[int] = None) -> list:
        fam = self.independent_set_masks(limit)
        return sorted((_set_of(m) for m in fam), key=lambda s: (len(s), sorted(s)))

    def count_independent_by_size(self, limit: Optional[int] = None) -> tuple:
        """Sequence I_0..I_n of independent-set counts; I_0 is always 1."""
        n = self.n_elements
        counts = [0] * (n + 1)
        for m in self.independent_set_masks(limit):
            counts[m.bit_count()] += 1
        return tuple(counts)

    def parallel_partition(self) -> ParallelPartition:
        """Loops and parallel classes from singleton and pair ranks."""
        return self._partition_after(0)

    def _partition_after(self, jmask: int) -> ParallelPartition:
        """Loops and parallel classes of M/J for an independent mask J.

        An element e outside J is a loop of M/J when J + e is dependent.
        Otherwise it joins the class of the earlier non-loops r with
        J + e + r dependent, or opens a class of its own.  Parallelism
        must be transitive on a real matroid, so e must be parallel to
        every member of at most one class; the check is kept because
        explicit families can be constructed with validation switched
        off.
        """
        indep = self._is_independent_mask
        loops = []
        classes = []
        rest = self._ground_mask & ~jmask
        while rest:
            bit = rest & -rest
            rest ^= bit
            je = jmask | bit
            if not indep(je):
                loops.append(bit.bit_length())
                continue
            home = None
            for cls in classes:
                hits = [r for r in cls if not indep(je | r)]
                if not hits:
                    continue
                if len(hits) < len(cls):
                    miss = next(r for r in cls if r not in hits)
                    _not_transitive(hits[0], bit, miss)
                if home is not None:
                    _not_transitive(bit, home[0], cls[0])
                home = cls
            if home is None:
                classes.append([bit])
            else:
                home.append(bit)
        parts = tuple(frozenset(r.bit_length() for r in cls) for cls in classes)
        return ParallelPartition(frozenset(loops), parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n_elements}, ambient={self.ambient})"


class ExplicitMatroid(Matroid):
    """Matroid given by its full independence family."""

    kind = "explicit"

    def __init__(self, n: int, family_masks: frozenset):
        super().__init__((1 << n) - 1, n)
        self._family_cache = frozenset(family_masks)

    def _indep_impl(self, mask: int) -> bool:
        return mask in self._family_cache

    def _enumerate_masks(self) -> Iterable[int]:
        return self._family_cache

    def to_json(self) -> dict:
        sets = sorted((sorted(_mask_bits(m)) for m in self._family_cache), key=lambda s: (len(s), s))
        return {"kind": "explicit", "n": self.ambient, "sets": [list(s) for s in sets]}


class UniformMatroid(Matroid):
    """U(r, n): independence is just cardinality at most r."""

    kind = "uniform"

    def __init__(self, r: int, n: int):
        super().__init__((1 << n) - 1, n)
        self.r = r

    def _indep_impl(self, mask: int) -> bool:
        return mask.bit_count() <= self.r

    def _enumerate_masks(self) -> Iterable[int]:
        bits = [1 << (i - 1) for i in self.ground]
        out = []
        for k in range(self.r + 1):
            for combo in combinations(bits, k):
                m = 0
                for b in combo:
                    m |= b
                out.append(m)
        return out

    def to_json(self) -> dict:
        return {"kind": "uniform", "r": self.r, "n": self.ambient}


class GraphicMatroid(Matroid):
    """Edges of a multigraph; independent sets are the cycle-free ones.

    Element i is the i-th edge of the list.  Self-loop edges are matroid
    loops, repeated edges form parallel classes.
    """

    kind = "graphic"

    def __init__(self, vertices: int, edges: Sequence):
        super().__init__((1 << len(edges)) - 1, len(edges))
        self.vertices = vertices
        self.edges = tuple((int(u), int(v)) for u, v in edges)

    def _indep_impl(self, mask: int) -> bool:
        parent = list(range(self.vertices + 1))
        m = mask
        while m:
            bit = m & -m
            u, v = self.edges[bit.bit_length() - 1]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                return False
            parent[ru] = rv
            m ^= bit
        return True

    def _enumerate_masks(self) -> Iterable[int]:
        # DFS carrying a private copy of the union-find forest per node.
        edges = self.edges
        labels = self.ground
        found = [0]
        stack = [(0, 0, list(range(self.vertices + 1)))]
        while stack:
            mask, start, parent = stack.pop()
            for idx in range(start, len(labels)):
                u, v = edges[labels[idx] - 1]
                ru, rv = _find(parent, u), _find(parent, v)
                if ru == rv:
                    continue
                child = parent.copy()
                child[ru] = rv
                cand = mask | (1 << (labels[idx] - 1))
                found.append(cand)
                stack.append((cand, idx + 1, child))
        return found

    def to_json(self) -> dict:
        return {
            "kind": "graphic",
            "vertices": self.vertices,
            "edges": [[u, v] for u, v in self.edges],
        }


class LinearMatroid(Matroid):
    """Columns of a matrix over GF(p) or over the rationals (modulus 0).

    Rational columns are stored with denominators cleared; scaling a
    column never changes which subsets are independent.
    """

    kind = "linear"

    def __init__(self, columns: Sequence, modulus: int = 0):
        cols = []
        for col in columns:
            cols.append(tuple(Fraction(x) for x in col))
        height = len(cols[0]) if cols else 0
        for col in cols:
            if len(col) != height:
                raise ValueError("columns must all have the same height")
        norm = []
        for col in cols:
            if modulus:
                ints = []
                for x in col:
                    if x.denominator != 1:
                        raise ValueError("finite field columns must have integer entries")
                    ints.append(x.numerator % modulus)
                norm.append(tuple(ints))
            else:
                lcm = 1
                for x in col:
                    d = x.denominator
                    g = gcd(lcm, d)
                    lcm = lcm // g * d
                norm.append(tuple(int(x * lcm) for x in col))
        super().__init__((1 << len(norm)) - 1, len(norm))
        self.modulus = modulus
        self.columns = tuple(norm)
        self.height = height

    def _reduce(self, col, basis):
        """Reduce a column against a pivot-normalized basis.

        Returns the normalized reduced vector plus its pivot, or None
        when the column is in the span.
        """
        p = self.modulus
        v = list(Fraction(x) for x in col) if not p else list(col)
        for pivot, bv in basis:
            c = v[pivot]
            if c:
                if p:
                    v = [(a - c * b) % p for a, b in zip(v, bv)]
                else:
                    v = [a - c * b for a, b in zip(v, bv)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return None
        lead = v[pivot]
        if p:
            inv = pow(lead, -1, p)
            v = [(x * inv) % p for x in v]
        else:
            v = [x / lead for x in v]
        return pivot, tuple(v)

    def _indep_impl(self, mask: int) -> bool:
        basis = []
        m = mask
        while m:
            bit = m & -m
            entry = self._reduce(self.columns[bit.bit_length() - 1], basis)
            if entry is None:
                return False
            basis.append(entry)
            m ^= bit
        return True

    def _enumerate_masks(self) -> Iterable[int]:
        labels = self.ground
        found = [0]
        stack = [(0, 0, ())]
        while stack:
            mask, start, basis = stack.pop()
            for idx in range(start, len(labels)):
                entry = self._reduce(self.columns[labels[idx] - 1], basis)
                if entry is None:
                    continue
                cand = mask | (1 << (labels[idx] - 1))
                found.append(cand)
                stack.append((cand, idx + 1, basis + (entry,)))
        return found

    def to_json(self) -> dict:
        return {
            "kind": "linear",
            "modulus": self.modulus,
            "columns": [[str(x) for x in col] for col in self.columns],
        }


class _Contraction(Matroid):
    """View of base / S; queries delegate to the base matroid."""

    kind = "contraction"

    def __init__(self, base: Matroid, smask: int):
        super().__init__(base._ground_mask & ~smask, base.ambient)
        self.base = base
        self.smask = smask

    def _indep_impl(self, mask: int) -> bool:
        return self.base._is_independent_mask(mask | self.smask)

    def _enumerate_masks(self) -> Iterable[int]:
        fam = self.base._family_cache
        if fam is None:
            return super()._enumerate_masks()
        s = self.smask
        return [m & ~s for m in fam if m & s == s]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# -- constructors ------------------------------------------------------


def from_independence_family(
    n: int,
    family: Iterable[Iterable[int]],
    validate: bool = True,
    seed: int = 0,
) -> ExplicitMatroid:
    """Build an explicit matroid, checking the axioms by default.

    Downward closure is checked one element removal at a time, which
    reaches every subset by induction.  Exchange is checked on all pairs
    with |T| = |S| + 1: together with downward closure this implies the
    axiom for every size gap, since any (|S|+1)-subset of a larger T is
    itself independent and cannot lie inside S.  Pair checking is
    exhaustive up to 16 elements and randomly sampled above that (the
    sample size is fixed; the seed only picks which pairs).
    """
    if n < 0:
        raise ValueError("ground size must be nonnegative")
    masks = set()
    for s in family:
        mask = 0
        for e in s:
            if not isinstance(e, int) or e < 1 or e > n:
                raise ElementOutOfRange(f"element {e!r} outside 1..{n}")
            mask |= 1 << (e - 1)
        masks.add(mask)
    if not masks:
        raise EmptyFamily("independence family has no sets")
    if validate:
        _validate_family(n, masks, seed)
    return ExplicitMatroid(n, frozenset(masks))


def _validate_family(n: int, masks: set, seed: int) -> None:
    for mask in masks:
        m = mask
        while m:
            bit = m & -m
            if mask ^ bit not in masks:
                raise AxiomViolation(
                    "downward-closure",
                    (_set_of(mask ^ bit), _set_of(mask)),
                    f"subset {sorted(_mask_bits(mask ^ bit))} of independent "
                    f"{sorted(_mask_bits(mask))} is missing",
                )
            m ^= bit
    by_size = {}
    for mask in masks:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    addable = {}
    for mask in masks:
        acc = 0
        for i in range(n):
            bit = 1 << i
            if not mask & bit and mask | bit in masks:
                acc |= bit
        addable[mask] = acc

    def check_pair(s: int, t: int) -> None:
        if not addable[s] & (t & ~s):
            raise AxiomViolation(
                "exchange",
                (_set_of(s), _set_of(t)),
                f"no element of {sorted(_mask_bits(t))} minus "
                f"{sorted(_mask_bits(s))} extends the smaller set",
            )

    sizes = sorted(by_size)
    if n <= EXHAUSTIVE_VALIDATION_LIMIT:
        for k in sizes:
            if k + 1 not in by_size:
                continue
            for s in by_size[k]:
                for t in by_size[k + 1]:
                    check_pair(s, t)
    else:
        rng = random.Random(seed)
        eligible = [k for k in sizes if k + 1 in by_size]
        if eligible:
            for _ in range(_VALIDATION_SAMPLES):
                k = rng.choice(eligible)
                check_pair(rng.choice(by_size[k]), rng.choice(by_size[k + 1]))


def uniform(r: int, n: int) -> UniformMatroid:
    if not isinstance(r, int) or not isinstance(n, int) or n < 0 or not 0 <= r <= n:
        raise InvalidRank(f"need 0 <= r <= n, got r={r}, n={n}")
    return UniformMatroid(r, n)


def graphic(vertices: int, edges: Sequence) -> GraphicMatroid:
    if vertices < 0:
        raise InvalidVertexIndex("vertex count must be nonnegative")
    for u, v in edges:
        for x in (u, v):
            if not isinstance(x, int) or x < 1 or x > vertices:
                raise InvalidVertexIndex(f"endpoint {x!r} outside 1..{vertices}")
    return GraphicMatroid(vertices, edges)


def linear(columns: Sequence, modulus: int = 0) -> LinearMatroid:
    if modulus != 0 and not _is_prime(modulus):
        raise NonPrimeModulus(f"modulus {modulus} is not prime")
    return LinearMatroid(columns, modulus)


# -- JSON --------------------------------------------------------------


def matroid_to_json(m: Matroid) -> dict:
    return m.to_json()


def matroid_from_json(obj: dict) -> Matroid:
    """Parse the on-disk matroid description; explicit families are
    validated on load."""
    if not isinstance(obj, dict):
        raise ValueError("matroid description must be a JSON object")
    kind = obj.get("kind")
    if kind == "explicit":
        return from_independence_family(int(obj["n"]), obj["sets"])
    if kind == "uniform":
        return uniform(int(obj["r"]), int(obj["n"]))
    if kind == "graphic":
        edges = [(int(u), int(v)) for u, v in obj["edges"]]
        return graphic(int(obj["vertices"]), edges)
    if kind == "linear":
        columns = [[Fraction(str(x)) for x in col] for col in obj["columns"]]
        return linear(columns, int(obj["modulus"]))
    raise ValueError(f"unknown matroid kind {kind!r}")
