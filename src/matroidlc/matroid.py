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
Each kind states its independence rule once, as one step from the state
of an independent I to that of I + e (see ``Matroid``; a linear step
eliminates in ints over Q and GF(p) alike).  Independence tests, greedy
rank, contraction and the one DFS over independent sets are derived from
that step.  The DFS counts the sets by size as it walks and lists them
only when asked.  The loops and parallel classes of each contraction
are read off the listed family, by its one-step extensions
(``_extensions``, ``Matroid._classes_after``), and the pair counts of
the spectral diagnostic (how many sets hold each element and each pair)
are bit counts over it.  U(r, n) alone answers three queries in closed
form, with no walk, listed or not: its rank is r, its counts are C(n, k)
for k <= r, and its pair counts are binomial sums; listing its sets
still walks.  The family is cached as a frozenset of masks and the
counts as a tuple, each behind the same size bound, so a query that
needs only the counts never holds the family.
An explicit matroid holds its family from the start, and checks the
axioms on it when it is constructed, so every ``Matroid`` is a matroid.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Iterable, Optional, Sequence

from .errors import (
    AxiomViolation,
    ElementOutOfRange,
    EmptyFamily,
    EnumerationLimitExceeded,
    InvalidRank,
    InvalidVertexIndex,
    NonPrimeModulus,
    NotIndependent,
)
from .linalg import _cleared, _primitive

# Exhaustive subset enumeration refuses ground sets above this size
# unless the caller raises the bound explicitly.
DEFAULT_ENUMERATION_LIMIT = 20


def check_enumeration_bound(n: int, bound: int) -> None:
    """Refuse a ground set of size n above the enumeration bound."""
    if n > bound:
        raise EnumerationLimitExceeded(f"ground set of size {n} exceeds enumeration bound {bound}")


def _mask_bits(mask: int) -> tuple:
    """Element labels present in a mask, ascending, in time linear in its
    length: the binary digits from bit 0 up split at each set bit into
    runs of zeros, and a set bit's label is the running total of the
    runs before it, each plus one."""
    return tuple(accumulate(len(zeros) + 1 for zeros in bin(mask)[:1:-1].split("1")[:-1]))


def _set_of(mask: int) -> frozenset:
    return frozenset(_mask_bits(mask))


def _sizes(masks, n: int) -> list:
    """How many of the masks have each size 0..n."""
    counts = [0] * (n + 1)
    for m in masks:
        counts[m.bit_count()] += 1
    return counts


def _find(parent: list, x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class Matroid:
    """Common behavior, derived from the one-step rule of a subclass:
    ``_start()`` is the state of the empty set, and ``_extend(state, e)``
    is the state of I + e for the state of an independent I and an e
    outside it, or None when I + e is dependent.  A step never changes
    the set that ``state`` stands for."""

    kind = "abstract"

    def __init__(self, ground_mask: int, ambient: int):
        self._ground_mask = ground_mask
        self.ambient = ambient
        self._family_cache: Optional[frozenset] = None
        self._counts_cache: Optional[tuple] = None
        self._rank_cache: Optional[int] = None

    # -- representation-specific -------------------------------------

    def _start(self):
        raise NotImplementedError

    def _extend(self, state, e: int):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError(f"{self.kind} matroids have no JSON form")

    # -- derived from the one-step rule --------------------------------

    def _state_of(self, mask: int):
        """The state of the set ``mask``, or None when it is dependent."""
        state = self._start()
        for e in _mask_bits(mask):
            state = self._extend(state, e)
            if state is None:
                break
        return state

    def _walk(self, found: Optional[list] = None) -> list:
        """Counts I_0..I_n by a DFS over independent sets, appending the
        mask of each one to ``found`` when it is given.

        Downward closure guarantees every independent set is reachable
        by inserting its elements in increasing order.  Each node keeps
        its state, so each child costs one step.  A child one size short
        of the rank is not pushed: its children are bases, counted on
        the spot, and a basis is never tried for an extension.
        """
        r = self.rank
        counts = [0] * (self.n_elements + 1)
        counts[0] = 1
        if found is not None:
            found.append(0)
        if r == 0:
            return counts
        extend = self._extend
        steps = [(1 << (e - 1), e, i + 1) for i, e in enumerate(self.ground)]
        # tails[i]: the steps from index i on, each with the index after it
        tails = [steps[i:] for i in range(len(steps) + 1)]
        # a node: its mask, the size of its children, its first step, its state
        stack = [(0, 1, 0, self._start())]
        push, pop = stack.append, stack.pop
        while stack:
            mask, size, start, state = pop()
            deeper = size + 1 < r
            for bit, e, after in tails[start]:
                child = extend(state, e)
                if child is None:
                    continue
                cand = mask | bit
                counts[size] += 1
                if found is not None:
                    found.append(cand)
                if deeper:
                    push((cand, size + 1, after, child))
                elif size < r:
                    bases = [cand | b for b, f, _ in tails[after] if extend(child, f) is not None]
                    counts[r] += len(bases)
                    if found is not None:
                        found.extend(bases)
        return counts

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
            if type(e) is not int or e < 1 or not (self._ground_mask >> (e - 1)) & 1:
                raise ElementOutOfRange(f"element {e!r} not in ground set {self.ground}")
            mask |= 1 << (e - 1)
        return mask

    def _is_independent_mask(self, mask: int) -> bool:
        fam = self._family_cache
        if fam is not None:
            return mask in fam
        return self._state_of(mask) is not None

    def is_independent(self, elements: Iterable[int]) -> bool:
        return self._is_independent_mask(self._subset_mask(elements))

    def rank_of(self, elements: Iterable[int]) -> int:
        """Greedy rank: exchange makes any maximal chain maximum."""
        return self._rank_of_mask(self._subset_mask(elements))

    def _rank_of_mask(self, mask: int) -> int:
        state, rank = self._start(), 0
        for e in _mask_bits(mask):
            child = self._extend(state, e)
            if child is not None:
                state, rank = child, rank + 1
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
        """All independent sets as masks, materialized once and cached.

        The one bounded entry to the family, read by every query that needs
        it.  A ground set above ``limit`` (default DEFAULT_ENUMERATION_LIMIT)
        is refused before any work; a cached family is returned whatever the
        limit, so one call with a larger limit lifts the bound for all queries.
        The walk that lists the family counts it too.
        """
        if self._family_cache is None:
            self._check_bound(limit)
            found = []
            self._counts_cache = tuple(self._walk(found))
            self._family_cache = frozenset(found)
        return self._family_cache

    def independent_sets(self) -> list:
        fam = self.independent_set_masks()
        return sorted((_set_of(m) for m in fam), key=lambda s: (len(s), sorted(s)))

    def count_independent_by_size(self, limit: Optional[int] = None) -> tuple:
        """Sequence I_0..I_n of independent-set counts; I_0 is always 1.

        The bounded entry to the counts, cached like the family: read off
        the family when it is held, otherwise counted by the same walk
        without listing (by binomials for U(r, n)), under the same ``limit``.
        """
        if self._counts_cache is None:
            fam = self._family_cache
            if fam is None:
                self._check_bound(limit)
                counts = self._walk()
            else:
                counts = _sizes(fam, self.n_elements)
            self._counts_cache = tuple(counts)
        return self._counts_cache

    def _check_bound(self, limit: Optional[int]) -> None:
        bound = DEFAULT_ENUMERATION_LIMIT if limit is None else limit
        check_enumeration_bound(self.n_elements, bound)

    def _pair_counts(self) -> tuple:
        """(|F|, pairs) for the family F: pairs[a][b] counts the sets
        holding the a-th and b-th ground elements, ascending, so its
        diagonal holds c_i and the rest p_ij.

        The family is laid out as one integer with a lane of whole bytes
        per mask; shifting it by i - 1 and keeping the lowest bit of every
        lane gives the column of element i, so each count is a bit count.
        """
        family = self.independent_set_masks()
        width = (self.ambient + 8) // 8
        packed = int.from_bytes(b"".join(mask.to_bytes(width, "little") for mask in family), "little")
        lanes = int.from_bytes((b"\x01" + bytes(width - 1)) * len(family), "little")
        cols = [(packed >> (i - 1)) & lanes for i in self.ground]
        return len(family), [[(x & y).bit_count() for y in cols] for x in cols]

    def _classes_after(self, jmask: int, ext) -> tuple:
        """Non-loops of M/J ascending, and the parallel class index of each,
        for an independent mask J.

        ``ext(A)`` is the mask of the x with A + x independent, for
        independent A: a lookup in the map that ``_extensions`` builds
        from the listed family.  The non-loops of M/J are ext(J), and the
        earlier non-loops r parallel to a non-loop e (J + e + r dependent)
        are ext(J) - ext(J + e) below e.  e opens a new class when there
        are none.  Otherwise, parallelism being transitive in a matroid,
        they are the earlier members of one class, and e joins the class
        of the smallest.  Classes are numbered by their smallest member.
        """
        free = ext(jmask)
        labels = []
        class_of = {}
        classes = 0
        rest = free
        while rest:
            bit = rest & -rest
            rest ^= bit
            labels.append(bit.bit_length())
            hit = free & ~ext(jmask | bit) & (bit - 1)
            if hit:
                class_of[bit] = class_of[hit & -hit]
            else:
                class_of[bit] = classes
                classes += 1
        return tuple(labels), tuple(class_of.values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n_elements}, ambient={self.ambient})"


class ExplicitMatroid(Matroid):
    """Matroid given by its full independence family, as masks over
    elements 1..n; the family is checked against the axioms here."""

    kind = "explicit"

    def __init__(self, n: int, family_masks: Iterable[int]):
        masks = frozenset(family_masks)
        if not masks:
            raise EmptyFamily("independence family has no sets")
        if max(masks) >> n:
            raise ElementOutOfRange(f"family has an element outside 1..{n}")
        _validate_family(masks)
        super().__init__((1 << n) - 1, n)
        self._family_cache = masks

    def _start(self):
        return 0

    def _extend(self, mask, e):
        mask |= 1 << (e - 1)
        return mask if mask in self._family_cache else None

    def to_json(self) -> dict:
        sets = sorted((sorted(_mask_bits(m)) for m in self._family_cache), key=lambda s: (len(s), s))
        return {"kind": "explicit", "n": self.ambient, "sets": [list(s) for s in sets]}


class UniformMatroid(Matroid):
    """U(r, n): independence is just cardinality at most r.  Three queries
    are closed forms, with no greedy pass and no walk: the rank is r, the
    counts are C(n, k) for k <= r, and the pair counts are binomial sums.
    Listing still walks."""

    kind = "uniform"

    def __init__(self, r: int, n: int):
        if type(r) is not int or type(n) is not int or n < 0 or not 0 <= r <= n:
            raise InvalidRank(f"need 0 <= r <= n, got r={r}, n={n}")
        super().__init__((1 << n) - 1, n)
        self.r = r
        self._rank_cache = r

    def count_independent_by_size(self, limit: Optional[int] = None) -> tuple:
        # listing fills the counts too, so a miss means no family is held
        if self._counts_cache is None:
            self._check_bound(limit)
            n = self.n_elements
            self._counts_cache = tuple(comb(n, k) if k <= self.r else 0 for k in range(n + 1))
        return super().count_independent_by_size(limit)

    def _pair_counts(self) -> tuple:
        """|F| = sum_{k<=r} C(n, k), and the sets holding one element or
        two number c = sum_{1<=k<=r} C(n-1, k-1) and p = sum_{2<=k<=r}
        C(n-2, k-2).  A sum is empty unless r reaches its lower k, and
        r <= n, so no binomial sees n - 2 < 0.  A listed family has
        passed the bound already."""
        if self._family_cache is None:
            self._check_bound(None)
        n, r = self.n_elements, self.r
        size = sum(comb(n, k) for k in range(r + 1))
        c = sum(comb(n - 1, k - 1) for k in range(1, r + 1))
        p = sum(comb(n - 2, k - 2) for k in range(2, r + 1))
        return size, [[c if a == b else p for b in range(n)] for a in range(n)]

    def _start(self):
        return 0

    def _extend(self, size, e):
        return size + 1 if size < self.r else None

    def to_json(self) -> dict:
        return {"kind": "uniform", "r": self.r, "n": self.ambient}


class GraphicMatroid(Matroid):
    """Edges of a multigraph; independent sets are the cycle-free ones.

    Element i is the i-th edge of the list.  Self-loop edges are matroid
    loops, repeated edges form parallel classes.  A state is a union-find
    forest over the endpoints that occur, numbered in order of first
    appearance, so its size does not grow with ``vertices``.
    """

    kind = "graphic"

    def __init__(self, vertices: int, edges: Sequence):
        if vertices < 0:
            raise InvalidVertexIndex("vertex count must be nonnegative")
        for u, v in edges:
            for x in (u, v):
                if type(x) is not int or x < 1 or x > vertices:
                    raise InvalidVertexIndex(f"endpoint {x!r} outside 1..{vertices}")
        super().__init__((1 << len(edges)) - 1, len(edges))
        self.vertices = vertices
        self.edges = tuple((u, v) for u, v in edges)
        index = {x: i for i, x in enumerate(dict.fromkeys(x for edge in self.edges for x in edge))}
        self._ends = tuple((index[u], index[v]) for u, v in self.edges)
        self._nodes = len(index)

    def _start(self):
        return list(range(self._nodes))

    def _extend(self, parent, e):
        # path halving in _find moves pointers but keeps every root
        u, v = self._ends[e - 1]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return None
        child = parent.copy()
        child[ru] = rv
        return child

    def to_json(self) -> dict:
        return {
            "kind": "graphic",
            "vertices": self.vertices,
            "edges": [[u, v] for u, v in self.edges],
        }


class LinearMatroid(Matroid):
    """Columns of a matrix over GF(p) or over the rationals (modulus 0).

    Columns are ints, rational ones with denominators cleared; scaling a
    column never changes which subsets are independent.  A state is an
    echelon basis of the span, as (k, row) pairs of int rows led at k by
    1 over GF(p) and primitive over Q.  One update, v <- b_k v - v_k b,
    taken mod p over GF(p) (where b_k = 1), clears v_k in either field.
    """

    kind = "linear"

    def __init__(self, columns: Sequence, modulus: int = 0):
        if modulus > MAX_PRIME_MODULUS:
            raise ValueError(f"modulus {modulus} exceeds {MAX_PRIME_MODULUS}")
        if modulus != 0 and not _is_prime(modulus):
            raise NonPrimeModulus(f"modulus {modulus} is not prime")
        cols = [tuple(x if type(x) is int else Fraction(x) for x in col) for col in columns]
        height = len(cols[0]) if cols else 0
        if any(len(col) != height for col in cols):
            raise ValueError("columns must all have the same height")
        if modulus and any(x.denominator != 1 for col in cols for x in col):
            raise ValueError("finite field columns must have integer entries")
        norm = [tuple(x % modulus if modulus else x for x in _cleared(col)[0]) for col in cols]
        super().__init__((1 << len(norm)) - 1, len(norm))
        self.modulus = modulus
        self.columns = tuple(norm)
        self.height = height

    def _start(self):
        return ()

    def _extend(self, basis, e):
        p = self.modulus
        v = self.columns[e - 1]
        for k, b in basis:
            c = v[k]
            if c:
                bk = b[k]
                if p:
                    v = [(bk * x - c * y) % p for x, y in zip(v, b)]
                else:
                    v = [bk * x - c * y for x, y in zip(v, b)]
        for k, lead in enumerate(v):
            if lead:
                break
        else:
            return None
        if p:
            inv = pow(lead, -1, p)
            v = tuple([x * inv % p for x in v])
        else:
            v = _primitive(v)
        return basis + ((k, v),)

    def to_json(self) -> dict:
        return {
            "kind": "linear",
            "modulus": self.modulus,
            "columns": [[str(x) for x in col] for col in self.columns],
        }


class _Contraction(Matroid):
    """View of base / S: its one-step rule is the base's, started from the
    state of S, so T is independent exactly when S + T is in the base."""

    kind = "contraction"

    def __init__(self, base: Matroid, smask: int):
        super().__init__(base._ground_mask & ~smask, base.ambient)
        self.base = base
        self.smask = smask

    def _start(self):
        return self.base._state_of(self.smask)

    def _extend(self, state, e):
        return self.base._extend(state, e)


# Miller-Rabin on the first 13 primes as bases decides primality exactly
# below 3317044064679887385961981, the least strong pseudoprime to all of them.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_MODULUS = 3317044064679887385961980


def _is_prime(p: int) -> bool:
    """Exact for p <= MAX_PRIME_MODULUS, in time polynomial in log p."""
    if p < 2:
        return False
    if p in _PRIME_BASES:
        return True
    if any(p % b == 0 for b in _PRIME_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# -- constructors ------------------------------------------------------


def from_independence_family(n: int, family: Iterable[Iterable[int]]) -> ExplicitMatroid:
    """Build an explicit matroid from sets of labels in 1..n; the
    ``ExplicitMatroid`` constructor checks the axioms."""
    if n < 0:
        raise ValueError("ground size must be nonnegative")
    masks = set()
    for s in family:
        mask = 0
        for e in s:
            if type(e) is not int or e < 1 or e > n:
                raise ElementOutOfRange(f"element {e!r} outside 1..{n}")
            mask |= 1 << (e - 1)
        masks.add(mask)
    return ExplicitMatroid(n, masks)


def _extensions(masks) -> dict:
    """ext[A] = mask of the x with A + x in the family, for every A in it,
    in O(|F| n) mask operations."""
    ext = dict.fromkeys(masks, 0)
    for mask in masks:
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            sub = mask ^ bit
            if sub in ext:
                ext[sub] |= bit
    return ext


def _validate_family(masks) -> None:
    """Raise AxiomViolation unless a nonempty mask family is a matroid, in
    O(|F| n^2) mask operations.

    Downward closure is checked one element removal at a time, which
    reaches every subset by induction.  Exchange is checked exactly, at
    every ground size, by the local rule: for every independent A and
    distinct a, b, c outside A with A + a and A + b + c independent,
    A + a + b or A + a + c is independent.

    The local rule implies exchange for every pair.  With downward
    closure it suffices to treat |T| = |S| + 1, since any (|S|+1)-subset
    of a larger T is independent and cannot lie inside S.  Induct on
    k = |S - T|; k <= 1 is the rule itself (or trivial).  For k >= 2 take
    x in S - T.  By induction S - x augments from a size-|S| subset of
    T, by some y, and S - x + y in turn augments from T, by some z.  The
    rule at A = S - x with a = x, b = y, c = z then puts S + y or S + z
    in the family.  A violation is reported as the exchange pair
    (A + a, A + b + c), which no element of {b, c} augments.
    """
    addable = _extensions(masks)
    # closed exactly when every one-element removal was found in the family
    if sum(map(int.bit_count, addable.values())) != sum(map(int.bit_count, masks)):
        for mask in masks:
            m = mask
            while m:
                bit = m & -m
                m ^= bit
                if mask ^ bit not in addable:
                    raise AxiomViolation(
                        "downward-closure",
                        (_set_of(mask ^ bit), _set_of(mask)),
                        f"subset {sorted(_mask_bits(mask ^ bit))} of independent "
                        f"{sorted(_mask_bits(mask))} is missing",
                    )
    for base, free in addable.items():
        rest = free
        while rest:
            a = rest & -rest
            rest ^= a
            # b ranges over the x with A + x independent but A + a + x
            # dependent, c over those with A + b + x independent but
            # A + a + x dependent.
            stuck = ~(addable[base | a] | a)
            blocked = free & stuck
            while blocked:
                b = blocked & -blocked
                blocked ^= b
                cs = addable[base | b] & stuck
                if cs:
                    s, t = base | a, base | b | (cs & -cs)
                    raise AxiomViolation(
                        "exchange",
                        (_set_of(s), _set_of(t)),
                        f"no element of {sorted(_mask_bits(t))} minus "
                        f"{sorted(_mask_bits(s))} extends the smaller set",
                    )


uniform = UniformMatroid
graphic = GraphicMatroid
linear = LinearMatroid


# -- JSON --------------------------------------------------------------

# A rational literal longer than this, or with a larger decimal exponent,
# is refused before Fraction reads it: Fraction("1e10000000") builds a
# ten-million-digit integer.  Accepted literals have at most about 2000
# digits above and below the line, well inside str()'s 4300-digit limit.
MAX_RATIONAL_CHARS = 1000
MAX_RATIONAL_EXPONENT = 1000


def parse_rational(text: str) -> Fraction:
    """Fraction(text), refusing an over-long literal or a large exponent
    with ValueError before any digits are converted."""
    if len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(
            f"rational literal of {len(text)} characters, at most {MAX_RATIONAL_CHARS}"
        )
    _, e, exponent = text.lower().partition("e")
    try:
        too_large = bool(e) and abs(int(exponent)) > MAX_RATIONAL_EXPONENT
    except ValueError:  # not an exponent: Fraction names the bad literal
        too_large = False
    if too_large:
        raise ValueError(
            f"rational literal {text!r} has an exponent outside "
            f"-{MAX_RATIONAL_EXPONENT}..{MAX_RATIONAL_EXPONENT}"
        )
    return Fraction(text)


def _json_int(x) -> int:
    """x itself when it is a JSON integer; int() would read 2.9 as 2 and
    true as 1, describing another object than the input."""
    if type(x) is not int:
        raise TypeError(f"expected a JSON integer, got {x!r}")
    return x


def matroid_from_json(obj: dict) -> Matroid:
    """Parse the on-disk matroid description; explicit families are
    validated on load."""
    if not isinstance(obj, dict):
        raise ValueError("matroid description must be a JSON object")
    kind = obj.get("kind")
    if kind == "explicit":
        return from_independence_family(_json_int(obj["n"]), obj["sets"])
    if kind == "uniform":
        return uniform(_json_int(obj["r"]), _json_int(obj["n"]))
    if kind == "graphic":
        edges = [(_json_int(u), _json_int(v)) for u, v in obj["edges"]]
        return graphic(_json_int(obj["vertices"]), edges)
    if kind == "linear":
        columns = [[parse_rational(str(x)) for x in col] for col in obj["columns"]]
        return linear(columns, _json_int(obj["modulus"]))
    raise ValueError(f"unknown matroid kind {kind!r}")
