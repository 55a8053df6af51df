"""Exact symmetric matrices over the rationals.

An integral entry is stored as an int and any other as a reduced
Fraction, so equal values are stored alike and integer matrices never
pay for Fraction arithmetic.  Only the caller's input is validated (the
constructor checks entries, shape and symmetry); every matrix the package
builds itself, ``scaled`` and ``restricted`` too, is ``_trusted``.

The one nontrivial algorithm here is the negative semidefiniteness test.
It clears the denominators of -Q and runs a fraction-free (Bareiss)
symmetric elimination in Python ints, so the verdict carries no floating
point doubt.  A zero pivot is legal only when its entire remaining row
is zero; any other failure yields a witness v with v^T Q v > 0, lifted
back through the elimination in ints to a primitive integer vector and
re-verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import ConsistencyError, DimensionMismatch


def _exact(x):
    """An exact value as stored: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"exact arithmetic requires int or Fraction values, got {type(x).__name__}")


def _divided(rows, s: int) -> tuple:
    """Int rows over an int s > 0, as tuples of entries as stored."""
    if s == 1:
        return tuple(map(tuple, rows))
    return tuple(tuple(x // s if x % s == 0 else Fraction(x, s) for x in row) for row in rows)


class SymmetricMatrix:
    """Immutable symmetric matrix with exact rational entries, each an
    int when integral and a reduced Fraction otherwise."""

    __slots__ = ("dim", "_rows")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(_exact(x) for x in row) for row in rows)
        dim = len(rows)
        for row in rows:
            if len(row) != dim:
                raise DimensionMismatch(f"expected {dim} columns, got {len(row)}")
        for i in range(dim):
            for j in range(i + 1, dim):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        self.dim = dim
        self._rows = rows

    @classmethod
    def _trusted(cls, rows: tuple) -> "SymmetricMatrix":
        """A matrix the package built itself: ``rows`` is a square tuple
        of tuples, symmetric, each entry an int when integral and a
        reduced Fraction otherwise, so nothing is re-checked."""
        q = object.__new__(cls)
        q.dim = len(rows)
        q._rows = rows
        return q

    def rows(self) -> tuple:
        return self._rows

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetricMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"SymmetricMatrix([{body}])"

    def scaled(self, c) -> "SymmetricMatrix":
        # c x can be an integral Fraction, so each entry is stored afresh
        c = _exact(c)
        rows = self._rows
        return SymmetricMatrix._trusted(tuple(tuple(_exact(c * x) for x in row) for row in rows))

    def quad(self, v: Sequence):
        """Quadratic form v^T Q v."""
        if len(v) != self.dim:
            raise DimensionMismatch(f"expected vector of length {self.dim}, got {len(v)}")
        v = [_exact(x) for x in v]
        return sum(a * sum(b * c for b, c in zip(row, v)) for a, row in zip(v, self._rows))

    def restricted(self, indices: Sequence[int]) -> "SymmetricMatrix":
        """Principal submatrix on the given index list, in the given order."""
        rows = self._rows
        return SymmetricMatrix._trusted(tuple(tuple(rows[i][j] for j in indices) for i in indices))

    def to_float_array(self, scale=1) -> "numpy.ndarray":
        """The entries divided by ``scale``, each rounded once from its
        exact quotient: integer true division rounds correctly, as
        ``float(Fraction)`` does."""
        # numpy is loaded only by the float diagnostics
        import numpy as np

        scale = _exact(scale)
        num, den = scale.denominator, scale.numerator
        return np.array(
            [[x.numerator * num / (x.denominator * den) for x in row] for row in self._rows],
            dtype=float,
        )

    def to_json_rows(self) -> list:
        return [[str(x) for x in row] for row in self._rows]


@dataclass(frozen=True)
class NsdResult:
    """Outcome of a negative semidefiniteness test.

    ``witness`` is set exactly when the test fails and is a primitive
    integer vector with witness^T Q witness > 0.
    """

    is_nsd: bool
    witness: Optional[tuple]

    def __bool__(self) -> bool:
        return self.is_nsd


def _cleared(v: Iterable) -> tuple:
    """(L v, L) for a vector of ints and Fractions, with L the lcm of
    their denominators: the entries of L v are ints."""
    v = list(v)
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v], scale


def _primitive(v: Sequence[int]) -> tuple:
    """A nonzero int vector over the gcd of its entries (sign preserved)."""
    g = gcd(*v)
    return tuple([x // g for x in v])


def is_negative_semidefinite(q: SymmetricMatrix) -> NsdResult:
    """Exact NSD test with a re-verified counterexample on failure.

    Works on P = -Q, scaled by the lcm D of its denominators to the
    integer matrix A = D P.  Positive pivots are eliminated symmetrically
    and fraction-free (Bareiss): with prev the previous pivot (1 at the
    start), eliminating pivot a_kk sets a_ij to (a_kk a_ij - a_ik a_kj) /
    prev, an exact division, since every entry is a minor of A.  The
    trailing block then holds D prev times the Schur complement of P, so
    pivots have the signs of P's.  A zero pivot whose remaining row is
    zero is skipped and leaves prev unchanged.

    Each pivot's multipliers l_i = a_ik / a_kk are recorded (they are the
    ratios p_ik / p_kk, which scaling does not change): eliminating pivot
    k applies L_k = I - sum_i l_i e_i e_k^T, so after it the trailing
    block is that of P_t = E P E^T with E the product of the L_k.  A
    failure vector w for P_t lifts to v = E^T w by applying the
    transposes L_k^T in reverse order, which touches only w_k; E itself
    is never formed.  A vanishing pivot with a nonzero off-diagonal entry
    c at column j gives the indefinite 2x2 block [[0, c], [c, b]] of P_t,
    defeated by w = -(b+1)/(2c) e_k + e_j which has w^T P_t w = -1; in
    the scaled entries b = b'/(D prev) and c = c'/(D prev), so
    w_k = -(b' + D prev)/(2c').  The lift keeps the ray of w in ints: it
    starts w times 2|c'|, applies each L_k^T times its pivot a_kk > 0,
    and returns the primitive vector on the ray.
    """
    d = q.dim
    rows = q.rows()
    den = lcm(*(x.denominator for row in rows for x in row))
    p = [[-x.numerator * (den // x.denominator) for x in row] for row in rows]
    prev = 1
    steps = []

    def lift(w):
        for k, pivot, mults in reversed(steps):
            t = sum(a * w[i] for i, a in mults)
            w = [x * pivot for x in w]
            w[k] -= t
        witness = _primitive(w)
        if q.quad(witness) <= 0:
            raise ConsistencyError("NSD witness failed its own re-check")
        return witness

    for k in range(d):
        krow = p[k]
        pivot = krow[k]
        if pivot < 0:
            return NsdResult(False, lift([int(i == k) for i in range(d)]))
        if pivot == 0:
            bad = next((j for j in range(k + 1, d) if krow[j] != 0), None)
            if bad is None:
                continue
            w = [0] * d
            w[k] = (p[bad][bad] + den * prev) * (-1 if krow[bad] > 0 else 1)
            w[bad] = 2 * abs(krow[bad])
            return NsdResult(False, lift(w))
        mults = []
        for i in range(k + 1, d):
            prow = p[i]
            a = prow[k]
            if a:
                mults.append((i, a))
            # columns before k + 1 are never read again
            for j in range(k + 1, d):
                prow[j] = (pivot * prow[j] - a * krow[j]) // prev
        steps.append((k, pivot, mults))
        prev = pivot
    return NsdResult(True, None)


def float_eigenvalues(q: SymmetricMatrix, scale=1) -> list:
    """Eigenvalues of q / scale in ascending order, floating point
    (diagnostic only)."""
    if q.dim == 0:
        return []
    import numpy as np

    return [float(x) for x in np.linalg.eigvalsh(q.to_float_array(scale))]
