"""Exact symmetric matrices over the rationals.

The one nontrivial algorithm here is the negative semidefiniteness test.
It runs a symmetric Gaussian elimination on -Q with exact Fraction
arithmetic, so the verdict carries no floating point doubt.  A zero
pivot is legal only when its entire remaining row is zero; any other
failure yields a rational witness vector v with v^T Q v > 0 which is
re-verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import ConsistencyError, DimensionMismatch


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact arithmetic requires int or Fraction entries, got {type(x).__name__}")


class SymmetricMatrix:
    """Immutable symmetric matrix with exact rational entries."""

    __slots__ = ("dim", "_rows")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
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

    def rows(self) -> tuple:
        return self._rows

    def __getitem__(self, ij) -> Fraction:
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
        c = _as_fraction(c)
        return SymmetricMatrix([[c * x for x in row] for row in self._rows])

    def matvec(self, v: Sequence) -> tuple:
        if len(v) != self.dim:
            raise DimensionMismatch(f"expected vector of length {self.dim}, got {len(v)}")
        v = [_as_fraction(x) for x in v]
        return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in self._rows)

    def quad(self, v: Sequence) -> Fraction:
        """Quadratic form v^T Q v."""
        w = self.matvec(v)
        return sum((_as_fraction(a) * b for a, b in zip(v, w)), Fraction(0))

    def restricted(self, indices: Sequence[int]) -> "SymmetricMatrix":
        """Principal submatrix on the given index list, in the given order."""
        return SymmetricMatrix([[self._rows[i][j] for j in indices] for i in indices])

    def to_float_array(self, scale=1) -> "numpy.ndarray":
        """The entries divided by ``scale``, each rounded once from its
        exact quotient: integer true division rounds correctly, as
        ``float(Fraction)`` does."""
        # numpy is loaded only by the float diagnostics
        import numpy as np

        scale = _as_fraction(scale)
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


def _primitive(v: Iterable[Fraction]) -> tuple:
    """Scale a rational vector to coprime integers (sign preserved)."""
    v = list(v)
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)

def is_negative_semidefinite(q: SymmetricMatrix) -> NsdResult:
    """Exact NSD test with a re-verified counterexample on failure.

    Works on P = -Q.  Positive pivots are eliminated symmetrically, and
    each pivot's multipliers are recorded: eliminating pivot k applies
    L_k = I - sum_i l_i e_i e_k^T, so after it the trailing block is that
    of P_t = E P E^T with E the product of the L_k.  A failure vector w
    for P_t lifts to v = E^T w by applying the transposes L_k^T in
    reverse order, which touches only w_k; E itself is never formed.  A
    vanishing pivot with a nonzero off-diagonal entry c at column j
    gives the indefinite 2x2 block [[0, c], [c, b]], defeated by
    w = -(b+1)/(2c) e_k + e_j which has w^T P w = -1.
    """
    d = q.dim
    p = [[-x for x in row] for row in q.rows()]
    steps = []

    def lift(w):
        for k, mults in reversed(steps):
            w[k] -= sum(li * w[i] for i, li in mults)
        witness = _primitive(w)
        if q.quad(witness) <= 0:
            raise ConsistencyError("NSD witness failed its own re-check")
        return witness

    for k in range(d):
        pivot = p[k][k]
        if pivot < 0:
            w = [Fraction(0)] * d
            w[k] = Fraction(1)
            return NsdResult(False, lift(w))
        if pivot == 0:
            bad = next((j for j in range(k + 1, d) if p[k][j] != 0), None)
            if bad is None:
                continue
            c = p[k][bad]
            b = p[bad][bad]
            w = [Fraction(0)] * d
            w[k] = -(b + 1) / (2 * c)
            w[bad] = Fraction(1)
            return NsdResult(False, lift(w))
        krow = p[k]
        mults = []
        for i in range(k + 1, d):
            li = p[i][k] / pivot
            if li == 0:
                continue
            mults.append((i, li))
            prow = p[i]
            # columns before k + 1 are never read again
            for j in range(k + 1, d):
                prow[j] -= li * krow[j]
        steps.append((k, mults))
    return NsdResult(True, None)


def float_eigenvalues(q: SymmetricMatrix, scale=1) -> list:
    """Eigenvalues of q / scale in ascending order, floating point
    (diagnostic only)."""
    if q.dim == 0:
        return []
    import numpy as np

    return [float(x) for x in np.linalg.eigvalsh(q.to_float_array(scale))]
