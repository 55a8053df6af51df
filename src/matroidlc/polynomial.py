"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent vectors (tuples of nonnegative
ints, one slot per variable) to nonzero exact coefficients: an integral
coefficient is stored as an int and any other as a Fraction, so equal
values are stored alike and the integer case never pays for Fraction
arithmetic.  Values at a rational point are returned as Fractions.
Zero coefficients are dropped on construction, so the zero polynomial is
the empty mapping and equality is plain dict equality.  The canonical term
order used for printing is ascending total degree with lexicographic ties.

Matroid generating polynomials follow one fixed variable convention:
variable 0 is the homogenizing variable y and variable i (1-based) is
z_i for ground element i.  For a matroid whose ground set currently has
m elements inside an ambient label space of size n, the independence-set
generating polynomial

    g_M(y, z) = sum over independent I of y^(m - |I|) * prod_{i in I} z_i

is homogeneous of degree m in n + 1 variables.  Contractions keep the
ambient space, which makes d/dz_J g_M and g_{M/J} literally equal as
polynomials rather than equal up to relabeling.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from types import MappingProxyType
from typing import Optional, Sequence

from .errors import DimensionMismatch
from .linalg import SymmetricMatrix, _exact
from .matroid import Matroid, parse_rational


def _as_fraction(v):
    """An int value as a Fraction; Fractions and floats pass through."""
    return Fraction(v) if isinstance(v, int) else v


class SparsePolynomial:
    """Immutable sparse polynomial with exact int or Fraction coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise DimensionMismatch(
                    f"exponent vector {exp} has length {len(exp)}, expected {nvars}"
                )
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = _exact(c)
            if c:
                clean[exp] = c
        self.nvars = nvars
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "SparsePolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePolynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} outside 0..{nvars - 1}")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- inspection -------------------------------------------------------

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def coefficient(self, exp: Sequence[int]):
        return self._terms.get(tuple(exp), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Largest term degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def has_nonnegative_coefficients(self) -> bool:
        return all(c > 0 for c in self._terms.values())

    def canonical_items(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- ring operations --------------------------------------------------

    def _check_same_space(self, other: "SparsePolynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"polynomials in {self.nvars} and {other.nvars} variables"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_same_space(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            out[exp] = out.get(exp, 0) + c
        return SparsePolynomial(self.nvars, out)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return SparsePolynomial(self.nvars, {e: c * v for e, v in self._terms.items()})
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_same_space(other)
        out = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = out.get(exp, 0) + ca * cb
        return SparsePolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.nvars}, {format_polynomial(self)!r})"

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, index: int) -> "SparsePolynomial":
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} outside 0..{self.nvars - 1}")
        out = {}
        for exp, c in self._terms.items():
            e = exp[index]
            if e:
                new = list(exp)
                new[index] = e - 1
                out[tuple(new)] = c * e
        return SparsePolynomial(self.nvars, out)

    def directional_derivative(self, direction: Sequence) -> "SparsePolynomial":
        """D_v f = sum_i v_i * d f / d x_i."""
        if len(direction) != self.nvars:
            raise DimensionMismatch(
                f"direction of length {len(direction)} for {self.nvars} variables"
            )
        out = {}
        for i, v in enumerate(direction):
            v = _exact(v)
            if not v:
                continue
            for exp, c in self.partial_derivative(i)._terms.items():
                out[exp] = out.get(exp, 0) + v * c
        return SparsePolynomial(self.nvars, out)

    def derivative_multi(self, alpha: Sequence[int]) -> "SparsePolynomial":
        """Mixed derivative d^alpha f with falling-factorial scaling."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.nvars:
            raise DimensionMismatch(
                f"multi-index of length {len(alpha)} for {self.nvars} variables"
            )
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative entry in multi-index {alpha}")
        # only the nonzero positions of alpha test or scale a term
        active = [(i, a) for i, a in enumerate(alpha) if a]
        out = {}
        for exp, c in self._terms.items():
            factor = c
            for i, a in active:
                e = exp[i]
                if e < a:
                    break
                factor *= perm(e, a)
            else:
                lowered = list(exp)
                for i, a in active:
                    lowered[i] -= a
                out[tuple(lowered)] = factor
        return SparsePolynomial(self.nvars, out)

    # -- evaluation ----------------------------------------------------------

    def _values_at(self, point: Sequence, order: int) -> dict:
        """{alpha: d^alpha f(point)} for the sorted index tuples alpha of
        every length up to ``order`` (at most 2), from one pass over the
        terms: () holds f, (i,) the gradient, (i, j) the Hessian.

        jet[i][k][e] = e!/(e-k)! * x_i^(e-k) is the k-th derivative of
        x_i^e (zero when k > e); integral coordinates are multiplied as
        ints.  A term c x^e with r active variables contributes to each
        alpha the product of c and one jet factor per active variable.
        Prefix and suffix products of the order-0 factors give all of
        them in O(r^2) products, with no division (a coordinate may be
        0); f itself is c * b_0 * ... * b_(r-1) in that order.
        """
        point = tuple(point)
        if len(point) != self.nvars:
            raise DimensionMismatch(
                f"point of length {len(point)} for {self.nvars} variables"
            )
        jet = []
        # m is the largest exponent of x in any term
        for x, m in zip(point, map(max, zip(*self._terms))):
            if isinstance(x, Fraction) and x.denominator == 1:
                x = x.numerator
            jet.append([[perm(e, k) * x ** max(e - k, 0) for e in range(m + 1)]
                        for k in range(order + 1)])
        out = {}
        for exp, c in self._terms.items():
            idx = [i for i, e in enumerate(exp) if e]
            r = len(idx)
            # b, g, h: the order 0, 1, 2 jet factors of the active variables
            b, *derived = ([jet[i][k][exp[i]] for i in idx] for k in range(order + 1))
            # prefix[j] = c * b_0 * ... * b_(j-1)
            prefix = [c]
            for x in b:
                prefix.append(prefix[-1] * x)
            out[()] = out.get((), 0) + prefix[r]
            if not order:
                continue
            # suffix[j] = b_j * ... * b_(r-1)
            suffix = [1] * (r + 1)
            for j in range(r - 1, -1, -1):
                suffix[j] = b[j] * suffix[j + 1]
            g = derived[0]
            for j, i in enumerate(idx):
                out[(i,)] = out.get((i,), 0) + prefix[j] * g[j] * suffix[j + 1]
            if order < 2:
                continue
            h = derived[1]
            for j, i in enumerate(idx):
                out[(i, i)] = out.get((i, i), 0) + prefix[j] * h[j] * suffix[j + 1]
                # run = prefix[j] * g_j * b_(j+1) * ... * b_(l-1)
                run = prefix[j] * g[j]
                for l in range(j + 1, r):
                    alpha = (i, idx[l])
                    out[alpha] = out.get(alpha, 0) + run * g[l] * suffix[l + 1]
                    run = run * b[l]
        return out

    def evaluate(self, point: Sequence):
        """Evaluate at a point; exact for int/Fraction coordinates,
        floating point when given floats."""
        return _as_fraction(self._values_at(point, 0).get((), 0))

    def gradient(self, point: Sequence) -> tuple:
        values = self._values_at(point, 1)
        return tuple(_as_fraction(values.get((i,), 0)) for i in range(self.nvars))

    def hessian(self, point: Sequence) -> SymmetricMatrix:
        """Exact Hessian matrix; the point must be rational."""
        values = self._values_at(point, 2)
        n = self.nvars
        return SymmetricMatrix(
            [[values.get((min(i, j), max(i, j)), 0) for j in range(n)] for i in range(n)]
        )

def format_polynomial(f: SparsePolynomial, names: Optional[Sequence[str]] = None) -> str:
    """Readable rendering, leading terms first."""
    if f.is_zero():
        return "0"
    if names is None:
        names = [f"x{i}" for i in range(f.nvars)]
    if len(names) != f.nvars:
        raise DimensionMismatch(f"{len(names)} names for {f.nvars} variables")
    parts = []
    for exp, c in reversed(f.canonical_items()):
        factors = []
        for name, e in zip(names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    rendered = " + ".join(parts)
    return rendered.replace("+ -", "- ")


def matroid_variable_names(ambient: int) -> tuple:
    return ("y",) + tuple(f"z{i}" for i in range(1, ambient + 1))


# -- matroid generating polynomials -------------------------------------


def _mask_exponent(mask: int, ambient: int) -> tuple:
    """The 0/1 exponent vector of z^I for the element mask of I."""
    return tuple((mask >> i) & 1 for i in range(ambient))


def independence_polynomial(m: Matroid) -> SparsePolynomial:
    """g_M(y, z) = sum over independent I of y^(|ground| - |I|) z^I.

    Homogeneous of degree |ground| in ambient + 1 variables, every
    coefficient equal to 1.
    """
    degree = m.n_elements
    nv = m.ambient + 1
    terms = {}
    for mask in m.independent_set_masks():
        terms[(degree - mask.bit_count(),) + _mask_exponent(mask, m.ambient)] = 1
    return SparsePolynomial(nv, terms)


def bases_polynomial(m: Matroid) -> SparsePolynomial:
    """p_M(z) = sum over bases B of z^B, in ambient variables z_1..z_n.

    There is no homogenizing variable here; a rank zero matroid has the
    single basis {} and p_M = 1.
    """
    nv = m.ambient
    r = m.rank
    terms = {}
    for mask in m.independent_set_masks():
        if mask.bit_count() == r:
            terms[_mask_exponent(mask, nv)] = 1
    return SparsePolynomial(nv, terms)


def bivariate_restriction(m: Matroid) -> SparsePolynomial:
    """f_M(y, z) = sum_k I_k y^(n-k) z^k, the image of g_M under z_i -> z."""
    counts = m.count_independent_by_size()
    n = m.n_elements
    return SparsePolynomial(2, {(n - k, k): c for k, c in enumerate(counts) if c})


# -- JSON ----------------------------------------------------------------


def polynomial_from_json(obj: dict) -> SparsePolynomial:
    if not isinstance(obj, dict):
        raise ValueError("polynomial description must be a JSON object")
    # int() would read 2.9 as 2 and true as 1, describing another polynomial
    nvars = obj["nvars"]
    if type(nvars) is not int:
        raise TypeError(f"nvars must be a JSON integer, got {nvars!r}")
    terms = {}
    for item in obj["terms"]:
        exp = tuple(item["exp"])
        if not all(type(e) is int for e in exp):
            raise TypeError(f"exponents must be JSON integers, got {item['exp']!r}")
        coeff = parse_rational(str(item["coeff"]))
        terms[exp] = terms.get(exp, 0) + coeff
    return SparsePolynomial(nvars, terms)
