"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent vectors (tuples of nonnegative
ints, one slot per variable) to nonzero exact coefficients: an integral
coefficient is stored as an int and any other as a Fraction, so equal
values are stored alike and the integer case never pays for Fraction
arithmetic.  Derivatives at a rational point are computed in ints with
the denominators cleared once, by _values_at, and divided back into
Fractions per returned entry.
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
from math import lcm, perm
from types import MappingProxyType
from typing import Optional, Sequence

from .errors import DimensionMismatch
from .linalg import SymmetricMatrix, _cleared, _exact
from .matroid import Matroid, parse_rational


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

    def _values_at(self, point: Sequence, order: int) -> tuple:
        """([s_0 f, s_1 grad f, s_2 Hess f][: order + 1], scales) at the
        point, for ``order`` at most 2, from one pass over the terms: the
        value, the gradient as a list and the Hessian as a list of rows,
        each times its scale s_k in ``scales``.

        At a rational point every value is an int.  With L the lcm of the
        denominators of the point, M that of the coefficients and
        D = max(deg f, order), p = L point and
        f^ = sum c M L^(D - |e|) x^e are integral and
        f^(y) = M L^D f(y / L), so a derivative of order k of f^ at p is
        s_k = M L^(D - k) times that of f at the point, homogeneous or
        not.  When L = M = 1, f^ is f and every scale is 1; so it is at a
        float point, where f is evaluated as given.

        jet[i][k][e] = e!/(e-k)! * p_i^(e-k) is the k-th derivative of
        x_i^e (zero when k > e).  A term c x^e with r active variables
        contributes to each derivative the product of c and one jet
        factor per active variable.  Prefix and suffix products of the
        order-0 factors give all of them in O(r^2) products, with no
        division (a coordinate may be 0); f itself is c * b_0 * ... *
        b_(r-1) in that order.
        """
        point = tuple(point)
        n = self.nvars
        if len(point) != n:
            raise DimensionMismatch(f"point of length {len(point)} for {n} variables")
        terms = self._terms
        scales = (1,) * (order + 1)
        if all(isinstance(x, (int, Fraction)) for x in point):
            point, big_l = _cleared(point)
            big_m = lcm(*(c.denominator for c in terms.values()))
            if big_l * big_m > 1:
                d = max(self.total_degree(), order)
                terms = {
                    e: c.numerator * (big_m // c.denominator) * big_l ** (d - sum(e))
                    for e, c in terms.items()
                }
                scales = tuple(big_m * big_l ** (d - k) for k in range(order + 1))
        jet = []
        # m is the largest exponent of x in any term
        for x, m in zip(point, map(max, zip(*terms))):
            jet.append([[perm(e, k) * x ** max(e - k, 0) for e in range(m + 1)]
                        for k in range(order + 1)])
        value = 0
        grad = [0] * n
        hess = [[0] * n for _ in range(n)] if order == 2 else []
        for exp, c in terms.items():
            idx = [i for i, e in enumerate(exp) if e]
            r = len(idx)
            # b, g, h: the order 0, 1, 2 jet factors of the active variables
            b, *derived = ([jet[i][k][exp[i]] for i in idx] for k in range(order + 1))
            # prefix[j] = c * b_0 * ... * b_(j-1)
            prefix = [c]
            for x in b:
                prefix.append(prefix[-1] * x)
            value += prefix[r]
            if not order:
                continue
            # suffix[j] = b_j * ... * b_(r-1)
            suffix = [1] * (r + 1)
            for j in range(r - 1, -1, -1):
                suffix[j] = b[j] * suffix[j + 1]
            g = derived[0]
            for j, i in enumerate(idx):
                grad[i] += prefix[j] * g[j] * suffix[j + 1]
            if order < 2:
                continue
            h = derived[1]
            for j, i in enumerate(idx):
                row = hess[i]
                row[i] += prefix[j] * h[j] * suffix[j + 1]
                # run = prefix[j] * g_j * b_(j+1) * ... * b_(l-1)
                run = prefix[j] * g[j]
                for l in range(j + 1, r):
                    row[idx[l]] += run * g[l] * suffix[l + 1]
                    run = run * b[l]
        # the terms fill the upper triangle
        for i, row in enumerate(hess):
            for j in range(i):
                row[j] = hess[j][i]
        return [value, grad, hess][: order + 1], scales

    def evaluate(self, point: Sequence):
        """Evaluate at a point; exact for int/Fraction coordinates,
        floating point when given floats."""
        (value,), (scale,) = self._values_at(point, 0)
        # a float divided by a Fraction stays a float
        return value / Fraction(scale)

    def gradient(self, point: Sequence) -> tuple:
        (_, grad), (_, scale) = self._values_at(point, 1)
        return tuple(x / Fraction(scale) for x in grad)

    def hessian(self, point: Sequence) -> SymmetricMatrix:
        """Exact Hessian matrix; the point must be rational."""
        (*_, hess), (*_, scale) = self._values_at(point, 2)
        if scale != 1:
            hess = [[Fraction(x, scale) for x in row] for row in hess]
        return SymmetricMatrix(hess)


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
        terms[exp] = terms[exp] + coeff if exp in terms else coeff
    return SparsePolynomial(nvars, terms)
