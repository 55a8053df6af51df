"""Exact log-concavity certificates for homogeneous polynomials.

A homogeneous polynomial f with nonnegative coefficients is log-concave
at a point a with f(a) > 0 when the Hessian of log f is negative
semidefinite there.  For such f and exact rational a this is decidable
without floats.  The condition report evaluates equivalent formulations
side by side, all from one integer pass over the terms of f that gives
f(a), its gradient and its Hessian Q, each times a positive scale
(SparsePolynomial._values_at): the pair matrix f(a) Q - grad grad^T,
the restriction of Q to the hyperplane orthogonal to Qa and to sampled
hyperplanes (Qb)-perp for nonnegative b (each in an integer basis),
C = (a^T Q a) Q - (Qa)(Qa)^T, and for degree >= 3 log-concavity of the
derivative of f in direction a.

f is completely log-concave when every repeated partial derivative is
log-concave over the nonnegative orthant.  The certifier used here
reduces that infinite family of conditions to finitely many checks: f is
completely log-concave exactly when every nonzero derivative d^alpha f
with |alpha| <= d - 2 is indecomposable (its active variables are not
split into two groups with no mixed partial across) and every quadratic
derivative (|alpha| = d - 2) is log-concave.  Quadratics have constant
Hessians, so their verdict is point free and is tested at the all-ones
point.  No coefficient can cancel, so every check is read off the terms
of f, with no derivative polynomials.

For the independence generating polynomial g_M of a matroid the checks
collapse further.  Nonzero derivatives correspond to contractions M/J by
independent J, where indecomposability always holds because every
non-loop of M/J shares a monomial with the homogenizing variable y, and
the quadratic at J is log-concave exactly when

    n' B - (n' - 1) 11^T

is negative semidefinite on the non-loops of M/J, with n' the number of
elements of M/J and B_ij = 1 precisely when i, j lie in distinct
parallel classes.  With P the element-by-class incidence matrix of the
c parallel classes, that matrix factors as

    P (J_c - n' I_c) P^T,

and the c x c core has eigenvalues c - n' (once) and -n', so the
quadratic is log-concave exactly when c <= n'.  That always holds: each
class holds at least one non-loop, and M/J has n' elements.  So
certify_clc_matroid passes every quadratic check by this closed form,
with no NSD test at run time.

The spectral diagnostic of g_M at the all-ones point needs no
polynomial either.  With F the family of independent sets, m the number
of elements, c_i = #{I in F : i in I} and p_ij = #{I in F : i, j in I}:

    f(1) = |F|
    d_{z_i} = c_i,  d_{z_i} d_{z_j} = p_ij for i != j,  d_{z_i}^2 = 0
    d_y = m |F| - S1,  with S1 = sum_i c_i = sum_I |I|
    d_y d_{z_i} = (m - 1) c_i - sum_{j != i} p_ij
    d_y^2 = sum_I (m - |I|)(m - |I| - 1),  from sum_I |I| = S1 and
            sum_I |I|^2 = S1 + sum_{i != j} p_ij

Loops and contracted labels get zero rows.  spectral_nd_report builds
the pair matrix f Hess f - grad f grad f^T from these counts when it is
given a matroid and no point.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (
    AllLoops,
    ConsistencyError,
    DegreeTooLow,
    DimensionMismatch,
    NegativeCoefficient,
    NotHomogeneous,
    ZeroAtPoint,
)
from .linalg import SymmetricMatrix, _cleared, float_eigenvalues, is_negative_semidefinite
from .matroid import Matroid, _extensions, _find
from .polynomial import SparsePolynomial, independence_polynomial


def _rational_point(f: SparsePolynomial, a: Sequence, require_nonneg: bool = True) -> tuple:
    a = tuple(Fraction(x) if isinstance(x, int) else x for x in a)
    if len(a) != f.nvars:
        raise DimensionMismatch(f"point of length {len(a)} for {f.nvars} variables")
    for x in a:
        if not isinstance(x, Fraction):
            raise TypeError("evaluation points must be exact rationals")
        if require_nonneg and x < 0:
            raise ValueError(f"point must be nonnegative, got coordinate {x}")
    return a


def _require_nonneg_homogeneous(f: SparsePolynomial) -> None:
    if not f.has_nonnegative_coefficients():
        raise NegativeCoefficient("polynomial has a negative coefficient")
    if not f.is_homogeneous():
        raise NotHomogeneous("polynomial is not homogeneous")


def _rank_one_update(q_rows: Sequence, s, v: Sequence, scale: int = 1) -> SymmetricMatrix:
    """(s Q - v v^T) / scale for the rows of a symmetric Q."""
    rows = [[s * q - x * y for q, y in zip(row, v)] for row, x in zip(q_rows, v)]
    if scale != 1:
        rows = [[Fraction(x, scale) for x in row] for row in rows]
    return SymmetricMatrix(rows)


def _pair_matrix(f: SparsePolynomial, a: tuple) -> tuple:
    """f(a) and f(a) Hess f(a) - grad f(a) grad f(a)^T, from one pass
    over the terms, in ints: with F, G and H those of _values_at and
    s_0 s_2 = s_1^2, the pair matrix is (F H - G G^T) / s_1^2."""
    (fa, grad, hess), (s0, s1, _) = f._values_at(a, 2)
    return Fraction(fa, s0), _rank_one_update(hess, fa, grad, s1 * s1)


def _test_matrix(hess: list, scale: int, a: Sequence) -> SymmetricMatrix:
    """(a^T Q a) Q - (Qa)(Qa)^T for Q = hess / scale.  With p = L a
    integral, it is (p^T H p) H - (Hp)(Hp)^T for H = hess, divided by
    (L scale)^2."""
    p, big_l = _cleared(a)
    hp = [sum(x * y for x, y in zip(row, p)) for row in hess]
    return _rank_one_update(hess, sum(x * y for x, y in zip(p, hp)), hp, (big_l * scale) ** 2)


def log_concavity_test_matrix(f: SparsePolynomial, a: Sequence) -> SymmetricMatrix:
    """(a^T Q a) Q - (Qa)(Qa)^T for Q the Hessian of f at a."""
    a = _rational_point(f, a, require_nonneg=False)
    (*_, hess), (*_, scale) = f._values_at(a, 2)
    return _test_matrix(hess, scale, a)


def log_concave_at(f: SparsePolynomial, a: Sequence) -> bool:
    """Exact log-concavity verdict at a nonnegative rational point.

    The zero polynomial and degrees 0 and 1 are log-concave by
    convention.  Otherwise requires f(a) != 0.
    """
    _require_nonneg_homogeneous(f)
    a = _rational_point(f, a)
    if f.is_zero() or f.total_degree() <= 1:
        return True
    if f.evaluate(a) == 0:
        raise ZeroAtPoint(
            "f vanishes at the point; use functional sampling for boundary diagnostics"
        )
    return bool(is_negative_semidefinite(log_concavity_test_matrix(f, a)))


# -- indecomposability ---------------------------------------------------


def _split(exps, alpha: tuple) -> Optional[tuple]:
    """None when the supports of the terms of d^alpha f connect their
    variables, else the component of the smallest one and the rest.

    ``exps`` are the exponent vectors beta >= alpha of the terms of f that
    survive the derivative; the support of the term they give is the set
    of positions with beta_i > alpha_i.  d2 f / dx_i dx_j is nonzero
    exactly when some term contains both variables (monomial derivatives
    cannot cancel), so each support is a clique of the mixed-partial
    graph."""
    parent = list(range(len(alpha)))
    active = set()
    for beta in exps:
        support = [i for i, b in enumerate(beta) if b > alpha[i]]
        if support:
            active.update(support)
            root = _find(parent, support[0])
            for i in support[1:]:
                parent[_find(parent, i)] = root
    components = {}
    for i in sorted(active):
        components.setdefault(_find(parent, i), []).append(i)
    if len(components) <= 1:
        return None
    first = frozenset(next(iter(components.values())))
    return first, frozenset(active) - first


# -- condition report ------------------------------------------------------


@dataclass
class LogConcavityConditionReport:
    """Side-by-side evaluation of equivalent log-concavity conditions.

    condition1  log-Hessian of f NSD at a
    condition2  z^T Q z NSD on the hyperplane orthogonal to Qa
    condition3  same test on sampled hyperplanes (Qb)-perp, b >= 0
    condition4  NSD on some (n-1)-dimensional subspace (witnessed by
                the condition2 hyperplane)
    condition5  (a^T Q a) Q - (Qa)(Qa)^T NSD
    condition6  derivative of f in direction a log-concave at a
                (degree >= 3 only, else None)

    Conditions 1, 2, 4, 5 are equivalent for exact input; condition 3 is
    necessary, so samples may only fail when the others do.  The
    ``agreement`` flag records that the computed verdicts respected all
    of this.
    """

    point: tuple
    value: Fraction
    degree: int
    condition1: bool
    condition2: bool
    condition3_samples: tuple
    condition4: bool
    condition5: bool
    condition6: Optional[bool]
    condition5_matrix: SymmetricMatrix
    seed: int
    agreement: bool = field(init=False)

    def __post_init__(self):
        ok = self.condition1 == self.condition2 == self.condition4 == self.condition5
        if self.condition6 is not None:
            ok = ok and self.condition6 == self.condition1
        if self.condition1:
            ok = ok and all(self.condition3_samples)
        self.agreement = ok

    def to_json(self) -> dict:
        return {
            "point": [str(x) for x in self.point],
            "value": str(self.value),
            "degree": self.degree,
            "condition1": self.condition1,
            "condition2": self.condition2,
            "condition3_samples": list(self.condition3_samples),
            "condition4": self.condition4,
            "condition5": self.condition5,
            "condition6": self.condition6,
            "condition5_matrix": self.condition5_matrix.to_json_rows(),
            "agreement": self.agreement,
            "seed": self.seed,
        }


def _hyperplane_nsd(hess: list, b: Sequence) -> Optional[bool]:
    """Whether Q is NSD on the hyperplane orthogonal to Qb, for Q a
    positive multiple of ``hess``; None when Qb = 0.

    w = hess (L b) is integral and a positive multiple of Qb.  The form
    is restricted in the basis w_p e_j - w_j e_p (j != p), for w_p the
    first nonzero entry, so its matrix is integral too; the verdict does
    not depend on the basis, by congruence.
    """
    q, _ = _cleared(b)
    w = [sum(x * y for x, y in zip(row, q)) for row in hess]
    p = next((i for i, x in enumerate(w) if x), None)
    if p is None:
        return None
    wp, hp = w[p], hess[p]
    rest = [j for j in range(len(w)) if j != p]
    # (w_p e_i - w_i e_p)^T H (w_p e_j - w_j e_p)
    restricted = [
        [wp * (wp * hess[i][j] - w[j] * hp[i] - w[i] * hp[j]) + w[i] * w[j] * hp[p] for j in rest]
        for i in rest
    ]
    return bool(is_negative_semidefinite(SymmetricMatrix(restricted)))


def log_concavity_condition_report(
    f: SparsePolynomial,
    a: Sequence,
    samples: int = 4,
    seed: int = 0,
) -> LogConcavityConditionReport:
    """Evaluate the equivalent conditions independently and compare.

    Requires homogeneous f with nonnegative coefficients, degree >= 2,
    and a nonnegative rational point with f(a) != 0.  For such input Qa
    is automatically nonzero (a^T Q a = d (d-1) f(a) > 0), so the
    hyperplane of condition2 always exists.  Sampled points for
    condition3 start with b = a, which is condition2, and continue with
    small random nonnegative vectors, skipping any with Qb = 0.  Every
    condition reads the one integer jet of f at a (see _values_at).
    """
    _require_nonneg_homogeneous(f)
    a = _rational_point(f, a)
    d = f.total_degree()
    if d < 2:
        raise DegreeTooLow(f"conditions need degree >= 2, got {d}")
    (fa, grad, hess), (s0, _, s2) = f._values_at(a, 2)
    if fa == 0:
        raise ZeroAtPoint("conditions are defined only where f(a) != 0")
    # F H - G G^T is s_1^2 times the pair matrix, so it has the same verdict
    cond1 = bool(is_negative_semidefinite(_rank_one_update(hess, fa, grad)))
    cond2 = _hyperplane_nsd(hess, a)
    if cond2 is None:
        raise ConsistencyError("Qa vanished although f(a) > 0 and degree >= 2")
    cond5_matrix = _test_matrix(hess, s2, a)
    cond5 = bool(is_negative_semidefinite(cond5_matrix))

    rng = random.Random(seed)
    sample_results = [cond2][:samples]
    candidates = 1
    while len(sample_results) < samples and candidates < 20 * samples:
        candidates += 1
        b = tuple(Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(f.nvars))
        verdict = _hyperplane_nsd(hess, b)
        if verdict is not None:
            sample_results.append(verdict)

    cond6 = None
    if d >= 3:
        cond6 = log_concave_at(f.directional_derivative(a), a)

    return LogConcavityConditionReport(
        point=a,
        value=Fraction(fa, s0),
        degree=d,
        condition1=cond1,
        condition2=cond2,
        condition3_samples=tuple(sample_results),
        condition4=cond2,
        condition5=cond5,
        condition6=cond6,
        condition5_matrix=cond5_matrix,
        seed=seed,
    )


# -- complete log-concavity certificates -----------------------------------


@dataclass(frozen=True, slots=True)
class CertificateCheck:
    """One verified condition inside a certificate.

    ``alpha`` is the derivative multi-index, ``kind`` is either
    "indecomposable" or "quadratic-nsd".  Failed checks carry a witness:
    a partition of active variables, or a vector v with v^T Q v > 0 for
    the quadratic matrix (with ``witness_labels`` naming its rows when
    the matrix lives on matroid elements).
    """

    alpha: tuple
    kind: str
    result: bool
    witness_partition: Optional[tuple] = None
    witness_vector: Optional[tuple] = None
    witness_labels: Optional[tuple] = None
    matrix: Optional[SymmetricMatrix] = None

    def to_json(self) -> dict:
        out = {"alpha": list(self.alpha), "kind": self.kind, "result": self.result}
        if self.witness_partition is not None:
            out["witness"] = {
                "type": "partition",
                "components": [sorted(p) for p in self.witness_partition],
            }
        if self.witness_vector is not None:
            witness = {"type": "vector", "vector": [str(x) for x in self.witness_vector]}
            if self.witness_labels is not None:
                witness["labels"] = list(self.witness_labels)
            out["witness"] = witness
        return out


class _LazyChecks(Sequence):
    """Checks whose number is known before any is built.

    ``make()`` returns a fresh iterator over the checks; iterating calls
    it each time, and indexing builds the checks once and keeps them.
    """

    __slots__ = ("_len", "_make", "_built")

    def __init__(self, length: int, make):
        self._len = length
        self._make = make
        self._built = None

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return self._make() if self._built is None else iter(self._built)

    def __getitem__(self, index):
        if self._built is None:
            self._built = tuple(self._make())
        return self._built[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _LazyChecks)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    __hash__ = None


@dataclass
class CLCCertificate:
    """Outcome of the reduction-to-quadratics criterion.

    ``accepted`` means every derivative check passed, which proves
    complete log-concavity.  A rejection pinpoints the first failing
    check in canonical order together with a machine-checkable witness,
    and disproves complete log-concavity: the criterion is an exact
    decision.  A failed quadratic is a derivative whose test matrix at
    the all-ones point is not NSD, so it is not log-concave at 1.  A
    nonzero d^alpha f of degree k >= 2 that splits into variable blocks
    B1 and B2 has a block-diagonal Hessian Q at 1, and each block has
    1_B^T Q 1_B = k (k - 1) f_B(1) > 0 for its part f_B.  So Q has two
    positive eigenvalues, and d^alpha f is not log-concave at 1.

    The general certifier holds its checks in a tuple.  A matroid
    certificate holds its matroid and nothing derived from it: ``checks``
    and ``quadratic_checks()`` know their lengths by closed form in the
    counts I_k, and the checks, the quadratic checks and the JSON text of
    the checks are each built on demand by one walk over the enumerated
    family (see _matroid_walk).  The parallel classes of each contraction
    are read only when check objects are built.
    """

    accepted: bool
    nvars: int
    degree: int
    checks: Sequence
    failure: Optional[CertificateCheck]
    # set by certify_clc_matroid only
    _matroid: Optional[Matroid] = field(default=None, repr=False, compare=False)

    @property
    def verdict(self) -> str:
        return "accepted" if self.accepted else "rejected"

    def quadratic_checks(self) -> Sequence:
        m = self._matroid
        if m is None:
            return tuple(c for c in self.checks if c.kind == "quadratic-nsd")
        # one per independent J with |J| <= n - 2
        counts = m.count_independent_by_size()[: self.degree - 1]
        return _LazyChecks(sum(counts), lambda: _matroid_checks(m, indecomposable=False))

    def _checks_json(self):
        """The JSON text of ``checks`` without its brackets, in pieces
        whose concatenation equals the compact, key-sorted dump."""
        if self._matroid is None:
            checks = [c.to_json() for c in self.checks]
            yield json.dumps(checks, sort_keys=True, separators=(",", ":"))[1:-1]
        else:
            yield from _matroid_checks_json(self._matroid)

    def to_json(self) -> dict:
        """The verdict and its sizes; the checks themselves are written
        only as text, by _checks_json."""
        out = {
            "verdict": self.verdict,
            "nvars": self.nvars,
            "degree": self.degree,
            "num_checks": len(self.checks),
        }
        if self.failure is not None:
            out["failure"] = self.failure.to_json()
        return out


def _quadratic_check(alpha: tuple, terms: list, nv: int) -> CertificateCheck:
    """The check of the quadratic d^alpha f at the all-ones point: its
    Hessian is Q_ij = c_beta beta! for beta = alpha + e_i + e_j.

    Q is scaled by the lcm L of its coefficients' denominators, so the
    test matrix (1^T Q 1) Q - (Q1)(Q1)^T is built in ints, as L^2 times
    itself, and divided back once."""
    coeffs, scale = _cleared(c for _, c in terms)
    q = [[0] * nv for _ in range(nv)]
    for (beta, _), c in zip(terms, coeffs):
        # beta - alpha = e_i + e_j with i <= j
        i, j = (k for k, (b, a) in enumerate(zip(beta, alpha)) for _ in range(b - a))
        q[i][j] = q[j][i] = c * math.prod(map(math.factorial, beta))
    q1 = [sum(row) for row in q]
    matrix = _rank_one_update(q, sum(q1), q1, scale * scale)
    res = is_negative_semidefinite(matrix)
    return CertificateCheck(
        alpha, "quadratic-nsd", res.is_nsd, witness_vector=res.witness, matrix=matrix
    )


def _next_level(level: dict, nv: int) -> dict:
    """The nonzero derivatives one order up: alpha + e_i, with its terms
    beta >= alpha + e_i, whenever some term of alpha has beta_i > alpha_i."""
    nxt = {}
    for alpha, terms in level.items():
        for i, a in enumerate(alpha):
            up = alpha[:i] + (a + 1,) + alpha[i + 1 :]
            if up not in nxt:
                kept = [t for t in terms if t[0][i] > a]
                if kept:
                    nxt[up] = kept
    return nxt


def certify_clc_quadratic_criterion(f: SparsePolynomial) -> CLCCertificate:
    """Certify complete log-concavity of a general homogeneous f.

    Walks every nonzero derivative level by level, reading each check
    off the terms of f: indecomposability for each |alpha| <= d - 2,
    then exact log-concavity of each quadratic at |alpha| = d - 2.
    Stops at the first failure and reports it with a witness.  Checks
    appear in canonical order (total degree of alpha, then
    lexicographic, the indecomposable check first).
    """
    if f.is_zero():
        raise DegreeTooLow("zero polynomial has no quadratic derivatives")
    if not f.has_nonnegative_coefficients():
        raise NegativeCoefficient("certificate requires nonnegative coefficients")
    if not f.is_homogeneous():
        raise NotHomogeneous("certificate requires a homogeneous polynomial")
    d = f.total_degree()
    if d < 2:
        raise DegreeTooLow(f"certificate needs degree >= 2, got {d}")
    nv = f.nvars
    checks = []
    level = {(0,) * nv: list(f.terms.items())}
    for ell in range(d - 1):
        if ell:
            level = _next_level(level, nv)
        for alpha in sorted(level):
            # the terms of f with beta >= alpha give d^alpha f its support
            terms = level[alpha]
            split = _split([beta for beta, _ in terms], alpha)
            checks.append(
                CertificateCheck(alpha, "indecomposable", split is None, witness_partition=split)
            )
            if split is None and ell == d - 2:
                checks.append(_quadratic_check(alpha, terms, nv))
            if not checks[-1].result:
                return CLCCertificate(False, nv, d, tuple(checks), checks[-1])
    return CLCCertificate(True, nv, d, tuple(checks), None)


# -- matroid specialization --------------------------------------------------


def _element_matrix(nprime: int, pattern) -> SymmetricMatrix:
    """P (J_c - n' I_c) P^T for the class index ``pattern`` of the rows.

    Entries are 1 between distinct classes and 1 - n' inside a class and
    on the diagonal.
    """
    inside, across = 1 - nprime, 1
    return SymmetricMatrix([[inside if a == b else across for b in pattern] for a in pattern])


def matroid_quadratic_matrix(m: Matroid) -> SymmetricMatrix:
    """The quadratic test matrix n B - (n-1) 11^T on non-loops.

    Rows follow non-loop labels in ascending order, n counts all
    elements including loops.  Entries: 1 between distinct parallel
    classes, 1 - n inside a class and on the diagonal.
    """
    n = m.n_elements
    if n < 2:
        raise DegreeTooLow(f"quadratic matrix needs at least 2 elements, got {n}")
    nonloops, pattern = m._classes_after(0)
    if not nonloops:
        raise AllLoops("matroid has no non-loop element")
    return _element_matrix(n, pattern)


def certify_clc_matroid(m: Matroid) -> CLCCertificate:
    """Certify complete log-concavity of the generating polynomial g_M.

    Nonzero derivatives of g_M are exactly d_y^k d_z^J g_M for
    independent J, and equal (up to the y-derivative) generating
    polynomials of the contractions M/J.  Indecomposability is witnessed
    by the star around y: every non-loop i of M/J keeps a y z_i monomial
    alive while k <= |M/J| - 2.  Each quadratic level check reduces to
    the parallel-class matrix of M/J; when M/J consists of loops only
    the quadratic is a positive multiple of y^2 and passes outright.

    The parallel-class matrix of M/J factors as P (J_c - n' I_c) P^T,
    and the c x c core has eigenvalues c - n' (once) and -n'.  It is NSD
    because c <= n' always holds (see the module docstring), so every
    quadratic check passes by this closed form.  The certificate keeps
    the matroid alone, and its number of checks is a closed form in the
    counts I_k: each independent J with |J| <= n - 2 gives n - |J| checks.
    No check, z-part or parallel class is computed here.

    Ground sets with fewer than 2 elements are accepted with an empty
    check list: the polynomial has degree below 2 and all its
    derivatives are linear with nonnegative coefficients.
    """
    n = m.n_elements
    nv = m.ambient + 1
    if n < 2:
        return CLCCertificate(True, nv, n, (), None)
    counts = m.count_independent_by_size()[: n - 1]
    checks = _LazyChecks(
        sum((n - size) * count for size, count in enumerate(counts)),
        lambda: _matroid_checks(m),
    )
    return CLCCertificate(True, nv, n, checks, None, _matroid=m)


def _matroid_walk(m: Matroid):
    """The canonical order of the checks of g_M: by |alpha| = k + |J|,
    then k, then zpart, the z-part of alpha.

    Yields one run per (|alpha|, k) as (k, js, quadratic): js lists
    (zpart, J) for the independent masks J of size |alpha| - k, sorted by
    zpart, with zpart the JSON text of the z-part ("0,1,0", element 1
    first); quadratic when |alpha| = n - 2, the last level.  The runs of
    one size share one list, so each J is formatted once.
    """
    n = m.n_elements
    # the z-part of J as 0/1 digits, element 1 first: sorts like the tuple
    zformat = f"0{m.ambient}b"
    buckets = [[] for _ in range(n - 1)]
    for jmask in m.independent_set_masks():
        size = jmask.bit_count()
        if size <= n - 2:
            buckets[size].append((",".join(format(jmask, zformat)[::-1]), jmask))
    for bucket in buckets:
        bucket.sort()
    for t in range(n - 1):
        for k in range(t + 1):
            yield k, buckets[t - k], t == n - 2


def _matroid_checks(m: Matroid, indecomposable: bool = True):
    """The checks of g_M in canonical order, at each quadratic alpha the
    indecomposable check before the quadratic one; the quadratic checks
    alone when ``indecomposable`` is false.

    One class pass per quadratic J reads the parallel classes of M/J off
    the one-step extension masks of the family, O(n) lookups per J.
    Element matrices are shared between contractions with the same n' and
    class pattern.
    """
    ext = _extensions(m.independent_set_masks()).__getitem__
    matrices = {}
    for k, js, quadratic in _matroid_walk(m):
        if not (indecomposable or quadratic):
            continue
        # k counts the y-derivatives, so a quadratic M/J has n' = k + 2 elements
        nprime = k + 2
        for zpart, jmask in js:
            alpha = (k, *map(int, zpart[::2]))
            if indecomposable:
                yield CertificateCheck(alpha, "indecomposable", True)
            if not quadratic:
                continue
            nonloops, pattern = m._classes_after(jmask, ext)
            if not nonloops:
                yield CertificateCheck(alpha, "quadratic-nsd", True)
                continue
            key = (nprime, pattern)
            matrix = matrices.get(key)
            if matrix is None:
                matrix = matrices[key] = _element_matrix(nprime, pattern)
            yield CertificateCheck(
                alpha, "quadratic-nsd", True, witness_labels=nonloops, matrix=matrix
            )


# contractions per piece of certificate text, about 300 KB
_JSON_BATCH = 4096


def _matroid_checks_json(m: Matroid):
    """The JSON text of _matroid_checks, comma-separated and in the same
    order, joined in pieces of at most _JSON_BATCH contractions.  Every
    check passes and carries no witness, so its text is its alpha."""
    ind = '],"kind":"indecomposable","result":true}'
    quad = '],"kind":"quadratic-nsd","result":true}'
    sep = ""
    for k, js, quadratic in _matroid_walk(m):
        head = '{"alpha":[%d,' % k
        tail = quad if quadratic else ind
        for start in range(0, len(js), _JSON_BATCH):
            batch = [zpart for zpart, _ in js[start : start + _JSON_BATCH]]
            if quadratic:
                # each J: its indecomposable check, then its quadratic one
                batch = [z + ind + "," + head + z for z in batch]
            yield sep + head + (tail + "," + head).join(batch) + tail
            sep = ","


def verify_certificate_failure(cert: CLCCertificate, f: SparsePolynomial) -> bool:
    """Re-check a rejection witness against the original polynomial.

    ``f`` is the SparsePolynomial the certificate was issued for; a
    matroid certificate is always accepted.  The failing derivative is
    re-derived from f: a partition must split its support, and a vector
    v must have v^T C v > 0 for the test matrix C of the quadratic at
    the all-ones point.  Returns True when the witness still
    demonstrates the failure; used before emitting failure objects.
    """
    if cert.accepted or cert.failure is None:
        raise ValueError("certificate has no failure to verify")
    chk = cert.failure
    deriv = f.derivative_multi(chk.alpha)
    if chk.kind == "indecomposable":
        first, rest = chk.witness_partition
        seen_first = seen_rest = False
        for exp in deriv.terms:
            support = {i for i, e in enumerate(exp) if e}
            hits_first = bool(support & set(first))
            hits_rest = bool(support & set(rest))
            if hits_first and hits_rest:
                return False
            seen_first |= hits_first
            seen_rest |= hits_rest
        return seen_first and seen_rest
    if chk.kind == "quadratic-nsd":
        v, n = chk.witness_vector, f.nvars
        if v is None or len(v) != n or deriv.total_degree() != 2 or not deriv.is_homogeneous():
            return False
        # Q, the Hessian of the quadratic d^alpha f, is read off its
        # coefficients; its test matrix at 1 is C = (1^T Q 1) Q - (Q1)(Q1)^T,
        # so v^T C v = (1^T Q 1)(v^T Q v) - (v^T Q1)^2, without building C
        q = [[0] * n for _ in range(n)]
        for exp, c in deriv.terms.items():
            i, j = (k for k, e in enumerate(exp) for _ in range(e))
            q[i][j] = q[j][i] = 2 * c if i == j else c
        q1 = [sum(row) for row in q]
        qv = [sum(x * y for x, y in zip(row, v)) for row in q]
        vqv = sum(x * y for x, y in zip(v, qv))
        return sum(q1) * vqv - sum(x * y for x, y in zip(v, q1)) ** 2 > 0
    raise ValueError(f"unknown check kind {chk.kind!r}")


# -- spectral diagnostic -----------------------------------------------------


@dataclass
class SpectralReport:
    """Floating eigenvalue diagnostic of the log-Hessian at a point.

    ``pair_matrix`` is the exact numerator f(a) Hess f - grad grad^T;
    eigenvalues are those of pair_matrix / f(a)^2, ascending.  All
    eigenvalues nonpositive (up to tolerance) indicates the pairwise
    negative dependence behavior expected of independence polynomials.
    """

    point: tuple
    value: Fraction
    pair_matrix: SymmetricMatrix
    eigenvalues: tuple

    @property
    def max_eigenvalue(self) -> float:
        return max(self.eigenvalues) if self.eigenvalues else 0.0

    def to_json(self) -> dict:
        return {
            "point": [str(x) for x in self.point],
            "value": str(self.value),
            "pair_matrix": self.pair_matrix.to_json_rows(),
            "eigenvalues": list(self.eigenvalues),
            "max_eigenvalue": self.max_eigenvalue,
        }


def _matroid_pair_matrix(m: Matroid) -> tuple:
    """f(1) and the pair matrix of g_M at the all-ones point, from the
    counts c_i and p_ij of the family (see the module docstring).

    The family is laid out as one integer with a lane of whole bytes per
    mask; shifting it by i - 1 and keeping the lowest bit of every lane
    gives the column of element i, so c_i and p_ij are bit counts.
    """
    family = m.independent_set_masks()
    n, nv, size = m.n_elements, m.ambient + 1, len(family)
    width = (nv + 7) // 8
    packed = int.from_bytes(b"".join(mask.to_bytes(width, "little") for mask in family), "little")
    lanes = int.from_bytes((b"\x01" + bytes(width - 1)) * size, "little")
    labels = m.ground
    cols = [(packed >> (i - 1)) & lanes for i in labels]
    # the diagonal holds c_i, so row i sums to c_i + sum over j != i of p_ij
    pairs = [[(x & y).bit_count() for y in cols] for x in cols]
    s1 = sum(row[k] for k, row in enumerate(pairs))
    hess = [[0] * nv for _ in range(nv)]
    grad = [0] * nv
    grad[0] = n * size - s1
    hess[0][0] = (n - 1) * (n * size - 2 * s1) + sum(map(sum, pairs)) - s1
    for k, (i, row) in enumerate(zip(labels, pairs)):
        grad[i] = row[k]
        hess[0][i] = hess[i][0] = n * row[k] - sum(row)
        for j, p in zip(labels, row):
            if j != i:
                hess[i][j] = p
    return Fraction(size), _rank_one_update(hess, size, grad)


def spectral_nd_report(source, a: Optional[Sequence] = None) -> SpectralReport:
    """Eigenvalues of the Hessian of log f at a (default all-ones).

    ``source`` is a SparsePolynomial f or a Matroid, for f = g_M.  A
    matroid at the all-ones point takes its pair matrix from the counts
    of its family, without building g_M.  Exact arithmetic up to the
    final eigenvalue call, which is floating point and diagnostic only;
    exact verdicts come from the NSD test.
    """
    if isinstance(source, Matroid) and a is None:
        a = (Fraction(1),) * (source.ambient + 1)
        fa, numerator = _matroid_pair_matrix(source)
    else:
        f = independence_polynomial(source) if isinstance(source, Matroid) else source
        a = _rational_point(f, (Fraction(1),) * f.nvars if a is None else a)
        fa, numerator = _pair_matrix(f, a)
        if fa <= 0:
            raise ZeroAtPoint("spectral report requires f(a) > 0")
    return SpectralReport(
        point=a,
        value=fa,
        pair_matrix=numerator,
        eigenvalues=tuple(float_eigenvalues(numerator, fa * fa)),
    )


# -- functional sampling ------------------------------------------------------


@dataclass
class FunctionalSampleReport:
    """Sampled midpoint test of log-concavity over the orthant.

    Each trial draws nonnegative rational u, v and lambda in (0, 1) and
    checks f(lambda u + (1-lambda) v) >= f(u)^lambda f(v)^(1-lambda)
    with exact evaluation and double precision logarithms.  ``margin`` is
    log lhs - log rhs, required to be >= -rel_tol.
    """

    trials: int
    holds: bool
    worst_margin: Optional[float]
    failures: tuple
    seed: int
    rel_tol: float

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "holds": self.holds,
            "worst_margin": self.worst_margin,
            "failures": list(self.failures),
            "seed": self.seed,
            "rel_tol": self.rel_tol,
        }


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def sample_functional_log_concavity(
    f: SparsePolynomial,
    trials: int = 100,
    seed: int = 0,
    rel_tol: float = 1e-9,
) -> FunctionalSampleReport:
    """Randomized functional check, usable on boundary points where the
    Hessian route is undefined.  Requires nonnegative coefficients."""
    if not f.has_nonnegative_coefficients():
        raise NegativeCoefficient("functional sampling requires nonnegative coefficients")
    rng = random.Random(seed)
    failures = []
    worst = None
    for t in range(trials):
        u = tuple(Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(f.nvars))
        v = tuple(Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(f.nvars))
        lam = Fraction(rng.randint(1, 15), 16)
        mid = tuple(lam * a + (1 - lam) * b for a, b in zip(u, v))
        fu, fv, fm = f.evaluate(u), f.evaluate(v), f.evaluate(mid)
        if fu == 0 or fv == 0:
            # right side is zero, inequality is automatic for
            # nonnegative coefficients
            continue
        if fm == 0:
            failures.append(t)
            continue
        margin = _log_fraction(fm) - lam * _log_fraction(fu) - (1 - lam) * _log_fraction(fv)
        if worst is None or margin < worst:
            worst = margin
        if margin < -rel_tol:
            failures.append(t)
    return FunctionalSampleReport(
        trials=trials,
        holds=not failures,
        worst_margin=worst,
        failures=tuple(failures),
        seed=seed,
        rel_tol=rel_tol,
    )
