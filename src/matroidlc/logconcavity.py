"""Exact log-concavity certificates for homogeneous polynomials.

A homogeneous polynomial f with nonnegative coefficients is log-concave
at a point a with f(a) > 0 when the Hessian of log f is negative
semidefinite there.  For such f and exact rational a this is decidable
without floats: with Q the Hessian of f at a, negative semidefiniteness
of

    C = (a^T Q a) Q - (Qa)(Qa)^T

is equivalent to it, along with several other formulations that the
condition report evaluates side by side (restriction of Q to the
hyperplane orthogonal to Qa, to sampled hyperplanes (Qb)-perp for
nonnegative b, and for degree >= 3 log-concavity of the derivative of f
in direction a).

f is completely log-concave when every repeated partial derivative is
log-concave over the nonnegative orthant.  The certifier used here
reduces that infinite family of conditions to finitely many checks: it
suffices that every nonzero derivative d^alpha f with |alpha| <= d - 2
is indecomposable (its active variables are not split into two groups
with no mixed partial across) and that every quadratic derivative
(|alpha| = d - 2) is log-concave.  Quadratics have constant Hessians, so
their verdict is point free and is tested at the all-ones point.

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
class holds at least one non-loop, and M/J has n' elements.
certify_clc_matroid decides each (n', c) core by the exact NSD test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, mpf

from .errors import (
    AllLoops,
    ConsistencyError,
    DegreeTooLow,
    DimensionMismatch,
    NegativeCoefficient,
    NotHomogeneous,
    ZeroAtPoint,
)
from .linalg import SymmetricMatrix, float_eigenvalues, is_negative_semidefinite
from .matroid import Matroid, ParallelPartition, _find
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


def log_hessian_numerator(f: SparsePolynomial, a: Sequence) -> SymmetricMatrix:
    """f(a) * Hess f(a) - grad f(a) grad f(a)^T.

    The Hessian of log f at a equals this divided by f(a)^2, so the two
    share definiteness whenever f(a) != 0.
    """
    a = _rational_point(f, a, require_nonneg=False)
    fa = f.evaluate(a)
    grad = f.gradient(a)
    return f.hessian(a).scaled(fa) - SymmetricMatrix.outer(grad)


def log_concavity_test_matrix(f: SparsePolynomial, a: Sequence) -> SymmetricMatrix:
    """(a^T Q a) Q - (Qa)(Qa)^T for Q the Hessian of f at a."""
    a = _rational_point(f, a, require_nonneg=False)
    q = f.hessian(a)
    qa = q.matvec(a)
    aqa = sum((x * y for x, y in zip(a, qa)), Fraction(0))
    return q.scaled(aqa) - SymmetricMatrix.outer(qa)


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


@dataclass(frozen=True)
class IndecomposabilityResult:
    """Connectivity verdict for the mixed-partial graph of f.

    On failure ``partition`` splits the active variables into two
    nonempty groups with no term of f touching both.
    """

    is_indecomposable: bool
    partition: Optional[tuple]

    def __bool__(self) -> bool:
        return self.is_indecomposable


def is_indecomposable(f: SparsePolynomial) -> IndecomposabilityResult:
    """Connectivity of active variables under shared-monomial edges.

    d2 f / dx_i dx_j is nonzero exactly when some term contains both
    variables (monomial derivatives cannot cancel), so each term's
    support is a clique and chain-linking it suffices.  Polynomials with
    at most one active variable count as indecomposable.
    """
    active = sorted(f.active_variables())
    if len(active) <= 1:
        return IndecomposabilityResult(True, None)
    parent = list(range(f.nvars))
    for exp in f.terms:
        prev = None
        for i, e in enumerate(exp):
            if e:
                if prev is not None:
                    parent[_find(parent, prev)] = _find(parent, i)
                prev = i
    roots = {}
    for i in active:
        roots.setdefault(_find(parent, i), []).append(i)
    if len(roots) == 1:
        return IndecomposabilityResult(True, None)
    components = sorted(roots.values(), key=lambda c: c[0])
    first = frozenset(components[0])
    rest = frozenset(v for comp in components[1:] for v in comp)
    return IndecomposabilityResult(False, (first, rest))


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
    hessian: SymmetricMatrix
    condition1: bool
    condition2: bool
    condition3_samples: tuple
    condition4: bool
    condition5: bool
    condition6: Optional[bool]
    condition5_matrix: SymmetricMatrix
    orthogonal_basis: tuple
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


def _orthogonal_complement_basis(w: Sequence) -> tuple:
    """Rational basis of the hyperplane orthogonal to a nonzero vector."""
    pivot = next((i for i, x in enumerate(w) if x != 0), None)
    if pivot is None:
        raise ValueError("zero vector has no hyperplane complement")
    n = len(w)
    basis = []
    for j in range(n):
        if j == pivot:
            continue
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        v[pivot] = -Fraction(w[j], 1) / w[pivot]
        basis.append(tuple(v))
    return tuple(basis)


def _restrict_form(q: SymmetricMatrix, basis: Sequence) -> SymmetricMatrix:
    """Matrix of the quadratic form z^T Q z on the span of the basis."""
    images = [q.matvec(v) for v in basis]
    k = len(basis)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            val = sum((a * b for a, b in zip(basis[i], images[j])), Fraction(0))
            rows[i][j] = val
            rows[j][i] = val
    return SymmetricMatrix(rows)


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
    condition3 start with b = a and continue with small random
    nonnegative vectors, skipping any with Qb = 0.
    """
    _require_nonneg_homogeneous(f)
    a = _rational_point(f, a)
    d = f.total_degree()
    if d < 2:
        raise DegreeTooLow(f"conditions need degree >= 2, got {d}")
    fa = f.evaluate(a)
    if fa == 0:
        raise ZeroAtPoint("conditions are defined only where f(a) != 0")
    q = f.hessian(a)
    grad = f.gradient(a)
    qa = q.matvec(a)
    if all(x == 0 for x in qa):
        raise ConsistencyError("Qa vanished although f(a) > 0 and degree >= 2")
    aqa = sum((x * y for x, y in zip(a, qa)), Fraction(0))

    cond1 = bool(is_negative_semidefinite(q.scaled(fa) - SymmetricMatrix.outer(grad)))
    basis = _orthogonal_complement_basis(qa)
    cond2 = bool(is_negative_semidefinite(_restrict_form(q, basis)))
    cond4 = cond2
    cond5_matrix = q.scaled(aqa) - SymmetricMatrix.outer(qa)
    cond5 = bool(is_negative_semidefinite(cond5_matrix))

    rng = random.Random(seed)
    sample_results = []
    candidates = 0
    while len(sample_results) < samples and candidates < 20 * samples:
        if candidates == 0:
            b = a
        else:
            b = tuple(
                Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(f.nvars)
            )
        candidates += 1
        qb = q.matvec(b)
        if all(x == 0 for x in qb):
            continue
        sample_results.append(
            bool(is_negative_semidefinite(_restrict_form(q, _orthogonal_complement_basis(qb))))
        )

    cond6 = None
    if d >= 3:
        cond6 = log_concave_at(f.directional_derivative(a), a)

    return LogConcavityConditionReport(
        point=a,
        value=fa,
        degree=d,
        hessian=q,
        condition1=cond1,
        condition2=cond2,
        condition3_samples=tuple(sample_results),
        condition4=cond4,
        condition5=cond5,
        condition6=cond6,
        condition5_matrix=cond5_matrix,
        orthogonal_basis=basis,
        seed=seed,
    )


# -- complete log-concavity certificates -----------------------------------


@dataclass(frozen=True)
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


@dataclass
class CLCCertificate:
    """Outcome of the reduction-to-quadratics criterion.

    ``accepted`` means every derivative check passed, which proves
    complete log-concavity.  A rejection pinpoints the first failing
    check in canonical order together with a machine-checkable witness.
    The criterion is sufficient, not complete: a rejection of a general
    polynomial is a failed certificate, not a disproof.
    """

    accepted: bool
    nvars: int
    degree: int
    checks: tuple
    failure: Optional[CertificateCheck]

    @property
    def verdict(self) -> str:
        return "accepted" if self.accepted else "rejected"

    def quadratic_checks(self) -> tuple:
        return tuple(c for c in self.checks if c.kind == "quadratic-nsd")

    def to_json(self, include_checks: bool = True) -> dict:
        out = {
            "verdict": self.verdict,
            "nvars": self.nvars,
            "degree": self.degree,
            "num_checks": len(self.checks),
        }
        if include_checks:
            out["checks"] = [c.to_json() for c in self.checks]
        if self.failure is not None:
            out["failure"] = self.failure.to_json()
        return out


def _canonical_alpha_key(check: CertificateCheck):
    return (sum(check.alpha), check.alpha, check.kind)


def _quadratic_log_concave(q: SparsePolynomial):
    """Point-free log-concavity of a nonzero quadratic with nonnegative
    coefficients; the constant Hessian is tested at the all-ones point."""
    a = (Fraction(1),) * q.nvars
    matrix = log_concavity_test_matrix(q, a)
    res = is_negative_semidefinite(matrix)
    return res, matrix


def certify_clc_quadratic_criterion(f: SparsePolynomial) -> CLCCertificate:
    """Certify complete log-concavity of a general homogeneous f.

    Walks every nonzero derivative level by level: indecomposability for
    each |alpha| <= d - 2, then exact log-concavity of each quadratic at
    |alpha| = d - 2.  Stops at the first failure and reports it with a
    witness.  Checks appear in canonical order (total degree of alpha,
    then lexicographic).
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
    failure = None
    level = {(0,) * nv: f}
    for ell in range(d - 1):
        last = ell == d - 2
        for alpha in sorted(level):
            fa = level[alpha]
            ind = is_indecomposable(fa)
            checks.append(
                CertificateCheck(alpha, "indecomposable", bool(ind), witness_partition=ind.partition)
            )
            if not ind:
                failure = checks[-1]
                break
            if last:
                res, matrix = _quadratic_log_concave(fa)
                checks.append(
                    CertificateCheck(
                        alpha,
                        "quadratic-nsd",
                        bool(res),
                        witness_vector=res.witness,
                        matrix=matrix,
                    )
                )
                if not res:
                    failure = checks[-1]
                    break
        if failure is not None or last:
            break
        nxt = {}
        for alpha, fa in level.items():
            for i in range(nv):
                g = fa.partial_derivative(i)
                if not g.is_zero():
                    bumped = list(alpha)
                    bumped[i] += 1
                    nxt.setdefault(tuple(bumped), g)
        level = nxt
    checks.sort(key=_canonical_alpha_key)
    return CLCCertificate(
        accepted=failure is None,
        nvars=nv,
        degree=d,
        checks=tuple(checks),
        failure=failure,
    )


# -- matroid specialization --------------------------------------------------


def _class_pattern(part: ParallelPartition) -> tuple:
    """Non-loops in ascending order, and the class index of each."""
    index = {e: c for c, cls in enumerate(part.classes) for e in cls}
    nonloops = tuple(sorted(index))
    return nonloops, tuple(index[e] for e in nonloops)


def _element_matrix(nprime: int, pattern) -> SymmetricMatrix:
    """P (J_c - n' I_c) P^T for the class index ``pattern`` of the rows.

    Entries are 1 between distinct classes and 1 - n' inside a class and
    on the diagonal.  With singleton classes this is the c x c core
    J_c - n' I_c itself.
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
    part = m.parallel_partition()
    if not part.classes:
        raise AllLoops("matroid has no non-loop element")
    return _element_matrix(n, _class_pattern(part)[1])


def certify_clc_matroid(m: Matroid, limit: Optional[int] = None) -> CLCCertificate:
    """Certify complete log-concavity of the generating polynomial g_M.

    Nonzero derivatives of g_M are exactly d_y^k d_z^J g_M for
    independent J, and equal (up to the y-derivative) generating
    polynomials of the contractions M/J.  Indecomposability is witnessed
    by the star around y: every non-loop i of M/J keeps a y z_i monomial
    alive while k <= |M/J| - 2.  Each quadratic level check reduces to
    the parallel-class matrix of M/J; when M/J consists of loops only
    the quadratic is a positive multiple of y^2 and passes outright.

    The parallel-class matrix factors as P (J_c - n' I_c) P^T, with P
    the element-by-class incidence matrix of the c parallel classes of
    M/J.  Its verdict is therefore that of the c x c core, which is NSD
    exactly when c <= n'; and c <= n' always holds, since every class
    holds at least one of the n' elements.  Each (n', c) core is decided
    once by the exact NSD test, and a core that fails raises
    ConsistencyError.  One pass over the enumerated family reads the
    partition of every M/J off the independence masks, and element
    matrices are shared between contractions with the same n' and class
    pattern.

    Ground sets with fewer than 2 elements are accepted with an empty
    check list: the polynomial has degree below 2 and all its
    derivatives are linear with nonnegative coefficients.
    """
    n = m.n_elements
    nv = m.ambient + 1
    if n < 2:
        return CLCCertificate(True, nv, n, (), None)
    checks = []
    cores = set()
    matrices = {}
    for jmask in m.independent_set_masks(limit):
        nprime = n - jmask.bit_count()
        if nprime < 2:
            continue
        zpart = tuple((jmask >> i) & 1 for i in range(nv - 1))
        for k in range(nprime - 1):
            checks.append(CertificateCheck((k,) + zpart, "indecomposable", True))
        alpha_q = (nprime - 2,) + zpart
        part = m._partition_after(jmask)
        if not part.classes:
            checks.append(CertificateCheck(alpha_q, "quadratic-nsd", True))
            continue
        c = len(part.classes)
        if (nprime, c) not in cores:
            if not is_negative_semidefinite(_element_matrix(nprime, range(c))):
                raise ConsistencyError(
                    f"class core J_c - n'I_c is not NSD for n' = {nprime}, c = {c}"
                )
            cores.add((nprime, c))
        nonloops, pattern = _class_pattern(part)
        key = (nprime, pattern)
        matrix = matrices.get(key)
        if matrix is None:
            matrix = matrices[key] = _element_matrix(nprime, pattern)
        checks.append(
            CertificateCheck(
                alpha_q, "quadratic-nsd", True, witness_labels=nonloops, matrix=matrix
            )
        )
    checks.sort(key=_canonical_alpha_key)
    return CLCCertificate(accepted=True, nvars=nv, degree=n, checks=tuple(checks), failure=None)


def verify_certificate_failure(cert: CLCCertificate, source) -> bool:
    """Re-check a rejection witness against the original input.

    ``source`` is the SparsePolynomial or Matroid the certificate was
    issued for.  Returns True when the witness still demonstrates the
    failure; used before emitting failure objects.
    """
    if cert.accepted or cert.failure is None:
        raise ValueError("certificate has no failure to verify")
    chk = cert.failure
    if isinstance(source, Matroid):
        f = independence_polynomial(source)
    else:
        f = source
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
        if chk.matrix is None or chk.witness_vector is None:
            return False
        return chk.matrix.quad(chk.witness_vector) > 0
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


def spectral_nd_report(f: SparsePolynomial, a: Optional[Sequence] = None) -> SpectralReport:
    """Eigenvalues of the Hessian of log f at a (default all-ones).

    Exact arithmetic up to the final eigenvalue call, which is floating
    point and diagnostic only; exact verdicts come from the NSD test.
    """
    if a is None:
        a = (Fraction(1),) * f.nvars
    a = _rational_point(f, a)
    fa = f.evaluate(a)
    if fa <= 0:
        raise ZeroAtPoint("spectral report requires f(a) > 0")
    numerator = log_hessian_numerator(f, a)
    scaled = numerator.scaled(Fraction(1, 1) / (fa * fa))
    return SpectralReport(
        point=a,
        value=fa,
        pair_matrix=numerator,
        eigenvalues=tuple(float_eigenvalues(scaled)),
    )


# -- functional sampling ------------------------------------------------------


@dataclass
class FunctionalSampleReport:
    """Sampled midpoint test of log-concavity over the orthant.

    Each trial draws nonnegative rational u, v and lambda in (0, 1) and
    checks f(lambda u + (1-lambda) v) >= f(u)^lambda f(v)^(1-lambda)
    with exact evaluation and high precision logarithms.  ``margin`` is
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


def _log_fraction(x: Fraction):
    return mp.log(mpf(x.numerator)) - mp.log(mpf(x.denominator))


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
    with mp.workdps(50):
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
            margin = float(
                _log_fraction(fm) - lam * _log_fraction(fu) - (1 - lam) * _log_fraction(fv)
            )
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
