"""Ultra-log-concavity of independent-set counts and minor diagnostics.

For a matroid on n elements with I_k independent sets of size k, three
nested inequalities can be asked of consecutive counts:

    (i)    I_k^2 >= I_{k-1} I_{k+1}
    (ii)   I_k^2 >= (1 + 1/k) I_{k-1} I_{k+1}
    (iii)  I_k^2 / C(n,k)^2 >= (I_{k-1}/C(n,k-1)) (I_{k+1}/C(n,k+1))

Form (iii) says the normalized sequence I_k / C(n,k) is log-concave
(ultra log-concavity) and implies the other two.  Everything here is
compared by integer cross-multiplication, never division.

The second route to form (iii) goes through the bivariate restriction
f_M(y, z) = sum_k I_k y^(n-k) z^k.  When f_M is completely log-concave,
the quadratic d_y^(n-k-1) d_z^(k-1) f_M is log-concave, and its constant
2x2 Hessian

    n! * [[c_(k-1)/C(n,k-1), c_k/C(n,k)], [c_k/C(n,k), c_(k+1)/C(n,k+1)]]

must have nonpositive determinant, which cross-multiplies to exactly
form (iii) at k.  gurvits_minor_checks differentiates the polynomial
down to each quadratic a y^2 + b yz + c z^2 and reads its Hessian
[[2a, b], [b, 2c]] off the coefficients, never from the factorial
identity above; mason_report runs counts, the
complete-log-concavity certificate, and the minor determinants side by
side and refuses to return if they ever disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .errors import (
    ConsistencyError,
    LengthMismatch,
    NegativeCoefficient,
    NegativeEntry,
    NotBivariate,
    NotHomogeneous,
)
from .linalg import SymmetricMatrix, _exact
from .logconcavity import CLCCertificate, certify_clc_matroid
from .matroid import Matroid
from .polynomial import SparsePolynomial, bivariate_restriction


@dataclass(frozen=True)
class FormComparison:
    """One cross-multiplied inequality lhs >= rhs in exact integers."""

    lhs: int
    rhs: int
    holds: bool
    vacuous: bool

    def to_json(self) -> dict:
        return {
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
            "vacuous": self.vacuous,
        }


@dataclass(frozen=True)
class UlcEntry:
    """The three inequality forms at one index k.

    ``in_theorem_range`` marks 1 < k < n, the indices the ultra
    log-concavity statement quantifies over; k = 1 is reported too since
    the arithmetic is still well defined there.
    """

    k: int
    form1: FormComparison
    form2: FormComparison
    form3: FormComparison
    in_theorem_range: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "form1": self.form1.to_json(),
            "form2": self.form2.to_json(),
            "form3": self.form3.to_json(),
            "in_theorem_range": self.in_theorem_range,
        }


@dataclass(frozen=True)
class RankSequenceReport:
    """Ultra-log-concavity verdicts for a full count sequence."""

    n: int
    sequence: tuple
    entries: tuple
    form1_all: bool
    form2_all: bool
    form3_all: bool

    def entry(self, k: int) -> UlcEntry:
        for e in self.entries:
            if e.k == k:
                return e
        raise KeyError(f"no entry for k={k}")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sequence": list(self.sequence),
            "entries": [e.to_json() for e in self.entries],
            "form1_all": self.form1_all,
            "form2_all": self.form2_all,
            "form3_all": self.form3_all,
        }


def _compare(lhs: int, rhs: int, vacuous: bool) -> FormComparison:
    return FormComparison(lhs=lhs, rhs=rhs, holds=lhs >= rhs, vacuous=vacuous)


def check_ultra_log_concave(seq: Sequence[int], n: Optional[int] = None) -> RankSequenceReport:
    """Exact three-form comparison at every interior index.

    ``seq`` lists I_0..I_n; when n is given the length must be n + 1.
    A comparison whose right side has a zero factor I_{k-1} I_{k+1} is
    flagged vacuous (it holds trivially).
    """
    seq = tuple(int(c) for c in seq)
    if n is None:
        if not seq:
            raise LengthMismatch("sequence must contain at least I_0")
        n = len(seq) - 1
    elif len(seq) != n + 1:
        raise LengthMismatch(f"expected {n + 1} entries for n={n}, got {len(seq)}")
    for c in seq:
        if c < 0:
            raise NegativeEntry(f"counts must be nonnegative, got {c}")
    entries = []
    for k in range(1, n):
        sq = seq[k] * seq[k]
        prod = seq[k - 1] * seq[k + 1]
        vac = prod == 0
        form1 = _compare(sq, prod, vac)
        form2 = _compare(k * sq, (k + 1) * prod, vac)
        form3 = _compare(
            sq * comb(n, k - 1) * comb(n, k + 1), prod * comb(n, k) ** 2, vac
        )
        entries.append(
            UlcEntry(
                k=k,
                form1=form1,
                form2=form2,
                form3=form3,
                in_theorem_range=1 < k < n,
            )
        )
    return RankSequenceReport(
        n=n,
        sequence=seq,
        entries=tuple(entries),
        form1_all=all(e.form1.holds for e in entries),
        form2_all=all(e.form2.holds for e in entries),
        form3_all=all(e.form3.holds for e in entries),
    )


# -- bivariate minor route ---------------------------------------------------


@dataclass(frozen=True)
class MinorCheck:
    """Determinant record of one 2x2 derivative Hessian.

    ``matrix`` is the constant Hessian of d_y^(n-k-1) d_z^(k-1) f; its
    determinant is nonpositive exactly when form (iii) holds at k.
    """

    k: int
    matrix: SymmetricMatrix
    determinant: Fraction
    nonpositive: bool
    in_theorem_range: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "matrix": self.matrix.to_json_rows(),
            "determinant": str(self.determinant),
            "nonpositive": self.nonpositive,
            "in_theorem_range": self.in_theorem_range,
        }


def gurvits_minor_checks(f: SparsePolynomial) -> list:
    """Exact 2x2 Hessian determinants of the quadratic derivatives.

    Requires bivariate homogeneous f with nonnegative coefficients.
    One record per k in 1..n-1 with c_k != 0 (where the mixed second
    derivative of the quadratic is alive).  f is differentiated down to
    the quadratic a y^2 + b yz + c z^2, whose constant Hessian
    [[2a, b], [b, 2c]] is read off its coefficients, not from the
    factorial identity, so tests can compare the two routes.  Entries
    are ints when integral.
    """
    if f.nvars != 2:
        raise NotBivariate(f"expected 2 variables, got {f.nvars}")
    if not f.has_nonnegative_coefficients():
        raise NegativeCoefficient("minor checks require nonnegative coefficients")
    if f.is_zero():
        return []
    if not f.is_homogeneous():
        raise NotHomogeneous("minor checks require a homogeneous polynomial")
    n = f.total_degree()
    out = []
    for k in range(1, n):
        if f.coefficient((n - k, k)) == 0:
            continue
        quad = f.derivative_multi((n - k - 1, k - 1))
        a, b, c = (quad.coefficient(e) for e in ((2, 0), (1, 1), (0, 2)))
        # b is stored exact; 2a and 2c can be integral Fractions
        matrix = SymmetricMatrix._trusted(((_exact(2 * a), b), (b, _exact(2 * c))))
        det = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
        out.append(
            MinorCheck(
                k=k,
                matrix=matrix,
                determinant=det,
                nonpositive=det <= 0,
                in_theorem_range=1 < k < n,
            )
        )
    return out


# -- end-to-end matroid report -------------------------------------------------


@dataclass(frozen=True)
class MasonReport:
    """Counts, ultra-log-concavity, certificate, and minors for one matroid.

    Construction fails with ConsistencyError if the implication chain
    accepted certificate => nonpositive determinants => form (iii) is
    violated anywhere, since that can only mean a library bug.
    """

    n: int
    sequence: tuple
    ulc: RankSequenceReport
    certificate: CLCCertificate
    minor_checks: tuple
    consistent: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sequence": list(self.sequence),
            "ulc": self.ulc.to_json(),
            "certificate": self.certificate.to_json(),
            "minor_checks": [m.to_json() for m in self.minor_checks],
            "consistent": self.consistent,
        }


def mason_report(m: Matroid) -> MasonReport:
    """Full pipeline: counts -> three forms, g_M -> certificate,
    f_M -> minor determinants, with cross-checks between all three."""
    counts = m.count_independent_by_size()
    ulc = check_ultra_log_concave(counts)
    cert = certify_clc_matroid(m)
    minors = tuple(gurvits_minor_checks(bivariate_restriction(m)))
    by_k = {e.k: e for e in ulc.entries}
    for chk in minors:
        if chk.nonpositive != by_k[chk.k].form3.holds:
            raise ConsistencyError(
                f"minor determinant and form (iii) disagree at k={chk.k}"
            )
    if cert.accepted and not all(chk.nonpositive for chk in minors):
        raise ConsistencyError("accepted certificate with a positive minor determinant")
    if cert.accepted and not ulc.form3_all:
        raise ConsistencyError("accepted certificate with a failing form (iii)")
    return MasonReport(
        n=m.n_elements,
        sequence=tuple(counts),
        ulc=ulc,
        certificate=cert,
        minor_checks=minors,
        consistent=True,
    )
