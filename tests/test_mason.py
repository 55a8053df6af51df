"""Ultra-log-concavity of rank sequences and bivariate minor checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from matroidlc import (
    LengthMismatch,
    NegativeCoefficient,
    NegativeEntry,
    NotBivariate,
    NotHomogeneous,
    SparsePolynomial,
    SymmetricMatrix,
    bivariate_restriction,
    check_ultra_log_concave,
    gurvits_minor_checks,
    mason_report,
    uniform,
)

CUBE = SparsePolynomial(2, {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})


def rows_int(matrix):
    return [[int(x) for x in row] for row in matrix.rows()]


# -- the three strengths of log-concavity on a sequence -----------------------


def test_triangle_sequence_reaches_strongest_form_with_equality():
    report = check_ultra_log_concave((1, 3, 3, 0))
    entry = report.entry(1)
    assert (entry.form1.lhs, entry.form1.rhs) == (9, 3)
    assert (entry.form2.lhs, entry.form2.rhs) == (9, 6)
    assert (entry.form3.lhs, entry.form3.rhs) == (27, 27)
    assert entry.form3.holds and not entry.form3.vacuous
    assert not entry.in_theorem_range  # k = 1 sits at the boundary
    assert report.form1_all and report.form2_all and report.form3_all


def test_trailing_zero_makes_later_comparisons_vacuous():
    entry = check_ultra_log_concave((1, 3, 3, 0)).entry(2)
    assert entry.form3.vacuous and entry.form3.holds
    assert (entry.form3.lhs, entry.form3.rhs) == (27, 0)
    assert entry.in_theorem_range


def test_weighted_forms_on_modified_sequence():
    entry = check_ultra_log_concave((1, 3, 2, 0)).entry(1)
    assert (entry.form1.lhs, entry.form1.rhs) == (9, 2)
    assert (entry.form3.lhs, entry.form3.rhs) == (27, 18)
    assert entry.form3.holds


def test_binomial_sequence_is_extremal_for_strongest_form():
    n = 7
    seq = [math.comb(n, k) for k in range(n + 1)]
    report = check_ultra_log_concave(seq)
    for entry in report.entries:
        assert entry.form3.lhs == entry.form3.rhs
        assert entry.form3.holds
    assert report.form3_all


def test_length_and_sign_validation():
    with pytest.raises(LengthMismatch):
        check_ultra_log_concave((1, 2, 1), n=3)
    with pytest.raises(LengthMismatch):
        check_ultra_log_concave(())
    with pytest.raises(NegativeEntry):
        check_ultra_log_concave((1, -2, 1))


def test_report_json_uses_plain_sequence_and_string_bounds():
    payload = check_ultra_log_concave((1, 3, 3, 0)).to_json()
    assert payload["sequence"] == [1, 3, 3, 0]
    assert payload["entries"][0]["form3"] == {
        "lhs": "27",
        "rhs": "27",
        "holds": True,
        "vacuous": False,
    }


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=9)
)
@settings(max_examples=150, deadline=None)
def test_stronger_forms_imply_weaker_ones(seq):
    report = check_ultra_log_concave(seq)
    for entry in report.entries:
        if entry.form3.holds and not entry.form3.vacuous:
            assert entry.form2.holds
        if entry.form2.holds and not entry.form2.vacuous:
            assert entry.form1.holds
        if entry.form1.vacuous:
            assert entry.form2.vacuous and entry.form3.vacuous


# -- bivariate minor checks ----------------------------------------------------


def test_minor_checks_on_perfect_cube():
    checks = gurvits_minor_checks(CUBE)
    assert [c.k for c in checks] == [1, 2]
    for check in checks:
        assert rows_int(check.matrix) == [[6, 6], [6, 6]]
        assert check.determinant == 0
        assert check.nonpositive


def test_minor_checks_on_strictly_log_concave_cubic():
    f = SparsePolynomial(2, {(3, 0): 1, (2, 1): 3, (1, 2): 2})
    checks = gurvits_minor_checks(f)
    assert [(c.k, int(c.determinant)) for c in checks] == [(1, -12), (2, -16)]
    assert rows_int(checks[0].matrix) == [[6, 6], [6, 4]]
    assert rows_int(checks[1].matrix) == [[6, 4], [4, 0]]
    assert not checks[0].in_theorem_range
    assert checks[1].in_theorem_range


def test_minor_checks_skip_when_no_interior_coefficient():
    assert gurvits_minor_checks(SparsePolynomial(2, {(2, 0): 1})) == []
    assert gurvits_minor_checks(SparsePolynomial(2, {})) == []


def test_minor_checks_validate_input():
    with pytest.raises(NotBivariate):
        gurvits_minor_checks(SparsePolynomial(3, {(1, 1, 1): 1}))
    with pytest.raises(NegativeCoefficient):
        gurvits_minor_checks(SparsePolynomial(2, {(2, 0): -1}))
    with pytest.raises(NotHomogeneous):
        gurvits_minor_checks(SparsePolynomial(2, {(2, 0): 1, (1, 0): 1}))


def test_minor_entries_match_closed_form():
    # honest double differentiation must agree with the factorial
    # closed form for each 2x2 slice
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 7)
        coeffs = [Fraction(rng.randint(0, 9)) for _ in range(n + 1)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        f = SparsePolynomial(2, {(n - m, m): c for m, c in enumerate(coeffs) if c})
        for check in gurvits_minor_checks(f):
            k = check.k
            expected = [
                [
                    coeffs[k - 1] * math.factorial(k - 1) * math.factorial(n - k + 1),
                    coeffs[k] * math.factorial(k) * math.factorial(n - k),
                ],
                [
                    coeffs[k] * math.factorial(k) * math.factorial(n - k),
                    coeffs[k + 1] * math.factorial(k + 1) * math.factorial(n - k - 1),
                ],
            ]
            assert [list(row) for row in check.matrix.rows()] == expected


def _typed_rows(matrix):
    return [[(x, type(x)) for x in row] for row in matrix.rows()]


def test_minor_matrices_match_the_hessian_route():
    # the Hessian read off each quadratic's coefficients against the one
    # that evaluates it at the origin
    rng = random.Random(23)
    polys = [
        # quadratics whose 2c is integral: a 1/2 coefficient gives an int entry
        SparsePolynomial(2, {(2, 0): Fraction(1, 2), (1, 1): 1, (0, 2): Fraction(3, 2)}),
        SparsePolynomial(2, {(2, 0): Fraction(1, 3), (1, 1): Fraction(1, 2)}),
        SparsePolynomial(2, {(3, 0): Fraction(1, 2), (2, 1): Fraction(1, 2), (0, 3): Fraction(1, 6)}),
    ]
    for _ in range(80):
        n = rng.randint(2, 7)
        coeffs = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(n + 1)]
        coeffs[rng.randrange(n + 1)] = Fraction(1, 2)
        polys.append(SparsePolynomial(2, {(n - m, m): c for m, c in enumerate(coeffs) if c}))
    seen = set()
    for f in polys:
        n = f.total_degree()
        for check in gurvits_minor_checks(f):
            hess = f.derivative_multi((n - check.k - 1, check.k - 1)).hessian((0, 0))
            assert _typed_rows(check.matrix) == _typed_rows(hess)
            det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
            assert (check.determinant, type(check.determinant)) == (det, type(det))
            for x in (x for row in check.matrix.rows() for x in row):
                assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)
                seen.add(type(x))
    assert seen == {int, Fraction}
    assert _typed_rows(gurvits_minor_checks(polys[0])[0].matrix) == _typed_rows(
        SymmetricMatrix([[1, 1], [1, 3]])
    )


def test_minor_sign_equals_strongest_form_verdict():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 6)
        seq = [rng.randint(0, 12) for _ in range(n + 1)]
        seq[0] = max(seq[0], 1)
        f = SparsePolynomial(2, {(n - m, m): c for m, c in enumerate(seq) if c})
        report = check_ultra_log_concave(seq)
        for check in gurvits_minor_checks(f):
            assert check.nonpositive == report.entry(check.k).form3.holds


# -- full per-matroid report ----------------------------------------------------


def test_mason_report_uniform_2_3():
    report = mason_report(uniform(2, 3))
    assert report.n == 3
    assert report.sequence == (1, 3, 3, 0)
    assert report.certificate.accepted
    assert [(c.k, int(c.determinant)) for c in report.minor_checks] == [(1, 0), (2, -36)]
    assert report.ulc.form3_all
    assert report.consistent


def test_mason_report_complete_graph_on_four_vertices():
    report = mason_report(helpers.k4())
    assert report.sequence == (1, 6, 15, 16, 0, 0, 0)
    assert report.certificate.accepted
    assert report.ulc.form3_all
    assert all(c.nonpositive for c in report.minor_checks)
    assert report.consistent


def test_mason_report_trivial_matroid():
    report = mason_report(helpers.single_loop())
    assert report.sequence == (1, 0)
    assert report.ulc.entries == ()
    assert report.minor_checks == ()
    assert report.consistent


def test_mason_report_zoo_consistency():
    for m in helpers.zoo():
        report = mason_report(m)
        assert report.consistent
        assert report.certificate.accepted
        assert report.ulc.form3_all


def test_mason_report_uses_bivariate_restriction():
    m = helpers.k3()
    report = mason_report(m)
    direct = gurvits_minor_checks(bivariate_restriction(m))
    assert [(c.k, c.determinant) for c in report.minor_checks] == [
        (c.k, c.determinant) for c in direct
    ]


def test_mason_report_json_shape():
    payload = mason_report(uniform(2, 3)).to_json()
    assert payload["sequence"] == [1, 3, 3, 0]
    assert payload["consistent"] is True
    assert payload["certificate"]["verdict"] == "accepted"
    assert len(payload["minor_checks"]) == 2
