"""Log-concavity tests: pointwise matrices, condition reports, the
reduction-to-quadratics certifier, and its matroid specialization."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from helpers import _canonical_alpha_key
from matroidlc import corpus, logconcavity
from matroidlc import (
    CorpusConfig,
    DegreeTooLow,
    EnumerationLimitExceeded,
    Matroid,
    NegativeCoefficient,
    NotHomogeneous,
    SparsePolynomial,
    SymmetricMatrix,
    ZeroAtPoint,
    bases_polynomial,
    certify_clc_matroid,
    certify_clc_quadratic_criterion,
    corpus_instances,
    from_independence_family,
    graphic,
    independence_polynomial,
    is_negative_semidefinite,
    log_concavity_condition_report,
    log_concavity_test_matrix,
    mason_report,
    sample_functional_log_concavity,
    spectral_nd_report,
    uniform,
    verify_certificate_failure,
)
from matroidlc.cli import MAX_ENUMERATION_BOUND
from matroidlc.corpus import analyze_instance
from matroidlc.logconcavity import log_concave_at
from matroidlc.matroid import UniformMatroid, _extensions


def P(nvars, terms):
    return SparsePolynomial(nvars, terms)


def rows_int(matrix):
    return [[int(x) for x in row] for row in matrix.rows()]


def pair_matrix(f, a):
    """f(a) Hess f(a) - grad f(a) grad f(a)^T."""
    return spectral_nd_report(f, a).pair_matrix


Z1Z2 = P(2, {(1, 1): 1})
SOS = P(2, {(2, 0): 1, (0, 2): 1})
SQUARE = P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


# -- pointwise test matrices --------------------------------------------------


def test_product_is_log_concave_with_pinned_matrices():
    assert log_concave_at(Z1Z2, (1, 1))
    assert rows_int(pair_matrix(Z1Z2, (1, 1))) == [[-1, 0], [0, -1]]
    assert rows_int(log_concavity_test_matrix(Z1Z2, (1, 1))) == [[-1, 1], [1, -1]]


def test_sum_of_squares_is_not_log_concave():
    assert not log_concave_at(SOS, (1, 1))
    assert rows_int(pair_matrix(SOS, (1, 1))) == [[0, -4], [-4, 0]]
    assert rows_int(log_concavity_test_matrix(SOS, (1, 1))) == [[4, -4], [-4, 4]]


def test_perfect_square_is_log_concave():
    assert log_concave_at(SQUARE, (1, 1))
    assert rows_int(pair_matrix(SQUARE, (1, 1))) == [[-8, -8], [-8, -8]]
    assert rows_int(log_concavity_test_matrix(SQUARE, (1, 1))) == [[0, 0], [0, 0]]


def test_two_matrix_flavors_share_nsd_verdict():
    rng = random.Random(7)
    for _ in range(30):
        f = helpers.random_homogeneous_polynomial(rng, 3, 3)
        a = helpers.random_positive_point(rng, 3)
        lhs = is_negative_semidefinite(pair_matrix(f, a)).is_nsd
        rhs = is_negative_semidefinite(log_concavity_test_matrix(f, a)).is_nsd
        assert lhs == rhs


# -- conventions and input validation ----------------------------------------


def test_degenerate_polynomials_count_as_log_concave():
    assert log_concave_at(P(2, {}), (1, 1))
    assert log_concave_at(P(2, {(0, 0): 5}), (1, 1))
    assert log_concave_at(P(2, {(1, 0): 1, (0, 1): 2}), (1, 1))


def test_zero_value_at_point_is_rejected():
    with pytest.raises(ZeroAtPoint):
        log_concave_at(Z1Z2, (1, 0))


def test_negative_coefficient_rejected():
    with pytest.raises(NegativeCoefficient):
        log_concave_at(P(2, {(1, 1): -1}), (1, 1))


def test_inhomogeneous_rejected():
    with pytest.raises(NotHomogeneous):
        log_concave_at(P(2, {(1, 1): 1, (1, 0): 1}), (1, 1))


def test_negative_point_rejected():
    with pytest.raises(ValueError):
        log_concave_at(Z1Z2, (1, -1))


# -- equivalent conditions, side by side --------------------------------------


def test_condition_report_on_log_concave_input():
    report = log_concavity_condition_report(Z1Z2, (1, 1))
    assert report.condition1 and report.condition2
    assert report.condition4 and report.condition5
    assert report.condition6 is None  # degree 2, no derivative step
    assert all(report.condition3_samples)
    assert rows_int(report.condition5_matrix) == [[-1, 1], [1, -1]]
    assert report.agreement


def test_condition_report_on_counterexample():
    report = log_concavity_condition_report(SOS, (1, 1))
    assert not (report.condition1 or report.condition2)
    assert not (report.condition4 or report.condition5)
    assert rows_int(report.condition5_matrix) == [[4, -4], [-4, 4]]
    assert report.agreement


def test_condition6_appears_from_degree_three():
    report = log_concavity_condition_report(P(2, {(2, 1): 1}), (1, 1))
    assert report.degree == 3
    assert report.condition6 is not None
    assert report.condition6 == report.condition1
    assert report.agreement


def test_condition_report_requires_degree_two():
    with pytest.raises(DegreeTooLow):
        log_concavity_condition_report(P(2, {(1, 0): 1}), (1, 1))


def test_condition_report_json_shape():
    payload = log_concavity_condition_report(Z1Z2, (1, 1)).to_json()
    assert payload["condition1"] is True
    assert payload["agreement"] is True
    assert payload["value"] == "1"
    assert payload["condition5_matrix"] == [["-1", "1"], ["1", "-1"]]


@pytest.mark.parametrize(
    "f, log_concave",
    [
        # a product of linear forms is log-concave on the orthant
        (
            P(3, {(1, 1, 0): Fraction(1, 2), (1, 0, 1): Fraction(3, 2),
                  (0, 2, 0): Fraction(1, 4), (0, 1, 1): Fraction(3, 4)}),
            True,
        ),
        # two positive Hessian eigenvalues
        (P(3, {(2, 0, 0): Fraction(1, 2), (0, 2, 0): Fraction(1, 3), (0, 0, 2): 2}), False),
    ],
    ids=["product", "sum-of-squares"],
)
def test_condition_report_matches_fraction_reference_at_rational_input(f, log_concave):
    # non-integral coefficients and coordinates: every scale exceeds 1
    a = (Fraction(1, 2), Fraction(2, 3), Fraction(5, 4))
    report = log_concavity_condition_report(f, a)
    n = f.nvars
    q = oracle.hessian(f.terms, a)
    qa = [sum(x * y for x, y in zip(row, a)) for row in q]
    aqa = sum(x * y for x, y in zip(a, qa))
    assert report.condition5_matrix == SymmetricMatrix(
        [[aqa * q[i][j] - qa[i] * qa[j] for j in range(n)] for i in range(n)]
    )
    fa, pair = _reference_pair_matrix(f, a)
    assert report.value == fa
    assert report.condition1 is helpers.reference_is_negative_semidefinite(pair).is_nsd
    assert report.condition1 is log_concave
    assert report.agreement


# -- indecomposability --------------------------------------------------------


@pytest.mark.parametrize(
    "f, split",
    [
        (Z1Z2, None),
        (independence_polynomial(uniform(1, 2)), None),
        (SOS, (frozenset({0}), frozenset({1}))),
        (P(3, {(1, 1, 0): 1}), None),  # inactive variables are ignored
        (P(3, {}), None),  # at most one active variable
        (P(3, {(0, 4, 0): 2}), None),
    ],
    ids=repr,
)
def test_variable_split_matches_reference(f, split):
    assert logconcavity._split(f.terms, (0,) * f.nvars) == helpers.variable_split(f) == split


# -- generic quadratic-reduction certifier ------------------------------------


def test_certify_rank_one_uniform_polynomial():
    g = independence_polynomial(uniform(1, 2))
    cert = certify_clc_quadratic_criterion(g)
    assert cert.accepted
    assert cert.verdict == "accepted"
    assert [(c.alpha, c.kind) for c in cert.checks] == [
        ((0, 0, 0), "indecomposable"),
        ((0, 0, 0), "quadratic-nsd"),
    ]
    # quadratics are tested at the all-ones point
    assert rows_int(cert.quadratic_checks()[0].matrix) == [
        [-4, 2, 2],
        [2, -1, -1],
        [2, -1, -1],
    ]
    assert rows_int(log_concavity_test_matrix(g, (1, 1, 1))) == [
        [-4, 2, 2],
        [2, -1, -1],
        [2, -1, -1],
    ]


def test_rank_one_matrix_matches_direct_evaluation_at_unit_point():
    g = independence_polynomial(uniform(1, 2))
    matrix = log_concavity_test_matrix(g, (1, 0, 0))
    assert rows_int(matrix) == [[0, 0, 0], [0, -1, -1], [0, -1, -1]]


def test_certify_uniform_2_3_quadratic_levels():
    cert = certify_clc_quadratic_criterion(independence_polynomial(uniform(2, 3)))
    assert cert.accepted
    alphas = sorted(c.alpha for c in cert.quadratic_checks())
    assert alphas == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


def test_certify_rejects_sum_of_squares_with_witness():
    cert = certify_clc_quadratic_criterion(SOS)
    assert not cert.accepted
    assert cert.failure is not None
    assert cert.failure.alpha == (0, 0)
    assert cert.failure.kind == "indecomposable"
    assert verify_certificate_failure(cert, SOS)


def test_certify_rejects_indefinite_quadratic_with_vector_witness():
    f = P(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    cert = certify_clc_quadratic_criterion(f)
    assert not cert.accepted
    assert cert.failure.kind == "quadratic-nsd"
    assert cert.failure.witness_vector is not None
    assert verify_certificate_failure(cert, f)


def test_quadratic_witness_is_rechecked_against_the_source():
    # x^2 + xy/10 + y^2 is rejected with witness (1, 0); x^2 + 3xy + y^2
    # is CLC, so the same witness must not verify against it
    rejected = P(2, {(2, 0): 1, (1, 1): Fraction(1, 10), (0, 2): 1})
    cert = certify_clc_quadratic_criterion(rejected)
    assert cert.failure.kind == "quadratic-nsd"
    assert verify_certificate_failure(cert, rejected)
    clc = P(2, {(2, 0): 1, (1, 1): 3, (0, 2): 1})
    assert certify_clc_quadratic_criterion(clc).accepted
    assert not verify_certificate_failure(cert, clc)
    # a source whose derivative at alpha is not quadratic
    assert not verify_certificate_failure(cert, P(2, {(3, 0): 1, (0, 3): 1}))


def test_certificate_json_shape():
    cert = certify_clc_quadratic_criterion(independence_polynomial(uniform(1, 2)))
    payload = cert.to_json()
    assert payload["verdict"] == "accepted"
    assert payload["num_checks"] == 2
    assert "checks" not in payload
    assert helpers.certificate_json(cert)["checks"][1]["kind"] == "quadratic-nsd"


def _assert_matches_reference(f):
    """The coefficient route agrees with the derivative-polynomial walk
    check by check, matrices and witnesses included, in canonical order."""
    cert = certify_clc_quadratic_criterion(f)
    reference = helpers.reference_certificate(f)
    assert helpers.certificate_json(cert) == helpers.certificate_json(reference)
    assert cert.checks == reference.checks
    assert [c.matrix for c in cert.checks] == [c.matrix for c in reference.checks]
    assert list(cert.checks) == sorted(cert.checks, key=_canonical_alpha_key)
    return cert


@pytest.mark.parametrize("m", helpers.zoo(), ids=lambda m: repr(m))
def test_certifier_matches_derivative_walk_on_zoo(m):
    g = independence_polynomial(m)
    if g.total_degree() >= 2:
        assert _assert_matches_reference(g).accepted


def test_certifier_matches_derivative_walk_on_seeded_polynomials():
    rng = random.Random(7)
    kinds = set()
    for _ in range(150):
        f = helpers.random_homogeneous_polynomial(rng, rng.randint(2, 5), rng.randint(2, 5))
        cert = _assert_matches_reference(f)
        kinds.add(cert.failure.kind if cert.failure else "accepted")
    assert kinds == {"accepted", "indecomposable", "quadratic-nsd"}


@st.composite
def nonnegative_homogeneous(draw):
    """Products of linear forms (completely log-concave), or random
    terms, optionally confined to two variable blocks (decomposable)."""
    nvars = draw(st.integers(2, 5))
    degree = draw(st.integers(2, 5))
    coeff = st.one_of(
        st.integers(1, 9), st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
    )
    if draw(st.booleans()):
        f = SparsePolynomial.constant(nvars, 1)
        for _ in range(degree):
            support = draw(st.sets(st.integers(0, nvars - 1), min_size=1))
            unit = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
            f = f * P(nvars, {unit[i]: draw(coeff) for i in support})
        return f
    cut = draw(st.integers(1, nvars))
    blocks = [range(cut), range(cut, nvars)] if cut < nvars else [range(nvars)]
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        block = draw(st.sampled_from(blocks))
        exp = [0] * nvars
        for i in draw(st.lists(st.sampled_from(block), min_size=degree, max_size=degree)):
            exp[i] += 1
        terms[tuple(exp)] = draw(coeff)
    return P(nvars, terms)


@given(nonnegative_homogeneous())
@settings(max_examples=150, deadline=None)
def test_certifier_matches_derivative_walk_on_random_polynomials(f):
    _assert_matches_reference(f)


def test_certified_polynomials_are_log_concave_everywhere_sampled():
    rng = random.Random(11)
    for m in (uniform(2, 3), helpers.k3(), helpers.parallel_pair_plus_free()):
        g = independence_polynomial(m)
        assert certify_clc_quadratic_criterion(g).accepted
        for _ in range(10):
            assert log_concave_at(g, helpers.random_positive_point(rng, g.nvars))


def test_directional_derivative_sums_stay_log_concave():
    # closure property: nonnegative directional derivatives of a
    # certified polynomial, and sums of them, remain log-concave
    rng = random.Random(23)
    g = independence_polynomial(helpers.k3())
    assert certify_clc_quadratic_criterion(g).accepted
    for _ in range(8):
        u = tuple(Fraction(rng.randint(0, 3)) for _ in range(g.nvars))
        v = tuple(Fraction(rng.randint(0, 3)) for _ in range(g.nvars))
        h = g.directional_derivative(u) + g.directional_derivative(v)
        if h.is_zero():
            continue
        a = helpers.random_positive_point(rng, g.nvars)
        if h.evaluate(a) == 0:
            continue
        assert log_concave_at(h, a)


# -- matroid class matrices ----------------------------------------------------


def _empty_contraction_check(m):
    """The certificate's quadratic check at J = {} (alpha = (n - 2, 0, ...))."""
    return next(c for c in certify_clc_matroid(m).quadratic_checks() if not any(c.alpha[1:]))


def test_class_matrix_parallel_pair_plus_free_element():
    check = _empty_contraction_check(helpers.parallel_pair_plus_free())
    assert check.witness_labels == (1, 2, 3)
    assert rows_int(check.matrix) == [[-2, -2, 1], [-2, -2, 1], [1, 1, -2]]


def test_class_matrix_uniform_examples():
    assert rows_int(_empty_contraction_check(uniform(1, 2)).matrix) == [[-1, -1], [-1, -1]]
    assert rows_int(_empty_contraction_check(uniform(2, 2)).matrix) == [[-1, 1], [1, -1]]


def test_class_matrix_of_degenerate_inputs():
    # M/J of loops only passes with no matrix; below 2 elements there is
    # no quadratic at all
    check = _empty_contraction_check(uniform(0, 2))
    assert check.result and check.matrix is None and check.witness_labels is None
    assert certify_clc_matroid(helpers.single_loop()).checks == ()


def test_class_matrices_are_negative_semidefinite_on_zoo():
    for m in helpers.zoo():
        for check in certify_clc_matroid(m).quadratic_checks():
            if check.matrix is not None:
                assert is_negative_semidefinite(check.matrix).is_nsd, check.alpha


def test_class_core_lemma_at_every_reachable_size():
    # certify_clc_matroid passes every quadratic check because the core
    # J_c - n'I_c is NSD whenever c <= n'; the CLI reaches n' <= 24
    def core(nprime, c):
        return SymmetricMatrix([[1 - nprime if a == b else 1 for b in range(c)] for a in range(c)])

    for nprime in range(1, MAX_ENUMERATION_BOUND + 1):
        for c in range(1, nprime + 1):
            assert is_negative_semidefinite(core(nprime, c)).is_nsd
        over = core(nprime, nprime + 1)
        res = is_negative_semidefinite(over)
        assert not res.is_nsd
        assert over.quad(res.witness) > 0


@pytest.mark.parametrize("m", helpers.zoo(), ids=lambda m: repr(m))
def test_class_matrix_factors_through_class_core(m):
    # n'B - (n'-1)11^T = P (J_c - n'I_c) P^T with P the element-by-class
    # incidence matrix, so the c x c core decides the verdict
    ext = _extensions(m.independent_set_masks()).__getitem__
    for check in certify_clc_matroid(m).quadratic_checks():
        jmask = sum(1 << i for i, x in enumerate(check.alpha[1:]) if x)
        nprime = m.n_elements - jmask.bit_count()
        nonloops, pattern = m._classes_after(jmask, ext)
        if not nonloops:
            continue
        c = max(pattern) + 1
        assert c <= nprime
        core = [[1 - nprime if a == b else 1 for b in range(c)] for a in range(c)]
        incidence = [[int(k == cls) for k in range(c)] for cls in pattern]
        expected = [
            [
                sum(pa * core[a][b] * pb for a, pa in enumerate(pe) for b, pb in enumerate(pf))
                for pf in incidence
            ]
            for pe in incidence
        ]
        assert check.witness_labels == nonloops
        assert rows_int(check.matrix) == expected
        assert (
            is_negative_semidefinite(check.matrix).is_nsd
            == is_negative_semidefinite(SymmetricMatrix(core)).is_nsd
        )


# -- matroid certifier ----------------------------------------------------------


@pytest.mark.parametrize(
    "m", helpers.zoo() + [helpers.sparse_contraction()], ids=lambda m: repr(m)
)
def test_matroid_certificate_checks_in_canonical_order(m):
    cert = certify_clc_matroid(m)
    n = m.n_elements
    assert list(cert.checks) == sorted(cert.checks, key=_canonical_alpha_key)
    family = [j for j in m.independent_sets() if len(j) <= n - 2]
    assert len(cert.checks) == len(list(cert.checks)) == sum(n - len(j) for j in family)
    quadratic = {c.alpha[1:]: c for c in cert.quadratic_checks()}
    assert len(quadratic) == len(cert.quadratic_checks()) == len(family)
    for j in family:
        check = quadratic[tuple(int(i in j) for i in range(1, m.ambient + 1))]
        assert check.alpha[0] == n - 2 - len(j)
        jmask = sum(1 << (e - 1) for e in j)
        expected = helpers.family_quadratic(m.independent_set_masks(), m.ground, jmask)
        if expected is None:
            assert check.matrix is None and check.witness_labels is None
        else:
            assert check.witness_labels == expected[0]
            assert check.matrix.rows() == expected[1]


def test_class_matrix_audit_catches_a_planted_class_pass_bug(monkeypatch):
    # the per-check comparison of criterion 2 reads the family alone, so a
    # class pass that moves the last of seven or more non-loops out of
    # its class is flagged; the nine elements of U(1, 9) are all parallel
    real = Matroid._classes_after

    def planted(self, jmask, ext):
        labels, pattern = real(self, jmask, ext)
        if len(labels) >= 7 and pattern[-1] in pattern[:-1]:
            pattern = pattern[:-1] + (max(pattern) + 1,)
        return labels, pattern

    monkeypatch.setattr(Matroid, "_classes_after", planted)
    m = uniform(1, 9)
    family, ground = m.independent_set_masks(), m.ground
    checks = certify_clc_matroid(m).quadratic_checks()
    flagged = [c.alpha for c in checks if not helpers.quadratic_check_agrees(c, family, ground)]
    assert flagged == [(7,) + (0,) * 9]
    monkeypatch.undo()
    assert all(helpers.quadratic_check_agrees(c, family, ground) for c in checks)


def test_matroid_certificate_lengths_build_no_checks(monkeypatch):
    built = []
    real = logconcavity.CertificateCheck
    monkeypatch.setattr(
        logconcavity, "CertificateCheck", lambda *a, **kw: built.append(1) or real(*a, **kw)
    )
    passes = []
    real_pass = Matroid._classes_after
    real_walk = logconcavity._matroid_walk
    monkeypatch.setattr(
        Matroid, "_classes_after", lambda *a, **kw: passes.append(1) or real_pass(*a, **kw)
    )
    m = uniform(6, 12)
    family = [j for j in m.independent_sets() if len(j) <= 10]

    # the certificate, its lengths and its JSON without checks need no walk
    # over the family: no z-part is formatted and nothing is sorted
    def no_walk(m):
        raise AssertionError("walked the family")

    monkeypatch.setattr(logconcavity, "_matroid_walk", no_walk)
    assert mason_report(m).certificate.accepted
    cert = certify_clc_matroid(m)
    assert len(cert.checks) == sum(12 - len(j) for j in family)
    assert len(cert.quadratic_checks()) == len(family)
    assert cert.to_json()["num_checks"] == len(cert.checks)
    monkeypatch.setattr(logconcavity, "_matroid_walk", real_walk)
    assert "".join(cert._checks_json())
    assert built == [] and passes == []
    # the quadratic checks are built without the indecomposable ones, with
    # one class pass each
    assert len(list(cert.quadratic_checks())) == len(built) == len(passes) == len(family)
    built.clear()
    # iterating builds the checks afresh; indexing builds them once and
    # later iterations reuse them
    first = list(cert.checks)
    assert first == list(cert.checks)
    assert len(built) == 2 * len(first)
    assert cert.checks[0] is cert.checks[0]
    assert cert.checks[-1] == first[-1]
    assert cert.checks == tuple(first) and list(cert.checks)[5] is cert.checks[5]
    assert len(built) == 3 * len(first)


def test_matroid_certificate_uniform_2_3():
    cert = certify_clc_matroid(uniform(2, 3))
    assert cert.accepted
    alphas = sorted(c.alpha for c in cert.quadratic_checks())
    assert alphas == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


def test_matroid_certificate_matches_generic_certifier():
    for m in (uniform(1, 2), uniform(2, 3), helpers.k3(), helpers.parallel_pair_plus_free()):
        direct = certify_clc_matroid(m)
        generic = certify_clc_quadratic_criterion(independence_polynomial(m))
        assert direct.accepted and generic.accepted
        assert direct.nvars == generic.nvars
        assert direct.degree == generic.degree
        assert sorted(c.alpha for c in direct.quadratic_checks()) == sorted(
            c.alpha for c in generic.quadratic_checks()
        )


def test_matroid_certificate_contraction_structure():
    # contracting edge 1 of the complete graph on four vertices leaves
    # two parallel pairs {2,4}, {3,5} and the far edge 6
    cert = certify_clc_matroid(helpers.k4())
    assert cert.accepted
    check = next(c for c in cert.quadratic_checks() if c.alpha == (3, 1, 0, 0, 0, 0, 0))
    assert check.witness_labels == (2, 3, 4, 5, 6)
    expected = [
        [-4, 1, -4, 1, 1],
        [1, -4, 1, -4, 1],
        [-4, 1, -4, 1, 1],
        [1, -4, 1, -4, 1],
        [1, 1, 1, 1, -4],
    ]
    assert rows_int(check.matrix) == expected


def test_matroid_certificate_all_loop_contractions():
    cert = certify_clc_matroid(uniform(1, 3))
    assert cert.accepted
    for check in cert.quadratic_checks():
        if check.alpha == (1, 0, 0, 0):
            assert rows_int(check.matrix) == [[-2, -2, -2]] * 3
        else:
            # contracting one element of a rank-1 matroid leaves loops only
            assert check.matrix is None
            assert check.result


def test_matroid_certificate_trivial_ground_sets():
    for m in (uniform(0, 1), uniform(1, 1)):
        cert = certify_clc_matroid(m)
        assert cert.accepted
        assert cert.checks == ()


def test_quadratic_slice_matches_class_matrix_up_to_scale():
    # the quadratic obtained by y-derivatives of the independence
    # polynomial, tested at the pure-y point, reproduces the class
    # matrix on the non-loop block, scaled by (n'-2)!^2 (n'-1)
    for m in (uniform(1, 2), uniform(2, 3), helpers.k3(), helpers.parallel_pair_plus_free()):
        n = m.n_elements
        g = independence_polynomial(m)
        checks = {c.alpha: c for c in certify_clc_matroid(m).quadratic_checks()}
        for jmask in range(1 << n):
            labels = tuple(i + 1 for i in range(n) if jmask >> i & 1)
            if len(labels) > n - 2 or not m.is_independent(labels):
                continue
            nprime = n - len(labels)
            alpha = [nprime - 2] + [0] * n
            for e in labels:
                alpha[e] = 1
            check = checks.pop(tuple(alpha))
            quad = g.derivative_multi(tuple(alpha))
            point = (1,) + (0,) * n
            full = log_concavity_test_matrix(quad, point)
            nonloops = check.witness_labels or ()
            for i in range(n + 1):
                if i == 0 or i not in nonloops:
                    assert all(full[i, j] == 0 for j in range(n + 1))
            if not nonloops:
                continue
            scale = Fraction(math.factorial(nprime - 2) ** 2 * (nprime - 1))
            assert full.restricted(nonloops) == check.matrix.scaled(scale)
        assert checks == {}


# -- spectral diagnostics --------------------------------------------------------


def test_spectral_report_triangle_bases():
    report = spectral_nd_report(bases_polynomial(helpers.k3()))
    expected = [-2 / 3, -1 / 3, -1 / 3]
    assert report.eigenvalues == pytest.approx(expected, abs=1e-9)
    assert report.max_eigenvalue == pytest.approx(-1 / 3, abs=1e-9)
    assert report.point == (1, 1, 1)


def test_spectral_report_product():
    report = spectral_nd_report(Z1Z2)
    assert report.eigenvalues == pytest.approx([-1.0, -1.0], abs=1e-12)


def test_spectral_report_rejects_zero_value():
    with pytest.raises(ZeroAtPoint):
        spectral_nd_report(Z1Z2, (1, 0))


def test_spectral_report_json():
    payload = spectral_nd_report(Z1Z2).to_json()
    assert payload["max_eigenvalue"] == pytest.approx(-1.0)
    assert payload["point"] == ["1", "1"]


def _reference_pair_matrix(f, a):
    """f(a) and f(a) Hess f(a) - grad f(a) grad f(a)^T by the oracle, which
    differentiates first and then evaluates in Fractions at the point
    itself, with no cleared denominators."""
    return oracle.evaluate(f.terms, a), SymmetricMatrix(oracle.log_hessian_numerator(f.terms, a))


def _random_rational_polynomial(rng, nvars, homogeneous):
    terms = {}
    degree = rng.randint(0, 5)
    for _ in range(rng.randint(1, 8)):
        exp = [0] * nvars
        for _ in range(degree if homogeneous else rng.randint(0, degree)):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
    return SparsePolynomial(nvars, terms)


def test_pair_matrix_with_cleared_denominators_matches_fraction_reference():
    rng = random.Random(5)
    for trial in range(600):
        nvars = rng.randint(1, 5)
        f = _random_rational_polynomial(rng, nvars, homogeneous=trial % 2 == 0)
        # zero coordinates, integral ones and non-integral ones
        a = tuple(
            Fraction(rng.choice((0, rng.randint(0, 9))), rng.choice((1, 1, 2, 5, 12)))
            for _ in range(nvars)
        )
        fa, pair = logconcavity._pair_matrix(f, a)
        ref_fa, ref_pair = _reference_pair_matrix(f, a)
        assert (fa, type(fa)) == (ref_fa, Fraction)
        assert pair == ref_pair
        assert pair.to_json_rows() == ref_pair.to_json_rows()


@pytest.mark.parametrize(
    "f",
    [
        P(2, {}),
        P(2, {(0, 0): Fraction(5, 3)}),
        P(2, {(1, 0): Fraction(1, 2), (0, 0): 1}),
        P(3, {(2, 0, 1): Fraction(3, 4), (0, 1, 0): 2, (0, 0, 0): Fraction(-1, 6)}),
    ],
    ids=["zero", "constant", "affine", "mixed-degree"],
)
def test_pair_matrix_of_low_degree_and_mixed_degree_polynomials(f):
    a = tuple(Fraction(i, 3) for i in range(f.nvars))
    assert logconcavity._pair_matrix(f, a) == _reference_pair_matrix(f, a)


def _assert_same_spectral_report(report, generic):
    assert report.point == generic.point
    assert (report.value, type(report.value)) == (generic.value, type(generic.value))
    assert report.pair_matrix == generic.pair_matrix
    assert report.eigenvalues == generic.eigenvalues


SPECTRAL_MATROIDS = helpers.zoo() + [
    helpers.sparse_contraction(),
    # loops 1 and 5, parallel classes {2, 3} and {4, 6}
    graphic(4, [(1, 1), (1, 2), (1, 2), (2, 3), (3, 3), (2, 3), (3, 4)]),
    uniform(0, 0),
    uniform(0, 1),
    uniform(1, 1),
]


@pytest.mark.parametrize("m", SPECTRAL_MATROIDS, ids=repr)
def test_matroid_spectral_report_equals_polynomial_route(m):
    g = independence_polynomial(m)
    _assert_same_spectral_report(spectral_nd_report(m), spectral_nd_report(g))
    point = tuple(Fraction(i + 1, 2) for i in range(g.nvars))
    _assert_same_spectral_report(spectral_nd_report(m, point), spectral_nd_report(g, point))


def test_matroid_spectral_report_equals_polynomial_route_on_corpus():
    for _, m in corpus_instances(CorpusConfig(seed=1)):
        report = spectral_nd_report(m)
        _assert_same_spectral_report(report, spectral_nd_report(independence_polynomial(m)))


def test_corpus_analysis_builds_no_generating_polynomial(monkeypatch):
    calls = []
    original = independence_polynomial

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "matroidlc" and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    config = CorpusConfig(
        graphic_max_vertices=4, uniform_max_n=6, linear_count=20, explicit_count=20
    )
    instances = corpus_instances(config)
    for iid, m in instances:
        analyze_instance(iid, m, config)
    assert calls == []
    # the counter does see the polynomial route
    m = instances[-1][1]
    spectral_nd_report(m, (1,) * (m.ambient + 1))
    assert len(calls) == 1


def test_uniform_pair_counts_match_the_family_route():
    # the binomial sums of U(r, n), unlisted and listed, against the bit
    # lanes over its family held by an explicit copy
    for n in range(13):
        for r in range(n + 1):
            closed = uniform(r, n)
            counts, report = closed._pair_counts(), spectral_nd_report(closed)
            assert closed._family_cache is None, (r, n)
            listed = uniform(r, n)
            listed.independent_set_masks()
            explicit = from_independence_family(n, listed.independent_sets())
            for m in (listed, explicit):
                assert m._pair_counts() == counts, (r, n, m.kind)
                _assert_same_spectral_report(report, spectral_nd_report(m))


def test_uniform_pair_counts_keep_the_enumeration_bound():
    with pytest.raises(EnumerationLimitExceeded):
        spectral_nd_report(uniform(2, 21))


def test_sweep_steps_through_no_uniform_instance(monkeypatch):
    # a step of U(r, n), or of a contraction of it, during the analysis
    # of an instance is logged under the instance id
    current, stepped = [], set()
    analyze, extend = corpus.analyze_instance, UniformMatroid._extend

    def analyzed(iid, m, config):
        current.append(iid)
        try:
            return analyze(iid, m, config)
        finally:
            current.pop()

    def step(self, state, e):
        stepped.update(current)
        return extend(self, state, e)

    monkeypatch.setattr(corpus, "analyze_instance", analyzed)
    monkeypatch.setattr(UniformMatroid, "_extend", step)
    config = CorpusConfig(linear_count=20, explicit_count=40)
    sweep = corpus.run_sweep(config)
    ids = [row["id"] for row in sweep["instances"]]
    assert sum(iid.startswith("uniform-") for iid in ids) == 91
    assert not [iid for iid in stepped if iid.startswith("uniform-")]
    # the log does see the steps of a contraction of U(r, n), which lists
    analyzed("uniform-contracted", uniform(3, 5).contract([1]), config)
    assert "uniform-contracted" in stepped


# -- trusted constructors ------------------------------------------------------------


def _typed_matrix(q):
    return type(q._rows), q.dim, [(type(row), [(x, type(x)) for x in row]) for row in q._rows]


def _typed_polynomial(f):
    items = [(type(e), e, tuple(map(type, e)), c, type(c)) for e, c in f._terms.items()]
    return type(f._terms), f.nvars, sorted(items, key=lambda t: t[1])


def test_trusted_constructors_match_validated_ones(monkeypatch):
    # every matrix and polynomial the package builds without re-checks, on
    # the corpus and on criterion 4's random polynomials, is built again
    # by the validated constructor and compared type by type
    built = {"matrix": 0, "polynomial": 0}
    sites = set()
    trusted_matrix = SymmetricMatrix._trusted.__func__
    trusted_polynomial = SparsePolynomial._trusted.__func__

    def matrix(cls, rows):
        q = trusted_matrix(cls, rows)
        assert _typed_matrix(q) == _typed_matrix(SymmetricMatrix(rows))
        built["matrix"] += 1
        sites.add(sys._getframe(1).f_code.co_name)
        return q

    def polynomial(cls, nvars, terms):
        f = trusted_polynomial(cls, nvars, terms)
        assert _typed_polynomial(f) == _typed_polynomial(SparsePolynomial(nvars, terms))
        built["polynomial"] += 1
        return f

    monkeypatch.setattr(SymmetricMatrix, "_trusted", classmethod(matrix))
    monkeypatch.setattr(SparsePolynomial, "_trusted", classmethod(polynomial))
    config = CorpusConfig()
    instances = corpus_instances(config)
    for iid, m in instances:
        analyze_instance(iid, m, config)
        independence_polynomial(m)
        bases_polynomial(m)
        # the first class matrix of the certificate, halved and reordered
        matrices = (c.matrix for c in certify_clc_matroid(m).quadratic_checks())
        q = next((q for q in matrices if q is not None), None)
        if q is not None:
            q.scaled(Fraction(1, 2)).restricted(range(q.dim - 1, -1, -1))
    # at least a pair matrix, f_M, g_M and p_M for each instance
    corpus_built = dict(built)
    assert corpus_built["matrix"] >= len(instances)
    assert corpus_built["polynomial"] >= 3 * len(instances)
    rng = random.Random("acceptance-conditions")
    for i in range(1000):
        nvars = rng.randint(2, 5)
        degree = rng.randint(2, 5)
        f = helpers.random_homogeneous_polynomial(rng, nvars, degree)
        a = helpers.random_positive_point(rng, nvars)
        log_concavity_condition_report(f, a, samples=3, seed=i)
        certify_clc_quadratic_criterion(f)
        spectral_nd_report(f, a)
        for j in range(nvars):
            f.derivative_multi([degree - 2 if k == j else 0 for k in range(nvars)])
    # at least the spectral pair matrix and two derivatives of each
    assert built["matrix"] >= corpus_built["matrix"] + 1000
    assert built["polynomial"] >= corpus_built["polynomial"] + 2000
    # every place in the package that builds a trusted matrix
    assert sites == {
        "_rank_one_update",
        "_hyperplane_nsd",
        "_element_matrix",
        "scaled",
        "restricted",
        "gurvits_minor_checks",
    }


# -- functional sampling -----------------------------------------------------------


def test_functional_sampling_holds_on_certified_polynomial():
    report = sample_functional_log_concavity(
        independence_polynomial(uniform(2, 3)), trials=60, seed=3
    )
    assert report.holds
    assert report.failures == ()
    assert report.worst_margin is not None
    assert report.worst_margin >= -report.rel_tol


def test_functional_sampling_flags_violations():
    report = sample_functional_log_concavity(SOS, trials=200, seed=0)
    assert not report.holds
    assert report.failures


def test_functional_sampling_requires_nonnegative_coefficients():
    with pytest.raises(NegativeCoefficient):
        sample_functional_log_concavity(P(2, {(1, 1): -1}))


def test_functional_sampling_is_deterministic():
    a = sample_functional_log_concavity(Z1Z2, trials=40, seed=9)
    b = sample_functional_log_concavity(Z1Z2, trials=40, seed=9)
    assert a.to_json() == b.to_json()


# -- randomized consistency ---------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_report_conditions_agree_on_random_inputs(seed):
    rng = random.Random(seed)
    nvars = rng.randint(2, 4)
    degree = rng.randint(2, 4)
    f = helpers.random_homogeneous_polynomial(rng, nvars, degree)
    a = helpers.random_positive_point(rng, nvars)
    report = log_concavity_condition_report(f, a, samples=3, seed=seed)
    assert report.agreement
    assert report.condition1 == log_concave_at(f, a)
