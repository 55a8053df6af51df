"""Log-concavity tests: pointwise matrices, condition reports, the
reduction-to-quadratics certifier, and its matroid specialization."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from matroidlc import (
    AllLoops,
    DegreeTooLow,
    NegativeCoefficient,
    NotAMatroid,
    NotHomogeneous,
    SparsePolynomial,
    SymmetricMatrix,
    ZeroAtPoint,
    bases_polynomial,
    certify_clc_matroid,
    certify_clc_quadratic_criterion,
    from_independence_family,
    independence_polynomial,
    is_indecomposable,
    is_negative_semidefinite,
    log_concave_at,
    log_concavity_condition_report,
    log_concavity_test_matrix,
    log_hessian_numerator,
    matroid_quadratic_matrix,
    sample_functional_log_concavity,
    spectral_nd_report,
    uniform,
    verify_certificate_failure,
)


def P(nvars, terms):
    return SparsePolynomial(nvars, terms)


def rows_int(matrix):
    return [[int(x) for x in row] for row in matrix.rows()]


Z1Z2 = P(2, {(1, 1): 1})
SOS = P(2, {(2, 0): 1, (0, 2): 1})
SQUARE = P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


# -- pointwise test matrices --------------------------------------------------


def test_product_is_log_concave_with_pinned_matrices():
    assert log_concave_at(Z1Z2, (1, 1))
    assert rows_int(log_hessian_numerator(Z1Z2, (1, 1))) == [[-1, 0], [0, -1]]
    assert rows_int(log_concavity_test_matrix(Z1Z2, (1, 1))) == [[-1, 1], [1, -1]]


def test_sum_of_squares_is_not_log_concave():
    assert not log_concave_at(SOS, (1, 1))
    assert rows_int(log_hessian_numerator(SOS, (1, 1))) == [[0, -4], [-4, 0]]
    assert rows_int(log_concavity_test_matrix(SOS, (1, 1))) == [[4, -4], [-4, 4]]


def test_perfect_square_is_log_concave():
    assert log_concave_at(SQUARE, (1, 1))
    assert rows_int(log_hessian_numerator(SQUARE, (1, 1))) == [[-8, -8], [-8, -8]]
    assert log_concavity_test_matrix(SQUARE, (1, 1)).is_zero()


def test_two_matrix_flavors_share_nsd_verdict():
    rng = random.Random(7)
    for _ in range(30):
        f = helpers.random_homogeneous_polynomial(rng, 3, 3)
        a = helpers.random_positive_point(rng, 3)
        lhs = is_negative_semidefinite(log_hessian_numerator(f, a)).is_nsd
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


# -- indecomposability --------------------------------------------------------


def test_connected_support_is_indecomposable():
    assert is_indecomposable(Z1Z2)
    assert is_indecomposable(independence_polynomial(uniform(1, 2)))


def test_variable_split_is_detected():
    res = is_indecomposable(SOS)
    assert not res
    assert res.partition == (frozenset({0}), frozenset({1}))


def test_inactive_variables_are_ignored():
    assert is_indecomposable(P(3, {(1, 1, 0): 1}))


def test_few_active_variables_are_trivially_indecomposable():
    assert is_indecomposable(P(3, {}))
    assert is_indecomposable(P(3, {(0, 4, 0): 2}))


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


def test_certificate_json_shape():
    cert = certify_clc_quadratic_criterion(independence_polynomial(uniform(1, 2)))
    payload = cert.to_json()
    assert payload["verdict"] == "accepted"
    assert payload["num_checks"] == 2
    assert payload["checks"][1]["kind"] == "quadratic-nsd"
    assert "checks" not in cert.to_json(include_checks=False)


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


def test_class_matrix_parallel_pair_plus_free_element():
    matrix = matroid_quadratic_matrix(helpers.parallel_pair_plus_free())
    assert rows_int(matrix) == [[-2, -2, 1], [-2, -2, 1], [1, 1, -2]]


def test_class_matrix_uniform_examples():
    assert rows_int(matroid_quadratic_matrix(uniform(1, 2))) == [[-1, -1], [-1, -1]]
    assert rows_int(matroid_quadratic_matrix(uniform(2, 2))) == [[-1, 1], [1, -1]]


def test_class_matrix_rejects_degenerate_inputs():
    with pytest.raises(AllLoops):
        matroid_quadratic_matrix(uniform(0, 2))
    with pytest.raises(DegreeTooLow):
        matroid_quadratic_matrix(helpers.single_loop())


def test_class_matrices_are_negative_semidefinite_on_zoo():
    for m in helpers.zoo():
        if m.n_elements < 2:
            continue
        try:
            matrix = matroid_quadratic_matrix(m)
        except AllLoops:
            continue
        assert is_negative_semidefinite(matrix).is_nsd


@pytest.mark.parametrize("m", helpers.zoo(), ids=lambda m: repr(m))
def test_class_matrix_factors_through_class_core(m):
    # n'B - (n'-1)11^T = P (J_c - n'I_c) P^T with P the element-by-class
    # incidence matrix, so the c x c core decides the verdict
    for j in m.independent_sets():
        contraction = m.contract(j)
        nprime = contraction.n_elements
        part = contraction.parallel_partition()
        if nprime < 2 or not part.classes:
            continue
        classes = part.classes
        c = len(classes)
        assert c <= nprime
        core = [[1 - nprime if a == b else 1 for b in range(c)] for a in range(c)]
        nonloops = sorted(e for cls in classes for e in cls)
        incidence = [[int(e in cls) for cls in classes] for e in nonloops]
        expected = [
            [
                sum(pa * core[a][b] * pb for a, pa in enumerate(pe) for b, pb in enumerate(pf))
                for pf in incidence
            ]
            for pe in incidence
        ]
        matrix = matroid_quadratic_matrix(contraction)
        assert rows_int(matrix) == expected
        assert (
            is_negative_semidefinite(matrix).is_nsd
            == is_negative_semidefinite(SymmetricMatrix(core)).is_nsd
        )


# -- matroid certifier ----------------------------------------------------------


def test_matroid_certificate_rejects_non_transitive_parallelism():
    m = from_independence_family(3, [[], [1], [2], [3], [1, 3]], validate=False)
    with pytest.raises(NotAMatroid):
        certify_clc_matroid(m)


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
        for jmask in range(1 << n):
            labels = tuple(i + 1 for i in range(n) if jmask >> i & 1)
            if len(labels) > n - 2 or not m.is_independent(labels):
                continue
            contraction = m.contract(labels)
            nprime = n - len(labels)
            alpha = [nprime - 2] + [0] * n
            for e in labels:
                alpha[e] = 1
            quad = g.derivative_multi(tuple(alpha))
            point = (1,) + (0,) * n
            full = log_concavity_test_matrix(quad, point)
            part = contraction.parallel_partition()
            nonloops = sorted(i for cls in part.classes for i in cls)
            for i in range(n + 1):
                if i == 0 or i not in nonloops:
                    assert all(full[i, j] == 0 for j in range(n + 1))
            if not nonloops:
                continue
            scale = Fraction(math.factorial(nprime - 2) ** 2 * (nprime - 1))
            restricted = full.restricted(tuple(nonloops))
            expected = matroid_quadratic_matrix(contraction).scaled(scale)
            assert restricted == expected


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
