"""Sparse polynomial arithmetic, calculus, and matroid polynomials."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    k3,
    parallel_pair_plus_free,
    polynomial_to_json,
    random_homogeneous_polynomial,
    random_positive_point,
    reference_values_at,
    single_loop,
    zoo,
)
from matroidlc import (
    DimensionMismatch,
    NotHomogeneous,
    SparsePolynomial,
    bases_polynomial,
    bivariate_restriction,
    format_polynomial,
    independence_polynomial,
    matroid_variable_names,
    polynomial_from_json,
    uniform,
)

ONE = Fraction(1)


def P(nvars, terms):
    return SparsePolynomial(nvars, terms)


# -- construction and invariants ------------------------------------------


def test_zero_coefficients_dropped():
    f = P(2, {(1, 0): 0, (0, 1): 2})
    assert f.terms == {(0, 1): 2}


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        P(1, {(-1,): 1})


def test_exponent_length_checked():
    with pytest.raises(DimensionMismatch):
        P(2, {(1,): 1})


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        P(1, {(1,): 0.5})


def test_zero_polynomial_conventions():
    z = SparsePolynomial.zero(3)
    assert z.is_zero()
    assert z.total_degree() == -1
    assert z.is_homogeneous()


def test_arithmetic_basics():
    x = SparsePolynomial.variable(2, 0)
    y = SparsePolynomial.variable(2, 1)
    f = (x + y) * (x + y) * (x + y)
    assert f.terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert (f - f).is_zero()
    assert (2 * x * y).coefficient((1, 1)) == 2
    with pytest.raises(DimensionMismatch):
        x * SparsePolynomial.variable(3, 0)


# -- matroid generating polynomials ------------------------------------------


def test_independence_polynomial_u12():
    g = independence_polynomial(uniform(1, 2))
    assert g.terms == {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1}
    assert g.is_homogeneous() and g.total_degree() == 2


def test_independence_polynomial_single_loop():
    g = independence_polynomial(single_loop())
    assert g.terms == {(1, 0): 1}


def test_independence_polynomial_u23():
    g = independence_polynomial(uniform(2, 3))
    assert len(g.terms) == 7
    assert g.is_homogeneous() and g.total_degree() == 3
    assert all(c == 1 for c in g.terms.values())
    assert g.coefficient((1, 1, 1, 0)) == 1
    assert g.coefficient((0, 1, 1, 1)) == 0


def test_independence_polynomial_of_contraction_keeps_ambient():
    m = uniform(2, 3)
    g = independence_polynomial(m.contract([1]))
    assert g.nvars == 4
    assert g.terms == {(2, 0, 0, 0): 1, (1, 0, 1, 0): 1, (1, 0, 0, 1): 1}


def test_bases_polynomial_examples():
    assert bases_polynomial(k3()).terms == {
        (1, 1, 0): 1,
        (1, 0, 1): 1,
        (0, 1, 1): 1,
    }
    assert bases_polynomial(uniform(1, 2)).terms == {(1, 0): 1, (0, 1): 1}
    rank0 = bases_polynomial(uniform(0, 2))
    assert rank0.terms == {(0, 0): 1}
    for m in zoo():
        p = bases_polynomial(m)
        assert p.is_homogeneous() and p.total_degree() == m.rank


def test_homogeneity_of_generating_polynomial():
    for m in zoo():
        g = independence_polynomial(m)
        assert g.is_homogeneous() and g.total_degree() == m.n_elements
        assert g.evaluate((ONE,) * g.nvars) == sum(m.count_independent_by_size())


# -- calculus ------------------------------------------------------------------


def test_partial_derivative_examples():
    y2z = P(2, {(2, 1): 1})
    assert y2z.partial_derivative(1).terms == {(2, 0): 1}
    g = independence_polynomial(uniform(1, 2))
    assert g.partial_derivative(1).terms == {(1, 0, 0): 1}
    assert P(2, {(2, 0): 1}).partial_derivative(1).is_zero()


def test_directional_derivative_examples():
    yz = P(2, {(1, 1): 1})
    assert yz.directional_derivative((1, 1)).terms == {(1, 0): 1, (0, 1): 1}
    assert yz.directional_derivative((0, 0)).is_zero()
    g = independence_polynomial(uniform(1, 2))
    assert g.directional_derivative((1, 1, 1)).terms == {
        (1, 0, 0): 4,
        (0, 1, 0): 1,
        (0, 0, 1): 1,
    }
    with pytest.raises(DimensionMismatch):
        yz.directional_derivative((1,))


def test_derivative_multi_contracts():
    m = parallel_pair_plus_free()
    g = independence_polynomial(m)
    d = g.derivative_multi((0, 0, 0, 1))
    assert d.terms == {(2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (1, 0, 1, 0): 1}
    assert d == independence_polynomial(m.contract([3]))


def test_derivative_multi_kills_squares_and_dependent_sets():
    g = independence_polynomial(parallel_pair_plus_free())
    assert g.derivative_multi((0, 2, 0, 0)).is_zero()
    assert g.derivative_multi((0, 1, 1, 0)).is_zero()


def test_derivative_multi_falling_factorials():
    f = P(1, {(4,): 1})
    assert f.derivative_multi((3,)).terms == {(1,): 24}


def test_derivatives_commute():
    rng = random.Random(5)
    for _ in range(20):
        f = random_homogeneous_polynomial(rng, 3, rng.randint(1, 4))
        for i in range(3):
            for j in range(3):
                lhs = f.partial_derivative(i).partial_derivative(j)
                assert lhs == f.partial_derivative(j).partial_derivative(i)


# -- evaluation, gradient, hessian --------------------------------------------


def test_evaluate_counts_monomials():
    assert independence_polynomial(uniform(2, 3)).evaluate((1, 1, 1, 1)) == 7


def test_hessian_example():
    f = P(2, {(2, 1): 1})
    h = f.hessian((ONE, ONE))
    assert h.rows() == ((Fraction(2), Fraction(2)), (Fraction(2), Fraction(0)))


def test_gradient_example():
    assert P(2, {(1, 1): 1}).gradient((ONE, ONE)) == (1, 1)


def test_evaluate_dimension_checked():
    with pytest.raises(DimensionMismatch):
        P(2, {(1, 1): 1}).evaluate((1,))


def _random_polynomial(rng, nv, low_degree=False):
    """Mixed-sign int and Fraction coefficients, exponents up to 3, or
    total degree 0 or 1 when ``low_degree``."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        if low_degree:
            k = rng.randint(0, nv)  # nv gives the constant term
            exp = tuple(int(i == k) for i in range(nv))
        else:
            exp = tuple(rng.randint(0, 3) for _ in range(nv))
        if rng.random() < 0.5:
            terms[exp] = rng.randint(-9, 9)
        else:
            terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return P(nv, terms)


def _reference_layout(f, a, order):
    """reference_values_at laid out as _values_at returns its values:
    the value, the gradient and the Hessian rows, up to ``order``."""
    ref = reference_values_at(f, a, order)
    n = f.nvars
    return [
        ref.get((), 0),
        [ref.get((i,), 0) for i in range(n)],
        [[ref.get((min(i, j), max(i, j)), 0) for j in range(n)] for i in range(n)],
    ][: order + 1]


def _entries(values):
    """(k, entry) for every entry of the order-k derivatives in a layout."""
    value, *derived = values
    out = [(0, value)]
    if derived:
        out += [(1, x) for x in derived[0]]
    if len(derived) > 1:
        out += [(2, x) for row in derived[1] for x in row]
    return out


def test_values_match_full_products_exactly():
    # at rational points every value is an int that its scale divides
    # back to the reference; at float points every scale is 1 and f itself
    # is multiplied in the same order, so it matches bit for bit
    rng = random.Random(23)
    for trial in range(300):
        nv = rng.randint(1, 6)
        # every third f has degree 0 or 1, below the orders asked for
        f = _random_polynomial(rng, nv, low_degree=trial % 3 == 0)
        coordinate = rng.choice([
            lambda: Fraction(rng.randint(0, 3)),
            lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            lambda: Fraction(rng.choice((0, 0, 3)), rng.choice((1, 2, 6))),
            lambda: rng.randint(-2, 3),
            lambda: rng.uniform(-2.0, 2.0),
        ])
        a = tuple(coordinate() for _ in range(nv))
        for order in (0, 1, 2):
            values, scales = f._values_at(a, order)
            got = _entries(values)
            expected = [x for _, x in _entries(_reference_layout(f, a, order))]
            assert len(values) == len(scales) == order + 1
            assert len(got) == len(expected)
            if isinstance(a[0], float):
                assert scales == (1,) * (order + 1)
                assert (got[0][1], type(got[0][1])) == (expected[0], type(expected[0]))
                assert all(x == pytest.approx(y) for (_, x), y in zip(got, expected))
            else:
                assert all(type(x) is int for _, x in got)
                assert [Fraction(x, scales[k]) for k, x in got] == expected


def test_values_match_symbolic_route():
    rng = random.Random(5)
    for _ in range(60):
        nv = rng.randint(1, 4)
        f = _random_polynomial(rng, nv)
        a = tuple(
            rng.choice([Fraction(0), Fraction(rng.randint(1, 7), rng.randint(1, 4)), 2])
            for _ in range(nv)
        )
        value = f.evaluate(a)
        assert isinstance(value, Fraction)
        assert value == sum(
            (c * prod(Fraction(x) ** e for x, e in zip(a, exp)) for exp, c in f.terms.items()),
            Fraction(0),
        )
        grad = f.gradient(a)
        hess = f.hessian(a)
        for i in range(nv):
            fi = f.partial_derivative(i)
            assert isinstance(grad[i], Fraction)
            assert grad[i] == fi.evaluate(a)
            for j in range(nv):
                assert hess[i, j] == fi.partial_derivative(j).evaluate(a)


def test_evaluate_at_float_point_returns_float():
    f = P(2, {(2, 1): 3, (0, 1): Fraction(1, 2)})
    value = f.evaluate((0.5, 2.0))
    assert isinstance(value, float)
    assert value == 2.5


def test_integral_coefficients_stored_as_int():
    f = P(2, {(1, 1): Fraction(4, 2), (2, 0): True, (0, 2): Fraction(1, 3)})
    c = f.terms[(1, 1)]
    assert type(c) is int and c == 2
    assert c == Fraction(2) and hash(c) == hash(Fraction(2))
    assert type(f.terms[(2, 0)]) is int and f.terms[(2, 0)] == 1
    assert f.terms[(0, 2)] == Fraction(1, 3)
    assert polynomial_to_json(f) == {
        "nvars": 2,
        "terms": [
            {"exp": [0, 2], "coeff": "1/3"},
            {"exp": [1, 1], "coeff": "2"},
            {"exp": [2, 0], "coeff": "1"},
        ],
    }


def test_euler_identity_symbolically():
    for m in zoo():
        g = independence_polynomial(m)
        assert g.is_homogeneous()
        d = g.total_degree()
        total = SparsePolynomial.zero(g.nvars)
        for i in range(g.nvars):
            total = total + SparsePolynomial.variable(g.nvars, i) * g.partial_derivative(i)
        assert total == d * g


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_euler_identity_random(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 4)
    d = rng.randint(1, 5)
    f = random_homogeneous_polynomial(rng, nv, d)
    total = SparsePolynomial.zero(nv)
    for i in range(nv):
        total = total + SparsePolynomial.variable(nv, i) * f.partial_derivative(i)
    assert total == d * f


def test_gradient_hessian_match_finite_differences():
    rng = random.Random(11)
    for _ in range(10):
        nv = rng.randint(1, 4)
        f = random_homogeneous_polynomial(rng, nv, rng.randint(2, 5))
        a = random_positive_point(rng, nv)
        h = Fraction(1, 10_000)
        grad = f.gradient(a)
        hess = f.hessian(a)
        for i in range(nv):
            up = list(a)
            down = list(a)
            up[i] += h
            down[i] -= h
            central = (f.evaluate(tuple(up)) - f.evaluate(tuple(down))) / (2 * h)
            assert abs(float(central - grad[i])) <= 1e-6 * max(1.0, abs(float(grad[i])))
            for j in range(nv):
                upj = list(up)
                downj = list(down)
                upj[j] += h
                downj[j] -= h
                upi_downj = list(up)
                upi_downj[j] -= h
                downi_upj = list(down)
                downi_upj[j] += h
                second = (
                    f.evaluate(tuple(upj))
                    - f.evaluate(tuple(upi_downj))
                    - f.evaluate(tuple(downi_upj))
                    + f.evaluate(tuple(downj))
                ) / (4 * h * h)
                assert abs(float(second - hess[i, j])) <= 1e-6 * max(
                    1.0, abs(float(hess[i, j]))
                )


# -- bivariate restriction ----------------------------------------------------


def test_bivariate_examples():
    assert bivariate_restriction(uniform(2, 3)).terms == {
        (3, 0): 1,
        (2, 1): 3,
        (1, 2): 3,
    }
    assert bivariate_restriction(single_loop()).terms == {(1, 0): 1}
    assert bivariate_restriction(parallel_pair_plus_free()).terms == {
        (3, 0): 1,
        (2, 1): 3,
        (1, 2): 2,
    }


def test_bivariate_matches_counts_and_substitution():
    for m in zoo():
        f = bivariate_restriction(m)
        counts = m.count_independent_by_size()
        n = m.n_elements
        for k, c in enumerate(counts):
            assert f.coefficient((n - k, k)) == c
        # g_M with every z_i set to z: (a, z_1..z_n) -> (a, z_1 + ... + z_n)
        merged = {}
        for (a, *z), c in independence_polynomial(m).terms.items():
            merged[a, sum(z)] = merged.get((a, sum(z)), 0) + c
        assert SparsePolynomial(2, merged) == f


# -- serialization --------------------------------------------------------------


def test_json_roundtrip_with_fractions():
    f = P(2, {(2, 0): Fraction(3, 7), (0, 2): -2})
    obj = polynomial_to_json(f)
    assert obj["terms"][0]["coeff"] in {"3/7", "-2"}
    assert polynomial_from_json(obj) == f


def test_json_canonical_order_is_stable():
    f = P(2, {(0, 2): 1, (2, 0): 1, (1, 1): 1})
    exps = [tuple(t["exp"]) for t in polynomial_to_json(f)["terms"]]
    assert exps == [(0, 2), (1, 1), (2, 0)]


def test_format_polynomial_readable():
    g = independence_polynomial(uniform(1, 2))
    text = format_polynomial(g, matroid_variable_names(2))
    assert text == "y^2 + y*z1 + y*z2"
