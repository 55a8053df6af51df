"""Exact symmetric matrices and the negative semidefiniteness test."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import reference_is_negative_semidefinite
from matroidlc import (
    DimensionMismatch,
    SymmetricMatrix,
    certify_clc_quadratic_criterion,
    is_negative_semidefinite,
)
from matroidlc.linalg import NsdResult, float_eigenvalues


def S(rows):
    return SymmetricMatrix([[Fraction(x) for x in row] for row in rows])


# -- construction ---------------------------------------------------------


def test_requires_symmetry():
    with pytest.raises(ValueError):
        S([[0, 1], [2, 0]])


def test_requires_square():
    with pytest.raises(DimensionMismatch):
        SymmetricMatrix([[Fraction(0), Fraction(1)]])


def test_indexing_and_rows():
    q = S([[1, 2], [2, 3]])
    assert q[0, 1] == 2
    assert q.rows() == ((1, 2), (2, 3))
    assert q.restricted((1,)).rows() == ((3,),)


def test_matvec_and_quad():
    q = S([[2, 1], [1, 0]])
    assert q.matvec((1, 1)) == (3, 1)
    assert q.quad((1, 1)) == 4
    with pytest.raises(DimensionMismatch):
        q.matvec((1,))


def test_scaled():
    assert S([[1, 0], [0, 1]]).scaled(Fraction(3)).rows() == ((3, 0), (0, 3))


# -- NSD verdicts on pinned examples ------------------------------------------


def test_zero_matrix_is_nsd():
    assert is_negative_semidefinite(S([[0, 0], [0, 0]])).is_nsd


def test_negative_diagonal_is_nsd():
    assert is_negative_semidefinite(S([[-1, 0], [0, -2]])).is_nsd


def test_indefinite_diagonal_witness():
    res = is_negative_semidefinite(S([[1, 0], [0, -1]]))
    assert not res.is_nsd
    assert res.witness == (1, 0)


def test_rank_one_negative_is_nsd():
    assert is_negative_semidefinite(S([[-1, 1], [1, -1]])).is_nsd


def test_positive_rank_one_rejected_with_witness():
    q = S([[4, -4], [-4, 4]])
    res = is_negative_semidefinite(q)
    assert not res.is_nsd
    assert q.quad(res.witness) > 0


def test_zero_pivot_with_coupling_rejected():
    q = S([[0, 1], [1, 0]])
    res = is_negative_semidefinite(q)
    assert not res.is_nsd
    assert q.quad(res.witness) > 0


def test_positive_semidefinite_but_singular_rejected():
    q = S([[1, 2, 0], [2, 4, 0], [0, 0, 0]])  # v v^T for v = (1, 2, 0)
    res = is_negative_semidefinite(q)
    assert not res.is_nsd
    assert q.quad(res.witness) > 0


def test_singular_nsd_accepted():
    q = S([[-9, 3, -6], [3, -1, 2], [-6, 2, -4]])  # -v v^T for v = (3, -1, 2)
    assert is_negative_semidefinite(q).is_nsd


def test_empty_matrix():
    q = SymmetricMatrix([])
    assert is_negative_semidefinite(q).is_nsd
    assert float_eigenvalues(q) == []


def test_nsd_result_truthiness():
    assert NsdResult(True, None)
    assert not NsdResult(False, (1,))


# -- float diagnostics ---------------------------------------------------------


def test_float_eigenvalues_ascending():
    eigs = float_eigenvalues(S([[-1, 0], [0, 2]]))
    assert eigs == sorted(eigs)
    assert eigs[0] == pytest.approx(-1.0)
    assert eigs[1] == pytest.approx(2.0)


def test_scaled_float_array_rounds_like_fraction():
    # each entry is rounded once, from the exact quotient x / scale
    rng = random.Random(7)
    for _ in range(200):
        big = 10 ** rng.randint(0, 40)
        x = Fraction(rng.randint(-big, big), rng.randint(1, big))
        scale = Fraction(rng.randint(1, big), rng.randint(1, big)) ** 2
        got = S([[x]]).to_float_array(scale)[0][0]
        assert got == float(x / scale)
        assert float_eigenvalues(S([[x]]), scale) == [float(x / scale)]


# -- randomized agreement with floating classification ----------------------


def _random_symmetric(rng, dim, make_nsd):
    entries = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)] for _ in range(dim)]
    if make_nsd:
        rows = [
            [
                sum(-entries[i][k] * entries[j][k] for k in range(dim))
                for j in range(dim)
            ]
            for i in range(dim)
        ]
    else:
        rows = [
            [
                (entries[i][j] + entries[j][i]) / 2
                for j in range(dim)
            ]
            for i in range(dim)
        ]
    return SymmetricMatrix(rows)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_exact_verdict_matches_float_classification(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 6)
    q = _random_symmetric(rng, dim, make_nsd=rng.random() < 0.5)
    res = is_negative_semidefinite(q)
    assert res == reference_is_negative_semidefinite(q)
    eigs = np.linalg.eigvalsh(np.array(q.to_float_array(), dtype=float))
    top = float(eigs.max())
    if abs(top) > 1e-8:
        assert res.is_nsd == (top < 0)
    if res.is_nsd:
        assert all(q[i, i] <= 0 for i in range(dim))
    else:
        assert q.quad(res.witness) > 0


def test_verdicts_and_witnesses_match_eager_congruence_on_poly_quadratics():
    # the quadratic test matrices the --poly certifier meets, failing or not
    rng = random.Random(3)
    failing = 0
    for _ in range(300):
        f = helpers.random_homogeneous_polynomial(rng, rng.randint(2, 6), rng.randint(2, 5), 12)
        for check in certify_clc_quadratic_criterion(f).checks:
            if check.kind == "quadratic-nsd":
                expected = reference_is_negative_semidefinite(check.matrix)
                assert is_negative_semidefinite(check.matrix) == expected
                assert (check.result, check.witness_vector) == (expected.is_nsd, expected.witness)
                failing += not check.result
    assert failing >= 50


def test_witness_is_primitive_integer_vector():
    q = S([[Fraction(1, 3), 0], [0, Fraction(1, 7)]])
    res = is_negative_semidefinite(q)
    assert not res.is_nsd
    assert all(isinstance(x, int) or x.denominator == 1 for x in res.witness)
    assert q.quad(res.witness) > 0
