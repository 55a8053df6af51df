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


def test_quad():
    q = S([[2, 1], [1, 0]])
    assert q.quad((1, 1)) == 4
    assert q.quad((1, 0)) == 2 and q.quad((0, 1)) == 0
    with pytest.raises(DimensionMismatch):
        q.quad((1,))
    with pytest.raises(TypeError):
        q.quad((1.0, 1))


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


# -- fraction-free elimination: scaling and the zero-pivot branch -------------


SCALES = (7, Fraction(1, 3), 10**30)

PINNED_ELIMINATIONS = [
    # zero pivot with coupling at the first step
    [[0, 1], [1, 0]],
    # zero pivot with coupling after one pivot (-Q = [[1, 1, 0], [1, 1, 1], [0, 1, 0]])
    [[-1, -1, 0], [-1, -1, -1], [0, -1, 0]],
    # zero pivot with coupling after two pivots, b = 5 in the trailing block
    [[-2, 0, 0, 0], [0, -3, -3, 0], [0, -3, -3, -1], [0, 0, -1, -5]],
    # the same with non-integral entries
    [
        [Fraction(-2, 3), 0, 0],
        [0, Fraction(-1, 5), Fraction(-1, 5)],
        [0, Fraction(-1, 5), Fraction(-6, 5)],
    ],
    # a zero row skipped first, then a pivot, then a negative pivot
    [[0, 0, 0], [0, -1, -1], [0, -1, 0]],
    # a row that vanishes after one pivot is skipped; the next pivot divides by the first
    [[-2, -2, -1, 0], [-2, -2, -1, 0], [-1, -1, -3, -1], [0, 0, -1, Fraction(-1, 3)]],
    [[-2, -2, -1, 0], [-2, -2, -1, 0], [-1, -1, -3, -1], [0, 0, -1, Fraction(-2, 5)]],
    [[-2, -2, -1, 0], [-2, -2, -1, 0], [-1, -1, -3, -1], [0, 0, -1, Fraction(-1, 2)]],
    # two zero rows skipped between pivots
    [[-1, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, Fraction(-1, 2)]],
]


def _assert_matches_reference_under_scaling(q):
    res = is_negative_semidefinite(q)
    assert res == reference_is_negative_semidefinite(q)
    for c in SCALES:
        scaled = q.scaled(c)
        got = is_negative_semidefinite(scaled)
        # the verdict is invariant, and the witness is the one the
        # Fraction elimination finds for the scaled matrix
        assert got == reference_is_negative_semidefinite(scaled)
        assert got.is_nsd == res.is_nsd
        if not got.is_nsd:
            assert q.quad(got.witness) > 0


@pytest.mark.parametrize("rows", PINNED_ELIMINATIONS)
def test_pinned_eliminations_match_reference_under_scaling(rows):
    _assert_matches_reference_under_scaling(S(rows))


def test_zero_pivot_witness_after_one_pivot():
    # after the pivot, P_t = [[0, 1], [1, 0]], so w_1 = -(0 + 1)/2 and
    # w_0 = -w_1: v = (1, -1, 2) up to scale
    res = is_negative_semidefinite(S(PINNED_ELIMINATIONS[1]))
    assert res == NsdResult(False, (1, -1, 2))


def _random_singular(rng, dim):
    """A sum of few signed rank-one forms with some zero rows, so that
    pivots vanish often, with and without coupling."""
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for _ in range(rng.randint(1, 3)):
        v = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(dim)]
        sign = -1 if rng.random() < 0.8 else 1
        for i in range(dim):
            for j in range(dim):
                rows[i][j] += sign * v[i] * v[j]
    for z in rng.sample(range(dim), rng.randint(0, dim // 2)):
        for i in range(dim):
            rows[i][z] = rows[z][i] = Fraction(0)
    if rng.random() < 0.3:
        k, j = rng.sample(range(dim), 2)
        rows[k][k] = Fraction(0)
        rows[k][j] = rows[j][k] = Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
    return SymmetricMatrix(rows)


def test_random_singular_eliminations_match_reference_under_scaling():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(400):
        q = _random_singular(rng, rng.randint(2, 6))
        _assert_matches_reference_under_scaling(q)
        verdicts.add(is_negative_semidefinite(q).is_nsd)
    assert verdicts == {True, False}


def test_integral_entries_are_stored_as_int():
    q = S([[Fraction(4, 2), Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert [type(x) for x in q.rows()[0]] == [int, Fraction]
    assert q == SymmetricMatrix([[2, Fraction(1, 2)], [Fraction(1, 2), 0]])
    as_fractions = [[Fraction(2), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]
    assert hash(q) == hash(SymmetricMatrix(as_fractions))
    assert q.to_json_rows() == [["2", "1/2"], ["1/2", "0"]]
    assert q.quad((2, 2)) == 12
    # Q (1/2, 1) = (3/2, 1/4), so the form is 1/2 * 3/2 + 1 * 1/4
    assert q.quad((Fraction(1, 2), 1)) == 1
