"""Reference computations and small example matroids for tests.

Families, axiom checks, counts by size and pair matrices come from
``bench/oracle.py`` (imported as ``oracle``; pytest puts ``bench`` on the
path), which imports nothing from the program.  ``oracle_family`` reads
a matroid's JSON description and asks the oracle of its kind.

What stays here is also independent of the library internals: ranks
come from exhaustive enumeration, jets are evaluated with every factor
multiplied for every alpha, and the NSD test tracks its congruence at
every pivot.  The reference certifier walks the derivative polynomials
themselves, where the library reads every check off the coefficients.
The class matrix of each matroid quadratic is read off the family by
membership tests alone, where the library runs its class pass over
one-step extension masks.
"""

import random
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import perm

import oracle
from matroidlc import (
    ConsistencyError,
    DegreeTooLow,
    NegativeCoefficient,
    NotHomogeneous,
    SparsePolynomial,
    from_independence_family,
    graphic,
    is_negative_semidefinite,
    linear,
    log_concavity_test_matrix,
    uniform,
)
from matroidlc.linalg import NsdResult, _cleared, _primitive
from matroidlc.logconcavity import CertificateCheck, CLCCertificate


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def brute_rank(family, subset):
    subset = frozenset(subset)
    return max(len(s) for s in family if frozenset(s) <= subset)


def mask_of(labels):
    """The mask of the set of 1-based labels: a repeated label is one bit."""
    return sum(1 << (e - 1) for e in set(labels))


def oracle_family(m):
    """The independent sets of a freshly built matroid, by the oracle of
    its kind, read from its JSON description without enumerating it."""
    obj = m.to_json()
    if obj["kind"] == "uniform":
        return {frozenset(s) for s in powerset(m.ground) if len(s) <= obj["r"]}
    if obj["kind"] == "explicit":
        return {frozenset(s) for s in obj["sets"]}
    if obj["kind"] == "graphic":
        masks = oracle.forest_masks(obj["vertices"], [tuple(e) for e in obj["edges"]])
    else:
        masks = oracle.linear_masks(obj["columns"], obj["modulus"])
    return {frozenset(i + 1 for i in range(x.bit_length()) if x >> i & 1) for x in masks}


# -- example matroids ------------------------------------------------------


def parallel_pair_plus_free():
    """Elements 1,2 parallel, element 3 free; counts (1, 3, 2, 0)."""
    return from_independence_family(3, [[], [1], [2], [3], [1, 3], [2, 3]])


def k3():
    return graphic(3, [(1, 2), (1, 3), (2, 3)])


def k4():
    return graphic(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def single_loop():
    return from_independence_family(1, [[]])


def signed_rational():
    """Rank 3 over Q with signed, fractional entries: column 3 is -3/2
    times column 1 and column 4 their sum with column 2, and the
    elimination meets negative and non-unit pivots."""
    c1 = (Fraction(-2, 3), Fraction(1, 2), 1)
    c2 = (3, Fraction(-3, 4), 0)
    c3 = tuple(Fraction(-3, 2) * x for x in c1)
    c4 = tuple(x + y for x, y in zip(c1, c2))
    return linear([c1, c2, c3, c4, (0, Fraction(5, 2), Fraction(-1, 3)), (Fraction(1, 2), 0, -5)], 0)


def sparse_contraction():
    """K4 with edge 3 contracted: labels 1, 2, 4, 5, 6 of ambient 6, with
    parallel classes {1, 5}, {2, 6} and {4}."""
    return k4().contract([3])


def zoo():
    """A spread of small matroids across all four constructions."""
    return [
        uniform(0, 2),
        uniform(1, 2),
        uniform(2, 2),
        uniform(2, 3),
        uniform(3, 5),
        single_loop(),
        parallel_pair_plus_free(),
        k3(),
        k4(),
        graphic(3, [(1, 2), (1, 2), (2, 3), (3, 3)]),
        linear([[1, 0], [0, 1], [1, 1]], 2),
        linear([[0, 0], [1, 2], [2, 4], [1, 0]], 5),
        linear([[Fraction(1, 2), 0], [1, 1], [0, 3]], 0),
        signed_rational(),
    ]


# -- random generators (seeded, reused by acceptance tests) -------------------


def random_homogeneous_polynomial(rng: random.Random, nvars, degree, max_terms=8):
    """Random homogeneous polynomial with positive rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * nvars
        for _ in range(degree):
            exp[rng.randrange(nvars)] += 1
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return SparsePolynomial(nvars, terms)


def random_positive_point(rng: random.Random, nvars):
    return tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(nvars))


# -- reference jet evaluation (every factor multiplied for every alpha) -------


def reference_values_at(f, point, order):
    """{alpha: d^alpha f(point)} for sorted alpha of length <= order, each
    term's contribution the product of c and all its jet factors in
    variable order; the library shares prefix and suffix products."""
    jet = []
    for x, m in zip(point, map(max, zip(*f.terms))):
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        jet.append([[perm(e, k) * x ** max(e - k, 0) for e in range(m + 1)]
                    for k in range(order + 1)])
    out = {}
    for exp, c in f.terms.items():
        idx = [i for i, e in enumerate(exp) if e]
        for k in range(order + 1):
            for alpha in combinations_with_replacement(idx, k):
                v = c
                for i in idx:
                    v = v * jet[i][alpha.count(i)][exp[i]]
                out[alpha] = out.get(alpha, 0) + v
    return out


# -- reference NSD test (congruence tracked at every pivot) -------------------


def reference_is_negative_semidefinite(q):
    """Exact NSD test on P = -Q that updates the congruence E with
    P_t = E P E^T at every pivot and lifts a failure vector w for P_t to
    v = E^T w; the library records the multipliers instead."""
    d = q.dim
    p = [[-Fraction(x) for x in row] for row in q.rows()]
    e = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]

    def lift(w):
        v = [Fraction(0)] * d
        for i, wi in enumerate(w):
            if wi:
                row = e[i]
                for m in range(d):
                    v[m] += wi * row[m]
        witness = _primitive(_cleared(v)[0])
        if q.quad(witness) <= 0:
            raise ConsistencyError("NSD witness failed its own re-check")
        return witness

    for k in range(d):
        pivot = p[k][k]
        if pivot < 0:
            w = [Fraction(0)] * d
            w[k] = Fraction(1)
            return NsdResult(False, lift(w))
        if pivot == 0:
            bad = next((j for j in range(k + 1, d) if p[k][j] != 0), None)
            if bad is None:
                continue
            c = p[k][bad]
            b = p[bad][bad]
            w = [Fraction(0)] * d
            w[k] = -(b + 1) / (2 * c)
            w[bad] = Fraction(1)
            return NsdResult(False, lift(w))
        lam = [p[i][k] / pivot for i in range(k + 1, d)]
        for off, li in enumerate(lam):
            if li == 0:
                continue
            i = k + 1 + off
            prow, krow = p[i], p[k]
            for j in range(k, d):
                prow[j] -= li * krow[j]
            erow, ekrow = e[i], e[k]
            for j in range(d):
                erow[j] -= li * ekrow[j]
        for j in range(k + 1, d):
            p[k][j] = Fraction(0)
    return NsdResult(True, None)


# -- reference certifier (derivative polynomials, level by level) -------------


def _canonical_alpha_key(check: CertificateCheck):
    return (sum(check.alpha), check.alpha, check.kind)


def _quadratic_log_concave(q: SparsePolynomial):
    """Point-free log-concavity of a nonzero quadratic with nonnegative
    coefficients; the constant Hessian is tested at the all-ones point."""
    a = (Fraction(1),) * q.nvars
    matrix = log_concavity_test_matrix(q, a)
    res = is_negative_semidefinite(matrix)
    return res, matrix


def variable_split(f: SparsePolynomial):
    """None when the variables of f are connected through shared terms,
    else the component of the smallest variable and the other variables;
    components are grown from that variable one whole term at a time."""
    supports = [frozenset(i for i, e in enumerate(exp) if e) for exp in f.terms]
    variables = frozenset().union(*supports)
    reached = {min(variables)} if variables else set()
    while any(s & reached and not s <= reached for s in supports):
        reached.update(*(s for s in supports if s & reached))
    if reached == variables:
        return None
    return frozenset(reached), variables - reached


def reference_certificate(f: SparsePolynomial) -> CLCCertificate:
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
            split = variable_split(fa)
            checks.append(
                CertificateCheck(alpha, "indecomposable", split is None, witness_partition=split)
            )
            if split is not None:
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


# -- matroid quadratics from the family alone -------------------------------------


def family_quadratic(family, ground, jmask):
    """Expected (witness_labels, matrix rows) of the quadratic check of
    M/J, read off the mask family F of M alone; None when M/J has loops
    only.

    e is a non-loop of M/J exactly when J + e is in F, and non-loops
    a != b are parallel exactly when J + a + b is not.  The matrix
    n'B - (n'-1)11^T has 1 - n' inside a class and on the diagonal, and
    1 across classes, with n' the number of elements of M/J.
    """
    nprime = len(ground) - jmask.bit_count()
    free = [(e, jmask | 1 << (e - 1)) for e in ground if not jmask >> (e - 1) & 1]
    free = [(e, s) for e, s in free if s in family]
    if not free:
        return None
    rows = tuple(
        tuple(1 - nprime if a == b or sa | sb not in family else 1 for b, sb in free)
        for a, sa in free
    )
    return tuple(e for e, _ in free), rows


def quadratic_check_agrees(check, family, ground):
    """Whether a quadratic check of certify_clc_matroid says what the
    family F says: it passes, its y-exponent is n' - 2, and its labels
    and matrix are those of family_quadratic (none when M/J is all
    loops)."""
    jmask = sum(1 << i for i, x in enumerate(check.alpha[1:]) if x)
    if not check.result or check.alpha[0] != len(ground) - jmask.bit_count() - 2:
        return False
    expected = family_quadratic(family, ground, jmask)
    if expected is None:
        return check.matrix is None and check.witness_labels is None
    return check.witness_labels == expected[0] and check.matrix.rows() == expected[1]


# -- JSON writers ----------------------------------------------------------------


def polynomial_to_json(f: SparsePolynomial) -> dict:
    """The --poly input object of f, terms in canonical order."""
    return {
        "nvars": f.nvars,
        "terms": [{"exp": list(exp), "coeff": str(c)} for exp, c in f.canonical_items()],
    }


def certificate_json(cert: CLCCertificate) -> dict:
    """The certificate's JSON with its checks, as certify-clc writes it."""
    return {**cert.to_json(), "checks": [c.to_json() for c in cert.checks]}
