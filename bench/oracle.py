"""Exact computations made apart from matroidlc, used to check its outputs.

Nothing here imports the program.  Independent sets, ranks, axiom
checks, derivatives, evaluations and inertia are recomputed with the
benchmark's own integer and Fraction arithmetic, so a check that passes
compares two implementations, not one implementation with itself.

Subsets are bitmasks with bit i-1 standing for element i, as in the
program's JSON (elements are 1-based); that is a data convention, not
shared code.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


# -- independent sets --------------------------------------------------------


def forest_masks(vertices: int, edges: list) -> list:
    """Masks of the cycle-free edge subsets of a multigraph.

    Depth-first over edge indices in increasing order; each node carries
    its union-find parent array, so an edge extends the forest exactly
    when its endpoints lie in different trees.
    """

    def root(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    found = [0]
    stack = [(0, 0, tuple(range(vertices + 1)))]
    while stack:
        mask, start, parent = stack.pop()
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            ru, rv = root(parent, u), root(parent, v)
            if ru == rv:
                continue
            child = list(parent)
            child[ru] = rv
            found.append(mask | 1 << idx)
            stack.append((found[-1], idx + 1, tuple(child)))
    return found


def _reduce(vec: list, rows: list, modulus: int):
    """Reduce vec against echelon rows [(pivot, row)] with unit pivots.

    Returns the new (pivot, row) with a unit pivot, or None when vec lies
    in the span.  Over the rationals (modulus 0) entries are Fractions.
    """
    v = list(vec)
    for pivot, row in rows:
        c = v[pivot]
        if c:
            if modulus:
                v = [(a - c * b) % modulus for a, b in zip(v, row)]
            else:
                v = [a - c * b for a, b in zip(v, row)]
    lead = next((i for i, x in enumerate(v) if x), None)
    if lead is None:
        return None
    if modulus:
        inv = pow(v[lead], modulus - 2, modulus)
        return lead, [x * inv % modulus for x in v]
    return lead, [x / v[lead] for x in v]


def linear_masks(columns: list, modulus: int) -> list:
    """Masks of the linearly independent column subsets over GF(p) or Q.

    ``columns`` hold ints for GF(p) and Fractions (or anything Fraction
    accepts) for modulus 0.
    """
    if modulus:
        cols = [[int(x) % modulus for x in col] for col in columns]
    else:
        cols = [[Fraction(x) for x in col] for col in columns]
    found = [0]
    stack = [(0, 0, ())]
    while stack:
        mask, start, rows = stack.pop()
        for idx in range(start, len(cols)):
            entry = _reduce(cols[idx], rows, modulus)
            if entry is None:
                continue
            found.append(mask | 1 << idx)
            stack.append((found[-1], idx + 1, rows + (entry,)))
    return found


def uniform_sequence(r: int, n: int) -> list:
    """Closed form I_k = C(n, k) for k <= r."""
    return [comb(n, k) if k <= r else 0 for k in range(n + 1)]


def sequence_of(masks, n: int) -> list:
    counts = [0] * (n + 1)
    for m in masks:
        counts[m.bit_count()] += 1
    return counts


def rank_of(sequence: list) -> int:
    return max(k for k, c in enumerate(sequence) if c)


def axiom_failure(masks) -> str | None:
    """Name of the first matroid axiom the family breaks, or None.

    Downward closure by single removals (which reaches every subset by
    induction), then exchange on every size-adjacent pair, which with
    downward closure gives exchange for every size gap.
    """
    fam = set(masks)
    if 0 not in fam:
        return "nonempty"
    for m in fam:
        rest = m
        while rest:
            bit = rest & -rest
            if m ^ bit not in fam:
                return "downward-closure"
            rest ^= bit
    by_size: dict = {}
    for m in fam:
        by_size.setdefault(m.bit_count(), []).append(m)
    grows: dict = {m: 0 for m in fam}
    for m in fam:
        rest = m
        while rest:
            bit = rest & -rest
            grows[m ^ bit] |= bit
            rest ^= bit
    for k, smaller in by_size.items():
        for t in by_size.get(k + 1, ()):
            for s in smaller:
                if not grows[s] & t & ~s:
                    return "exchange"
    return None


# -- ultra log-concavity -------------------------------------------------------


def form3_terms(sequence: list, k: int) -> tuple:
    """Both sides of form (iii) at k, cross-multiplied in integers."""
    n = len(sequence) - 1
    a, b, c = sequence[k - 1], sequence[k], sequence[k + 1]
    return b * b * comb(n, k - 1) * comb(n, k + 1), a * c * comb(n, k) ** 2


def form3_holds(sequence: list) -> bool:
    """I_k^2 C(n,k-1) C(n,k+1) >= I_{k-1} I_{k+1} C(n,k)^2 for 0 < k < n."""
    n = len(sequence) - 1
    return all(lhs >= rhs for lhs, rhs in (form3_terms(sequence, k) for k in range(1, n)))


# -- matroid certificates --------------------------------------------------------


def certificate_size(masks, n: int) -> int:
    """Checks in the matroid certificate: each independent J with
    |J| <= n - 2 gives n - |J| - 1 indecomposability checks and one
    quadratic check."""
    if n < 2:
        return 0
    return sum(n - m.bit_count() for m in masks if m.bit_count() <= n - 2)


def quadratic_alphas(masks, n: int, ambient: int) -> set:
    """Multi-indices d_y^(n-|J|-2) d_z^J of the certificate's quadratics."""
    out = set()
    for m in masks:
        j = m.bit_count()
        if j > n - 2:
            continue
        alpha = [0] * (ambient + 1)
        alpha[0] = n - j - 2
        for i in range(ambient):
            if m >> i & 1:
                alpha[i + 1] = 1
        out.add(tuple(alpha))
    return out


def independence_terms(masks, n: int) -> dict:
    """g_M = sum over independent I of y^(n-|I|) z^I, as {exp: 1}."""
    terms = {}
    for m in masks:
        exp = [n - m.bit_count()] + [m >> i & 1 for i in range(n)]
        terms[tuple(exp)] = Fraction(1)
    return terms


# -- polynomials as {exponent tuple: Fraction} -----------------------------------


def derivative(terms: dict, alpha) -> dict:
    """d^alpha of a polynomial, with falling-factorial factors."""
    out = {}
    for exp, c in terms.items():
        if all(e >= a for e, a in zip(exp, alpha)):
            factor = 1
            for e, a in zip(exp, alpha):
                factor *= factorial(e) // factorial(e - a)
            out[tuple(e - a for e, a in zip(exp, alpha))] = c * factor
    return out


def evaluate(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for exp, c in terms.items():
        v = c
        for x, e in zip(point, exp):
            if e:
                v *= x**e
        total += v
    return total


def gradient(terms: dict, point) -> list:
    n = len(point)
    return [evaluate(derivative(terms, [int(i == j) for j in range(n)]), point) for i in range(n)]


def hessian(terms: dict, point) -> list:
    n = len(point)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            alpha = [0] * n
            alpha[i] += 1
            alpha[j] += 1
            rows[i][j] = rows[j][i] = evaluate(derivative(terms, alpha), point)
    return rows


def log_hessian_numerator(terms: dict, point) -> list:
    """f(a) Hess f(a) - grad f(a) grad f(a)^T."""
    fa = evaluate(terms, point)
    g = gradient(terms, point)
    h = hessian(terms, point)
    n = len(point)
    return [[fa * h[i][j] - g[i] * g[j] for j in range(n)] for i in range(n)]


def quadratic_test_matrix(terms: dict, nvars: int) -> list:
    """(a^T H a) H - (H a)(H a)^T at the all-ones point a."""
    ones = [Fraction(1)] * nvars
    h = hessian(terms, ones)
    ha = [sum(row) for row in h]
    aha = sum(ha)
    return [[aha * h[i][j] - ha[i] * ha[j] for j in range(nvars)] for i in range(nvars)]


def quad_form(matrix: list, v) -> Fraction:
    return sum(
        (Fraction(v[i]) * matrix[i][j] * v[j] for i in range(len(v)) for j in range(len(v))),
        Fraction(0),
    )


def positive_inertia(matrix: list) -> int:
    """Number of positive eigenvalues, by Sylvester's law of inertia.

    Symmetric elimination: pivot on a nonzero diagonal entry; when the
    diagonal is zero but an entry a_ij is not, add row/column j to row/
    column i, a congruence that makes the (i, i) entry 2 a_ij.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    positive = 0
    while a:
        n = len(a)
        k = next((i for i in range(n) if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(n) for j in range(n) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for r in range(n):
                a[i][r] += a[j][r]
            for r in range(n):
                a[r][i] += a[r][j]
            k = i
        pivot = a[k][k]
        positive += pivot > 0
        rest = [i for i in range(n) if i != k]
        a = [[a[i][j] - a[i][k] * a[k][j] / pivot for j in rest] for i in rest]
    return positive
