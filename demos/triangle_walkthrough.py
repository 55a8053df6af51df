"""
From a graph to a log-concavity certificate
===========================================

Walk one small example, the triangle graph, through the whole
pipeline: matroid construction, generating polynomial, the
reduction-to-quadratics certificate, and the sequence inequalities.
"""

from matroidlc import (
    bivariate_restriction,
    certify_clc_matroid,
    check_ultra_log_concave,
    format_polynomial,
    graphic,
    gurvits_minor_checks,
    independence_polynomial,
    matroid_variable_names,
)

# the triangle: three vertices, all pairs joined
m = graphic(3, [(1, 2), (1, 3), (2, 3)])
print("ground set:", m.ground)
print("rank:", m.rank)

# every subset of edges without a cycle is independent
counts = m.count_independent_by_size()
print("independent sets by size:", list(counts))

# the homogenized generating polynomial: one monomial per forest,
# padded with y so every term has total degree n
g = independence_polynomial(m)
print("g =", format_polynomial(g, names=matroid_variable_names(m.n_elements)))

# the certificate reduces g to its quadratic derivatives, one per
# contraction M/J, and passes each by the closed form c <= n' (c
# parallel classes among n' elements), with no NSD test at run time;
# acceptance proves complete log-concavity
cert = certify_clc_matroid(m)
print("certificate:", cert.verdict, f"({len(cert.checks)} checks)")
for check in cert.quadratic_checks():
    print("  quadratic at alpha =", check.alpha, "on elements", check.witness_labels)

# the same conclusion at sequence level: the counts, binomially
# weighted, are log-concave in k
report = check_ultra_log_concave(counts)
for entry in report.entries:
    print(
        f"k={entry.k}: {entry.form3.lhs} >= {entry.form3.rhs}",
        "(holds)" if entry.form3.holds else "(fails)",
    )

# and once more through the two-variable restriction, where each
# inequality becomes a 2x2 determinant sign
for check in gurvits_minor_checks(bivariate_restriction(m)):
    print(f"k={check.k}: det = {check.determinant} <= 0 is {check.nonpositive}")
