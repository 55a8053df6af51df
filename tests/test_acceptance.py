"""Acceptance gate: nine package-level guarantees, one test each.

Every test records a single pass/fail line (printed in the "acceptance
criteria" section of the pytest summary) and then asserts it.  The
corpus-wide criteria share one full sweep via the session-scoped
``corpus_analysis`` fixture; tolerances and sample sizes are pinned
here as constants.
"""

import math
import random
from fractions import Fraction

import numpy as np

import helpers
from matroidlc import (
    SymmetricMatrix,
    bases_polynomial,
    cli,
    is_negative_semidefinite,
    log_concavity_condition_report,
    log_concavity_test_matrix,
    independence_polynomial,
    sample_functional_log_concavity,
    spectral_nd_report,
)

SWEEP_BUDGET_SECONDS = 300.0
SPECTRAL_TOLERANCE = 1e-9
FUNCTIONAL_REL_TOL = 1e-9
EIGENVALUE_MARGIN = 1e-6
RANDOM_POLY_COUNT = 1000
RANDOM_MATRIX_COUNT = 1000
FUNCTIONAL_POLY_COUNT = 100
FUNCTIONAL_TRIALS = 100


def test_criterion_1_strongest_mason_form_on_full_corpus(acceptance, corpus_analysis):
    rows = corpus_analysis.rows
    by_family = {}
    for row in rows:
        by_family.setdefault(row.id.split("-")[0], []).append(row)
    composition_ok = (
        len(by_family.get("graphic", [])) == 31
        and len(by_family.get("uniform", [])) == 91
        and len(by_family.get("linear", [])) >= 500
        and len(by_family.get("explicit", [])) >= 200
    )
    failures = [row.id for row in rows if not row.report.ulc.form3_all]
    in_budget = corpus_analysis.elapsed < SWEEP_BUDGET_SECONDS
    acceptance(
        1,
        composition_ok and not failures and in_budget,
        f"binomial-weighted log-concavity holds on {len(rows)}/{len(rows)} "
        f"instances ({len(by_family.get('graphic', []))} graphic, "
        f"{len(by_family.get('uniform', []))} uniform, "
        f"{len(by_family.get('linear', []))} linear, "
        f"{len(by_family.get('explicit', []))} explicit) "
        f"in {corpus_analysis.elapsed:.1f}s (< {SWEEP_BUDGET_SECONDS:.0f}s); "
        f"failures: {failures[:3] or 'none'}",
    )


def test_criterion_2_certificates_accept_and_match_contraction_matrices(
    acceptance, corpus_analysis
):
    rejected = []
    mismatches = []
    audited = 0
    route_audited = 0
    for row in corpus_analysis.rows:
        m = row.matroid
        n = m.n_elements
        cert = row.report.certificate
        if not cert.accepted:
            rejected.append(row.id)
            continue
        # the expected side reads the listed family alone
        family, ground = m.independent_set_masks(), m.ground
        for check in cert.quadratic_checks():
            audited += 1
            if not helpers.quadratic_check_agrees(check, family, ground):
                mismatches.append((row.id, check.alpha))
                continue
            if n > 6:
                continue
            jmask = sum(1 << i for i, x in enumerate(check.alpha[1:]) if x)
            expected = helpers.family_quadratic(family, ground, jmask)
            if expected is None:
                continue
            # independent route: differentiate the generating polynomial
            # itself and evaluate the test matrix at the pure-y point;
            # it must reproduce the same matrix up to a factorial scale
            route_audited += 1
            nonloops, rows = expected
            nprime = n - jmask.bit_count()
            quad = row.poly.derivative_multi(check.alpha)
            point = (1,) + (0,) * n
            full = log_concavity_test_matrix(quad, point)
            scale = Fraction(math.factorial(nprime - 2) ** 2 * (nprime - 1))
            block_ok = full.restricted(nonloops) == SymmetricMatrix(rows).scaled(scale)
            outside = [i for i in range(n + 1) if i == 0 or i not in nonloops]
            zero_ok = all(full[i, j] == 0 for i in outside for j in range(n + 1))
            if not (block_ok and zero_ok):
                mismatches.append((row.id, check.alpha, "polynomial-route"))
    acceptance(
        2,
        not rejected and not mismatches,
        f"all {len(corpus_analysis.rows)} certificates accepted; "
        f"{audited} quadratic checks match the class matrix read off the family "
        f"({route_audited} re-derived from the polynomial); "
        f"rejected: {rejected[:3] or 'none'}, mismatches: {mismatches[:3] or 'none'}",
    )


def test_criterion_3_derivative_equals_contraction_polynomial(acceptance, corpus_analysis):
    mismatches = []
    pairs = 0
    for row in corpus_analysis.rows:
        m = row.matroid
        n = m.n_elements
        if n > 10:
            continue
        g = row.poly
        for mask in m.independent_set_masks():
            labels = tuple(i + 1 for i in range(n) if mask >> i & 1)
            alpha = (0,) + tuple(1 if mask >> i & 1 else 0 for i in range(n))
            pairs += 1
            if g.derivative_multi(alpha) != independence_polynomial(m.contract(labels)):
                mismatches.append((row.id, labels))
    acceptance(
        3,
        pairs > 0 and not mismatches,
        f"exact equality of contracted generating polynomials on {pairs} "
        f"(matroid, independent set) pairs; mismatches: {mismatches[:3] or 'none'}",
    )


def test_criterion_4_equivalent_conditions_agree_on_random_polynomials(acceptance):
    rng = random.Random("acceptance-conditions")
    disagreements = 0
    for i in range(RANDOM_POLY_COUNT):
        nvars = rng.randint(2, 5)
        degree = rng.randint(2, 5)
        f = helpers.random_homogeneous_polynomial(rng, nvars, degree)
        a = helpers.random_positive_point(rng, nvars)
        report = log_concavity_condition_report(f, a, samples=3, seed=i)
        same = report.condition1 == report.condition2 == report.condition4 == report.condition5
        if degree >= 3:
            same = same and report.condition6 == report.condition1
        if report.condition1:
            same = same and all(report.condition3_samples)
        if not (same and report.agreement):
            disagreements += 1
    acceptance(
        4,
        disagreements == 0,
        f"{RANDOM_POLY_COUNT} random nonnegative homogeneous polynomials "
        f"(<= 5 vars, degree <= 5): {disagreements} condition disagreements",
    )


def test_criterion_5_minor_determinants_match_sequence_verdicts(acceptance, corpus_analysis):
    positive = []
    mismatched = []
    dets = 0
    for row in corpus_analysis.rows:
        ulc = row.report.ulc
        for check in row.report.minor_checks:
            dets += 1
            if check.determinant > 0:
                positive.append((row.id, check.k))
            if check.nonpositive != ulc.entry(check.k).form3.holds:
                mismatched.append((row.id, check.k))
    acceptance(
        5,
        dets > 0 and not positive and not mismatched,
        f"{dets} bivariate minor determinants all <= 0 and matching the "
        f"sequence verdict k-by-k; positive: {positive[:3] or 'none'}, "
        f"mismatched: {mismatched[:3] or 'none'}",
    )


def test_criterion_6_spectral_diagnostic_nonpositive(acceptance, corpus_analysis):
    worst = max(row.spectral.max_eigenvalue for row in corpus_analysis.rows)
    offenders = [
        row.id
        for row in corpus_analysis.rows
        if row.spectral.max_eigenvalue > SPECTRAL_TOLERANCE
    ]
    triangle = spectral_nd_report(bases_polynomial(helpers.k3()))
    expected = sorted([-2 / 3, -1 / 3, -1 / 3])
    pinned_ok = len(triangle.eigenvalues) == 3 and all(
        abs(got - want) <= SPECTRAL_TOLERANCE
        for got, want in zip(triangle.eigenvalues, expected)
    )
    acceptance(
        6,
        not offenders and pinned_ok,
        f"max log-Hessian eigenvalue over corpus {worst:.3e} "
        f"(tolerance {SPECTRAL_TOLERANCE:.0e}); triangle basis spectrum "
        f"{[round(e, 6) for e in triangle.eigenvalues]} matches "
        f"{[round(e, 6) for e in expected]}",
    )


def test_criterion_7_functional_midpoint_inequality_sampled(acceptance, corpus_analysis):
    small = [row for row in corpus_analysis.rows if row.matroid.n_elements <= 8]
    step = max(1, len(small) // FUNCTIONAL_POLY_COUNT)
    chosen = small[::step][:FUNCTIONAL_POLY_COUNT]
    violations = []
    worst = 0.0
    for i, row in enumerate(chosen):
        report = sample_functional_log_concavity(
            row.poly, trials=FUNCTIONAL_TRIALS, seed=1000 + i, rel_tol=FUNCTIONAL_REL_TOL
        )
        if not report.holds:
            violations.append(row.id)
        if report.worst_margin is not None:
            worst = min(worst, report.worst_margin)
    acceptance(
        7,
        len(chosen) == FUNCTIONAL_POLY_COUNT and not violations,
        f"{len(chosen)} corpus polynomials x {FUNCTIONAL_TRIALS} sampled "
        f"midpoint inequalities, worst margin {worst:.3e} "
        f"(allowed >= -{FUNCTIONAL_REL_TOL:.0e}); violations: {violations[:3] or 'none'}",
    )


def test_criterion_8_exact_nsd_matches_float_classification(acceptance):
    rng = random.Random("acceptance-nsd")
    kept = 0
    disagreements = 0
    bad_witnesses = 0
    while kept < RANDOM_MATRIX_COUNT:
        dim = rng.randint(1, 8)
        entries = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)]
            for _ in range(dim)
        ]
        if rng.random() < 0.5:
            rows = [
                [
                    sum(-entries[i][k] * entries[j][k] for k in range(dim))
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
        else:
            rows = [
                [(entries[i][j] + entries[j][i]) / 2 for j in range(dim)]
                for i in range(dim)
            ]
        q = SymmetricMatrix(rows)
        top = float(np.linalg.eigvalsh(q.to_float_array()).max())
        if abs(top) <= EIGENVALUE_MARGIN:
            continue
        kept += 1
        result = is_negative_semidefinite(q)
        if result.is_nsd != (top < 0):
            disagreements += 1
        if not result.is_nsd and not q.quad(result.witness) > 0:
            bad_witnesses += 1
    acceptance(
        8,
        disagreements == 0 and bad_witnesses == 0,
        f"{kept} random rational symmetric matrices (dim <= 8, eigenvalue "
        f"margin > {EIGENVALUE_MARGIN:.0e}): {disagreements} verdict "
        f"disagreements, {bad_witnesses} invalid witnesses",
    )


def test_criterion_9_corpus_runs_are_byte_identical(acceptance, capsys):
    args = [
        "corpus",
        "--graphic-max-vertices", "4",
        "--uniform-max-n", "6",
        "--linear-count", "40",
        "--explicit-count", "30",
        "--seed", "7",
    ]
    code1 = cli.main(list(args))
    first = capsys.readouterr().out.encode()
    code2 = cli.main(list(args))
    second = capsys.readouterr().out.encode()
    acceptance(
        9,
        code1 == 0 and code2 == 0 and first == second,
        f"two seeded corpus sweeps emitted byte-identical JSON "
        f"({len(first)} bytes, exit codes {code1}/{code2})",
    )
