"""Checks of each operation's output against the benchmark's own facts.

``check_op(op, rc, out)`` returns a list of problems, empty when the
output is right.  ``out`` is the JSON object the operation wrote.  Every
expected value comes from ``oracle`` or from a closed form; no check
compares against a stored copy of an earlier output.  The one exception
in spirit is the corpus digest, which compares the runs of one seed with
each other while the benchmark runs.
"""

from __future__ import annotations

from fractions import Fraction

import oracle

SPECTRAL_TOLERANCE = 1e-9


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _sequence_checks(p: Problems, model, out: dict) -> None:
    seq = out["sequence"]
    p.expect(seq == model.sequence, f"sequence {seq} != own count {model.sequence}")
    p.expect(out["n"] == model.n, f"n {out['n']} != {model.n}")
    p.expect(oracle.form3_holds(seq), f"form (iii) fails on emitted sequence {seq}")
    for k, count in getattr(model, "closed_form", {}).items():
        p.expect(seq[k] == count, f"I_{k} = {seq[k]}, closed form gives {count}")


def _check_rank_sequence(p: Problems, rc: int, out: dict, model) -> None:
    p.expect(rc == 0, f"exit {rc}")
    _sequence_checks(p, model, out)
    p.expect(out["rank"] == model.rank, f"rank {out['rank']} != {model.rank}")
    p.expect(out["total_independent"] == sum(model.sequence), "total_independent mismatch")


def _check_validate(p: Problems, rc: int, out: dict, model) -> None:
    p.expect(rc == 0 and out["valid"] is True, f"exit {rc}, valid={out.get('valid')}")
    p.expect(out["n"] == model.n and out["rank"] == model.rank, "n or rank mismatch")
    if model.obj["kind"] == "explicit":
        p.expect(model.axiom_failure is None, f"own axiom check: {model.axiom_failure}")


def _minor_determinant(sequence: list, k: int) -> Fraction:
    """det Hess of d_y^(n-k-1) d_z^(k-1) f_M, by own differentiation."""
    n = len(sequence) - 1
    f = {(n - j, j): Fraction(c) for j, c in enumerate(sequence) if c}
    h = oracle.hessian(oracle.derivative(f, (n - k - 1, k - 1)), (Fraction(0), Fraction(0)))
    return h[0][0] * h[1][1] - h[0][1] * h[1][0]


def _check_mason(p: Problems, rc: int, out: dict, model) -> None:
    p.expect(rc == 0 and out["verdict"] == "pass", f"exit {rc}, verdict {out.get('verdict')}")
    _sequence_checks(p, model, out)
    seq = model.sequence
    for entry in out["ulc"]["entries"]:
        lhs, rhs = oracle.form3_terms(seq, entry["k"])
        f3 = entry["form3"]
        p.expect(
            (f3["lhs"], f3["rhs"], f3["holds"]) == (str(lhs), str(rhs), True),
            f"form (iii) at k={entry['k']}: {f3} != own ({lhs}, {rhs})",
        )
    p.expect(out["ulc"]["form3_all"] is True, "form3_all is not true")
    cert = out["certificate"]
    size = oracle.certificate_size(model.masks, model.n)
    p.expect(cert["verdict"] == "accepted", f"certificate {cert['verdict']}")
    p.expect(cert["num_checks"] == size, f"num_checks {cert['num_checks']} != own {size}")
    p.expect(out["consistent"] is True, "report not consistent")
    for minor in out["minor_checks"]:
        det = _minor_determinant(seq, minor["k"])
        p.expect(
            Fraction(minor["determinant"]) == det and det <= 0 and minor["nonpositive"],
            f"minor at k={minor['k']}: {minor['determinant']} != own {det} or positive",
        )


def _check_certify_matroid(p: Problems, rc: int, out: dict, model) -> None:
    p.expect(rc == 0 and out["verdict"] == "accepted", f"exit {rc}, verdict {out.get('verdict')}")
    n = model.n
    size = oracle.certificate_size(model.masks, n)
    checks = out["checks"]
    p.expect(out["num_checks"] == len(checks) == size, f"{len(checks)} checks, own count {size}")
    p.expect(out["degree"] == n and out["nvars"] == n + 1, "degree or nvars mismatch")
    p.expect(all(c["result"] is True for c in checks), "a check result is not true")
    alphas = {tuple(c["alpha"]) for c in checks if c["kind"] == "quadratic-nsd"}
    p.expect(
        alphas == oracle.quadratic_alphas(model.masks, n, n),
        "quadratic checks do not match the independent sets J with |J| <= n-2",
    )


def _midpoint_holds(terms: dict, u: list, v: list) -> bool:
    mid = [(a + b) / 2 for a, b in zip(u, v)]
    return oracle.evaluate(terms, mid) ** 2 >= oracle.evaluate(terms, u) * oracle.evaluate(terms, v)


def _recheck_witness(p: Problems, model, failure: dict) -> None:
    deriv = oracle.derivative(model.terms, failure["alpha"])
    witness = failure["witness"]
    if failure["kind"] == "indecomposable":
        first, rest = (set(c) for c in witness["components"])
        p.expect(first and rest and not first & rest, "partition groups empty or overlapping")
        hits = [(bool(s & first), bool(s & rest)) for s in
                ({i for i, e in enumerate(exp) if e} for exp in deriv)]
        p.expect(not any(a and b for a, b in hits), "a term of the derivative spans the partition")
        p.expect(any(a for a, _ in hits) and any(b for _, b in hits), "a partition group is inactive")
    elif failure["kind"] == "quadratic-nsd":
        p.expect(all(sum(e) == 2 for e in deriv), "witness derivative is not quadratic")
        matrix = oracle.quadratic_test_matrix(deriv, model.nvars)
        v = [Fraction(x) for x in witness["vector"]]
        p.expect(oracle.quad_form(matrix, v) > 0, "witness vector gives v^T M v <= 0")
    else:
        p.append(f"unknown failure kind {failure['kind']!r}")


def _check_certify_poly(p: Problems, rc: int, out: dict, model) -> None:
    accepted = out["verdict"] == "accepted"
    p.expect(rc == (0 if accepted else 1), f"exit {rc} with verdict {out['verdict']}")
    p.expect(out["degree"] == model.degree and out["nvars"] == model.nvars, "degree/nvars")
    if model.known_clc:
        p.expect(accepted, "a known completely log-concave polynomial was rejected")
    if model.degree == 2:
        ones = [Fraction(1)] * model.nvars
        lorentzian = oracle.positive_inertia(oracle.hessian(model.terms, ones)) <= 1
        p.expect(accepted == lorentzian, f"quadratic verdict {out['verdict']}, own inertia says {lorentzian}")
    if accepted:
        p.expect(all(c["result"] for c in out["checks"]), "accepted with a failed check")
        for u, v in model.pairs:
            p.expect(_midpoint_holds(model.terms, u, v), f"f((u+v)/2)^2 < f(u)f(v) at u={u}, v={v}")
    else:
        failure = out["failure"]
        p.expect(failure.get("reverified") is True, "failure not marked re-verified")
        _recheck_witness(p, model, failure)


def _check_spectral_poly(p: Problems, rc: int, out: dict, check) -> None:
    model, point = check
    fa = oracle.evaluate(model.terms, point)
    p.expect(Fraction(out["value"]) == fa, f"f(a) {out['value']} != own {fa}")
    numerator = oracle.log_hessian_numerator(model.terms, point)
    emitted = [[Fraction(x) for x in row] for row in out["pair_matrix"]]
    p.expect(emitted == numerator, "pair matrix differs from own f Hess f - grad grad^T")
    eig = out["eigenvalues"]
    p.expect(len(eig) == model.nvars and out["max_eigenvalue"] == max(eig), "eigenvalue list")
    ok = out["max_eigenvalue"] <= SPECTRAL_TOLERANCE
    p.expect(out["all_nonpositive"] == ok and rc == (0 if ok else 1), f"exit {rc}, max {out['max_eigenvalue']}")
    if model.known_clc or oracle.positive_inertia(numerator) == 0:
        p.expect(ok, f"log-Hessian is NSD but max eigenvalue is {out['max_eigenvalue']}")


def _check_corpus(p: Problems, rc: int, out: dict, expected: dict) -> None:
    """``expected["facts"]`` maps instance id to the MatroidModel of its
    definition; ``expected["instances"]`` is the corpus size by closed form."""
    facts = expected["facts"]
    p.expect(rc == 0, f"exit {rc}")
    rows = out["instances"]
    ids = [r["id"] for r in rows]
    p.expect(ids == sorted(facts), "instance ids differ from the corpus")
    p.expect(len(ids) == expected["instances"], f"{len(ids)} instances, expected {expected['instances']}")
    totals = out["totals"]
    p.expect(
        totals == {"instances": len(facts), "passed": len(facts), "failed": 0} and out["failures"] == [],
        f"totals {totals}",
    )
    for row in rows:
        model = facts.get(row["id"])
        if model is None:
            continue
        seq, n = row["sequence"], model.n
        where = row["id"]
        p.expect(seq == model.sequence, f"{where}: sequence {seq} != own {model.sequence}")
        p.expect(row["n"] == n and row["rank"] == model.rank, f"{where}: n or rank")
        p.expect(oracle.form3_holds(seq) and row["form3"] and row["form2"] and row["form1"],
                 f"{where}: form (iii) fails")
        quadratics = sum(model.sequence[: n - 1]) if n >= 2 else 0
        p.expect(row["certificate"] == "accepted" and row["quadratic_checks"] == quadratics,
                 f"{where}: certificate {row['certificate']}, {row['quadratic_checks']} quadratics")
        p.expect(row["minors_nonpositive"] is True, f"{where}: positive minor")
        p.expect(row["spectral_max_eigenvalue"] <= SPECTRAL_TOLERANCE,
                 f"{where}: spectral max {row['spectral_max_eigenvalue']}")
        p.expect(row["passed"] is True, f"{where}: not passed")
        if model.obj["kind"] == "explicit":
            p.expect(model.axiom_failure is None, f"{where}: own axiom check {model.axiom_failure}")


def digest_problems(seen: set, digest: str) -> list:
    """The corpus output of one seed must hash alike on every run."""
    seen.add(digest)
    if len(seen) > 1:
        return [f"corpus digest {digest[:12]} differs from another run of the same seed"]
    return []


_CHECKS = {
    "rank-sequence": _check_rank_sequence,
    "validate": _check_validate,
    "mason": _check_mason,
    "certify-clc": _check_certify_matroid,
    "certify-poly": _check_certify_poly,
    "spectral-poly": _check_spectral_poly,
    "corpus": _check_corpus,
}


def check_op(op: dict, rc: int, out) -> list:
    """Problems with one operation's exit code and output, [] if none."""
    kind, model = op["check"]
    p = Problems()
    if not isinstance(out, dict):
        return ["no JSON object written"]
    if "error" in out:
        return [f"error object: {out['error']}"]
    try:
        _CHECKS[kind](p, rc, out, model)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        p.append(f"malformed output: {type(exc).__name__}: {exc}")
    return p
