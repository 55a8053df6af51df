"""Self-test of the output checks: real outputs pass, corrupted ones fail.

    python3 bench/selftest.py

Runs small operations of each kind through ``matroidlc.cli.main`` in
this process, asserts that ``checks.check_op`` finds nothing wrong with
each real output, then applies one corruption at a time and asserts
that every one is flagged.  Exits 1 if a real output is flagged or a
corruption goes unnoticed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import sys
from fractions import Fraction

import checks
import oracle
import run
import workloads

DIR = run.OUT / "selftest"


def _execute(op: dict) -> tuple:
    from matroidlc import cli

    out_path = DIR / f"{op['id']}.json"
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op["argv"] + ["--output", str(out_path)])
    return rc, json.loads(out_path.read_text(encoding="utf-8"))


def _set(path: tuple, value):
    def corrupt(out: dict, rc: int) -> tuple:
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return out, rc

    return corrupt


def _verdict(verdict: str, rc: int):
    def corrupt(out: dict, _rc: int) -> tuple:
        out["verdict"] = verdict
        return out, rc

    return corrupt


def _accept(out: dict, rc: int) -> tuple:
    """A rejection rewritten as a clean acceptance."""
    out["verdict"] = "accepted"
    out.pop("failure", None)
    for check in out["checks"]:
        check["result"] = True
        check.pop("witness", None)
    return out, 0


def _drop_check(out: dict, rc: int) -> tuple:
    out["checks"].pop()
    return out, rc


def _rename_quadratic(out: dict, rc: int) -> tuple:
    quad = next(c for c in out["checks"] if c["kind"] == "quadratic-nsd")
    quad["alpha"] = [quad["alpha"][0] + 1] + quad["alpha"][1:]
    return out, rc


def _bump(x):
    return x + 1


def _bump_str(x):
    return str(Fraction(x) + 1)


def cases(w: workloads._Writer) -> list:
    """(name, op, [(corruption name, corruption)]) for every check."""
    k6 = workloads.MatroidModel({"kind": "graphic", "vertices": 6, "edges": workloads._complete_graph(6)})
    k6.closed_form = {5: 6**4}
    k4 = workloads.MatroidModel({"kind": "graphic", "vertices": 4, "edges": workloads._complete_graph(4)})
    u36 = workloads.MatroidModel({"kind": "uniform", "r": 3, "n": 6})
    explicit = workloads.MatroidModel(
        {"kind": "explicit", "n": 4, "sets": [[], [1], [2], [3], [4], [1, 2], [1, 3], [2, 3], [2, 4], [3, 4]]}
    )

    def matroid_op(command: str, model) -> dict:
        w.op([command, "--input", w.file(f"m{len(w.ops)}.json", model.obj)], command, model)
        return w.ops[-1]

    def poly_op(kind: str, model, point=None) -> dict:
        path = w.file(f"p{len(w.ops)}.json", model.to_json())
        if kind == "certify-poly":
            w.op(["certify-clc", "--poly", path], kind, model)
        else:
            w.op(["spectral", "--poly", path, "--point", workloads._point_arg(point)], kind, (model, point))
        return w.ops[-1]

    # Not completely log-concave: two positive Hessian eigenvalues, and
    # (degree 3) a split into two variable groups.
    bad_quadratic = workloads.PolyModel(2, {(2, 0): Fraction(1), (0, 2): Fraction(1), (1, 1): Fraction(1, 10)}, False)
    split = workloads.PolyModel(2, {(3, 0): Fraction(1), (0, 3): Fraction(1)}, False)
    split.pairs = [([Fraction(1), Fraction(1, 10)], [Fraction(1, 10), Fraction(1)])]
    product = workloads._linear_product(random.Random(0), 3, 3)
    product.pairs = [([Fraction(1), Fraction(2), Fraction(3)], [Fraction(3), Fraction(1), Fraction(1, 2)])]
    point = [Fraction(1), Fraction(1, 2), Fraction(2)]

    corpus = {"id": "corpus", "argv": ["corpus", "--seed", "3", "--graphic-max-vertices", "3",
                                       "--uniform-max-n", "4", "--linear-count", "4", "--explicit-count", "4"],
              "check": ("corpus", run.corpus_expectation(3, graphic_max_vertices=3, uniform_max_n=4,
                                                         linear_count=4, explicit_count=4))}

    return [
        ("rank-sequence K6", matroid_op("rank-sequence", k6), [
            ("count off by one", _set(("sequence", 2), _bump)),
            ("spanning trees off Cayley", _set(("sequence", 5), 1295)),
            ("rank", _set(("rank",), _bump)),
            ("total", _set(("total_independent",), _bump)),
        ]),
        ("validate explicit", matroid_op("validate", explicit), [
            ("invalid verdict", _set(("valid",), False)),
            ("rank", _set(("rank",), _bump)),
        ]),
        ("mason U(3,6)", matroid_op("mason", u36), [
            ("form (iii) lhs", _set(("ulc", "entries", 1, "form3", "lhs"), _bump_str)),
            ("certificate size", _set(("certificate", "num_checks"), _bump)),
            ("minor determinant", _set(("minor_checks", 0, "determinant"), _bump_str)),
            ("verdict", _set(("verdict",), "fail")),
        ]),
        ("certify-clc K4", matroid_op("certify-clc", k4), [
            ("missing check", _drop_check),
            ("failed check", _set(("checks", 0, "result"), False)),
            ("wrong contraction", _rename_quadratic),
            ("rejected", _verdict("rejected", 1)),
        ]),
        ("certify-clc --poly vector witness", poly_op("certify-poly", bad_quadratic), [
            ("zero witness", _set(("failure", "witness", "vector"), ["0", "0"])),
            ("not re-verified", _set(("failure", "reverified"), False)),
            ("accepted against inertia", _accept),
        ]),
        ("certify-clc --poly partition witness", poly_op("certify-poly", split), [
            ("overlapping groups", _set(("failure", "witness", "components"), [[0], [0, 1]])),
            ("accepted against midpoint", _accept),
        ]),
        ("certify-clc --poly known CLC", poly_op("certify-poly", product), [
            ("rejected", _verdict("rejected", 1)),
        ]),
        ("spectral --poly", poly_op("spectral-poly", product, point), [
            ("value", _set(("value",), _bump_str)),
            ("pair matrix", _set(("pair_matrix", 0, 1), _bump_str)),
            ("positive eigenvalue", lambda out, rc: (
                dict(out, max_eigenvalue=0.5, eigenvalues=out["eigenvalues"][:-1] + [0.5], all_nonpositive=False), 1)),
        ]),
        ("corpus", corpus, [
            ("sequence", _set(("instances", 0, "sequence", 0), _bump)),
            ("spectral maximum", _set(("instances", 1, "spectral_max_eigenvalue"), 1e-3)),
            ("quadratic checks", _set(("instances", 2, "quadratic_checks"), _bump)),
            ("missing instance", lambda out, rc: (dict(out, instances=out["instances"][1:]), rc)),
            ("totals", _set(("totals", "failed"), 1)),
        ]),
    ]


def main() -> int:
    shutil.rmtree(DIR, ignore_errors=True)
    DIR.mkdir(parents=True)
    sys.path.insert(0, str(run.SRC))
    w = workloads._Writer(DIR / "inputs")
    bad = 0
    for name, op, corruptions in cases(w):
        rc, out = _execute(op)
        problems = checks.check_op(op, rc, out)
        print(f"{'ok  ' if not problems else 'FAIL'} {name}: real output passes {problems[:2]}")
        bad += bool(problems)
        for label, corrupt in corruptions:
            bad_out, bad_rc = corrupt(copy.deepcopy(out), rc)
            flagged = checks.check_op(op, bad_rc, bad_out)
            print(f"{'ok  ' if flagged else 'FAIL'} {name}: {label} is flagged {flagged[:1]}")
            bad += not flagged
    flagged = checks.digest_problems({"a" * 64}, "b" * 64)
    print(f"{'ok  ' if flagged else 'FAIL'} corpus: a second digest for one seed is flagged")
    bad += not flagged
    not_matroid = [0, 0b001, 0b010, 0b100, 0b011]  # {3} cannot grow from {1,2}'s side
    failure = oracle.axiom_failure(not_matroid)
    print(f"{'ok  ' if failure else 'FAIL'} own axiom check flags a non-matroid family ({failure})")
    bad += not failure
    shutil.rmtree(DIR, ignore_errors=True)
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
