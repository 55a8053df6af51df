"""End-to-end tests of the matroidlc command line interface."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest.mock import ANY

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import oracle
from helpers import mask_of, polynomial_to_json, powerset
from matroidlc import (
    CorpusConfig,
    Matroid,
    certify_clc_matroid,
    certify_clc_quadratic_criterion,
    cli,
    independence_polynomial,
    logconcavity,
    matroid_from_json,
    polynomial_from_json,
    run_sweep,
)
from matroidlc import matroid as matroid_module
from matroidlc.corpus import connected_graphs
from matroidlc.linalg import NsdResult

U23 = {"kind": "uniform", "r": 2, "n": 3}
K3 = {"kind": "graphic", "vertices": 3, "edges": [[1, 2], [1, 3], [2, 3]]}
BAD_EXPLICIT = {"kind": "explicit", "n": 2, "sets": [[], [1, 2]]}
SOS_POLY = {
    "nvars": 2,
    "terms": [{"exp": [2, 0], "coeff": "1"}, {"exp": [0, 2], "coeff": "1"}],
}
SMALL_CORPUS = [
    "corpus",
    "--graphic-max-vertices", "3",
    "--uniform-max-n", "3",
    "--linear-count", "2",
    "--explicit-count", "2",
]


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


def invoke(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


# -- validate ------------------------------------------------------------------


def test_validate_accepts_uniform(write_json, capsys):
    code, payload, err = invoke(capsys, ["validate", "--input", write_json("m.json", U23)])
    assert code == 0
    assert payload["valid"] is True
    assert (payload["kind"], payload["n"], payload["rank"]) == ("uniform", 3, 2)
    assert payload["schema_version"] == 2
    assert "OK" in err


def test_validate_reports_axiom_violation(write_json, capsys):
    code, payload, _ = invoke(
        capsys, ["validate", "--input", write_json("m.json", BAD_EXPLICIT)]
    )
    assert code == 1
    assert payload["valid"] is False
    violation = payload["violation"]
    assert violation["axiom"] == "downward-closure"
    assert violation["reverified"] is True
    assert violation["witness"]["larger"] == [1, 2]


def test_validate_large_structured_matroid_skips_enumeration(write_json, capsys):
    big = {"kind": "uniform", "r": 1, "n": 21}
    code, payload, _ = invoke(capsys, ["validate", "--input", write_json("m.json", big)])
    assert code == 0
    assert payload["valid"] is True


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_validate_large_uniform_ground_is_quick(write_json, capsys, n):
    # greedy rank over a mask shifted once per bit took 26 s at n = 10**6
    path = write_json("m.json", {"kind": "uniform", "r": 1, "n": n})
    start = time.perf_counter()
    code = cli.main(["validate", "--input", path])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        '{"command":"validate","kind":"uniform","n":%d,"rank":1,'
        '"schema_version":2,"valid":true}\n' % n
    )
    assert elapsed < 5.0


# U(3,17) without the bases {1,2,3} and {1,2,4}: neither 3 nor 4 extends
# {1,2} although {1,3,4} is independent.
NOT_A_MATROID_17 = {
    "kind": "explicit",
    "n": 17,
    "sets": [
        list(c)
        for k in range(4)
        for c in combinations(range(1, 18), k)
        if c not in ((1, 2, 3), (1, 2, 4))
    ],
}


def test_validate_is_exact_beyond_sixteen_elements(write_json, capsys):
    path = write_json("m.json", NOT_A_MATROID_17)
    code, payload, _ = invoke(capsys, ["validate", "--input", path])
    assert code == 1
    violation = payload["violation"]
    assert (violation["axiom"], violation["reverified"]) == ("exchange", True)
    family = {frozenset(s) for s in NOT_A_MATROID_17["sets"]}
    smaller = frozenset(violation["witness"]["smaller"])
    larger = frozenset(violation["witness"]["larger"])
    assert smaller in family and larger in family
    assert len(larger) == len(smaller) + 1
    assert all(smaller | {x} not in family for x in larger - smaller)
    code, payload, _ = invoke(capsys, ["mason", "--input", path])
    assert code == 2
    assert payload["error"]["type"] == "AxiomViolation"


@pytest.mark.parametrize("label", [1.7, "1", True])
def test_validate_parses_labels_like_other_commands(write_json, capsys, label):
    path = write_json("m.json", {"kind": "explicit", "n": 2, "sets": [[], [label], [2]]})
    results = []
    for command in ("validate", "rank-sequence"):
        code, payload, _ = invoke(capsys, [command, "--input", path])
        results.append((code, payload["error"]["type"]))
    assert results == [(2, "ElementOutOfRange")] * 2


def _labels(n):
    return st.one_of(
        st.integers(min_value=1, max_value=max(n, 1)),
        st.integers(min_value=-2, max_value=n + 2),
        st.floats(),
        st.text(max_size=2),
    )


@st.composite
def explicit_inputs(draw, max_n=20):
    n = draw(st.integers(min_value=0, max_value=max_n))
    sets = draw(st.lists(st.lists(_labels(n), max_size=4), max_size=8))
    if draw(st.booleans()):
        sets = [list(sub) for s in sets for sub in powerset(s)]
    return {"kind": "explicit", "n": n, "sets": sets}


@given(explicit_inputs())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_validate_fuzz_ends_in_one_json_object(tmp_path, obj):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", "--input", str(path)])
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert isinstance(payload, dict)
    assert "Traceback" not in err.getvalue()
    labels = [e for s in obj["sets"] for e in s]
    if all(type(e) is int and 1 <= e <= obj["n"] for e in labels):
        # a drawn set such as [1, 1, 1] is the set {1}
        verdict = oracle.axiom_failure({mask_of(s) for s in obj["sets"]})
        assert code == (0 if verdict is None else 1)
    else:
        assert code == 2
        assert payload["error"]["type"] == "ElementOutOfRange"


def _junk():
    return st.one_of(
        st.none(), st.floats(), st.text(max_size=3), st.lists(st.integers(-1, 9), max_size=2)
    )


def _spoil(draw, obj):
    """Well-formed objects, except that one in five has a field replaced
    by junk or an entry that does not parse."""
    if draw(st.integers(0, 4)) == 0:
        obj[draw(st.sampled_from(sorted(obj)))] = draw(
            st.one_of(_junk(), st.sampled_from([[["1/0"]], [[1, "a"]], -1, 10**6]))
        )
    return obj


@st.composite
def matroid_inputs(draw):
    kind = draw(st.sampled_from(["uniform", "graphic", "linear", "explicit"]))
    if kind == "explicit":
        return _spoil(draw, draw(explicit_inputs(max_n=8)))
    if kind == "uniform":
        n = draw(st.integers(0, 8))
        return _spoil(draw, {"kind": kind, "n": n, "r": draw(st.integers(-1, n + 1))})
    if kind == "graphic":
        vertices = draw(st.integers(1, 5))
        edge = st.lists(st.integers(1, vertices), min_size=2, max_size=2)
        edges = draw(st.lists(edge, max_size=8))
        return _spoil(draw, {"kind": kind, "vertices": vertices, "edges": edges})
    rows = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3"]))
    columns = draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), max_size=8))
    modulus = draw(st.sampled_from([0, 2, 3, 5, 7, 4]))
    return _spoil(draw, {"kind": kind, "modulus": modulus, "columns": columns})


@st.composite
def polynomial_inputs(draw):
    nvars = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 4))
    homogeneous = draw(st.booleans())
    coeff = st.one_of(st.integers(1, 9), st.sampled_from(["1/3", "5/2", "0", "-1"]))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        exp = [0] * nvars
        for _ in range(degree if homogeneous else draw(st.integers(0, 4))):
            exp[draw(st.integers(0, nvars - 1))] += 1
        terms.append({"exp": exp, "coeff": draw(coeff)})
    return _spoil(draw, {"nvars": nvars, "terms": terms})


@given(st.one_of(matroid_inputs(), polynomial_inputs()))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_command_ends_in_one_json_object(tmp_path, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    if "nvars" in obj:
        calls = [["certify-clc", "--poly"], ["spectral", "--poly"]]
    else:
        calls = [
            ["validate", "--input"],
            ["rank-sequence", "--input"],
            ["mason", "--input"],
            ["certify-clc", "--input"],
            ["spectral", "--input"],
            ["spectral", "--bases", "--input"],
        ]
    for args in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args + [str(path)])
        assert code in (0, 1, 2), args
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, args
        assert isinstance(json.loads(lines[0]), dict), args
        assert "Traceback" not in err.getvalue(), args


# -- rank-sequence ---------------------------------------------------------------


def test_rank_sequence_output(write_json, capsys):
    code, payload, _ = invoke(
        capsys, ["rank-sequence", "--input", write_json("m.json", U23)]
    )
    assert code == 0
    assert payload["sequence"] == [1, 3, 3, 0]
    assert payload["total_independent"] == 7
    assert payload["rank"] == 2


# -- mason -----------------------------------------------------------------------


def test_mason_uniform(write_json, capsys):
    code, payload, _ = invoke(capsys, ["mason", "--input", write_json("m.json", U23)])
    assert code == 0
    assert payload["sequence"] == [1, 3, 3, 0]
    assert payload["consistent"] is True
    assert payload["certificate"]["verdict"] == "accepted"
    dets = [check["determinant"] for check in payload["minor_checks"]]
    assert dets == ["0", "-36"]


def test_mason_graphic(write_json, capsys):
    code, payload, _ = invoke(capsys, ["mason", "--input", write_json("m.json", K3)])
    assert code == 0
    assert payload["sequence"] == [1, 3, 3, 0]
    assert payload["ulc"]["form3_all"] is True


# -- walks: count for the counts, list once for the family ------------------------

WALK_INPUTS = {
    "uniform": {"kind": "uniform", "r": 3, "n": 7},
    # K4 with a doubled edge
    "graphic": {
        "kind": "graphic",
        "vertices": 4,
        "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [3, 4]],
    },
    # a loop and a parallel pair among six columns of rank 3
    "linear-gf3": {
        "kind": "linear",
        "modulus": 3,
        "columns": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 1], [2, 1, 2], [0, 0, 0]],
    },
    "linear-q": {
        "kind": "linear",
        "modulus": 0,
        "columns": [["1/2", "0"], ["1", "-3"], ["-1", "6"], ["0", "2/3"]],
    },
}


def log_walks(monkeypatch) -> list:
    """Log every walk from here on as (matroid, listing)."""
    log = []
    real_walk = Matroid._walk

    def walk(self, found=None):
        log.append((self, found is not None))
        return real_walk(self, found)

    monkeypatch.setattr(Matroid, "_walk", walk)
    return log


@pytest.mark.parametrize("name", WALK_INPUTS)
@pytest.mark.parametrize("command", ["rank-sequence", "mason"])
def test_count_commands_never_list_the_family(write_json, capsys, monkeypatch, command, name):
    argv = [command, "--input", write_json("m.json", WALK_INPUTS[name])]
    expected = (cli.main(argv), *capsys.readouterr())
    assert expected[0] == 0

    def refuse(self, limit=None):
        raise AssertionError("the family was listed")

    monkeypatch.setattr(Matroid, "independent_set_masks", refuse)
    assert (cli.main(argv), *capsys.readouterr()) == expected


@pytest.mark.parametrize("command", ["rank-sequence", "mason"])
def test_uniform_counts_match_its_explicit_family(write_json, capsys, command):
    # the explicit form counts its held family, the uniform one by binomials
    for n in range(9):
        for r in range(n + 1):
            sets = [list(c) for k in range(r + 1) for c in combinations(range(1, n + 1), k)]
            runs = []
            for obj in (
                {"kind": "uniform", "r": r, "n": n},
                {"kind": "explicit", "n": n, "sets": sets},
            ):
                code = cli.main([command, "--input", write_json("m.json", obj)])
                runs.append((code, capsys.readouterr().out))
            assert runs[0] == runs[1], (r, n)


@pytest.mark.parametrize("name", WALK_INPUTS)
@pytest.mark.parametrize("command", ["certify-clc", "spectral", "spectral --bases", "validate"])
def test_listing_commands_walk_once(write_json, capsys, monkeypatch, command, name):
    path = write_json("m.json", WALK_INPUTS[name])
    walks = log_walks(monkeypatch)
    assert cli.main(command.split() + ["--input", path]) == 0
    capsys.readouterr()
    # one listing walk, with no count walk before it
    assert [listing for _, listing in walks] == [True]


# -- certify-clc -------------------------------------------------------------------


def test_certify_matroid_input(write_json, capsys):
    code, payload, err = invoke(
        capsys, ["certify-clc", "--input", write_json("m.json", U23)]
    )
    assert code == 0
    assert payload["verdict"] == "accepted"
    assert payload["num_checks"] == 9
    kinds = {check["kind"] for check in payload["checks"]}
    assert kinds == {"indecomposable", "quadratic-nsd"}
    assert "accepted" in err


# sha256 of stdout, recorded before matroid certificates kept their matroid
# in place of the sorted contractions; re-recorded at schema version 2, whose
# only change to these bytes is "schema_version":1,"seed":0 -> "schema_version":2
PINNED_STDOUT = {
    ("certify-clc", "u6_12"): "7ce5fa34e1e89e9e774b3bfbbc4701f83722a62d0ebe4afba5f6bdf8c29613d3",
    ("mason", "u6_12"): "a64aabb2fcdc5e94800904d51c1bf05b79d0bf847cf28e937e465b7f6748616b",
    ("certify-clc", "k4"): "468ad4a74d4f53436108bfdfe71b4398666e41ec7ff2e61698fb2b9689a69193",
    ("mason", "k4"): "8753a25befc8d70f4dced14b8ca9d91d9b7f4f8b824b6f5297a13315bc3efe7a",
    ("certify-clc", "loop_parallel"): "6c4088a9e6551184388d192a7baae4775de92ca2a965e4cf202f28bd37ff56a3",
    ("mason", "loop_parallel"): "fc2f372fb1dc5b9df5bd04c3b7af17b31a54bfd6954fb64279e603c86451ab4c",
}
PINNED_INPUTS = {
    "u6_12": {"kind": "uniform", "r": 6, "n": 12},
    "k4": {"kind": "graphic", "vertices": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]},
    # element 1 is a loop, 2 and 3 are parallel, 4 is free
    "loop_parallel": {"kind": "explicit", "n": 4, "sets": [[], [2], [3], [4], [2, 4], [3, 4]]},
}


@pytest.mark.parametrize("command, name", PINNED_STDOUT, ids="-".join)
def test_matroid_outputs_are_pinned(write_json, capsys, command, name):
    code = cli.main([command, "--input", write_json("m.json", PINNED_INPUTS[name])])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command, name]


def test_graphic_output_does_not_depend_on_unused_vertices(write_json, capsys):
    edges = [[1, 2], [1, 3], [2, 3], [3, 4], [4, 1], [2, 4], [4, 4]]
    for command in ("rank-sequence", "certify-clc"):
        outs = []
        for vertices in (6, 100_000):
            obj = {"kind": "graphic", "vertices": vertices, "edges": edges}
            code = cli.main([command, "--input", write_json("g.json", obj)])
            outs.append((code, capsys.readouterr().out))
        assert outs[0] == outs[1] and outs[0][0] == 0


def test_certify_polynomial_rejection_carries_verified_witness(write_json, capsys):
    code, payload, _ = invoke(
        capsys, ["certify-clc", "--poly", write_json("p.json", SOS_POLY)]
    )
    assert code == 1
    assert payload["verdict"] == "rejected"
    failure = payload["failure"]
    assert failure["witness"]["components"] == [[0], [1]]
    assert failure["reverified"] is True


# accepted: (x + y)(x + 2y)(x + y + z); rejected by its quadratic: x^2 + xy + y^2
PRODUCT_POLY = {
    "nvars": 3,
    "terms": [
        {"exp": list(e), "coeff": c}
        for e, c in [
            ((3, 0, 0), "1"), ((2, 1, 0), "4"), ((2, 0, 1), "1"), ((1, 2, 0), "5"),
            ((1, 1, 1), "3"), ((0, 3, 0), "2"), ((0, 2, 1), "2"),
        ]
    ],
}
QUADRATIC_FAIL_POLY = {
    "nvars": 2,
    "terms": [{"exp": list(e), "coeff": "1"} for e in [(2, 0), (1, 1), (0, 2)]],
}


@pytest.mark.parametrize(
    "flag, obj",
    [("--input", m.to_json()) for m in helpers.zoo()]
    + [
        ("--input", {"kind": "uniform", "r": 6, "n": 12}),
        ("--poly", PRODUCT_POLY),
        ("--poly", SOS_POLY),
        ("--poly", QUADRATIC_FAIL_POLY),
    ],
    ids=lambda x: x if isinstance(x, str) else json.dumps(x)[:40],
)
def test_streamed_certificate_equals_library_json(
    write_json, capsys, monkeypatch, tmp_path, flag, obj
):
    if flag == "--input":
        cert = certify_clc_matroid(matroid_from_json(obj))
    else:
        cert = certify_clc_quadratic_criterion(polynomial_from_json(obj))
    payload = helpers.certificate_json(cert)
    if not cert.accepted:
        payload["failure"]["reverified"] = True
    payload.update(schema_version=2, command="certify-clc")
    expected = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    code = 0 if cert.accepted else 1
    args = ["certify-clc", flag, write_json("in.json", obj)]
    # the default batch, and one small enough to split every level
    for batch in (logconcavity._JSON_BATCH, 3):
        monkeypatch.setattr(logconcavity, "_JSON_BATCH", batch)
        assert (cli.main(args), capsys.readouterr().out) == (code, expected)
        out = tmp_path / "out.json"
        assert cli.main(args + ["--output", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == expected


def test_certify_requires_exactly_one_source(write_json, capsys):
    code, payload, _ = invoke(
        capsys,
        [
            "certify-clc",
            "--input", write_json("m.json", U23),
            "--poly", write_json("p.json", SOS_POLY),
        ],
    )
    assert code == 2
    assert payload["error"]["type"] == "UsageError"


# -- spectral ------------------------------------------------------------------------


def test_spectral_on_matroid(write_json, capsys):
    code, payload, err = invoke(capsys, ["spectral", "--input", write_json("m.json", U23)])
    assert code == 0
    assert payload["all_nonpositive"] is True
    assert "witness" not in payload and "tolerance" not in payload
    assert "is NSD" in err
    assert payload["max_eigenvalue"] == pytest.approx(-1 / 7)
    assert len(payload["eigenvalues"]) == 4


@pytest.mark.parametrize("m", helpers.zoo(), ids=repr)
def test_spectral_input_matches_polynomial_route(write_json, capsys, m):
    # a matroid at the all-ones point skips g_M; the bytes must not change
    matroid = write_json("m.json", m.to_json())
    poly = write_json("g.json", polynomial_to_json(independence_polynomial(m)))
    point = ",".join(str(i + 1) for i in range(m.ambient + 1))
    for extra in ([], ["--point", point]):
        code = cli.main(["spectral", "--input", matroid] + extra)
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (
            cli.main(["spectral", "--poly", poly] + extra),
            *capsys.readouterr(),
        )


def test_spectral_flags_positive_eigenvalue(write_json, capsys):
    code, payload, _ = invoke(capsys, ["spectral", "--poly", write_json("p.json", SOS_POLY)])
    assert code == 1
    assert payload["max_eigenvalue"] == pytest.approx(1.0)
    assert payload["all_nonpositive"] is False


@pytest.mark.parametrize(
    "point, exit_code, expected",
    [
        (
            "1,2",
            1,
            {
                "point": ["1", "2"],
                "value": "5",
                "pair_matrix": [["6", "-8"], ["-8", "-6"]],
                "max_eigenvalue": pytest.approx(0.4),
                "witness": ["1", "0"],
            },
        ),
        # the pair matrix is exact, but its entries over f(a)^2 exceed a float
        ("1e-200,1e-200", 2, {"error": {"type": "OverflowError", "message": ANY}}),
    ],
    ids=["rational", "float-overflow"],
)
def test_spectral_point_parsing(write_json, capsys, point, exit_code, expected):
    code, payload, _ = invoke(
        capsys,
        ["spectral", "--poly", write_json("p.json", SOS_POLY), "--point", point],
    )
    assert code == exit_code
    assert {key: payload[key] for key in expected} == expected


def test_spectral_rejects_a_point_where_f_is_not_log_concave(write_json, capsys):
    # x1^39 + x2^39 is log-convex on the segment from (1,0) to (0,1), so its
    # pair matrix at (3/2, 5/7) is not NSD; the largest eigenvalue of the
    # log-Hessian there is about 7.9e-10, which a float test of 1e-9 accepts
    poly = {
        "nvars": 2,
        "terms": [{"exp": [39, 0], "coeff": "1"}, {"exp": [0, 39], "coeff": "1"}],
    }
    code, payload, err = invoke(
        capsys, ["spectral", "--poly", write_json("p.json", poly), "--point", "3/2,5/7"]
    )
    assert code == 1
    assert payload["all_nonpositive"] is False
    assert "is not NSD" in err
    terms = {(39, 0): Fraction(1), (0, 39): Fraction(1)}
    pair = oracle.log_hessian_numerator(terms, [Fraction(3, 2), Fraction(5, 7)])
    assert oracle.quad_form(pair, [int(x) for x in payload["witness"]]) > 0


# -- corpus ------------------------------------------------------------------------


def test_small_corpus_sweep(capsys):
    code, payload, err = invoke(capsys, SMALL_CORPUS)
    assert code == 0
    assert payload["totals"] == {"instances": 18, "passed": 18, "failed": 0}
    assert payload["failures"] == []
    assert "18 instances" in err


def test_corpus_output_is_deterministic(capsys):
    code1, payload1, _ = invoke(capsys, SMALL_CORPUS + ["--seed", "5"])
    code2, payload2, _ = invoke(capsys, SMALL_CORPUS + ["--seed", "5"])
    assert code1 == code2 == 0
    assert payload1 == payload2


def test_sweep_walks_each_matroid_once(monkeypatch):
    # the spectral report lists the family before mason_report reads its
    # counts; the other order walks every non-explicit instance twice
    config = CorpusConfig(
        graphic_max_vertices=4, uniform_max_n=6, linear_count=20, explicit_count=30
    )
    expected = run_sweep(config)
    walks = log_walks(monkeypatch)
    assert run_sweep(config) == expected
    walked = [id(m) for m, _ in walks]
    assert walked and len(walked) == len(set(walked))


def test_six_vertex_graphs_are_one_per_isomorphism_class(capsys):
    # connected graphs on 1..6 vertices up to isomorphism: OEIS A001349
    found = [v for v, _ in connected_graphs(6)]
    assert [found.count(v) for v in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    code, payload, _ = invoke(
        capsys,
        [
            "corpus",
            "--graphic-max-vertices", "6",
            "--uniform-max-n", "0",
            "--linear-count", "0",
            "--explicit-count", "0",
        ],
    )
    assert code == 0
    ids = [row["id"] for row in payload["instances"]]
    assert sum(i.startswith("graphic-v6-") for i in ids) == 112


def _subparser(name):
    parser = cli._build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices[name]


def test_parser_is_the_single_source_of_settings():
    corpus = _subparser("corpus")
    for f in fields(CorpusConfig):
        flags = [a for a in corpus._actions if a.dest == f.name]
        assert len(flags) == 1, f.name
        assert flags[0].default == f.default, f.name
    parsed = cli._build_parser().parse_args(["corpus"])
    config = CorpusConfig(**{f.name: getattr(parsed, f.name) for f in fields(CorpusConfig)})
    assert config == CorpusConfig()


# -- shared plumbing ------------------------------------------------------------------


def test_output_flag_writes_file(write_json, capsys, tmp_path):
    target = tmp_path / "out.json"
    code = cli.main(
        ["rank-sequence", "--input", write_json("m.json", U23), "--output", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text())["sequence"] == [1, 3, 3, 0]


def test_stdout_json_is_compact_and_sorted(write_json, capsys):
    cli.main(["rank-sequence", "--input", write_json("m.json", U23)])
    raw = capsys.readouterr().out
    assert ": " not in raw
    keys = list(json.loads(raw))
    assert keys == sorted(keys)


def test_missing_file_is_input_error(capsys):
    code, payload, _ = invoke(capsys, ["validate", "--input", "/nonexistent/m.json"])
    assert code == 2
    assert payload["error"]["type"] == "FileError"


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("input_path", ["m.json", "/nonexistent/m.json"], ids=["ok", "unreadable"])
def test_unwritable_output_is_file_error_on_stdout(write_json, capsys, tmp_path, target, input_path):
    # the error object cannot go to --output either, so it goes to stdout
    write_json("m.json", U23)
    args = ["rank-sequence", "--input", str(tmp_path / input_path)]
    code, payload, err = invoke(capsys, args + ["--output", str(tmp_path / target)])
    assert code == 2
    assert payload["error"]["type"] == "FileError"
    assert payload["error"]["message"].startswith(f"cannot write {tmp_path / target}: ")
    assert err.count("\n") == 1


def cli_process(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-m", "matroidlc.cli", *args], env=env, **kwargs)


def assert_stdout_error(code, err):
    assert code == 3
    assert err.startswith("matroidlc: cannot write standard output: ")
    assert err.count("\n") == 1  # no traceback, nothing ignored at exit


def test_closed_stdout_pipe_is_exit_3(write_json):
    # about 270 kB of checks, more than a pipe holds
    path = write_json("m.json", {"kind": "uniform", "r": 5, "n": 10})
    proc = cli_process(
        ["certify-clc", "--input", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert_stdout_error(proc.wait(), err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_is_exit_3(write_json, tmp_path):
    path = write_json("m.json", U23)
    with open("/dev/full", "w") as full, open(tmp_path / "err", "w+") as err:
        code = cli_process(["rank-sequence", "--input", path], stdout=full, stderr=err).wait()
        err.seek(0)
        assert_stdout_error(code, err.read())


@pytest.mark.parametrize(
    "text",
    [
        b"{not json",
        b'{"n": ' + b"1" * 4301 + b"}",  # longer than int() reads
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 100_000,  # deeper than the decoder recurses
    ],
    ids=["syntax", "long-int", "encoding", "depth"],
)
def test_malformed_json_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_bytes(text)
    code, payload, _ = invoke(capsys, ["validate", "--input", str(path)])
    assert code == 2
    assert payload["error"]["type"] == "JSONError"


MATROID_COMMANDS = ("validate", "rank-sequence", "mason", "certify-clc", "spectral")


def explicit_ground(n):
    return {"kind": "explicit", "n": n, "sets": [[], [1]]}


@pytest.mark.parametrize("command", MATROID_COMMANDS)
@pytest.mark.parametrize("n", [cli.DEFAULT_ENUMERATION_LIMIT + 1, 200_000])
def test_explicit_ground_above_bound_is_refused_quickly(write_json, capsys, command, n):
    # the family of an explicit matroid is held in full, so its ground
    # size must meet the bound before any work is done
    path = write_json("m.json", explicit_ground(n))
    start = time.perf_counter()
    code = cli.main([command, "--input", path])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "EnumerationLimitExceeded"
    assert elapsed < 1.0


@pytest.mark.parametrize("command", MATROID_COMMANDS)
@pytest.mark.parametrize("bound", [cli.DEFAULT_ENUMERATION_LIMIT, cli.MAX_ENUMERATION_BOUND])
def test_explicit_ground_at_bound_is_accepted(write_json, capsys, command, bound):
    flag = ["--enumeration-bound", str(bound)]
    path = write_json("m.json", explicit_ground(bound))
    code, payload, _ = invoke(capsys, [command, "--input", path] + flag)
    assert code == 0
    assert "error" not in payload

    path = write_json("m.json", explicit_ground(bound + 1))
    code, payload, _ = invoke(capsys, [command, "--input", path] + flag)
    assert code == 2
    assert payload["error"]["type"] == "EnumerationLimitExceeded"


BOUND_COMMANDS = ("rank-sequence", "mason", "certify-clc", "spectral", "spectral --bases")


@pytest.mark.parametrize(
    "command, n, below",
    [pytest.param(command, 21, [], id=command) for command in BOUND_COMMANDS]
    # the certificate of a ground set below 2 elements needs no family,
    # but the bound is applied as the matroid is loaded
    + [pytest.param("certify-clc", 1, ["--enumeration-bound", "0"], id="certify-clc-U(1,1)")],
)
def test_enumeration_bound_flag(write_json, capsys, command, n, below):
    path = write_json("m.json", {"kind": "uniform", "r": 1, "n": n})
    argv = command.split() + ["--input", path]
    code, payload, _ = invoke(capsys, argv + below)
    assert code == 2
    assert payload["error"]["type"] == "EnumerationLimitExceeded"

    code, payload, _ = invoke(capsys, argv + ["--enumeration-bound", str(n)])
    assert code == 0
    assert "error" not in payload
    if command == "rank-sequence":
        assert payload["sequence"] == [1, n] + [0] * (n - 1)


def test_enumeration_bound_variable_is_ignored(write_json, capsys, monkeypatch):
    # the flag alone sets the bound
    monkeypatch.setenv("MATROIDLC_ENUMERATION_BOUND", "21")
    path = write_json("m.json", {"kind": "uniform", "r": 1, "n": 21})
    code, payload, _ = invoke(capsys, ["rank-sequence", "--input", path])
    assert code == 2
    assert payload["error"]["type"] == "EnumerationLimitExceeded"


def test_corpus_ignores_enumeration_bound_variable(capsys, monkeypatch):
    expected = invoke(capsys, SMALL_CORPUS)
    monkeypatch.setenv("MATROIDLC_ENUMERATION_BOUND", "not a number")
    assert invoke(capsys, SMALL_CORPUS) == expected
    assert expected[0] == 0


def test_enumeration_bound_hard_cap(write_json, capsys):
    big = write_json("big.json", {"kind": "uniform", "r": 1, "n": 21})
    code, payload, _ = invoke(
        capsys, ["rank-sequence", "--input", big, "--enumeration-bound", "25"]
    )
    assert code == 2
    assert payload["error"]["type"] == "UsageError"


@pytest.mark.parametrize(
    "bound, literal",
    [
        ("MAX_RATIONAL_EXPONENT", "1e6"),
        ("MAX_RATIONAL_EXPONENT", "1E-6"),
        ("MAX_RATIONAL_CHARS", "123456"),
    ],
)
def test_long_rational_literals_are_refused(write_json, capsys, monkeypatch, bound, literal):
    # the bound is lowered, so that small literals stand for huge ones
    monkeypatch.setattr(matroid_module, bound, 5)
    poly = {"nvars": 2, "terms": [{"exp": [2, 0], "coeff": literal}, {"exp": [0, 2], "coeff": "1"}]}
    linear = {"kind": "linear", "modulus": 0, "columns": [[literal], ["1"]]}
    sos = write_json("p.json", SOS_POLY)
    cases = [
        (["spectral", "--poly", sos, "--point", f"{literal},1"], "PointError"),
        (["certify-clc", "--poly", write_json("q.json", poly)], "SchemaError"),
        (["rank-sequence", "--input", write_json("m.json", linear)], "SchemaError"),
    ]
    for argv, type_name in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 2
        assert [json.loads(line)["error"]["type"] for line in lines] == [type_name]
        assert "Traceback" not in captured.err
    # a literal at the bound is read
    code, payload, _ = invoke(capsys, ["spectral", "--poly", sos, "--point", "1e5,1"])
    assert code != 2
    assert payload["point"] == ["100000", "1"]


def test_value_too_long_to_write_is_one_error_object(write_json, capsys):
    # x^5 + y^5 at (1e130, 1) has a 651-digit value, above the smallest
    # digit limit str() can be given; the default limit is 4300 digits
    quintic = {"nvars": 2, "terms": [{"exp": [5, 0], "coeff": "1"}, {"exp": [0, 5], "coeff": "1"}]}
    argv = ["spectral", "--poly", write_json("p.json", quintic), "--point", "1e130,1"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = cli.main(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert [json.loads(line)["error"]["type"] for line in lines] == ["OutputError"]
    assert "Traceback" not in captured.err


def test_witness_too_long_to_write_is_one_error_object(write_json, capsys, monkeypatch):
    # the report itself is short; only the witness is past the digit limit
    monkeypatch.setattr(cli, "is_negative_semidefinite", lambda q: NsdResult(False, (10**700, 1)))
    argv = ["spectral", "--poly", write_json("p.json", SOS_POLY)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = cli.main(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert [json.loads(line)["error"]["type"] for line in lines] == ["OutputError"]
    assert "Traceback" not in captured.err


_MONOMIAL = {"exp": [1, 1], "coeff": "1"}


@pytest.mark.parametrize(
    "flag, obj",
    [
        ("--input", {"kind": "uniform", "r": 2.9, "n": 3}),
        ("--input", {"kind": "uniform", "r": True, "n": 3}),
        ("--input", {"kind": "uniform", "r": 2, "n": 3.0}),
        ("--input", {"kind": "graphic", "vertices": 3, "edges": [[1.5, 2], [2, 3]]}),
        ("--input", {"kind": "graphic", "vertices": 3, "edges": [[1, True]]}),
        ("--input", {"kind": "graphic", "vertices": 3.0, "edges": [[1, 2]]}),
        ("--input", {"kind": "explicit", "n": 2.7, "sets": [[], [1], [2]]}),
        ("--input", {"kind": "explicit", "n": True, "sets": [[], [1]]}),
        ("--input", {"kind": "linear", "modulus": 2.0, "columns": [[1], [1]]}),
        ("--input", {"kind": "linear", "modulus": False, "columns": [[1], [1]]}),
        ("--poly", {"nvars": 2, "terms": [{"exp": [True, 1], "coeff": "1"}]}),
        ("--poly", {"nvars": 2, "terms": [{"exp": [1.0, 1], "coeff": "1"}]}),
        ("--poly", {"nvars": 2.9, "terms": [_MONOMIAL]}),
        ("--poly", {"nvars": True, "terms": [{"exp": [1], "coeff": "1"}]}),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else v,
)
def test_non_integer_fields_are_schema_errors(write_json, capsys, flag, obj):
    # int() would read 2.9 as 2 and true as 1 and certify another object
    path = write_json("in.json", obj)
    commands = ["certify-clc", "validate"] if flag == "--input" else ["certify-clc"]
    for command in commands:
        code, payload, err = invoke(capsys, [command, flag, path])
        assert (code, payload["error"]["type"]) == (2, "SchemaError")
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, name, obj",
    [
        (
            ["rank-sequence", "--input"],
            "m.json",
            {"kind": "linear", "modulus": 0, "columns": [["1/0", "1"]]},
        ),
        (
            ["certify-clc", "--poly"],
            "p.json",
            {"nvars": 2, "terms": [{"exp": [1, 1], "coeff": "1/0"}]},
        ),
    ],
)
def test_zero_denominator_is_schema_error(write_json, capsys, args, name, obj):
    code = cli.main(args + [write_json(name, obj)])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "SchemaError"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["mason", "--input", "m.json", "--bogus"],
        [],
        ["mason", "--seed", "x"],
        # refused before the 2^21 edge sets of seven vertices are searched
        ["corpus", "--graphic-max-vertices", "7"],
        # a random instance draws its size from 1..max
        ["corpus", "--linear-max-rows", "0"],
        ["corpus", "--linear-max-cols", "0"],
        ["corpus", "--explicit-max-n", "-1"],
        ["corpus", "--explicit-max-n", "0"],
        # past the enumeration bound of 20 once the sweep reaches them;
        # an explicit draw may contract a graphic base of n + 2 edges
        ["corpus", "--uniform-max-n", "21"],
        ["corpus", "--linear-max-cols", "21"],
        ["corpus", "--explicit-max-n", "19"],
        # corpus loads no matroid, so it has no enumeration bound
        ["corpus", "--enumeration-bound", "3"],
        # verdicts are exact, so no command takes a tolerance
        ["spectral", "--poly", "p.json", "--tolerance", "nan"],
        ["spectral", "--poly", "p.json", "--tolerance", "inf"],
        ["spectral", "--poly", "p.json", "--tolerance", "1e400"],
        ["corpus", "--tolerance", "nan"],
        ["corpus", "--tolerance=-inf"],
        # only corpus draws anything at random
        ["validate", "--input", "m.json", "--seed", "1"],
        ["rank-sequence", "--input", "m.json", "--seed", "1"],
        ["mason", "--input", "m.json", "--seed", "1"],
        ["certify-clc", "--poly", "p.json", "--seed", "1"],
        ["spectral", "--poly", "p.json", "--seed", "1"],
    ],
)
def test_usage_errors_are_json(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "UsageError"
    assert "Traceback" not in captured.err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_repeated_calls_match_fresh_processes(write_json, capsys, monkeypatch):
    # the parser is built once per process; later calls must not see
    # anything left behind by earlier ones, a usage error included
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    calls = [
        ["mason", "--input", "m.json", "--bogus"],
        ["--help"],
        ["certify-clc", "--poly", write_json("p.json", SOS_POLY)],
        SMALL_CORPUS,
    ]
    for args in calls:
        code = cli.main(args)
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "matroidlc.cli", *args],
            capture_output=True, text=True, env=env,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout)


def test_exact_commands_do_not_load_numpy(write_json):
    m = write_json("m.json", K3)
    script = (
        "import sys\n"
        "from matroidlc import cli\n"
        f"for command in {['validate', 'rank-sequence', 'mason', 'certify-clc']!r}:\n"
        f"    cli.main([command, '--input', {m!r}])\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_large_prime_modulus_accepted(write_json, capsys):
    columns = [[1, 0], [0, 1], [1, 1]]
    m = write_json("m.json", {"kind": "linear", "modulus": 10**18 + 9, "columns": columns})
    code, payload, _ = invoke(capsys, ["rank-sequence", "--input", m])
    assert code == 0
    assert payload["sequence"] == [1, 3, 3, 0]


def test_modulus_beyond_exact_primality_is_schema_error(write_json, capsys):
    m = write_json("m.json", {"kind": "linear", "modulus": 10**25, "columns": [[1]]})
    code, payload, _ = invoke(capsys, ["rank-sequence", "--input", m])
    assert code == 2
    assert payload["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("nvars, code", [(cli.MAX_POLY_NVARS, 0), (cli.MAX_POLY_NVARS + 1, 2)])
def test_poly_nvars_bound(write_json, capsys, nvars, code):
    square = {"exp": [2] + [0] * (nvars - 1), "coeff": "1"}
    p = write_json("p.json", {"nvars": nvars, "terms": [square]})
    got, payload, _ = invoke(capsys, ["spectral", "--poly", p])
    assert got == code
    if code == 2:
        assert payload["error"]["type"] == "SchemaError"
    else:
        assert len(payload["pair_matrix"]) == nvars
