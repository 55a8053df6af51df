"""End-to-end tests of the matroidlc command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matroidlc import cli

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
    assert payload["schema_version"] == 1
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


def test_certify_polynomial_rejection_carries_verified_witness(write_json, capsys):
    code, payload, _ = invoke(
        capsys, ["certify-clc", "--poly", write_json("p.json", SOS_POLY)]
    )
    assert code == 1
    assert payload["verdict"] == "rejected"
    failure = payload["failure"]
    assert failure["witness"]["components"] == [[0], [1]]
    assert failure["reverified"] is True


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
    code, payload, _ = invoke(capsys, ["spectral", "--input", write_json("m.json", U23)])
    assert code == 0
    assert payload["all_nonpositive"] is True
    assert payload["max_eigenvalue"] == pytest.approx(-1 / 7)
    assert len(payload["eigenvalues"]) == 4


def test_spectral_flags_positive_eigenvalue(write_json, capsys):
    code, payload, _ = invoke(capsys, ["spectral", "--poly", write_json("p.json", SOS_POLY)])
    assert code == 1
    assert payload["max_eigenvalue"] == pytest.approx(1.0)
    assert payload["all_nonpositive"] is False


def test_spectral_point_parsing(write_json, capsys):
    code, payload, _ = invoke(
        capsys,
        ["spectral", "--poly", write_json("p.json", SOS_POLY), "--point", "1,2"],
    )
    assert code == 1
    assert payload["point"] == ["1", "2"]
    assert payload["value"] == "5"
    assert payload["pair_matrix"] == [["6", "-8"], ["-8", "-6"]]
    assert payload["max_eigenvalue"] == pytest.approx(0.4)


def test_spectral_tolerance_changes_exit_code(write_json, capsys):
    code, payload, _ = invoke(
        capsys,
        [
            "spectral",
            "--poly", write_json("p.json", SOS_POLY),
            "--tolerance", "2.0",
        ],
    )
    assert code == 0
    assert payload["tolerance"] == 2.0


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


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text("{not json")
    code, payload, _ = invoke(capsys, ["validate", "--input", str(path)])
    assert code == 2
    assert payload["error"]["type"] == "JSONError"


def test_enumeration_bound_flag_and_env(write_json, capsys, monkeypatch):
    big = write_json("big.json", {"kind": "uniform", "r": 1, "n": 21})
    code, payload, _ = invoke(capsys, ["rank-sequence", "--input", big])
    assert code == 2
    assert payload["error"]["type"] == "EnumerationLimitExceeded"

    code, payload, _ = invoke(
        capsys, ["rank-sequence", "--input", big, "--enumeration-bound", "21"]
    )
    assert code == 0
    assert payload["sequence"] == [1, 21] + [0] * 20

    monkeypatch.setenv(cli.ENV_ENUMERATION_BOUND, "21")
    code, payload, _ = invoke(capsys, ["rank-sequence", "--input", big])
    assert code == 0


def test_enumeration_bound_hard_cap(write_json, capsys):
    big = write_json("big.json", {"kind": "uniform", "r": 1, "n": 21})
    code, payload, _ = invoke(
        capsys, ["rank-sequence", "--input", big, "--enumeration-bound", "25"]
    )
    assert code == 2
    assert payload["error"]["type"] == "UsageError"


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
    "args", [["mason", "--input", "m.json", "--bogus"], [], ["mason", "--seed", "x"]]
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
