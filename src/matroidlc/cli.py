"""File-driven command line front end emitting deterministic JSON.

Subcommands:

    validate        exact axiom check of a matroid file
    rank-sequence   independent-set counts by size
    mason           count sequence forms (i)/(ii)/(iii) plus certificate
    certify-clc     complete-log-concavity certificate for a matroid
                    (--input) or a raw polynomial (--poly)
    spectral        floating eigenvalue diagnostic at a point (default
                    all-ones); --bases switches a matroid input to its
                    bases polynomial
    corpus          generate-and-verify sweep over the built-in corpus

Machine-readable JSON goes to standard output (or --output FILE); a
one-line human summary goes to standard error.  JSON is compact with
sorted keys, so identical config and seed give byte-identical output.
Exit codes: 0 every verdict positive, 1 a verdict failed (the JSON
carries a re-verified witness), 2 usage or input error (the JSON is a
machine-readable error object; an --output file that cannot be written
is a FileError reported on standard output), 3 standard output cannot
be written (one line on standard error, no JSON).  The enumeration
bound, 20 elements by default and at most 24, is set per run with
--enumeration-bound and applied once, as a matroid is loaded: an
explicit n above it is refused before the family is built, rank-sequence
and mason count the independent sets there without listing them (a
uniform matroid by its binomials, with no walk), and certify-clc and
spectral list the family there.  corpus loads no matroid, so it takes
no bound; its size knobs have ceilings instead, checked before any work
(below).  A --poly input has at most MAX_POLY_NVARS = 25 variables, and
a rational literal is bounded by matroid.parse_rational; a result too
long to print is an OutputError.

The parser alone declares each setting: its flag, the namespace
attribute it lands in and its default.  Handlers read that namespace;
the corpus flags are generated from the CorpusConfig fields, which cap
--graphic-max-vertices at corpus.MAX_GRAPHIC_VERTICES = 6,
--uniform-max-n and --linear-max-cols at the default enumeration bound
20, and --explicit-max-n at 18 (an explicit draw may list a graphic base
of n + 2 edges).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import fields
from typing import Optional

from .corpus import SCHEMA_VERSION, SPECTRAL_TOLERANCE, CorpusConfig, run_sweep
from .errors import AxiomViolation, EmptyFamily, MatroidLCError
from .logconcavity import (
    certify_clc_matroid,
    certify_clc_quadratic_criterion,
    spectral_nd_report,
    verify_certificate_failure,
)
from .mason import mason_report
from .matroid import (
    DEFAULT_ENUMERATION_LIMIT,
    _validate_family,
    check_enumeration_bound,
    matroid_from_json,
    parse_rational,
)
from .polynomial import (
    bases_polynomial,
    independence_polynomial,
    polynomial_from_json,
)

MAX_ENUMERATION_BOUND = 24
# g_M of the largest enumerable ground set has this many variables; a
# --poly input may have no more, since its Hessian has nvars^2 entries.
MAX_POLY_NVARS = MAX_ENUMERATION_BOUND + 1


class _InputError(Exception):
    """Wraps any bad-input condition with a typed payload for exit 2."""

    def __init__(self, type_name: str, message: str):
        super().__init__(message)
        self.type_name = type_name


class _StdoutError(Exception):
    """Standard output cannot be written; main reports it with exit 3."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as _InputError instead of exiting; subparsers
    are built from the same class."""

    def error(self, message):
        raise _InputError("UsageError", message)


def _emit(args: argparse.Namespace, payload: dict, summary: str, checks=None) -> None:
    """Write the payload as one line of compact, key-sorted JSON.

    ``checks``, when given, yields the text of the payload's "checks"
    array (without brackets) in pieces; it sorts before every other
    key, so it is written first and never held whole.
    """
    payload.setdefault("schema_version", SCHEMA_VERSION)
    payload.setdefault("command", args.command)
    payload.setdefault("seed", args.seed)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if args.output_path:
        try:
            with open(args.output_path, "w", encoding="utf-8") as fh:
                _write_line(fh, text, checks)
        except OSError as exc:
            raise _InputError("FileError", f"cannot write {args.output_path}: {exc}") from exc
    else:
        try:
            _write_line(sys.stdout, text, checks)
            sys.stdout.flush()
        except OSError as exc:
            raise _StdoutError(exc) from exc
    print(summary, file=sys.stderr)


def _write_line(fh, text: str, checks) -> None:
    if checks is not None:
        fh.write('{"checks":[')
        for piece in checks:
            fh.write(piece)
        fh.write("],")
        text = text[1:]
    fh.write(text)
    fh.write("\n")


def _emit_error(args: argparse.Namespace, exc: Exception) -> int:
    type_name = getattr(exc, "type_name", type(exc).__name__)
    _emit(
        args,
        {"error": {"type": type_name, "message": str(exc)}},
        f"{args.command}: error: {exc}",
    )
    return 2


def _json_of(result) -> dict:
    """result.to_json(); an exact value with more digits than str()
    writes (sys.get_int_max_str_digits()) is an input error, raised
    before any output."""
    try:
        return result.to_json()
    except ValueError as exc:
        raise _InputError("OutputError", f"result cannot be written: {exc}") from exc


def _one_source(args: argparse.Namespace) -> None:
    if bool(args.input_path) == bool(args.poly_path):
        raise _InputError(
            "UsageError", f"{args.command} requires exactly one of --input or --poly"
        )


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _InputError("FileError", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, encoding, size or depth
        raise _InputError("JSONError", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise _InputError("SchemaError", f"{path}: top-level JSON object expected")
    return obj


def _load_matroid(args: argparse.Namespace, listed: bool = True):
    """The --input matroid, listed, or only counted when ``listed`` is
    false, under the run's bound."""
    if not args.input_path:
        raise _InputError("UsageError", "this command requires --input MATROID_JSON")
    m = _parse_matroid(_load_json(args.input_path), args.enumeration_bound)
    if listed:
        m.independent_set_masks(args.enumeration_bound)
    else:
        m.count_independent_by_size(args.enumeration_bound)
    return m


def _parse_matroid(obj: dict, bound: int):
    """Package errors, such as an AxiomViolation of an explicit family,
    propagate unchanged; run() reports each by its type name.  An explicit
    family is held in full, so its n must meet the bound before it is built."""
    try:
        n = obj.get("n") if obj.get("kind") == "explicit" else 0
        # matroid_from_json refuses an n that is not a JSON integer
        if isinstance(n, int):
            check_enumeration_bound(n, bound)
        return matroid_from_json(obj)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _InputError("SchemaError", f"bad matroid object: {exc}") from exc


def _load_polynomial(args: argparse.Namespace):
    obj = _load_json(args.poly_path)
    try:
        f = polynomial_from_json(obj)
    except MatroidLCError as exc:
        raise _InputError(type(exc).__name__, str(exc)) from exc
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _InputError("SchemaError", f"bad polynomial object: {exc}") from exc
    if f.nvars > MAX_POLY_NVARS:
        raise _InputError(
            "SchemaError", f"polynomial has {f.nvars} variables, at most {MAX_POLY_NVARS}"
        )
    return f


def _parse_point(text: str, nvars: int) -> tuple:
    try:
        coords = tuple(parse_rational(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError("PointError", f"cannot parse point {text!r}: {exc}") from exc
    if len(coords) != nvars:
        raise _InputError(
            "PointError", f"point has {len(coords)} coordinates, expected {nvars}"
        )
    return coords


# -- axiom witness re-verification ------------------------------------------


def _reverify_axiom_witness(obj: dict, axiom: str, witness) -> bool:
    """Check a validation counterexample directly against the raw family."""
    family = {frozenset(int(e) for e in s) for s in obj.get("sets", [])}
    smaller, larger = (frozenset(witness[0]), frozenset(witness[1]))
    if axiom == "downward-closure":
        return larger in family and smaller < larger and smaller not in family
    if axiom == "exchange":
        if smaller not in family or larger not in family:
            return False
        if len(larger) != len(smaller) + 1:
            return False
        return all(smaller | {i} not in family for i in larger - smaller)
    return False


# -- subcommand handlers -------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    if not args.input_path:
        raise _InputError("UsageError", "validate requires --input MATROID_JSON")
    obj = _load_json(args.input_path)
    try:
        m = _parse_matroid(obj, args.enumeration_bound)
    except (AxiomViolation, EmptyFamily) as exc:
        violation = {"message": str(exc)}
        if isinstance(exc, AxiomViolation):
            if not _reverify_axiom_witness(obj, exc.axiom, exc.witness):
                raise _InputError(
                    "ConsistencyError", "axiom witness failed re-verification"
                )
            violation.update(
                axiom=exc.axiom,
                witness={
                    "smaller": sorted(exc.witness[0]),
                    "larger": sorted(exc.witness[1]),
                },
                reverified=True,
            )
        else:
            violation["axiom"] = "nonempty"
        _emit(
            args,
            {"valid": False, "kind": "explicit", "violation": violation},
            f"validate: INVALID ({violation['axiom']})",
        )
        return 1
    if m.kind != "explicit" and m.n_elements <= args.enumeration_bound:
        # A loaded uniform, graphic or linear matroid has ground 1..n, so
        # its masks are already those of an explicit family on 1..n.
        _validate_family(m.independent_set_masks(args.enumeration_bound))
    _emit(
        args,
        {"valid": True, "kind": m.kind, "n": m.n_elements, "rank": m.rank},
        f"validate: OK (n={m.n_elements}, rank={m.rank})",
    )
    return 0


def _cmd_rank_sequence(args: argparse.Namespace) -> int:
    m = _load_matroid(args, listed=False)
    counts = m.count_independent_by_size()
    _emit(
        args,
        {
            "n": m.n_elements,
            "rank": m.rank,
            "sequence": list(counts),
            "total_independent": sum(counts),
        },
        f"rank-sequence: {list(counts)}",
    )
    return 0


def _cmd_mason(args: argparse.Namespace) -> int:
    # the sequence, the certificate's length and the minors read only the counts
    m = _load_matroid(args, listed=False)
    report = mason_report(m)
    ok = report.ulc.form3_all and report.certificate.accepted
    payload = report.to_json()
    payload["verdict"] = "pass" if ok else "fail"
    _emit(
        args,
        payload,
        "mason: sequence={} forms=({},{},{}) certificate={}".format(
            list(report.sequence),
            report.ulc.form1_all,
            report.ulc.form2_all,
            report.ulc.form3_all,
            report.certificate.verdict,
        ),
    )
    return 0 if ok else 1


def _cmd_certify_clc(args: argparse.Namespace) -> int:
    _one_source(args)
    if args.input_path:
        source = _load_matroid(args)
        cert = certify_clc_matroid(source)
    else:
        source = _load_polynomial(args)
        cert = certify_clc_quadratic_criterion(source)
    payload = _json_of(cert)
    if not cert.accepted:
        if not verify_certificate_failure(cert, source):
            raise _InputError("ConsistencyError", "witness failed re-verification")
        payload["failure"]["reverified"] = True
    _emit(
        args,
        payload,
        f"certify-clc: {cert.verdict} ({len(cert.checks)} checks)",
        cert._checks_json(),
    )
    return 0 if cert.accepted else 1


def _cmd_spectral(args: argparse.Namespace) -> int:
    _one_source(args)
    if args.input_path:
        m = _load_matroid(args)
        if args.use_bases:
            f = bases_polynomial(m)
        else:
            f = m if args.point is None else independence_polynomial(m)
    else:
        if args.use_bases:
            raise _InputError("UsageError", "--bases applies only to --input")
        f = _load_polynomial(args)
    point = None
    if args.point is not None:
        point = _parse_point(args.point, f.nvars)
    try:
        report = spectral_nd_report(f, point)
    except (MatroidLCError, TypeError, ValueError, OverflowError) as exc:
        raise _InputError(type(exc).__name__, str(exc)) from exc
    ok = report.max_eigenvalue <= args.spectral_tolerance
    payload = _json_of(report)
    payload["tolerance"] = args.spectral_tolerance
    payload["all_nonpositive"] = ok
    _emit(
        args,
        payload,
        f"spectral: max eigenvalue {report.max_eigenvalue:.3e} "
        f"({'<=' if ok else '>'} {args.spectral_tolerance:g})",
    )
    return 0 if ok else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    try:
        config = CorpusConfig(**{f.name: getattr(args, f.name) for f in fields(CorpusConfig)})
    except ValueError as exc:
        raise _InputError("UsageError", str(exc)) from exc
    result = run_sweep(config)
    failed = result["totals"]["failed"]
    _emit(
        args,
        result,
        "corpus: {} instances, {} passed, {} failed".format(
            result["totals"]["instances"], result["totals"]["passed"], failed
        ),
    )
    return 0 if failed == 0 else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "rank-sequence": _cmd_rank_sequence,
    "mason": _cmd_mason,
    "certify-clc": _cmd_certify_clc,
    "spectral": _cmd_spectral,
    "corpus": _cmd_corpus,
}


def run(args: argparse.Namespace) -> int:
    """Execute one command; always emits a JSON object before returning."""
    try:
        bound = args.enumeration_bound
        if bound is not None and not 0 <= bound <= MAX_ENUMERATION_BOUND:
            raise _InputError(
                "UsageError",
                f"enumeration bound must be 0..{MAX_ENUMERATION_BOUND}, "
                f"got {bound}",
            )
        return _HANDLERS[args.command](args)
    except (_InputError, MatroidLCError) as exc:
        try:
            return _emit_error(args, exc)
        except _InputError as failed:
            # the --output file cannot be written: report that on stdout
            return _emit_error(argparse.Namespace(**{**vars(args), "output_path": None}), failed)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; it is never mutated."""
    parser = _Parser(
        prog="matroidlc",
        description="Exact matroid log-concavity toolkit (JSON in, JSON out).",
    )
    # the sources, bound and spectral settings of the commands that take none
    parser.set_defaults(
        input_path=None, poly_path=None, enumeration_bound=None, point=None, use_bases=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, poly=False):
        if needs_input:
            p.add_argument("--input", dest="input_path", metavar="INPUT", help="matroid JSON file")
        p.add_argument(
            "--output", dest="output_path", metavar="OUTPUT",
            help="write JSON here instead of stdout",
        )
        if needs_input:  # corpus loads no matroid, so it has no bound to set
            p.add_argument(
                "--enumeration-bound", type=int, default=DEFAULT_ENUMERATION_LIMIT,
                help=f"max ground-set size for enumeration (<= {MAX_ENUMERATION_BOUND})",
            )
        p.add_argument("--seed", type=int, default=0, help="seed recorded in output")
        if poly:
            p.add_argument("--poly", dest="poly_path", metavar="POLY", help="polynomial JSON file")

    def finite_float(text):
        value = float(text)
        if not math.isfinite(value):  # not JSON, and nan fails every comparison
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        return value

    def tolerance(p, help):
        p.add_argument(
            "--tolerance", dest="spectral_tolerance", metavar="TOLERANCE",
            type=finite_float, default=SPECTRAL_TOLERANCE, help=help,
        )

    common(sub.add_parser("validate", help="axiom check"))
    common(sub.add_parser("rank-sequence", help="independent-set counts"))
    common(sub.add_parser("mason", help="sequence forms (i)/(ii)/(iii)"))
    common(sub.add_parser("certify-clc", help="complete log-concavity certificate"), poly=True)
    spectral = sub.add_parser("spectral", help="floating eigenvalue diagnostic")
    common(spectral, poly=True)
    spectral.add_argument(
        "--bases", dest="use_bases", action="store_true", help="use the bases polynomial"
    )
    spectral.add_argument("--point", help="comma-separated rational coordinates")
    tolerance(spectral, "max allowed eigenvalue")

    corpus = sub.add_parser("corpus", help="generate-and-verify sweep")
    common(corpus, needs_input=False)
    for f in fields(CorpusConfig):
        if f.name == "spectral_tolerance":
            tolerance(corpus, "spectral pass threshold")
        elif f.name != "seed":  # --seed is common to every command
            corpus.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        except _InputError as exc:
            # the run's settings are not known yet: report on stdout, seed 0
            command = next((a for a in argv if a in _HANDLERS), parser.prog)
            return _emit_error(argparse.Namespace(command=command, output_path=None, seed=0), exc)
        return run(args)
    except _StdoutError as exc:
        # what is still buffered goes to the null device, so that the
        # interpreter's flush at exit cannot fail again
        with contextlib.suppress(OSError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"matroidlc: cannot write standard output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
