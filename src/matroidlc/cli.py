"""File-driven command line front end emitting deterministic JSON.

Subcommands:

    validate        axiom check of a matroid file
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
machine-readable error object).  The enumeration bound is capped at 24
elements; the default of 20 can be overridden per run with
--enumeration-bound or the MATROIDLC_ENUMERATION_BOUND variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .corpus import SCHEMA_VERSION, CorpusConfig, run_sweep
from .errors import (
    AxiomViolation,
    DimensionMismatch,
    EmptyFamily,
    MatroidLCError,
)
from .logconcavity import (
    certify_clc_matroid,
    certify_clc_quadratic_criterion,
    spectral_nd_report,
    verify_certificate_failure,
)
from .mason import mason_report
from .matroid import (
    DEFAULT_ENUMERATION_LIMIT,
    from_independence_family,
    matroid_from_json,
)
from .polynomial import (
    bases_polynomial,
    independence_polynomial,
    polynomial_from_json,
)

MAX_ENUMERATION_BOUND = 24
ENV_ENUMERATION_BOUND = "MATROIDLC_ENUMERATION_BOUND"


@dataclass
class RunConfig:
    """Everything one invocation needs, normalized from flags + env."""

    command: str
    input_path: Optional[str] = None
    poly_path: Optional[str] = None
    output_path: Optional[str] = None
    enumeration_bound: int = DEFAULT_ENUMERATION_LIMIT
    point: Optional[str] = None
    use_bases: bool = False
    tolerance: float = 1e-9
    seed: int = 0
    corpus: CorpusConfig = field(default_factory=CorpusConfig)


class _InputError(Exception):
    """Wraps any bad-input condition with a typed payload for exit 2."""

    def __init__(self, type_name: str, message: str):
        super().__init__(message)
        self.type_name = type_name


def _emit(config: RunConfig, payload: dict, summary: str) -> None:
    payload.setdefault("schema_version", SCHEMA_VERSION)
    payload.setdefault("command", config.command)
    payload.setdefault("seed", config.seed)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if config.output_path:
        Path(config.output_path).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    print(summary, file=sys.stderr)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _InputError("FileError", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError("JSONError", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise _InputError("SchemaError", f"{path}: top-level JSON object expected")
    return obj


def _load_matroid(config: RunConfig):
    if not config.input_path:
        raise _InputError("UsageError", "this command requires --input MATROID_JSON")
    obj = _load_json(config.input_path)
    try:
        return matroid_from_json(obj)
    except MatroidLCError as exc:
        raise _InputError(type(exc).__name__, str(exc)) from exc
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _InputError("SchemaError", f"bad matroid object: {exc}") from exc


def _load_polynomial(config: RunConfig):
    obj = _load_json(config.poly_path)
    try:
        return polynomial_from_json(obj)
    except MatroidLCError as exc:
        raise _InputError(type(exc).__name__, str(exc)) from exc
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _InputError("SchemaError", f"bad polynomial object: {exc}") from exc


def _parse_point(text: str, nvars: int) -> tuple:
    try:
        coords = tuple(Fraction(part.strip()) for part in text.split(","))
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


def _cmd_validate(config: RunConfig) -> int:
    if not config.input_path:
        raise _InputError("UsageError", "validate requires --input MATROID_JSON")
    obj = _load_json(config.input_path)
    kind = obj.get("kind")
    if kind == "explicit":
        try:
            sets = [[int(e) for e in s] for s in obj["sets"]]
            n = int(obj["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _InputError("SchemaError", f"bad explicit matroid: {exc}") from exc
        try:
            m = from_independence_family(n, sets, validate=True)
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
                config,
                {"valid": False, "kind": kind, "violation": violation},
                f"validate: INVALID ({violation.get('axiom')})",
            )
            return 1
    else:
        m = _load_matroid(config)
        if m.n_elements <= config.enumeration_bound:
            family = m.independent_sets(config.enumeration_bound)
            labels = sorted(m.ground)
            remap = {lab: i + 1 for i, lab in enumerate(labels)}
            from_independence_family(
                len(labels), [{remap[e] for e in s} for s in family], validate=True
            )
    _emit(
        config,
        {"valid": True, "kind": m.to_json()["kind"], "n": m.n_elements, "rank": m.rank},
        f"validate: OK (n={m.n_elements}, rank={m.rank})",
    )
    return 0


def _cmd_rank_sequence(config: RunConfig) -> int:
    m = _load_matroid(config)
    counts = m.count_independent_by_size(config.enumeration_bound)
    _emit(
        config,
        {
            "n": m.n_elements,
            "rank": m.rank,
            "sequence": list(counts),
            "total_independent": sum(counts),
        },
        f"rank-sequence: {list(counts)}",
    )
    return 0


def _cmd_mason(config: RunConfig) -> int:
    m = _load_matroid(config)
    report = mason_report(m, config.enumeration_bound)
    ok = report.ulc.form3_all and report.certificate.accepted
    payload = report.to_json(include_checks=False)
    payload["verdict"] = "pass" if ok else "fail"
    if not report.certificate.accepted and report.certificate.failure is not None:
        if not verify_certificate_failure(report.certificate, m):
            raise _InputError("ConsistencyError", "witness failed re-verification")
        payload["failure_witness"] = report.certificate.failure.to_json()
    _emit(
        config,
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


def _cmd_certify_clc(config: RunConfig) -> int:
    if bool(config.input_path) == bool(config.poly_path):
        raise _InputError(
            "UsageError", "certify-clc requires exactly one of --input or --poly"
        )
    if config.input_path:
        source = _load_matroid(config)
        cert = certify_clc_matroid(source, config.enumeration_bound)
    else:
        source = _load_polynomial(config)
        cert = certify_clc_quadratic_criterion(source)
    payload = cert.to_json(include_checks=True)
    if not cert.accepted:
        if not verify_certificate_failure(cert, source):
            raise _InputError("ConsistencyError", "witness failed re-verification")
        payload["failure"]["reverified"] = True
    _emit(
        config,
        payload,
        f"certify-clc: {cert.verdict} ({len(cert.checks)} checks)",
    )
    return 0 if cert.accepted else 1


def _cmd_spectral(config: RunConfig) -> int:
    if bool(config.input_path) == bool(config.poly_path):
        raise _InputError(
            "UsageError", "spectral requires exactly one of --input or --poly"
        )
    if config.input_path:
        m = _load_matroid(config)
        if config.use_bases:
            f = bases_polynomial(m, config.enumeration_bound)
        else:
            f = independence_polynomial(m, config.enumeration_bound)
    else:
        if config.use_bases:
            raise _InputError("UsageError", "--bases applies only to --input")
        f = _load_polynomial(config)
    point = None
    if config.point is not None:
        point = _parse_point(config.point, f.nvars)
    try:
        report = spectral_nd_report(f, point)
    except (MatroidLCError, TypeError, ValueError) as exc:
        raise _InputError(type(exc).__name__, str(exc)) from exc
    ok = report.max_eigenvalue <= config.tolerance
    payload = report.to_json()
    payload["tolerance"] = config.tolerance
    payload["all_nonpositive"] = ok
    _emit(
        config,
        payload,
        f"spectral: max eigenvalue {report.max_eigenvalue:.3e} "
        f"({'<=' if ok else '>'} {config.tolerance:g})",
    )
    return 0 if ok else 1


def _cmd_corpus(config: RunConfig) -> int:
    result = run_sweep(config.corpus)
    failed = result["totals"]["failed"]
    _emit(
        config,
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


def run(config: RunConfig) -> int:
    """Execute one command; always emits a JSON object before returning."""
    try:
        if not 0 <= config.enumeration_bound <= MAX_ENUMERATION_BOUND:
            raise _InputError(
                "UsageError",
                f"enumeration bound must be 0..{MAX_ENUMERATION_BOUND}, "
                f"got {config.enumeration_bound}",
            )
        return _HANDLERS[config.command](config)
    except _InputError as exc:
        _emit(
            config,
            {"error": {"type": exc.type_name, "message": str(exc)}},
            f"{config.command}: error: {exc}",
        )
        return 2
    except MatroidLCError as exc:
        _emit(
            config,
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            f"{config.command}: error: {exc}",
        )
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroidlc",
        description="Exact matroid log-concavity toolkit (JSON in, JSON out).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", help="matroid JSON file")
        p.add_argument("--output", help="write JSON here instead of stdout")
        p.add_argument(
            "--enumeration-bound",
            type=int,
            default=None,
            help=f"max ground-set size for enumeration (<= {MAX_ENUMERATION_BOUND})",
        )
        p.add_argument("--seed", type=int, default=0, help="seed recorded in output")

    common(sub.add_parser("validate", help="axiom check"))
    common(sub.add_parser("rank-sequence", help="independent-set counts"))
    common(sub.add_parser("mason", help="sequence forms (i)/(ii)/(iii)"))

    certify = sub.add_parser("certify-clc", help="complete log-concavity certificate")
    common(certify)
    certify.add_argument("--poly", help="polynomial JSON file")

    spectral = sub.add_parser("spectral", help="floating eigenvalue diagnostic")
    common(spectral)
    spectral.add_argument("--poly", help="polynomial JSON file")
    spectral.add_argument("--bases", action="store_true", help="use the bases polynomial")
    spectral.add_argument("--point", help="comma-separated rational coordinates")
    spectral.add_argument(
        "--tolerance", type=float, default=1e-9, help="max allowed eigenvalue"
    )

    corpus = sub.add_parser("corpus", help="generate-and-verify sweep")
    common(corpus, needs_input=False)
    defaults = CorpusConfig()
    corpus.add_argument(
        "--graphic-max-vertices", type=int, default=defaults.graphic_max_vertices
    )
    corpus.add_argument("--uniform-max-n", type=int, default=defaults.uniform_max_n)
    corpus.add_argument("--linear-count", type=int, default=defaults.linear_count)
    corpus.add_argument("--linear-max-rows", type=int, default=defaults.linear_max_rows)
    corpus.add_argument("--linear-max-cols", type=int, default=defaults.linear_max_cols)
    corpus.add_argument("--explicit-count", type=int, default=defaults.explicit_count)
    corpus.add_argument("--explicit-max-n", type=int, default=defaults.explicit_max_n)
    corpus.add_argument(
        "--tolerance", type=float, default=defaults.spectral_tolerance,
        help="spectral pass threshold",
    )
    return parser


def _resolve_bound(args: argparse.Namespace) -> int:
    if getattr(args, "enumeration_bound", None) is not None:
        return args.enumeration_bound
    env = os.environ.get(ENV_ENUMERATION_BOUND)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _InputError(
                "UsageError", f"{ENV_ENUMERATION_BOUND}={env!r} is not an integer"
            ) from exc
    return DEFAULT_ENUMERATION_LIMIT


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = RunConfig(command=args.command)
    try:
        config.enumeration_bound = _resolve_bound(args)
    except _InputError as exc:
        _emit(
            config,
            {"error": {"type": exc.type_name, "message": str(exc)}},
            f"{config.command}: error: {exc}",
        )
        return 2
    config.input_path = getattr(args, "input", None)
    config.poly_path = getattr(args, "poly", None)
    config.output_path = getattr(args, "output", None)
    config.point = getattr(args, "point", None)
    config.use_bases = getattr(args, "bases", False)
    config.tolerance = getattr(args, "tolerance", 1e-9)
    config.seed = getattr(args, "seed", 0)
    if args.command == "corpus":
        config.corpus = CorpusConfig(
            graphic_max_vertices=args.graphic_max_vertices,
            uniform_max_n=args.uniform_max_n,
            linear_count=args.linear_count,
            linear_max_rows=args.linear_max_rows,
            linear_max_cols=args.linear_max_cols,
            explicit_count=args.explicit_count,
            explicit_max_n=args.explicit_max_n,
            seed=config.seed,
            spectral_tolerance=args.tolerance,
        )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
