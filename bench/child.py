"""One run process: set up, then issue one round of operations in turn.

    python3 child.py SRC MANIFEST RESULT [--setup-only] [--spans FILE]

Set-up is timed from this module's first statement: importing matroidlc
(which brings numpy and mpmath), then loading the manifest and reading
every input file.  Each operation is a call of ``matroidlc.cli.main``
with ``--output`` into the round's directory, timed on its own.  The
result file holds the set-up time, the per-operation exit codes, times
and tracebacks, the round's wall time and the process's peak RSS.
With ``--spans`` the round runs under the tracer and its spans are
written to FILE.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list) -> int:
    src, manifest_path, result_path = argv[:3]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None

    sys.path.insert(0, src)
    import matroidlc.cli as cli
    import mpmath  # noqa: F401
    import numpy  # noqa: F401

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"matroidlc imported from {cli.__file__}, not from {src}")
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    for path in manifest["inputs"]:
        Path(path).read_bytes()
    setup_s = time.perf_counter() - _T0

    result = {"setup_s": setup_s, "ops": []}
    if not setup_only:
        tracer = None
        if spans_path:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
            op_span = tracer.wrap(lambda a: cli.main(a), "bench.op")
        out_dir = Path(manifest["output_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        for op in manifest["ops"]:
            args = op["argv"] + ["--output", str(out_dir / f"{op['id']}.json")]
            error = None
            t = time.perf_counter_ns()
            try:
                if tracer:
                    tracer.op = op["id"]
                    rc = op_span(args)
                else:
                    rc = cli.main(args)
            except (Exception, SystemExit):
                rc, error = None, traceback.format_exc()
            elapsed_ms = (time.perf_counter_ns() - t) / 1e6
            result["ops"].append({"id": op["id"], "rc": rc, "ms": elapsed_ms, "error": error})
        result["wall_s"] = time.perf_counter() - start
        if tracer:
            tracer.write(spans_path)
            result["counters"] = dict(tracer.counters)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
