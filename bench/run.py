"""matroidlc benchmark: run one workload on one seed, print one result line.

    python3 bench/run.py --workload {corpus,scale,poly} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is imported
from the checkout's ``src``.  Every run process is a fresh child with
PYTHONHASHSEED fixed and BLAS/OpenMP threads set to 1.  One warm-up
child runs first and is not measured.

--trace 0  Rounds of the workload's operations, one child per round,
           while the rounds so far predict the next one ends within S
           seconds (always at least one).  Set-up is sampled in every
           child and in set-up-only children until there are enough
           samples.  Prints the end-to-end metrics.
--trace 1  One untraced and one traced round; prints the per-layer
           metrics derived from the traced round's spans.

Every output is checked (outside the timed region) against the
benchmark's own computations; see checks.py.  The last line of standard
output is the JSON result.  Scratch files live under .bench_out/ in the
checkout; the traced round's spans stay there as spans.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


def _child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update((name, "1") for name in THREAD_VARIABLES)
    env.pop("PYTHONPATH", None)
    env.pop("MATROIDLC_ENUMERATION_BOUND", None)
    return env


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "matroidlc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def corpus_expectation(seed: int, **sizes) -> dict:
    """Definitions of the corpus instances, for the corpus check.

    The instances are taken from the program's own generator (the sweep
    is over what it generates); every fact about them is recomputed by
    the benchmark from their raw JSON descriptions.  ``sizes`` are
    CorpusConfig fields that workloads.corpus_size also takes.
    """
    sys.path.insert(0, str(SRC))
    from matroidlc.corpus import CorpusConfig, corpus_instances

    facts = {
        iid: workloads.MatroidModel(m.to_json())
        for iid, m in corpus_instances(CorpusConfig(seed=seed, **sizes))
    }
    return {"facts": facts, "instances": workloads.corpus_size(**sizes)}


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.seed = seed
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.ops, self.warmup = workloads.build(workload, seed, self.dir / "inputs")
        if workload == "corpus":
            self.ops[0]["check"] = ("corpus", corpus_expectation(seed))
        self.inputs = sorted(str(p) for p in (self.dir / "inputs").iterdir())
        self.children = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.digests: set = set()

    def _child(self, ops: list, *flags: str) -> tuple:
        """Run one child over ``ops``; returns (result, output dir)."""
        self.children += 1
        tag = f"child{self.children:02d}"
        out_dir = self.dir / tag
        manifest = self.dir / f"{tag}.manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "ops": [{"id": op["id"], "argv": op["argv"]} for op in ops],
                    "inputs": self.inputs,
                    "output_dir": str(out_dir),
                }
            ),
            encoding="utf-8",
        )
        result_path = self.dir / f"{tag}.result.json"
        stderr_path = self.dir / f"{tag}.stderr"
        cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(manifest), str(result_path)]
        with open(stderr_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                cmd + list(flags), cwd=ROOT, env=_child_env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                rc = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{tag} ran longer than {CHILD_TIMEOUT_S} s")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0:
            tail = stderr_path.read_text(encoding="utf-8").strip().splitlines()[-5:]
            raise BenchError(f"{tag} exited {rc}: " + " | ".join(tail))
        return json.loads(result_path.read_text(encoding="utf-8")), out_dir

    def warm_up(self) -> None:
        self._child(self.warmup)

    def setup_sample(self) -> float:
        return self._child([], "--setup-only")[0]["setup_s"]

    def round(self, *flags: str) -> dict:
        """One measured round, checked and counted; its outputs are removed."""
        result, out_dir = self._child(self.ops, *flags)
        for op, record in zip(self.ops, result["ops"]):
            self.attempted += 1
            problems = self._problems(op, record, out_dir)
            if problems:
                self.failed += 1
                _log(f"{op['id']}: " + "; ".join(problems[:3]))
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def _problems(self, op: dict, record: dict, out_dir: Path) -> list:
        if record["error"] is not None:
            return ["exception: " + record["error"].strip().splitlines()[-1]]
        path = out_dir / f"{op['id']}.json"
        try:
            raw = path.read_bytes()
            out = json.loads(raw)
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        if record["rc"] == 2:
            return [f"exit 2: {out.get('error')}"]
        problems = checks.check_op(op, record["rc"], out)
        if op["check"][0] == "corpus":
            problems += self._digest_problems(hashlib.sha256(raw).hexdigest())
        if problems:
            self.wrong.append(op["id"])
        return problems

    def _digest_problems(self, digest: str) -> list:
        """Every corpus run of one seed and one program emits one digest,
        within this invocation and across invocations in this checkout."""
        store = OUT / "corpus-digests" / f"{_code_digest()}-seed{self.seed}.sha256"
        store.parent.mkdir(parents=True, exist_ok=True)
        if not store.exists():
            store.write_text(digest, encoding="utf-8")
        self.digests.add(store.read_text(encoding="utf-8"))
        return checks.digest_problems(self.digests, digest)

    def finish(self, metrics: dict) -> dict:
        for path in self.dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif path.name != "spans.jsonl":
                path.unlink()
        if not any(self.dir.iterdir()):
            self.dir.rmdir()
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def end_to_end(bench: Bench, seconds: int) -> dict:
    rounds = []
    while True:
        rounds.append(bench.round())
        walls = [r["wall_s"] for r in rounds]
        _log(f"round {len(rounds)}: {walls[-1]:.3f} s")
        if sum(walls) + statistics.mean(walls) > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.setup_sample())
    op_ms = [op["ms"] for r in rounds for op in r["ops"]]
    # One round's time, each operation taken at its median over the
    # rounds, so that a slow spell of the machine during one round counts
    # only where it is not outvoted by the other rounds.
    per_op = zip(*([op["ms"] for op in r["ops"]] for r in rounds))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.median(times) for times in per_op) / 1e3,
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in rounds),
        "op_p50_ms": statistics.median(op_ms),
        "op_p99_ms": spans.nearest_rank(op_ms, 0.99),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(bench: Bench) -> dict:
    untraced = bench.round()
    spans_path = bench.dir / "spans.jsonl"
    traced = bench.round("--spans", str(spans_path))
    values = spans.layer_metrics(
        spans.read_spans(str(spans_path)),
        traced.get("counters", {}),
        traced["wall_s"],
        untraced["wall_s"],
    )
    units = spans.metric_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matroidlc" / "cli.py").is_file():
        print(f"bench: no matroidlc sources under {SRC}", file=sys.stderr)
        return 2
    try:
        bench = Bench(args.workload, args.seed, bool(args.trace))
        bench.warm_up()
        metrics = per_layer(bench) if args.trace else end_to_end(bench, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(bench.finish(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
