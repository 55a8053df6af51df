"""Spans around the calls into each matroidlc module, recorded from outside.

``install(tracer)`` wraps the public functions listed in TARGETS (plus
the CLI's private ``_emit``, the only way to see output cost) and
rebinds every module-level name that refers to them, so calls made
inside the package are seen as well.  Spans are kept in memory as
[name, start_ns, end_ns, parent, op, tag] and written out at the end.

``layer_metrics`` turns the spans into the per-layer metrics.  A
``*_s`` metric is the self time of its spans: their duration minus the
part covered by wrapped calls nested inside them.  So the layer times
and ``bench.unattributed_s`` add up to the traced wall time.  The corpus
instance percentiles and family times are inclusive, per instance.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.counters: dict = defaultdict(float)

    def wrap(self, fn, name: str, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = before(self, args) if before else None
            record = [name, 0, 0, stack[-1] if stack else -1, self.op, tag]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after:
                after(self, tag, args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# -- counters ------------------------------------------------------------------


def _family_uncached(tracer, args):
    return getattr(args[0], "_family_cache", None) is None


def _count_family(tracer, uncached, args, result):
    if uncached:
        tracer.counters["matroid.independent_sets"] += len(result)


def _count_terms(tracer, tag, args, result):
    tracer.counters["polynomial.terms"] += len(result.terms)


def _matrix_dim(tracer, args):
    c = tracer.counters
    c["linalg.max_dim"] = max(c["linalg.max_dim"], args[0].dim)


def _count_certificate(tracer, tag, args, result):
    c = tracer.counters
    c["logconcavity.checks"] += len(result.checks)
    c["logconcavity.rejected"] += not result.accepted


def _count_matroid_certificate(tracer, tag, args, result):
    _count_certificate(tracer, tag, args, result)
    tracer.counters["logconcavity.contractions"] += len(result.quadratic_checks())


def _instance_family(tracer, args):
    return args[0].split("-")[0]


def _count_emitted(tracer, tag, args, result):
    path = args[0].output_path
    if path and os.path.exists(path):
        tracer.counters["cli.emitted_mb"] += os.path.getsize(path) / 1e6


# (module, attribute or Class.method, span name, before hook, after hook)
TARGETS = [
    ("corpus", "corpus_instances", "corpus.generate", None, None),
    ("corpus", "analyze_instance", "corpus.instance", _instance_family, None),
    ("matroid", "Matroid.independent_set_masks", "matroid.enumerate", _family_uncached, _count_family),
    ("matroid", "from_independence_family", "matroid.validate", None, None),
    ("matroid", "matroid_from_json", "matroid.load", None, None),
    ("polynomial", "independence_polynomial", "polynomial.build", None, _count_terms),
    ("polynomial", "bases_polynomial", "polynomial.build", None, _count_terms),
    ("polynomial", "bivariate_restriction", "polynomial.build", None, _count_terms),
    ("polynomial", "polynomial_from_json", "polynomial.build", None, _count_terms),
    ("polynomial", "SparsePolynomial.hessian", "polynomial.hessian", None, None),
    ("linalg", "is_negative_semidefinite", "linalg.nsd", _matrix_dim, None),
    ("linalg", "float_eigenvalues", "linalg.eigvalsh", _matrix_dim, None),
    ("logconcavity", "certify_clc_matroid", "logconcavity.certify_matroid", None, _count_matroid_certificate),
    ("logconcavity", "certify_clc_quadratic_criterion", "logconcavity.certify_poly", None, _count_certificate),
    ("logconcavity", "spectral_nd_report", "logconcavity.spectral", None, None),
    ("logconcavity", "verify_certificate_failure", "logconcavity.verify_failure", None, None),
    ("logconcavity", "CLCCertificate.to_json", "logconcavity.to_json", None, None),
    ("mason", "check_ultra_log_concave", "mason.counts_ulc", None, None),
    ("mason", "gurvits_minor_checks", "mason.minors", None, None),
    ("cli", "main", "cli.parse", None, None),
    ("cli", "run", "cli.run", None, None),
    ("cli", "_emit", "cli.emit", None, _count_emitted),
]


def install(tracer: Tracer) -> None:
    """Wrap every target; module functions are rebound wherever imported."""
    package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "matroidlc"]
    for module_name, attr, name, before, after in TARGETS:
        module = importlib.import_module(f"matroidlc.{module_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, member)
        traced = tracer.wrap(original, name, before, after)
        if owner_name:
            setattr(owner, member, traced)
            continue
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


# -- metrics -------------------------------------------------------------------

SELF_TIME_METRICS = {
    "corpus.generate": "corpus.generate_s",
    "matroid.enumerate": "matroid.enumerate_s",
    "matroid.validate": "matroid.validate_s",
    "matroid.load": "matroid.load_s",
    "polynomial.build": "polynomial.build_s",
    "polynomial.hessian": "polynomial.hessian_s",
    "linalg.nsd": "linalg.nsd_s",
    "linalg.eigvalsh": "linalg.eigvalsh_s",
    "logconcavity.certify_matroid": "logconcavity.certify_matroid_s",
    "logconcavity.spectral": "logconcavity.spectral_s",
    "logconcavity.certify_poly": "logconcavity.certify_poly_s",
    "logconcavity.verify_failure": "logconcavity.verify_failure_s",
    "logconcavity.to_json": "logconcavity.to_json_s",
    "mason.counts_ulc": "mason.counts_ulc_s",
    "mason.minors": "mason.minors_s",
    "cli.parse": "cli.parse_s",
    "cli.emit": "cli.emit_s",
}
FAMILIES = ("uniform", "graphic", "linear", "explicit")
COUNTERS = {
    "matroid.independent_sets": "count",
    "polynomial.terms": "count",
    "linalg.max_dim": "count",
    "logconcavity.checks": "count",
    "logconcavity.contractions": "count",
    "logconcavity.rejected": "count",
    "cli.emitted_mb": "MB",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for metric in SELF_TIME_METRICS.values():
        units[metric] = "s"
    units["corpus.instance_p50_ms"] = "ms"
    units["corpus.instance_p98_ms"] = "ms"
    for family in FAMILIES:
        units[f"corpus.family_s.{family}"] = "s"
    units.update(COUNTERS)
    units["bench.tracing_overhead_s"] = "s"
    units["bench.unattributed_s"] = "s"
    return units


def read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def nearest_rank(values: list, q: float) -> float:
    """The q-quantile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list, counters: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer values (no units) from one traced round."""
    covered = [0] * len(spans)
    for name, start, end, parent, op, tag in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns: dict = defaultdict(int)
    instances = []
    families: dict = defaultdict(int)
    for (name, start, end, parent, op, tag), inner in zip(spans, covered):
        self_ns[name] += end - start - inner
        if name == "corpus.instance":
            instances.append((end - start) / 1e6)
            families[tag] += end - start
    out = {metric: self_ns[name] / 1e9 for name, metric in SELF_TIME_METRICS.items()}
    out["corpus.instance_p50_ms"] = statistics.median(instances) if instances else 0.0
    out["corpus.instance_p98_ms"] = nearest_rank(instances, 0.98) if instances else 0.0
    for family in FAMILIES:
        out[f"corpus.family_s.{family}"] = families[family] / 1e9
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    out["bench.tracing_overhead_s"] = traced_wall - untraced_wall
    out["bench.unattributed_s"] = traced_wall - sum(self_ns[n] for n in SELF_TIME_METRICS) / 1e9
    return out
