"""Deterministic matroid corpus generation and verification sweeps.

The corpus mixes four sources: every connected simple graph on up to a
bounded number of vertices (one representative per isomorphism class),
every uniform matroid up to a bounded ground-set size, random linear
matroids over GF(2) and GF(3), and random explicit independence
families that are materialized from randomized constructions and then
re-validated against the matroid axioms from scratch.

Instance generation is seeded and fully deterministic: the same config
always yields the same instances in the same canonical id order, and
``run_sweep`` output serializes to byte-identical JSON across runs.
Each instance is pushed through the whole analysis pipeline (count
sequence forms, complete-log-concavity certificate, bivariate minor
determinants, spectral diagnostic) and summarized with a pass flag.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass
from typing import List, Tuple

from .logconcavity import spectral_nd_report
from .mason import mason_report
from .matroid import (
    DEFAULT_ENUMERATION_LIMIT, Matroid, from_independence_family, graphic, linear, uniform,
)

SCHEMA_VERSION = 1
# largest eigenvalue a spectral diagnostic may have and still pass
SPECTRAL_TOLERANCE = 1e-9
# connected graphs on 7 vertices would take 2^21 edge sets
MAX_GRAPHIC_VERTICES = 6


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs for corpus size; defaults match the reference sweep."""

    graphic_max_vertices: int = 5
    uniform_max_n: int = 12
    linear_count: int = 500
    linear_max_rows: int = 4
    linear_max_cols: int = 10
    explicit_count: int = 200
    explicit_max_n: int = 8
    seed: int = 0
    spectral_tolerance: float = SPECTRAL_TOLERANCE

    def __post_init__(self):
        # every instance is listed or counted under the default enumeration
        # bound, an explicit draw's graphic base of explicit_max_n + 2 edges too
        ceilings = {
            "graphic_max_vertices": MAX_GRAPHIC_VERTICES,
            "uniform_max_n": DEFAULT_ENUMERATION_LIMIT,
            "linear_max_cols": DEFAULT_ENUMERATION_LIMIT,
            "explicit_max_n": DEFAULT_ENUMERATION_LIMIT - 2,
        }
        for name, most in ceilings.items():
            if getattr(self, name) > most:
                raise ValueError(f"{name} must be at most {most}, got {getattr(self, name)}")
        # a random instance draws its size from 1..max
        for name in ("linear_max_rows", "linear_max_cols", "explicit_max_n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not math.isfinite(self.spectral_tolerance):
            raise ValueError(f"spectral_tolerance must be finite, got {self.spectral_tolerance}")

    def to_json(self) -> dict:
        return asdict(self)


# -- connected graphs up to isomorphism ---------------------------------


def connected_graphs(max_vertices: int) -> List[Tuple[int, tuple]]:
    """All connected simple graphs with <= max_vertices vertices, one
    per isomorphism class, with 0-based vertex pairs.

    An edge set is a mask over the vertex pairs in lexicographic order,
    so its set bits, ascending, are its sorted edge list.  A vertex
    relabeling moves the bit of {a, b} to that of {perm a, perm b}; the
    transposition (0 1) and the cycle (0 1 ... v-1) generate all
    relabelings, so a search along those two moves visits the whole
    orbit of an edge set, and every edge set is visited once.  The
    canonical representative of a class is the lexicographically
    smallest sorted edge list in its orbit.  It is connected when its
    graphic matroid has rank v - 1, the size of a spanning tree.
    """
    out = []
    for v in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(v), 2))
        index = {p: i for i, p in enumerate(pairs)}
        generators = ((1, 0) + tuple(range(2, v)), tuple(range(1, v)) + (0,))
        moves = [[index[tuple(sorted((g[a], g[b])))] for a, b in pairs] for g in generators]
        seen = bytearray(1 << len(pairs))
        found = []
        for start in range(1 << len(pairs)):
            if seen[start]:
                continue
            seen[start] = 1
            orbit = [start]
            for mask in orbit:
                for move in moves:
                    image = 0
                    for i, j in enumerate(move):
                        image |= (mask >> i & 1) << j
                    if not seen[image]:
                        seen[image] = 1
                        orbit.append(image)
            edges = min(tuple(p for i, p in enumerate(pairs) if m >> i & 1) for m in orbit)
            if _graphic_from_pairs(v, edges).rank == v - 1:
                found.append(edges)
        found.sort(key=lambda es: (len(es), es))
        out.extend((v, es) for es in found)
    return out


def _graphic_from_pairs(v: int, edges: tuple) -> Matroid:
    return graphic(v, [(a + 1, b + 1) for a, b in edges])


# -- random instances ------------------------------------------------------


def _random_linear(rng: random.Random, config: CorpusConfig):
    p = rng.choice((2, 3))
    rows = rng.randint(1, config.linear_max_rows)
    cols = rng.randint(1, config.linear_max_cols)
    columns = [[rng.randrange(p) for _ in range(rows)] for _ in range(cols)]
    return linear(columns, p), p


def _random_base_matroid(rng: random.Random, nmax: int) -> Matroid:
    style = rng.randrange(4)
    if style == 0:
        n = rng.randint(0, nmax)
        return uniform(rng.randint(0, n), n)
    if style == 1:
        n = rng.randint(1, nmax)
        v = rng.randint(2, 5)
        return graphic(v, [(rng.randint(1, v), rng.randint(1, v)) for _ in range(n)])
    if style == 2:
        n = rng.randint(1, nmax)
        p = rng.choice((2, 3))
        rows = rng.randint(1, 3)
        return linear([[rng.randrange(p) for _ in range(rows)] for _ in range(n)], p)
    n = rng.randint(2, nmax + 2)
    v = rng.randint(2, 5)
    base = graphic(v, [(rng.randint(1, v), rng.randint(1, v)) for _ in range(n)])
    candidates = [s for s in base.independent_sets() if 0 < len(s) <= 2]
    if candidates:
        j = sorted(candidates[rng.randrange(len(candidates))])
        if base.n_elements - len(j) <= nmax:
            return base.contract(j)
    return base if base.n_elements <= nmax else uniform(1, nmax)


def _random_explicit(rng: random.Random, config: CorpusConfig) -> Matroid:
    """A validated explicit family: materialize a randomized matroid,
    relabel its ground set to 1..n, and re-run full axiom validation."""
    base = _random_base_matroid(rng, config.explicit_max_n)
    labels = sorted(base.ground)
    remap = {lab: i + 1 for i, lab in enumerate(labels)}
    family = [frozenset(remap[e] for e in s) for s in base.independent_sets()]
    return from_independence_family(len(labels), family)


# -- sweep -------------------------------------------------------------------


def corpus_instances(config: CorpusConfig) -> List[Tuple[str, Matroid]]:
    """(id, matroid) pairs in canonical id order."""
    out = []
    per_v: dict = {}
    for v, edges in connected_graphs(config.graphic_max_vertices):
        idx = per_v.get(v, 0)
        per_v[v] = idx + 1
        out.append((f"graphic-v{v}-{idx:02d}", _graphic_from_pairs(v, edges)))
    for n in range(config.uniform_max_n + 1):
        for r in range(n + 1):
            out.append((f"uniform-r{r:02d}-n{n:02d}", uniform(r, n)))
    rng = random.Random(f"linear-{config.seed}")
    for i in range(config.linear_count):
        m, p = _random_linear(rng, config)
        out.append((f"linear-{i:03d}-gf{p}", m))
    rng = random.Random(f"explicit-{config.seed}")
    for i in range(config.explicit_count):
        out.append((f"explicit-{i:03d}", _random_explicit(rng, config)))
    out.sort(key=lambda t: t[0])
    return out


def analyze_instance(instance_id: str, m: Matroid, config: CorpusConfig) -> dict:
    """One-line-per-matroid summary of the full verification pipeline."""
    # the spectral report lists the family, and with it the counts that
    # mason_report reads; asked first, the counts would cost a second walk.
    # U(r, n) lists nothing: its pair counts, counts and rank are closed forms
    spectral = spectral_nd_report(m)
    report = mason_report(m)
    max_eig = spectral.max_eigenvalue
    minors_ok = all(c.nonpositive for c in report.minor_checks)
    passed = (
        report.ulc.form3_all
        and report.certificate.accepted
        and minors_ok
        and max_eig <= config.spectral_tolerance
    )
    return {
        "id": instance_id,
        "n": m.n_elements,
        "rank": m.rank,
        "sequence": list(report.sequence),
        "form1": report.ulc.form1_all,
        "form2": report.ulc.form2_all,
        "form3": report.ulc.form3_all,
        "certificate": report.certificate.verdict,
        "quadratic_checks": len(report.certificate.quadratic_checks()),
        "minors_nonpositive": minors_ok,
        "spectral_max_eigenvalue": max_eig,
        "passed": passed,
    }


def run_sweep(config: CorpusConfig) -> dict:
    """Generate the corpus, analyze every instance, summarize.

    The result is a plain dict of JSON-safe values with deterministic
    content and ordering for a given config.
    """
    results = [analyze_instance(iid, m, config) for iid, m in corpus_instances(config)]
    failures = [r["id"] for r in results if not r["passed"]]
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "config": config.to_json(),
        "totals": {
            "instances": len(results),
            "passed": len(results) - len(failures),
            "failed": len(failures),
        },
        "failures": failures,
        "instances": results,
    }
