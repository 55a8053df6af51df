"""Seeded inputs for the three workloads.

``build(workload, seed, inputs_dir)`` writes the input files and returns
the operations of one round and of the warm-up.  An operation is a dict:

    id     unique within the round
    argv   the matroidlc command line, without --output
    check  (kind, model) handed to checks.check_op

The same seed always gives the same files and the same operations.  The
shapes of the inputs (sizes, ranks, degrees) are fixed; the seed picks
labellings, coefficients and points, so the work per round barely moves
between seeds.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import oracle

WORKLOADS = ("corpus", "scale", "poly")

# Connected simple graphs on 1..5 vertices up to isomorphism (OEIS A001349).
CONNECTED_GRAPHS = (1, 1, 2, 6, 21)


def corpus_size(graphic_max_vertices=5, uniform_max_n=12, linear_count=500, explicit_count=200):
    """Instances in a corpus sweep, by closed form; the defaults give 822."""
    uniform = sum(n + 1 for n in range(uniform_max_n + 1))
    return sum(CONNECTED_GRAPHS[:graphic_max_vertices]) + uniform + linear_count + explicit_count

# poly: random polynomials per (nvars, degree) cell, nvars and degree 2..6;
# every one is certified, one in SPECTRAL_EVERY also gets a spectral call.
RANDOM_PER_CELL = 40
RANDOM_MAX_TERMS = 12
SPECTRAL_EVERY = 4
POINT_PAIRS = 3
# Draws of each product of linear forms (nvars 3..6, degree 3..5).  They
# are the slowest operations, about 2% of a round, so that op_p99_ms falls
# among inputs of fixed shape rather than in the sparse tail of random ones.
PRODUCT_DRAWS = 4


class MatroidModel:
    """A matroid input and the benchmark's own facts about it."""

    def __init__(self, obj: dict):
        self.obj = obj
        sized_by = {"graphic": "edges", "linear": "columns"}.get(obj["kind"])
        self.n = len(obj[sized_by]) if sized_by else obj["n"]

    @cached_property
    def masks(self) -> list:
        obj = self.obj
        kind = obj["kind"]
        if kind == "uniform":
            n, r = obj["n"], obj["r"]
            return [
                sum(1 << i for i in combo)
                for k in range(r + 1)
                for combo in itertools.combinations(range(n), k)
            ]
        if kind == "graphic":
            return oracle.forest_masks(obj["vertices"], obj["edges"])
        if kind == "linear":
            return oracle.linear_masks(obj["columns"], obj["modulus"])
        return [sum(1 << (e - 1) for e in s) for s in obj["sets"]]

    @cached_property
    def sequence(self) -> list:
        if self.obj["kind"] == "uniform":
            return oracle.uniform_sequence(self.obj["r"], self.obj["n"])
        return oracle.sequence_of(self.masks, self.n)

    @cached_property
    def rank(self) -> int:
        return oracle.rank_of(self.sequence)

    @cached_property
    def axiom_failure(self):
        return oracle.axiom_failure(self.masks)


class PolyModel:
    """A polynomial input as {exponent tuple: Fraction}."""

    def __init__(self, nvars: int, terms: dict, known_clc: bool):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}
        self.known_clc = known_clc
        self.degree = max(sum(e) for e in self.terms)
        self.pairs: list = []  # (u, v) points for the midpoint check

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [{"exp": list(e), "coeff": str(c)} for e, c in sorted(self.terms.items())],
        }


# -- shared helpers ----------------------------------------------------------


class _Writer:
    def __init__(self, inputs_dir: Path):
        self.dir = inputs_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops: list = []

    def file(self, name: str, obj: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
        return str(path)

    def op(self, argv: list, kind: str, model) -> None:
        self.ops.append(
            {"id": f"{len(self.ops):04d}-{argv[0]}", "argv": argv, "check": (kind, model)}
        )


def _positive_point(rng: random.Random, nvars: int) -> list:
    return [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(nvars)]


def _point_arg(point: list) -> str:
    return ",".join(str(x) for x in point)


# -- corpus --------------------------------------------------------------------


def _corpus(seed: int, w: _Writer) -> list:
    # The expectation needs the program's generator; run.py fills it in.
    w.op(["corpus", "--seed", str(seed)], "corpus", None)
    return [
        {
            "id": "warmup-corpus",
            "argv": [
                "corpus", "--seed", str(seed), "--graphic-max-vertices", "3",
                "--uniform-max-n", "5", "--linear-count", "5", "--explicit-count", "5",
            ],
        }
    ]


# -- scale ---------------------------------------------------------------------


def _complete_graph(k: int) -> list:
    return [[a, b] for a, b in itertools.combinations(range(1, k + 1), 2)]


def _wheel(spokes: int) -> list:
    rim = list(range(2, spokes + 2))
    return [[1, v] for v in rim] + [[rim[i], rim[(i + 1) % spokes]] for i in range(spokes)]


def _relabel_graph(rng: random.Random, vertices: int, edges: list) -> dict:
    perm = list(range(1, vertices + 1))
    rng.shuffle(perm)
    relabelled = [[perm[a - 1], perm[b - 1]] for a, b in edges]
    rng.shuffle(relabelled)
    return {"kind": "graphic", "vertices": vertices, "edges": relabelled}


def _projective_points(dim: int, p: int) -> list:
    """Normalized nonzero vectors of GF(p)^dim: the points of PG(dim-1, p)."""
    return [
        list(v)
        for v in itertools.product(range(p), repeat=dim)
        if any(v) and next(x for x in v if x) == 1
    ]


def _scaled_columns(rng: random.Random, points: list, p: int) -> dict:
    cols = [[x * rng.randint(1, p - 1) % p for x in col] for col in points]
    rng.shuffle(cols)
    return {"kind": "linear", "modulus": p, "columns": cols}


def _rational_columns(rng: random.Random, rows: int, cols: int) -> dict:
    """A fixed random rational matrix (constant seed), columns shuffled by ``rng``."""
    fixed = random.Random(f"rational-{rows}-{cols}")
    columns = [
        [str(Fraction(fixed.randint(-6, 6), fixed.randint(1, 5))) for _ in range(rows)]
        for _ in range(cols)
    ]
    rng.shuffle(columns)
    return {"kind": "linear", "modulus": 0, "columns": columns}


def _explicit_near_limit(rng: random.Random, n: int, rows: int, p: int) -> dict:
    """Independent sets of n columns of GF(p)^rows, written out, labels shuffled.

    The columns are fixed (drawn once from a constant seed) so that every
    seed validates a family of the same shape; ``rng`` only relabels it.
    The family is a matroid by construction; the program sees only the
    sets and has to validate them, exhaustively since n is at its limit.
    """
    fixed = random.Random(f"explicit-{n}-{rows}-{p}")
    while True:
        cols = [[fixed.randrange(p) for _ in range(rows)] for _ in range(n)]
        masks = oracle.linear_masks(cols, p)
        if oracle.rank_of(oracle.sequence_of(masks, n)) == rows:
            break
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    sets = sorted(
        (sorted(labels[i] for i in range(n) if m >> i & 1) for m in masks),
        key=lambda s: (len(s), s),
    )
    return {"kind": "explicit", "n": n, "sets": sets}


def _scale(seed: int, w: _Writer) -> list:
    rng = random.Random(f"scale-{seed}")
    every = ("rank-sequence", "validate", "mason", "certify-clc")
    # op_p50_ms is the median of single timings, so it is steady only
    # where many operations take about as long as the median one, measured
    # at different moments.  Hence rank-sequence runs on one matroid of each
    # input kind only (elsewhere it took a few milliseconds), the wheel is
    # certified under six labellings (about 0.3 s each, near the median)
    # spread through the round, and the long U(8,16) certificate sits in
    # the middle, so the short operations sample two stretches of time.
    checked = ("validate", "mason", "certify-clc")
    wheels = [(f"wheel6-{i}", _relabel_graph(rng, 7, _wheel(6)), ("certify-clc",)) for i in range(5)]
    plan = [
        ("k6", _relabel_graph(rng, 6, _complete_graph(6)), checked),
        wheels[0],
        ("wheel6", _relabel_graph(rng, 7, _wheel(6)), checked),
        wheels[1],
        ("pg32", _scaled_columns(rng, _projective_points(4, 2), 2), checked),
        wheels[2],
        ("pg23", _scaled_columns(rng, _projective_points(3, 3), 3), ("mason", "certify-clc")),
        ("k7-minus-edge", _relabel_graph(rng, 7, _complete_graph(7)[1:]), ("rank-sequence",)),
        ("u10-20", {"kind": "uniform", "r": 10, "n": 20}, ("rank-sequence",)),
        ("u8-16", {"kind": "uniform", "r": 8, "n": 16}, ("certify-clc",)),
        ("rational", _rational_columns(rng, 4, 12), every),
        wheels[3],
        ("explicit16", _explicit_near_limit(rng, 16, 4, 3), every),
        wheels[4],
        ("u6-12", {"kind": "uniform", "r": 6, "n": 12}, ("validate", "mason")),
    ]
    for name, obj, commands in plan:
        path = w.file(f"{name}.json", obj)
        model = MatroidModel(obj)
        if name == "k6":
            model.closed_form = {5: 6**4}  # Cayley: K6 has 6^4 spanning trees
        for command in commands:
            w.op([command, "--input", path], command, model)
    warm = w.file("warmup.json", {"kind": "uniform", "r": 2, "n": 5})
    return [
        {"id": f"warmup-{command}", "argv": [command, "--input", warm]} for command in every
    ]


# -- poly ----------------------------------------------------------------------


def _random_poly(rng: random.Random, nvars: int, degree: int) -> PolyModel:
    terms = {}
    for _ in range(rng.randint(1, RANDOM_MAX_TERMS)):
        exp = [0] * nvars
        for _ in range(degree):
            exp[rng.randrange(nvars)] += 1
        if rng.random() < 0.5:
            coeff = Fraction(rng.randint(1, 9))
        else:
            coeff = Fraction(rng.randint(1, 9), rng.randint(2, 5))
        terms[tuple(exp)] = terms.get(tuple(exp), Fraction(0)) + coeff
    return PolyModel(nvars, terms, known_clc=False)


def _multiply(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return out


def _linear_product(rng: random.Random, nvars: int, degree: int) -> PolyModel:
    """A product of linear forms with positive coefficients (real stable)."""
    terms = {(0,) * nvars: Fraction(1)}
    for _ in range(degree):
        form = {
            tuple(int(i == j) for j in range(nvars)): Fraction(rng.randint(1, 5), rng.randint(1, 3))
            for i in range(nvars)
        }
        terms = _multiply(terms, form)
    return PolyModel(nvars, terms, known_clc=True)


def _elementary_symmetric(rng: random.Random, nvars: int, k: int) -> PolyModel:
    """e_k(c_1 x_1, ..., c_n x_n) with positive c_i (real stable)."""
    scale = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(nvars)]
    terms = {}
    for combo in itertools.combinations(range(nvars), k):
        coeff = Fraction(1)
        for i in combo:
            coeff *= scale[i]
        terms[tuple(int(i in combo) for i in range(nvars))] = coeff
    return PolyModel(nvars, terms, known_clc=True)


def _small_matroids(rng: random.Random) -> list:
    """Nine small matroids of fixed shapes, relabelled by the seed."""
    c4_chord_doubled = [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3], [1, 3]]
    fano_minus_two = _projective_points(3, 2)[:5]
    with_loop_and_copy = [[1, 0, 0], [0, 1, 0], [0, 0, 0], [1, 1, 0], [1, 1, 0]]
    return [
        {"kind": "uniform", "r": 2, "n": 4},
        {"kind": "uniform", "r": 2, "n": 5},
        {"kind": "uniform", "r": 3, "n": 5},
        _relabel_graph(rng, 4, _complete_graph(4)),
        _relabel_graph(rng, 4, _complete_graph(4)[1:]),
        _relabel_graph(rng, 4, c4_chord_doubled),
        _scaled_columns(rng, fano_minus_two, 2),
        _scaled_columns(rng, _projective_points(3, 3)[:5], 3),
        _scaled_columns(rng, with_loop_and_copy, 2),
    ]


def _poly(seed: int, w: _Writer) -> list:
    rng = random.Random(f"poly-{seed}")

    def add(name: str, model: PolyModel, spectral: bool = True) -> None:
        path = w.file(f"{name}.json", model.to_json())
        model.pairs = [
            (_positive_point(rng, model.nvars), _positive_point(rng, model.nvars))
            for _ in range(POINT_PAIRS)
        ]
        point = _positive_point(rng, model.nvars)
        w.op(["certify-clc", "--poly", path], "certify-poly", model)
        if spectral:
            w.op(["spectral", "--poly", path, "--point", _point_arg(point)], "spectral-poly", (model, point))

    cells = list(itertools.product(range(2, 7), repeat=2))
    for i in range(RANDOM_PER_CELL):
        for j, (nvars, degree) in enumerate(cells):
            model = _random_poly(rng, nvars, degree)
            add(f"random-{i:02d}-{nvars}-{degree}", model, (i * len(cells) + j) % SPECTRAL_EVERY == 0)
    for i in range(PRODUCT_DRAWS):
        for nvars, degree in itertools.product(range(3, 7), range(3, 6)):
            add(f"product-{i}-{nvars}-{degree}", _linear_product(rng, nvars, degree))
    for nvars in range(2, 7):
        for k in range(2, nvars + 1):
            add(f"esym-{nvars}-{k}", _elementary_symmetric(rng, nvars, k))
    for i, obj in enumerate(_small_matroids(rng)):
        model = MatroidModel(obj)
        n = model.n
        poly = PolyModel(n + 1, oracle.independence_terms(model.masks, n), known_clc=True)
        add(f"gm-{i:02d}", poly)
        path = w.file(f"matroid-{i:02d}.json", obj)
        w.op(["certify-clc", "--input", path], "certify-clc", model)
    return [dict(op, id=f"warmup-{op['id']}") for op in w.ops[:20]]


def build(workload: str, seed: int, inputs_dir: Path) -> tuple:
    """(round operations, warm-up operations) for one workload and seed."""
    w = _Writer(inputs_dir)
    warmup = {"corpus": _corpus, "scale": _scale, "poly": _poly}[workload](seed, w)
    return w.ops, [{"id": op["id"], "argv": op["argv"]} for op in warmup]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write one workload's inputs and list its operations.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args()
    ops, _ = build(args.workload, args.seed, Path(args.out))
    for op in ops:
        print(" ".join(["matroidlc"] + op["argv"]))
