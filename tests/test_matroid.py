"""Matroid construction, validation, queries, and contraction."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import (
    brute_rank,
    k3,
    mask_of,
    oracle_family,
    parallel_pair_plus_free,
    powerset,
    single_loop,
    sparse_contraction,
    zoo,
)
from matroidlc import (
    AxiomViolation,
    ElementOutOfRange,
    EmptyFamily,
    EnumerationLimitExceeded,
    InvalidRank,
    InvalidVertexIndex,
    NonPrimeModulus,
    NotIndependent,
    bases_polynomial,
    bivariate_restriction,
    certify_clc_matroid,
    from_independence_family,
    graphic,
    independence_polynomial,
    linear,
    mason_report,
    matroid_from_json,
    uniform,
)
from matroidlc.matroid import (
    MAX_PRIME_MODULUS,
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    UniformMatroid,
    _extensions,
    _is_prime,
    _mask_bits,
)


def _classes(m, jmask=0):
    """Non-loops of M/J and their class indices, by the certificate's
    class pass over the extension map of the listed family."""
    return m._classes_after(jmask, _extensions(m.independent_set_masks()).__getitem__)


# -- spec'd count and family examples -----------------------------------


def test_uniform_2_3_counts():
    assert uniform(2, 3).count_independent_by_size() == (1, 3, 3, 0)


def test_uniform_0_2_all_loops():
    m = uniform(0, 2)
    assert m.count_independent_by_size() == (1, 0, 0)
    assert _classes(m) == ((), ())


def test_uniform_3_3_free():
    assert sum(uniform(3, 3).count_independent_by_size()) == 8


def test_single_loop_matroid():
    m = single_loop()
    assert m.count_independent_by_size() == (1, 0)
    assert _classes(m) == ((), ())


def test_parallel_pair_plus_free_counts_and_classes():
    m = parallel_pair_plus_free()
    assert m.count_independent_by_size() == (1, 3, 2, 0)
    assert _classes(m) == ((1, 2, 3), (0, 0, 1))


def test_k3_counts():
    assert k3().count_independent_by_size() == (1, 3, 3, 0)


def test_parallel_edges_form_class():
    m = graphic(2, [(1, 2), (1, 2)])
    assert m.rank_of([1, 2]) == 1
    assert _classes(m) == ((1, 2), (0, 0))


def test_self_loop_edge_is_loop():
    m = graphic(2, [(1, 1), (1, 2)])
    assert _classes(m) == ((2,), (0,))
    assert not m.is_independent([1])


def test_linear_gf2_matches_uniform():
    m = linear([[1, 0], [0, 1], [1, 1]], 2)
    assert m.independent_set_masks() == uniform(2, 3).independent_set_masks()


def test_linear_zero_column_is_loop():
    m = linear([[0, 0], [1, 0]], 3)
    assert _classes(m) == ((2,), (0,))


def test_linear_equal_columns_parallel():
    m = linear([[1, 1], [1, 1], [0, 1]], 0)
    assert m.rank_of([1, 2]) == 1
    assert _classes(m) == ((1, 2, 3), (0, 0, 1))


# -- axiom violations --------------------------------------------------------


def test_downward_closure_violation_witness():
    with pytest.raises(AxiomViolation) as exc:
        from_independence_family(2, [[], [2], [1, 2]])
    assert exc.value.axiom == "downward-closure"
    assert exc.value.witness == (frozenset({1}), frozenset({1, 2}))


def test_exchange_violation():
    with pytest.raises(AxiomViolation) as exc:
        from_independence_family(3, [[], [1], [2], [1, 2], [3]])
    assert exc.value.axiom == "exchange"


def test_empty_family():
    with pytest.raises(EmptyFamily):
        from_independence_family(2, [])
    with pytest.raises(EmptyFamily):
        ExplicitMatroid(2, [])


def test_constructor_input_errors():
    with pytest.raises(InvalidRank):
        uniform(3, 2)
    with pytest.raises(InvalidRank):
        uniform(-1, 2)
    with pytest.raises(InvalidRank):
        uniform(True, 2)
    with pytest.raises(InvalidVertexIndex):
        graphic(2, [(1, 3)])
    with pytest.raises(InvalidVertexIndex):
        graphic(2, [(True, 2)])
    with pytest.raises(NonPrimeModulus):
        linear([[1], [0]], 4)


@pytest.mark.parametrize(
    "cls, args, error",
    [
        (UniformMatroid, (5, 3), InvalidRank),
        (UniformMatroid, (1, -1), InvalidRank),
        (GraphicMatroid, (2, [(1, 5)]), InvalidVertexIndex),
        (GraphicMatroid, (-1, []), InvalidVertexIndex),
        (LinearMatroid, ([[2], [3]], 6), NonPrimeModulus),
        (LinearMatroid, ([[1]], MAX_PRIME_MODULUS + 1), ValueError),
        (LinearMatroid, ([[1], [1, 0]], 2), ValueError),
    ],
)
def test_direct_construction_checks_its_arguments(cls, args, error):
    # the factories are the classes, so no way of building a Matroid
    # skips the checks and describes an object that is not a matroid
    assert (uniform, graphic, linear) == (UniformMatroid, GraphicMatroid, LinearMatroid)
    with pytest.raises(error):
        cls(*args)


def test_primality_is_exact_and_fast():
    small = [n for n in range(2, 3000) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(3000) if _is_prime(n)] == small
    # a Carmichael number, and a strong pseudoprime to every prime base up to 23
    for composite in (561, 3825123056546413051):
        with pytest.raises(NonPrimeModulus):
            linear([[1], [0]], composite)
    big = 10**18 + 9
    start = time.perf_counter()
    m = linear([[1, 0], [0, 1], [1, 1]], big)
    assert m.count_independent_by_size() == (1, 3, 3, 0)
    assert time.perf_counter() - start < 5


def test_modulus_beyond_exact_primality_rejected():
    with pytest.raises(ValueError):
        linear([[1], [0]], MAX_PRIME_MODULUS + 1)


def test_element_out_of_range():
    with pytest.raises(ElementOutOfRange):
        uniform(2, 3).is_independent([4])
    with pytest.raises(ElementOutOfRange):
        uniform(2, 3).rank_of([0])
    with pytest.raises(ElementOutOfRange):
        uniform(2, 4).is_independent([True, 2])
    with pytest.raises(ElementOutOfRange):
        ExplicitMatroid(2, [0, 0b100])


# -- brute-force cross-validation ------------------------------------------


@pytest.mark.parametrize("m", zoo(), ids=lambda m: repr(m))
def test_independence_and_rank_match_bruteforce(m):
    family = m.independent_set_masks()
    sets = {frozenset(s) for s in m.independent_sets()}
    ground = m.ground
    for subset in powerset(ground):
        subset = frozenset(subset)
        assert m.is_independent(subset) == (subset in sets)
        assert m.rank_of(subset) == brute_rank(sets, subset)
    assert oracle.axiom_failure(family) is None
    assert len(family) == len(sets)


def _assert_contraction_extensions(c, j, sets):
    ext = _extensions(c.independent_set_masks())
    assert ext.keys() == {mask_of(s - j) for s in sets if j <= s}
    for a in (s - j for s in sets if j <= s):
        free = [x for x in c.ground if x not in a and j | a | {x} in sets]
        assert ext[mask_of(a)] == mask_of(free)


# fresh instances per test: queries on them take the one-step rule, not
# the cached family (an explicit matroid holds its family from the start)
FRESH = pytest.mark.parametrize("index", range(len(zoo())), ids=[repr(m) for m in zoo()])


@FRESH
def test_unenumerated_queries_match_bruteforce(index):
    m = zoo()[index]
    sets = oracle_family(m)
    for subset in powerset(m.ground):
        subset = frozenset(subset)
        assert m.is_independent(subset) == (subset in sets)
        assert m.rank_of(subset) == brute_rank(sets, subset)
    assert m.rank == brute_rank(sets, m.ground)
    assert m._family_cache is None or m.kind == "explicit"
    _assert_contraction_extensions(m, frozenset(), sets)


@FRESH
def test_unenumerated_contractions_match_bruteforce(index):
    base = zoo()[index]
    sets = oracle_family(base)
    for j in sets:
        c = base.contract(j)
        rest = [x for x in base.ground if x not in j]
        assert list(c.ground) == rest
        for t in powerset(rest):
            t = frozenset(t)
            assert c.is_independent(t) == (j | t in sets)
            assert c.rank_of(t) == brute_rank(sets, j | t) - len(j)
        assert c.rank == base.rank - len(j)
        _assert_contraction_extensions(c, j, sets)
        csets = {frozenset(s) for s in c.independent_sets()}
        assert csets == {s - j for s in sets if j <= s}
        if j:
            first = min(j)
            twice = base.contract([first]).contract(j - {first})
            assert {frozenset(s) for s in twice.independent_sets()} == csets
            assert twice.rank == c.rank
    assert base._family_cache is None or base.kind == "explicit"
    # a listed base changes nothing: contractions still step from its rule
    base.independent_set_masks()
    for j in sets:
        _assert_contraction_extensions(base.contract(j), j, sets)


def test_graphic_family_matches_cycle_oracle():
    edges = [(1, 2), (1, 3), (2, 3), (2, 3), (1, 1)]
    m = graphic(3, edges)
    assert m.independent_set_masks() == frozenset(oracle.forest_masks(3, edges))


def test_graphic_state_covers_only_occurring_endpoints():
    # vertices 2 and 4..100000 touch no edge
    edges = [(1, 3), (3, 5), (5, 1), (5, 5), (1, 3)]
    m = graphic(100_000, edges)
    assert len(m._start()) <= len({x for e in edges for x in e}) == 3
    assert m.independent_set_masks() == frozenset(oracle.forest_masks(100_000, edges))
    assert m.to_json()["vertices"] == 100_000


@pytest.mark.parametrize("modulus", [0, 2, 3, 5])
def test_linear_family_matches_gaussian_oracle(modulus):
    rng = random.Random(modulus + 17)
    top = modulus if modulus else 4
    cases = [[[rng.randrange(top) for _ in range(3)] for _ in range(6)]]
    if not modulus:
        # signed rational columns, the last a combination of the first two
        for height in range(2, 6):
            cols = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(height)]
                for _ in range(6)
            ]
            cols.append([x - Fraction(3, 2) * y for x, y in zip(cols[0], cols[1])])
            cases.append(cols)
    for columns in cases:
        m = linear(columns, modulus)
        assert m.independent_set_masks() == frozenset(oracle.linear_masks(columns, modulus))


@pytest.mark.parametrize("m", [m for m in zoo() if m.kind == "linear"], ids=repr)
def test_linear_states_hold_integer_rows(m):
    """Each state row is ints with its first nonzero entry at its k: a
    1 over GF(p), and a primitive row over Q."""
    for mask in m.independent_set_masks():
        for k, row in m._state_of(mask):
            assert all(type(x) is int for x in row)
            assert not any(row[:k]) and row[k]
            if m.modulus:
                assert row[k] == 1
                assert all(0 <= x < m.modulus for x in row)
            else:
                assert math.gcd(*row) == 1


@pytest.mark.parametrize("m", zoo(), ids=lambda m: repr(m))
def test_constructors_pass_explicit_validation(m):
    labels = sorted(m.ground)
    remap = {lab: i + 1 for i, lab in enumerate(labels)}
    family = [{remap[e] for e in s} for s in m.independent_sets()]
    rebuilt = from_independence_family(len(labels), family)
    assert sum(rebuilt.count_independent_by_size()) == sum(m.count_independent_by_size())


def test_counts_sum_and_first_entry():
    for m in zoo():
        counts = m.count_independent_by_size()
        assert counts[0] == 1
        assert sum(counts) == len(m.independent_set_masks())
        assert all(c == 0 for c in counts[m.rank + 1 :])


# -- the walk: counts as it goes, lists only when asked ------------------------


def _walk_cases():
    """Fresh instances: zoo() and every U(r, n) with n <= 10."""
    return zoo() + [uniform(r, n) for n in range(11) for r in range(n + 1)]


def _walk_id(m):
    return f"U({m.r},{m.n_elements})" if m.kind == "uniform" else repr(m)


def _assert_walks_agree(m, masks):
    """The counting walk (or the held family), the listing walk's counts
    and list, and the sizes of the family all match the oracle's masks."""
    expected = tuple(oracle.sequence_of(masks, m.n_elements))
    assert m.count_independent_by_size() == expected
    found = []
    assert tuple(m._walk(found)) == expected
    assert sorted(found) == sorted(masks)
    assert tuple(oracle.sequence_of(m.independent_set_masks(), m.n_elements)) == expected


@pytest.mark.parametrize(
    "index", range(len(_walk_cases())), ids=[_walk_id(m) for m in _walk_cases()]
)
def test_counting_and_listing_walks_agree(index):
    m = _walk_cases()[index]
    counts = m.count_independent_by_size()
    # counting leaves the family unlisted
    assert m._family_cache is None or m.kind == "explicit"
    if m.kind == "uniform":
        n = m.n_elements
        assert counts == tuple(math.comb(n, k) if k <= m.r else 0 for k in range(n + 1))
    masks = [mask_of(s) for s in oracle_family(m)]
    _assert_walks_agree(m, masks)
    contractions = [(j, [x ^ j for x in masks if x & j == j]) for j in masks]
    for base_listed in (False, True):
        base = _walk_cases()[index]
        if base_listed:
            base.independent_set_masks()
        for j, below in contractions:
            _assert_walks_agree(base.contract(_mask_bits(j)), below)


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("listed", [False, True], ids=["counted", "listed"])
def test_walk_never_extends_a_basis(n, listed):
    # one step per nonempty independent set of U(r, n), once the rank is known
    for r in range(n + 1):
        m = uniform(r, n)
        assert m.rank == r
        steps = m._extend
        calls = []

        def counted(state, e):
            calls.append(e)
            return steps(state, e)

        m._extend = counted
        if listed:
            m.independent_set_masks()
        else:
            # the counting walk itself; U(r, n) counts by its binomials
            m._walk()
        assert len(calls) == sum(math.comb(n, j) for j in range(1, r + 1))


@pytest.mark.parametrize("n", range(11))
def test_uniform_counts_and_rank_take_no_step(n):
    for r in range(n + 1):
        m = uniform(r, n)
        calls = []
        steps = m._extend

        def counted(state, e):
            calls.append(e)
            return steps(state, e)

        m._extend = counted
        counts = m.count_independent_by_size()
        assert counts == tuple(math.comb(n, k) if k <= r else 0 for k in range(n + 1))
        assert m.rank == r
        assert calls == []
        assert m._family_cache is None
        assert m.count_independent_by_size() is counts


def test_uniform_counts_keep_the_bound():
    big = uniform(1, 21)
    with pytest.raises(EnumerationLimitExceeded):
        big.count_independent_by_size()
    assert big.count_independent_by_size(21) == U_1_21_COUNTS
    # a cached tuple is returned whatever the limit
    assert big.count_independent_by_size() == U_1_21_COUNTS
    assert big._family_cache is None


def test_uniform_listing_fills_the_counts():
    # the walk that lists U(r, n) counts it as well, so a held family
    # always comes with its counts, and the binomials are taken only
    # when neither is held
    m = uniform(2, 4)
    family = m.independent_set_masks()
    sizes = tuple(sum(f.bit_count() == k for f in family) for k in range(5))
    assert m._counts_cache == sizes == (1, 4, 6, 0, 0)
    assert m.count_independent_by_size() is m._counts_cache


def _reference_mask_bits(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def test_mask_bits_match_reference():
    rng = random.Random(23)
    masks = [0, 1, 2, 3, (1 << 300) - 1, 1 << 299]
    masks += [rng.getrandbits(rng.randint(1, 300)) for _ in range(2000)]
    for mask in masks:
        assert _mask_bits(mask) == _reference_mask_bits(mask)


def test_mask_bits_is_linear_in_the_mask_length():
    # one shift per bit is quadratic in the length of the mask
    start = time.perf_counter()
    assert len(_mask_bits((1 << 1_000_000) - 1)) == 1_000_000
    assert _mask_bits(1 << 999_999) == (1_000_000,)
    assert time.perf_counter() - start < 5.0


# -- parallel partition invariants ------------------------------------------


@pytest.mark.parametrize("m", zoo(), ids=lambda m: repr(m))
def test_pair_ranks_define_classes(m):
    nonloops, pattern = _classes(m)
    for i in m.ground:
        assert (m.rank_of([i]) == 0) == (i not in nonloops)
    for a, class_a in zip(nonloops, pattern):
        for b, class_b in zip(nonloops, pattern):
            if a < b:
                assert (m.rank_of([a, b]) == 1) == (class_a == class_b)


@pytest.mark.parametrize(
    "sets, axiom",
    [
        # 2 would be parallel to 1 and to 3, which are not parallel
        ([[], [1], [2], [3], [1, 3]], "exchange"),
        # 3 would be parallel to 1 and to 2, which are not parallel
        ([[], [1], [2], [3], [1, 2]], "exchange"),
        # {1, 2} and {1, 2, 3} are in the family but {1} and {2} are not
        ([[], [1, 2], [1, 2, 3]], "downward-closure"),
    ],
)
@pytest.mark.parametrize("labels", [True, False], ids=["labels", "masks"])
def test_non_matroid_families_are_refused_at_construction(sets, axiom, labels):
    # parallelism is transitive and contractions start from independent
    # sets only because no constructor returns such a family
    family = {frozenset(s) for s in sets}
    with pytest.raises(AxiomViolation) as exc:
        if labels:
            from_independence_family(3, sets)
        else:
            ExplicitMatroid(3, [sum(1 << (e - 1) for e in s) for s in sets])
    assert exc.value.axiom == axiom
    smaller, larger = exc.value.witness
    assert larger in family
    if axiom == "exchange":
        assert smaller in family and len(larger) == len(smaller) + 1
        assert all(smaller | {x} not in family for x in larger - smaller)
    else:
        assert smaller < larger and smaller not in family


@pytest.mark.parametrize("m", zoo() + [sparse_contraction()], ids=lambda m: repr(m))
def test_class_pass_matches_definition(m):
    # for every independent J: e is a non-loop of M/J iff J + e is
    # independent, and non-loops e != r are parallel iff J + e + r is
    # dependent; classes are numbered by their smallest member
    for j in m.independent_sets():
        labels, pattern = _classes(m, sum(1 << (e - 1) for e in j))
        nonloops = [e for e in m.ground if e not in j and m.is_independent(j | {e})]
        assert list(labels) == nonloops
        for a, class_a in zip(labels, pattern):
            for b, class_b in zip(labels, pattern):
                parallel = a != b and not m.is_independent(j | {a, b})
                assert (class_a == class_b) == (a == b or parallel)
        firsts = [c for i, c in enumerate(pattern) if c not in pattern[:i]]
        assert firsts == list(range(len(firsts)))


# -- contraction ---------------------------------------------------------------


def test_contract_nothing_is_identity():
    m = uniform(2, 3)
    c = m.contract([])
    assert c.ground == m.ground
    assert c.independent_set_masks() == m.independent_set_masks()


def test_contract_example_parallel_pair():
    m = parallel_pair_plus_free()
    c = m.contract([3])
    assert c.ground == (1, 2)
    assert {frozenset(s) for s in c.independent_sets()} == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
    }


def test_contract_uniform_keeps_labels():
    c = uniform(2, 3).contract([1])
    assert c.ground == (2, 3)
    assert c.count_independent_by_size() == (1, 2, 0)


def test_contraction_enumeration_keeps_base_unenumerated():
    base = uniform(3, 8)
    c = base.contract([1, 2])
    masks = c.independent_set_masks(limit=6)
    assert sorted(masks) == [0] + [1 << i for i in range(2, 8)]
    assert base._family_cache is None


def test_contract_requires_independent_set():
    with pytest.raises(NotIndependent):
        uniform(1, 2).contract([1, 2])


@pytest.mark.parametrize("m", zoo(), ids=lambda m: repr(m))
def test_contraction_definition_and_rank_drop(m):
    sets = {frozenset(s) for s in m.independent_sets()}
    for j in sorted(sets, key=lambda s: (len(s), sorted(s))):
        c = m.contract(j)
        assert set(c.ground) == set(m.ground) - j
        assert c.rank == m.rank - len(j)
        csets = {frozenset(s) for s in c.independent_sets()}
        for t in powerset(c.ground):
            t = frozenset(t)
            assert (t in csets) == (j | t in sets)


# -- enumeration bound ------------------------------------------------------


U_1_21_COUNTS = (1, 21) + (0,) * 20

# every query that reads the family, and what it gives on U(1, 21)
FAMILY_QUERIES = {
    "independent_sets": (lambda m: len(m.independent_sets()), 22),
    "count_independent_by_size": (lambda m: m.count_independent_by_size(), U_1_21_COUNTS),
    "independence_polynomial": (lambda m: len(independence_polynomial(m).terms), 22),
    "bases_polynomial": (lambda m: len(bases_polynomial(m).terms), 21),
    "bivariate_restriction": (lambda m: bivariate_restriction(m).terms, {(21, 0): 1, (20, 1): 21}),
    "certify_clc_matroid": (lambda m: len(certify_clc_matroid(m).checks), 21 + 20 * 21),
    "mason_report": (lambda m: mason_report(m).sequence, U_1_21_COUNTS),
}


@pytest.mark.parametrize("query, expected", FAMILY_QUERIES.values(), ids=FAMILY_QUERIES)
def test_enumeration_limit_exceeded(query, expected):
    with pytest.raises(EnumerationLimitExceeded):
        query(uniform(1, 21))
    big = uniform(1, 21)
    assert big.is_independent([21])
    # one bounded enumeration lifts the bound for every later query
    big.independent_set_masks(21)
    assert query(big) == expected


# -- JSON ---------------------------------------------------------------------


@pytest.mark.parametrize("m", zoo(), ids=lambda m: repr(m))
def test_json_roundtrip(m):
    clone = matroid_from_json(m.to_json())
    assert clone.ground == m.ground
    assert clone.independent_set_masks() == m.independent_set_masks()


def test_json_unknown_kind():
    with pytest.raises(ValueError):
        matroid_from_json({"kind": "oracle"})


# -- randomized axiom agreement -----------------------------------------------


@st.composite
def downward_closed_families(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    generators = draw(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=n), max_size=n),
            min_size=1,
            max_size=4,
        )
    )
    family = set()
    for gen in generators:
        for sub in powerset(gen):
            family.add(frozenset(sub))
    return n, family


@given(downward_closed_families())
@settings(max_examples=120, deadline=None)
def test_validation_agrees_with_bruteforce(case):
    n, family = case
    # the oracle names any family without the empty set "nonempty", where
    # the program says "downward-closure" when the family is nonempty;
    # a family of powersets always holds the empty set, so the names agree
    verdict = oracle.axiom_failure({mask_of(s) for s in family})
    if verdict is None:
        m = from_independence_family(n, family)
        sets = {frozenset(s) for s in m.independent_sets()}
        assert sets == family
        for subset in powerset(range(1, n + 1)):
            assert m.rank_of(subset) == brute_rank(family, subset)
    else:
        with pytest.raises(AxiomViolation) as exc:
            from_independence_family(n, family)
        assert exc.value.axiom == verdict
        if verdict == "exchange":
            smaller, larger = exc.value.witness
            assert smaller in family and larger in family
            assert len(larger) == len(smaller) + 1
            assert all(smaller | {x} not in family for x in larger - smaller)
