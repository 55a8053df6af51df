"""Matroid construction, validation, queries, and contraction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_axiom_failure,
    brute_rank,
    forest_independence_family,
    k3,
    k4,
    linear_independence_family,
    parallel_pair_plus_free,
    powerset,
    single_loop,
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
    NotAMatroid,
    NotIndependent,
    from_independence_family,
    graphic,
    linear,
    matroid_from_json,
    matroid_to_json,
    uniform,
)


# -- spec'd count and family examples -----------------------------------


def test_uniform_2_3_counts():
    assert uniform(2, 3).count_independent_by_size() == (1, 3, 3, 0)


def test_uniform_0_2_all_loops():
    m = uniform(0, 2)
    assert m.count_independent_by_size() == (1, 0, 0)
    part = m.parallel_partition()
    assert part.loops == frozenset({1, 2})
    assert part.classes == ()


def test_uniform_3_3_free():
    assert sum(uniform(3, 3).count_independent_by_size()) == 8


def test_single_loop_matroid():
    m = single_loop()
    assert m.count_independent_by_size() == (1, 0)
    assert m.parallel_partition().loops == frozenset({1})


def test_parallel_pair_plus_free_counts_and_classes():
    m = parallel_pair_plus_free()
    assert m.count_independent_by_size() == (1, 3, 2, 0)
    part = m.parallel_partition()
    assert part.loops == frozenset()
    assert set(part.classes) == {frozenset({1, 2}), frozenset({3})}


def test_k3_counts():
    assert k3().count_independent_by_size() == (1, 3, 3, 0)


def test_parallel_edges_form_class():
    m = graphic(2, [(1, 2), (1, 2)])
    assert m.rank_of([1, 2]) == 1
    assert set(m.parallel_partition().classes) == {frozenset({1, 2})}


def test_self_loop_edge_is_loop():
    m = graphic(2, [(1, 1), (1, 2)])
    assert m.parallel_partition().loops == frozenset({1})
    assert not m.is_independent([1])


def test_linear_gf2_matches_uniform():
    m = linear([[1, 0], [0, 1], [1, 1]], 2)
    assert m.independent_set_masks() == uniform(2, 3).independent_set_masks()


def test_linear_zero_column_is_loop():
    m = linear([[0, 0], [1, 0]], 3)
    assert m.parallel_partition().loops == frozenset({1})


def test_linear_equal_columns_parallel():
    m = linear([[1, 1], [1, 1], [0, 1]], 0)
    assert m.rank_of([1, 2]) == 1
    assert frozenset({1, 2}) in m.parallel_partition().classes


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


def test_constructor_input_errors():
    with pytest.raises(InvalidRank):
        uniform(3, 2)
    with pytest.raises(InvalidRank):
        uniform(-1, 2)
    with pytest.raises(InvalidVertexIndex):
        graphic(2, [(1, 3)])
    with pytest.raises(NonPrimeModulus):
        linear([[1], [0]], 4)


def test_element_out_of_range():
    with pytest.raises(ElementOutOfRange):
        uniform(2, 3).is_independent([4])
    with pytest.raises(ElementOutOfRange):
        uniform(2, 3).rank_of([0])


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
    assert brute_axiom_failure(sets) is None
    assert len(family) == len(sets)


def test_graphic_family_matches_cycle_oracle():
    edges = [(1, 2), (1, 3), (2, 3), (2, 3), (1, 1)]
    m = graphic(3, edges)
    expected = forest_independence_family(len(edges), edges)
    assert {frozenset(s) for s in m.independent_sets()} == expected


@pytest.mark.parametrize("modulus", [0, 2, 3, 5])
def test_linear_family_matches_gaussian_oracle(modulus):
    rng = random.Random(modulus + 17)
    top = modulus if modulus else 4
    columns = [[rng.randrange(top) for _ in range(3)] for _ in range(6)]
    m = linear(columns, modulus)
    assert {frozenset(s) for s in m.independent_sets()} == linear_independence_family(
        columns, modulus
    )


@pytest.mark.parametrize("m", zoo(), ids=lambda m: repr(m))
def test_constructors_pass_explicit_validation(m):
    labels = sorted(m.ground)
    remap = {lab: i + 1 for i, lab in enumerate(labels)}
    family = [{remap[e] for e in s} for s in m.independent_sets()]
    rebuilt = from_independence_family(len(labels), family, validate=True)
    assert sum(rebuilt.count_independent_by_size()) == sum(m.count_independent_by_size())


def test_counts_sum_and_first_entry():
    for m in zoo():
        counts = m.count_independent_by_size()
        assert counts[0] == 1
        assert sum(counts) == len(m.independent_set_masks())
        assert all(c == 0 for c in counts[m.rank + 1 :])


# -- parallel partition invariants ------------------------------------------


@pytest.mark.parametrize("m", zoo(), ids=lambda m: repr(m))
def test_pair_ranks_define_classes(m):
    part = m.parallel_partition()
    class_of = {}
    for cls in part.classes:
        for i in cls:
            class_of[i] = cls
    for i in m.ground:
        assert (m.rank_of([i]) == 0) == (i in part.loops)
    nonloops = sorted(class_of)
    for a in nonloops:
        for b in nonloops:
            if a < b:
                same = class_of[a] is class_of[b]
                assert (m.rank_of([a, b]) == 1) == same


def test_partition_rejects_non_transitive_parallelism():
    # {1,2} and {2,3} dependent but {1,3} independent: 2 is parallel to
    # both 1 and 3, which are not parallel to each other
    m = from_independence_family(3, [[], [1], [2], [3], [1, 3]], validate=False)
    with pytest.raises(NotAMatroid):
        m.parallel_partition()


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


def test_enumeration_limit_exceeded():
    big = uniform(1, 21)
    with pytest.raises(EnumerationLimitExceeded):
        big.count_independent_by_size()
    assert big.is_independent([21])
    assert big.count_independent_by_size(21) == (1, 21) + (0,) * 20


# -- JSON ---------------------------------------------------------------------


@pytest.mark.parametrize("m", zoo(), ids=lambda m: repr(m))
def test_json_roundtrip(m):
    clone = matroid_from_json(matroid_to_json(m))
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
    verdict = brute_axiom_failure(family)
    if verdict is None:
        m = from_independence_family(n, family, validate=True)
        sets = {frozenset(s) for s in m.independent_sets()}
        assert sets == family
        for subset in powerset(range(1, n + 1)):
            assert m.rank_of(subset) == brute_rank(family, subset)
    else:
        with pytest.raises(AxiomViolation) as exc:
            from_independence_family(n, family, validate=True)
        assert exc.value.axiom == verdict
