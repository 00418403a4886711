import argparse
import gc
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokencircuits import cli, core
from brokencircuits.algebra import IntPolynomial
from brokencircuits.core import (
    CircuitFamily,
    FinitePoset,
    IndexedSetFamily,
    OrderedGroundSet,
    SetFunction,
    TableSetFunction,
    derive_broken_circuits,
    enumerate_avoiding,
    maxmin_identity,
    narushima_union,
    random_cancelling_instance,
    restricted_union_size,
    sign_function,
    sum_full,
    sum_over_chains,
    sum_over_maxima,
    sum_pruned,
    verify_cancellation,
)
from brokencircuits.errors import CapExceeded, PreconditionError, SchemaError
from brokencircuits.graphs import Graph, domination_polynomial
from brokencircuits.hypergraphs import grid_rectangle_hypergraph, hypergraph_chromatic
from brokencircuits.lattices import Crosscut, blass_sagan_mobius, boolean_lattice, partition_lattice
from brokencircuits.numbers import gcd_all


def k3_chromatic_function():
    """f(A) = (-1)^|A| x^{c(V,A)} for the triangle, edges e0 < e1 < e2."""
    edges = {0: (0, 1), 1: (0, 2), 2: (1, 2)}

    def components(edge_ids):
        parent = {v: v for v in range(3)}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        count = 3
        for i in edge_ids:
            a, b = edges[i]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                count -= 1
        return count

    def fn(subset):
        sign = -1 if len(subset) & 1 else 1
        return sign * IntPolynomial.monomial(components(subset))

    return SetFunction(fn, IntPolynomial.zero(), "k3-chromatic")


class TestGroundSet:
    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            OrderedGroundSet([1, 1, 2])

    def test_cap(self):
        # a ground set of any size builds; its sums refuse by their work
        g = OrderedGroundSet(range(30))
        budget = f"past the work budget of {core.WORK_BUDGET} steps"
        with pytest.raises(CapExceeded, match=budget):
            sum_full(sign_function(), g)
        with pytest.raises(CapExceeded, match=budget):
            enumerate_avoiding(g, [])

    def test_max_of_uses_input_order(self):
        g = OrderedGroundSet(["c", "a", "b"])
        assert g.max_of({"c", "a"}) == "a"
        with pytest.raises(PreconditionError):
            g.max_of(set())

    def test_masks(self):
        g = OrderedGroundSet("abc")
        assert g.mask_of({"a", "c"}) == 0b101
        assert g.subset_of(0b110) == frozenset({"b", "c"})


class TestDeriveBrokenCircuits:
    def test_drop_maximum(self):
        g = OrderedGroundSet("abc")
        out = derive_broken_circuits(CircuitFamily([{"a", "b", "c"}]), g)
        assert [bc.subset for bc in out] == [frozenset({"a", "b"})]
        assert out[0].witness == frozenset("abc")

    def test_singleton_circuit_gives_empty_broken_set(self):
        g = OrderedGroundSet("ab")
        out = derive_broken_circuits(CircuitFamily([{"a"}, {"a", "b"}]), g)
        assert {bc.subset for bc in out} == {frozenset(), frozenset({"a"})}

    def test_k3_edge_cycle(self):
        g = OrderedGroundSet([0, 1, 2])
        out = derive_broken_circuits(CircuitFamily([{0, 1, 2}]), g)
        assert out[0].subset == frozenset({0, 1})

    def test_rejects_foreign_elements(self):
        g = OrderedGroundSet("ab")
        with pytest.raises(PreconditionError):
            derive_broken_circuits(CircuitFamily([{"z"}]), g)

    def test_rejects_empty_circuit(self):
        with pytest.raises(SchemaError):
            CircuitFamily([set()])


class TestVerifyCancellation:
    def test_k3_chromatic_passes(self):
        g = OrderedGroundSet([0, 1, 2])
        report = verify_cancellation(k3_chromatic_function(), CircuitFamily([{0, 1, 2}]), g)
        assert report.ok
        assert report.checked == 1  # single circuit covering everything

    def test_alternating_sign_passes(self):
        g = OrderedGroundSet("abcd")
        report = verify_cancellation(sign_function(), CircuitFamily([{"a", "b"}, {"c"}]), g)
        assert report.ok

    def test_constant_function_fails(self):
        g = OrderedGroundSet("ab")
        f = SetFunction(lambda s: 1, 0, "one")
        report = verify_cancellation(f, CircuitFamily([{"a", "b"}]), g)
        assert not report.ok
        assert report.circuit == frozenset({"a", "b"})
        assert report.superset == frozenset({"a", "b"})

    def test_cap(self):
        g = OrderedGroundSet(range(20))
        with pytest.raises(CapExceeded):
            verify_cancellation(sign_function(), CircuitFamily([{0}]), g)


class TestSums:
    def test_sum_full_k3(self):
        g = OrderedGroundSet([0, 1, 2])
        assert sum_full(k3_chromatic_function(), g) == IntPolynomial((0, 2, -3, 1))

    def test_sum_full_empty_ground(self):
        g = OrderedGroundSet([])
        f = SetFunction(lambda s: 5, 0, "const")
        assert sum_full(f, g) == 5

    def test_sum_full_alternating_vanishes(self):
        g = OrderedGroundSet(range(5))
        assert sum_full(sign_function(), g) == 0

    def test_sum_full_reads_a_same_ground_table_in_bulk(self, monkeypatch):
        # the table's own order is summed without a per-mask lookup; any
        # other order falls back to mask_function
        def refuse(self, ground):
            raise AssertionError("mask_function called")

        ground = OrderedGroundSet(range(6))
        f = TableSetFunction(ground, range(64))
        monkeypatch.setattr(TableSetFunction, "mask_function", refuse)
        assert sum_full(f, ground) == 64 * 63 // 2
        with pytest.raises(AssertionError, match="mask_function"):
            sum_full(f, ground.permuted(list(reversed(range(6)))))

    def test_sum_of_adds_subclass_and_bool_values(self):
        class Sub(IntPolynomial):
            pass

        got = IntPolynomial.sum_of([Sub([1, 2]), True, IntPolynomial([0, 0, 3]), Sub([-1])])
        assert type(got) is IntPolynomial
        assert got.coeffs == (1, 2, 3)

    def test_sum_pruned_matches_theorem_on_k3(self):
        g = OrderedGroundSet([0, 1, 2])
        f = k3_chromatic_function()
        assert sum_pruned(f, g, [{0, 1}]) == sum_full(f, g)

    def test_sum_pruned_no_restriction(self):
        g = OrderedGroundSet(range(4))
        assert sum_pruned(sign_function(), g, []) == sum_full(sign_function(), g)

    def test_sum_pruned_empty_broken_set_gives_zero(self):
        g = OrderedGroundSet(range(3))
        f = SetFunction(lambda s: 1, 0, "one")
        assert sum_pruned(f, g, [frozenset()]) == 0


class TestEnumerateAvoiding:
    def test_k3(self):
        g = OrderedGroundSet([0, 1, 2])
        assert enumerate_avoiding(g, [{0, 1}]) == (1, 3, 2, 0)

    def test_no_broken_sets_gives_binomials(self):
        g = OrderedGroundSet(range(5))
        assert enumerate_avoiding(g, []) == (1, 5, 10, 10, 5, 1)

    def test_all_singletons(self):
        g = OrderedGroundSet(range(4))
        broken = [{i} for i in range(4)]
        assert enumerate_avoiding(g, broken) == (1, 0, 0, 0, 0)

    def test_monotone_in_broken_family(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 8)
            g = OrderedGroundSet(range(n))
            sets = [
                frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
                for _ in range(4)
            ]
            small = enumerate_avoiding(g, sets[:2])
            large = enumerate_avoiding(g, sets)
            assert all(u <= v for u, v in zip(large, small))


class TestTheoremReduction:
    def test_random_instances_int(self):
        rng = random.Random(42)
        for _ in range(60):
            ground, family, f = random_cancelling_instance(rng, rng.randint(3, 9))
            assert verify_cancellation(f, family, ground).ok
            broken = [bc.subset for bc in derive_broken_circuits(family, ground)]
            full = sum_full(f, ground)
            for sub in _all_subfamilies(broken):
                assert sum_pruned(f, ground, sub) == full

    def test_random_instances_poly(self):
        rng = random.Random(43)
        for _ in range(10):
            ground, family, f = random_cancelling_instance(rng, rng.randint(3, 7), "poly")
            assert verify_cancellation(f, family, ground).ok
            broken = [bc.subset for bc in derive_broken_circuits(family, ground)]
            assert sum_pruned(f, ground, broken) == sum_full(f, ground)

    def test_violating_family_changes_sum(self):
        # deliberately prune with a non-broken-circuit set: sums differ
        g = OrderedGroundSet(range(3))
        f = SetFunction(lambda s: 1, 0, "one")
        assert sum_full(f, g) == 8
        assert sum_pruned(f, g, [{0}]) == 4


def _plus_fold(values, zero):
    # the reference: one + per value, in order
    total = zero
    for v in values:
        total = total + v
    return total


def _group_sum_cases():
    rng = random.Random(91)

    def poly():
        return IntPolynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])

    cases = [([], 0), ([], IntPolynomial.zero()), ([], Fraction(0)), ([3, -4, 10**30], 0)]
    # block edges of IntPolynomial.sum_of: 256 values per block
    for size in (1, 255, 256, 257, 513):
        cases.append(([rng.randint(-9, 9) for _ in range(size)], 0))
        cases.append(([poly() for _ in range(size)], IntPolynomial.zero()))
        mixed = [poly() if rng.random() < 0.5 else rng.randint(-9, 9) for _ in range(size)]
        cases.append((mixed, IntPolynomial.zero()))
        cases.append((mixed, 0))
        cases.append(([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)], 0))
    return cases


def test_group_sum_matches_a_plus_fold():
    from brokencircuits.core import _group_sum

    for values, zero in _group_sum_cases():
        got = _group_sum(iter(values), zero)
        want = _plus_fold(values, zero)
        assert got == want and type(got) is type(want), (len(values), zero)
        if isinstance(want, IntPolynomial):
            assert got.coeffs == want.coeffs


def test_group_sum_cancelling_to_the_zero_polynomial():
    from brokencircuits.core import _group_sum

    rng = random.Random(92)
    for size in (1, 255, 256, 257, 513):
        values = [IntPolynomial([rng.randint(-5, 5) for _ in range(4)]) for _ in range(size)]
        values += [-v for v in reversed(values)] + [3, -3]
        got = _group_sum(values, IntPolynomial.zero())
        assert got.coeffs == ()
        assert got == 0 and hash(got) == hash(0)


def test_group_sum_refuses_a_fraction_in_a_polynomial_sum():
    from brokencircuits.core import _group_sum

    with pytest.raises(TypeError):
        _plus_fold([IntPolynomial.x(), Fraction(1, 2)], IntPolynomial.zero())
    with pytest.raises(TypeError):
        _group_sum([IntPolynomial.x(), Fraction(1, 2)], IntPolynomial.zero())


def test_sums_over_polynomial_tables_match_the_per_mask_loop():
    rng = random.Random(93)
    for n in range(2, 13):
        ground, family, f = random_cancelling_instance(rng, n, "poly")
        broken = [bc.subset for bc in derive_broken_circuits(family, ground)]
        full = IntPolynomial.zero()
        pruned = IntPolynomial.zero()
        for mask in range(1 << n):
            value = f(ground.subset_of(mask))
            full = full + value
            if not any(ground.mask_of(b) & mask == ground.mask_of(b) for b in broken):
                pruned = pruned + value
        assert sum_full(f, ground).coeffs == full.coeffs
        assert sum_pruned(f, ground, broken).coeffs == pruned.coeffs
        assert pruned == full


def _recursive_avoiding(n, broken_masks):
    # reference walk: exclusion before inclusion, position by position
    if 0 in broken_masks:
        return []
    out = []

    def walk(pos, acc):
        if pos == n:
            out.append(acc)
            return
        walk(pos + 1, acc)
        grown = acc | (1 << pos)
        if not any(bm & grown == bm and bm.bit_length() - 1 == pos for bm in broken_masks):
            walk(pos + 1, grown)

    walk(0, 0)
    return out


def _brute_avoiding(n, broken_masks):
    return {m for m in range(1 << n) if not any(m & bm == bm for bm in broken_masks)}


def test_avoiding_masks_match_brute_filter():
    # the pruning walk against a naive containment filter over all masks,
    # and its yield order against a recursive reference walk
    from brokencircuits.core import iter_avoiding_masks

    rng = random.Random(77)
    for trial in range(80):
        n = rng.randint(1, 16)
        ground = OrderedGroundSet(range(n))
        broken = [
            frozenset(rng.sample(range(n), rng.randint(0, min(3, n))))
            for _ in range(rng.randint(0, 4))
        ]
        if trial % 4 == 0:
            # a broken set ending at the last element leaves no free suffix
            broken.append(frozenset(rng.sample(range(n - 1), min(2, n - 1))) | {n - 1})
        if trial % 3 == 0 and broken:
            # duplicates and supersets prune nothing more than the minimal sets
            b = rng.choice(broken)
            broken += [b, b | {rng.randrange(n)}, b | frozenset(rng.sample(range(n), min(2, n)))]
            rng.shuffle(broken)
        got = list(iter_avoiding_masks(ground, broken))
        bmasks = [ground.mask_of(b) for b in broken]
        assert got == _recursive_avoiding(n, bmasks)
        assert len(got) == len(set(got))
        assert set(got) == _brute_avoiding(n, bmasks)


@pytest.mark.parametrize("n", [0, 1, 5, 10, 11, 16])
def test_avoiding_masks_edge_families(n):
    # no broken sets: the whole cube; an empty broken set: nothing
    from brokencircuits.core import iter_avoiding_masks

    ground = OrderedGroundSet(range(n))
    assert list(iter_avoiding_masks(ground, [])) == _recursive_avoiding(n, [])
    assert list(iter_avoiding_masks(ground, [frozenset()])) == []
    if n >= 2:
        last = [frozenset({0, n - 1})]
        got = list(iter_avoiding_masks(ground, last))
        assert got == _recursive_avoiding(n, [1 | 1 << (n - 1)])
        assert len(got) == 3 << (n - 2)


def _sum_cases(rng, n):
    """An int table, an IntPolynomial table and a Fraction set function over n elements."""
    ground = OrderedGroundSet(range(n))
    ints = [rng.randint(-9, 9) for _ in range(1 << n)]
    polys = [IntPolynomial([rng.randint(-3, 3) for _ in range(3)]) for _ in range(1 << n)]
    weights = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
    return ground, [
        TableSetFunction(ground, ints),
        TableSetFunction(ground, polys, IntPolynomial.zero()),
        SetFunction(lambda s: sum((weights[e] for e in s), Fraction(-len(s))), Fraction(0)),
    ]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pruned_sum_by_blocks_equals_the_sum_over_the_walk(data):
    # the block sum against the values of the masks the walk yields, one by
    # one, on families with duplicates, supersets and empty broken sets
    from brokencircuits.core import iter_avoiding_masks

    n = data.draw(st.integers(0, 10), label="n")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    sets = st.frozensets(st.integers(0, max(n - 1, 0)), max_size=min(n, 4))
    broken = data.draw(st.lists(sets, max_size=6), label="broken")
    dup = data.draw(st.lists(st.sampled_from(broken), max_size=3), label="dup") if broken else []
    broken += dup + [b | {n - 1} for b in dup if n]
    ground, functions = _sum_cases(rng, n)
    masks = list(iter_avoiding_masks(ground, broken))
    for f in functions:
        walked = sum(map(f.mask_function(ground), masks), f.zero)
        assert sum_pruned(f, ground, broken) == walked, (f, broken)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_full_sum_of_a_table_equals_the_brute_sum(data):
    # the bulk read on the table's own order and the fallback on a permuted
    # one, against f summed over every subset of labels
    n = data.draw(st.integers(0, 8), label="n")
    perm = data.draw(st.permutations(range(n)), label="perm")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    ground, functions = _sum_cases(rng, n)
    subsets = [
        frozenset(c) for k in range(n + 1) for c in itertools.combinations(ground, k)
    ]
    for f in functions[:2]:
        brute = f.zero
        for subset in subsets:
            brute = brute + f(subset)
        assert sum_full(f, ground) == brute
        assert sum_full(f, ground.permuted(perm)) == brute


@pytest.mark.parametrize("n", [0, 1, 2, 7, 12])
def test_pruned_sum_edge_families(n):
    # no broken sets: the full sum; an empty broken set: zero; a broken set
    # ending at the last position: blocks of one subset
    rng = random.Random(60 + n)
    ground, functions = _sum_cases(rng, n)
    families = [[], [frozenset()]]
    if n:
        families.append([frozenset({0}), frozenset()])
    if n >= 2:
        families.append([frozenset({0, n - 1})])
        families.append([frozenset({n - 1}), frozenset({0, n - 1})])
    for f in functions:
        fm = f.mask_function(ground)
        for broken in families:
            bmasks = [ground.mask_of(b) for b in broken]
            expected = sum((fm(m) for m in sorted(_brute_avoiding(n, bmasks))), f.zero)
            assert sum_pruned(f, ground, broken) == expected, broken
        assert sum_pruned(f, ground, []) == sum_full(f, ground)


def test_pruned_sum_evaluates_f_once_per_avoiding_subset():
    rng = random.Random(71)
    for trial in range(40):
        n = rng.randint(0, 12)
        broken = [frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
                  for _ in range(rng.randint(0, 4) if n else 0)]
        if trial % 2 and broken:
            broken += [broken[0], broken[0] | {n - 1}]
        ground = OrderedGroundSet(range(n))
        calls = []
        f = SetFunction(lambda s: calls.append(ground.mask_of(s)) or 1, 0)
        total = sum_pruned(f, ground, broken)
        avoiding = _brute_avoiding(n, [ground.mask_of(b) for b in broken])
        assert total == len(calls) == len(avoiding)
        assert sorted(calls) == sorted(avoiding)


def test_avoiding_masks_is_a_lazy_generator():
    import inspect

    from brokencircuits.core import iter_avoiding_masks

    assert inspect.isgeneratorfunction(iter_avoiding_masks)
    walk = iter_avoiding_masks(OrderedGroundSet(range(20)), [frozenset({3, 19})])
    assert [next(walk) for _ in range(4)] == [0, 1 << 19, 1 << 18, 3 << 18]


def _assert_walk_matches_references(ground, broken):
    from brokencircuits.core import iter_avoiding_masks

    n = len(ground)
    bmasks = [ground.mask_of(b) for b in broken]
    got = list(iter_avoiding_masks(ground, broken))
    assert got == _recursive_avoiding(n, bmasks)
    assert set(got) == _brute_avoiding(n, bmasks)


def test_walk_matches_the_references_on_graph_broken_circuits():
    # cycle broken sets crossing the cut read nearly every position below it,
    # so nearly every prefix completes a different set of crossing groups
    from brokencircuits.graphs import edge_broken_circuits, edge_ground, random_graph

    rng = random.Random(41)
    sizes = set()
    while len(sizes) < 8:
        graph = random_graph(rng, rng.randint(6, 9), 0.5)
        if 11 <= len(graph.edges) <= 18 and len(graph.edges) not in sizes:
            sizes.add(len(graph.edges))
            _assert_walk_matches_references(edge_ground(graph), edge_broken_circuits(graph))


@pytest.mark.parametrize("lattice", [boolean_lattice(4), partition_lattice(4)], ids=["B4", "Pi4"])
def test_walk_matches_the_references_on_incomparable_pairs(lattice):
    # the chains of B4 (16 elements) and Pi4 (15): pairs crossing the cut from
    # every position below it
    ground, incomparable = lattice._pair_ground()
    _assert_walk_matches_references(ground, incomparable)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_walk_matches_the_references_past_the_cut(data):
    # 11 to 18 elements, so the walk decides at least one position; sets of one to
    # six elements, with empty, duplicate and top-position sets
    n = data.draw(st.integers(11, 18), label="n")
    sets = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=6)
    broken = data.draw(st.lists(sets, max_size=8), label="broken")
    if data.draw(st.booleans(), label="empty"):
        broken.append(frozenset())
    dup = data.draw(st.lists(st.sampled_from(broken), max_size=3), label="dup") if broken else []
    broken += dup + [b | {n - 1} for b in dup]
    _assert_walk_matches_references(OrderedGroundSet(range(n)), broken)


def test_prefix_walk_folds_one_bit_prefixes():
    # one-bit prefixes (pairs) are tested with one AND per position, while the
    # empty prefix of a one-element set and longer prefixes are tested one by one
    from brokencircuits.core import _avoiding_prefixes, _minimal_masks

    rng = random.Random(58)
    for _ in range(60):
        n = rng.randint(1, 14)
        masks = [1 << rng.randrange(n) for _ in range(rng.randint(0, 2))]
        masks += [sum(1 << p for p in rng.sample(range(n), min(k, n)))
                  for k in (2, 2, 2, 3, 4) if rng.random() < 0.8]
        minimal = _minimal_masks(masks)
        assert list(_avoiding_prefixes(n, minimal, range(n), 1)) == _recursive_avoiding(n, minimal)
        downward = list(_avoiding_prefixes(n, minimal, range(n - 1, -1, -1), 1))
        assert downward == sorted(_brute_avoiding(n, minimal))


def test_walk_keeps_one_table_per_crossing_group():
    # 20 elements and the sets {i, 10 + i}: each of the 1,024 prefixes completes a
    # different set of the ten crossing groups, so a table kept per key would take
    # about 50 times the memory of one full table; the walk keeps one per group
    import tracemalloc

    from brokencircuits.core import iter_avoiding_masks

    ground = OrderedGroundSet(range(20))
    broken = [frozenset({i, 10 + i}) for i in range(10)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = [s | 1 << 20 for s in range(1 << 10)]
        one = tracemalloc.get_traced_memory()[0] - base
        del table
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        count = sum(1 for _ in iter_avoiding_masks(ground, broken))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert count == 3 ** 10
    assert peak <= len(broken) * one


def _brute_fold(n, state_of_mask, broken=()):
    """The signed histogram computed per mask, from the subset's own state,
    over the masks that include no broken mask, with zero counts dropped
    as the kernel drops them."""
    hist = {}
    for mask in range(1 << n):
        if any(mask & b == b for b in broken):
            continue
        key = state_of_mask(mask)
        hist[key] = hist.get(key, 0) + (-1 if mask.bit_count() & 1 else 1)
    return {key: count for key, count in hist.items() if count}


def _over(values, op, mask):
    """op folded over the values at the positions of mask, from 0."""
    acc = 0
    for i, v in enumerate(values):
        if mask >> i & 1:
            acc = op(acc, v)
    return acc


def _brute_components(n_vertices, edges, mask):
    parent = list(range(n_vertices))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, edge in enumerate(edges):
        if mask >> i & 1:
            for v in edge[1:]:
                a, b = find(edge[0]), find(v)
                if a != b:
                    parent[a] = b
    return sum(1 for v in range(n_vertices) if find(v) == v)


@pytest.mark.parametrize("n", range(13))
def test_signed_fold_visits_every_subset_once(n):
    # with the subset itself as the state no two states meet, so the sweep
    # runs include once per nonempty subset
    from brokencircuits.core import _image_fold

    calls = []

    def include(i, mask):
        # every position already in the state lies below i
        assert mask >> i == 0
        calls.append(i)
        return mask | 1 << i

    hist = _image_fold(n, 0, include, lambda mask: mask)
    assert hist == {mask: -1 if mask.bit_count() & 1 else 1 for mask in range(1 << n)}
    assert len(calls) == (1 << n) - 1


@pytest.mark.parametrize("n", range(13))
def test_signed_fold_matches_per_mask_states(n):
    # the signed fold, computed per mask, against the kernel's sweep
    from brokencircuits.core import _component_histogram, _image_fold

    rng = random.Random(1000 + n)
    ors = [rng.getrandbits(6) for _ in range(n)]
    ints = [rng.choice([2, 3, 4, 6, 9, 10, 12, 15, 30, 36]) for _ in range(n)]

    got = _image_fold(n, 0, lambda i, s: s | ors[i], lambda s: s)
    assert got == _brute_fold(n, lambda m: _over(ors, int.__or__, m))
    got = _image_fold(n, 0, lambda i, g: math.gcd(g, ints[i]), lambda g: g)
    assert got == _brute_fold(n, lambda m: _over(ints, math.gcd, m))
    # union-find states: edges of up to three vertices, loops included,
    # isolated vertices whenever the edges miss one
    n_vertices = rng.randint(1, 8)
    edges = [
        tuple(rng.randrange(n_vertices) for _ in range(rng.randint(1, 3))) for _ in range(n)
    ]
    # pruned or not, the histogram is swept and keeps only nonzero counts
    got = _component_histogram(n_vertices, edges)
    assert got == _brute_fold(n, lambda m: _brute_components(n_vertices, edges, m))
    broken = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3))] if n else []
    got = _component_histogram(n_vertices, edges, broken)
    assert got == _brute_fold(n, lambda m: _brute_components(n_vertices, edges, m), broken)


def _fold_families(rng, n):
    """Broken mask families for the pruned fold: none, random, an empty
    mask, and a mask whose maximum is the last position."""
    families = [[], [0]]
    for _ in range(6):
        families.append(
            [sum(1 << p for p in rng.sample(range(n), rng.randint(1, min(3, n))))
             for _ in range(rng.randint(1, 4))] if n else []
        )
    if n:
        families.append([1 << (n - 1) | (1 << rng.randrange(n - 1) if n > 1 else 0)])
        families.append([1 << (n - 1), 1])
    return families


@pytest.mark.parametrize("n", range(13))
def test_pruned_fold_matches_brute_filter(n):
    # the kernel with broken masks against the per-mask fold over the
    # subsets that a containment filter keeps
    from brokencircuits.core import _image_fold

    rng = random.Random(2000 + n)
    ors = [rng.getrandbits(6) for _ in range(n)]
    ints = [rng.choice([2, 3, 4, 6, 9, 10, 12, 15, 30, 36]) for _ in range(n)]
    for broken in _fold_families(rng, n):
        avoiding = _brute_avoiding(n, broken)
        calls = []

        def include(i, mask):
            assert mask >> i == 0
            calls.append(mask | 1 << i)
            return mask | 1 << i

        hist = _image_fold(n, 0, include, lambda mask: mask, None, broken)
        assert hist == {m: -1 if m.bit_count() & 1 else 1 for m in avoiding}, broken
        # include runs once per nonempty avoiding subset
        assert sorted(calls) == sorted(avoiding - {0}), broken
        got = _image_fold(n, 0, lambda i, s: s | ors[i], lambda s: s, None, broken)
        assert got == _brute_fold(n, lambda m: _over(ors, int.__or__, m), broken)
        got = _image_fold(n, 0, lambda i, g: math.gcd(g, ints[i]), lambda g: g, None, broken)
        assert got == _brute_fold(n, lambda m: _over(ints, math.gcd, m), broken)
        if broken and 0 in broken:
            assert hist == {}


@pytest.mark.parametrize("n", range(13))
def test_image_fold_matches_signed_fold(n):
    # the distinct-state sweep against the signed fold computed per mask:
    # lattice states that repeat, the identity mask state that never
    # repeats, and states whose signed counts cancel
    from brokencircuits.core import _image_fold

    rng = random.Random(3000 + n)
    ors = [rng.getrandbits(6) for _ in range(n)]
    ints = [rng.choice([2, 3, 4, 6, 9, 10, 12, 15, 30, 36]) for _ in range(n)]
    cases = [
        (0, lambda i, s: s | ors[i], lambda s: s, lambda m: _over(ors, int.__or__, m)),
        (0, lambda i, s: s | ors[i], int.bit_count, lambda m: _over(ors, int.__or__, m).bit_count()),
        (0, lambda i, g: math.gcd(g, ints[i]), lambda g: g, lambda m: _over(ints, math.gcd, m)),
        (1, lambda i, l: math.lcm(l, ints[i]), lambda l: l,
         lambda m: math.lcm(1, *(v for i, v in enumerate(ints) if m >> i & 1))),
        (0, lambda i, mask: mask | 1 << i, lambda mask: mask, lambda m: m),
    ]
    # the last position leaves every state as it is, so all counts cancel
    cancelling = (0, lambda i, s: s if i == n - 1 else s | ors[i], lambda s: s,
                  lambda m: _over(ors[:-1], int.__or__, m))
    for start, include, key, state_of_mask in cases + [cancelling]:
        assert _image_fold(n, start, include, key) == _brute_fold(n, state_of_mask)
    assert _image_fold(n, *cancelling[:3]) == ({} if n else {0: 1})


def test_image_fold_work_is_the_distinct_states_per_level():
    from brokencircuits.core import _image_fold
    from brokencircuits.numbers import divisors

    def counted(values, op):
        calls = []

        def include(i, s):
            calls.append((i, s))
            return op(s, values[i])

        return include, calls

    # the gcd domain of 180: the 16 divisors strictly between 1 and 180;
    # a state is 0 (the empty set) or one of the 17 divisors below 180
    domain = [d for d in divisors(180) if d not in (1, 180)]
    include, calls = counted(domain, math.gcd)
    hist = _image_fold(len(domain), 0, include, lambda g: g)
    assert len(domain) == 16
    assert len(calls) <= 16 * 18
    assert hist == _brute_fold(16, lambda m: _over(domain, math.gcd, m))
    # 20 positions with 4-bit OR states: at most 16 states per level,
    # one include call per state, where a walk over the subsets makes 2^20 - 1
    rng = random.Random(31)
    ors = [rng.getrandbits(4) for _ in range(20)]
    include, calls = counted(ors, int.__or__)
    _image_fold(20, 0, include, lambda s: s)
    assert len(calls) <= 20 * 16
    for i in range(20):
        states = [s for j, s in calls if j == i]
        assert len(states) == len(set(states))


def test_image_fold_leaves_no_reference_cycles():
    from brokencircuits.core import _image_fold

    ints = [6, 10, 15, 4, 9, 25, 30, 12]
    gc.collect()
    gc.disable()
    try:
        hist = _image_fold(len(ints), 0, lambda i, g: math.gcd(g, ints[i]), lambda g: g)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert hist == _brute_fold(len(ints), lambda m: _over(ints, math.gcd, m))


def _component_cases(rng):
    """(vertex count, edges) draws: edges of 1 to 3 vertices with repeats,
    vertices that no edge meets, no edges, and no vertices."""
    cases = [(0, []), (1, []), (4, []), (3, [(1,)]), (3, [(2, 2)]), (2, [(0, 1), (1, 0)])]
    for _ in range(40):
        n_vertices = rng.randint(1, 9)
        edges = [
            tuple(rng.randrange(n_vertices) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 11))
        ]
        cases.append((n_vertices, edges))
    return cases


def test_component_sweep_matches_brute_force():
    # the settled sweep against components computed per edge subset
    from brokencircuits.core import _component_histogram

    for n_vertices, edges in _component_cases(random.Random(4000)):
        brute = _brute_fold(len(edges), lambda m: _brute_components(n_vertices, edges, m))
        assert _component_histogram(n_vertices, edges) == brute, (n_vertices, edges)


def test_sweep_states_name_each_block_by_its_smallest_live_vertex(monkeypatch):
    # equal frontier partitions must give equal states, or the sweep keeps
    # duplicates: every block's name is the first vertex that carries it
    from brokencircuits import core, graphs
    from brokencircuits.graphs import Graph

    fold = core._image_fold
    states = []

    def recording(n, start, include, key, settle=None, broken=()):
        def step(i, state):
            states.append(state)
            return include(i, state)

        return fold(n, start, step, key, settle, broken)

    monkeypatch.setattr(core, "_image_fold", recording)
    monkeypatch.setattr(graphs, "_image_fold", recording)
    petersen = Graph(range(10), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
                                 (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])

    def assert_canonical(labelled, where):
        # the component sweep labels only the vertices some edge touches
        for _, labels in states:
            names = set(labels) - {chr(labelled)}
            assert all(labels.find(c) == ord(c) for c in names), (where, labels)
        states.clear()

    for n_vertices, edges in _component_cases(random.Random(4200)) + [(10, petersen._edge_ends)]:
        core._component_histogram(n_vertices, edges)
        assert_canonical(len({v for vs in edges for v in vs}), edges)
    rng = random.Random(4201)
    for g in [petersen, Graph.cycle(9)] + [graphs.random_graph(rng, 9, 0.3) for _ in range(10)]:
        g._induced_sweep()
        assert_canonical(len(g.vertices), g.edges)


def test_component_sweep_on_complete_graphs_is_the_falling_factorial(monkeypatch):
    from brokencircuits import graphs
    from brokencircuits.core import _component_histogram
    from brokencircuits.graphs import Graph, chromatic_polynomial

    # the broken-circuit route lists cycles only up to CYCLE_CAP edges; K8 has 28
    monkeypatch.setattr(graphs, "CYCLE_CAP", 28)

    for n in (7, 8):
        k = Graph.complete(n)
        coeffs = [0] * (n + 1)
        for c, count in _component_histogram(n, k._edge_ends).items():
            coeffs[c] = count
        falling = IntPolynomial([1])
        for j in range(n):
            falling = falling * IntPolynomial([-j, 1])
        assert IntPolynomial(coeffs) == falling
        # past 20 edges the full route runs, bounded by its sweep's states alone
        assert chromatic_polynomial(k, "full") == falling == chromatic_polynomial(k, "broken_circuit")


def test_sweep_guard_admits_its_budget_and_refuses_one_step_past(monkeypatch):
    from brokencircuits import graphs
    from brokencircuits.graphs import Graph

    # the state min(|A|, 1) has one state to expand at position 0 and two at each later
    # one, at one mask word each up to 64 positions and two past them: 127 and 2 x 129 steps
    for n, steps in ((64, 127), (65, 258)):
        monkeypatch.setattr(core, "WORK_BUDGET", steps)
        assert core._image_fold(n, 0, lambda i, s: 1, lambda s: s) == {0: 1, 1: -1}
        monkeypatch.setattr(core, "WORK_BUDGET", steps - 1)
        with pytest.raises(CapExceeded, match=rf"^the sweep over {n} positions: past the work "
                                              rf"budget of {steps - 1} steps$"):
            core._image_fold(n, 0, lambda i, s: 1, lambda s: s)
    # K7's component sweep expands 1,088 states over its 21 edges
    falling = IntPolynomial([1])
    for k in range(7):
        falling = falling * IntPolynomial([-k, 1])
    monkeypatch.setattr(core, "WORK_BUDGET", 1088)
    assert graphs.chromatic_polynomial(Graph.complete(7), "full") == falling
    monkeypatch.setattr(core, "WORK_BUDGET", 1087)
    with pytest.raises(CapExceeded, match="the sweep over 21 positions: past the work budget of 1087"):
        graphs.chromatic_polynomial(Graph.complete(7), "full")


def test_component_sweep_labels_only_the_touched_vertices(monkeypatch):
    from brokencircuits import hypergraphs
    from brokencircuits.hypergraphs import Hypergraph

    # 10,000 vertices, 3 of them in the one edge: the states hold 3 characters
    fold = core._image_fold
    starts = []
    monkeypatch.setattr(core, "_image_fold", lambda n, start, *rest: starts.append(start) or fold(n, start, *rest))
    hg = Hypergraph(range(10_000), [{0, 5_000, 9_999}])
    assert hypergraphs.hypergraph_chromatic(hg) == IntPolynomial([0] * 9_998 + [-1, 0, 1])
    assert starts == [(10_000, "\x00\x01\x02")]
    # a merge or settle passes the labels, one mask word, once per edge end: 3 steps
    monkeypatch.setattr(core, "WORK_BUDGET", 3)
    assert hypergraphs.hypergraph_chromatic(hg) == IntPolynomial([0] * 9_998 + [-1, 0, 1])
    monkeypatch.setattr(core, "WORK_BUDGET", 2)
    with pytest.raises(CapExceeded, match="^3 frontier labels passed at 3 edge ends: past the work budget of 2"):
        hypergraphs.hypergraph_chromatic(hg)


def test_component_sweep_of_many_large_edges_is_refused_before_it_starts(monkeypatch):
    from brokencircuits import hypergraphs
    from brokencircuits.hypergraphs import Hypergraph

    # 200 disjoint edges of 500 vertices keep few states, but each state is 100,000
    # characters and every merge passes them 500 times
    hg = Hypergraph(range(100_000), [range(k * 500, (k + 1) * 500) for k in range(200)])
    monkeypatch.setattr(core, "_image_fold", lambda *args: pytest.fail("swept"))
    with pytest.raises(CapExceeded, match="^100000 frontier labels passed at 100000 edge ends: past"):
        hypergraphs.hypergraph_chromatic(hg)


def test_settled_sweeps_leave_no_reference_cycles():
    from brokencircuits.core import _component_histogram
    from brokencircuits.graphs import Graph

    edges = [(0, 1), (1, 2), (2, 0), (2, 3, 4), (4, 5), (5, 0)]
    petersen = Graph(range(10), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
                                 (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
    gc.collect()
    gc.disable()
    try:
        hist = _component_histogram(6, edges)
        induced = petersen._induced_sweep()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert hist == _brute_fold(len(edges), lambda m: _brute_components(6, edges, m))
    assert sum(induced.values()) == 0


def test_image_fold_settle_runs_on_both_branches():
    # an OR state whose low bits are forgotten after position i: the key
    # reads only bits never forgotten, so the sweep matches the per-mask fold
    from brokencircuits.core import _image_fold

    rng = random.Random(4100)
    n = 10
    ors = [rng.getrandbits(8) for _ in range(n)]
    keep = [0xFF ^ ((1 << (i // 2 + 1)) - 1) for i in range(n)]
    seen = []

    def settle(i, s):
        seen.append((i, s))
        return s & keep[i]

    def include(i, s):
        return s | ors[i]

    key = lambda s: s & keep[-1]
    swept = _image_fold(n, 0, include, key, settle)
    assert swept == _brute_fold(n, lambda m: key(_over(ors, int.__or__, m)))
    # position 0 settles the start state and its image
    assert [s for i, s in seen if i == 0] == [0, ors[0]]


@pytest.mark.parametrize("n", range(13))
def test_image_fold_with_broken_masks_matches_signed_fold_and_brute_force(n):
    # the flagged sweep against a per-mask filter, with and without a settle
    # hook that forgets the low bits of an OR state
    from brokencircuits.core import _image_fold

    rng = random.Random(5000 + n)
    ors = [rng.getrandbits(6) for _ in range(n)]
    ints = [rng.choice([2, 3, 4, 6, 9, 10, 12, 15, 30, 36]) for _ in range(n)]
    keep = [0x3F ^ ((1 << (i // 2 + 1)) - 1) for i in range(n)]
    high = keep[-1] if n else 0x3F
    cases = [
        (0, lambda i, s: s | ors[i], lambda s: s, None, lambda m: _over(ors, int.__or__, m)),
        (0, lambda i, s: s | ors[i], lambda s: s & high, lambda i, s: s & keep[i],
         lambda m: _over(ors, int.__or__, m) & high),
        (0, lambda i, g: math.gcd(g, ints[i]), lambda g: g, None, lambda m: _over(ints, math.gcd, m)),
        (0, lambda i, mask: mask | 1 << i, lambda mask: mask, None, lambda m: m),
    ]
    families = _fold_families(rng, n)
    if n:
        # duplicates, a mask that includes another, and every singleton
        dup = 1 << rng.randrange(n) | 1 << (n - 1)
        families += [[dup, dup, dup | 1], [1 << p for p in range(n)]]
    for broken in families:
        for start, include, key, settle, state_of_mask in cases:
            brute = _brute_fold(n, state_of_mask, broken)
            assert _image_fold(n, start, include, key, settle, broken) == brute, broken
        if 0 in broken:
            assert _image_fold(n, 0, lambda i, s: s, lambda s: s, None, broken) == {}
    assert _image_fold(0, 7, None, lambda s: s, None, [0]) == {}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_image_fold_prunes_by_the_minimal_masks_alone(data):
    # duplicates and supersets of a mask prune nothing more, so the sweep
    # with them equals the sweep with the minimal masks and the brute force
    from brokencircuits.core import _image_fold

    n = data.draw(st.integers(1, 10), label="n")
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6), label="masks")
    grown = [m | data.draw(st.integers(0, (1 << n) - 1), label="grown") for m in masks]
    family = data.draw(st.permutations(masks + masks + grown), label="family")
    minimal = [m for m in set(family) if not any(b != m and m & b == b for b in family)]
    ors = data.draw(st.lists(st.integers(0, 63), min_size=n, max_size=n), label="ors")
    for include, key, state_of_mask in (
        (lambda i, s: s | 1 << i, lambda s: s, lambda m: m),
        (lambda i, s: s | ors[i], lambda s: s, lambda m: _over(ors, int.__or__, m)),
    ):
        pruned = _image_fold(n, 0, include, key, None, family)
        assert pruned == _image_fold(n, 0, include, key, None, minimal)
        assert pruned == _brute_fold(n, state_of_mask, minimal)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_image_fold_drops_the_states_a_hook_maps_to_none(data):
    # include and settle hooks that return None on drawn (position, state)
    # pairs, with and without broken masks, against the same hooks applied
    # per subset, position by position, dropping the subset once one of
    # them returns None
    from brokencircuits.core import _image_fold

    n = data.draw(st.integers(0, 8), label="n")
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, 7))
    dead_include = data.draw(st.sets(pair, max_size=10), label="dead_include")
    dead_settle = data.draw(st.sets(pair, max_size=10), label="dead_settle")
    kept = data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n), label="kept")
    broken = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3), label="broken")

    def include(i, s):
        return None if (i, s) in dead_include else (3 * s + i + 1) % 8

    def settle(i, s):
        return None if (i, s) in dead_settle else s & kept[i] | s >> 2

    key = lambda s: s & 3
    for hook in (None, settle):
        hist = {}
        for mask in range(1 << n):
            if any(mask & b == b for b in broken):
                continue
            s = 0
            for i in range(n):
                if s is not None and mask >> i & 1:
                    s = include(i, s)
                if s is not None and hook is not None:
                    s = hook(i, s)
            if s is not None:
                hist[key(s)] = hist.get(key(s), 0) + (-1 if mask.bit_count() & 1 else 1)
        expected = {k: count for k, count in hist.items() if count}
        assert _image_fold(n, 0, include, key, hook, broken) == expected, hook


def _whitney_route(bad):
    doc = {"kind": "whitney", "elements": ["a", "b", "c"], "circuits": [["a", "b", "c"]],
           "broken": [sorted(bad)], "function": {"kind": "sign"}}
    return cli._whitney_sum(argparse.Namespace(permute_order=None), doc, core)


def _hypergraph_route(bad):
    hg, family = grid_rectangle_hypergraph(2, 3)
    return hypergraph_chromatic(hg, "restricted", family, broken=[bad])


def _blass_sagan_route(bad):
    p4 = partition_lattice(4)
    atoms = p4.atoms()
    return blass_sagan_mobius(p4, Crosscut(p4, atoms, [(atoms[0], atoms[1])]), subfamily=[bad])


@pytest.mark.parametrize("route, bad", [
    (_whitney_route, frozenset({"b"})),
    (lambda bad: domination_polynomial(Graph.path(3), "pruned", broken=[bad]), frozenset({0})),
    (_hypergraph_route, frozenset({0})),
    (_blass_sagan_route, frozenset(partition_lattice(4).atoms()[:1])),
])
def test_every_pruned_route_refuses_a_set_that_is_not_derived(route, bad):
    # each route chooses its broken sub-family through one core check
    with pytest.raises(PreconditionError) as info:
        route(bad)
    assert str(info.value).startswith(f"{sorted(map(repr, bad))} is not ")


def test_chain_subsets_match_recursive_walk():
    # the kernel walk yields the chains in the order of a recursive walk
    # over a linear extension that decides each element in turn, exclusion
    # first, each chain once
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(0, 7)
        covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        poset = FinitePoset.from_covers(range(n), covers)
        ext = poset.linear_extension()
        expected = []

        def walk(pos, current):
            if pos == len(ext):
                expected.append(frozenset(current))
                return
            walk(pos + 1, current)
            if all(poset.le(c, ext[pos]) for c in current):
                walk(pos + 1, current + [ext[pos]])

        walk(0, [])
        got = list(poset.chain_subsets())
        assert got == expected
        assert len(got) == len(set(got))
        assert set(got) == {
            frozenset(s)
            for r in range(n + 1)
            for s in itertools.combinations(range(n), r)
            if poset.is_chain(s)
        }


def test_chain_walk_leaves_no_reference_cycles():
    poset = FinitePoset.from_covers(range(6), [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)])
    gc.collect()
    gc.disable()
    try:
        chains = list(poset.chain_subsets())
        assert gc.collect() == 0
    finally:
        gc.enable()
    # at most one element from each of the levels {0}, {1, 2}, {3}, {4, 5}
    assert len(chains) == 2 * 3 * 2 * 3


def test_chain_routes_match_combination_filters():
    # the chain, maxima and Narushima routes against itertools.combinations
    # filtered by is_chain or by maximality, on random posets whose input
    # order is not their linear extension, and on random upper semilattices
    rng = random.Random(29)
    posets, semilattices = [], []
    while len(semilattices) < 15:
        n = rng.randint(0, 7)
        labels = rng.sample(range(n), n)
        covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        posets.append(FinitePoset.from_covers(labels, covers))
        topped = FinitePoset.from_covers(labels + [n], covers + [(i, n) for i in range(n)])
        if topped.semilattice_violation() is None:
            semilattices.append(topped)

    def subsets_and_weights(poset):
        subsets = [frozenset(c) for r in range(len(poset) + 1)
                   for c in itertools.combinations(poset.elements, r)]
        weights = {s: rng.randint(-9, 9) for s in subsets}
        return subsets, weights, SetFunction(weights.__getitem__, 0, "random")

    for poset in posets + semilattices:
        subsets, weights, f = subsets_and_weights(poset)
        chains = [s for s in subsets if poset.is_chain(s)]
        got = list(poset.chain_subsets())
        assert len(got) == len(set(got)) and set(got) == set(chains)
        maximal = set(poset.maximal_elements())
        expected = sum(weights[s] for s in subsets if s <= maximal)
        assert sum_over_maxima(f, poset, check=False).restricted == expected
    for poset in semilattices:
        subsets, weights, f = subsets_and_weights(poset)
        chains = [s for s in subsets if poset.is_chain(s)]
        assert sum_over_chains(f, poset, check=False) == sum(weights[s] for s in chains)
        # x lies in M_s when its generator lies below s, so M_s & M_t lies in M_{s v t}
        generators = [rng.choice(poset.elements) for _ in range(rng.randint(0, 12))]
        family = IndexedSetFamily(poset.elements, {
            s: {x for x, g in enumerate(generators) if poset.le(g, s)} for s in poset.elements
        })
        expected = sum((-1) ** (len(c) + 1) * len(family.intersection(c)) for c in chains if c)
        assert narushima_union(poset, family) == expected == len(family.union_all())


def _all_subfamilies(broken):
    if len(broken) > 3:
        return [broken, broken[:1], []]
    out = []
    for r in range(len(broken) + 1):
        out.extend(list(c) for c in itertools.combinations(broken, r))
    return out


class TestPosets:
    def test_partial_order_validation(self):
        with pytest.raises(PreconditionError):
            FinitePoset("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(PreconditionError):
            FinitePoset("abc", [("a", "b"), ("b", "c")])  # not transitive

    def test_from_covers_closes(self):
        p = FinitePoset.from_covers("abc", [("a", "b"), ("b", "c")])
        assert p.le("a", "c")
        assert p.maximal_elements() == ("c",)

    def test_linear_extension_is_stable(self):
        p = FinitePoset.from_covers([3, 1, 2], [(3, 2)])
        assert p.linear_extension() == (3, 1, 2)

    def test_join_and_semilattice(self):
        vee = FinitePoset.from_covers("abt", [("a", "t"), ("b", "t")])
        assert vee.join("a", "b") == "t"
        assert vee.semilattice_violation() is None
        two = FinitePoset("ab", [])
        assert two.semilattice_violation() == ("a", "b")


class TestSumOverMaxima:
    def test_antichain_sums_everything(self):
        p = FinitePoset(range(3), [])
        res = sum_over_maxima(sign_function(), p)
        assert res.restricted == res.full == 0

    def test_chain_keeps_top_only(self):
        p = FinitePoset.from_covers("abc", [("a", "b"), ("b", "c")])
        f = SetFunction(lambda s: 1 if not s or s == {"c"} else 0, 0, "top-indicator")
        # f must satisfy the cancellation; this one does not, so check=False
        res = sum_over_maxima(f, p, check=False)
        assert res.restricted == 2

    def test_divisor_30_gcd_indicator(self):
        divs = [2, 3, 5, 6, 10, 15]
        p = FinitePoset(divs, [(a, b) for a in divs for b in divs if b % a == 0])
        f = SetFunction(
            lambda s: 0 if gcd_all(s) != 1 else (-1 if len(s) & 1 else 1),
            0,
            "gcd-indicator",
        )
        res = sum_over_maxima(f, p)
        assert res.restricted == -1  # mu(30)
        assert res.full == -1
        assert res.cancellation.ok

    def test_violation_raises(self):
        p = FinitePoset.from_covers("ab", [("a", "b")])
        f = SetFunction(lambda s: 1, 0, "one")
        with pytest.raises(PreconditionError):
            sum_over_maxima(f, p)


class TestSumOverChains:
    def test_chain_poset_equals_full(self):
        p = FinitePoset.from_covers(range(3), [(0, 1), (1, 2)])
        assert sum_over_chains(sign_function(), p, check=False) == sum_full(
            sign_function(), OrderedGroundSet(range(3))
        )

    def test_vee_with_valid_function(self):
        p = FinitePoset.from_covers("abt", [("a", "t"), ("b", "t")])
        ground = OrderedGroundSet(p.linear_extension())
        rng = random.Random(3)
        weights = {}

        def close(subset):
            out = set(subset)
            if {"a", "b"} <= out:
                out.add("t")
            return frozenset(out)

        table = {}
        for mask in range(1 << 3):
            subset = ground.subset_of(mask)
            h = close(subset)
            if h not in weights:
                weights[h] = rng.randint(-9, 9)
            table[subset] = (-1 if len(subset) & 1 else 1) * weights[h]
        f = TableSetFunction(ground, table, 0, "vee")
        assert sum_over_chains(f, p) == sum_full(f, ground)

    def test_not_a_semilattice(self):
        p = FinitePoset("ab", [])
        with pytest.raises(PreconditionError):
            sum_over_chains(sign_function(), p, check=False)

    def test_chain_count_matches_the_walk_and_refuses_b8_up_front(self):
        rng = random.Random(29)
        posets = [FinitePoset([], []), FinitePoset("ab", []), boolean_lattice(5), partition_lattice(4)]
        while len(posets) < 30:
            n = rng.randint(1, 9)
            covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            posets.append(FinitePoset.from_covers(rng.sample(range(n), n), covers))
        for p in posets:
            assert p._chain_count() == len(list(p.chain_subsets())), p.elements
        assert (posets[2]._chain_count(), posets[3]._chain_count()) == (2164, 128)
        b8 = boolean_lattice(8)
        family = IndexedSetFamily(OrderedGroundSet(b8.elements), {e: () for e in b8.elements})
        start = time.perf_counter()
        for walk in (lambda: sum_over_chains(sign_function(), b8, check=False),
                     lambda: next(b8.chain_subsets()), lambda: narushima_union(b8, family)):
            with pytest.raises(CapExceeded, match="has 2183340 chains"):
                walk()
        assert time.perf_counter() - start < 2


class TestRandomSemilattices:
    def test_chain_sums_match_full_on_join_closures(self):
        rng = random.Random(21)
        built = 0
        while built < 25:
            n = rng.randint(2, 6)
            covers = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
            ]
            covers += [(i, n) for i in range(n)]
            poset = FinitePoset.from_covers(range(n + 1), covers)
            if poset.semilattice_violation() is not None:
                continue
            built += 1
            ground = OrderedGroundSet(poset.linear_extension())
            weights = {}

            def close(subset):
                out = set(subset)
                changed = True
                while changed:
                    changed = False
                    items = list(out)
                    for i, s in enumerate(items):
                        for t in items[i + 1 :]:
                            if not poset.comparable(s, t):
                                j = poset.join(s, t)
                                if j not in out:
                                    out.add(j)
                                    changed = True
                return frozenset(out)

            table = {}
            for mask in range(1 << len(ground)):
                subset = ground.subset_of(mask)
                h = close(subset)
                if h not in weights:
                    weights[h] = rng.randint(-7, 7)
                table[subset] = (-1 if len(subset) & 1 else 1) * weights[h]
            f = TableSetFunction(ground, table, 0, "join-closure")
            assert sum_over_chains(f, poset) == sum_full(f, ground)


class TestMaxMin:
    def test_two_values(self):
        assert maxmin_identity([1, 2], 1) == (2, 2)

    def test_three_values_k2(self):
        lhs, rhs = maxmin_identity([3, 1, 2], 2)
        assert lhs == rhs == 6

    def test_constant_values(self):
        from math import comb

        for n in range(1, 6):
            for k in range(1, n + 1):
                lhs, rhs = maxmin_identity([7] * n, k)
                assert lhs == rhs == comb(n - 1, k - 1) * 7

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            maxmin_identity([1, 2], 3)
        with pytest.raises(PreconditionError):
            maxmin_identity([1, 2], 0)

    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=200)
    def test_random_instances(self, values, data):
        k = data.draw(st.integers(1, len(values)))
        lhs, rhs = maxmin_identity(values, k)
        assert lhs == rhs
        perm = data.draw(st.permutations(values))
        assert maxmin_identity(perm, k)[0] == lhs


class TestRestrictedUnion:
    def test_hand_example(self):
        family = IndexedSetFamily(
            [1, 2, 3], {1: {1, 2}, 2: {2, 3}, 3: {2}}
        )
        b = frozenset({1, 2})
        assert restricted_union_size(family, [b], {b: 3}) == 3

    def test_classical_inclusion_exclusion(self):
        family = IndexedSetFamily("ab", {"a": {1, 2, 3}, "b": {3, 4}})
        assert restricted_union_size(family, [], {}) == 4

    def test_witness_validation(self):
        family = IndexedSetFamily([1, 2, 3], {1: {1}, 2: {1}, 3: {9}})
        b = frozenset({1, 2})
        with pytest.raises(PreconditionError):
            restricted_union_size(family, [b], {b: 3})  # {1} not within {9}

    def test_witness_must_be_above(self):
        family = IndexedSetFamily([1, 2, 3], {1: {1}, 2: {1}, 3: {1}})
        b = frozenset({2, 3})
        with pytest.raises(PreconditionError):
            restricted_union_size(family, [b], {b: 1})

    def test_equal_sets_with_all_pairs(self):
        m = frozenset({1, 2, 3})
        family = IndexedSetFamily(range(4), {i: m for i in range(4)})
        broken = []
        witnesses = {}
        for i in range(4):
            for j in range(i + 1, 3):
                b = frozenset({i, j})
                broken.append(b)
                witnesses[b] = 3
        assert restricted_union_size(family, broken, witnesses) == 3


class TestIndexedFamily:
    def test_universe_enforced(self):
        with pytest.raises(SchemaError):
            IndexedSetFamily("ab", {"a": {1}, "b": {9}}, universe={1, 2, 3})

    def test_missing_index_rejected(self):
        with pytest.raises(SchemaError):
            IndexedSetFamily("ab", {"a": {1}})

    def test_intersection_and_union(self):
        fam = IndexedSetFamily("ab", {"a": {1, 2}, "b": {2, 3}})
        assert fam.intersection("ab") == {2}
        assert fam.union_all() == {1, 2, 3}
        with pytest.raises(PreconditionError):
            fam.intersection([])


class TestNarushima:
    def test_chain_semilattice(self):
        p = FinitePoset.from_covers(range(3), [(0, 1), (1, 2)])
        family = IndexedSetFamily(range(3), {0: {1, 2, 3}, 1: {2, 3}, 2: {3}})
        assert narushima_union(p, family) == 3

    def test_vee(self):
        p = FinitePoset.from_covers("abt", [("a", "t"), ("b", "t")])
        family = IndexedSetFamily("abt", {"a": {1, 2}, "b": {2, 3}, "t": {2, 9}})
        assert narushima_union(p, family) == 4

    def test_single_element(self):
        p = FinitePoset("a", [])
        family = IndexedSetFamily("a", {"a": {1, 2, 3, 4}})
        assert narushima_union(p, family) == 4

    def test_condition_violated(self):
        p = FinitePoset.from_covers("abt", [("a", "t"), ("b", "t")])
        family = IndexedSetFamily("abt", {"a": {1, 2}, "b": {2, 3}, "t": {9}})
        with pytest.raises(PreconditionError):
            narushima_union(p, family)
