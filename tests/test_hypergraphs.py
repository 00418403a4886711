import itertools
import random

import pytest

from brokencircuits.algebra import IntPolynomial
from brokencircuits.core import CircuitFamily
from brokencircuits.errors import CapExceeded, PreconditionError, SchemaError
from brokencircuits.graphs import Graph, chromatic_polynomial, cycles_edge_sets
from brokencircuits.hypergraphs import (
    Hypergraph,
    grid_rectangle_hypergraph,
    hypergraph_chromatic,
    is_berge_cycle_edge_set,
    is_pair_upset_family,
    is_self_covering_family,
    tight_cycles,
)
from brokencircuits.oracles import oracle_hyper_colourings


def poly(*coeffs):
    return IntPolynomial(coeffs)


def graph_as_hypergraph(graph):
    return Hypergraph(graph.vertices, [frozenset(e) for e in graph.edges])


class TestHypergraphBasics:
    def test_rejects_small_edges(self):
        with pytest.raises(SchemaError):
            Hypergraph("ab", [frozenset("a")])

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            Hypergraph("ab", [frozenset("ab"), frozenset("ba")])

    def test_components(self):
        hg = Hypergraph("abcd", [frozenset("abc")])
        assert hg.spanning_component_count([]) == 4
        assert hg.spanning_component_count([0]) == 2


class TestChromatic:
    def test_full_route_refuses_more_than_20_edges_before_folding(self, monkeypatch):
        from brokencircuits import hypergraphs

        def fold(*args):
            raise AssertionError("the full route folded past its edge cap")

        monkeypatch.setattr(hypergraphs, "_component_histogram", fold)
        hg = Hypergraph(range(22), [frozenset({i, i + 1}) for i in range(21)])
        with pytest.raises(CapExceeded, match=r"2\^21 edge subsets needs \|E\| <= 20"):
            hypergraph_chromatic(hg, "full")
        grid, _ = grid_rectangle_hypergraph(4, 4)
        assert len(grid.edges) == 36
        with pytest.raises(CapExceeded, match=r"2\^36 edge subsets"):
            hypergraph_chromatic(grid)

    def test_full_route_accepts_20_edges(self, monkeypatch):
        from brokencircuits import hypergraphs

        folds = []
        monkeypatch.setattr(hypergraphs, "_component_histogram", lambda n, edges: folds.append(edges) or {1: 1})
        hg = Hypergraph(range(21), [frozenset({i, i + 1, 20}) for i in range(20)])
        assert hypergraph_chromatic(hg, "full") == poly(0, 1)
        assert len(folds) == 1 and len(folds[0]) == 20

    def test_single_triple_edge(self):
        hg = Hypergraph("abc", [frozenset("abc")])
        assert hypergraph_chromatic(hg, "full") == poly(0, -1, 0, 1)

    def test_colouring_counts(self):
        hg = Hypergraph("abc", [frozenset("abc")])
        p = hypergraph_chromatic(hg, "full")
        assert p.evaluate(2) == 6 == oracle_hyper_colourings(hg, 2)
        assert p.evaluate(3) == oracle_hyper_colourings(hg, 3)

    def test_graph_as_hypergraph_matches(self, corpus):
        for name in ("k3", "c4", "k4", "p4"):
            g = corpus[name]
            hg = graph_as_hypergraph(g)
            assert hypergraph_chromatic(hg, "full") == chromatic_polynomial(g, "full"), name

    def test_restricted_needs_valid_family(self):
        hg = Hypergraph("abcd", [frozenset("ab"), frozenset("cd"), frozenset("abcd")])
        bad = CircuitFamily([frozenset({0, 1, 2})])
        with pytest.raises(PreconditionError):
            hypergraph_chromatic(hg, "restricted", bad)

    def test_graph_cycles_are_self_covering(self, corpus):
        for name in ("k3", "c4", "k4"):
            g = corpus[name]
            hg = graph_as_hypergraph(g)
            family = CircuitFamily(cycles_edge_sets(g))
            assert is_self_covering_family(family, hg), name
            full = hypergraph_chromatic(hg, "full")
            assert hypergraph_chromatic(hg, "restricted", family) == full, name


class TestConditions:
    def test_triangle_self_covering(self):
        hg = graph_as_hypergraph(Graph.complete(3))
        fam = CircuitFamily([frozenset({0, 1, 2})])
        assert is_self_covering_family(fam, hg)

    def test_disjoint_edges_fail(self):
        hg = Hypergraph("abcd", [frozenset("ab"), frozenset("cd")])
        fam = CircuitFamily([frozenset({0, 1})])
        assert not is_self_covering_family(fam, hg)
        assert not is_pair_upset_family(fam, hg)

    def test_non_cycle_set_condition_insufficient(self):
        # every edge inside the union of the others, yet not a cycle: the
        # bare covering condition must not be accepted
        hg = Hypergraph("abcd", [frozenset("ab"), frozenset("cd"), frozenset("abcd")])
        fam = CircuitFamily([frozenset({0, 1, 2})])
        sets = [hg.edges[i] for i in (0, 1, 2)]
        for k, e in enumerate(sets):
            assert e <= frozenset().union(*(s for t, s in enumerate(sets) if t != k))
        assert not is_berge_cycle_edge_set(hg, [0, 1, 2])
        assert not is_self_covering_family(fam, hg)

    def test_pair_upset(self):
        # cycle (a, ab, b, bc, c, abc, a) whose 2-edges close the edge order
        hg = Hypergraph("abcd", [frozenset("abc"), frozenset("ab"), frozenset("bc")])
        fam = CircuitFamily([frozenset({0, 1, 2})])
        assert is_pair_upset_family(fam, hg)
        full = hypergraph_chromatic(hg, "full")
        assert hypergraph_chromatic(hg, "restricted", fam) == full

    def test_pair_upset_violated_by_order(self):
        hg = Hypergraph("abcd", [frozenset("ab"), frozenset("abc"), frozenset("bc")])
        fam = CircuitFamily([frozenset({0, 2})])
        assert not is_pair_upset_family(fam, hg)

    def test_cycle_without_2_edge_fails_b(self):
        hg = Hypergraph("abcd", [frozenset("abc"), frozenset("bcd"), frozenset("acd")])
        fam = CircuitFamily([frozenset({0, 1, 2})])
        assert not is_pair_upset_family(fam, hg)


class TestPairUpsetRandomized:
    def test_mixed_hypergraphs_with_trailing_2_edges(self):
        # large edges first, a graph on the same vertices as trailing
        # 2-edges; circuits are the graph cycles read as edge-index sets
        import random

        from brokencircuits.graphs import cycles_edge_sets, random_graph

        rng = random.Random(271)
        built = 0
        while built < 20:
            n = rng.randint(4, 6)
            g = random_graph(rng, n, 0.5)
            cycles = cycles_edge_sets(g)
            if not cycles:
                continue
            big = []
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(3, n)
                e = frozenset(rng.sample(range(n), size))
                if e not in big:
                    big.append(e)
            small = [frozenset(e) for e in g.edges]
            if len(big) + len(small) > 12 or any(b in small for b in big):
                continue
            hg = Hypergraph(range(n), big + small)
            offset = len(big)
            fam = CircuitFamily([frozenset(i + offset for i in c) for c in cycles])
            assert is_pair_upset_family(fam, hg)
            full = hypergraph_chromatic(hg, "full")
            assert hypergraph_chromatic(hg, "restricted", fam) == full
            built += 1


class TestTightCycles:
    def test_graph_cycles_via_l1(self, corpus):
        for name in ("k3", "c4", "k4"):
            g = corpus[name]
            hg = graph_as_hypergraph(g)
            fam = tight_cycles(hg, 1)
            assert set(fam.circuits) == set(cycles_edge_sets(g)), name

    def test_complete_3_uniform_on_5(self):
        edges = [frozenset(c) for c in itertools.combinations(range(5), 3)]
        hg = Hypergraph(range(5), edges)
        fam = tight_cycles(hg, 2)
        # 4-vertex cycles all share the same window set (every triple of the
        # four vertices), one per vertex choice; 5-vertex cycles give one
        # 5-edge set per cyclic order
        by_size = {}
        for c in fam:
            by_size[len(c)] = by_size.get(len(c), 0) + 1
        assert by_size == {4: 5, 5: 12}
        assert is_self_covering_family(fam, hg)
        full = hypergraph_chromatic(hg, "full")
        assert hypergraph_chromatic(hg, "restricted", fam) == full

    def test_l_too_small(self):
        edges = [frozenset(c) for c in itertools.combinations(range(5), 3)]
        hg = Hypergraph(range(5), edges)
        with pytest.raises(PreconditionError):
            tight_cycles(hg, 1)

    def test_non_uniform(self):
        hg = Hypergraph("abcd", [frozenset("ab"), frozenset("abc")])
        with pytest.raises(PreconditionError):
            tight_cycles(hg, 1)


class TestCancellationDirect:
    def test_self_covering_preserves_components(self):
        # removing the maximum edge of a qualifying cycle never changes
        # c(V, A) for supersets A of the cycle
        cases = []
        hg35 = Hypergraph(range(5), [frozenset(c) for c in itertools.combinations(range(5), 3)])
        cases.append((hg35, tight_cycles(hg35, 2)))
        cases.append(grid_rectangle_hypergraph(2, 4))
        for hg, family in cases:
            m = len(hg.edges)
            full = (1 << m) - 1
            for circuit in family:
                cmask = sum(1 << i for i in circuit)
                top = 1 << (cmask.bit_length() - 1)
                free = full & ~cmask
                sub = free
                while True:
                    a = cmask | sub
                    assert hg._components_of_mask(a) == hg._components_of_mask(a & ~top)
                    if sub == 0:
                        break
                    sub = (sub - 1) & free


class TestGrid:
    def test_2x2(self):
        hg, fam = grid_rectangle_hypergraph(2, 2)
        assert len(hg.edges) == 1
        assert len(fam) == 0

    def test_2x3(self):
        hg, fam = grid_rectangle_hypergraph(2, 3)
        assert len(hg.edges) == 3
        assert len(fam) == 1
        (circuit,) = fam.circuits
        assert len(circuit) == 3
        # the largest-area rectangle is the maximum of the circuit
        assert max(circuit) == 2

    def test_2x3_restricted_equals_full(self):
        hg, fam = grid_rectangle_hypergraph(2, 3)
        assert hypergraph_chromatic(hg, "restricted", fam) == hypergraph_chromatic(hg, "full")

    def test_larger_grids_roundtrip(self):
        for rows, cols in ((2, 4), (3, 3)):
            hg, fam = grid_rectangle_hypergraph(rows, cols)
            assert is_self_covering_family(fam, hg)
            full = hypergraph_chromatic(hg, "full")
            assert hypergraph_chromatic(hg, "restricted", fam) == full
            for x in (2,):
                assert full.evaluate(x) == oracle_hyper_colourings(hg, x)

    def test_caps(self):
        with pytest.raises(PreconditionError):
            grid_rectangle_hypergraph(1, 5)
        with pytest.raises(CapExceeded):
            grid_rectangle_hypergraph(5, 5)

    def test_order_puts_larger_rectangles_later(self):
        hg, fam = grid_rectangle_hypergraph(3, 3)
        areas = []
        for e in hg.edges:
            xs = sorted({p[0] for p in e})
            ys = sorted({p[1] for p in e})
            areas.append((xs[1] - xs[0]) * (ys[1] - ys[0]))
        assert areas == sorted(areas)
        for circuit in fam:
            ids = sorted(circuit)
            assert areas[ids[2]] >= max(areas[ids[0]], areas[ids[1]])


def test_full_route_matches_per_subset_components():
    # random hypergraphs with isolated vertices, 2-edges and zero edges
    rng = random.Random(61)
    hypergraphs = [Hypergraph(range(3), []), Hypergraph([0, 1], [{0, 1}])]
    while len(hypergraphs) < 25:
        n = rng.randint(2, 8)
        edges = {frozenset(rng.sample(range(n), rng.randint(2, min(4, n)))) for _ in range(rng.randint(0, 9))}
        hypergraphs.append(Hypergraph(range(n + rng.randint(0, 2)), edges))
    for hg in hypergraphs:
        m = len(hg.edges)
        coeffs = [0] * (len(hg.vertices) + 1)
        for mask in range(1 << m):
            coeffs[hg._components_of_mask(mask)] += -1 if mask.bit_count() & 1 else 1
        assert hypergraph_chromatic(hg, "full") == IntPolynomial(coeffs), hg.edges


def _brute_berge_cycle(hg, ids):
    """Some cyclic order of the edges with pairwise distinct connecting vertices."""
    ids = sorted(ids)
    if len(ids) < 2:
        return False
    for order in itertools.permutations(ids[1:]):
        seq = [hg.edges[i] for i in (ids[0], *order)]
        links = [seq[k] & seq[(k + 1) % len(seq)] for k in range(len(seq))]
        for vertices in itertools.product(*links):
            if len(set(vertices)) == len(vertices):
                return True
    return False


def test_berge_cycle_test_matches_brute_force():
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randint(3, 7)
        edges = {frozenset(rng.sample(range(n), rng.randint(2, min(4, n)))) for _ in range(rng.randint(2, 7))}
        hg = Hypergraph(range(n), edges)
        for r in range(1, min(5, len(hg.edges)) + 1):
            for ids in itertools.combinations(range(len(hg.edges)), r):
                assert is_berge_cycle_edge_set(hg, ids) == _brute_berge_cycle(hg, ids), (hg.edges, ids)


def test_restricted_route_with_chosen_broken_circuits():
    # every subfamily of the grid's broken circuits gives the full value,
    # and the folded route matches the restricted sum taken per subset
    from brokencircuits.core import OrderedGroundSet, derive_broken_circuits

    for rows, cols in ((2, 4), (3, 3)):
        hg, family = grid_rectangle_hypergraph(rows, cols)
        m = len(hg.edges)
        derived = [bc.subset for bc in derive_broken_circuits(family, OrderedGroundSet(range(m)))]
        full = hypergraph_chromatic(hg, "full")
        rng = random.Random(63 + rows)
        for chosen in ([], derived[:1], rng.sample(derived, len(derived) // 2), derived):
            masks = [sum(1 << i for i in b) for b in chosen]
            coeffs = [0] * (len(hg.vertices) + 1)
            for mask in range(1 << m):
                if not any(mask & b == b for b in masks):
                    coeffs[hg._components_of_mask(mask)] += -1 if mask.bit_count() & 1 else 1
            got = hypergraph_chromatic(hg, "restricted", family, broken=chosen)
            assert got == IntPolynomial(coeffs) == full, (rows, cols, chosen)


def test_family_checks_leave_no_reference_cycles():
    import gc

    gc.collect()
    gc.disable()
    try:
        _, family = grid_rectangle_hypergraph(3, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(family) > 0
