import itertools
import random
import time
from math import comb

import networkx as nx
import pytest

from brokencircuits.algebra import BiPolynomial, IntPolynomial
from brokencircuits.errors import CapExceeded, PreconditionError, SchemaError
from brokencircuits.graphs import (
    Graph,
    broken_neighbourhoods,
    chromatic_polynomial,
    cycles_edge_sets,
    cycles_vertex_sets,
    degree1_upset_order,
    domination_polynomial,
    is_cyclically_claw_free,
    q_at_minus_one,
    random_graph,
    subgraph_component_polynomial,
    whitney_edge_counts,
)
from brokencircuits.oracles import oracle_colourings, oracle_dominating


def poly(*coeffs):
    return IntPolynomial(coeffs)


class TestGraphBasics:
    def test_rejects_loops_and_parallels(self):
        with pytest.raises(SchemaError):
            Graph([0, 1], [(0, 0)])
        with pytest.raises(SchemaError):
            Graph([0, 1], [(0, 1), (1, 0)])

    def test_spanning_components(self):
        k3 = Graph.complete(3)
        assert k3.spanning_component_count([]) == 3
        assert k3.spanning_component_count([0]) == 2
        assert k3.spanning_component_count([0, 1, 2]) == 1

    def test_induced_stats_match_networkx(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.4, 0.7)))
            nxg = nx.Graph()
            nxg.add_nodes_from(g.vertices)
            nxg.add_edges_from(g.edges)
            subsets = [(), tuple(g.vertices)]
            subsets += [rng.sample(g.vertices, rng.randint(0, len(g.vertices))) for _ in range(10)]
            for subset in subsets:
                induced = nxg.subgraph(subset)
                assert g.induced_component_count(subset) == nx.number_connected_components(induced)
                assert g.induced_edge_count(subset) == induced.number_of_edges()

    def test_closed_neighborhood(self):
        p3 = Graph.path(3)
        assert p3.closed_neighborhood(1) == {0, 1, 2}
        assert p3.closed_neighborhood([0, 2]) == {0, 1, 2}


class TestCycles:
    def test_tree_has_none(self):
        assert cycles_edge_sets(Graph.path(5)) == []

    def test_k3_has_one(self):
        assert cycles_edge_sets(Graph.complete(3)) == [frozenset({0, 1, 2})]

    def test_k4_has_seven(self):
        cycles = cycles_edge_sets(Graph.complete(4))
        assert len(cycles) == 7
        assert len({len(c) for c in cycles}) == 2  # triangles and squares
        assert sum(1 for c in cycles if len(c) == 3) == 4
        assert sum(1 for c in cycles if len(c) == 4) == 3

    def test_cycle_space_dimension_lower_bound(self):
        # at least 2^(|E|-|V|+c) - 1 cycles would be too many to list for
        # dense graphs, but for C5 there is exactly one
        assert len(cycles_edge_sets(Graph.cycle(5))) == 1

    def test_known_cycle_counts(self):
        assert len(cycles_edge_sets(Graph.complete(5))) == 37
        assert len(cycles_edge_sets(Graph.complete_bipartite(3, 3))) == 15
        petersen = Graph(
            range(10),
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
        )
        by_len = {}
        for c in cycles_edge_sets(petersen):
            by_len[len(c)] = by_len.get(len(c), 0) + 1
        assert by_len == {5: 12, 6: 10, 8: 15, 9: 20}

    def test_vertex_sets(self):
        assert cycles_vertex_sets(Graph.complete(3)) == [frozenset({0, 1, 2})]


class TestChromatic:
    def test_full_route_refuses_k20_by_its_sweep_states(self):
        # no prediction from |E|: K7 and K8 run, and K20's 190 edges are refused once
        # the states the sweep keeps pass the budget, with 9,980 isolated vertices too,
        # since only the vertices that some edge touches are labelled
        k20 = Graph.complete(20)
        for graph in (k20, Graph(range(10_000), k20.edges)):
            start = time.perf_counter()
            with pytest.raises(CapExceeded, match="the sweep over 190 positions: past the work budget"):
                chromatic_polynomial(graph, "full")
            assert time.perf_counter() - start < 5

    def test_full_route_accepts_20_edges(self, monkeypatch):
        from brokencircuits import graphs

        folds = []
        monkeypatch.setattr(graphs, "_component_histogram", lambda n, edges: folds.append(edges) or {7: 1})
        k7 = Graph.complete(7)
        g = Graph(k7.vertices, k7.edges[:20])
        assert chromatic_polynomial(g, "full") == poly(0, 0, 0, 0, 0, 0, 0, 1)
        assert len(folds) == 1 and len(folds[0]) == 20

    def test_k3(self):
        # brute force the defining sum first
        k3 = Graph.complete(3)
        coeffs = [0, 0, 0, 0]
        for r in range(4):
            for combo in itertools.combinations(range(3), r):
                coeffs[k3.spanning_component_count(combo)] += (-1) ** r
        assert IntPolynomial(coeffs) == poly(0, 2, -3, 1)
        assert chromatic_polynomial(k3, "full") == poly(0, 2, -3, 1)
        assert chromatic_polynomial(k3, "broken_circuit") == poly(0, 2, -3, 1)

    def test_k4(self):
        k4 = Graph.complete(4)
        expected = poly(0, -6, 11, -6, 1)
        assert chromatic_polynomial(k4, "full") == expected
        assert chromatic_polynomial(k4, "broken_circuit") == expected
        # falling factorial x(x-1)(x-2)(x-3)
        x = IntPolynomial.x()
        assert expected == x * (x - 1) * (x - 2) * (x - 3)

    def test_edgeless(self):
        g = Graph(range(2), [])
        assert chromatic_polynomial(g, "full") == poly(0, 0, 1)
        assert chromatic_polynomial(g, "broken_circuit") == poly(0, 0, 1)

    def test_counts_k3(self):
        assert whitney_edge_counts(Graph.complete(3)) == (1, 3, 2, 0)

    def test_coefficient_law(self, corpus):
        for name, g in corpus.items():
            if len(g.edges) > 10:
                continue
            p = chromatic_polynomial(g, "full")
            counts = whitney_edge_counts(g)
            n = len(g.vertices)
            for k, b in enumerate(counts):
                if k <= n:
                    assert p.coefficient(n - k) == (-1) ** k * b, (name, k)

    def test_petersen(self):
        petersen = Graph(
            range(10),
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
        )
        full = chromatic_polynomial(petersen, "full")
        assert chromatic_polynomial(petersen, "broken_circuit") == full
        assert full.evaluate(3) == oracle_colourings(petersen, 3) == 120

    def test_matches_colouring_oracle(self, corpus):
        for name, g in corpus.items():
            if len(g.edges) > 10 or len(g.vertices) > 6:
                continue
            p = chromatic_polynomial(g, "full")
            for x in (1, 2, 3):
                assert p.evaluate(x) == oracle_colourings(g, x), (name, x)


class TestCyclicallyClawFree:
    def test_k3(self):
        assert is_cyclically_claw_free(Graph.complete(3))

    def test_star_has_claw_centre_off_cycle(self):
        assert is_cyclically_claw_free(Graph.star(3))

    def test_c4_with_pendant(self):
        g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        assert not is_cyclically_claw_free(g)

    def test_bowtie_excluded(self):
        # the shared vertex has degree 4 and sits on both triangles;
        # removing it genuinely splits components, so the pruned sums
        # would diverge if this were allowed through
        g = Graph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert not is_cyclically_claw_free(g)


class TestSubgraphComponents:
    def test_single_vertex(self):
        assert subgraph_component_polynomial(Graph([7], [])) == BiPolynomial(
            {(0, 0): 1, (1, 1): 1}
        )

    def test_k3(self):
        assert subgraph_component_polynomial(Graph.complete(3)) == BiPolynomial(
            {(0, 0): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1}
        )

    def test_edgeless_two_is_square(self):
        one_plus_xy = BiPolynomial({(0, 0): 1, (1, 1): 1})
        assert subgraph_component_polynomial(Graph(range(2), [])) == one_plus_xy**2

    def test_q_at_minus_one_k3(self):
        k3 = Graph.complete(3)
        expected = poly(1, -1)
        for method in ("direct", "restricted", "acyclic"):
            assert q_at_minus_one(k3, method) == expected
        assert subgraph_component_polynomial(k3).substitute_x(-1) == expected

    def test_q_at_minus_one_edgeless(self):
        for n in range(1, 5):
            g = Graph(range(n), [])
            assert q_at_minus_one(g, "direct") == (poly(1, -1)) ** n

    def test_k3_at_minus_one_minus_one(self):
        # even-edge minus odd-edge broken-circuit-free induced subgraphs
        value = q_at_minus_one(Graph.complete(3), "acyclic").evaluate(-1)
        avoiding = [frozenset(), {0}, {1}, {2}, {0, 2}, {1, 2}]
        k3 = Graph.complete(3)
        direct = sum(
            1 if k3.induced_edge_count(a) % 2 == 0 else -1 for a in avoiding
        )
        assert value == direct == 2

    def test_methods_agree_on_ccf_corpus(self, corpus):
        for name, g in corpus.items():
            if not is_cyclically_claw_free(g):
                continue
            direct = q_at_minus_one(g, "direct")
            assert q_at_minus_one(g, "restricted") == direct, name
            assert q_at_minus_one(g, "acyclic") == direct, name

    def test_rejects_non_ccf(self):
        g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        with pytest.raises(PreconditionError):
            q_at_minus_one(g, "restricted")

    def test_direct_refuses_more_than_20_vertices(self, monkeypatch):
        # refused up front, before the cycles are listed
        import brokencircuits.graphs as mod

        def no_listing(*args):
            raise AssertionError("cycles listed")

        monkeypatch.setattr(mod, "_vertex_cycles", no_listing)
        path_plus_isolated = Graph(range(30), [(i, i + 1) for i in range(19)])
        with pytest.raises(CapExceeded, match=r"2\^30 vertex subsets: past the work budget"):
            q_at_minus_one(path_plus_isolated, "direct")
        with pytest.raises(CapExceeded):
            q_at_minus_one(Graph(range(21), []), "direct")

    def test_direct_accepts_20_vertices(self, monkeypatch):
        folds = []
        monkeypatch.setattr(Graph, "_induced_sweep", lambda self: folds.append(self) or {0: 1})
        assert q_at_minus_one(Graph(range(20), []), "direct") == poly(1)
        assert len(folds) == 1

    @pytest.mark.parametrize("method", ["restricted", "acyclic"])
    def test_pruned_routes_refuse_more_than_20_vertices(self, monkeypatch, method):
        # the 20-vertex cap holds on every method: refused up front like
        # direct, before the cycles are listed
        import brokencircuits.graphs as mod

        def no_listing(*args):
            raise AssertionError("cycles listed")

        monkeypatch.setattr(mod, "_vertex_cycles", no_listing)
        with pytest.raises(CapExceeded, match=rf"{method} over 2\^21 vertex subsets: past the work"):
            q_at_minus_one(Graph(range(21), []), method)

    @pytest.mark.parametrize("method", ["restricted", "acyclic"])
    def test_pruned_routes_accept_20_vertices(self, monkeypatch, method):
        import brokencircuits.graphs as mod

        folds = []
        monkeypatch.setattr(Graph, "_induced_sweep", lambda self, *args: folds.append(args) or {0: 1})
        monkeypatch.setattr(mod, "_image_fold", lambda *args: folds.append(args) or {0: 1})
        assert q_at_minus_one(Graph(range(20), []), method) == poly(1)
        assert len(folds) == 1


class TestDomination:
    def test_p2(self):
        assert domination_polynomial(Graph.path(2), "direct") == poly(0, 2, 1)

    def test_single_vertex(self):
        g = Graph([0], [])
        assert domination_polynomial(g, "direct") == poly(0, 1)
        assert domination_polynomial(g, "alternating") == poly(0, 1)
        with pytest.raises(PreconditionError):
            domination_polynomial(g, "pruned")

    def test_p3(self):
        expected = poly(0, 1, 3, 1)
        for method in ("direct", "alternating", "pruned"):
            assert domination_polynomial(Graph.path(3), method) == expected

    def test_matches_oracle(self, corpus):
        for name, g in corpus.items():
            if len(g.vertices) > 7:
                continue
            p = domination_polynomial(g, "direct")
            counts = oracle_dominating(g)
            assert all(
                p.coefficient(k) == c for k, c in enumerate(counts)
            ), name

    def test_three_methods_agree(self, corpus):
        for name, g in corpus.items():
            if len(g.vertices) > 8:
                continue
            direct = domination_polynomial(g, "direct")
            assert domination_polynomial(g, "alternating") == direct, name
            if all(g.degree(v) > 0 for v in g.vertices):
                assert domination_polynomial(g, "pruned") == direct, name

    def test_three_methods_agree_on_random_graphs(self):
        rng = random.Random(8)
        checked = 0
        while checked < 25:
            g = random_graph(rng, rng.randint(2, 11), rng.choice((0.25, 0.5, 0.8)))
            if any(g.degree(v) == 0 for v in g.vertices):
                continue
            checked += 1
            direct = domination_polynomial(g, "direct")
            assert domination_polynomial(g, "alternating") == direct
            assert domination_polynomial(g, "pruned") == direct

    def test_alternating_matches_direct_and_oracle_on_random_graphs(self):
        # alternating runs the settled sweep of pruned with no masks, so it
        # alone meets isolated vertices and the empty graph
        rng = random.Random(19)
        graphs = [Graph([], []), Graph([0], []), Graph(range(4), [(0, 1)])]
        while len(graphs) < 30:
            graphs.append(random_graph(rng, rng.randint(1, 9), rng.choice((0.1, 0.3, 0.6))))
        assert sum(any(g.degree(v) == 0 for v in g.vertices) for g in graphs) >= 10
        for g in graphs:
            direct = domination_polynomial(g, "direct")
            assert domination_polynomial(g, "alternating") == direct, g.edges
            counts = oracle_dominating(g)
            assert [direct.coefficient(k) for k in range(len(counts))] == list(counts), g.edges

    def test_broken_neighbourhoods_p3(self):
        # vertex 2 is the maximum of N[1] = {0,1,2}? no: N[2] = {1,2}, and
        # 2 = max N[2], giving broken neighbourhood {1}
        out = broken_neighbourhoods(Graph.path(3))
        assert frozenset({1}) in out


class TestFoldedFullRoutes:
    """The full routes fold an incremental state; the references here
    evaluate each subset on its own."""

    @staticmethod
    def small_graphs(seed):
        rng = random.Random(seed)
        out = [Graph([], []), Graph([0], []), Graph(range(4), []), Graph(range(5), [(0, 1), (3, 4)])]
        while len(out) < 30:
            g = random_graph(rng, rng.randint(1, 8), rng.choice((0.15, 0.4, 0.7)))
            if len(g.edges) <= 12:
                out.append(g)
        return out

    def test_chromatic_matches_spanning_component_counts(self):
        for g in self.small_graphs(41):
            m = len(g.edges)
            coeffs = [0] * (len(g.vertices) + 1)
            for mask in range(1 << m):
                ids = [i for i in range(m) if mask >> i & 1]
                coeffs[g.spanning_component_count(ids)] += (-1) ** len(ids)
            assert chromatic_polynomial(g, "full") == IntPolynomial(coeffs), g.edges

    def test_induced_component_sums_match_per_subset_counts(self):
        for g in self.small_graphs(42):
            n = len(g.vertices)
            q = [0] * (n + 1)
            terms = {}
            for r in range(n + 1):
                for subset in itertools.combinations(g.vertices, r):
                    c = g.induced_component_count(subset)
                    q[c] += (-1) ** r
                    terms[(r, c)] = terms.get((r, c), 0) + 1
            assert subgraph_component_polynomial(g) == BiPolynomial(terms), g.edges
            if is_cyclically_claw_free(g):
                assert q_at_minus_one(g, "direct") == IntPolynomial(q), g.edges

    def test_domination_matches_closed_neighbourhoods(self):
        for g in self.small_graphs(43):
            n = len(g.vertices)
            direct = [0] * (n + 1)
            alternating = [0] * (n + 1)
            for r in range(n + 1):
                for subset in itertools.combinations(g.vertices, r):
                    j = n - len(g.closed_neighborhood(subset))
                    if j == 0:
                        direct[r] += 1
                    for i in range(j + 1):
                        alternating[i] += (-1) ** r * comb(j, i)
            assert domination_polynomial(g, "direct") == IntPolynomial(direct), g.edges
            assert domination_polynomial(g, "alternating") == IntPolynomial(alternating), g.edges


PETERSEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
                  (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]


def grid_graph(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((i * cols + j, i * cols + j + 1))
            if i + 1 < rows:
                edges.append((i * cols + j, (i + 1) * cols + j))
    return Graph(range(rows * cols), edges)


class TestSettledSweeps:
    """The component sums, full and pruned, are swept over frontier
    partitions; the references are per-subset counts and networkx."""

    def test_induced_sweep_matches_fold_and_networkx(self):
        rng = random.Random(51)
        graphs = [Graph([], []), Graph([0], []), Graph(range(3), []), Graph.cycle(12),
                  Graph.complete(6), Graph(range(10), PETERSEN_EDGES)]
        while len(graphs) < 24:
            graphs.append(random_graph(rng, rng.randint(1, 12), rng.choice((0.15, 0.3, 0.6))))
        for k, g in enumerate(graphs):
            n = len(g.vertices)
            counted, sized = {}, {}
            for mask in range(1 << n):
                c = g.induced_component_count(g.vertices[i] for i in range(n) if mask >> i & 1)
                sign = -1 if mask.bit_count() & 1 else 1
                counted[c] = counted.get(c, 0) + sign
                stat = (n + 1) * mask.bit_count() + c
                sized[stat] = sized.get(stat, 0) + sign
            assert g._induced_sweep() == {c: count for c, count in counted.items() if count}, g.edges
            assert g._induced_sweep(n + 1) == sized, g.edges
            if k % 4 == 0:
                nxg = nx.Graph()
                nxg.add_nodes_from(g.vertices)
                nxg.add_edges_from(g.edges)
                ref = {}
                for r in range(n + 1):
                    for subset in itertools.combinations(g.vertices, r):
                        c = nx.number_connected_components(nxg.subgraph(subset))
                        ref[c] = ref.get(c, 0) + (-1) ** r
                assert g._induced_sweep() == {c: count for c, count in ref.items() if count}, g.edges

    @staticmethod
    def include_calls(monkeypatch, module, run):
        fold = module._image_fold
        calls = []

        def counted(n, start, include, key, settle=None, broken=()):
            def step(i, state):
                calls.append(i)
                return include(i, state)

            return fold(n, start, step, key, settle, broken)

        monkeypatch.setattr(module, "_image_fold", counted)
        run()
        return len(calls)

    def test_include_counts(self, monkeypatch):
        # deterministic work pins: the subset folds make 2^|E| - 1 calls
        from brokencircuits import core, graphs

        grid = grid_graph(3, 4)
        petersen = Graph(range(10), PETERSEN_EDGES)
        calls = self.include_calls(monkeypatch, core, lambda: chromatic_polynomial(grid, "full"))
        assert calls <= 1000 < (1 << 17) - 1
        calls = self.include_calls(monkeypatch, core, lambda: chromatic_polynomial(petersen, "full"))
        assert calls <= 1000 < (1 << 15) - 1
        c16 = Graph.cycle(16)
        calls = self.include_calls(monkeypatch, graphs, lambda: q_at_minus_one(c16, "direct"))
        assert calls <= 400 < (1 << 16) - 1
        assert q_at_minus_one(c16, "direct") == q_at_minus_one(c16, "restricted")
        # direct domination settles N[A] and drops a state once a vertex settles
        # undominated; keyed by the whole N[A] it made 12,282 calls
        calls = self.include_calls(monkeypatch, graphs, lambda: domination_polynomial(c16, "direct"))
        assert calls == 536

    def test_pruned_include_counts(self, monkeypatch):
        # deterministic work pins: the subset walk made one call per nonempty
        # avoiding subset (65,533 for restricted C16, 1,048,573 on C20, 49,151
        # for pruned domination on C16 and 7,721 on the 3x4 rectangle grid)
        from brokencircuits import core, graphs
        from brokencircuits.hypergraphs import grid_rectangle_hypergraph, hypergraph_chromatic

        c16, c20 = Graph.cycle(16), Graph.cycle(20)
        for method in ("restricted", "acyclic"):
            calls = self.include_calls(monkeypatch, graphs, lambda: q_at_minus_one(c16, method))
            assert calls <= 400, method
        calls = self.include_calls(monkeypatch, graphs, lambda: domination_polynomial(c16, "pruned"))
        assert calls <= 1000
        calls = self.include_calls(monkeypatch, graphs, lambda: q_at_minus_one(c20, "restricted"))
        assert calls <= 600
        grid, family = grid_rectangle_hypergraph(3, 4)
        calls = self.include_calls(monkeypatch, core,
                                   lambda: hypergraph_chromatic(grid, "restricted", family))
        assert calls <= 2000


class TestDegree1Upset:
    def test_p3(self):
        g, pendants = degree1_upset_order(Graph.path(3))
        assert pendants == [frozenset({1})]
        assert g.vertices[-2:] == (0, 2)  # both leaves pushed last
        assert domination_polynomial(g, "pruned", broken=pendants) == poly(0, 1, 3, 1)

    def test_c4_has_no_pendants(self):
        g, pendants = degree1_upset_order(Graph.cycle(4))
        assert pendants == []

    def test_star(self):
        star = Graph.star(3)
        g, pendants = degree1_upset_order(star)
        assert pendants == [frozenset({0})]
        direct = domination_polynomial(star, "direct")
        assert domination_polynomial(g, "pruned", broken=pendants) == direct

    def test_rejects_isolated_edge(self):
        with pytest.raises(PreconditionError):
            degree1_upset_order(Graph.path(2))
        with pytest.raises(PreconditionError):
            degree1_upset_order(Graph(range(2), []))

    def test_random_graphs_with_pendants(self):
        import random

        from brokencircuits.graphs import random_graph

        rng = random.Random(88)
        built = 0
        while built < 25:
            g = random_graph(rng, rng.randint(4, 7), 0.35)
            degs = [g.degree(v) for v in g.vertices]
            if 0 in degs or 1 not in degs:
                continue
            if any(degs[u] == 1 and degs[v] == 1 for u, v in g.edges):
                continue
            reordered, pendants = degree1_upset_order(g)
            assert pendants
            direct = domination_polynomial(reordered, "direct")
            assert domination_polynomial(reordered, "pruned", broken=pendants) == direct
            assert domination_polynomial(reordered, "pruned") == direct
            built += 1


def _avoids(mask, broken):
    return not any(mask & b == b for b in broken)


def _vertex_mask(graph, subset):
    return sum(1 << graph.vertices.index(v) for v in subset)


class TestFoldedPrunedRoutes:
    @staticmethod
    def ccf_graphs(seed):
        rng = random.Random(seed)
        out = [Graph.cycle(3), Graph.cycle(7), Graph.path(5)]
        while len(out) < 25:
            g = random_graph(rng, rng.randint(3, 9), rng.choice((0.2, 0.3, 0.45)))
            if len(g.edges) <= 14 and is_cyclically_claw_free(g):
                out.append(g)
        return out

    def test_restricted_and_acyclic_q_match_direct(self):
        import gc

        from brokencircuits.graphs import vertex_broken_circuits

        for g in self.ccf_graphs(51):
            n = len(g.vertices)
            broken = [_vertex_mask(g, b) for b in vertex_broken_circuits(g)]
            # the restricted sum taken per avoiding subset, from the subset's own counts
            q = [0] * (n + 1)
            for mask in range(1 << n):
                if _avoids(mask, broken):
                    subset = [g.vertices[i] for i in range(n) if mask >> i & 1]
                    q[g.induced_component_count(subset)] += -1 if mask.bit_count() & 1 else 1
            direct = q_at_minus_one(g, "direct")
            assert IntPolynomial(q) == direct, g.edges
            assert q_at_minus_one(g, "restricted") == direct, g.edges
            assert q_at_minus_one(g, "acyclic") == direct, g.edges
        gc.collect()
        gc.disable()
        try:
            q_at_minus_one(Graph.cycle(12), "restricted")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_q_lists_the_cycles_once(self, monkeypatch):
        import brokencircuits.graphs as mod

        calls = []
        listing = mod._vertex_cycles

        def counted(*args):
            calls.append(args)
            return listing(*args)

        monkeypatch.setattr(mod, "_vertex_cycles", counted)
        # a triangle, a 4-cycle and an isolated vertex
        g = Graph(range(8), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
        expected = q_at_minus_one(g, "direct")
        for method in ("direct", "restricted", "acyclic"):
            del calls[:]
            assert q_at_minus_one(g, method) == expected
            assert len(calls) == 1, method

    def test_pruned_domination_with_pendants(self):
        rng = random.Random(52)
        built = 0
        while built < 20:
            g = random_graph(rng, rng.randint(4, 9), 0.3)
            degs = [g.degree(v) for v in g.vertices]
            if 0 in degs or 1 not in degs:
                continue
            if any(degs[u] == 1 and degs[v] == 1 for u, v in g.edges):
                continue
            reordered, pendants = degree1_upset_order(g)
            n = len(reordered.vertices)
            broken = [_vertex_mask(reordered, b) for b in pendants]
            by_j = [0] * (n + 1)
            for mask in range(1 << n):
                if _avoids(mask, broken):
                    subset = [reordered.vertices[i] for i in range(n) if mask >> i & 1]
                    by_j[n - len(reordered.closed_neighborhood(subset))] += (
                        -1 if mask.bit_count() & 1 else 1
                    )
            expected = [0] * (n + 1)
            for j, count in enumerate(by_j):
                for i in range(j + 1):
                    expected[i] += count * comb(j, i)
            got = domination_polynomial(reordered, "pruned", broken=pendants)
            assert got == IntPolynomial(expected), g.edges
            assert got == domination_polynomial(g, "direct"), g.edges
            built += 1

    def test_pruned_sweeps_match_per_subset_brute_force(self):
        # restricted and acyclic q and pruned domination, each against its own
        # statistic evaluated on every subset that the pruning walk yields
        from brokencircuits.core import OrderedGroundSet, iter_avoiding_masks
        from brokencircuits.graphs import vertex_broken_circuits

        def pruned_domination(g, broken):
            n = len(g.vertices)
            expected = [0] * (n + 1)
            for mask in iter_avoiding_masks(OrderedGroundSet(g.vertices), broken):
                j = n - _closed_mask(g, mask).bit_count()
                for i in range(j + 1):
                    expected[i] += (-1 if mask.bit_count() & 1 else 1) * comb(j, i)
            assert domination_polynomial(g, "pruned", broken=broken) == IntPolynomial(expected), g.edges

        rng = random.Random(53)
        checked = {"q": 0, "domination": 0, "subfamily": 0}
        while min(checked.values()) < 100:
            g = random_graph(rng, rng.randint(1, 10), rng.choice((0.15, 0.25, 0.4)))
            n = len(g.vertices)
            if len(g.edges) <= 16 and is_cyclically_claw_free(g):
                restricted, acyclic = [0] * (n + 1), [0] * (n + 1)
                for mask in iter_avoiding_masks(OrderedGroundSet(g.vertices), vertex_broken_circuits(g)):
                    sign = -1 if mask.bit_count() & 1 else 1
                    subset = [g.vertices[i] for i in range(n) if mask >> i & 1]
                    components, edges = g.induced_component_count(subset), g.induced_edge_count(subset)
                    restricted[components] += sign
                    acyclic[mask.bit_count() - edges] += sign
                assert q_at_minus_one(g, "restricted") == IntPolynomial(restricted), g.edges
                assert q_at_minus_one(g, "acyclic") == IntPolynomial(acyclic), g.edges
                checked["q"] += 1
            if all(g._adj):
                derived = broken_neighbourhoods(g)
                pruned_domination(g, derived)
                pruned_domination(g, rng.sample(derived, rng.randint(0, len(derived))))
                checked["domination"] += 1
            try:
                reordered, pendants = degree1_upset_order(g)
            except PreconditionError:
                continue
            if pendants:
                pruned_domination(reordered, pendants)
                checked["subfamily"] += 1


def _closed_mask(graph, vertex_mask):
    """N[A] of a vertex bitmask, from the closed neighbourhood of each vertex."""
    closed = 0
    for i, mask in enumerate(graph._closed_masks()):
        if vertex_mask >> i & 1:
            closed |= mask
    return closed


def _recursive_cycles(graph):
    """Simple cycles from a recursive walk, in the order the witnesses rely on."""
    adj = [sorted(s) for s in graph._adj]
    cycles = []

    def extend(path):
        s = path[0]
        for w in adj[path[-1]]:
            if w == s and len(path) >= 3 and path[1] < path[-1]:
                cycles.append(tuple(path))
            elif w > s and w not in path:
                extend(path + [w])

    for s in range(len(graph.vertices)):
        extend([s])
    return cycles


def test_cycle_listing_order_and_no_reference_cycles():
    import gc

    from brokencircuits.graphs import _vertex_cycles

    rng = random.Random(53)
    graphs = [Graph.complete(6), Graph.complete_bipartite(3, 3), Graph.cycle(5), Graph([], [])]
    while len(graphs) < 25:
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        if len(g.edges) <= 16:
            graphs.append(g)
    for g in graphs:
        assert _vertex_cycles(g) == _recursive_cycles(g), g.edges
    gc.collect()
    gc.disable()
    try:
        assert len(cycles_edge_sets(Graph.complete(6))) == 197
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_whitney_walk_decides_few_prefixes(monkeypatch):
    # the walk decides the edges below its cut, 10 from the top, and expands the
    # rest from tables keyed by the crossing broken circuits each prefix completes;
    # cycles cross the cut from nearly every edge below it, so a walk that decided
    # every avoiding subset up to the last broken circuit would decide 29,335
    # prefixes on the grid and 8,340 on Petersen
    from brokencircuits import core

    walk = core._avoiding_prefixes
    decided = []

    def counted(*args):
        for acc in walk(*args):
            decided.append(acc)
            yield acc

    monkeypatch.setattr(core, "_avoiding_prefixes", counted)
    for graph, prefixes, subsets in ((grid_graph(3, 4), 89, 58_670),
                                     (Graph(range(10), PETERSEN_EDGES), 30, 16_680),
                                     (Graph.complete(6), 6, 720)):
        decided.clear()
        assert sum(whitney_edge_counts(graph)) == subsets
        assert len(decided) == prefixes
