"""Graph polynomials through broken-circuit pruning.

Three sums over a finite simple graph are handled here, each with an
unrestricted form and a pruned form that agree exactly:

* the chromatic polynomial, summed over edge subsets, pruned by the
  classical broken circuits (cycle edge sets minus their largest edge);
* the subgraph component polynomial at x = -1, summed over vertex
  subsets, pruned by vertex broken circuits, available on cyclically
  claw-free graphs;
* the domination polynomial, via the alternating closed-neighbourhood
  sum, pruned by broken neighbourhoods.
"""

from __future__ import annotations

from math import comb
from operator import itemgetter

from .algebra import BiPolynomial, IntPolynomial
from .core import (
    CircuitFamily,
    OrderedGroundSet,
    _block_settler,
    _broken_masks,
    _chosen_broken,
    _component_count,
    _component_histogram,
    _image_fold,
    _within_budget,
    derive_broken_circuits,
    enumerate_avoiding,
)
from .errors import CapExceeded, PreconditionError, SchemaError

CYCLE_CAP = 20


class Graph:
    """Finite simple graph; vertex and edge input order are the ambient linear orders."""

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise SchemaError("vertices must be pairwise distinct")
        self.vertices = vertices
        self._vi = {v: i for i, v in enumerate(vertices)}
        seen = set()
        out = []
        for e in edges:
            u, v = e
            if u == v:
                raise SchemaError(f"loop at vertex {u!r}")
            if u not in self._vi or v not in self._vi:
                raise SchemaError(f"edge {e!r} uses an unknown vertex")
            key = frozenset((u, v))
            if key in seen:
                raise SchemaError(f"parallel edge {e!r}")
            seen.add(key)
            out.append((u, v))
        self.edges = tuple(out)
        n = len(vertices)
        self._adj = [set() for _ in range(n)]
        for u, v in self.edges:
            self._adj[self._vi[u]].add(self._vi[v])
            self._adj[self._vi[v]].add(self._vi[u])
        # closed neighbourhood of vertex i as a vertex bitmask, keyed by 1 << i
        self._nmask = {
            1 << i: (1 << i) | sum(1 << j for j in self._adj[i]) for i in range(n)
        }
        self._edge_ends = [(self._vi[u], self._vi[v]) for u, v in self.edges]
        self._edge_index = {frozenset(e): i for i, e in enumerate(self.edges)}

    @classmethod
    def complete(cls, n):
        return cls(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def path(cls, n):
        return cls(range(n), [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n):
        if n < 3:
            raise SchemaError("a cycle needs at least 3 vertices")
        return cls(range(n), [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, leaves):
        return cls(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])

    @classmethod
    def complete_bipartite(cls, a, b):
        return cls(range(a + b), [(i, a + j) for i in range(a) for j in range(b)])

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def degree(self, v):
        return len(self._adj[self._vi[v]])

    def closed_neighborhood(self, vertices):
        """N[A]: the given vertices together with all their neighbours."""
        try:
            if vertices in self._vi:
                vertices = (vertices,)
        except TypeError:
            pass
        mask = 0
        for v in vertices:
            mask |= self._nmask[1 << self._vi[v]]
        return frozenset(self.vertices[i] for i in range(len(self.vertices)) if mask >> i & 1)

    def spanning_component_count(self, edge_ids):
        """c(V, A): connected components of the spanning subgraph (V, A)."""
        return _component_count(len(self.vertices), map(self._edge_ends.__getitem__, edge_ids))

    def _induced_edge_ends(self, vertices):
        """(A as vertex indices, E(A) as index pairs) for a vertex subset A."""
        inside = {self._vi[v] for v in vertices}
        return inside, [(a, b) for a, b in self._edge_ends if a in inside and b in inside]

    def _induced_sweep(self, weight=0, broken=()):
        """Signed histogram {weight * |A| + c(G[A]): sum of (-1)^|A|} over the
        vertex subsets A that include none of the ``broken`` vertex masks,
        with zero counts dropped.

        Swept over frontier partitions (``core._image_fold``): vertex i is
        decided at position i, and the state is the statistic so far plus
        one character per vertex, naming the block of G[A] that holds it by
        its smallest live vertex, or blank when it is outside A.  Including
        i merges the blocks of its smaller neighbours.  A vertex is settled
        once it and all its neighbours are decided, as nothing later can
        join its block through it.
        """
        n = len(self.vertices)
        below = [[j for j in sorted(self._adj[i]) if j < i] for i in range(n)]
        blank = chr(n)

        def include(i, state):
            stat, labels = state
            names = {labels[j] for j in below[i]}
            names.discard(blank)
            if not names:
                return stat + weight + 1, labels[:i] + chr(i) + labels[i + 1:]
            low = min(names)
            for name in names:
                if name != low:
                    labels = labels.replace(name, low)
            return stat + weight + 1 - len(names), labels[:i] + low + labels[i + 1:]

        last = {v: i for i, m in enumerate(self._settled_masks()) for v in range(n) if m >> v & 1}
        return _image_fold(n, (0, blank * n), include, itemgetter(0),
                           _block_settler(n, last, blank), broken)

    def _settled_masks(self):
        """Per position i, the mask of the vertices v with max N[v] = i: once
        i is decided, no later vertex is v or one of its neighbours.  The
        frontier sweep, acyclic q and pruned domination all settle by it."""
        settled = [0] * len(self.vertices)
        for bit, closed in self._nmask.items():
            settled[closed.bit_length() - 1] |= bit
        return settled

    def induced_component_count(self, vertices):
        """c(G[A]) = c(V, E(A)) - (|V| - |A|): each vertex outside A is a
        component of (V, E(A)) on its own."""
        inside, edges = self._induced_edge_ends(vertices)
        n = len(self.vertices)
        return _component_count(n, edges) - (n - len(inside))

    def induced_edge_count(self, vertices):
        return len(self._induced_edge_ends(vertices)[1])

    def reorder_vertices(self, new_order):
        new_order = tuple(new_order)
        if set(new_order) != set(self.vertices) or len(new_order) != len(self.vertices):
            raise SchemaError("new order must be a permutation of the vertices")
        return Graph(new_order, self.edges)


def _vertex_cycles(graph):
    """Simple cycles as vertex index tuples, each listed exactly once."""
    if len(graph.edges) > CYCLE_CAP:
        raise CapExceeded(f"cycle enumeration needs |E| <= {CYCLE_CAP}")
    n = len(graph.vertices)
    adj = [sorted(s) for s in graph._adj]
    cycles = []
    for s in range(n):
        # depth-first over the simple paths from s through larger vertices,
        # one pending neighbour iterator per path vertex
        path = [s]
        visited = {s}
        pending = [iter(adj[s])]
        while pending:
            for w in pending[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append(tuple(path))
                elif w > s and w not in visited:
                    visited.add(w)
                    path.append(w)
                    pending.append(iter(adj[w]))
                    break
            else:
                pending.pop()
                visited.discard(path.pop())
    return cycles


def cycles_edge_sets(graph):
    """Edge sets of all simple cycles, as frozensets of edge indices."""
    out = []
    for cyc in _vertex_cycles(graph):
        ids = []
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            ids.append(graph._edge_index[frozenset((graph.vertices[a], graph.vertices[b]))])
        out.append(frozenset(ids))
    return out


def cycles_vertex_sets(graph):
    """Vertex sets of all simple cycles, as frozensets of vertex labels."""
    return [frozenset(graph.vertices[i] for i in cyc) for cyc in _vertex_cycles(graph)]


def edge_ground(graph):
    return OrderedGroundSet(range(len(graph.edges)), cap=max(24, len(graph.edges)))


def edge_broken_circuits(graph):
    """Broken circuits of the graph: cycle edge sets minus their largest edge."""
    family = CircuitFamily(cycles_edge_sets(graph))
    return [bc.subset for bc in derive_broken_circuits(family, edge_ground(graph))]


def whitney_edge_counts(graph):
    """b_k: number of k-edge subsets including no broken circuit."""
    return enumerate_avoiding(edge_ground(graph), edge_broken_circuits(graph))


def chromatic_polynomial(graph, method="broken_circuit"):
    """P(G, x) = sum over edge subsets A of (-1)^|A| x^{c(V, A)}.

    The full method evaluates the defining sum; the broken_circuit method
    counts broken-circuit-free subsets, whose cardinality classes give the
    coefficients directly.
    """
    if method == "full":
        m = len(graph.edges)
        _within_budget(1 << m, f"the full sum over 2^{m} edge subsets")
        return IntPolynomial.from_terms(_component_histogram(len(graph.vertices), graph._edge_ends))
    if method == "broken_circuit":
        return IntPolynomial.from_whitney_counts(len(graph.vertices), whitney_edge_counts(graph))
    raise SchemaError(f"unknown chromatic method {method!r}")


def is_cyclically_claw_free(graph):
    """True iff no centre of a claw lies on a simple cycle.

    A claw here is a star subgraph with three leaves, so its centre is any
    vertex of degree at least 3.  Component counts are then insensitive to
    deleting a cycle vertex from a superset of its cycle, which is what
    the pruned component sums rely on.
    """
    return _claw_free_on(graph, _vertex_cycles(graph))


def _claw_free_on(graph, cycles):
    """True iff no vertex of the given simple cycles has degree 3 or more."""
    adj = graph._adj
    return all(len(adj[i]) < 3 for cyc in cycles for i in cyc)


def subgraph_component_polynomial(graph):
    """Q(G, x, y) = sum over vertex subsets A of x^|A| y^{c(G[A])}."""
    n = len(graph.vertices)
    _within_budget(1 << n, f"the subgraph component sum over 2^{n} vertex subsets")
    # the statistic is (n + 1) |A| + c(G[A]), and c(G[A]) <= n
    hist = graph._induced_sweep(n + 1)
    # every subset under one key has the same size, so its count is |signed count|
    return BiPolynomial({divmod(stat, n + 1): abs(count) for stat, count in hist.items()})


def vertex_broken_circuits(graph):
    """Vertex broken circuits: cycle vertex sets minus their largest vertex."""
    ground = OrderedGroundSet(graph.vertices)
    return _vertex_broken_circuits(graph, ground, _vertex_cycles(graph))


def _vertex_broken_circuits(graph, ground, cycles):
    if not cycles:
        return []
    family = CircuitFamily(frozenset(graph.vertices[i] for i in cyc) for cyc in cycles)
    return [bc.subset for bc in derive_broken_circuits(family, ground)]


def q_at_minus_one(graph, method="direct"):
    """Q(G, -1, y) as a polynomial in y, for cyclically claw-free graphs.

    direct substitutes x = -1 into the defining sum; restricted prunes by
    the vertex broken circuits; acyclic additionally rewrites the exponent
    as |A| - m(G[A]), valid because the surviving subsets induce forests.
    The simple cycles are listed once, for the precondition and the
    broken circuits.  Every method refuses 2^|V| past the work budget.
    """
    if method not in ("direct", "restricted", "acyclic"):
        raise SchemaError(f"unknown method {method!r}")
    _within_budget(1 << len(graph.vertices),
                   f"q_at_minus_one {method} over 2^{len(graph.vertices)} vertex subsets")
    cycles = _vertex_cycles(graph)
    if not _claw_free_on(graph, cycles):
        raise PreconditionError("graph is not cyclically claw-free")
    n = len(graph.vertices)
    if method == "direct":
        hist = graph._induced_sweep()
    else:
        ground = OrderedGroundSet(graph.vertices)
        broken = _broken_masks(ground, _vertex_broken_circuits(graph, ground, cycles))
        if method == "restricted":
            hist = graph._induced_sweep(0, broken)
        else:
            # the state is (A on the unsettled vertices, |A| - m(G[A])); including i adds
            # 1 - |N(i) & A|, and a vertex settles once it and its neighbours are decided
            nbs = [graph._nmask[1 << i] ^ (1 << i) for i in range(n)]
            keep = [~m for m in graph._settled_masks()]

            def include(i, state):
                a, exponent = state
                return a | (1 << i), exponent + 1 - (nbs[i] & a).bit_count()

            hist = _image_fold(n, (0, 0), include, itemgetter(1),
                               lambda i, state: (state[0] & keep[i], state[1]), broken)
    return IntPolynomial.from_terms(hist)


def broken_neighbourhoods(graph):
    """N[v] \\ {v} for every v that is the maximum of its own closed neighbourhood."""
    out = []
    seen = set()
    for i, v in enumerate(graph.vertices):
        if all(j < i for j in graph._adj[i]):
            b = frozenset(graph.vertices[j] for j in graph._adj[i])
            if b not in seen:
                seen.add(b)
                out.append(b)
    return out


def domination_polynomial(graph, method="direct", broken=None):
    """D(G, x): generating function of dominating sets by cardinality.

    direct counts dominating sets; alternating evaluates the signed
    (x+1)^{|V| - |N[A]|} sum over all vertex subsets; pruned runs the same
    sweep over the subsets including none of the broken neighbourhoods in
    ``broken`` (all of them by default), which requires the graph to have
    no isolated vertices.
    """
    n = len(graph.vertices)
    _within_budget(1 << n, f"the domination sum over 2^{n} vertex subsets")
    nbs = [graph._nmask[1 << i] for i in range(n)]
    if method == "direct":
        # the state is N[A] with |A| counted in the bits above the n vertex bits
        full = (1 << n) - 1
        step = 1 << n
        hist = _image_fold(
            n, 0, lambda i, s: (s | nbs[i]) + step,
            lambda s: s >> n if s & full == full else -1,
        )
        return IntPolynomial.from_terms({k: abs(count) for k, count in hist.items() if k >= 0})
    if method not in ("alternating", "pruned"):
        raise SchemaError(f"unknown method {method!r}")
    masks = ()
    if method == "pruned":
        for i in range(n):
            if not graph._adj[i]:
                raise PreconditionError(
                    f"isolated vertex {graph.vertices[i]!r}: pruned method unavailable"
                )
        chosen = _chosen_broken(broken_neighbourhoods(graph), broken,
                                "a broken neighbourhood of the graph")
        masks = _broken_masks(OrderedGroundSet(graph.vertices), chosen)
    # the state is N[A] on the unsettled vertices, with the count of the
    # settled dominated ones in the bits above; v settles after max N[v]
    settled = graph._settled_masks()

    def settle(i, s):
        done = s & settled[i]
        return s - done + (done.bit_count() << n)

    hist = _image_fold(n, 0, lambda i, s: s | nbs[i], lambda s: s >> n, settle, masks)
    # signed count of subsets A by j = |V| - |N[A]|; A contributes (-1)^|A| (x+1)^j
    by_j = [0] * (n + 1)
    for size, count in hist.items():
        by_j[n - size] = count
    coeffs = [0] * (n + 1)
    for j, count in enumerate(by_j):
        if count:
            for i in range(j + 1):
                coeffs[i] += count * comb(j, i)
    return IntPolynomial(coeffs)


def degree1_upset_order(graph):
    """Reorder so the degree-1 vertices come last, and list the pendant prunes.

    Each pendant edge {v, w} with deg(v) = 1 then yields the broken
    neighbourhood {w}; the domination sum may skip every subset containing
    such a w.  Isolated vertices or isolated edges are rejected.
    """
    degs = {v: graph.degree(v) for v in graph.vertices}
    for v, d in degs.items():
        if d == 0:
            raise PreconditionError(f"isolated vertex {v!r}")
    for u, v in graph.edges:
        if degs[u] == 1 and degs[v] == 1:
            raise PreconditionError(f"isolated edge {(u, v)!r}")
    order = [v for v in graph.vertices if degs[v] != 1] + [
        v for v in graph.vertices if degs[v] == 1
    ]
    reordered = graph.reorder_vertices(order)
    pendants = []
    seen = set()
    for v in graph.vertices:
        if degs[v] == 1:
            (w,) = graph.closed_neighborhood(v) - {v}
            b = frozenset((w,))
            if b not in seen:
                seen.add(b)
                pendants.append(b)
    return reordered, pendants


def random_graph(rng, n, p):
    """G(n, p) with vertex labels 0..n-1 and the sampled edge order."""
    _within_budget(comb(max(n, 0), 2), f"G({n}, p) takes C({n}, 2) draws")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)
