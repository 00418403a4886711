"""Hypergraph chromatic polynomial with broken-circuit pruning.

The alternating component-count sum over edge subsets can be pruned by
broken circuits derived from Berge cycles whenever one of two sufficient
conditions holds: every edge of each cycle is covered by the union of the
other edges of that cycle (self-covering), or every cycle contains an
edge of cardinality 2 and the 2-edges form an upset of the edge order.
Tight cycles of uniform hypergraphs and the rectangle-grid construction
are provided as sources of self-covering families.
"""

from __future__ import annotations

import itertools

from .algebra import IntPolynomial
from .core import (
    WORK_BUDGET,
    CircuitFamily,
    OrderedGroundSet,
    _broken_masks,
    _chosen_broken,
    _component_count,
    _component_histogram,
    _within_budget,
    derive_broken_circuits,
)
from .errors import CapExceeded, CrossCheckFailed, PreconditionError, SchemaError

GRID_CAP = 16


class Hypergraph:
    """Finite simple hypergraph; every edge has at least two vertices."""

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise SchemaError("vertices must be pairwise distinct")
        self.vertices = vertices
        self._vi = {v: i for i, v in enumerate(vertices)}
        out = []
        seen = set()
        for e in edges:
            es = frozenset(e)
            if len(es) < 2:
                raise SchemaError(f"edge {sorted(map(repr, es))} has fewer than 2 vertices")
            if not es <= self._vi.keys():
                raise SchemaError(f"edge {sorted(map(repr, es))} uses an unknown vertex")
            if es in seen:
                raise SchemaError(f"duplicate edge {sorted(map(repr, es))}")
            seen.add(es)
            out.append(es)
        self.edges = tuple(out)
        self._edge_vidx = [tuple(sorted(self._vi[v] for v in e)) for e in self.edges]

    def __repr__(self):
        return f"Hypergraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def uniform_rank(self):
        """Common edge size if the hypergraph is uniform, else None."""
        sizes = {len(e) for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def spanning_component_count(self, edge_ids):
        """c(V, A): components when the chosen edges glue their vertices together."""
        return _component_count(len(self.vertices), map(self._edge_vidx.__getitem__, edge_ids))


def edge_ground(hypergraph):
    return OrderedGroundSet(range(len(hypergraph.edges)))


def is_berge_cycle_edge_set(hypergraph, edge_ids):
    """Whether the edges can be arranged into a cycle of pairwise distinct
    vertices and edges, consecutive edges sharing the connecting vertex."""
    ids = sorted(edge_ids)
    l = len(ids)
    if l < 2:
        return False
    sets = [hypergraph.edges[i] for i in ids]
    # sequences of distinct edges from the first, each step through a fresh
    # shared vertex, on an explicit stack of (edge sequence, vertices used)
    stack = [((0,), ())]
    while stack:
        seq, used = stack.pop()
        if len(seq) == l:
            if any(v not in used for v in sets[seq[-1]] & sets[seq[0]]):
                return True
            continue
        last = sets[seq[-1]]
        for nxt in range(1, l):
            if nxt not in seq:
                for v in last & sets[nxt]:
                    if v not in used:
                        stack.append((seq + (nxt,), used + (v,)))
    return False


def is_self_covering_family(circuits, hypergraph):
    """Each member is a Berge cycle edge set in which every edge is
    contained in the union of the other edges of that cycle."""
    for circuit in circuits:
        ids = sorted(circuit)
        if not is_berge_cycle_edge_set(hypergraph, ids):
            return False
        sets = [hypergraph.edges[i] for i in ids]
        for k, e in enumerate(sets):
            union = frozenset().union(*(s for t, s in enumerate(sets) if t != k))
            if not e <= union:
                return False
    return True


def is_pair_upset_family(circuits, hypergraph):
    """Each member is a Berge cycle edge set containing a 2-edge, and the
    2-edges of the hypergraph form an upset of the edge order."""
    sizes = [len(e) for e in hypergraph.edges]
    first_pair = None
    for i, s in enumerate(sizes):
        if s == 2 and first_pair is None:
            first_pair = i
        if first_pair is not None and s != 2:
            return False
    for circuit in circuits:
        ids = sorted(circuit)
        if not any(sizes[i] == 2 for i in ids):
            return False
        if not is_berge_cycle_edge_set(hypergraph, ids):
            return False
    return True


def hypergraph_chromatic(hypergraph, method="full", circuits=None, broken="all"):
    """P(H, x) = sum over edge subsets A of (-1)^|A| x^{c(V, A)}.

    The restricted method prunes by broken circuits of the given family,
    which must pass the self-covering or the pair-upset condition.
    """
    n = len(hypergraph.vertices)
    if method == "full":
        return IntPolynomial.from_terms(_component_histogram(n, hypergraph._edge_vidx))
    if method != "restricted":
        raise SchemaError(f"unknown method {method!r}")
    if circuits is None:
        raise PreconditionError("restricted method needs a circuit family")
    if not (is_self_covering_family(circuits, hypergraph) or is_pair_upset_family(circuits, hypergraph)):
        raise PreconditionError(
            "circuit family satisfies neither the self-covering condition "
            "nor the pair-edge upset condition"
        )
    ground = edge_ground(hypergraph)
    derived = [bc.subset for bc in derive_broken_circuits(circuits, ground)]
    masks = _broken_masks(ground, _chosen_broken(derived, broken, "a broken circuit of the family"))
    return IntPolynomial.from_terms(_component_histogram(n, hypergraph._edge_vidx, masks))


def tight_cycles(hypergraph, l):
    """Edge sets of all l-tight cycles of an r-uniform hypergraph, l >= r/2.

    A tight cycle carries a cyclic vertex order whose edges are the
    length-r segments starting every r-l positions, consecutive segments
    meeting in exactly l vertices.  The overlap requirement l >= r/2 makes
    every returned family self-covering.
    """
    r = hypergraph.uniform_rank()
    if r is None:
        raise PreconditionError("tight cycles need a uniform hypergraph")
    if 2 * l < r:
        raise PreconditionError(f"need l >= r/2, got l={l}, r={r}")
    if l >= r:
        raise PreconditionError(f"need l < r, got l={l}, r={r}")
    step = r - l
    n = len(hypergraph.vertices)
    lengths = [k * step for k in range(2, n // step + 1) if k * step >= r]
    # P(n, m) vertex sequences per length m, multiplied out only until the total passes the budget
    work = 0
    for m in lengths:
        seqs = 1
        for t in range(m):
            seqs *= n - t
            if work + seqs > WORK_BUDGET:
                break
        work += seqs
    _within_budget(work, f"the tight-cycle search over {n} vertices")
    edge_index = {e: i for i, e in enumerate(hypergraph.edges)}
    found = set()
    for m in lengths:
        k = m // step
        for seq in itertools.permutations(range(n), m):
            if seq[0] != min(seq):
                continue
            windows = []
            ok = True
            for j in range(k):
                window = frozenset(
                    hypergraph.vertices[seq[(j * step + t) % m]] for t in range(r)
                )
                if window not in edge_index:
                    ok = False
                    break
                windows.append(window)
            if not ok or len(set(windows)) != k:
                continue
            for j in range(k):
                if len(windows[j] & windows[(j + 1) % k]) != l:
                    ok = False
                    break
            if ok:
                found.add(frozenset(edge_index[w] for w in windows))
    return CircuitFamily(sorted(found, key=sorted))


def grid_rectangle_hypergraph(rows, cols):
    """The 4-uniform hypergraph of axis-aligned rectangles on a grid.

    Vertices are the grid points; edges are the corner 4-sets, ordered by
    area with a lexicographic tie-break, so the rectangle spanned by two
    neighbouring rectangles (sharing two points) always comes after them.
    The returned circuits are those neighbouring triples.
    """
    if rows < 2 or cols < 2:
        raise PreconditionError("grid needs at least 2 rows and 2 columns")
    if rows * cols > GRID_CAP:
        raise CapExceeded(f"grid size {rows}x{cols} exceeds the cap of {GRID_CAP} points")
    points = [(i, j) for i in range(rows) for j in range(cols)]
    rects = []
    for i1, i2 in itertools.combinations(range(rows), 2):
        for j1, j2 in itertools.combinations(range(cols), 2):
            corners = frozenset({(i1, j1), (i1, j2), (i2, j1), (i2, j2)})
            area = (i2 - i1) * (j2 - j1)
            rects.append((area, (i1, j1, i2, j2), corners))
    rects.sort(key=lambda t: (t[0], t[1]))
    edges = [corners for _, _, corners in rects]
    hg = Hypergraph(points, edges)
    edge_index = {e: i for i, e in enumerate(edges)}
    circuits = set()
    for a, b in itertools.combinations(range(len(edges)), 2):
        shared = edges[a] & edges[b]
        if len(shared) == 2:
            third = edges[a] ^ edges[b]
            if third in edge_index:
                circuits.add(frozenset({a, b, edge_index[third]}))
    family = CircuitFamily(sorted(circuits, key=sorted))
    if len(family) and not is_self_covering_family(family, hg):
        raise CrossCheckFailed("grid circuits unexpectedly fail the self-covering condition")
    return hg, family
