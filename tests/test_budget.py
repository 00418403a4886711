"""One work budget behind every up-front refusal.

Each site predicts its steps from its inputs and asks ``core._within_budget``.
For every site the last accepted size gets past the check and the first
refused size raises ``CapExceeded`` naming the budget.  Where the accepted
size would run long, the work after the check is patched to raise
``Reached``, which shows the check was passed, or the budget is patched
down.
"""

import argparse
import random
import time
import types

import pytest

from brokencircuits import cli, core, geometry, graphs, hypergraphs, lattices, matroids, numbers
from brokencircuits.core import CircuitFamily, FinitePoset, OrderedGroundSet
from brokencircuits.errors import CapExceeded
from brokencircuits.graphs import Graph
from brokencircuits.hypergraphs import Hypergraph
from brokencircuits.lattices import Crosscut, FiniteLattice
from brokencircuits.matroids import Matroid

BUDGET = f"past the work budget of {core.WORK_BUDGET} steps"


class Reached(Exception):
    """The patched work after a budget check started."""


def _reached(*args, **kwargs):
    raise Reached


def _path_hypergraph(m):
    return Hypergraph(range(m + 1), [frozenset({i, i + 1}) for i in range(m)])


def _atoms_lattice(k):
    """Bottom 0, atoms 1..k, top k + 1: the k atoms form the only middle."""
    atoms = range(1, k + 1)
    return FiniteLattice(range(k + 2), [(0, a) for a in atoms] + [(a, k + 1) for a in atoms])


def _atoms_crosscut(k):
    lattice = _atoms_lattice(k)
    return lattice, Crosscut(lattice, lattice.middle())


def _free_walk(n):
    """The pruned walk over n elements with the broken set {0}: 2^(n-1) subsets, all of
    elements 1..n-1, which are in no broken set."""
    return core.enumerate_avoiding(OrderedGroundSet(range(n)), [{0}])


def _walk(b, pairs, pad=0):
    """The pruned walk over b + 1 + pad elements, none free, with the broken sets {0..b-1},
    {j, b} for j < pairs (at least 1) and each padding element: 2^b - 1 subsets without b
    and 2^(b - pairs) with it."""
    broken = [set(range(b))] + [{j, b} for j in range(pairs)]
    broken += [{i} for i in range(b + 1, b + 1 + pad)]
    return core.enumerate_avoiding(OrderedGroundSet(range(b + 1 + pad)), broken)


def _triangle(n):
    """One 3-edge on n vertices: the tight 2-cycle search visits P(n, m) sequences, 3 <= m <= n."""
    return Hypergraph(range(n), [{0, 1, 2}])


def _chain(n, extra=0):
    """A chain of n elements, 2^n chains with the empty one, plus ``extra`` isolated elements."""
    return FinitePoset.from_covers(range(n + extra), [(i, i + 1) for i in range(n - 1)])


# site -> (patch, accepted, refused): patch(monkeypatch) stubs the work after
# the check; accepted and refused are the boundary calls
SITES = {
    "chromatic full, 2^|E|": (
        lambda mp: mp.setattr(graphs, "_component_histogram", _reached),
        lambda: graphs.chromatic_polynomial(Graph(range(7), Graph.complete(7).edges[:20]), "full"),
        lambda: graphs.chromatic_polynomial(Graph.complete(7), "full"),
    ),
    "hypergraph full, 2^|E|": (
        lambda mp: mp.setattr(hypergraphs, "_component_histogram", _reached),
        lambda: hypergraphs.hypergraph_chromatic(_path_hypergraph(20), "full"),
        lambda: hypergraphs.hypergraph_chromatic(_path_hypergraph(21), "full"),
    ),
    "hypergraph restricted, avoiding bound": (
        lambda mp: mp.setattr(hypergraphs, "_component_histogram", _reached),
        # no broken circuit, so the bound is all 2^|E| subsets
        lambda: hypergraphs.hypergraph_chromatic(_path_hypergraph(20), "restricted",
                                                 CircuitFamily([])),
        lambda: hypergraphs.hypergraph_chromatic(_path_hypergraph(21), "restricted",
                                                 CircuitFamily([])),
    ),
    "chain walk, chain count": (
        lambda mp: None,
        lambda: _chain(20)._pair_ground(),
        lambda: _chain(20, extra=1)._pair_ground(),
    ),
    "subgraph component sum, 2^|V|": (
        lambda mp: mp.setattr(Graph, "_induced_sweep", _reached),
        lambda: graphs.subgraph_component_polynomial(Graph(range(20), [])),
        lambda: graphs.subgraph_component_polynomial(Graph(range(21), [])),
    ),
    **{
        f"q_at_minus_one {method}, 2^|V|": (
            lambda mp: mp.setattr(graphs, "_vertex_cycles", _reached),
            lambda method=method: graphs.q_at_minus_one(Graph(range(20), []), method),
            lambda method=method: graphs.q_at_minus_one(Graph(range(21), []), method),
        )
        for method in ("direct", "restricted", "acyclic")
    },
    **{
        f"domination {method}, 2^|V|": (
            lambda mp: mp.setattr(graphs, "_image_fold", _reached),
            lambda method=method: graphs.domination_polynomial(Graph(range(20), []), method),
            lambda method=method: graphs.domination_polynomial(Graph(range(21), []), method),
        )
        for method in ("direct", "alternating")
    },
    "matroid minor sweep, 2^|E|": (
        lambda mp: mp.setattr(matroids, "_image_fold", _reached),
        lambda: matroids._minor_sweep(Matroid.uniform(2, 20)),
        lambda: matroids._minor_sweep(Matroid.uniform(2, 21)),
    ),
    "closure system, 2^n": (
        lambda mp: None,
        lambda: geometry.ClosureSystem(range(20), [range(20)]),
        lambda: geometry.ClosureSystem(range(21), [range(21)]),
    ),
    "scanned geometry, 2^n": (
        lambda mp: None,
        lambda: geometry._scanned_geometry(OrderedGroundSet(range(20)), _reached),
        lambda: geometry._scanned_geometry(OrderedGroundSet(range(21)), _reached),
    ),
    "interval geometry, 2^n": (
        lambda mp: mp.setattr(geometry, "ClosureSystem", _reached),
        lambda: geometry.interval_geometry(20),
        lambda: geometry.interval_geometry(21),
    ),
    "planar geometry generator, 2^n": (
        lambda mp: mp.setattr(geometry, "planar_point_geometry", _reached),
        lambda: cli._planar_geometry(argparse.Namespace(n=20), random.Random(0), geometry),
        lambda: cli._planar_geometry(argparse.Namespace(n=21), random.Random(0), geometry),
    ),
    "blass_sagan_family, 2^|C|": (
        lambda mp: None,
        lambda: lattices.blass_sagan_family(*_stub_order(_atoms_crosscut(20))),
        lambda: lattices.blass_sagan_family(*_atoms_crosscut(21)),
    ),
    "blass_sagan_mobius ground, 2^|C|": (
        lambda mp: mp.setattr(lattices, "_crosscut_fold", _reached),
        lambda: lattices.blass_sagan_mobius(*_atoms_crosscut(20), family=()),
        lambda: lattices.blass_sagan_mobius(*_atoms_crosscut(21), family=()),
    ),
    "all_crosscuts, 2^|middle|": (
        lambda mp: mp.setattr(lattices, "iter_avoiding_masks", _reached),
        lambda: lattices.all_crosscuts(_atoms_lattice(20)),
        lambda: lattices.all_crosscuts(_atoms_lattice(21)),
    ),
    "lattice, |L|^2": (
        lambda mp: mp.setattr(FiniteLattice, "_build", _reached),
        lambda: FiniteLattice(range(1024), zip(range(1023), range(1, 1024))),
        lambda: FiniteLattice(range(1025), zip(range(1024), range(1, 1025))),
    ),
    "boolean lattice, 4^n": (
        lambda mp: mp.setattr(lattices, "FiniteLattice", _reached),
        lambda: lattices.boolean_lattice(10),
        lambda: lattices.boolean_lattice(11),
    ),
    "partition lattice, Bell(n)^2": (
        lambda mp: mp.setattr(lattices, "FiniteLattice", _reached),
        lambda: lattices.partition_lattice(7),
        lambda: lattices.partition_lattice(8),
    ),
    # d(3072) = 22; no n under FACTOR_CAP has d(n) = 23, so 360, with 24, is the first refused
    "divisor complex, 2^(d(n) - 2)": (
        lambda mp: mp.setattr(numbers, "_divisor_domain", _reached),
        lambda: numbers.divisor_complex(3072),
        lambda: numbers.divisor_complex(360),
    ),
    # the check comes before the sieve allocates its limit + 1 bytes
    "prime sieve, limit": (
        lambda mp: mp.setattr(numbers, "bytearray", _reached, raising=False),
        lambda: numbers.primes_upto(core.WORK_BUDGET),
        lambda: numbers.primes_upto(core.WORK_BUDGET + 1),
    ),
    "uniform matroid, C(n, r+1)": (
        lambda mp: mp.setattr(matroids, "itertools", types.SimpleNamespace(combinations=_reached)),
        lambda: Matroid.uniform(0, core.WORK_BUDGET),
        lambda: Matroid.uniform(0, core.WORK_BUDGET + 1),
    ),
    # the walk counts the subsets it yields; a budget of 2^10 keeps the walk short
    "pruned walk, subsets of the free elements": (
        lambda mp: mp.setattr(core, "WORK_BUDGET", 1 << 10),
        lambda: _free_walk(11),
        lambda: _free_walk(12),
    ),
    # 1,024 and 1,025 subsets
    "pruned walk, yielded subsets": (
        lambda mp: mp.setattr(core, "WORK_BUDGET", 1 << 10),
        lambda: _walk(10, 10),
        lambda: _walk(10, 9),
    ),
    # 512 and 513 subsets of 74 elements, whose masks take two words: two steps each
    "pruned walk, mask words": (
        lambda mp: mp.setattr(core, "WORK_BUDGET", 1 << 10),
        lambda: _walk(9, 9, pad=64),
        lambda: _walk(9, 8, pad=64),
    ),
    "sum_full, 2^n": (
        lambda mp: mp.setattr(core, "_group_sum", _reached),
        lambda: core.sum_full(core.sign_function(), OrderedGroundSet(range(20))),
        lambda: core.sum_full(core.sign_function(), OrderedGroundSet(range(21))),
    ),
    "table set function, 2^n": (
        lambda mp: None,
        lambda: core.TableSetFunction(OrderedGroundSet(range(20)), {}, default=0),
        lambda: core.TableSetFunction(OrderedGroundSet(range(21)), {}, default=0),
    ),
    "random cancelling instance, 2^n": (
        lambda mp: mp.setattr(core, "OrderedGroundSet", _reached),
        lambda: core.random_cancelling_instance(random.Random(0), 20),
        lambda: core.random_cancelling_instance(random.Random(0), 21),
    ),
    # 986,328 sequences on 9 vertices, 9,864,000 on 10
    "tight cycles, vertex sequences": (
        lambda mp: mp.setattr(hypergraphs, "itertools", types.SimpleNamespace(permutations=_reached)),
        lambda: hypergraphs.tight_cycles(_triangle(9), 2),
        lambda: hypergraphs.tight_cycles(_triangle(10), 2),
    ),
    "random graph, C(n, 2)": (
        lambda mp: None,
        # C(1448, 2) = 1,047,628 draws; the first draw shows the check passed
        lambda: graphs.random_graph(types.SimpleNamespace(random=_reached), 1448, 0.5),
        lambda: graphs.random_graph(types.SimpleNamespace(random=_reached), 1449, 0.5),
    ),
}


def _stub_order(pair):
    """The crosscut's linear extension is the first step after the check."""
    lattice, cut = pair
    cut.linear_extension = _reached
    return lattice, cut


@pytest.mark.parametrize("site", SITES)
def test_last_accepted_size_passes_and_first_refused_size_names_the_budget(monkeypatch, site):
    patch, accepted, refused = SITES[site]
    patch(monkeypatch)
    try:
        accepted()
    except Reached:
        pass
    with pytest.raises(CapExceeded, match=f"past the work budget of {core.WORK_BUDGET} steps"):
        refused()


def test_optional_full_sides_stop_at_the_budget(monkeypatch):
    # the full cross-check of sum_over_maxima and whitney-sum runs up to 2^20 subsets
    monkeypatch.setattr(core, "sum_full", lambda f, ground: 0)
    f = core.sign_function()
    assert core.sum_over_maxima(f, _chain(20), check=False).full == 0
    assert core.sum_over_maxima(f, _chain(21), check=False).full is None
    for n, has_full in ((20, True), (21, False)):
        # singleton broken sets {2i} leave few subsets to the pruned sum
        labels = [f"e{i}" for i in range(n)]
        doc = {"kind": "whitney", "elements": labels, "function": {"kind": "sign"},
               "circuits": [labels[i:i + 2] for i in range(0, n - 1, 2)]}
        out = cli._whitney_sum(argparse.Namespace(permute_order=None), doc, core)
        assert ("full" in out) == has_full, n


def test_unbounded_generator_parameters_are_refused_at_once():
    # the predictions compare exponents or small binomials, never build 2^n
    for call in (lambda: geometry.interval_geometry(10 ** 12),
                 lambda: cli._planar_geometry(argparse.Namespace(n=10 ** 12), None, geometry),
                 lambda: lattices.boolean_lattice(10 ** 12),
                 lambda: Matroid.uniform(2, 10 ** 12),
                 lambda: Matroid.uniform(2 ** 19, 2 ** 20),
                 lambda: graphs.random_graph(None, 10 ** 12, 0.5),
                 lambda: core.random_cancelling_instance(None, 10 ** 12)):
        with pytest.raises(CapExceeded, match=BUDGET):
            call()


def test_walk_past_the_budget_by_its_free_elements_yields_nothing():
    # 22 of the 24 elements are in no broken set: 2^22 subsets survive
    walk = core.iter_avoiding_masks(OrderedGroundSet(range(24)), [{0, 1}])
    with pytest.raises(CapExceeded, match="the walk over 24 elements: " + BUDGET):
        next(walk)


def test_sum_over_maxima_on_b5_sums_two_subsets():
    # 32 elements but one maximal one: the walk yields the empty set and the top
    reduction = core.sum_over_maxima(core.sign_function(), lattices.boolean_lattice(5))
    assert (reduction.restricted, reduction.full, reduction.cancellation) == (0, None, None)


def test_constructors_check_membership_in_linear_time():
    start = time.perf_counter()
    assert len(_path_hypergraph(15_000).edges) == 15_000
    assert len(Matroid.uniform(0, 20_000).circuits) == 20_000
    assert time.perf_counter() - start < 1
