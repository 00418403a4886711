import itertools
import random

import pytest

from brokencircuits.core import (
    CircuitFamily,
    FinitePoset,
    OrderedGroundSet,
    TableSetFunction,
    derive_broken_circuits,
    iter_avoiding_masks,
)
from brokencircuits.errors import PreconditionError
from brokencircuits.geometry import (
    ClosureSystem,
    ConvexGeometry,
    closure_from_circuits,
    count_free_signed,
    discrete_geometry,
    euler_characteristic_free,
    ideal_geometry,
    interval_geometry,
    planar_point_geometry,
    random_geometry,
    reduce_to_free_sets,
)
from brokencircuits.graphs import Graph, cycles_edge_sets, edge_ground


class TestClosureSystem:
    def test_requires_ground_closed(self):
        with pytest.raises(PreconditionError):
            ClosureSystem("ab", [frozenset()])

    def test_requires_intersection_closed(self):
        with pytest.raises(PreconditionError):
            ClosureSystem(
                "abc",
                [frozenset("abc"), frozenset("ab"), frozenset("bc")],  # missing {b}
            )

    def test_hull_examples(self):
        ig = interval_geometry(3)
        assert ig.hull({1, 3}) == {1, 2, 3}
        assert ig.hull({1, 2}) == {1, 2}  # idempotence on closed sets
        assert ig.hull(set()) == set()


class TestConvexGeometry:
    def test_interval_bases(self):
        ig = interval_geometry(3)
        assert ig.basis({1, 2, 3}) == {1, 3}
        assert ig.basis(frozenset()) == frozenset()
        assert ig.basis({2}) == {2}

    def test_basis_requires_closed(self):
        ig = interval_geometry(3)
        with pytest.raises(PreconditionError):
            ig.basis({1, 3})

    def test_free_sets_interval_3(self):
        ig = interval_geometry(3)
        free = {frozenset(s) for s in ig.free_sets()}
        assert free == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }

    def test_discrete_geometry_everything_free(self):
        dg = discrete_geometry("abc")
        assert len(dg.free_sets()) == 8

    def test_single_element(self):
        dg = discrete_geometry("a")
        assert {frozenset(s) for s in dg.free_sets()} == {frozenset(), frozenset("a")}

    def test_non_geometry_detected(self):
        # closed sets of "at most one element or everything" on 3 points:
        # the full set has three extreme points... every pair hulls to S, so
        # basis uniqueness fails
        cs = ClosureSystem(
            "abc",
            [frozenset(), frozenset("a"), frozenset("b"), frozenset("c"), frozenset("abc")],
        )
        with pytest.raises(PreconditionError):
            ConvexGeometry(cs)


def _brute_signed_hull_sum(cg):
    """sum over every subset A of (-1)^{|hull A| - |A|}, each hull the
    intersection of the closed sets containing A."""
    ground = frozenset(cg.ground)
    closed = cg.system.closed_sets
    total = 0
    for r in range(len(ground) + 1):
        for a in itertools.combinations(cg.ground, r):
            hull = ground.intersection(*(c for c in closed if c.issuperset(a)))
            total += -1 if (len(hull) - r) & 1 else 1
    return total


class TestCounts:
    def test_count_free_signed_interval(self):
        assert count_free_signed(interval_geometry(3)) == 6

    def test_count_free_signed_discrete(self):
        for n in range(4):
            assert count_free_signed(discrete_geometry(range(n))) == 2**n

    def test_count_free_signed_matches_per_subset_hulls(self):
        rng = random.Random(41)
        vee = FinitePoset.from_covers("abcd", [("a", "c"), ("b", "c"), ("c", "d")])
        geometries = [
            interval_geometry(9),
            discrete_geometry(range(5)),
            ideal_geometry(vee),
            planar_point_geometry([(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2), (4, 4)]),
            # the empty set is not closed, so the sweep starts from a nonempty hull
            ConvexGeometry(ClosureSystem("ab", [frozenset("a"), frozenset("ab")])),
        ]
        geometries += [random_geometry(rng, 8) for _ in range(20)]
        for cg in geometries:
            assert count_free_signed(cg) == _brute_signed_hull_sum(cg), cg

    def test_euler_interval(self):
        assert euler_characteristic_free(interval_geometry(3)) == 1

    def test_euler_singleton(self):
        assert euler_characteristic_free(discrete_geometry("a")) == 1

    def test_euler_empty_ground_rejected(self):
        with pytest.raises(PreconditionError):
            euler_characteristic_free(discrete_geometry([]))

    def test_euler_planar(self):
        pts = [(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)]
        cg = planar_point_geometry(pts)
        assert euler_characteristic_free(cg) == 1


class TestHullAxioms:
    def test_axioms_on_generated(self):
        rng = random.Random(17)
        for _ in range(25):
            cg = random_geometry(rng, 7)
            system = cg.system
            n = len(system.ground)
            for mask in range(1 << n):
                a = system.ground.subset_of(mask)
                h = system.hull(a)
                assert a <= h
                assert system.hull(h) == h
            for _ in range(20):
                m1 = rng.randrange(1 << n)
                m2 = m1 | rng.randrange(1 << n)
                a1 = system.ground.subset_of(m1)
                a2 = system.ground.subset_of(m2)
                assert system.hull(a1) <= system.hull(a2)

    def test_basis_minimality(self):
        rng = random.Random(23)
        import itertools

        for _ in range(10):
            cg = random_geometry(rng, 6)
            for closed in cg.system.closed_sets:
                basis = cg.basis(closed)
                assert cg.hull(basis) == closed
                for r in range(len(basis)):
                    for sub in itertools.combinations(basis, r):
                        assert cg.hull(sub) != closed or frozenset(sub) == basis


class TestReduction:
    def _signed_hull_function(self, cg, rng):
        system = cg.system
        gamma = {cm: rng.randint(-6, 6) for cm in system._masks}
        table = []
        for mask in range(1 << len(system.ground)):
            h = system.hull_mask(mask)
            table.append((-1 if mask.bit_count() & 1 else 1) * gamma[h])
        return TableSetFunction(system.ground, table, 0, "signed-hull")

    def test_reduction_on_generated(self):
        rng = random.Random(31)
        for _ in range(30):
            cg = random_geometry(rng, 7)
            f = self._signed_hull_function(cg, rng)
            full, free = reduce_to_free_sets(f, cg)
            assert full == free

    def test_discrete_geometry_trivial(self):
        rng = random.Random(7)
        cg = discrete_geometry(range(4))
        f = self._signed_hull_function(cg, rng)
        full, free = reduce_to_free_sets(f, cg)
        assert full == free

    def test_violating_function_rejected(self):
        cg = interval_geometry(3)
        ground = cg.system.ground
        f = TableSetFunction(ground, [1] * 8, 0, "ones")
        with pytest.raises(PreconditionError):
            reduce_to_free_sets(f, cg)


class TestPlanarDegeneracies:
    def test_collinear_points_make_an_interval_geometry(self):
        cg = planar_point_geometry([(0, 0), (1, 1), (2, 2), (3, 3)])
        # closed sets are exactly the contiguous runs along the line
        assert cg.is_closed({(0, 0), (1, 1)})
        assert not cg.is_closed({(0, 0), (2, 2)})
        assert cg.basis({(0, 0), (1, 1), (2, 2)}) == {(0, 0), (2, 2)}
        assert euler_characteristic_free(cg) == 1

    def test_duplicate_points_rejected(self):
        with pytest.raises(Exception):
            planar_point_geometry([(0, 0), (0, 0), (1, 1)])

    def test_point_inside_triangle_not_extreme(self):
        cg = planar_point_geometry([(0, 0), (4, 0), (0, 4), (1, 1)])
        full = frozenset({(0, 0), (4, 0), (0, 4), (1, 1)})
        assert cg.is_closed(full)
        assert cg.basis(full) == {(0, 0), (4, 0), (0, 4)}


class TestIdealGeometry:
    def test_from_vee(self):
        poset = FinitePoset.from_covers("abt", [("a", "t"), ("b", "t")])
        cg = ideal_geometry(poset)
        assert cg.is_closed({"a", "b"})
        assert not cg.is_closed({"t"})
        assert cg.basis(frozenset({"a", "b", "t"})) == {"t"}
        assert euler_characteristic_free(cg) == 1


class TestClosureFromCircuits:
    def test_k3(self):
        g = Graph.complete(3)
        ground = edge_ground(g)
        family = CircuitFamily(cycles_edge_sets(g))
        cg = closure_from_circuits(ground, family)
        free = {frozenset(s) for s in cg.free_sets()}
        everything = {ground.subset_of(m) for m in range(8)}
        assert free == everything - {frozenset({0, 1}), frozenset({0, 1, 2})}

    def test_empty_family_is_discrete(self):
        ground = OrderedGroundSet("abc")
        cg = closure_from_circuits(ground, CircuitFamily([]))
        assert len(cg.free_sets()) == 8

    def test_iterated_hull(self):
        # circuits {a,b,c}, {a,c,d}: closing {a,b} forces c, then d
        ground = OrderedGroundSet("abcd")
        family = CircuitFamily([frozenset("abc"), frozenset("acd")])
        cg = closure_from_circuits(ground, family)
        assert cg.hull({"a", "b"}) == {"a", "b", "c", "d"}

    def test_bridge_on_graphs(self, corpus):
        for name in ("k3", "c4", "c5", "k4", "k23", "bowtie", "paw"):
            g = corpus[name]
            ground = edge_ground(g)
            family = CircuitFamily(cycles_edge_sets(g))
            cg = closure_from_circuits(ground, family)
            broken = [bc.subset for bc in derive_broken_circuits(family, ground)]
            avoiding = set(iter_avoiding_masks(ground, broken))
            assert cg.free_mask_set() == avoiding, name
