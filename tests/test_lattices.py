import gc
import itertools
import random

import pytest

from brokencircuits.core import (
    FinitePoset,
    OrderedGroundSet,
    SetFunction,
    sum_full,
    sum_over_chains,
    sum_over_maxima,
)
from brokencircuits.errors import CapExceeded, PreconditionError, SchemaError
from brokencircuits.lattices import (
    Crosscut,
    FiniteLattice,
    all_crosscuts,
    blass_sagan_family,
    blass_sagan_mobius,
    boolean_lattice,
    divisor_lattice,
    is_crosscut,
    mobius,
    mobius_function,
    partition_lattice,
    rota_crosscut,
)
from brokencircuits.oracles import oracle_mobius


class TestLatticeConstruction:
    def test_boolean_3(self):
        b3 = boolean_lattice(3)
        assert len(b3) == 8
        assert b3.bottom == 0
        assert b3.top == 7
        assert set(b3.atoms()) == {1, 2, 4}

    def test_divisor_30_is_boolean_shaped(self):
        d30 = divisor_lattice(30)
        assert len(d30) == 8
        assert mobius(d30) == mobius(boolean_lattice(3)) == -1

    def test_partition_3(self):
        p3 = partition_lattice(3)
        assert len(p3) == 5
        assert p3.bottom == "1|2|3"
        assert p3.top == "123"

    def test_rejects_non_lattice(self):
        # two maximal elements
        with pytest.raises(PreconditionError):
            FiniteLattice("abcd", [("a", "b"), ("a", "c")])

    def test_rejects_missing_join(self):
        # b and c have two minimal upper bounds d, e: no join
        with pytest.raises(PreconditionError):
            FiniteLattice(
                "abcdef",
                [
                    ("a", "b"),
                    ("a", "c"),
                    ("b", "d"),
                    ("c", "d"),
                    ("b", "e"),
                    ("c", "e"),
                    ("d", "f"),
                    ("e", "f"),
                ],
            )

    def test_meet_join_tables(self):
        d12 = divisor_lattice(12)
        assert d12.meet(4, 6) == 2
        assert d12.join(4, 6) == 12
        assert d12.meet_set(()) == 12
        assert d12.join_set(()) == 1


class TestMobius:
    def test_boolean(self):
        for n in range(1, 5):
            assert mobius(boolean_lattice(n)) == (-1) ** n

    def test_divisor_12(self):
        assert mobius(divisor_lattice(12)) == 0

    def test_partitions(self):
        assert mobius(partition_lattice(3)) == 2
        assert mobius(partition_lattice(4)) == -6
        pi6 = partition_lattice(6)
        assert (len(pi6), mobius(pi6)) == (203, -120)

    def test_mobius_function_sums_to_delta(self):
        lat = divisor_lattice(36)
        mu = mobius_function(lat)
        for x in lat.elements:
            total = sum(mu[y] for y in lat.elements if lat.le(y, x))
            assert total == (1 if x == lat.bottom else 0)

    def test_oracle_agrees(self):
        for lat in (boolean_lattice(3), divisor_lattice(12), partition_lattice(4)):
            assert mobius(lat) == oracle_mobius(lat)

    def test_chain_has_zero_mobius(self):
        chain = FiniteLattice("abc", [("a", "b"), ("b", "c")])
        assert mobius(chain) == 0 == oracle_mobius(chain)


class TestCrosscuts:
    def test_atoms_are_a_crosscut(self):
        b3 = boolean_lattice(3)
        assert is_crosscut(b3, b3.atoms())

    def test_single_atom_is_not(self):
        b3 = boolean_lattice(3)
        assert not is_crosscut(b3, [1])

    def test_coatoms_are_a_crosscut(self):
        b3 = boolean_lattice(3)
        assert is_crosscut(b3, b3.coatoms())

    def test_trivial_lattice_rejected(self):
        two = FiniteLattice("ab", [("a", "b")])
        with pytest.raises(PreconditionError):
            is_crosscut(two, [])

    def test_all_crosscuts_found(self):
        b3 = boolean_lattice(3)
        cuts = all_crosscuts(b3)
        assert tuple(sorted(b3.atoms())) in (tuple(sorted(c)) for c in cuts)
        assert all(is_crosscut(b3, c) for c in cuts)


class TestRotaCrosscut:
    def test_b2_atoms(self):
        b2 = boolean_lattice(2)
        assert rota_crosscut(b2, b2.atoms()) == 1

    def test_partition_3_atoms(self):
        p3 = partition_lattice(3)
        assert rota_crosscut(p3, p3.atoms()) == 2

    def test_b3_coatoms(self):
        b3 = boolean_lattice(3)
        assert rota_crosscut(b3, b3.coatoms()) == -1

    def test_every_crosscut_of_corpus(self):
        for lat in (boolean_lattice(2), boolean_lattice(3), divisor_lattice(12),
                    partition_lattice(3)):
            expected = mobius(lat)
            for cut in all_crosscuts(lat):
                assert rota_crosscut(lat, cut) == expected


class TestBlassSaganFamily:
    def test_singletons_never_qualify(self):
        b3 = boolean_lattice(3)
        atoms = b3.atoms()
        cc = Crosscut(b3, atoms, [(atoms[0], atoms[1]), (atoms[1], atoms[2])])
        fam = blass_sagan_family(b3, cc)
        assert all(len(bs.subset) >= 2 for bs in fam)

    def test_boolean_atom_pairs_join_below_top(self):
        # in the subset lattice, two atoms join to a coatom, so the witness
        # bound c < join(B) fails for every candidate and the family is empty
        b3 = boolean_lattice(3)
        a, b, c = b3.atoms()
        cc = Crosscut(b3, (a, b, c), [(a, b), (b, c)])
        assert blass_sagan_family(b3, cc) == ()

    def test_partition_4_has_nontrivial_family(self):
        p4 = partition_lattice(4)
        atoms = p4.atoms()
        order = [(atoms[i], atoms[j]) for i in range(len(atoms)) for j in range(i + 1, len(atoms))]
        cc = Crosscut(p4, atoms, order)
        fam = blass_sagan_family(p4, cc)
        assert fam
        for bs in fam:
            assert bs.added not in bs.subset
            assert bs.circuit == bs.subset | {bs.added}
            for b, w in bs.witnesses.items():
                assert cc.precedes(w, b)
                assert p4.lt(p4.meet_set(bs.subset), w)
                assert p4.lt(w, p4.join_set(bs.subset))

    def test_total_incomparability_gives_empty_family(self):
        p4 = partition_lattice(4)
        cc = Crosscut(p4, p4.atoms(), [])
        assert blass_sagan_family(p4, cc) == ()
        # and the pruned sum then degenerates to the plain crosscut sum
        assert blass_sagan_mobius(p4, cc) == rota_crosscut(p4, p4.atoms())


class TestBlassSaganMobius:
    def test_partition_4_atoms(self):
        p4 = partition_lattice(4)
        atoms = p4.atoms()
        order = [(atoms[i], atoms[j]) for i in range(len(atoms)) for j in range(i + 1, len(atoms))]
        cc = Crosscut(p4, atoms, order)
        assert blass_sagan_mobius(p4, cc) == -6

    def test_subfamily_validation(self):
        p4 = partition_lattice(4)
        atoms = p4.atoms()
        cc = Crosscut(p4, atoms, [(atoms[0], atoms[1])])
        with pytest.raises(PreconditionError):
            blass_sagan_mobius(p4, cc, subfamily=[frozenset({atoms[0]})])

    def test_random_orders_and_subfamilies(self):
        rng = random.Random(99)
        corpus = [
            boolean_lattice(2),
            boolean_lattice(3),
            divisor_lattice(12),
            divisor_lattice(30),
            partition_lattice(3),
            partition_lattice(4),
        ]
        for lat in corpus:
            expected = mobius(lat)
            for cut in all_crosscuts(lat):
                for _ in range(3):
                    order = _random_precedence(rng, cut)
                    cc = Crosscut(lat, cut, order)
                    fam = blass_sagan_family(lat, cc)
                    assert blass_sagan_mobius(lat, cc, family=fam) == expected
                    if fam:
                        sub = [bs.subset for bs in fam if rng.random() < 0.5]
                        assert blass_sagan_mobius(lat, cc, subfamily=sub) == expected

    def test_atoms_footnote(self):
        rng = random.Random(5)
        for lat in (boolean_lattice(3), boolean_lattice(4), partition_lattice(4),
                    divisor_lattice(30)):
            atoms = lat.atoms()
            cc = Crosscut(lat, atoms, _random_precedence(rng, atoms))
            with_meet = blass_sagan_mobius(lat, cc)
            without = blass_sagan_mobius(lat, cc, drop_meet_condition=True)
            assert with_meet == without == mobius(lat)

    def test_meet_condition_only_droppable_for_atoms(self):
        b3 = boolean_lattice(3)
        cc = Crosscut(b3, b3.coatoms())
        with pytest.raises(PreconditionError):
            blass_sagan_mobius(b3, cc, drop_meet_condition=True)
        with pytest.raises(PreconditionError):
            rota_crosscut(b3, b3.coatoms(), drop_meet_condition=True)

    def test_dual_form_bookkeeping(self):
        p4 = partition_lattice(4)
        atoms = p4.atoms()
        order = [(atoms[i], atoms[j]) for i in range(len(atoms)) for j in range(i + 1, len(atoms))]
        cc = Crosscut(p4, atoms, order)
        fam = blass_sagan_family(p4, cc)
        lin = cc.linear_extension()
        linpos = {e: i for i, e in enumerate(lin)}
        for bs in fam:
            # the added witness is the strict minimum of its circuit
            assert min(bs.circuit, key=linpos.__getitem__) == bs.added


def _random_precedence(rng, elements):
    order = list(elements)
    rng.shuffle(order)
    return [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < 0.4
    ]


class TestLatticeRoundtrip:
    def test_partition_lattice_json(self):
        from brokencircuits import io

        lat = partition_lattice(4)
        obj = io.lattice_to_obj(lat)
        parsed = io.parse_lattice(obj)
        assert parsed.elements == lat.elements
        assert mobius(parsed) == -6
        assert io.canonical_json(io.lattice_to_obj(parsed)) == io.canonical_json(obj)


class TestCrosscutType:
    def test_precedence_cycle_rejected(self):
        b3 = boolean_lattice(3)
        a, b, _ = b3.atoms()
        with pytest.raises(PreconditionError):
            Crosscut(b3, b3.atoms(), [(a, b), (b, a)])

    def test_non_crosscut_rejected(self):
        b3 = boolean_lattice(3)
        with pytest.raises(PreconditionError):
            Crosscut(b3, [1])

    def test_linear_extension_respects_input_order(self):
        b3 = boolean_lattice(3)
        a, b, c = b3.atoms()
        cc = Crosscut(b3, (a, b, c), [(c, a)])
        ext = cc.linear_extension()
        assert ext.index(c) < ext.index(a)


# the order of the walks, as the recursive walks produced it
B3_CHAINS = [(0, 1, 3, 7), (0, 1, 5, 7), (0, 2, 3, 7), (0, 2, 6, 7), (0, 4, 5, 7), (0, 4, 6, 7)]
PI4_CHAIN_MIDDLES = [
    "12|3|4 123|4", "12|3|4 124|3", "12|3|4 12|34", "13|2|4 123|4", "13|2|4 134|2", "13|2|4 13|24",
    "14|2|3 124|3", "14|2|3 134|2", "14|2|3 14|23", "1|23|4 123|4", "1|23|4 14|23", "1|23|4 1|234",
    "1|24|3 124|3", "1|24|3 13|24", "1|24|3 1|234", "1|2|34 12|34", "1|2|34 134|2", "1|2|34 1|234",
]


def test_walk_order_is_pinned():
    b3 = boolean_lattice(3)
    assert b3.maximal_chains() == B3_CHAINS
    assert all_crosscuts(b3) == [(3, 5, 6), (1, 2, 4)]
    pi4 = partition_lattice(4)
    chains = pi4.maximal_chains()
    assert {(c[0], c[3]) for c in chains} == {("1|2|3|4", "1234")}
    assert [" ".join(c[1:3]) for c in chains] == PI4_CHAIN_MIDDLES
    assert all_crosscuts(pi4) == [
        ("123|4", "124|3", "12|34", "134|2", "13|24", "14|23", "1|234"),
        ("12|3|4", "13|2|4", "14|2|3", "1|23|4", "1|24|3", "1|2|34"),
    ]
    assert FiniteLattice([0], []).maximal_chains() == [(0,)]
    assert FiniteLattice("ab", [("a", "b")]).maximal_chains() == [("a", "b")]


def test_all_crosscuts_match_combination_filter():
    # the kernel walk against the combinations of middle elements that are
    # antichains and meet every maximal chain
    for lat in (boolean_lattice(3), divisor_lattice(12), partition_lattice(3),
                divisor_lattice(60), partition_lattice(4)):
        chains = [set(c) for c in lat.maximal_chains()]
        middle = lat.middle()
        expected = [
            combo
            for r in range(1, len(middle) + 1)
            for combo in itertools.combinations(middle, r)
            if not any(lat.comparable(a, b) for a, b in itertools.combinations(combo, 2))
            and all(chain.intersection(combo) for chain in chains)
        ]
        got = all_crosscuts(lat)
        assert len(got) == len(set(got)) and set(got) == set(expected)


def test_walks_leave_no_reference_cycles():
    lattices = [boolean_lattice(3), partition_lattice(4), divisor_lattice(60)]
    gc.collect()
    gc.disable()
    try:
        for lattice in lattices:
            lattice.maximal_chains()
            assert gc.collect() == 0
            all_crosscuts(lattice)
            assert gc.collect() == 0
    finally:
        gc.enable()


def _cover_pairs(lattice):
    return [(a, b) for a in lattice.elements for b in lattice.elements
            if lattice.lt(a, b) and not any(lattice.lt(a, c) and lattice.lt(c, b)
                                            for c in lattice.elements)]


class TestOrderSubstrate:
    """Lattices and crosscut orders are FinitePosets: one closure, one
    linear extension, one chain walk."""

    CORPUS = [boolean_lattice(3), divisor_lattice(12), partition_lattice(3)]

    def test_lattice_is_a_poset(self):
        for lat in self.CORPUS:
            assert isinstance(lat, FinitePoset)
            poset = FinitePoset.from_covers(lat.elements, _cover_pairs(lat))
            assert type(poset) is FinitePoset
            assert poset.linear_extension() == lat.linear_extension()
            assert set(poset.chain_subsets()) == set(lat.chain_subsets())
            assert lat.minimal_elements() == (lat.bottom,)
            assert lat.maximal_elements() == (lat.top,)
            rebuilt = FiniteLattice.from_covers(lat.elements, _cover_pairs(lat))
            assert rebuilt.meet_set(lat.elements) == lat.bottom

    def test_chain_sum_accepts_a_lattice(self):
        # f(S) = (-1)^|S| w(join S) cancels across s v t for incomparable s, t
        rng = random.Random(4)
        for lat in self.CORPUS:
            weights = {x: rng.randint(-9, 9) for x in lat.elements}
            f = SetFunction(lambda s, lat=lat, w=weights:
                            (-1 if len(s) & 1 else 1) * w[lat.join_set(s)], 0, "join-weight")
            poset = FinitePoset.from_covers(lat.elements, _cover_pairs(lat))
            value = sum_over_chains(f, lat)
            assert value == sum_over_chains(f, poset)
            assert value == sum_full(f, OrderedGroundSet(lat.linear_extension()))

    def test_maxima_sum_accepts_a_lattice(self):
        # f(S) = (-1)^|S| w(minimal elements of S) cancels across the larger
        # element of every comparable pair
        rng = random.Random(6)
        for lat in self.CORPUS:
            weights = {}

            def fn(s, lat=lat, weights=weights):
                minima = frozenset(x for x in s if not any(lat.lt(y, x) for y in s))
                if minima not in weights:
                    weights[minima] = rng.randint(-9, 9)
                return (-1 if len(s) & 1 else 1) * weights[minima]

            f = SetFunction(fn, 0, "minima-weight")
            poset = FinitePoset.from_covers(lat.elements, _cover_pairs(lat))
            on_lattice = sum_over_maxima(f, lat)
            on_poset = sum_over_maxima(f, poset)
            assert on_lattice.restricted == on_poset.restricted == on_lattice.full
            assert on_lattice.full == on_poset.full
            assert on_lattice.cancellation.ok and on_poset.cancellation.ok

    def test_cyclic_covers_name_a_pair(self):
        with pytest.raises(PreconditionError, match="'b' and 'c'"):
            FiniteLattice("abcd", [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")])
        b3 = boolean_lattice(3)
        with pytest.raises(PreconditionError, match="through 1 and 2"):
            Crosscut(b3, (1, 2, 4), [(1, 2), (2, 4), (4, 1)])

    def test_precedence_pair_outside_the_crosscut(self):
        b3 = boolean_lattice(3)
        with pytest.raises(SchemaError, match="leaves the crosscut"):
            Crosscut(b3, (1, 2, 4), [(1, 3)])

    def test_precedes_is_the_strict_order(self):
        b3 = boolean_lattice(3)
        cc = Crosscut(b3, (1, 2, 4), [(4, 2), (2, 1)])
        assert cc.precedes(4, 1) and not cc.precedes(1, 4) and not cc.precedes(2, 2)
        assert cc.linear_extension() == (4, 2, 1)


def _reference_family(lattice, crosscut, drop_meet_bound=False):
    """The witness search as first written: every member tries every element,
    keeping the one earliest in the linear extension."""
    elements = crosscut.elements
    lin = crosscut.linear_extension()
    linpos = {e: i for i, e in enumerate(lin)}
    out = []
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            meet = lattice.meet_set(combo)
            join = lattice.join_set(combo)
            witnesses = {}
            ok = True
            for b in combo:
                best = None
                for c in elements:
                    if not crosscut.precedes(c, b):
                        continue
                    if not lattice.lt(c, join):
                        continue
                    if not drop_meet_bound and not lattice.lt(meet, c):
                        continue
                    if best is None or linpos[c] < linpos[best]:
                        best = c
                if best is None:
                    ok = False
                    break
                witnesses[b] = best
            if ok:
                added = min(witnesses.values(), key=linpos.__getitem__)
                subset = frozenset(combo)
                out.append((subset, witnesses, added, subset | {added}))
    return out


def test_blass_sagan_family_matches_the_all_pairs_search():
    rng = random.Random(2024)
    checked = nonempty = 0
    for lat in (boolean_lattice(3), boolean_lattice(4), partition_lattice(4),
                divisor_lattice(60), divisor_lattice(210)):
        atoms = lat.atoms()
        cuts = [atoms, lat.coatoms()] + [c for c in all_crosscuts(lat)
                                         if set(c) not in (set(atoms), set(lat.coatoms()))][:2]
        for cut in cuts:
            for _ in range(4):
                cc = Crosscut(lat, cut, _random_precedence(rng, cut))
                drops = (False, True) if set(cut) == set(atoms) else (False,)
                for drop in drops:
                    got = [(bs.subset, bs.witnesses, bs.added, bs.circuit)
                           for bs in blass_sagan_family(lat, cc, drop_meet_bound=drop)]
                    assert got == _reference_family(lat, cc, drop)
                    checked += 1
                    nonempty += bool(got)
    assert checked == 72 and nonempty >= 15


class _BooleanOrder:
    """Reference order: a nested-boolean Warshall closure, with meets,
    joins and covers found by searching all elements for every pair."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        n = len(self.elements)
        self.pos = {e: i for i, e in enumerate(self.elements)}
        leq = [[i == j for j in range(n)] for i in range(n)]
        for a, b in covers:
            leq[self.pos[a]][self.pos[b]] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if leq[i][k] and leq[k][j]:
                        leq[i][j] = True
        self.leq = leq

    def le(self, a, b):
        return self.leq[self.pos[a]][self.pos[b]]

    def lt(self, a, b):
        return a != b and self.le(a, b)

    def maximal_elements(self):
        return tuple(a for a in self.elements if not any(self.lt(a, b) for b in self.elements))

    def minimal_elements(self):
        return tuple(a for a in self.elements if not any(self.lt(b, a) for b in self.elements))

    def linear_extension(self):
        out = []
        while len(out) < len(self.elements):
            out.append(next(a for a in self.elements if a not in out
                            and all(b in out for b in self.elements if self.lt(b, a))))
        return tuple(out)

    def join(self, a, b):
        uppers = [c for c in self.elements if self.le(a, c) and self.le(b, c)]
        return next((c for c in uppers if all(self.le(c, d) for d in uppers)), None)

    def meet(self, a, b):
        lowers = [c for c in self.elements if self.le(c, a) and self.le(c, b)]
        return next((c for c in lowers if all(self.le(d, c) for d in lowers)), None)

    def covers(self):
        return [(a, b) for a in self.elements for b in self.elements
                if self.lt(a, b) and not any(self.lt(a, c) and self.lt(c, b)
                                             for c in self.elements)]

    def maximal_chains(self, path):
        above = [b for a, b in self.covers() if a == path[-1]]
        if not above:
            return [tuple(path)]
        return [chain for b in above for chain in self.maximal_chains(path + [b])]

    def mobius_function(self, bottom):
        mu = {}
        for x in self.linear_extension():
            mu[x] = (x == bottom) - sum(mu[y] for y in mu if self.lt(y, x))
        return mu


def _random_cover_dag(rng, n):
    """n shuffled labels with random pairs from earlier to later in a hidden order."""
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    hidden = rng.sample(labels, n)
    p = rng.choice((0.15, 0.3, 0.5))
    covers = [(hidden[i], hidden[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < p]
    return labels, covers


class TestMaskSubstrate:
    """Up-set and down-set masks against a nested-boolean reference."""

    LATTICES = {
        "B3": boolean_lattice(3),
        "B4": boolean_lattice(4),
        "Pi4": partition_lattice(4),
        "D60": divisor_lattice(60),
        "D720": divisor_lattice(720),
    }

    def test_poset_queries_match_the_reference(self):
        rng = random.Random(12)
        missing_joins = 0
        for trial in range(60):
            labels, covers = _random_cover_dag(rng, rng.randint(1, 12))
            poset = FinitePoset.from_covers(labels, covers)
            ref = _BooleanOrder(labels, covers)
            assert [poset.le(a, b) for a in labels for b in labels] == \
                [ref.le(a, b) for a in labels for b in labels]
            assert poset.maximal_elements() == ref.maximal_elements()
            assert poset.minimal_elements() == ref.minimal_elements()
            assert poset.linear_extension() == ref.linear_extension()
            joins = [poset.join(a, b) for a in labels for b in labels]
            assert joins == [ref.join(a, b) for a in labels for b in labels]
            missing_joins += joins.count(None)
            # the same order given as all its pairs
            closed = [(a, b) for a in labels for b in labels if ref.le(a, b)]
            assert FinitePoset(labels, closed).linear_extension() == ref.linear_extension()
        assert missing_joins > 0

    @pytest.mark.parametrize("name", sorted(LATTICES))
    def test_lattice_queries_match_the_reference(self, name):
        lat = self.LATTICES[name]
        ref = _BooleanOrder(lat.elements, lat.covers())
        els = lat.elements
        assert lat.covers() == ref.covers()
        assert [lat.meet(a, b) for a in els for b in els] == [ref.meet(a, b) for a in els for b in els]
        assert [lat.join(a, b) for a in els for b in els] == [ref.join(a, b) for a in els for b in els]
        rng = random.Random(len(els))
        for _ in range(40):
            subset = rng.sample(els, rng.randint(0, 4))
            meet, join = lat.top, lat.bottom
            for e in subset:
                meet, join = ref.meet(meet, e), ref.join(join, e)
            assert lat.meet_set(subset) == meet
            assert lat.join_set(subset) == join
        assert lat.atoms() == tuple(b for a, b in ref.covers() if a == lat.bottom)
        assert lat.coatoms() == tuple(a for a, b in ref.covers() if b == lat.top)
        assert lat.maximal_chains() == ref.maximal_chains([lat.bottom])
        mu = mobius_function(lat)
        assert list(mu.items()) == list(ref.mobius_function(lat.bottom).items())

    def test_covers_feed_the_lattice_document(self):
        from brokencircuits import io

        lat = divisor_lattice(12)
        assert lat.covers() == [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)]
        assert io.lattice_to_obj(lat)["covers"] == [list(c) for c in lat.covers()]

    def test_first_non_transitive_triple(self):
        with pytest.raises(PreconditionError, match=r"^relation is not transitive: 's' <= 'p' <= 'r'$"):
            FinitePoset("pqrs", [("s", "p"), ("p", "q"), ("q", "r"), ("s", "q"), ("p", "r")])

    def test_first_cycle_pair(self):
        # (x, w) comes before (y, z) in input order
        with pytest.raises(PreconditionError, match=r"^the order has a cycle through 'x' and 'w'$"):
            FinitePoset.from_covers("xyzw", [("w", "x"), ("y", "z"), ("z", "y"), ("x", "w")])
        with pytest.raises(PreconditionError, match=r"^the order has a cycle through 'y' and 'z'$"):
            FinitePoset("xyzw", [("z", "y"), ("y", "z")])

    def test_first_pair_without_meet_or_join(self):
        bowtie = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                  ("c", "1"), ("d", "1")]
        with pytest.raises(PreconditionError, match=r"^elements 'a' and 'b' have no join$"):
            FiniteLattice(["0", "a", "b", "c", "d", "1"], bowtie)
        with pytest.raises(PreconditionError, match=r"^elements 'c' and 'd' have no meet$"):
            FiniteLattice(["0", "c", "d", "a", "b", "1"], bowtie)
        # x and y lack both; the meet is reported first
        layers = [("0", "p"), ("0", "q"), ("p", "x"), ("p", "y"), ("q", "x"), ("q", "y"),
                  ("x", "r"), ("x", "s"), ("y", "r"), ("y", "s"), ("r", "1"), ("s", "1")]
        with pytest.raises(PreconditionError, match=r"^elements 'x' and 'y' have no meet$"):
            FiniteLattice(["0", "x", "y", "p", "q", "r", "s", "1"], layers)


class TestCrosscutCheckedOnce:
    def test_rota_crosscut_trusts_a_crosscut(self, monkeypatch):
        from brokencircuits import lattices

        pi4 = partition_lattice(4)
        cc = Crosscut(pi4, pi4.atoms())
        calls = []

        def counting(lattice, subset):
            calls.append(subset)
            return is_crosscut(lattice, subset)

        monkeypatch.setattr(lattices, "is_crosscut", counting)
        assert rota_crosscut(pi4, cc) == -6
        assert calls == []
        assert rota_crosscut(pi4, pi4.atoms()) == -6
        assert len(calls) == 1

    def test_repeated_labels_are_a_schema_error(self):
        b3 = boolean_lattice(3)
        with pytest.raises(SchemaError, match="pairwise distinct"):
            rota_crosscut(b3, (1, 2, 4, 1))
        with pytest.raises(PreconditionError, match="is not a crosscut"):
            rota_crosscut(b3, (1, 2))


class TestLatticeCap:
    def test_lattice_document_past_the_cap(self):
        from brokencircuits.lattices import LATTICE_CAP

        chain = list(range(LATTICE_CAP + 1))
        with pytest.raises(CapExceeded, match=f"lattice has {LATTICE_CAP + 1} elements"):
            FiniteLattice(chain, zip(chain, chain[1:]))

    def test_boolean_lattice_refused_before_it_is_built(self):
        with pytest.raises(CapExceeded, match=r"2\^11 elements"):
            boolean_lattice(11)
        with pytest.raises(CapExceeded, match=r"2\^1000000 elements"):
            boolean_lattice(10 ** 6)
        with pytest.raises(PreconditionError, match="n >= 0"):
            boolean_lattice(-1)


def _brute_crosscut_histogram(lattice, elements, drop_meet, broken=()):
    """{counts: sum of (-1)^|S|} over the subsets S of ``elements`` holding no
    set of ``broken``, one subset at a time; a subset counts when its join
    is top and, unless dropped, its meet is bottom."""
    hist = {}
    for r in range(len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            if any(b <= set(combo) for b in broken):
                continue
            counts = lattice.join_set(combo) == lattice.top and (
                drop_meet or lattice.meet_set(combo) == lattice.bottom)
            hist[counts] = hist.get(counts, 0) + (-1) ** r
    return {k: v for k, v in hist.items() if v}


class TestKernelCrosscutSums:
    """Rota's and the Blass-Sagan sums through the kernel folds, against a
    per-subset brute force."""

    def test_every_crosscut_random_orders_and_subfamilies(self):
        from brokencircuits import lattices
        from brokencircuits.core import _image_fold

        rng = random.Random(13)
        checked = pruned = 0
        for lat in (boolean_lattice(3), divisor_lattice(12), divisor_lattice(30),
                    partition_lattice(4)):
            mu = mobius(lat)
            for cut in all_crosscuts(lat):
                for drop in (False, True) if set(cut) == set(lat.atoms()) else (False,):
                    hist = _brute_crosscut_histogram(lat, cut, drop)
                    fold = lattices._crosscut_fold(lat, cut, drop)
                    assert _image_fold(len(cut), *fold) == hist
                    assert rota_crosscut(lat, cut, drop) == hist.get(True, 0) == mu
                    for _ in range(3):
                        cc = Crosscut(lat, cut, _random_precedence(rng, cut))
                        fam = blass_sagan_family(lat, cc, drop_meet_bound=drop)
                        sub = [bs.subset for bs in fam if rng.random() < 0.5]
                        hist = _brute_crosscut_histogram(lat, cut, drop, sub)
                        ground = OrderedGroundSet(reversed(cc.linear_extension()))
                        fold = lattices._crosscut_fold(lat, ground.elements, drop)
                        masks = [ground.mask_of(b) for b in sub]
                        assert _image_fold(len(cut), *fold, broken=masks) == hist
                        value = blass_sagan_mobius(lat, cc, subfamily=sub,
                                                   drop_meet_condition=drop)
                        assert value == hist.get(True, 0) == mu
                        checked += 1
                        pruned += bool(sub)
        assert checked == 36 and pruned == 7

    def test_is_crosscut_against_the_maximal_chains(self):
        def reference(lattice, subset):
            s = set(subset)
            if not s or {lattice.bottom, lattice.top} & s:
                return False
            if any(lattice.lt(a, b) for a in s for b in s):
                return False
            return all(s & set(chain) for chain in lattice.maximal_chains())

        rng = random.Random(8)
        seen = set()
        for lat in (boolean_lattice(3), boolean_lattice(4), divisor_lattice(60),
                    partition_lattice(4)):
            els = lat.elements
            subsets = [[], [lat.bottom], [lat.top], list(lat.atoms()) + [lat.top],
                       [lat.bottom] + list(lat.coatoms())] + all_crosscuts(lat)
            subsets += [rng.sample(els, rng.randint(1, 6)) for _ in range(150)]
            for subset in subsets:
                got = is_crosscut(lat, subset)
                assert got == reference(lat, subset)
                antichain = not any(lat.lt(a, b) for a in subset for b in subset)
                seen.add((got, antichain))
        assert seen == {(True, True), (False, True), (False, False)}

    def test_no_route_lists_the_maximal_chains(self, monkeypatch):
        def refuse(self):
            raise AssertionError("maximal_chains was called")

        monkeypatch.setattr(FiniteLattice, "maximal_chains", refuse)
        rng = random.Random(3)
        for lat in (boolean_lattice(3), partition_lattice(4)):
            mu = mobius(lat)
            cuts = all_crosscuts(lat)
            assert cuts
            for cut in cuts:
                cc = Crosscut(lat, cut, _random_precedence(rng, cut))
                assert rota_crosscut(lat, cc) == blass_sagan_mobius(lat, cc) == mu


class TestPartitionLatticeCap:
    def test_negative_n_is_a_precondition(self):
        with pytest.raises(PreconditionError, match="n >= 0, got -1"):
            partition_lattice(-1)

    def test_pi7_coatom_crosscut(self):
        pi7 = partition_lattice(7)
        assert len(pi7) == 877
        assert mobius(pi7) == 720
        coatoms = pi7.coatoms()
        assert len(coatoms) == 63
        cc = Crosscut(pi7, coatoms)
        assert rota_crosscut(pi7, cc) == 720
        with pytest.raises(CapExceeded, match="crosscut has 63 elements"):
            blass_sagan_family(pi7, cc)

    def test_bell_past_the_cap_refused_at_once(self):
        import time

        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=r"Bell\(8\) elements; the cap is 1024"):
            partition_lattice(8)
        with pytest.raises(CapExceeded, match=r"Bell\(1000000\)"):
            partition_lattice(10 ** 6)
        assert time.perf_counter() - start < 0.1

    def test_divisor_lattice_relies_on_the_lattice_cap(self):
        d = divisor_lattice(720720)
        assert len(d) == 240
        assert mobius(d) == 0
