import gc
import random

import pytest

from brokencircuits.errors import PreconditionError
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
