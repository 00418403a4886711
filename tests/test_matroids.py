import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokencircuits.algebra import IntPolynomial
from brokencircuits.errors import PreconditionError
from brokencircuits.graphs import Graph, random_graph
from brokencircuits.matroids import (
    Matroid,
    _minor_sweep,
    beta_invariant,
    broken_circuit_counts,
    characteristic_polynomial,
)


def poly(*coeffs):
    return IntPolynomial(coeffs)


class TestMatroidBasics:
    def test_uniform_ranks(self):
        u23 = Matroid.uniform(2, 3)
        assert u23.rank({0, 1}) == 2
        assert u23.rank({0, 1, 2}) == 2
        assert u23.full_rank == 2

    def test_loop(self):
        m = Matroid([0, 1], [frozenset({0})])
        assert m.rank({0}) == 0
        assert m.rank({0, 1}) == 1

    def test_antichain_enforced(self):
        with pytest.raises(PreconditionError):
            Matroid(range(3), [{0, 1}, {0, 1, 2}])

    def test_elimination_enforced(self):
        # {0,1} and {1,2} would require a circuit inside {0,2}
        with pytest.raises(PreconditionError):
            Matroid(range(3), [{0, 1}, {1, 2}])

    def test_free_matroid(self):
        m = Matroid.uniform(3, 3)
        assert m.circuits == ()
        assert m.full_rank == 3

    def test_graphic_k3_is_u23(self):
        m = Matroid.graphic(Graph.complete(3))
        assert len(m.circuits) == 1
        assert len(next(iter(m.circuits))) == 3
        assert m.full_rank == 2

    def test_graphic_tree_is_free(self):
        m = Matroid.graphic(Graph.path(4))
        assert m.circuits == ()

    def test_graphic_rank_is_components_formula(self):
        g = Graph.complete(4)
        m = Matroid.graphic(g)
        for r in range(len(g.edges) + 1):
            for combo in itertools.combinations(range(len(g.edges)), r):
                subset = {g.edges[i] for i in combo}
                assert m.rank(subset) == len(g.vertices) - g.spanning_component_count(combo)

    def test_rank_axioms_sampled(self):
        rng = random.Random(11)
        for m in (Matroid.uniform(2, 5), Matroid.graphic(Graph.complete(4))):
            universe = list(m.elements)
            for _ in range(60):
                a = frozenset(rng.sample(universe, rng.randint(0, len(universe))))
                b = frozenset(rng.sample(universe, rng.randint(0, len(universe))))
                ra, rb = m.rank(a), m.rank(b)
                assert 0 <= ra <= len(a)
                if a <= b:
                    assert ra <= rb
                assert m.rank(a | b) + m.rank(a & b) <= ra + rb


class TestCharacteristicPolynomial:
    def test_u23(self):
        u23 = Matroid.uniform(2, 3)
        expected = poly(2, -3, 1)
        assert characteristic_polynomial(u23, "full") == expected
        assert characteristic_polynomial(u23, "broken_circuit") == expected
        assert broken_circuit_counts(u23) == (1, 3, 2, 0)

    def test_free_matroid_binomial(self):
        x = IntPolynomial.x()
        for n in range(5):
            m = Matroid.uniform(n, n)
            assert characteristic_polynomial(m, "full") == (x - 1) ** n

    def test_loop_kills_everything(self):
        m = Matroid([0, 1, 2], [frozenset({0})])
        assert characteristic_polynomial(m, "full") == IntPolynomial.zero()
        assert characteristic_polynomial(m, "broken_circuit") == IntPolynomial.zero()

    def test_methods_agree_on_uniform_family(self):
        for n in range(1, 8):
            for r in range(n + 1):
                m = Matroid.uniform(r, n)
                assert characteristic_polynomial(m, "full") == characteristic_polynomial(
                    m, "broken_circuit"
                ), (r, n)

    def test_graphic_chromatic_identity(self):
        # chi of the cycle matroid times x^{components} is the chromatic
        # polynomial
        from brokencircuits.graphs import chromatic_polynomial, random_graph

        rng = random.Random(4)
        graphs = [Graph.complete(3), Graph.complete(4), Graph.cycle(5)]
        while len(graphs) < 15:
            g = random_graph(rng, rng.randint(3, 6), 0.5)
            if len(g.edges) <= 10:
                graphs.append(g)
        x = IntPolynomial.x()
        for g in graphs:
            chi = characteristic_polynomial(Matroid.graphic(g), "full")
            c = g.spanning_component_count(range(len(g.edges)))
            assert chi * x**c == chromatic_polynomial(g, "full")


class TestBeta:
    def test_u23(self):
        u23 = Matroid.uniform(2, 3)
        for method in ("full", "broken_circuit", "derivative"):
            assert beta_invariant(u23, method) == 1

    def test_coloop(self):
        m = Matroid.uniform(1, 1)
        for method in ("full", "broken_circuit", "derivative"):
            assert beta_invariant(m, method) == 1

    def test_loop(self):
        m = Matroid([0], [frozenset({0})])
        for method in ("full", "broken_circuit", "derivative"):
            assert beta_invariant(m, method) == 0

    def test_methods_agree_widely(self):
        cases = [Matroid.uniform(r, n) for n in range(1, 7) for r in range(n + 1)]
        cases += [
            Matroid.graphic(Graph.complete(4)),
            Matroid.graphic(Graph.cycle(5)),
            Matroid([0, 1, 2], [frozenset({0})]),
        ]
        for m in cases:
            values = {beta_invariant(m, method) for method in ("full", "broken_circuit", "derivative")}
            assert len(values) == 1, m


class TestRankInvariance:
    def test_removing_circuit_maximum_preserves_rank(self):
        for m in (Matroid.uniform(2, 5), Matroid.graphic(Graph.complete(4))):
            n = len(m.elements)
            full = (1 << n) - 1
            for c in m.circuits:
                cmask = m._mask(c)
                top = 1 << (cmask.bit_length() - 1)
                free = full & ~cmask
                sub = free
                while True:
                    a = cmask | sub
                    assert m._rank_mask(a) == m._rank_mask(a & ~top)
                    if sub == 0:
                        break
                    sub = (sub - 1) & free

    def test_avoiding_subsets_are_independent(self):
        # an independent set has at most r(E) elements, so no count lies past the rank
        for m in (Matroid.uniform(2, 6), Matroid.graphic(Graph.complete(4))):
            counts = broken_circuit_counts(m)
            assert all(b == 0 for b in counts[m.full_rank + 1 :])

    def test_loops_and_parallel_pairs_match_the_broken_circuit_filter(self):
        # the counts read their broken circuits from the swept minor; a loop
        # breaks to the empty set, so it leaves no subset wherever it stands,
        # and a parallel pair {e, copy} breaks to its earlier element
        base = Matroid.graphic(Graph.complete(4))
        edges = list(base.elements)
        e = edges[2]
        circuits = [set(c) for c in base.circuits]
        parallel = circuits + [(c - {e}) | {"copy"} for c in circuits if e in c] + [{e, "copy"}]
        for at in (0, 3, len(edges)):
            with_loop = edges[:at] + ["loop"] + edges[at:]
            m = Matroid(with_loop, circuits + [{"loop"}])
            _assert_sweeps_match_per_mask_folds(m)
            assert broken_circuit_counts(m) == (0,) * (len(with_loop) + 1)
            m = Matroid(edges[:at] + ["copy"] + edges[at:], parallel)
            _assert_sweeps_match_per_mask_folds(m)
            for loop_at in (0, 4, len(edges) + 1):
                both = m.elements[:loop_at] + ("loop",) + m.elements[loop_at:]
                _assert_sweeps_match_per_mask_folds(Matroid(both, parallel + [{"loop"}]))
        for m in (Matroid([0, 1], [{0, 1}]), Matroid([0, 1, 2], [{1}]), Matroid([0, 1], [{1}])):
            _assert_sweeps_match_per_mask_folds(m)

    def test_large_ground_set_flagged_unvalidated(self):
        m = Matroid.uniform(2, 13)
        assert not m.validated
        assert Matroid.uniform(2, 5).validated


def _brute_rank(matroid, mask):
    """Largest independent submask, by trying every submask."""
    best = 0
    sub = mask
    while True:
        if matroid._is_independent_mask(sub):
            best = max(best, sub.bit_count())
        if sub == 0:
            return best
        sub = (sub - 1) & mask


def test_folded_rank_sums_match_per_subset_ranks():
    rng = random.Random(71)
    corpus = [
        Matroid([], []),
        Matroid([0, 1, 2], [frozenset({0})]),
        Matroid([0, 1, 2, 3], [frozenset({1}), frozenset({0, 2}), frozenset({0, 3}), frozenset({2, 3})]),
        Matroid.uniform(0, 4),
        Matroid.uniform(2, 5),
        Matroid.uniform(3, 7),
        Matroid.uniform(6, 6),
    ]
    while len(corpus) < 20:
        g = random_graph(rng, rng.randint(4, 7), rng.choice((0.5, 0.8)))
        if 4 <= len(g.edges) <= 11:
            corpus.append(Matroid.graphic(g))
    for m in corpus:
        n = len(m.elements)
        re = _brute_rank(m, (1 << n) - 1)
        chi = [0] * (re + 1)
        beta = 0
        for mask in range(1 << n):
            r = _brute_rank(m, mask)
            assert m._rank_mask(mask) == r
            sign = -1 if mask.bit_count() & 1 else 1
            chi[re - r] += sign
            beta += sign * r
        assert characteristic_polynomial(m, "full") == IntPolynomial(chi), m
        assert beta_invariant(m, "full") == (-1) ** re * beta, m


def test_broken_circuit_counts_match_per_subset_counts():
    # the folded counts against a containment filter over every subset,
    # on uniform, graphic and hand-made matroids with loops and parallels
    rng = random.Random(72)
    corpus = [
        Matroid([], []),
        Matroid([0, 1, 2], [frozenset({0})]),
        Matroid([0, 1, 2], [frozenset({2})]),
        Matroid([0, 1, 2, 3], [frozenset({1}), frozenset({0, 2}), frozenset({0, 3}), frozenset({2, 3})]),
        Matroid.uniform(0, 4),
        Matroid.uniform(2, 5),
        Matroid.uniform(3, 7),
        Matroid.uniform(6, 6),
    ]
    while len(corpus) < 20:
        g = random_graph(rng, rng.randint(4, 7), rng.choice((0.5, 0.8)))
        if 4 <= len(g.edges) <= 12:
            corpus.append(Matroid.graphic(g))
    for m in corpus:
        n = len(m.elements)
        broken = [cm ^ (1 << (cm.bit_length() - 1)) for cm in m._circuit_masks]
        counts = [0] * (n + 1)
        for mask in range(1 << n):
            if not any(mask & b == b for b in broken):
                assert m._is_independent_mask(mask)
                counts[mask.bit_count()] += 1
        assert broken_circuit_counts(m) == tuple(counts), m
        assert characteristic_polynomial(m) == characteristic_polynomial(m, "full"), m
        assert beta_invariant(m, "broken_circuit") == beta_invariant(m, "full"), m


def _scan_elimination(elements, circuits):
    """The elimination check scanning every circuit for every (pair, e):
    the error message of the first failing pair, or None."""
    m = Matroid(elements, circuits, validate=False)
    masks = m._circuit_masks
    for ma, mb in itertools.combinations(masks, 2):
        union = ma | mb
        e = ma & mb
        while e:
            bit = e & -e
            target = union & ~bit
            if not any(cm & target == cm for cm in masks):
                return (
                    "circuit elimination fails for "
                    f"{sorted(map(repr, m._unmask(ma)))} and {sorted(map(repr, m._unmask(mb)))}"
                )
            e ^= bit
    return None


def _elimination_error(elements, circuits):
    try:
        m = Matroid(elements, circuits)
    except PreconditionError as exc:
        return str(exc)
    assert m.validated
    return None


def _random_antichain(rng, elements):
    """The minimal sets among a few random nonempty subsets of elements."""
    drawn = [frozenset(rng.sample(elements, rng.randint(1, len(elements)))) for _ in range(rng.randint(1, 10))]
    kept = []
    for s in sorted(set(drawn), key=len):
        if not any(k <= s for k in kept):
            kept.append(s)
    rng.shuffle(kept)
    return kept


def test_elimination_check_matches_per_pair_scan():
    rng = random.Random(73)
    families = []
    for base in (Matroid.uniform(2, 4), Matroid.graphic(Graph.complete(4))):
        families.append((base.elements, base.circuits))
        for dropped in base.circuits:
            families.append((base.elements, [c for c in base.circuits if c != dropped]))
    # U(1,3) beside a theta graph missing one of its triangles: only the
    # last pair of circuits fails
    only_last = [{0, 1}, {0, 2}, {1, 2}, {3, 4, 7}, {3, 4, 5, 6}]
    families.append((range(8), only_last))
    while len(families) < 300:
        n = rng.randint(1, 8)
        if rng.random() < 0.2:
            g = random_graph(rng, rng.randint(3, 6), 0.6)
            if 1 <= len(g.edges) <= 8:
                m = Matroid.graphic(g)
                families.append((m.elements, m.circuits))
            continue
        elements = list(range(n)) if rng.random() < 0.5 else [f"e{i}" for i in rng.sample(range(n), n)]
        families.append((elements, _random_antichain(rng, elements)))
    verdicts = set()
    for elements, circuits in families:
        expected = _scan_elimination(elements, circuits)
        assert _elimination_error(elements, circuits) == expected, (elements, circuits)
        verdicts.add(expected is None)
    assert verdicts == {True, False}
    assert _elimination_error(range(8), only_last) == (
        "circuit elimination fails for ['3', '4', '7'] and ['3', '4', '5', '6']"
    )


def test_uniform_5_12_is_validated():
    m = Matroid.uniform(5, 12)
    assert m.validated
    # chi(U(r,n), x) = sum_{k<r} (-1)^k C(n,k) x^{r-k} + (-1)^r C(n-1, r-1)
    r, n = 5, 12
    coeffs = [0] * (r + 1)
    for k in range(r):
        coeffs[r - k] = (-1) ** k * comb(n, k)
    coeffs[0] = (-1) ** r * comb(n - 1, r - 1)
    assert characteristic_polynomial(m, "broken_circuit") == IntPolynomial(coeffs)


PETERSEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
                  (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]


def _assert_sweep_matches_fold(m):
    # the swept rank histogram against the signed fold of the greedy ranks
    # computed per subset; the sweep drops zero counts
    fold = {}
    for mask in range(1 << len(m.elements)):
        r = m._rank_mask(mask)
        fold[r] = fold.get(r, 0) + (-1 if mask.bit_count() & 1 else 1)
    assert _minor_sweep(m) == {r: c for r, c in fold.items() if c}, m
    assert characteristic_polynomial(m, "full") == characteristic_polynomial(m, "broken_circuit"), m
    assert beta_invariant(m, "full") == beta_invariant(m, "broken_circuit"), m


def test_rank_sweep_matches_the_subset_fold():
    for m in (Matroid.graphic(Graph(range(10), PETERSEN_EDGES)), Matroid.uniform(4, 10), Matroid([], [])):
        _assert_sweep_matches_fold(m)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1]),
                max_size=12, unique_by=frozenset))
def test_rank_sweep_matches_the_subset_fold_on_graphic_matroids(edges):
    _assert_sweep_matches_fold(Matroid.graphic(Graph(range(7), edges)))


def test_minor_sweeps_step_once_per_distinct_minor(monkeypatch):
    # a sweep keyed by greedy basis or by subset steps once per independent
    # set (22,501 rank steps on Petersen's cycle matroid, 511 on U(4,10));
    # the minor sweep steps once per distinct minor and level, and the counts
    # step through the same minors, which die once they hold a broken circuit
    import brokencircuits.matroids as mod

    fold = mod._image_fold
    calls = []

    def counting(n, start, include, *rest):
        def counted(i, state):
            calls.append(i)
            return include(i, state)

        return fold(n, start, counted, *rest)

    monkeypatch.setattr(mod, "_image_fold", counting)
    petersen = Matroid.graphic(Graph(range(10), PETERSEN_EDGES))
    for m, rank_steps, nbc_steps in ((petersen, 660, 660), (Matroid.uniform(4, 10), 40, 40)):
        calls.clear()
        _minor_sweep(m)
        assert len(calls) == rank_steps
        calls.clear()
        broken_circuit_counts(m)
        assert len(calls) == nbc_steps


def _assert_sweeps_match_per_mask_folds(m):
    # the rank sweep against the signed fold of the greedy rank of every
    # mask, and the counts against a broken-circuit filter over every mask
    # that reads only the circuits and the ground order
    n = len(m.elements)
    pos = {e: i for i, e in enumerate(m.elements)}
    broken = [m._mask(c - {max(c, key=pos.get)}) for c in m.circuits]
    ranks, counts = {}, [0] * (n + 1)
    for mask in range(1 << n):
        r = m._rank_mask(mask)
        ranks[r] = ranks.get(r, 0) + (-1 if mask.bit_count() & 1 else 1)
        if not any(mask & b == b for b in broken):
            counts[mask.bit_count()] += 1
    assert _minor_sweep(m) == {r: c for r, c in ranks.items() if c}, m
    assert broken_circuit_counts(m) == tuple(counts), m


def _direct_sum(rng, parts):
    """The direct sum of parts, labels "k:e", in a shuffled ground order."""
    elements = [f"{k}:{e}" for k, part in enumerate(parts) for e in part.elements]
    circuits = [{f"{k}:{e}" for e in c} for k, part in enumerate(parts) for c in part.circuits]
    return Matroid(rng.sample(elements, len(elements)), circuits)


def _with_loop_and_parallel(rng, m):
    """m with a new loop and a parallel copy of one element, both placed at random in the order."""
    e = rng.choice(m.elements)
    circuits = [set(c) for c in m.circuits]
    circuits += [(c - {e}) | {"copy"} for c in circuits if e in c] + [{"loop"}]
    if {e} not in circuits:
        circuits.append({e, "copy"})
    elements = list(m.elements)
    for label in ("copy", "loop"):
        elements.insert(rng.randint(0, len(elements)), label)
    return Matroid(elements, circuits)


def test_minor_sweeps_match_per_mask_folds():
    rng = random.Random(81)
    corpus = [Matroid.uniform(r, n) for n in range(10) for r in range(n + 1)]
    while len(corpus) < 95:
        g = random_graph(rng, rng.randint(3, 7), rng.choice((0.5, 0.8)))
        if 1 <= len(g.edges) <= 12:
            corpus.append(Matroid.graphic(Graph(g.vertices, rng.sample(g.edges, len(g.edges)))))
    for _ in range(15):
        parts = []
        while sum(len(part.elements) for part in parts) < 6:
            n = rng.randint(1, 5)
            parts.append(Matroid.uniform(rng.randint(0, n), n))
        corpus.append(_direct_sum(rng, parts))
    for base in corpus[:: len(corpus) // 15]:
        if 1 <= len(base.elements) <= 9:
            corpus.append(_with_loop_and_parallel(rng, base))
    for m in corpus:
        assert m.validated
        _assert_sweeps_match_per_mask_folds(m)


def _scan_antichain(circuits):
    """The antichain check over every pair of distinct circuits: the error message of the first comparable pair, or None."""
    distinct = list(dict.fromkeys(frozenset(c) for c in circuits))
    for a, b in itertools.combinations(distinct, 2):
        if a <= b or b <= a:
            return f"circuits are not an antichain: {sorted(map(repr, a))} and {sorted(map(repr, b))}"
    return None


def _antichain_error(elements, circuits):
    try:
        Matroid(elements, circuits, validate=False)
    except PreconditionError as exc:
        return str(exc)
    return None


def test_antichain_check_matches_all_pairs_scan():
    rng = random.Random(74)
    families = [(range(6), Matroid.uniform(3, 6).circuits), (range(3), [{0, 1}, {0, 1, 2}])]
    while len(families) < 400:
        n = rng.randint(1, 8)
        elements = list(range(n))
        kind = rng.randrange(3)
        if kind == 0:
            family = [set(rng.sample(elements, rng.randint(1, n))) for _ in range(rng.randint(1, 10))]
        else:
            family = _random_antichain(rng, elements)
            if kind == 2:
                # inject a proper subset or superset of a member
                c = rng.choice(family)
                rest = [e for e in elements if e not in c]
                if len(c) > 1 and (not rest or rng.random() < 0.5):
                    injected = set(rng.sample(sorted(c), rng.randint(1, len(c) - 1)))
                elif rest:
                    injected = c | set(rng.sample(rest, rng.randint(1, len(rest))))
                else:
                    continue
                family.insert(rng.randint(0, len(family)), injected)
        families.append((elements, family))
    verdicts = set()
    for elements, family in families:
        expected = _scan_antichain(family)
        assert _antichain_error(elements, family) == expected, family
        verdicts.add(expected is None)
    assert verdicts == {True, False}