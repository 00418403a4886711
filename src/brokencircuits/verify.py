"""Property-check corpus behind the `verify` subcommand.

Each check pits an engine against an independent oracle or a second
route to the same value, on generated or named instances.  Checks are
deterministic for a given seed, and report pass, fail with a witness, or
skip when a cap rules an instance out.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import algebra, core, geometry, graphs, hypergraphs, lattices, matroids, numbers, oracles
from .errors import CapExceeded


class CheckResult(core._Record):
    def __init__(self, name: str, status: str, witness: str | None, seconds: float):
        # status is pass, fail or skip
        self._set(name=name, status=status, witness=witness, seconds=seconds)


def _named_graphs():
    g = graphs.Graph
    return {
        "k3": g.complete(3),
        "k4": g.complete(4),
        "k5": g.complete(5),
        "p3": g.path(3),
        "p4": g.path(4),
        "p5": g.path(5),
        "c4": g.cycle(4),
        "c5": g.cycle(5),
        "c6": g.cycle(6),
        "star3": g.star(3),
        "k23": g.complete_bipartite(2, 3),
        "k33": g.complete_bipartite(3, 3),
        "k4_minus": g(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
        "bull": g(range(5), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
        "bowtie": g(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
        "paw": g(range(4), [(0, 1), (0, 2), (1, 2), (2, 3)]),
    }


def check_group_axioms(rng):
    candidates = [
        (lambda: rng.randint(-50, 50), 0),
        (
            lambda: algebra.IntPolynomial([rng.randint(-5, 5) for _ in range(4)]),
            algebra.IntPolynomial.zero(),
        ),
        (
            lambda: algebra.BiPolynomial(
                {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5) for _ in range(3)}
            ),
            algebra.BiPolynomial.zero(),
        ),
    ]
    for make, zero in candidates:
        for _ in range(40):
            a, b, c = make(), make(), make()
            if (a + b) + c != a + (b + c):
                return f"associativity failed for {a!r}, {b!r}, {c!r}"
            if a + b != b + a:
                return f"commutativity failed for {a!r}, {b!r}"
            if a + (-a) != zero or a + zero != a:
                return f"inverse or neutrality failed for {a!r}"
    return None


def check_eval_homomorphism(rng):
    for _ in range(60):
        p = algebra.IntPolynomial([rng.randint(-9, 9) for _ in range(5)])
        q = algebra.IntPolynomial([rng.randint(-9, 9) for _ in range(3)])
        t = rng.randint(-10, 10)
        if (p + q).evaluate(t) != p.evaluate(t) + q.evaluate(t):
            return f"(p+q)({t}) mismatch for {p!r}, {q!r}"
    return None


def check_poly_roundtrip(rng):
    for _ in range(20):
        p = algebra.IntPolynomial([rng.randint(-99, 99) for _ in range(rng.randint(0, 6))])
        if algebra.IntPolynomial.from_json(p.to_json()) != p:
            return f"roundtrip failed for {p!r}"
        q = algebra.BiPolynomial(
            {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-99, 99) for _ in range(4)}
        )
        if algebra.BiPolynomial.from_json(q.to_json()) != q:
            return f"roundtrip failed for {q!r}"
    return None


def check_theorem_reduction(rng):
    for trial in range(40):
        ground, family, f = core.random_cancelling_instance(
            rng, rng.randint(4, 9), "poly" if trial % 5 == 0 else "int"
        )
        report = core.verify_cancellation(f, family, ground)
        if not report.ok:
            return f"generated instance fails cancellation at {report.superset}"
        broken = [bc.subset for bc in core.derive_broken_circuits(family, ground)]
        full = core.sum_full(f, ground)
        for chosen in (broken, broken[:1], []):
            if core.sum_pruned(f, ground, chosen) != full:
                return f"pruned sum differs on trial {trial} with {len(chosen)} broken sets"
    return None


def check_pruning_monotone(rng):
    for _ in range(20):
        n = rng.randint(3, 8)
        ground = core.OrderedGroundSet(range(n))
        all_sets = [frozenset(rng.sample(range(n), rng.randint(1, 3))) for _ in range(4)]
        b1 = all_sets[:2]
        counts_union = core.enumerate_avoiding(ground, all_sets)
        counts_b1 = core.enumerate_avoiding(ground, b1)
        if any(u > v for u, v in zip(counts_union, counts_b1)):
            return f"avoiding counts increased when adding broken sets (n={n})"
    return None


def check_maxmin(rng):
    for _ in range(60):
        n = rng.randint(1, 8)
        values = [rng.randint(-20, 20) for _ in range(n)]
        k = rng.randint(1, n)
        lhs, rhs = core.maxmin_identity(values, k)
        if lhs != rhs:
            return f"maxmin mismatch for {values}, k={k}"
        sh = list(values)
        rng.shuffle(sh)
        if core.maxmin_identity(sh, k)[0] != lhs:
            return "maxmin depends on the input permutation"
    return None


def check_restricted_union(rng):
    for _ in range(25):
        n = rng.randint(2, 6)
        atoms = range(rng.randint(1, 8))
        sets = {i: frozenset(a for a in atoms if rng.random() < 0.5) for i in range(n)}
        family = core.IndexedSetFamily(range(n), sets)
        broken = []
        witnesses = {}
        for c in range(1, n):
            smaller = [i for i in range(c) if sets[i]]
            if len(smaller) >= 2 and rng.random() < 0.5:
                b = frozenset(rng.sample(smaller, 2))
                if family.intersection(b) <= sets[c]:
                    broken.append(b)
                    witnesses[b] = c
        got = core.restricted_union_size(family, broken, witnesses)
        want = oracles.oracle_union_size(sets.values())
        if got != want:
            return f"union size {got} != {want}"
    return None


def check_narushima(rng):
    built = 0
    while built < 15:
        n = rng.randint(2, 5)
        covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        covers += [(i, n) for i in range(n)]
        poset = core.FinitePoset.from_covers(range(n + 1), covers)
        if poset.semilattice_violation() is not None:
            continue
        built += 1
        atoms = range(rng.randint(1, 6))
        sets = {}
        for e in poset.linear_extension():
            base = frozenset(a for a in atoms if rng.random() < 0.4)
            for i, s in enumerate(poset.elements):
                for t in poset.elements[i + 1 :]:
                    if poset.join(s, t) == e and s in sets and t in sets:
                        base |= sets[s] & sets[t]
            sets[e] = base
        family = core.IndexedSetFamily(poset.elements, sets)
        got = core.narushima_union(poset, family)
        want = oracles.oracle_union_size(sets.values())
        if got != want:
            return f"chain union size {got} != {want}"
    return None


def check_poset_maxima(rng):
    divs = [d for d in numbers.divisors(30) if d not in (1, 30)]
    poset = core.FinitePoset(divs, [(a, b) for a in divs for b in divs if b % a == 0])
    f = core.SetFunction(
        lambda s: 0 if numbers.gcd_all(s) != 1 else (-1 if len(s) & 1 else 1),
        0,
        "gcd-indicator",
    )
    res = core.sum_over_maxima(f, poset)
    if res.restricted != -1 or res.full != -1:
        return f"divisor-30 maxima reduction gave {res.restricted}, {res.full}"
    return None


def check_semilattice_chains(rng):
    built = 0
    while built < 10:
        n = rng.randint(2, 5)
        covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        covers += [(i, n) for i in range(n)]
        poset = core.FinitePoset.from_covers(range(n + 1), covers)
        if poset.semilattice_violation() is not None:
            continue
        built += 1
        ground = core.OrderedGroundSet(poset.linear_extension())
        weights = {}

        def close(subset):
            out = set(subset)
            changed = True
            while changed:
                changed = False
                items = sorted(out, key=ground.position)
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
                weights[h] = rng.randint(-5, 5)
            table[subset] = (-1 if len(subset) & 1 else 1) * weights[h]
        f = core.TableSetFunction(ground, table, 0, "join-closure")
        chain_sum = core.sum_over_chains(f, poset)
        full = core.sum_full(f, ground)
        if chain_sum != full:
            return f"chain sum {chain_sum} != full {full}"
    return None


def check_geometry_axioms(rng):
    for _ in range(20):
        cg = geometry.random_geometry(rng, 7)
        system = cg.system
        n = len(system.ground)
        for mask in range(1 << n):
            a = system.ground.subset_of(mask)
            h = system.hull(a)
            if not a <= h:
                return f"hull not extensive at {sorted(map(repr, a))}"
            if system.hull(h) != h:
                return f"hull not idempotent at {sorted(map(repr, a))}"
        for _ in range(30):
            m1 = rng.randrange(1 << n)
            m2 = m1 | rng.randrange(1 << n)
            if not system.hull(system.ground.subset_of(m1)) <= system.hull(
                system.ground.subset_of(m2)
            ):
                return "hull not monotone"
    return None


def check_geometry_reduction(rng):
    for _ in range(20):
        cg = geometry.random_geometry(rng, 7)
        system = cg.system
        gamma = {cm: rng.randint(-5, 5) for cm in system._masks}
        table = [0] * (1 << len(system.ground))
        for mask in range(1 << len(system.ground)):
            h = system.hull_mask(mask)
            table[mask] = (-1 if mask.bit_count() & 1 else 1) * gamma[h]
        f = core.TableSetFunction(system.ground, table, 0, "signed-hull-weight")
        full, free = geometry.reduce_to_free_sets(f, cg)
        if full != free:
            return "free-set reduction mismatch"
        geometry.count_free_signed(cg)
        geometry.euler_characteristic_free(cg)
    return None


def check_hstar_bridge(rng):
    for name in ("k3", "c4", "k4", "bowtie"):
        g = _named_graphs()[name]
        family = core.CircuitFamily(graphs.cycles_edge_sets(g))
        ground = graphs.edge_ground(g)
        cg = geometry.closure_from_circuits(ground, family)
        broken = [bc.subset for bc in core.derive_broken_circuits(family, ground)]
        avoiding = set(core.iter_avoiding_masks(ground, broken))
        if cg.free_mask_set() != avoiding:
            return f"bridge mismatch on {name}"
    return None


def check_chromatic(rng):
    for name, g in _named_graphs().items():
        if len(g.edges) > 12:
            continue
        full = graphs.chromatic_polynomial(g, "full")
        pruned = graphs.chromatic_polynomial(g, "broken_circuit")
        if full != pruned:
            return f"chromatic methods disagree on {name}"
        counts = graphs.whitney_edge_counts(g)
        n = len(g.vertices)
        for k, b in enumerate(counts):
            want = (-1 if k & 1 else 1) * b if k <= n else 0
            if k <= n and full.coefficient(n - k) != want:
                return f"coefficient law fails on {name} at k={k}"
        for x in (1, 2, 3):
            if full.evaluate(x) != oracles.oracle_colourings(g, x):
                return f"colouring count mismatch on {name} at x={x}"
    return None


def check_scp(rng):
    for name, g in _named_graphs().items():
        if not graphs.is_cyclically_claw_free(g):
            continue
        q = graphs.subgraph_component_polynomial(g)
        direct = graphs.q_at_minus_one(g, "direct")
        if q.substitute_x(-1) != direct:
            return f"direct substitution mismatch on {name}"
        if graphs.q_at_minus_one(g, "restricted") != direct:
            return f"restricted method differs on {name}"
        if graphs.q_at_minus_one(g, "acyclic") != direct:
            return f"acyclic method differs on {name}"
    return None


def check_domination(rng):
    for name, g in _named_graphs().items():
        direct = graphs.domination_polynomial(g, "direct")
        alt = graphs.domination_polynomial(g, "alternating")
        if direct != alt:
            return f"alternating domination sum differs on {name}"
        counts = oracles.oracle_dominating(g)
        if list(direct.coeffs) + [0] * (len(counts) - len(direct.coeffs)) != list(counts):
            return f"domination oracle mismatch on {name}"
        if all(g.degree(v) > 0 for v in g.vertices):
            if graphs.domination_polynomial(g, "pruned") != direct:
                return f"pruned domination sum differs on {name}"
    return None


def check_neighbourhood_absorption(rng):
    for name in ("p4", "c4", "k4", "bull", "paw"):
        g = _named_graphs()[name]
        vertices = list(g.vertices)
        for v in vertices:
            nv = g.closed_neighborhood(v)
            rest = [w for w in vertices if w not in nv]
            for r in range(len(rest) + 1):
                for extra in itertools.combinations(rest, r):
                    a = nv | frozenset(extra)
                    if g.closed_neighborhood(a - {v}) != g.closed_neighborhood(a):
                        return f"absorption fails on {name} at {v!r}"
    return None


def check_degree1_upset(rng):
    for name in ("p3", "p4", "star3", "paw"):
        g = _named_graphs()[name]
        reordered, pendants = graphs.degree1_upset_order(g)
        direct = graphs.domination_polynomial(reordered, "direct")
        pruned = graphs.domination_polynomial(reordered, "pruned", broken=pendants)
        if direct != pruned:
            return f"pendant-pruned domination differs on {name}"
    return None


def check_hypergraph(rng):
    hg = hypergraphs.Hypergraph("abc", [frozenset("abc")])
    if hypergraphs.hypergraph_chromatic(hg, "full") != algebra.IntPolynomial((0, -1, 0, 1)):
        return "single 3-edge chromatic polynomial wrong"
    if hypergraphs.hypergraph_chromatic(hg, "full").evaluate(2) != oracles.oracle_hyper_colourings(hg, 2):
        return "single 3-edge colouring count wrong"
    grid, family = hypergraphs.grid_rectangle_hypergraph(2, 3)
    full = hypergraphs.hypergraph_chromatic(grid, "full")
    restricted = hypergraphs.hypergraph_chromatic(grid, "restricted", family)
    if full != restricted:
        return "grid 2x3 restricted sum differs"
    for x in (2, 3):
        if full.evaluate(x) != oracles.oracle_hyper_colourings(grid, x):
            return f"grid colouring count mismatch at x={x}"
    return None


def check_tight_cycles(rng):
    vertices = range(5)
    edges = [frozenset(c) for c in itertools.combinations(vertices, 3)]
    hg = hypergraphs.Hypergraph(vertices, edges)
    fam = hypergraphs.tight_cycles(hg, 2)
    if not len(fam):
        return "no tight cycles found in the complete 3-uniform hypergraph on 5 vertices"
    if not hypergraphs.is_self_covering_family(fam, hg):
        return "tight cycles fail the self-covering condition"
    return None


def check_matroids(rng):
    cases = [matroids.Matroid.uniform(r, n) for n in range(1, 7) for r in range(n + 1)]
    cases.append(matroids.Matroid.graphic(_named_graphs()["k4"]))
    cases.append(matroids.Matroid(range(3), [frozenset({0})]))
    for m in cases:
        full = matroids.characteristic_polynomial(m, "full")
        pruned = matroids.characteristic_polynomial(m, "broken_circuit")
        if full != pruned:
            return f"characteristic methods disagree on {m!r}"
        betas = {
            method: matroids.beta_invariant(m, method)
            for method in ("full", "broken_circuit", "derivative")
        }
        if len(set(betas.values())) != 1:
            return f"beta methods disagree on {m!r}: {betas}"
    return None


def check_rank_circuit_invariance(rng):
    for m in (matroids.Matroid.uniform(2, 4), matroids.Matroid.graphic(_named_graphs()["k4"])):
        ground = core.OrderedGroundSet(m.elements)
        full = (1 << len(m.elements)) - 1
        for c in m.circuits:
            cmask = m._mask(c)
            top = 1 << (cmask.bit_length() - 1)
            free = full & ~cmask
            sub = free
            while True:
                a = cmask | sub
                if m._rank_mask(a) != m._rank_mask(a & ~top):
                    return f"rank changes when removing the circuit maximum in {m!r}"
                if sub == 0:
                    break
                sub = (sub - 1) & free
    return None


def check_lattices(rng):
    corpus = [
        lattices.boolean_lattice(2),
        lattices.boolean_lattice(3),
        lattices.divisor_lattice(12),
        lattices.partition_lattice(3),
    ]
    for lat in corpus:
        mu = lattices.mobius(lat)
        if mu != oracles.oracle_mobius(lat):
            return f"mobius mismatch on {lat!r}"
        for cut in lattices.all_crosscuts(lat):
            lattices.rota_crosscut(lat, lattices.Crosscut(lat, cut))
            for _ in range(3):
                order = _random_precedence(rng, cut)
                cc = lattices.Crosscut(lat, cut, order)
                fam = lattices.blass_sagan_family(lat, cc)
                lattices.blass_sagan_mobius(lat, cc)
                if fam:
                    sub = [bs.subset for bs in fam if rng.random() < 0.5]
                    lattices.blass_sagan_mobius(lat, cc, subfamily=sub)
    # Pi6: too many middle elements for all_crosscuts, too large families for Blass-Sagan
    pi6 = lattices.partition_lattice(6)
    for cut in (pi6.atoms(), pi6.coatoms()):
        if lattices.rota_crosscut(pi6, cut) != -120:
            return f"Rota's crosscut sum on {len(cut)} elements of Pi6 is not -120"
    return None


def _random_precedence(rng, elements):
    order = list(elements)
    rng.shuffle(order)
    pairs = []
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if rng.random() < 0.4:
                pairs.append((order[i], order[j]))
    return pairs


def check_atoms_footnote(rng):
    for lat in (lattices.boolean_lattice(3), lattices.partition_lattice(3),
                lattices.divisor_lattice(30)):
        atoms = lat.atoms()
        cc = lattices.Crosscut(lat, atoms, _random_precedence(rng, atoms))
        a = lattices.blass_sagan_mobius(lat, cc)
        b = lattices.blass_sagan_mobius(lat, cc, drop_meet_condition=True)
        if a != b:
            return f"atom-crosscut meet condition changed the value on {lat!r}"
    return None


def check_arithmetic(rng):
    for n in range(2, 61):
        if len(numbers.prime_factors(n)) == 1 and n in numbers.prime_factors(n):
            continue
        if numbers.gcd_expansion(n, "gcd") != numbers.classical_mobius(n):
            return f"gcd expansion wrong at {n}"
        if numbers.gcd_expansion(n, "lcm") != numbers.classical_mobius(n):
            return f"lcm expansion wrong at {n}"
    ident = numbers.MultiplicativeFunction.identity()
    for n in range(1, 101):
        if numbers.totient(n, ident) != _euler_phi_direct(n):
            return f"totient wrong at {n}"
        numbers.dirichlet_inverse_totient(n, ident)
    inv = [numbers.dirichlet_inverse_totient(n, ident) for n in range(1, 13)]
    if inv != [1, -1, -2, -1, -4, 2, -6, -1, -2, 4, -10, 2]:
        return f"Dirichlet inverse sequence wrong: {inv}"
    return None


def _euler_phi_direct(n):
    import math as _math

    return Fraction(sum(1 for k in range(1, n + 1) if _math.gcd(k, n) == 1))


def check_complexes(rng):
    for n in (4, 8, 9, 12, 16, 18, 36, 100):
        sx = numbers.divisor_complex(n, "gcd")
        tx = numbers.divisor_complex(n, "lcm")
        if sx.euler_characteristic() != 1 or tx.euler_characteristic() != 1:
            return f"Euler characteristic differs from 1 at {n}"
        if not numbers.complement_isomorphic(n):
            return f"complement map is not an isomorphism at {n}"
        if not numbers.bonferroni_all(sx) or not numbers.bonferroni_all(tx):
            return f"truncation inequality fails at {n}"
    return None


def check_chain_sums(rng):
    for n in (12, 30, 36, 60, 180, 5040, 720720):
        for d, s in numbers.chain_gcd_inner_sums(n).items():
            if s != -numbers.classical_mobius(n // d):
                return f"gcd chain inner sum wrong at n={n}, d={d}"
        for d, s in numbers.chain_lcm_inner_sums(n).items():
            if s != numbers.classical_mobius(d):
                return f"lcm chain inner sum wrong at n={n}, d={d}"
    return None


def check_zeta(rng):
    import math as _math

    values = [numbers.zeta_reciprocal(2, b) for b in (10, 100, 1000)]
    if not all(a >= b for a, b in zip(values, values[1:])):
        return "partial product is not decreasing"
    if not all(v >= 6 / _math.pi**2 for v in values):
        return "partial product fell below 6/pi^2"
    return None


def check_roundtrip(rng):
    from . import io

    g = graphs.random_graph(rng, 5, 0.5)
    obj = io.graph_to_obj(g, seed=1)
    if io.canonical_json(io.graph_to_obj(io.parse_graph(obj))) != io.canonical_json(
        io.graph_to_obj(g)
    ):
        return "graph roundtrip not canonical"
    lat = lattices.boolean_lattice(2)
    obj = io.lattice_to_obj(lat)
    if io.canonical_json(io.lattice_to_obj(io.parse_lattice(obj))) != io.canonical_json(obj):
        return "lattice roundtrip not canonical"
    return None


SUITES = {
    "algebra": [
        ("algebra/group-axioms", check_group_axioms),
        ("algebra/eval-homomorphism", check_eval_homomorphism),
        ("algebra/json-roundtrip", check_poly_roundtrip),
    ],
    "whitney-core": [
        ("whitney-core/theorem-reduction", check_theorem_reduction),
        ("whitney-core/pruning-monotone", check_pruning_monotone),
        ("whitney-core/maxmin-identity", check_maxmin),
        ("whitney-core/restricted-union", check_restricted_union),
        ("whitney-core/narushima-union", check_narushima),
        ("whitney-core/poset-maxima", check_poset_maxima),
        ("whitney-core/semilattice-chains", check_semilattice_chains),
    ],
    "convex-geometry": [
        ("convex-geometry/hull-axioms", check_geometry_axioms),
        ("convex-geometry/free-reduction", check_geometry_reduction),
        ("convex-geometry/hstar-bridge", check_hstar_bridge),
    ],
    "graph-polynomials": [
        ("graph-polynomials/chromatic", check_chromatic),
        ("graph-polynomials/subgraph-components", check_scp),
        ("graph-polynomials/domination", check_domination),
        ("graph-polynomials/neighbourhood-absorption", check_neighbourhood_absorption),
        ("graph-polynomials/degree1-upset", check_degree1_upset),
    ],
    "hypergraph-polynomials": [
        ("hypergraph-polynomials/chromatic", check_hypergraph),
        ("hypergraph-polynomials/tight-cycles", check_tight_cycles),
    ],
    "matroid": [
        ("matroid/char-and-beta", check_matroids),
        ("matroid/rank-invariance", check_rank_circuit_invariance),
    ],
    "lattice": [
        ("lattice/crosscut-reductions", check_lattices),
        ("lattice/atoms-footnote", check_atoms_footnote),
    ],
    "number-theory": [
        ("number-theory/expansions", check_arithmetic),
        ("number-theory/complexes", check_complexes),
        ("number-theory/chain-sums", check_chain_sums),
        ("number-theory/zeta", check_zeta),
    ],
    "cli": [
        ("cli/roundtrip", check_roundtrip),
    ],
}


def run_suite(suite="all", seed=0):
    if suite == "all":
        names = sorted(SUITES)
    else:
        if suite not in SUITES:
            raise KeyError(suite)
        names = [suite]
    results = []
    for name in names:
        for check_name, fn in SUITES[name]:
            rng = random.Random(f"{seed}:{check_name}")
            start = time.perf_counter()
            try:
                witness = fn(rng)
                status = "pass" if witness is None else "fail"
            except CapExceeded as exc:
                witness, status = str(exc), "skip"
            except Exception as exc:  # noqa: BLE001 - report, do not crash the harness
                witness, status = f"{type(exc).__name__}: {exc}", "fail"
            results.append(
                CheckResult(check_name, status, witness, time.perf_counter() - start)
            )
    results.sort(key=lambda r: r.name)
    return results
