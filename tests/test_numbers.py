import gc
import itertools
import math
import random
import types
from fractions import Fraction

import pytest

from brokencircuits import numbers
from brokencircuits.errors import CapExceeded, CrossCheckFailed, PreconditionError
from brokencircuits.numbers import (
    AbstractComplex,
    MultiplicativeFunction,
    bonferroni_all,
    bonferroni_check,
    chain_gcd_inner_sums,
    chain_lcm_inner_sums,
    classical_mobius,
    complement_isomorphic,
    dirichlet_inverse_totient,
    divisor_complex,
    divisors,
    gcd_all,
    gcd_expansion,
    inverse_subset_sum,
    is_squarefree,
    lcm_all,
    primes_upto,
    primorial,
    totient,
    totient_subset_sum,
    zeta_reciprocal,
)


def phi_direct(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestClassicalMobius:
    def test_values(self):
        assert classical_mobius(30) == -1
        assert classical_mobius(12) == 0
        assert classical_mobius(1) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            classical_mobius(0)


class TestGcdExpansion:
    def test_30_gcd_variant(self):
        assert gcd_expansion(30, "gcd") == -1

    def test_12_lcm_variant(self):
        assert gcd_expansion(12, "lcm") == 0

    def test_4_modified_domain(self):
        assert gcd_expansion(4, "gcd", modified_domain=True) == 0

    def test_prime_needs_modified_domain(self):
        with pytest.raises(PreconditionError):
            gcd_expansion(7, "gcd")
        assert gcd_expansion(7, "gcd", modified_domain=True) == -1
        assert gcd_expansion(7, "lcm", modified_domain=True) == -1

    def test_gcd_variant_needs_n_at_least_2(self):
        with pytest.raises(PreconditionError):
            gcd_expansion(1, "gcd")

    def test_lcm_variant_at_1(self):
        assert gcd_expansion(1, "lcm") == 1

    def test_nonprimes_up_to_sixty(self):
        for n in range(2, 61):
            if len(divisors(n)) == 2:
                continue
            assert gcd_expansion(n, "gcd") == classical_mobius(n), n
            assert gcd_expansion(n, "lcm") == classical_mobius(n), n


class TestTotient:
    def test_identity_small(self):
        assert totient(12) == 4
        assert totient(30) == 8
        assert totient(1) == 1

    def test_direct_count_matches(self):
        for n in range(1, 120):
            assert totient(n) == phi_direct(n), n

    def test_divisor_sum_route(self):
        assert totient(30, method="divisor_sum") == 8

    def test_subset_route(self):
        assert totient(30, method="subset_sum") == 8
        assert totient(12, method="subset_sum") == 4

    def test_prime_subset_route_needs_flag(self):
        with pytest.raises(PreconditionError):
            totient(7, method="subset_sum")
        assert totient(7, method="subset_sum", modified_domain=True) == 6

    def test_square_exponent_function(self):
        h = MultiplicativeFunction.power(2)
        for n in (2, 6, 10, 12, 36, 100):
            expected = Fraction(n**2)
            for p in {p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)}:
                expected *= 1 - Fraction(1, p**2)
            assert totient(n, h) == expected, n

    def test_non_squarefree_needs_complete_multiplicativity(self):
        h = MultiplicativeFunction(
            lambda n: Fraction(1) if n == 1 else Fraction(2) ** len(_prime_set(n)),
            "two-powers",
        )
        assert totient(6, h) is not None  # squarefree fine
        with pytest.raises(PreconditionError):
            totient(12, h)

    def test_restricted_subset_sum_unchanged(self):
        # non-squarefree n, completely multiplicative h: gcd > 1 only
        for n in (12, 18, 36, 100):
            full = totient_subset_sum(n)
            restricted = totient_subset_sum(n, restrict=True)
            assert full == restricted, n


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))


def _prime_set(n):
    return {p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)}


class TestPastTheSubsetCap:
    """n = 720720 has d(n) = 240 divisors: the subset routes sweep the gcd
    and lcm values instead of the 2^238 subsets."""

    def test_values_at_720720(self):
        assert totient(720720) == 138240
        assert totient(720720, method="subset_sum") == 138240
        assert dirichlet_inverse_totient(720720) == 5760
        assert dirichlet_inverse_totient(720720, method="subset_sum") == 5760
        assert gcd_expansion(720720, "gcd") == 0
        assert gcd_expansion(720720, "lcm") == 0

    def test_method_all_runs_the_subset_route(self, monkeypatch):

        ran = []
        for name in ("totient_subset_sum", "inverse_subset_sum"):
            route = getattr(numbers, name)
            monkeypatch.setattr(
                numbers, name, lambda *a, route=route, name=name, **k: ran.append(name) or route(*a, **k)
            )
        assert totient(720720, method="all") == 138240
        assert dirichlet_inverse_totient(720720, method="all") == 5760
        assert ran == ["totient_subset_sum", "inverse_subset_sum"]

    def test_divisor_complex_keeps_its_cap(self):
        with pytest.raises(CapExceeded):
            divisor_complex(720720)


class TestDirichletInverse:
    def test_small_values(self):
        assert dirichlet_inverse_totient(6) == 2
        assert dirichlet_inverse_totient(1) == 1
        assert dirichlet_inverse_totient(4) == -1

    def test_known_sequence(self):
        got = [int(dirichlet_inverse_totient(n)) for n in range(1, 13)]
        assert got == [1, -1, -2, -1, -4, 2, -6, -1, -2, 4, -10, 2]

    def test_prime_needs_flag_for_subset(self):
        with pytest.raises(PreconditionError):
            dirichlet_inverse_totient(5, method="subset_sum")
        assert dirichlet_inverse_totient(5, method="subset_sum", modified_domain=True) == -4

    def test_restricted_subset_sum_unchanged(self):
        for n in (12, 18, 36, 100):
            assert inverse_subset_sum(n) == inverse_subset_sum(n, restrict=True), n

    def test_methods_agree_with_square_h(self):
        h = MultiplicativeFunction.power(2)
        for n in range(1, 80):
            dirichlet_inverse_totient(n, h)  # raises internally on mismatch


class TestZeta:
    def test_partial_product_value(self):
        value = zeta_reciprocal(2, 13)
        assert abs(value - 0.6180959)/1 < 1e-4

    def test_single_factor(self):
        assert zeta_reciprocal(2, 2) == 0.75

    def test_monotone_to_limit(self):
        target = 6 / math.pi**2
        values = [zeta_reciprocal(2, b) for b in (10, 100, 1000, 10000)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= target for v in values)
        assert abs(values[-1] - target) < 5e-5

    def test_rejects_bad_arguments(self):
        with pytest.raises(PreconditionError):
            zeta_reciprocal(1, 10)
        with pytest.raises(PreconditionError):
            zeta_reciprocal(2, 1)

    def test_primorial_surrogate_identity(self):
        # the alternating gcd^2 sum over the open divisor interval of the
        # primorial equals h(N) - phi_h(N) exactly
        h = MultiplicativeFunction.power(2)
        for bound in (3, 5, 7):
            n = primorial(bound)
            subset = totient_subset_sum(n, h)
            assert subset == Fraction(n**2) - totient(n, h)
            partial = zeta_reciprocal(2, bound)
            assert abs(float(1 - subset / n**2) - partial) < 1e-12


class TestPrimorial:
    def test_values(self):
        assert primorial(10) == 210
        assert primorial(1) == 1
        assert primorial(2) == 2

    def test_primes_upto(self):
        assert primes_upto(13) == [2, 3, 5, 7, 11, 13]
        assert primes_upto(1) == []


class TestComplexes:
    def test_s12(self):
        sx = divisor_complex(12, "gcd")
        assert {frozenset(f) for f in sx.faces} == {
            frozenset({2}),
            frozenset({3}),
            frozenset({4}),
            frozenset({6}),
            frozenset({2, 4}),
            frozenset({2, 6}),
            frozenset({4, 6}),
            frozenset({3, 6}),
            frozenset({2, 4, 6}),
        }
        assert sx.euler_characteristic() == 1

    def test_t12(self):
        tx = divisor_complex(12, "lcm")
        assert tx.euler_characteristic() == 1

    def test_isomorphism(self):
        for n in (4, 8, 12, 16, 18, 36, 60, 100):
            assert complement_isomorphic(n), n

    def test_n4_edge_case(self):
        sx = divisor_complex(4, "gcd")
        assert [set(f) for f in sx.faces] == [{2}]
        assert sx.euler_characteristic() == 1

    def test_squarefree_reports_only(self):
        sx = divisor_complex(30, "gcd")
        assert sx.euler_characteristic() == 1 + classical_mobius(30)

    def test_downward_closure_enforced(self):
        with pytest.raises(PreconditionError):
            AbstractComplex([frozenset({1, 2})])

    def test_face_order_is_by_size_then_sorted_reprs(self):
        def reference_order(faces):
            return sorted(set(faces), key=lambda f: (len(f), sorted(map(repr, f))))

        for kind in ("gcd", "lcm"):
            faces = divisor_complex(180, kind).faces
            assert list(faces) == reference_order(faces), kind
        # every nonempty subset of mixed labels, some sharing a repr prefix
        labels = [10, 2, "2", "a", (1, 2), (1,), "10", -3]
        faces = [frozenset(c) for k in range(1, len(labels) + 1) for c in itertools.combinations(labels, k)]
        mixed = AbstractComplex(reversed(faces))
        assert list(mixed.faces) == reference_order(faces)


def _per_face_sums(faces, r):
    """(len, dimension, Euler characteristic, truncated sum at r), face by face."""
    signed = [-1 if (len(f) - 1) & 1 else 1 for f in faces]
    return (
        len(faces),
        max((len(f) for f in faces), default=0) - 1,
        sum(signed),
        sum(s for f, s in zip(faces, signed) if len(f) <= r),
    )


class TestFaceCounts:
    def test_swept_counts_match_combinations(self):
        # every n <= 400 under the budget (all but 360), both kinds: faces by
        # size over the open divisor interval, a size with no face ending the count
        for n in range(1, 401):
            if len(divisors(n)) > 22:
                continue
            middle = [d for d in divisors(n) if d not in (1, n)]
            kinds = (("gcd", math.gcd, lambda g: g > 1), ("lcm", math.lcm, lambda l: l < n))
            for kind, op, is_face in kinds:
                expected = []
                for r in range(1, len(middle) + 1):
                    count = sum(1 for a in itertools.combinations(middle, r) if is_face(op(*a)))
                    if not count:
                        break
                    expected.append(count)
                assert divisor_complex(n, kind)._counts == expected, (n, kind)

    def test_sums_list_no_face(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a face was listed")

        sweeps = []
        sweep = numbers._face_sweep
        monkeypatch.setattr(numbers, "_face_sweep", lambda *a: sweeps.append(a) or sweep(*a))
        monkeypatch.setattr(AbstractComplex, "__init__", refuse)
        for kind in ("gcd", "lcm"):
            cx = divisor_complex(180, kind)
            assert (len(cx), cx.euler_characteristic(), bonferroni_all(cx)) == (4167, 1, True)
        assert len(sweeps) == 2

    def test_listing_short_of_the_counts_is_caught(self, monkeypatch):
        cx = divisor_complex(180)
        sweep = numbers._face_sweep

        def short(*args):
            faces = sweep(*args)
            # a largest face is maximal, so the rest stays downward closed
            del faces[max(faces, key=len)]
            return faces

        monkeypatch.setattr(numbers, "_face_sweep", short)
        with pytest.raises(CrossCheckFailed):
            cx.faces
        with pytest.raises(CrossCheckFailed):
            frozenset({2}) in cx

    def test_fold_that_leaves_a_non_face_is_refused(self, monkeypatch):
        # a "gcd" that keeps the last divisor takes the non-face 1 back to faces
        monkeypatch.setattr(numbers, "math", types.SimpleNamespace(gcd=lambda a, b: b or a, lcm=math.lcm))
        with pytest.raises(CrossCheckFailed):
            divisor_complex(12)

    def test_listed_faces_and_membership(self):
        cx = divisor_complex(12)
        assert frozenset({2, 4, 6}) in cx and {3, 6} in cx
        assert {2, 3} not in cx and {12} not in cx
        assert len(cx.faces) == len(cx) == 9

    @pytest.mark.parametrize("seed", range(20))
    def test_counts_match_per_face_sums_on_explicit_complexes(self, seed):
        rng = random.Random(seed)
        vertices = range(rng.randint(1, 7))
        facets = [rng.sample(vertices, rng.randint(1, len(vertices))) for _ in range(rng.randint(0, 4))]
        # every nonempty subset of every facet
        faces = {frozenset(c) for f in facets for k in range(1, len(f) + 1)
                 for c in itertools.combinations(f, k)}
        cx = AbstractComplex(faces)
        for r in range(-1, len(vertices) + 2):
            got = (len(cx), cx.dimension, cx.euler_characteristic(), cx.truncated_alternating(r))
            assert got == _per_face_sums(list(faces), r), r

    def test_empty_complex(self):
        for cx in (AbstractComplex([]), divisor_complex(1), divisor_complex(7, "lcm")):
            assert (len(cx), cx.dimension, cx.euler_characteristic(), cx.faces) == (0, -1, 0, ())
            assert all(cx.truncated_alternating(r) == 0 for r in range(-1, 3))


class TestBonferroni:
    def test_s12_r1(self):
        sx = divisor_complex(12, "gcd")
        assert bonferroni_check(sx, 1)
        assert -sx.truncated_alternating(1) <= -1  # four vertices

    def test_full_range(self):
        for n in (4, 8, 9, 12, 16, 18, 36, 72, 100):
            assert bonferroni_all(divisor_complex(n, "gcd")), n
            assert bonferroni_all(divisor_complex(n, "lcm")), n

    def test_beyond_dimension_is_equality(self):
        sx = divisor_complex(12, "gcd")
        r = sx.dimension + 1
        assert sx.truncated_alternating(r) == sx.euler_characteristic() == 1
        assert bonferroni_check(sx, r)


class TestChainSums:
    def test_gcd_inner_sums(self):
        for n in (12, 30, 36, 60):
            for d, s in chain_gcd_inner_sums(n).items():
                assert s == -classical_mobius(n // d), (n, d)

    def test_lcm_inner_sums(self):
        for n in (12, 30, 36, 60):
            for d, s in chain_lcm_inner_sums(n).items():
                assert s == classical_mobius(d), (n, d)


def test_chain_sums_match_combination_filter():
    # every n <= 120: the sweep against the nonempty combinations of
    # divisors that divide each other pairwise
    for n in range(1, 121):
        routes = (
            (chain_gcd_inner_sums, [d for d in divisors(n) if d != n], gcd_all, -1),
            (chain_lcm_inner_sums, [d for d in divisors(n) if d != 1], lcm_all, 1),
        )
        for route, divs, stat, sign in routes:
            expected = {d: 0 for d in divs}
            for r in range(1, len(divs) + 1):
                for combo in itertools.combinations(divs, r):
                    if all(b % a == 0 for a, b in itertools.combinations(combo, 2)):
                        # (-1)^(|A| - 1) for the gcd sums, (-1)^|A| for the lcm sums
                        expected[stat(combo)] += sign * (-1) ** r
            assert route(n) == expected, (route.__name__, n)


class TestInfrastructure:
    def test_divisors(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(1) == (1,)

    def test_squarefree(self):
        assert is_squarefree(30)
        assert not is_squarefree(12)

    def test_multiplicative_validation(self):
        with pytest.raises(PreconditionError):
            MultiplicativeFunction(lambda n: n + 1, "shifted")

    def test_factor_cap(self):
        with pytest.raises(CapExceeded):
            divisors(10**7)


def _subsets(domain):
    return itertools.chain.from_iterable(
        itertools.combinations(domain, r) for r in range(len(domain) + 1)
    )


def _totient_subset_reference(n, h, modified_domain, restrict):
    domain = [d for d in divisors(n) if d != n and (modified_domain or d != 1)]
    total = Fraction(0)
    for a in _subsets(domain):
        g = gcd_all(a)
        if a and (not restrict or g > 1):
            total += h(g) if len(a) & 1 else -h(g)
    return total


def _inverse_subset_reference(n, h, modified_domain, restrict):
    domain = [d for d in divisors(n) if d != 1 and (modified_domain or d != n)]
    total = Fraction(0)
    for a in _subsets(domain):
        l = lcm_all(a)
        if not restrict or l < n:
            total += -h(l) if len(a) & 1 else h(l)
    return total


TWO_POWERS = MultiplicativeFunction(
    lambda n: Fraction(1) if n == 1 else Fraction(2) ** len(_prime_set(n)), "two-powers"
)


@pytest.mark.parametrize("restrict", [False, True])
@pytest.mark.parametrize("modified_domain", [False, True])
def test_subset_sums_match_per_subset_definitions(modified_domain, restrict):
    hs = (MultiplicativeFunction.identity(), MultiplicativeFunction.power(2))
    for n in (1, 4, 6, 7, 12, 18, 30, 36, 60, 64, 105):
        if len(_prime_set(n)) == 1 and n in _prime_set(n) and not modified_domain:
            continue
        for h in hs + ((TWO_POWERS,) if math.prod(_prime_set(n)) == n else ()):
            if n > 1:
                got = totient_subset_sum(n, h, modified_domain=modified_domain, restrict=restrict)
                assert got == _totient_subset_reference(n, h, modified_domain, restrict), (n, h)
            got = inverse_subset_sum(n, h, modified_domain=modified_domain, restrict=restrict)
            assert got == _inverse_subset_reference(n, h, modified_domain, restrict), (n, h)


def test_numbers_walks_leave_no_reference_cycles():
    # with the cyclic collector off, a walk that leaves a cycle behind (a
    # closure that refers to itself) keeps everything it reached alive
    ident = MultiplicativeFunction.identity()
    calls = {
        "divisor_complex gcd": lambda: divisor_complex(180),
        "divisor_complex lcm": lambda: divisor_complex(180, "lcm"),
        "divisor_complex faces": lambda: divisor_complex(180, "lcm").faces,
        "totient_subset_sum": lambda: totient_subset_sum(180, ident),
        "inverse_subset_sum": lambda: inverse_subset_sum(180, ident),
        "gcd_expansion gcd": lambda: gcd_expansion(180, "gcd"),
        "gcd_expansion lcm": lambda: gcd_expansion(180, "lcm"),
        "totient_subset_sum 720720": lambda: totient_subset_sum(720720, ident),
        "chain_gcd_inner_sums": lambda: chain_gcd_inner_sums(48),
        "chain_lcm_inner_sums": lambda: chain_lcm_inner_sums(48),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


@pytest.mark.parametrize("op", [math.gcd, math.lcm])
def test_divisor_domain_at_both_ends(op):
    # the open divisor interval, or with the modified domain every divisor
    # but n (gcd sums) or but 1 (lcm sums); primes have only the latter
    from brokencircuits.numbers import _divisor_domain

    assert _divisor_domain(1, op) == [] == _divisor_domain(1, op, modified_domain=True)
    for p in (2, 7, 97):
        with pytest.raises(PreconditionError, match="use the modified domain"):
            _divisor_domain(p, op)
        assert _divisor_domain(p, op, modified_domain=True) == ([1] if op is math.gcd else [p])
    assert _divisor_domain(12, op) == [2, 3, 4, 6]
    modified = [1, 2, 3, 4, 6] if op is math.gcd else [2, 3, 4, 6, 12]
    assert _divisor_domain(12, op, modified_domain=True) == modified
