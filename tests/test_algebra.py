import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brokencircuits.algebra import BiPolynomial, IntPolynomial
from brokencircuits.errors import CrossCheckFailed, SchemaError

X = IntPolynomial.x()


def poly(*coeffs):
    return IntPolynomial(coeffs)


class TestIntPolynomial:
    def test_add_inverse(self):
        assert poly(0, 0, 1) + poly(0, 0, -1) == IntPolynomial.zero()

    def test_add_coefficientwise(self):
        assert poly(-1, 1) + poly(1, 1) == poly(0, 2)

    def test_add_cancels_middle(self):
        # (x^3 - 3x^2 + 2x) + 3x^2 = x^3 + 2x
        assert poly(0, 2, -3, 1) + poly(0, 0, 3) == poly(0, 2, 0, 1)

    def test_from_terms(self):
        assert IntPolynomial.from_terms({}) == IntPolynomial.zero()
        assert IntPolynomial.from_terms({5: -2, 0: 1}) == poly(1, 0, 0, 0, 0, -2)
        # zero coefficients are kept inside and stripped at the top
        assert IntPolynomial.from_terms({3: 0, 1: 2, 0: 0}) == poly(0, 2)
        assert IntPolynomial.from_terms({4: 0}).coeffs == ()

    def test_from_whitney_counts(self):
        # K3: b = (1, 3, 2, 0) and |V| = 3 give x^3 - 3x^2 + 2x
        assert IntPolynomial.from_whitney_counts(3, (1, 3, 2, 0)) == poly(0, 2, -3, 1)
        # counts may stop short of the top, and zero counts past it are fine
        assert IntPolynomial.from_whitney_counts(4, (1, 2)) == poly(0, 0, 0, -2, 1)
        assert IntPolynomial.from_whitney_counts(1, [1, 1, 0, 0]) == poly(-1, 1)
        assert IntPolynomial.from_whitney_counts(0, ()) == IntPolynomial.zero()
        with pytest.raises(CrossCheckFailed, match="more than 2 elements"):
            IntPolynomial.from_whitney_counts(2, (1, 3, 2, 1))

    def test_eval_counts_k3_colourings(self):
        # brute-force oracle: proper 3-colourings of a triangle
        count = sum(
            1
            for c in itertools.product(range(3), repeat=3)
            if c[0] != c[1] and c[0] != c[2] and c[1] != c[2]
        )
        assert count == 6
        assert poly(0, 2, -3, 1).evaluate(3) == count

    def test_eval_at_zero_is_constant_term(self):
        assert poly(7, -2, 5).evaluate(0) == 7

    def test_eval_at_root(self):
        assert poly(2, -3, 1).evaluate(1) == 0

    def test_derivative_at(self):
        # p = x^2 - 3x + 2, p' = 2x - 3
        assert poly(2, -3, 1).derivative_at(1) == -1

    def test_derivative_of_constant(self):
        assert poly(42).derivative_at(17) == 0

    def test_derivative_power_rule(self):
        assert poly(0, 0, 0, 1).derivative_at(1) == 3

    def test_normalization(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).is_zero()
        assert poly().degree == -1

    def test_mul_and_pow(self):
        assert (X + 1) ** 2 == poly(1, 2, 1)
        assert (X - 1) * (X - 2) == poly(2, -3, 1)
        assert poly(1, 1) * 0 == IntPolynomial.zero()

    def test_json_roundtrip(self):
        p = poly(0, 2, -3, 1)
        obj = p.to_json()
        assert obj == {"var": "x", "coeffs": ["0", "2", "-3", "1"]}
        assert IntPolynomial.from_json(obj) == p

    def test_json_rejects_extra_fields(self):
        with pytest.raises(SchemaError):
            IntPolynomial.from_json({"var": "x", "coeffs": [], "extra": 1})


class TestBiPolynomial:
    def test_basicops(self):
        q = BiPolynomial({(1, 1): 3, (0, 0): 1})
        assert q + (-q) == BiPolynomial.zero()
        assert q.evaluate(2, 5) == 31

    def test_mul_matches_binomial(self):
        xy = BiPolynomial.monomial(1, 1)
        one = BiPolynomial.constant(1)
        assert (one + xy) ** 2 == BiPolynomial({(0, 0): 1, (1, 1): 2, (2, 2): 1})

    def test_substitute_x(self):
        # 1 + 3xy + 3x^2 y + x^3 y at x = -1 -> 1 - y
        q = BiPolynomial({(0, 0): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1})
        assert q.substitute_x(-1) == poly(1, -1)

    def test_json_roundtrip(self):
        q = BiPolynomial({(2, 1): -7, (0, 3): 2})
        assert BiPolynomial.from_json(q.to_json()) == q

    def test_no_zero_terms_stored(self):
        q = BiPolynomial({(1, 1): 5}) + BiPolynomial({(1, 1): -5})
        assert q.terms == {}


small_ints = st.integers(min_value=-40, max_value=40)
int_polys = st.lists(small_ints, max_size=6).map(IntPolynomial)
bi_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), small_ints, max_size=5
).map(BiPolynomial)


@given(int_polys, int_polys, small_ints)
def test_eval_is_additive(p, q, t):
    assert (p + q).evaluate(t) == p.evaluate(t) + q.evaluate(t)


@given(int_polys, int_polys, int_polys)
def test_poly_group_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + (-a) == IntPolynomial.zero()


@given(bi_polys, bi_polys, bi_polys)
def test_bipoly_group_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + (-a) == BiPolynomial.zero()


@given(int_polys, int_polys, small_ints)
def test_mul_is_multiplicative_under_eval(p, q, t):
    assert (p * q).evaluate(t) == p.evaluate(t) * q.evaluate(t)


def _plus_fold(values):
    total = IntPolynomial.zero()
    for v in values:
        total = total + v
    return total


@given(st.lists(st.one_of(int_polys, small_ints), max_size=600))
def test_sum_of_matches_a_plus_fold(values):
    got = IntPolynomial.sum_of(values)
    assert type(got) is IntPolynomial
    assert got.coeffs == _plus_fold(values).coeffs


def test_sum_of_block_edges_and_cancellation():
    for size in (0, 255, 256, 257, 513):
        values = [IntPolynomial([i, -i, i * i]) for i in range(size)]
        assert IntPolynomial.sum_of(values).coeffs == _plus_fold(values).coeffs
        zero = IntPolynomial.sum_of(values + [-v for v in values])
        assert zero.coeffs == () and hash(zero) == hash(0)


def test_sum_of_refuses_other_types():
    with pytest.raises(TypeError):
        IntPolynomial.sum_of([IntPolynomial.x(), Fraction(1, 2)])
    with pytest.raises(TypeError):
        IntPolynomial.sum_of([BiPolynomial.constant(1)])
