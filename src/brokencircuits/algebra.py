"""Exact arithmetic substrate for the subset-sum engines.

Every engine in this package accumulates values from some abelian group:
plain integers, integer polynomials in one or two variables, exact
rationals, or (for the zeta approximation only) floats.  The group is
implicit: values support ``+`` and unary ``-``, and each engine is handed
the neutral element explicitly.  Coefficients are Python ints throughout,
so sums over 2^n terms never overflow or round.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from itertools import islice, zip_longest

from .errors import CrossCheckFailed, SchemaError


def _strip(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _coeffs_of(value):
    if isinstance(value, IntPolynomial):
        return value.coeffs
    if isinstance(value, int):
        return (value,)
    raise TypeError(f"cannot add {type(value).__name__} to IntPolynomial")


class IntPolynomial:
    """Dense univariate polynomial with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of x^i; trailing zeros are stripped so
    the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _strip(coeffs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, power, coeff=1):
        return cls((0,) * power + (coeff,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def from_terms(cls, terms):
        """Polynomial from an {exponent: coefficient} mapping, such as a sweep's histogram."""
        coeffs = [0] * (max(terms, default=-1) + 1)
        for power, c in terms.items():
            coeffs[power] = c
        return cls(coeffs)

    @classmethod
    def from_whitney_counts(cls, top, counts):
        """Whitney's form: the coefficient of x^(top - k) is (-1)^k counts[k].

        ``counts[k]`` counts the k-subsets that hold no broken circuit, and
        ``top`` is |V| for a chromatic polynomial or r(E) for a
        characteristic polynomial.  Those subsets are independent, so a
        nonzero count past ``top`` raises ``CrossCheckFailed``.
        """
        if any(counts[top + 1:]):
            raise CrossCheckFailed(f"a broken-circuit-free subset has more than {top} elements")
        return cls.from_terms({top - k: -b if k & 1 else b for k, b in enumerate(counts[:top + 1])})

    @property
    def degree(self):
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _strip((other,))
        return NotImplemented

    def __hash__(self):
        # constants compare equal to ints, so they must hash alike
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    @classmethod
    def sum_of(cls, values):
        """Sum of polynomials and ints (constants), adding coefficient columns
        in C 256 values at a time: zip_longest slows down over many more.
        An exact IntPolynomial's coefficients are read inline, with no call
        per value; ints and subclasses go through ``_coeffs_of``. Other
        values raise TypeError, as ``IntPolynomial + Fraction`` does."""
        total = ()
        values = iter(values)
        while block := list(islice(values, 256)):
            columns = [v.coeffs if type(v) is IntPolynomial else _coeffs_of(v) for v in block]
            total = tuple(map(sum, zip_longest(total, *columns, fillvalue=0)))
        return cls(total)

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = IntPolynomial((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, at):
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * at + c
        return acc

    def derivative_at(self, at):
        """Exact value of the first derivative at an integer point."""
        acc = 0
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * at + i * self.coeffs[i]
        return acc

    def coefficient(self, power):
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"

    def to_json(self, var="x"):
        return {"var": var, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        if set(obj) != {"var", "coeffs"}:
            raise SchemaError("polynomial object must have exactly 'var' and 'coeffs'")
        return cls(tuple(int(c) for c in obj["coeffs"]))


class BiPolynomial:
    """Sparse bivariate polynomial over the integers.

    Stored as a map (i, j) -> coefficient of x^i y^j with no zero entries.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            if c:
                key = (i, j)
                data[key] = data.get(key, 0) + c
                if not data[key]:
                    del data[key]
        self.terms = dict(data)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i, j, coeff=1):
        return cls({(i, j): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, BiPolynomial):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(("BiPolynomial", tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
            if not out[key]:
                del out[key]
        return BiPolynomial(out)

    def __neg__(self):
        return BiPolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BiPolynomial({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        out = {}
        for (i, j), a in self.terms.items():
            for (k, l), b in other.terms.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + a * b
        return BiPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = BiPolynomial.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.terms.items())

    def substitute_x(self, value):
        """Substitute an integer for x; the result is a polynomial in y."""
        coeffs = {}
        for (i, j), c in self.terms.items():
            coeffs[j] = coeffs.get(j, 0) + c * value**i
        out = [0] * (max(coeffs) + 1 if coeffs else 0)
        for j, c in coeffs.items():
            out[j] = c
        return IntPolynomial(out)

    def __repr__(self):
        return f"BiPolynomial({dict(sorted(self.terms.items()))!r})"

    def to_json(self, vars=("x", "y")):
        terms = [[i, j, str(c)] for (i, j), c in sorted(self.terms.items())]
        return {"vars": list(vars), "terms": terms}

    @classmethod
    def from_json(cls, obj):
        if set(obj) != {"vars", "terms"}:
            raise SchemaError("bivariate polynomial object must have exactly 'vars' and 'terms'")
        return cls({(int(i), int(j)): int(c) for i, j, c in obj["terms"]})
