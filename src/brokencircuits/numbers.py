"""Divisor-lattice expansions of arithmetical functions.

The classical Mobius function, generalized totients, and Dirichlet
inverses all arise as alternating gcd- or lcm-weighted sums over the
subsets of one divisor domain: the divisors strictly between 1 and n, or
the modified domain, every divisor but n (gcd) or but 1 (lcm), which a
prime n needs.  Each sum is one op fold over the distinct gcd or lcm
states; the chain reductions are the same fold, dropping a chain at a
divisor that breaks it, the complexes count their faces by it, and the
prime-support reductions fold the primes or their complements.  Exact
values use Fractions; only the zeta reciprocal uses floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from fractions import Fraction
from operator import itemgetter

from .core import _image_fold, _within_budget
from .errors import CapExceeded, CrossCheckFailed, PreconditionError, SchemaError

FACTOR_CAP = 10**6

_factor_cache = {}
_factor_lock = threading.Lock()


def factorize(n):
    """Prime factorization as a dict prime -> exponent, trial division with a cache."""
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"need a positive integer, got {n!r}")
    if n > FACTOR_CAP:
        raise CapExceeded(f"factorization is capped at {FACTOR_CAP}")
    with _factor_lock:
        cached = _factor_cache.get(n)
    if cached is not None:
        return dict(cached)
    m = n
    out = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    with _factor_lock:
        _factor_cache[n] = dict(out)
    return out


def prime_factors(n):
    return tuple(sorted(factorize(n)))


def _is_prime(n):
    return n > 1 and prime_factors(n) == (n,)


def divisors(n):
    """Sorted positive divisors of n."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def is_squarefree(n):
    return all(e == 1 for e in factorize(n).values())


def classical_mobius(n):
    """(-1)^k for a product of k distinct primes, 0 otherwise."""
    fact = factorize(n)
    if any(e > 1 for e in fact.values()):
        return 0
    return -1 if len(fact) & 1 else 1


def primes_upto(limit):
    if limit < 2:
        return []
    _within_budget(limit, f"the sieve up to {limit}")
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, limit + 1) if sieve[i]]


def primorial(n):
    """Product of all primes at most n; 1 when there are none."""
    if n < 0:
        raise PreconditionError("primorial needs n >= 0")
    out = 1
    for p in primes_upto(n):
        out *= p
    return out


def gcd_all(values):
    """gcd of a finite set, with gcd of the empty set 0."""
    acc = 0
    for v in values:
        acc = math.gcd(acc, v)
    return acc


def lcm_all(values):
    """lcm of a finite set, with lcm of the empty set 1."""
    acc = 1
    for v in values:
        acc = acc * v // math.gcd(acc, v)
    return acc


def _divisor_domain(n, op, modified_domain=False):
    """The divisors of n that the gcd (op math.gcd) or lcm (op math.lcm)
    sums run over: those strictly between 1 and n, or with modified_domain
    every divisor except n (gcd) or except 1 (lcm).  A prime n has no
    divisor strictly between, so its prime support is only in the modified
    domain, which it needs."""
    divs = divisors(n)
    if modified_domain:
        return [d for d in divs if d != (n if op is math.gcd else 1)]
    if _is_prime(n):
        raise PreconditionError(
            "prime n leaves the prime support outside the open divisor interval; "
            "use the modified domain"
        )
    return [d for d in divs if d not in (1, n)]


def _op_fold(domain, start, op):
    """{the op-fold of A from start: sum of (-1)^|A|} over the subsets A of the domain."""
    return _image_fold(len(domain), start, lambda i, s: op(s, domain[i]), lambda s: s)


def _signed_gcd_sum(domain):
    """sum over subsets A of the domain of (-1)^|A| [gcd(A) == 1]; gcd of the empty set is 0."""
    return _op_fold(domain, 0, math.gcd).get(1, 0)


def _signed_lcm_sum(domain, n):
    """sum over subsets A of the domain of (-1)^|A| [lcm(A) == n]."""
    return _op_fold(domain, 1, math.lcm).get(n, 0)


def gcd_expansion(n, variant="gcd", modified_domain=False):
    """mu(n) as an alternating subset count over divisors.

    variant "gcd": subsets of the divisors strictly between 1 and n with
    gcd 1; variant "lcm": those with lcm n.  Either equals mu(n); the
    intermediate reductions to prime supports are asserted along the way.
    Primes need modified_domain, which keeps 1 (gcd variant) or n (lcm
    variant) in the domain; the gcd variant needs n >= 2 regardless.
    """
    if variant not in ("gcd", "lcm"):
        raise SchemaError(f"unknown variant {variant!r}")
    if variant == "gcd" and n < 2:
        raise PreconditionError("the gcd variant needs n >= 2")
    if n < 1:
        raise PreconditionError("n must be positive")
    op = math.gcd if variant == "gcd" else math.lcm
    domain = _divisor_domain(n, op, modified_domain)
    mu = classical_mobius(n)
    primes = list(prime_factors(n))
    star = [n // p for p in primes]
    over_primes_star = sum(
        (-1) ** len(a)
        for r in range(len(primes) + 1)
        for a in itertools.combinations(primes, r)
        if gcd_all(n // p for p in a) == 1
    )
    if variant == "gcd":
        value = _signed_gcd_sum(domain)
        chain = (value, _signed_gcd_sum(star), over_primes_star, _signed_lcm_sum(primes, n), mu)
    else:
        value = _signed_lcm_sum(domain, n)
        if n == 1:
            # the complement forms degenerate at n = 1 (gcd of the empty
            # set is 0), but the lcm forms still give mu(1) = 1
            chain = (value, _signed_lcm_sum(primes, n), mu)
        else:
            chain = (value, _signed_lcm_sum(primes, n), over_primes_star, _signed_gcd_sum(star), mu)
    if len(set(chain)) != 1:
        raise CrossCheckFailed(f"expansion chain disagrees: {chain}")
    return value


class MultiplicativeFunction:
    """Multiplicative arithmetical function with exact rational values.

    h(1) must be 1 and h(ab) = h(a) h(b) for coprime a, b; the coprime law
    is spot-checked on construction.
    """

    def __init__(self, fn, name="h", completely_multiplicative=False, check=True):
        self._fn = fn
        self.name = name
        self.completely_multiplicative = completely_multiplicative
        if check:
            if Fraction(fn(1)) != 1:
                raise PreconditionError("a multiplicative function needs h(1) = 1")
            for a, b in ((2, 3), (4, 9), (5, 8), (3, 25)):
                if Fraction(fn(a * b)) != Fraction(fn(a)) * Fraction(fn(b)):
                    raise PreconditionError(
                        f"h is not multiplicative at coprime pair ({a}, {b})"
                    )

    def __call__(self, n):
        return Fraction(self._fn(n))

    def __repr__(self):
        return f"MultiplicativeFunction({self.name})"

    @classmethod
    def identity(cls):
        return cls(lambda n: n, "identity", completely_multiplicative=True, check=False)

    @classmethod
    def power(cls, k):
        return cls(lambda n: Fraction(n) ** k, f"power:{k}", completely_multiplicative=True, check=False)


def _require_totient_domain(n, h):
    for p in prime_factors(n):
        if h(p) == 0:
            raise PreconditionError(f"h vanishes at the prime {p}")
    if not (is_squarefree(n) or h.completely_multiplicative):
        raise PreconditionError(
            "n must be squarefree unless h is completely multiplicative"
        )


def totient_product(n, h=None):
    """phi_h(n) = h(n) * product over p | n of (1 - 1/h(p))."""
    h = h or MultiplicativeFunction.identity()
    _require_totient_domain(n, h)
    acc = h(n)
    for p in prime_factors(n):
        acc *= 1 - Fraction(1) / h(p)
    return acc


def totient_divisor_sum(n, h=None):
    """phi_h(n) = sum over d | n of h(d) mu(n/d)."""
    h = h or MultiplicativeFunction.identity()
    _require_totient_domain(n, h)
    return sum((h(d) * classical_mobius(n // d) for d in divisors(n)), Fraction(0))


def totient_subset_sum(n, h=None, modified_domain=False, restrict=False):
    """The alternating gcd-weighted sum over nonempty divisor subsets.

    Returns h(n) - phi_h(n).  The domain is the open divisor interval, or
    everything below n with modified_domain (required for primes).  With
    restrict, only subsets of gcd > 1 are summed, which changes nothing
    for non-squarefree n and completely multiplicative h.
    """
    h = h or MultiplicativeFunction.identity()
    _require_totient_domain(n, h)
    total = Fraction(0)
    for g, count in _op_fold(_divisor_domain(n, math.gcd, modified_domain), 0, math.gcd).items():
        # g == 0 only for the empty subset; a subset A adds -(-1)^|A| h(gcd A)
        if g and (not restrict or g > 1):
            total -= count * h(g)
    return total


def totient(n, h=None, method="all", modified_domain=False):
    """phi_h(n): Euler's totient for h = identity.

    With method "all", every applicable route (product, divisor sum,
    subset sum) is computed and asserted equal, as is the identity
    product over p | n of (1 - 1/h(p)) = sum over d | n of mu(d)/h(d).
    """
    h = h or MultiplicativeFunction.identity()
    if method == "product":
        return totient_product(n, h)
    if method == "divisor_sum":
        return totient_divisor_sum(n, h)
    if method == "subset_sum":
        return h(n) - totient_subset_sum(n, h, modified_domain=modified_domain)
    if method != "all":
        raise SchemaError(f"unknown method {method!r}")
    value = totient_product(n, h)
    via_divisors = totient_divisor_sum(n, h)
    results = {"product": value, "divisor_sum": via_divisors}
    if modified_domain or not _is_prime(n):
        results["subset_sum"] = h(n) - totient_subset_sum(
            n, h, modified_domain=modified_domain
        )
    if len(set(results.values())) != 1:
        raise CrossCheckFailed(f"totient methods disagree: {results}")
    lhs = Fraction(1)
    for p in prime_factors(n):
        lhs *= 1 - Fraction(1) / h(p)
    rhs = sum(
        (Fraction(classical_mobius(d)) / h(d) for d in divisors(n) if classical_mobius(d)),
        Fraction(0),
    )
    if lhs != rhs:
        raise CrossCheckFailed("mu(d)/h(d) divisor identity failed")
    return value


def inverse_product(n, h=None):
    """product over p | n of (1 - h(p)); the Dirichlet inverse of the
    totient at n when h is the identity."""
    h = h or MultiplicativeFunction.identity()
    acc = Fraction(1)
    for p in prime_factors(n):
        acc *= 1 - h(p)
    return acc


def inverse_divisor_sum(n, h=None):
    """sum over d | n of h(d) mu(d)."""
    h = h or MultiplicativeFunction.identity()
    return sum(
        (h(d) * classical_mobius(d) for d in divisors(n) if classical_mobius(d)),
        Fraction(0),
    )


def inverse_subset_sum(n, h=None, modified_domain=False, restrict=False):
    """The alternating lcm-weighted sum over divisor subsets.

    Equals the product over p | n of (1 - h(p)).  The domain is the open
    divisor interval, or everything above 1 with modified_domain
    (required for primes).  With restrict, only subsets of lcm < n are
    summed, which changes nothing for non-squarefree n.
    """
    h = h or MultiplicativeFunction.identity()
    total = Fraction(0)
    for l, count in _op_fold(_divisor_domain(n, math.lcm, modified_domain), 1, math.lcm).items():
        if not restrict or l < n:
            total += count * h(l)
    return total


def dirichlet_inverse_totient(n, h=None, method="all", modified_domain=False):
    """product over p | n of (1 - h(p)), three ways, asserted equal.

    No squarefreeness or nonvanishing requirements; with h the identity
    this is the Dirichlet inverse of Euler's totient.
    """
    h = h or MultiplicativeFunction.identity()
    if method == "product":
        return inverse_product(n, h)
    if method == "divisor_sum":
        return inverse_divisor_sum(n, h)
    if method == "subset_sum":
        return inverse_subset_sum(n, h, modified_domain=modified_domain)
    if method != "all":
        raise SchemaError(f"unknown method {method!r}")
    value = inverse_product(n, h)
    results = {"product": value, "divisor_sum": inverse_divisor_sum(n, h)}
    if modified_domain or not _is_prime(n):
        results["subset_sum"] = inverse_subset_sum(n, h, modified_domain=modified_domain)
    if len(set(results.values())) != 1:
        raise CrossCheckFailed(f"Dirichlet inverse methods disagree: {results}")
    return value


def zeta_reciprocal(s, prime_bound):
    """Partial Euler product for 1/zeta(s) over the primes up to a bound.

    This equals phi_h(N)/h(N) with h(m) = m^s and N the primorial of the
    bound, so it decreases to 1/zeta(s) as the bound grows.
    """
    if not s > 1:
        raise PreconditionError("need s > 1")
    if prime_bound < 2:
        raise PreconditionError("need a prime bound of at least 2")
    acc = 1.0
    for p in primes_upto(prime_bound):
        acc *= 1.0 - float(p) ** (-float(s))
    return acc


class AbstractComplex:
    """Abstract simplicial complex: nonempty faces, closed under nonempty subsets."""

    def __init__(self, faces):
        faces = [frozenset(f) for f in faces]
        face_set = set(faces)
        for f in faces:
            if not f:
                raise SchemaError("faces must be nonempty")
            for v in f:
                if len(f) > 1 and (f - {v}) not in face_set:
                    raise PreconditionError(
                        f"not downward closed: {sorted(map(repr, f))} minus {v!r} is missing"
                    )
        # faces by size, then by their sorted vertex reprs (one repr per vertex), and their
        # counts by size: downward closed, they have every size up to the largest
        reprs = {v: repr(v) for f in face_set for v in f}
        self.faces = tuple(sorted(face_set, key=lambda f: (len(f), sorted([reprs[v] for v in f]))))
        self._counts = [len(list(group)) for _, group in itertools.groupby(self.faces, len)]

    @classmethod
    def _counted(cls, counts, lister):
        """The complex with counts[k] faces of size k + 1, listed by ``lister()`` when asked for."""
        cx = cls.__new__(cls)
        cx._counts, cx._lister = counts, lister
        return cx

    @functools.cached_property
    def faces(self):
        listed = AbstractComplex(self._lister())
        if listed._counts != self._counts:
            raise CrossCheckFailed(f"listed {listed._counts} faces by size, counted {self._counts}")
        return listed.faces

    _face_set = functools.cached_property(lambda self: set(self.faces))

    def __len__(self):
        return sum(self._counts)

    def __contains__(self, face):
        return frozenset(face) in self._face_set

    @property
    def dimension(self):
        return len(self._counts) - 1

    def euler_characteristic(self):
        """sum over faces of (-1)^{|A| - 1}."""
        return self.truncated_alternating(len(self._counts))

    def truncated_alternating(self, r):
        """The Euler sum cut off at faces of size at most r."""
        return sum(-c if k & 1 else c for k, c in enumerate(self._counts[: max(r, 0)]))


def _face_sweep(domain, start, op, is_face, grow):
    """{tag: sum of (-1)^|A|} over the empty set and the faces A of a divisor complex: one sweep
    of the states (op-fold of A, tag of A) from start, and taking i maps a tag t to grow(i, t)."""

    def include(i, state):
        fold = op(state[0], domain[i])
        return (fold, grow(i, state[1])) if is_face(fold) else None

    return _image_fold(len(domain), start, include, itemgetter(1))


def divisor_complex(n, kind="gcd"):
    """The complex of divisor subsets with gcd > 1 (kind "gcd") or with lcm < n (kind "lcm"),
    over the divisors strictly between 1 and n: one sweep counts its faces by size, and they
    are listed only when asked for."""
    if kind not in ("gcd", "lcm"):
        raise SchemaError(f"unknown complex kind {kind!r}")
    # the faces are subsets of the d(n) - 2 divisors strictly between 1 and n
    d = len(divisors(n))
    _within_budget(2 ** (d - 2), f"{n} has {d} divisors")
    if kind == "gcd":
        op, start, is_face = math.gcd, 0, (lambda g: g > 1)
    else:
        op, start, is_face = math.lcm, 1, (lambda l: l < n)
    # 1 (gcd) and n (lcm) lie in no face, so the modified domain, which every
    # n has, spans the same complex as the open interval
    middle = _divisor_domain(n, op, modified_domain=True)
    if any(is_face(op(x, m)) for x in divisors(n) if not is_face(x) for m in middle):
        raise CrossCheckFailed(f"a non-face of {n} extends to a face, which the sweep would drop")

    def faces():
        listed = _face_sweep(middle, (start, frozenset()), op, is_face, lambda i, f: f | {middle[i]})
        return [f for f in listed if f]

    hist = _face_sweep(middle, (start, 0), op, is_face, lambda i, size: size + 1)
    counts = [-c if k & 1 else c for k, c in sorted(hist.items()) if k]
    return AbstractComplex._counted(counts, faces)


def complement_isomorphic(n):
    """Whether A -> {n/a} maps the gcd complex onto the lcm complex."""
    gcd_faces = set(divisor_complex(n, "gcd").faces)
    lcm_faces = set(divisor_complex(n, "lcm").faces)
    mapped = {frozenset(n // a for a in f) for f in gcd_faces}
    return mapped == lcm_faces


def bonferroni_check(complex_, r):
    """Truncation inequality for contractible complexes:
    (-1)^r (truncated Euler sum at r) <= (-1)^r."""
    sign = -1 if r & 1 else 1
    return sign * complex_.truncated_alternating(r) <= sign


def bonferroni_all(complex_):
    """The truncation inequality for every r up to dimension + 1."""
    return all(bonferroni_check(complex_, r) for r in range(1, complex_.dimension + 2))


def _chain_sums(divs, start, op):
    """{op-fold of A from start: sum of (-1)^{|A|-1}} over the nonempty divisibility chains A
    of divs, in increasing order of divs, which come so that op(last, d) == d keeps a chain
    (decreasing for gcd, increasing for lcm): a chain's op-fold, the sweep's one state, is its
    last divisor.  start, the op-fold of the empty chain, is not in divs."""

    def include(i, last):
        return divs[i] if op(last, divs[i]) == divs[i] else None

    hist = _image_fold(len(divs), start, include, lambda last: last)
    return {d: -hist.get(d, 0) for d in sorted(divs)}


def chain_gcd_inner_sums(n):
    """For each divisor d < n: the alternating count (-1)^{|A|-1} of
    nonempty divisibility chains in the divisors below n with gcd d.

    Each value equals -mu(n/d).
    """
    return _chain_sums(_divisor_domain(n, math.gcd, modified_domain=True)[::-1], 0, math.gcd)


def chain_lcm_inner_sums(n):
    """For each divisor d > 1: the alternating count (-1)^{|A|} of
    nonempty divisibility chains in the divisors above 1 with lcm d.

    Each value equals mu(d).
    """
    divs = _divisor_domain(n, math.lcm, modified_domain=True)
    return {d: -count for d, count in _chain_sums(divs, 1, math.lcm).items()}
