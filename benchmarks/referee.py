"""Independent checks of every op's output.

Each check computes its expected value once per distinct instance, with
``brokencircuits.oracles`` where an oracle covers the kind and otherwise
with a closed form or a brute force written here.  No check calls another
route of the engine it referees.  Checks run outside the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


class Referee:
    """Caches expected values per instance key; ``checked`` counts verdicts."""

    def __init__(self):
        self._cache = {}
        self.checked = 0

    def expect(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def verdict(self, check, value):
        """True when ``value`` passes ``check``; a raising check fails it."""
        self.checked += 1
        try:
            return bool(check(self, value))
        except Exception:  # a malformed output is a failed op, not a crash
            return False


# -- arithmetic -----------------------------------------------------------


def prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n):
    phi = n
    for p in prime_factors(n):
        phi = phi // p * (p - 1)
    return phi


def mobius(n):
    primes = prime_factors(n)
    prod = 1
    for p in primes:
        prod *= p
    if prod != n:
        return 0
    return -1 if len(primes) % 2 else 1


def inverse_totient(n):
    """Dirichlet inverse of Euler's phi at n: the product of (1 - p) over p | n."""
    out = 1
    for p in prime_factors(n):
        out *= 1 - p
    return out


def divisor_complex_stats(n):
    """(faces, Euler characteristic, truncation inequalities hold) for the
    complex of subsets of the divisors strictly between 1 and n with gcd > 1."""
    middle = [d for d in range(2, n) if n % d == 0]
    by_size = [0] * (len(middle) + 1)

    def walk(idx, size, g):
        for j in range(idx, len(middle)):
            h = math.gcd(g, middle[j])
            if h > 1:
                by_size[size + 1] += 1
                walk(j + 1, size + 1, h)

    walk(0, 0, 0)
    faces = sum(by_size)
    euler = sum((-1) ** (k - 1) * c for k, c in enumerate(by_size) if k)
    dim = max(k for k, c in enumerate(by_size) if c) - 1
    ok = True
    for r in range(1, dim + 2):
        sign = -1 if r % 2 else 1
        truncated = sum((-1) ** (k - 1) * c for k, c in enumerate(by_size) if 1 <= k <= r)
        ok = ok and sign * truncated <= sign
    return faces, euler, ok


def zeta_reciprocal(s, bound):
    acc = 1.0
    for p in range(2, bound + 1):
        if prime_factors(p) == [p]:
            acc *= 1.0 - float(p) ** (-float(s))
    return acc


# -- polynomials and subset sums -----------------------------------------


def evaluate(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def coefficients(value):
    """Integer coefficients of an ``IntPolynomial`` or its JSON form."""
    if isinstance(value, dict):
        return [int(c) for c in value["coeffs"]]
    return list(value.coeffs)


def uniform_characteristic(r, n):
    """chi(U_{r,n}) from r(A) = min(|A|, r)."""
    coeffs = [0] * (r + 1)
    for k in range(n + 1):
        coeffs[r - min(k, r)] += (-1) ** k * math.comb(n, k)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def uniform_beta(r, n):
    return math.comb(n - 2, r - 1)


def _components(n_vertices, edge_ends, edge_mask):
    parent = list(range(n_vertices))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    count = n_vertices
    i = 0
    while edge_mask:
        if edge_mask & 1:
            a, b = find(edge_ends[i][0]), find(edge_ends[i][1])
            if a != b:
                parent[a] = b
                count -= 1
        edge_mask >>= 1
        i += 1
    return count


def graphic_beta(n_vertices, edge_ends):
    """(-1)^r(E) times the sum over edge subsets of (-1)^|A| r(A), with
    r(A) = |V| - c(V, A), by brute force."""
    m = len(edge_ends)
    total = 0
    for mask in range(1 << m):
        rank = n_vertices - _components(n_vertices, edge_ends, mask)
        total += -rank if bin(mask).count("1") % 2 else rank
    full_rank = n_vertices - _components(n_vertices, edge_ends, (1 << m) - 1)
    return -total if full_rank % 2 else total


def induced_component_sum(n_vertices, edge_ends):
    """Coefficients of sum over vertex subsets A of (-1)^|A| y^c(G[A])."""
    nbr = [0] * n_vertices
    for a, b in edge_ends:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    coeffs = [0] * (n_vertices + 1)
    for mask in range(1 << n_vertices):
        rest = mask
        comps = 0
        while rest:
            comps += 1
            frontier = rest & -rest
            rest ^= frontier
            while frontier:
                grown = 0
                f = frontier
                while f:
                    low = f & -f
                    grown |= nbr[low.bit_length() - 1]
                    f ^= low
                frontier = grown & rest
                rest ^= frontier
        coeffs[comps] += -1 if bin(mask).count("1") % 2 else 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def broken_masks(positions_of_circuits):
    """Each circuit (a set of ground positions) minus its largest position."""
    out = set()
    for circuit in positions_of_circuits:
        mask = 0
        for p in circuit:
            mask |= 1 << p
        out.add(mask ^ (1 << (mask.bit_length() - 1)))
    return sorted(out)


def avoiding_counts(n, broken):
    """Counts by size of the subsets of an n-set that include no broken
    mask, by inclusion-exclusion over the broken masks."""
    counts = [0] * (n + 1)
    for r in range(len(broken) + 1):
        for chosen in combinations(broken, r):
            union = 0
            for b in chosen:
                union |= b
            u = bin(union).count("1")
            for k in range(u, n + 1):
                counts[k] += (-1) ** r * math.comb(n - u, k - u)
    return counts


def table_sum(values):
    """Plain sum of a table of ints, or of polynomials as coefficient tuples."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return sum(values)
    width = max(len(v.coeffs) for v in values)
    total = [0] * width
    for v in values:
        for i, c in enumerate(v.coeffs):
            total[i] += c
    while total and total[-1] == 0:
        total.pop()
    return tuple(total)


def same_sum(value, expected):
    if isinstance(expected, tuple):
        return tuple(value.coeffs) == expected
    return value == expected


# -- lattices -------------------------------------------------------------


def boolean_mobius(n):
    return (-1) ** n


def partition_mobius(n):
    return (-1) ** (n - 1) * math.factorial(n - 1)


def partition_label_mobius(label):
    """mu(bottom, pi) in a partition lattice, pi labelled like '12|3'."""
    out = 1
    for block in label.split("|"):
        out *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
    return out


# -- colouring-based checks ----------------------------------------------

# an oracle point x is used while x^|V| stays below this
COLOURING_BUDGET = 600_000


def colouring_points(n_vertices, most=4):
    xs = [x for x in range(1, most + 1) if x**n_vertices <= COLOURING_BUDGET]
    return [0] + xs


def check_chromatic(key, graph):
    """P(G, x): degree |V|, leading terms 1 and -|E|, and the oracle's
    colouring counts at several x."""

    def check(ref, value):
        coeffs = coefficients(value)
        n = len(graph.vertices)
        counts = ref.expect(("colourings", key), lambda: _colourings(graph, n))
        return (
            len(coeffs) == n + 1
            and coeffs[n] == 1
            and coeffs[n - 1] == -len(graph.edges)
            and all(evaluate(coeffs, x) == c for x, c in counts.items())
        )

    return check


def _colourings(graph, n):
    from brokencircuits import oracles

    return {x: oracles.oracle_colourings(graph, x) for x in colouring_points(n)}


def check_graphic_characteristic(key, graph):
    """chi(M(G), x) = P(G, x) / x for a connected graph."""

    def check(ref, value):
        coeffs = coefficients(value)
        n = len(graph.vertices)
        counts = ref.expect(("colourings", key), lambda: _colourings(graph, n))
        return (
            len(coeffs) == n
            and coeffs[n - 1] == 1
            and coeffs[n - 2] == -len(graph.edges)
            and all(x * evaluate(coeffs, x) == c for x, c in counts.items())
        )

    return check


def check_hypergraph_chromatic(key, hypergraph):
    """P(H, x) of a rectangle grid: degree |V|, leading 1; the next two
    coefficients vanish and x^(|V|-3) carries -|E| (single 4-edges are the
    only subsets merging exactly three components, since two rectangles
    share at most two corners); and the oracle's counts at several x."""

    def check(ref, value):
        coeffs = coefficients(value)
        n = len(hypergraph.vertices)
        counts = ref.expect(("hyper-colourings", key), lambda: _hyper_colourings(hypergraph, n))
        return (
            len(coeffs) == n + 1
            and coeffs[n] == 1
            and coeffs[n - 1] == coeffs[n - 2] == 0
            and coeffs[n - 3] == -len(hypergraph.edges)
            and all(evaluate(coeffs, x) == c for x, c in counts.items())
        )

    return check


def _hyper_colourings(hypergraph, n):
    from brokencircuits import oracles

    # x = 3 on twelve vertices takes seconds in the naive oracle
    points = [x for x in colouring_points(n) if x**n <= 100_000]
    return {x: oracles.oracle_hyper_colourings(hypergraph, x) for x in points}


def check_domination(key, graph):
    def check(ref, value):
        from brokencircuits import oracles

        expected = ref.expect(("dominating", key), lambda: list(oracles.oracle_dominating(graph)))
        return coefficients(value) == expected

    return check


def check_scp(key, n_vertices, edge_ends):
    def check(ref, value):
        expected = ref.expect(("scp", key), lambda: induced_component_sum(n_vertices, edge_ends))
        return coefficients(value) == expected

    return check


def check_coefficients(expected):
    return lambda ref, value: coefficients(value) == expected


def check_equal(expected):
    return lambda ref, value: value == expected


def check_fraction(expected):
    return lambda ref, value: Fraction(value) == expected
