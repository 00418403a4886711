"""Finite lattices, Mobius functions, and crosscut reductions.

Rota's crosscut theorem computes mu(L) as an alternating sum over the
subsets of any crosscut whose meet is bottom and join is top.  Blass and
Sagan refined the atom case: fix an auxiliary partial order on the
crosscut; the sum may skip every subset containing a "broken" set B, one
where each b in B has a strictly smaller witness c lying strictly between
the meet and the join of B.  That refinement in fact holds for every
crosscut, by running the broken-circuit engine in dual form (the ground
order reversed, so minima play the role of maxima); this module
implements it that way.

A lattice is a ``core.FinitePoset`` with meet and join tables, and a
crosscut keeps its auxiliary order as a ``FinitePoset`` too, so the
closure, the linear extension and the comparisons are the poset's own.
"""

from __future__ import annotations

import itertools

from .core import CircuitFamily, FinitePoset, OrderedGroundSet, SetFunction, _Record
from .core import derive_broken_circuits, sum_pruned
from .errors import CapExceeded, PreconditionError, SchemaError

CROSSCUT_CAP = 20
PARTITION_CAP = 5
DIVISOR_COUNT_CAP = 64


class FiniteLattice(FinitePoset):
    """Finite lattice built from cover relations.

    The order is the reflexive-transitive closure of the covers.  A unique
    minimum and maximum must exist and every pair must have a meet and a
    join; otherwise construction fails with a witness pair.
    """

    _kind = "lattice"

    def __init__(self, elements, covers):
        elements = tuple(elements)
        if not elements:
            raise SchemaError("lattice must be nonempty")
        self._build(elements, covers, close=True)
        leq = self._leq
        n = len(elements)
        bottoms = self.minimal_elements()
        tops = self.maximal_elements()
        if len(bottoms) != 1:
            raise PreconditionError("lattice must have a unique minimum")
        if len(tops) != 1:
            raise PreconditionError("lattice must have a unique maximum")
        self._bottom = self._idx[bottoms[0]]
        self._top = self._idx[tops[0]]
        self._meet = [[None] * n for _ in range(n)]
        self._join = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m = self._bound(i, j, lower=True)
                if m is None:
                    raise PreconditionError(
                        f"elements {elements[i]!r} and {elements[j]!r} have no meet"
                    )
                jn = self._bound(i, j, lower=False)
                if jn is None:
                    raise PreconditionError(
                        f"elements {elements[i]!r} and {elements[j]!r} have no join"
                    )
                self._meet[i][j] = self._meet[j][i] = m
                self._join[i][j] = self._join[j][i] = jn
        # true covers, recomputed from the closed order
        self._covers_up = [set() for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j]:
                    if not any(
                        k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)
                    ):
                        self._covers_up[i].add(j)

    @classmethod
    def from_covers(cls, elements, covers):
        """The lattice constructor already takes covers."""
        return cls(elements, covers)

    def _bound(self, i, j, lower):
        n = len(self.elements)
        leq = self._leq
        if lower:
            candidates = [k for k in range(n) if leq[k][i] and leq[k][j]]
            for k in candidates:
                if all(leq[other][k] for other in candidates):
                    return k
        else:
            candidates = [k for k in range(n) if leq[i][k] and leq[j][k]]
            for k in candidates:
                if all(leq[k][other] for other in candidates):
                    return k
        return None

    def __repr__(self):
        return f"FiniteLattice({len(self.elements)} elements)"

    @property
    def bottom(self):
        return self.elements[self._bottom]

    @property
    def top(self):
        return self.elements[self._top]

    def meet(self, a, b):
        return self.elements[self._meet[self._index(a)][self._index(b)]]

    def join(self, a, b):
        return self.elements[self._join[self._index(a)][self._index(b)]]

    def meet_set(self, subset):
        """Meet of a subset; the empty meet is the top element."""
        acc = self._top
        for e in subset:
            acc = self._meet[acc][self._index(e)]
        return self.elements[acc]

    def join_set(self, subset):
        """Join of a subset; the empty join is the bottom element."""
        acc = self._bottom
        for e in subset:
            acc = self._join[acc][self._index(e)]
        return self.elements[acc]

    def middle(self):
        """All elements except bottom and top."""
        return tuple(
            e for i, e in enumerate(self.elements) if i not in (self._bottom, self._top)
        )

    def atoms(self):
        return tuple(self.elements[i] for i in sorted(self._covers_up[self._bottom]))

    def coatoms(self):
        n = len(self.elements)
        return tuple(
            self.elements[i] for i in range(n) if self._top in self._covers_up[i]
        )

    def maximal_chains(self):
        """All maximal chains from bottom to top, following covers in index order."""
        chains = []
        stack = [(self._bottom,)]
        while stack:
            path = stack.pop()
            if path[-1] == self._top:
                chains.append(tuple(self.elements[j] for j in path))
            else:
                stack += [path + (j,) for j in sorted(self._covers_up[path[-1]], reverse=True)]
        return chains


def mobius_function(lattice):
    """mu_L on every element, from the defining recursion
    sum_{y <= x} mu(y) = [x = bottom]."""
    mu = {}
    for x in lattice.linear_extension():
        below = sum(mu[y] for y in lattice.elements if lattice.lt(y, x))
        mu[x] = (1 if x == lattice.bottom else 0) - below
    return mu


def mobius(lattice):
    """mu(L) = mu_L(top)."""
    return mobius_function(lattice)[lattice.top]


def is_crosscut(lattice, subset):
    """Antichain avoiding bottom and top that meets every maximal chain."""
    if not lattice.middle():
        raise PreconditionError("crosscuts need a non-trivial lattice")
    subset = frozenset(subset)
    if not subset:
        return False
    for e in subset:
        if e in (lattice.bottom, lattice.top):
            return False
    for a, b in itertools.combinations(subset, 2):
        if lattice.le(a, b) or lattice.le(b, a):
            return False
    for chain in lattice.maximal_chains():
        if not subset & set(chain):
            return False
    return True


class Crosscut:
    """A crosscut together with an auxiliary partial order on it.

    The auxiliary order is given as precedence pairs (a, b) meaning
    a comes strictly below b; its reflexive-transitive closure must be
    antisymmetric.
    """

    def __init__(self, lattice, elements, precedence=()):
        self.lattice = lattice
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise SchemaError("crosscut elements must be pairwise distinct")
        if not is_crosscut(lattice, elements):
            raise PreconditionError(f"{[repr(e) for e in elements]} is not a crosscut")
        if len(elements) > CROSSCUT_CAP:
            raise CapExceeded(f"crosscut has more than {CROSSCUT_CAP} elements")
        self.elements = elements
        precedence = tuple(precedence)
        members = set(elements)
        for a, b in precedence:
            if a not in members or b not in members:
                raise SchemaError(f"precedence pair {(a, b)!r} leaves the crosscut")
        order = FinitePoset.from_covers(elements, precedence)
        # strict auxiliary precedence a before b, and the lexicographically
        # smallest topological order over the crosscut's input order
        self.precedes = order.lt
        self.linear_extension = order.linear_extension


def _check_atoms_only(lattice, elements, flag):
    # the meet-side conditions are redundant exactly for the atom crosscut;
    # dropping them elsewhere changes the sum
    if flag and set(elements) != set(lattice.atoms()):
        raise PreconditionError(
            "the meet condition can only be dropped for the crosscut of atoms"
        )


def rota_crosscut(lattice, crosscut, drop_meet_condition=False):
    """mu(L) as the alternating count of crosscut subsets with meet bottom
    and join top; asserted equal to the recursive value."""
    elements = crosscut.elements if isinstance(crosscut, Crosscut) else tuple(crosscut)
    if not is_crosscut(lattice, elements):
        raise PreconditionError("not a crosscut")
    if len(elements) > CROSSCUT_CAP:
        raise CapExceeded(f"crosscut has more than {CROSSCUT_CAP} elements")
    _check_atoms_only(lattice, elements, drop_meet_condition)
    total = 0
    for r in range(len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            if lattice.join_set(combo) != lattice.top:
                continue
            if not drop_meet_condition and lattice.meet_set(combo) != lattice.bottom:
                continue
            total += -1 if r & 1 else 1
    expected = mobius(lattice)
    if total != expected:
        raise RuntimeError(f"crosscut sum {total} differs from mu(L) = {expected}")
    return total


class BrokenCrosscutSet(_Record):
    """A pruned subset of the crosscut with its witnesses.

    ``witnesses`` maps each member b to the chosen c strictly preceding b
    in the auxiliary order with meet(B) < c < join(B); ``added`` is the
    linear-extension-minimal witness, and ``circuit`` = subset + added is
    the set fed to the engine, whose minimum is ``added``.
    """

    def __init__(self, subset: frozenset, witnesses: dict, added: object, circuit: frozenset):
        self._set(subset=subset, witnesses=witnesses, added=added, circuit=circuit)

    def __hash__(self):
        return hash((self.subset, self.added))


def blass_sagan_family(lattice, crosscut, drop_meet_bound=False):
    """All prunable subsets of the crosscut under its auxiliary order.

    A nonempty B qualifies when every b in B has a witness c in the
    crosscut with c strictly before b and meet(B) < c < join(B); with
    drop_meet_bound the lower bound is omitted (the atom-crosscut
    special case allows that).
    """
    if not isinstance(crosscut, Crosscut):
        raise SchemaError("need a Crosscut with its auxiliary order")
    elements = crosscut.elements
    if len(elements) > CROSSCUT_CAP:
        raise CapExceeded(f"crosscut has more than {CROSSCUT_CAP} elements")
    _check_atoms_only(lattice, elements, drop_meet_bound)
    lin = crosscut.linear_extension()
    # each member's possible witnesses, as positions in the linear extension
    candidates = {
        b: [j for j, c in enumerate(lin) if crosscut.precedes(c, b)] for b in elements
    }
    out = []
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            meet = lattice.meet_set(combo)
            join = lattice.join_set(combo)
            chosen = {}
            for b in combo:
                # the earliest candidate below the join and, unless dropped, above the meet
                j = next((j for j in candidates[b] if lattice.lt(lin[j], join)
                          and (drop_meet_bound or lattice.lt(meet, lin[j]))), None)
                if j is None:
                    break
                chosen[b] = j
            else:
                added = lin[min(chosen.values())]
                subset = frozenset(combo)
                witnesses = {b: lin[j] for b, j in chosen.items()}
                out.append(BrokenCrosscutSet(subset, witnesses, added, subset | {added}))
    return tuple(out)


def blass_sagan_mobius(
    lattice, crosscut, subfamily=None, family=None, drop_meet_condition=False
):
    """mu(L) from the crosscut sum pruned by broken crosscut subsets.

    Runs the broken-circuit engine in dual form: the crosscut is ordered
    by the reversed linear extension of the auxiliary order, so each
    circuit's minimum plays the maximum's role and the derived broken
    sets are exactly the prunable subsets.  Any subfamily of those may be
    used.  The result is asserted equal to the recursive Mobius value.
    """
    _check_atoms_only(lattice, crosscut.elements, drop_meet_condition)
    if family is None:
        family = blass_sagan_family(lattice, crosscut, drop_meet_bound=drop_meet_condition)
    broken_sets = [bs.subset for bs in family]
    if subfamily is None:
        chosen = broken_sets
    else:
        allowed = set(broken_sets)
        chosen = [frozenset(b) for b in subfamily]
        for b in chosen:
            if b not in allowed:
                raise PreconditionError(
                    f"{[repr(e) for e in sorted(b, key=repr)]} is not a prunable crosscut subset"
                )
    lin = crosscut.linear_extension()
    ground = OrderedGroundSet(tuple(reversed(lin)), cap=CROSSCUT_CAP)
    if family:
        circuits = CircuitFamily([bs.circuit for bs in family])
        derived = {bc.subset for bc in derive_broken_circuits(circuits, ground)}
        if derived != set(broken_sets):
            raise RuntimeError("dual-form bookkeeping failed: derived broken sets differ")
    bottom, top = lattice.bottom, lattice.top

    def fn(subset):
        if lattice.join_set(subset) != top:
            return 0
        if not drop_meet_condition and lattice.meet_set(subset) != bottom:
            return 0
        return -1 if len(subset) & 1 else 1

    value = sum_pruned(SetFunction(fn, 0, "crosscut-indicator"), ground, chosen)
    expected = mobius(lattice)
    if value != expected:
        raise RuntimeError(f"pruned crosscut sum {value} differs from mu(L) = {expected}")
    return value


def all_crosscuts(lattice):
    """Every crosscut, by exhaustive antichain search over the middle elements."""
    middle = lattice.middle()
    if len(middle) > CROSSCUT_CAP:
        raise CapExceeded("crosscut search needs at most "
                          f"{CROSSCUT_CAP} middle elements")
    chains = [set(c) for c in lattice.maximal_chains()]
    found = []
    # antichains of middle elements, exclusion first; inclusions wait on the stack
    stack = [(0, ())]
    while stack:
        idx, acc = stack.pop()
        for j, e in enumerate(middle[idx:], idx):
            if all(not lattice.le(e, o) and not lattice.le(o, e) for o in acc):
                stack.append((j + 1, acc + (e,)))
        if acc and all(any(e in chain for e in acc) for chain in chains):
            found.append(acc)
    return found


def boolean_lattice(n):
    """Subsets of {0..n-1} ordered by inclusion; elements are bitmask ints."""
    elements = list(range(1 << n))
    covers = [
        (m, m | (1 << i)) for m in elements for i in range(n) if not m >> i & 1
    ]
    return FiniteLattice(elements, covers)


def divisor_lattice(n):
    """Divisors of n ordered by divisibility."""
    from .numbers import divisors, prime_factors

    divs = divisors(n)
    if len(divs) > DIVISOR_COUNT_CAP:
        raise CapExceeded(f"divisor lattice needs d(n) <= {DIVISOR_COUNT_CAP}")
    primes = prime_factors(n)
    covers = [(d, d * p) for d in divs for p in primes if n % (d * p) == 0]
    return FiniteLattice(divs, covers)


def partition_lattice(n):
    """Set partitions of {1..n} ordered by refinement; labels like '12|3'."""
    if n > PARTITION_CAP:
        raise CapExceeded(f"partition lattice needs n <= {PARTITION_CAP}")

    def label(blocks):
        return "|".join(
            "".join(str(x) for x in sorted(b)) for b in sorted(blocks, key=min)
        )

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] | {first}] + part[i + 1 :]
            yield part + [{first}]

    parts = [tuple(frozenset(b) for b in p) for p in partitions(list(range(1, n + 1)))]
    labels = {p: label(p) for p in parts}
    covers = []
    for p in parts:
        blocks = list(p)
        for i, j in itertools.combinations(range(len(blocks)), 2):
            merged = [b for k, b in enumerate(blocks) if k not in (i, j)]
            merged.append(blocks[i] | blocks[j])
            q = tuple(frozenset(b) for b in merged)
            target = next(t for t in parts if set(t) == set(q))
            covers.append((labels[p], labels[target]))
    ordered = sorted(set(labels.values()), key=lambda s: (-s.count("|"), s))
    return FiniteLattice(ordered, covers)
