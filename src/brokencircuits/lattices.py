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

A lattice is a ``core.FinitePoset``: each element carries its down-set
and up-set as int masks.  The meet of a set is the element whose
down-set is the AND of theirs and the join the one whose up-set is the
AND of theirs, one dict lookup each, and b covers a exactly when
up(a) & down(b) = {a, b}; there are no meet or join tables.  A crosscut
keeps its auxiliary order as a ``FinitePoset`` too, so the closure, the
linear extension and the comparisons are the poset's own.  The crosscut
test is one cover-reachability sweep, and both crosscut sums are ``core``
kernel folds of (AND of up-sets, AND of down-sets).  A lattice's |L|^2 pair
checks, predicted by every generator before it builds one, and the 2^|C|
subsets that some crosscut routes list are refused past the work budget.
"""

from __future__ import annotations

import itertools

from .core import WORK_BUDGET, CircuitFamily, FinitePoset, OrderedGroundSet, _Record, _bits
from .core import _broken_masks, _chosen_broken, _image_fold, _within_budget
from .core import derive_broken_circuits, iter_avoiding_masks
from .errors import CrossCheckFailed, PreconditionError, SchemaError


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
        _within_budget(len(elements) ** 2, f"lattice has {len(elements)} elements")
        self._build(elements, covers, close=True)
        bottoms = self.minimal_elements()
        tops = self.maximal_elements()
        if len(bottoms) != 1:
            raise PreconditionError("lattice must have a unique minimum")
        if len(tops) != 1:
            raise PreconditionError("lattice must have a unique maximum")
        self._bottom = self._idx[bottoms[0]]
        self._top = self._idx[tops[0]]
        up, down, n = self._up, self._down, len(elements)
        self._by_down = {row: i for i, row in enumerate(down)}
        for i in range(n):
            for j in range(i, n):
                if down[i] & down[j] not in self._by_down:
                    raise PreconditionError(
                        f"elements {elements[i]!r} and {elements[j]!r} have no meet"
                    )
                if up[i] & up[j] not in self._by_up:
                    raise PreconditionError(
                        f"elements {elements[i]!r} and {elements[j]!r} have no join"
                    )
        # b covers a exactly when nothing else lies between them
        self._covers_up = [
            [j for j in _bits(up[i] ^ (1 << i)) if up[i] & down[j] == (1 << i) | (1 << j)]
            for i in range(n)
        ]

    @classmethod
    def from_covers(cls, elements, covers):
        """The lattice constructor already takes covers."""
        return cls(elements, covers)

    def __repr__(self):
        return f"FiniteLattice({len(self.elements)} elements)"

    @property
    def bottom(self):
        return self.elements[self._bottom]

    @property
    def top(self):
        return self.elements[self._top]

    def meet(self, a, b):
        return self.meet_set((a, b))

    def meet_set(self, subset):
        """Meet of a subset; the empty meet is the top element."""
        mask = self._down[self._top]
        for e in subset:
            mask &= self._down[self._index(e)]
        return self.elements[self._by_down[mask]]

    def join_set(self, subset):
        """Join of a subset; the empty join is the bottom element."""
        mask = self._up[self._bottom]
        for e in subset:
            mask &= self._up[self._index(e)]
        return self.elements[self._by_up[mask]]

    def covers(self):
        """The cover pairs (a, b), by the index of a and then of b."""
        return [(self.elements[i], self.elements[j])
                for i, above in enumerate(self._covers_up) for j in above]

    def middle(self):
        """All elements except bottom and top."""
        return tuple(
            e for i, e in enumerate(self.elements) if i not in (self._bottom, self._top)
        )

    def atoms(self):
        return tuple(self.elements[i] for i in self._covers_up[self._bottom])

    def coatoms(self):
        return tuple(
            self.elements[i] for i, above in enumerate(self._covers_up) if self._top in above
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
                stack += [path + (j,) for j in reversed(self._covers_up[path[-1]])]
        return chains


def mobius_function(lattice):
    """mu_L on every element, from the defining recursion
    sum_{y <= x} mu(y) = [x = bottom]."""
    down = lattice._down
    order = [lattice._index(x) for x in lattice.linear_extension()]
    mu = [0] * len(order)
    for i in order:
        below = sum(mu[j] for j in _bits(down[i] ^ (1 << i)))
        mu[i] = (1 if i == lattice._bottom else 0) - below
    return {lattice.elements[i]: mu[i] for i in order}


def mobius(lattice):
    """mu(L) = mu_L(top)."""
    return mobius_function(lattice)[lattice.top]


def _top_reachable(lattice, avoid):
    """Whether a walk up the covers from bottom reaches top without
    entering the ``avoid`` mask, i.e. some maximal chain misses it."""
    reached = 1 << lattice._bottom
    stack = [lattice._bottom]
    while stack:
        for j in lattice._covers_up[stack.pop()]:
            if not (reached | avoid) >> j & 1:
                reached |= 1 << j
                stack.append(j)
    return bool(reached >> lattice._top & 1)


def is_crosscut(lattice, subset):
    """Antichain avoiding bottom and top that meets every maximal chain."""
    if not lattice.middle():
        raise PreconditionError("crosscuts need a non-trivial lattice")
    members = {lattice._index(e) for e in subset}
    if not members or not members.isdisjoint((lattice._bottom, lattice._top)):
        return False
    mask = sum(1 << i for i in members)
    up, down = lattice._up, lattice._down
    if any((up[i] | down[i]) & mask != 1 << i for i in members):
        return False
    return not _top_reachable(lattice, mask)


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


def _crosscut_fold(lattice, elements, drop_meet_condition):
    """``(start, include, key)`` folding subsets of ``elements`` (position
    i is ``elements[i]``) to (AND of up-sets, AND of down-sets), keyed by
    whether the subset counts: join top and, unless dropped, meet bottom.
    A dropped meet condition keeps the down-set half at everything."""
    _check_atoms_only(lattice, elements, drop_meet_condition)
    up, down, index = lattice._up, lattice._down, lattice._idx
    everything = up[lattice._bottom]
    ups = [up[index[e]] for e in elements]
    downs = [everything if drop_meet_condition else down[index[e]] for e in elements]
    goal = (up[lattice._top], everything if drop_meet_condition else down[lattice._bottom])

    def include(i, state):
        return state[0] & ups[i], state[1] & downs[i]

    return (everything, everything), include, goal.__eq__


def rota_crosscut(lattice, crosscut, drop_meet_condition=False):
    """mu(L) as the alternating count of crosscut subsets with meet bottom
    and join top, swept over the distinct (join, meet) states of the
    subsets; asserted equal to the recursive value."""
    if not isinstance(crosscut, Crosscut):
        crosscut = Crosscut(lattice, crosscut)
    elements = crosscut.elements
    fold = _crosscut_fold(lattice, elements, drop_meet_condition)
    total = _image_fold(len(elements), *fold).get(True, 0)
    expected = mobius(lattice)
    if total != expected:
        raise CrossCheckFailed(f"crosscut sum {total} differs from mu(L) = {expected}")
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
    _check_atoms_only(lattice, elements, drop_meet_bound)
    _within_budget(1 << len(elements), f"crosscut has {len(elements)} elements")
    up, down, index = lattice._up, lattice._down, lattice._idx
    lin = crosscut.linear_extension()
    # each member's possible witnesses: position in the linear extension, lattice bit
    candidates = {
        b: [(j, 1 << index[c]) for j, c in enumerate(lin) if crosscut.precedes(c, b)]
        for b in elements
    }
    everything = up[lattice._bottom]
    out = []
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            above = below = everything
            for b in combo:
                above &= up[index[b]]
                below &= down[index[b]]
            # a witness lies strictly below the join and, unless dropped, above the meet
            join = lattice._by_up[above]
            between = down[join] ^ (1 << join)
            if not drop_meet_bound:
                meet = lattice._by_down[below]
                between &= up[meet] ^ (1 << meet)
            chosen = {}
            for b in combo:
                j = next((j for j, bit in candidates[b] if between & bit), None)
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
    used; the kernel sweeps the distinct (join, meet) states of the
    subsets that avoid it, as ``rota_crosscut`` does with no broken sets.
    The result is asserted equal to the recursive Mobius value.
    """
    if family is None:
        family = blass_sagan_family(lattice, crosscut, drop_meet_bound=drop_meet_condition)
    broken_sets = [bs.subset for bs in family]
    chosen = _chosen_broken(broken_sets, subfamily, "a prunable crosscut subset")
    lin = crosscut.linear_extension()
    _within_budget(1 << len(lin), f"crosscut has {len(lin)} elements")
    ground = OrderedGroundSet(tuple(reversed(lin)))
    if family:
        circuits = CircuitFamily([bs.circuit for bs in family])
        derived = {bc.subset for bc in derive_broken_circuits(circuits, ground)}
        if derived != set(broken_sets):
            raise CrossCheckFailed("dual-form bookkeeping failed: derived broken sets differ")
    fold = _crosscut_fold(lattice, ground.elements, drop_meet_condition)
    value = _image_fold(len(ground), *fold, broken=_broken_masks(ground, chosen)).get(True, 0)
    expected = mobius(lattice)
    if value != expected:
        raise CrossCheckFailed(f"pruned crosscut sum {value} differs from mu(L) = {expected}")
    return value


def all_crosscuts(lattice):
    """Every crosscut: the nonempty antichains of middle elements (the
    subsets that include no comparable pair, in the order of
    ``iter_avoiding_masks``) that meet every maximal chain."""
    middle = lattice.middle()
    _within_budget(1 << len(middle), f"lattice has {len(middle)} middle elements")
    ground, comparable = lattice._pair_ground(comparable=True, elements=middle)
    bits = [1 << lattice._idx[e] for e in middle]
    found = []
    for mask in iter_avoiding_masks(ground, comparable):
        positions = list(_bits(mask))
        if positions and not _top_reachable(lattice, sum(bits[j] for j in positions)):
            found.append(tuple(middle[j] for j in positions))
    return found


def boolean_lattice(n):
    """Subsets of {0..n-1} ordered by inclusion; elements are bitmask ints."""
    if n < 0:
        raise PreconditionError(f"boolean lattice needs n >= 0, got {n}")
    _within_budget(4 ** min(n, WORK_BUDGET.bit_length()), f"boolean lattice has 2^{n} elements")
    elements = list(range(1 << n))
    covers = [
        (m, m | (1 << i)) for m in elements for i in range(n) if not m >> i & 1
    ]
    return FiniteLattice(elements, covers)


def divisor_lattice(n):
    """Divisors of n ordered by divisibility; d(n) <= 240 under FACTOR_CAP."""
    from .numbers import divisors, prime_factors

    divs = divisors(n)
    primes = prime_factors(n)
    covers = [(d, d * p) for d in divs for p in primes if n % (d * p) == 0]
    return FiniteLattice(divs, covers)


def partition_lattice(n):
    """Set partitions of {1..n} ordered by refinement; labels like '12|3'."""
    if n < 0:
        raise PreconditionError(f"partition lattice needs n >= 0, got {n}")
    # the Bell triangle: row k starts with Bell(k), which grows with k
    row = [1]
    for _ in range(n):
        row = list(itertools.accumulate(row, initial=row[-1]))
        _within_budget(row[0] ** 2, f"partition lattice has Bell({n}) elements")

    def label(blocks):
        return "|".join(
            "".join(str(x) for x in sorted(b)) for b in sorted(blocks, key=min)
        )

    parts = [[]]
    for x in range(1, n + 1):
        parts = [part[:i] + [part[i] | {x}] + part[i + 1:] for part in parts
                 for i in range(len(part))] + [part + [{x}] for part in parts]
    covers = []
    for blocks in parts:
        for i, j in itertools.combinations(range(len(blocks)), 2):
            merged = [b for k, b in enumerate(blocks) if k not in (i, j)]
            merged.append(blocks[i] | blocks[j])
            covers.append((label(blocks), label(merged)))
    ordered = sorted(map(label, parts), key=lambda s: (-s.count("|"), s))
    return FiniteLattice(ordered, covers)
