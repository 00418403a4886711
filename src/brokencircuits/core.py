"""Generalized broken-circuit engine.

Whitney's broken circuit theorem expresses the chromatic polynomial as an
alternating sum over the cycle-free edge subsets only.  The same pruning
works for any sum of the form sum_{A subset of S} f(A) into an abelian
group, provided f cancels across the maximum element of each distinguished
"circuit": f(A) + f(A \\ {max C}) = 0 whenever A contains C.  The sum can
then be restricted to the subsets that include no broken circuit
C \\ {max C}, for any chosen sub-family of broken circuits.

This module implements that reduction for arbitrary set functions,
together with its poset and semilattice specializations (sums over
subsets of maximal elements, and over chains), the maximum-minimums
identity, and broken-circuit-restricted inclusion-exclusion including
Narushima's chain form.

Subsets are handled internally as bitmasks over the ground order; the
public interface speaks frozensets of labels.  All engines are pure
functions over immutable inputs, so concurrent use is safe.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import reduce
from math import comb
from operator import itemgetter, or_

from .errors import CapExceeded, CrossCheckFailed, PreconditionError, SchemaError

CANCELLATION_CAP = 18
# every route refuses up front when the steps it predicts pass this, a walk or sweep as it goes
WORK_BUDGET = 1 << 20
# iter_avoiding_masks expands its last elements, and sum_pruned its lowest,
# at most this many, from tables of at most 2^SUFFIX_CUBE_BITS masks; the
# walk keeps one such table per group of broken sets crossing into its suffix
SUFFIX_CUBE_BITS = 10


def _within_budget(work, what):
    """Refuse, naming the input size ``what``, ``work`` steps past WORK_BUDGET."""
    if work > WORK_BUDGET:
        raise CapExceeded(f"{what}: past the work budget of {WORK_BUDGET} steps")


def _mask_words(n):
    """Steps one subset of n elements costs a walk: the 64-bit words of its mask."""
    return (n + 63) // 64 or 1


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class OrderedGroundSet:
    """Finite linearly ordered ground set; the order is the input order."""

    __slots__ = ("elements", "_pos")

    def __init__(self, elements):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise SchemaError("ground set labels must be pairwise distinct")
        self.elements = elements
        self._pos = {e: i for i, e in enumerate(elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element):
        return element in self._pos

    def __eq__(self, other):
        if isinstance(other, OrderedGroundSet):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"OrderedGroundSet({list(self.elements)!r})"

    def position(self, element):
        try:
            return self._pos[element]
        except KeyError:
            raise PreconditionError(f"element {element!r} is not in the ground set") from None

    def mask_of(self, subset):
        m = 0
        for e in subset:
            m |= 1 << self.position(e)
        return m

    def subset_of(self, mask):
        els = self.elements
        return frozenset(els[i] for i in _bits(mask))

    def max_of(self, subset):
        """Largest element of a subset in the ground order."""
        pos = -1
        for e in subset:
            p = self.position(e)
            if p > pos:
                pos = p
        if pos < 0:
            raise PreconditionError("the empty set has no maximum")
        return self.elements[pos]

    def permuted(self, positions):
        """Reorder by a permutation of positions (new order = elements[p] for p in positions)."""
        if sorted(positions) != list(range(len(self.elements))):
            raise SchemaError("not a permutation of the element positions")
        return OrderedGroundSet(tuple(self.elements[p] for p in positions))


class SetFunction:
    """Mapping from subsets of a ground set into an abelian group.

    Values must support ``+``; ``zero`` is the neutral element used to
    start accumulations and to test cancellation.  The callable receives a
    frozenset of labels and must be deterministic.
    """

    def __init__(self, fn, zero, name="f"):
        self._fn = fn
        self.zero = zero
        self.name = name

    def __call__(self, subset):
        return self._fn(subset)

    def mask_function(self, ground):
        """Adapter used by the engines: bitmask -> value."""
        fn = self._fn
        subset_of = ground.subset_of
        return lambda mask: fn(subset_of(mask))

    def __repr__(self):
        return f"SetFunction({self.name})"


class TableSetFunction(SetFunction):
    """Set function backed by a precomputed per-subset table."""

    def __init__(self, ground, table, zero=0, name="table", default=None):
        n = len(ground)
        _within_budget(1 << n, f"a table over 2^{n} subsets")
        if isinstance(table, dict):
            dense = [default] * (1 << n)
            for subset, value in table.items():
                dense[ground.mask_of(subset)] = value
            if any(v is None for v in dense):
                raise SchemaError("table is incomplete and no default value was given")
        else:
            dense = list(table)
            if len(dense) != (1 << n):
                raise SchemaError(f"table must have 2^{n} entries")
        self._ground = ground
        self._table = dense
        super().__init__(lambda s: dense[ground.mask_of(s)], zero, name)

    def mask_function(self, ground):
        if ground.elements == self._ground.elements:
            return self._table.__getitem__
        return super().mask_function(ground)


def sign_function(name="sign"):
    """f(A) = (-1)^|A| into the integers."""
    return SetFunction(lambda s: -1 if len(s) & 1 else 1, 0, name)


class CircuitFamily:
    """Family of distinguished nonempty subsets of a ground set."""

    def __init__(self, circuits):
        circuits = tuple(frozenset(c) for c in circuits)
        for c in circuits:
            if not c:
                raise SchemaError("circuits must be nonempty")
        self.circuits = circuits

    def __iter__(self):
        return iter(self.circuits)

    def __len__(self):
        return len(self.circuits)

    def __repr__(self):
        return f"CircuitFamily({len(self.circuits)} circuits)"


class _Record:
    """Immutable record: equal, hashed and printed by the fields __init__ stores, in order."""

    def _set(self, **fields):
        # one attribute at a time, so instances share their dict keys
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class BrokenCircuit(_Record):
    """A circuit with its maximum element removed, plus the witness circuit."""

    def __init__(self, subset: frozenset, witness: frozenset):
        self._set(subset=subset, witness=witness)


def derive_broken_circuits(family, ground):
    """Broken circuits {C \\ {max C}} of a family, deduplicated.

    Each broken set keeps the first circuit that produced it as witness.
    """
    out = []
    seen = set()
    for circuit in family:
        for e in circuit:
            if e not in ground:
                raise PreconditionError(
                    f"circuit element {e!r} is not in the ground set"
                )
        broken = circuit - {ground.max_of(circuit)}
        if broken not in seen:
            seen.add(broken)
            out.append(BrokenCircuit(broken, circuit))
    return tuple(out)


def _chosen_broken(derived, choice, what):
    """The broken sets a pruned sum runs over: every ``derived`` set when
    ``choice`` is None or "all", else the sets of ``choice`` as frozensets,
    each of which must be derived (any sub-family may prune); ``what``
    names a derived set in the refusal."""
    if choice is None or choice == "all":
        return derived
    allowed = set(derived)
    chosen = [frozenset(b) for b in choice]
    for b in chosen:
        if b not in allowed:
            raise PreconditionError(f"{sorted(map(repr, b))} is not {what}")
    return chosen


def _broken_masks(ground, broken):
    """Bitmasks of broken sets given as frozensets or BrokenCircuit records."""
    return [
        ground.mask_of(b.subset if isinstance(b, BrokenCircuit) else b) for b in broken
    ]


def _minimal_masks(masks):
    """The inclusion-minimal members of ``masks``, each once.  A subset
    avoids a family exactly when it avoids the family's minimal members, so
    both kernels prune by these alone."""
    minimal = []
    # a mask can only include a strictly smaller one
    for _, group in itertools.groupby(sorted(set(masks), key=int.bit_count), int.bit_count):
        smaller = tuple(minimal)
        minimal += [m for m in group if all(m & b != b for b in smaller)]
    return minimal


def _prefixes_by_max(n, masks, by_min=False):
    """Index distinct broken masks by their maximum position, or by their
    minimum one when ``by_min``: the position a walk decides last.

    Returns ``(by_max, end)``: ``by_max[i]`` holds the masks indexed at
    position i with that position removed, and ``end`` is one past the
    largest maximum (0 with no masks), so every subset of the positions
    from ``end`` on is free.  Both kernels pass the distinct minimal masks,
    so no prefix repeats.  ``by_max`` is None when a mask is empty: the
    empty set lies in every subset, so none avoids it.
    """
    by_max = [[] for _ in range(n)]
    end = 0
    for m in masks:
        if m == 0:
            return None, 0
        bit = m & -m if by_min else 1 << (m.bit_length() - 1)
        by_max[bit.bit_length() - 1].append(m ^ bit)
        end = max(end, m.bit_length())
    # the walk iterates tuples faster than lists
    return [tuple(prefixes) for prefixes in by_max], end


def _downward(positions):
    """Whether a walk over ``positions`` decides them in decreasing order,
    so that the position of a mask it decides last is the mask's minimum."""
    return len(positions) > 1 and positions[0] > positions[-1]


def _avoiding_prefixes(n, masks, positions, block):
    """Yield every subset of ``positions`` that includes none of ``masks``,
    the distinct minimal broken masks over n positions, each of which lies
    within ``positions``.  Each one stands for a block of ``block`` avoiding
    subsets, which the caller expands: itself with each of them.

    The walk decides the positions in the order given, increasing or
    decreasing, exclusion before inclusion, so the prefixes come out in a
    fixed order: the first position is the most significant choice and
    "absent" sorts before "present".  Each mask is indexed by the position
    of it decided last; when the walk considers adding position p, a mask
    indexed at p whose other positions are already present forbids the
    inclusion branch.  An empty mask forbids everything.  A position's
    one-bit prefixes are folded into one mask, so one AND tests them all.
    Decreasing positions yield the prefixes in increasing order.

    The walk keeps an explicit stack: it follows the exclusion branch at
    once and pushes the allowed inclusion branch, so at most one entry per
    position is pending and the working memory is O(n).  A subset costs
    ``_mask_words(n)`` steps, and the walk is refused once it is sure to
    pass WORK_BUDGET: up front by the subsets of the positions in no mask,
    which all avoid them, times ``block``, else at the push whose block
    passes it.  So a walk refuses at the same number of avoiding subsets
    whatever its ``positions`` and ``block``.
    """
    by_last, _ = _prefixes_by_max(n, masks, by_min=_downward(positions))
    if by_last is None:
        return
    what = f"the walk over {n} elements"
    words = _mask_words(n)
    free = len(positions) - reduce(or_, masks, 0).bit_count()
    _within_budget(2 ** min(free, WORK_BUDGET.bit_length()) * block * words, what)
    # each decided position in walk order: the OR of its one-bit prefixes and
    # its other prefixes, the empty one (left by a one-element set) included
    steps = [(reduce(or_, (q for q in by_last[p] if q.bit_count() == 1), 0),
              tuple(q for q in by_last[p] if q.bit_count() != 1), p) for p in positions]
    cube = len(steps)
    stack = [(0, 0)]
    pop = stack.pop
    push = stack.append
    # each pushed entry yields one block when popped, so the stack holds at
    # most the blocks the budget allows (one at least: a block is free)
    blocks = WORK_BUDGET // (block * words)
    room = blocks - 1
    while stack:
        i, acc = pop()
        while i < cube:
            single, prefixes, pos = steps[i]
            i += 1
            if acc & single:
                continue
            for prefix in prefixes:
                if acc & prefix == prefix:
                    break
            else:
                if not room:
                    _within_budget((blocks + 1) * block * words, what)
                room -= 1
                push((i, acc | (1 << pos)))
        yield acc


def _avoiding_table(n, masks, positions):
    """Every subset of ``positions`` that includes none of ``masks``, each
    of which lies within them, as a list built by doubling: each position
    in the order given appends the allowed inclusions to the list so far.
    Increasing positions give increasing masks; decreasing ones give the
    walk order of ``_avoiding_prefixes``.
    """
    by_last, _ = _prefixes_by_max(n, masks, by_min=_downward(positions))
    table = [0]
    for pos in positions:
        bit = 1 << pos
        checks = by_last[pos]
        if checks:
            table += [t | bit for t in table if all(t & q != q for q in checks)]
        else:
            table += [t | bit for t in table]
    return table


def iter_avoiding_masks(ground, broken):
    """Yield bitmasks of every subset that includes no broken set.

    The masks come out in the order of ``_avoiding_prefixes``: position 0
    is the most significant choice and "absent" sorts before "present".
    The walk prunes by the minimal broken sets alone.  It decides the
    positions below a cut SUFFIX_CUBE_BITS from the top and expands the
    rest from a table: the cube of the positions from the cut on, less
    the subsets that include the high part of a set crossing the cut
    whose low part the prefix holds.  The crossing sets are grouped by
    their low part, ordered by its last position, so a prefix that first
    differs from the one before at p keeps the tables of the groups that
    end below p and refilters the rest, each from the one before.  Only
    those tables are kept, one per group.  The walk is refused by the
    work budget as ``_avoiding_prefixes`` is, and at the latest at the
    prefix whose subsets pass it.
    """
    n = len(ground)
    masks = _minimal_masks(_broken_masks(ground, broken))
    if 0 in masks:  # the empty set lies in every subset
        return
    cut = max(n - SUFFIX_CUBE_BITS, 0)
    below = (1 << cut) - 1
    groups = {}
    for m in masks:
        if m >> cut:
            groups.setdefault(m & below, []).append(m & ~below)
    groups = sorted(groups.items(), key=lambda g: g[0].bit_length())
    ends = [lo.bit_length() for lo, _ in groups]
    free = n - cut - (reduce(or_, masks, 0) >> cut).bit_count()
    prefixes = _avoiding_prefixes(n, [m for m in masks if not m >> cut], range(cut), 1 << free)
    cube = _avoiding_table(n, [], range(n - 1, cut - 1, -1))
    path = [cube] * len(groups)
    count = last = 0
    words = _mask_words(n)
    for acc in prefixes:  # the first is 0, which refilters every group
        moved, last = acc ^ last, acc
        k = bisect_left(ends, (moved & -moved).bit_length())
        suffix = path[k - 1] if k else cube
        for j, (lo, highs) in enumerate(groups[k:], k):
            if acc & lo == lo:
                for h in highs:
                    suffix = [s for s in suffix if s & h != h]
            path[j] = suffix
        # a prefix may stand for more than the walk counts it for
        count += len(suffix)
        if count * words > WORK_BUDGET:
            _within_budget(count * words, f"the walk over {n} elements")
        for s in suffix:
            yield acc | s


def _image_fold(n, start, include, key, settle=None, broken=()):
    """Signed histogram {key(s_A): sum of (-1)^|A|} over the subsets A of
    positions 0..n-1 that include none of the ``broken`` masks, zero
    counts dropped.

    The state of the empty set is ``start``; including position i in a
    subset whose positions all lie below i maps its state s to
    ``include(i, s)``.  The sum is swept level by level over distinct
    states instead of subsets: position i adds each state's signed count,
    negated, at ``include(i, state)``, and states that cancel are dropped.
    The work is the sum of the distinct states per level, n times a small
    image (a gcd, lcm, hull, neighbourhood union, frontier partition or
    contracted minor).  Each state a level expands costs ``_mask_words(n)``
    steps, as a subset of the pruned walk does, and the sweep is refused
    before the level that would take its total past WORK_BUDGET: one check
    per level.  Level i expands at most 2^i states, 2^n - 1 in all, so a
    route that predicts its 2^n subsets within the budget is never refused
    here.

    ``settle(i, state)``, when given, maps every state after position i,
    both the subsets that take i and those that do not.  It forgets what no
    later position can read, so states that differ only there become one;
    ``key`` must not depend on what it forgets.  A state that ``include``
    or ``settle`` maps to None is dropped, with every subset it stands for.

    The states are grouped by a flag word, one bit per distinct (prefix,
    maximum) pair of the minimal ``broken`` masks, set while every prefix
    position decided so far was taken: leaving out p clears the bits of
    the prefixes that hold p, a group whose bits for maximum i are still
    set cannot take i, and after position i those bits are cleared, so the
    groups merge again.  Without masks there is one group, flag word 0.
    ``include``, ``settle`` and ``key`` see only the caller's state.  An
    empty mask leaves no subset.
    """
    minimal = _minimal_masks(broken)
    by_max, _ = _prefixes_by_max(n, minimal)
    if by_max is None:
        return {}
    pairs = [(top, prefix) for top, prefixes in enumerate(by_max) for prefix in prefixes]
    # per position: the bits of the pairs with that maximum, and of the prefixes that hold it
    done = [sum(1 << k for k, (top, _) in enumerate(pairs) if top == i) for i in range(n)]
    held = [sum(1 << k for k, (_, prefix) in enumerate(pairs) if prefix >> i & 1) for i in range(n)]
    level = {(1 << len(pairs)) - 1: {start: 1}}
    words, work = _mask_words(n), 0
    for i in range(n):
        work += sum(map(len, level.values())) * words
        _within_budget(work, f"the sweep over {n} positions")
        nxt = {}
        dead, kept = done[i], ~(done[i] | held[i])
        for flags, states in level.items():
            left = nxt.setdefault(flags & kept, {})
            if left:
                for state, count in states.items():
                    left[state] = left.get(state, 0) + count
            else:
                left.update(states)
            # a group that may take i has its bits for maximum i cleared already
            if not flags & dead:
                taken = nxt.setdefault(flags, {})
                get = taken.get
                for state, count in states.items():
                    image = include(i, state)
                    if image is not None:
                        taken[image] = get(image, 0) - count
        level = {}
        for flags, states in nxt.items():
            if settle is not None:
                states, unsettled = {}, states
                for state, count in unsettled.items():
                    state = settle(i, state)
                    if state is not None:
                        states[state] = states.get(state, 0) + count
            states = {state: count for state, count in states.items() if count}
            if states:
                level[flags] = states
    hist = {}
    for states in level.values():
        for state, count in states.items():
            k = key(state)
            hist[k] = hist.get(k, 0) + count
    return {k: count for k, count in hist.items() if count}


def _block_settler(n, last, blank):
    """``settle`` hook for (statistic, labels) states over vertex blocks.

    ``labels`` holds one character per vertex: the character of the
    smallest live vertex of its block, or ``blank``.  After position i of
    the n positions, the vertices v with ``last[v] == i`` are blanked; a
    vertex that named its block hands the name to the block's smallest
    remaining vertex, so equal partitions of the live vertices give equal
    strings.
    """
    settled_at = [[] for _ in range(n)]
    for v, pos in last.items():
        settled_at[pos].append(v)

    def settle(pos, state):
        vertices = settled_at[pos]
        if not vertices:
            return state
        stat, labels = state
        for v in vertices:
            name = labels[v]
            if name == blank:
                continue
            labels = labels[:v] + blank + labels[v + 1:]
            if name == chr(v):
                heir = labels.find(name)
                if heir >= 0:
                    labels = labels.replace(name, chr(heir))
        return stat, labels

    return settle


def _component_histogram(n_vertices, edges, broken=()):
    """Signed histogram {c(V, A): sum of (-1)^|A|} over the edge subsets A
    that include none of the ``broken`` edge masks, with zero counts dropped.

    ``edges`` lists each edge as a tuple of vertex indices.  The sum is
    swept over frontier partitions: the state is the component count plus
    a string holding one character per vertex that some edge touches (the
    others are components on their own), naming its block by its smallest
    live vertex, so merging two blocks is one ``str.replace``, and a vertex
    is settled after its last edge, since it can no longer change the count
    (Sekine, Imai and Tani, "Computing the Tutte polynomial of a graph of
    moderate size", ISAAC 1995).  The guard counts states, not characters,
    and a merge or settle passes over the whole string once per vertex of
    its edge, so the sweep is refused up front when the edge ends times
    the string's ``_mask_words`` pass the budget.  That keeps the labels to
    at most 8,192 characters, all of them code points.
    """
    touched = sorted({v for vs in edges for v in vs})
    ends = sum(map(len, edges))
    _within_budget(_mask_words(len(touched)) * ends,
                   f"{len(touched)} frontier labels passed at {ends} edge ends")
    index = {v: k for k, v in enumerate(touched)}
    edges = [tuple(map(index.__getitem__, vs)) for vs in edges]
    start = (n_vertices, "".join(map(chr, range(len(touched)))))

    def merge(pos, state):
        count, labels = state
        vs = edges[pos]
        low = min([labels[v] for v in vs])
        for v in vs:
            name = labels[v]
            if name != low:
                labels = labels.replace(name, low)
                count -= 1
        return count, labels

    last = {v: pos for pos, vs in enumerate(edges) for v in vs}
    settle = _block_settler(len(edges), last, chr(len(touched)))
    return _image_fold(len(edges), start, merge, itemgetter(0), settle, broken)


def _component_count(n_vertices, edges):
    """Connected components of n_vertices vertices once each edge, a tuple
    of vertex indices, glues its vertices together (union-find)."""
    parent = list(range(n_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count = n_vertices
    for vs in edges:
        first = find(vs[0])
        for w in vs[1:]:
            rw = find(w)
            if rw != first:
                parent[rw] = first
                count -= 1
    return count


def avoiding_subsets(ground, broken):
    """The broken-set-avoiding subsets as frozensets."""
    return [ground.subset_of(m) for m in iter_avoiding_masks(ground, broken)]


def _group_sum(values, zero):
    """``zero`` plus the sum of ``values``, meant for exact values: a type with
    a ``sum_of`` classmethod adds them itself, else the builtin ``sum`` adds
    (in C for ints; it would compensate floats from Python 3.12 on).
    """
    sum_of = getattr(type(zero), "sum_of", None)
    if sum_of is not None:
        return zero + sum_of(values)
    return sum(values, zero)


def sum_full(f, ground):
    """Exact sum of f over all 2^n subsets (the unrestricted side)."""
    _within_budget(1 << len(ground), f"the full sum over 2^{len(ground)} subsets")
    return _group_sum(map(f.mask_function(ground), range(1 << len(ground))), f.zero)


def sum_pruned(f, ground, broken):
    """Sum of f over the subsets that include no broken set, each evaluated once.

    A table decides the lowest SUFFIX_CUBE_BITS positions, less those of
    every minimal broken set that reaches above them, so that each set
    lies within the table's positions or misses them.  It holds every
    subset of its positions that avoids the sets within, and doubles by
    the lowest free positions above them while it stays within
    2^SUFFIX_CUBE_BITS masks.  The walk decides the other positions from
    the top down, against the other sets, and each avoiding prefix ``acc``
    stands for the block ``map(acc.__or__, table)``, mapped through f in
    C.  The prefixes come in increasing order and a block spans few
    positions, so consecutive blocks read nearby masks wherever the broken
    sets lie.
    """
    n = len(ground)
    masks = _minimal_masks(_broken_masks(ground, broken))
    if 0 in masks:  # the empty set lies in every subset
        return f.zero
    inside = (1 << min(n, SUFFIX_CUBE_BITS)) - 1
    while reaching := reduce(or_, (m for m in masks if m & ~inside), 0) & inside:
        inside ^= reaching
    decided = {p for p in range(min(n, SUFFIX_CUBE_BITS)) if inside >> p & 1}
    within = [m for m in masks if not m & ~inside]
    table = _avoiding_table(n, within, sorted(decided))
    unused = ~reduce(or_, masks, inside) & ((1 << n) - 1)
    while unused and 2 * len(table) <= 1 << SUFFIX_CUBE_BITS:
        bit = unused & -unused
        unused ^= bit
        decided.add(bit.bit_length() - 1)
        table += [t | bit for t in table]
    walked = [p for p in reversed(range(n)) if p not in decided]
    prefixes = _avoiding_prefixes(n, [m for m in masks if m & ~inside], walked, len(table))
    blocks = (map(acc.__or__, table) for acc in prefixes)
    return _group_sum(map(f.mask_function(ground), itertools.chain.from_iterable(blocks)), f.zero)


def enumerate_avoiding(ground, broken):
    """Counts b_k of broken-set-avoiding subsets by cardinality."""
    counts = [0] * (len(ground) + 1)
    for mask in iter_avoiding_masks(ground, broken):
        counts[mask.bit_count()] += 1
    return tuple(counts)


class CancellationReport(_Record):
    """Outcome of the exhaustive cancellation check."""

    def __init__(self, ok: bool, checked: int, circuit: frozenset | None, superset: frozenset | None):
        self._set(ok=ok, checked=checked, circuit=circuit, superset=superset)

    def __bool__(self):
        return self.ok


def verify_cancellation(f, family, ground):
    """Check f(A) + f(A \\ {max C}) = 0 for every circuit C and every A containing C.

    Exhaustive, hence capped: the condition is universally quantified over
    supersets and cannot be sampled soundly.
    """
    n = len(ground)
    if n > CANCELLATION_CAP:
        raise CapExceeded(f"cancellation check needs |S| <= {CANCELLATION_CAP}, got {n}")
    fm = f.mask_function(ground)
    zero = f.zero
    full = (1 << n) - 1
    checked = 0
    for circuit in family:
        cmask = ground.mask_of(circuit)
        if cmask == 0:
            raise PreconditionError("circuits must be nonempty")
        topbit = 1 << (cmask.bit_length() - 1)
        free = full & ~cmask
        sub = free
        while True:
            m = cmask | sub
            checked += 1
            if fm(m) + fm(m & ~topbit) != zero:
                return CancellationReport(
                    False, checked, ground.subset_of(cmask), ground.subset_of(m)
                )
            if sub == 0:
                break
            sub = (sub - 1) & free
    return CancellationReport(True, checked, None, None)


class FinitePoset:
    """Finite partially ordered set, validated on construction.

    Element i carries its up-set and down-set as int masks: bit j of
    ``_up[i]`` is set when elements[i] <= elements[j], and bit j of
    ``_down[i]`` when elements[j] <= elements[i].
    """

    _kind = "poset"

    def __init__(self, elements, relation):
        self._build(elements, relation, close=False)
        elements, up = self.elements, self._up
        for i, row in enumerate(up):
            for j in _bits(row):
                missing = up[j] & ~row
                if missing:
                    k = (missing & -missing).bit_length() - 1
                    raise PreconditionError(
                        "relation is not transitive: "
                        f"{elements[i]!r} <= {elements[j]!r} <= {elements[k]!r}"
                    )

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from cover pairs; the order is the reflexive-transitive closure."""
        poset = cls.__new__(cls)
        poset._build(elements, covers, close=True)
        return poset

    def _build(self, elements, pairs, close):
        """Index the elements, set the pairs, close them under transitivity
        if ``close``, and check antisymmetry."""
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise SchemaError(f"{self._kind} elements must be pairwise distinct")
        self.elements = elements
        self._idx = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            up[self._index(a)] |= 1 << self._index(b)
        if close:
            # Warshall on rows: every i below k reaches whatever k reaches
            for k in range(n):
                bit, row = 1 << k, up[k]
                up = [m | row if m & bit else m for m in up]
        down = [0] * n
        for i, row in enumerate(up):
            for j in _bits(row):
                down[j] |= 1 << i
        for i in range(n):
            # the first such i meets its cycle partners only above itself
            others = (up[i] & down[i]) ^ (1 << i)
            if others:
                j = (others & -others).bit_length() - 1
                raise PreconditionError(
                    f"the order has a cycle through {elements[i]!r} and {elements[j]!r}"
                )
        self._up, self._down = up, down
        self._by_up = {row: i for i, row in enumerate(up)}

    def _index(self, element):
        try:
            return self._idx[element]
        except KeyError:
            raise PreconditionError(f"{element!r} is not a {self._kind} element") from None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def le(self, a, b):
        return bool(self._up[self._index(a)] >> self._index(b) & 1)

    def lt(self, a, b):
        return a != b and self.le(a, b)

    def comparable(self, a, b):
        return self.le(a, b) or self.le(b, a)

    def maximal_elements(self):
        return tuple(e for i, e in enumerate(self.elements) if self._up[i] == 1 << i)

    def minimal_elements(self):
        return tuple(e for i, e in enumerate(self.elements) if self._down[i] == 1 << i)

    def linear_extension(self):
        """Stable topological order: earliest-input element among the available ones."""
        down, n = self._down, len(self.elements)
        placed = 0
        out = []
        for _ in range(n):
            # every position below the lowest unplaced one is placed already
            first = ((placed + 1) & ~placed).bit_length() - 1
            i = next(i for i in range(first, n) if down[i] & ~placed == 1 << i)
            placed |= 1 << i
            out.append(self.elements[i])
        return tuple(out)

    def join(self, a, b):
        """Least upper bound, or None if it does not exist."""
        k = self._by_up.get(self._up[self._index(a)] & self._up[self._index(b)])
        return None if k is None else self.elements[k]

    def semilattice_violation(self):
        """A pair with no least upper bound, or None if all joins exist."""
        up = self._up
        for i, j in itertools.combinations(range(len(up)), 2):
            if up[i] & up[j] not in self._by_up:
                return (self.elements[i], self.elements[j])
        return None

    def is_chain(self, labels):
        labels = list(labels)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if not self.comparable(labels[i], labels[j]):
                    return False
        return True

    def _chain_count(self):
        """Number of chains, the empty chain included: c(x) = 1 + sum of
        c(y) over y < x counts the chains with top x, in linear-extension order."""
        tops = [0] * len(self.elements)
        for e in self.linear_extension():
            i = self._idx[e]
            tops[i] = 1 + sum(tops[j] for j in _bits(self._down[i] ^ 1 << i))
        return 1 + sum(tops)

    def _pair_ground(self, comparable=False, elements=None):
        """``(ground, pairs)`` for a sum pruned by pairs: ``elements``, by
        default the linear extension, as a ground set, and the pairs of
        them, in ground order, that are incomparable, so that the avoiding
        subsets are the chains, or with ``comparable`` the comparable pairs,
        so that they are the antichains.  A chain walk
        yields every chain, so it is refused before it starts when the chains
        pass the work budget."""
        elements = self.linear_extension() if elements is None else tuple(elements)
        if not comparable:
            chains = self._chain_count()
            _within_budget(chains * _mask_words(len(elements)), f"the poset has {chains} chains")
        index = [self._index(e) for e in elements]
        rows = [self._up[i] | self._down[i] for i in index]
        pairs = [
            frozenset((elements[a], elements[b]))
            for a in range(len(index))
            for b in range(a + 1, len(index))
            if bool(rows[a] >> index[b] & 1) == comparable
        ]
        return OrderedGroundSet(elements), pairs

    def chain_subsets(self):
        """All chains (pairwise comparable subsets) as frozensets, empty set
        included: the subsets of the linear extension that include no
        incomparable pair, in the order of ``iter_avoiding_masks``."""
        ground, incomparable = self._pair_ground()
        for mask in iter_avoiding_masks(ground, incomparable):
            yield ground.subset_of(mask)


class MaximaReduction(_Record):
    def __init__(self, restricted: object, full: object | None, cancellation: CancellationReport | None):
        self._set(restricted=restricted, full=full, cancellation=cancellation)


def sum_over_maxima(f, poset, check=True):
    """Collapse the sum over all subsets to the subsets of maximal elements.

    Valid whenever f cancels across the larger element of every comparable
    pair, with respect to some linear extension: the broken sets are then
    the non-maximal singletons.  The cancellation is verified exhaustively
    when the poset is small enough; a violation raises, since the reduction
    would be meaningless.
    """
    ground = OrderedGroundSet(poset.linear_extension())
    maximal = set(poset.maximal_elements())
    restricted = sum_pruned(f, ground, [{a} for a in ground if a not in maximal])
    report = None
    if check and len(ground) <= CANCELLATION_CAP:
        _, comparable = poset._pair_ground(comparable=True, elements=ground)
        if comparable:
            report = verify_cancellation(f, CircuitFamily(comparable), ground)
            if not report.ok:
                raise PreconditionError(
                    "cancellation fails across the comparable pair "
                    f"{sorted(map(repr, report.circuit))} at {sorted(map(repr, report.superset))}"
                )
    full = sum_full(f, ground) if 1 << len(ground) <= WORK_BUDGET else None
    return MaximaReduction(restricted, full, report)


def _semilattice_joins(poset):
    """The linear extension of an upper semilattice as a ground set, and a
    dict from each incomparable pair {s, t}, in ground order, to s v t."""
    violation = poset.semilattice_violation()
    if violation is not None:
        a, b = violation
        raise PreconditionError(
            f"not an upper semilattice: {a!r} and {b!r} have no least upper bound"
        )
    ground, incomparable = poset._pair_ground()
    return ground, {pair: poset.join(*pair) for pair in incomparable}


def sum_over_chains(f, poset, check=True):
    """Collapse the sum over all subsets to the chains of an upper semilattice.

    Requires every pair to have a least upper bound; valid when f cancels
    across s v t for every incomparable pair {s, t}.  The circuits
    {s, t, s v t} break into the incomparable pairs, whose avoiding subsets
    are the chains.
    """
    ground, joins = _semilattice_joins(poset)
    circuits = CircuitFamily(pair | {join} for pair, join in joins.items())
    if check and len(ground) <= CANCELLATION_CAP:
        report = verify_cancellation(f, circuits, ground)
        if not report.ok:
            raise PreconditionError(
                "cancellation fails across the join of "
                f"{sorted(map(repr, report.circuit))} at {sorted(map(repr, report.superset))}"
            )
    return sum_pruned(f, ground, derive_broken_circuits(circuits, ground))


def maxmin_identity(values, k):
    """Both sides of the maximum-minimums identity; they are asserted equal.

    The left side alternates the k-th smallest value over all subsets of
    size at least k; the right side is C(n-1, k-1) times the maximum.  The
    left side visits up to 2^n subsets, so it is refused up front past the
    work budget.
    """
    vals = list(values)
    n = len(vals)
    if not 1 <= k <= n:
        raise PreconditionError(f"k={k} is out of range for {n} values")
    _within_budget(2 ** min(n, WORK_BUDGET.bit_length()), f"the identity over 2^{n} subsets")
    lhs = None
    for r in range(k, n + 1):
        for combo in itertools.combinations(vals, r):
            kth = sorted(combo)[k - 1]
            term = kth if (r - k) % 2 == 0 else -kth
            lhs = term if lhs is None else lhs + term
    rhs = comb(n - 1, k - 1) * max(vals)
    if lhs != rhs:
        raise CrossCheckFailed(f"maximum-minimums identity failed: {lhs!r} != {rhs!r}")
    return lhs, rhs


class IndexedSetFamily:
    """Finite family of finite sets M_s indexed by an ordered ground set."""

    def __init__(self, ground, sets, universe=None):
        if not isinstance(ground, OrderedGroundSet):
            ground = OrderedGroundSet(ground)
        self.ground = ground
        data = {}
        for s in ground:
            if s not in sets:
                raise SchemaError(f"no set given for index {s!r}")
            data[s] = frozenset(sets[s])
        if universe is not None:
            universe = frozenset(universe)
            for s, m in data.items():
                if not m <= universe:
                    raise SchemaError(f"set for index {s!r} leaves the declared universe")
        self.sets = data

    def intersection(self, labels):
        labels = list(labels)
        if not labels:
            raise PreconditionError("intersection over an empty index set is undefined")
        acc = self.sets[labels[0]]
        for s in labels[1:]:
            acc = acc & self.sets[s]
        return acc

    def union_all(self):
        out = set()
        for m in self.sets.values():
            out |= m
        return frozenset(out)


def _intersection_size_function(family):
    def fn(subset):
        if not subset:
            return 0
        size = len(family.intersection(subset))
        return -size if len(subset) % 2 == 0 else size

    return SetFunction(fn, 0, "signed-intersection-size")


def restricted_union_size(family, broken, witnesses):
    """|union of M_s| by inclusion-exclusion restricted to broken-set-avoiding subsets.

    Each broken set B needs a witness index c(B) above max B whose set
    contains the intersection of the M_b, b in B; this is exactly the
    cancellation hypothesis.  The result is cross-checked against the
    directly computed union size.
    """
    ground = family.ground
    broken = [frozenset(b) for b in broken]
    for b in broken:
        if not b:
            raise PreconditionError("broken sets must be nonempty here")
        if b not in witnesses:
            raise PreconditionError(f"no witness index for broken set {sorted(map(repr, b))}")
        c = witnesses[b]
        if ground.position(c) <= ground.position(ground.max_of(b)):
            raise PreconditionError(
                f"witness {c!r} does not lie above max of {sorted(map(repr, b))}"
            )
        if not family.intersection(b) <= family.sets[c]:
            raise PreconditionError(
                f"witness condition violated: intersection over {sorted(map(repr, b))} "
                f"is not contained in the set of {c!r}"
            )
    value = sum_pruned(_intersection_size_function(family), ground, broken)
    direct = len(family.union_all())
    if value != direct:
        raise CrossCheckFailed(
            f"restricted inclusion-exclusion mismatch: {value} != union size {direct}"
        )
    return value


def narushima_union(poset, family):
    """|union of M_s| summing over the chains of an upper semilattice only.

    Prerequisite: M_s intersect M_t is contained in M_{s v t} for all s, t.
    That is the witness condition of ``restricted_union_size`` with the
    incomparable pairs as broken sets and s v t as the witness of {s, t}.
    """
    ground, joins = _semilattice_joins(poset)
    return restricted_union_size(IndexedSetFamily(ground, family.sets), joins.keys(), joins)


def random_cancelling_instance(rng, size, value_kind="int", max_circuits=4):
    """Random (ground, circuits, f) with the cancellation condition built in.

    Circuits are random sets B plus a witness element above max B; f is
    (-1)^|A| times a random weight attached to the closure of A under
    "B present implies witness present".  Such functions cancel across the
    witness of every circuit, which makes them exact test fodder for the
    pruning engine.
    """
    from .algebra import IntPolynomial

    n = size
    if n < 2:
        raise PreconditionError("instance needs at least two elements")
    _within_budget(2 ** min(n, WORK_BUDGET.bit_length()), f"a table over 2^{n} subsets")
    ground = OrderedGroundSet(range(n))
    rules = []
    circuits = []
    for _ in range(rng.randint(1, max_circuits)):
        c = rng.randrange(1, n)
        below = rng.sample(range(c), min(c, rng.randint(1, 3)))
        bmask = 0
        for p in below:
            bmask |= 1 << p
        rules.append((bmask, 1 << c))
        circuits.append(ground.subset_of(bmask | (1 << c)))

    def close(mask):
        while True:
            grown = mask
            for bmask, cbit in rules:
                if mask & bmask == bmask:
                    grown |= cbit
            if grown == mask:
                return mask
            mask = grown

    if value_kind == "int":
        zero, draw = 0, lambda: rng.randint(-9, 9)
    elif value_kind == "poly":
        zero, draw = IntPolynomial.zero(), lambda: IntPolynomial([rng.randint(-3, 3) for _ in range(3)])
    else:
        raise SchemaError(f"unknown value kind {value_kind!r}")
    weights = {}
    table = []
    for mask in range(1 << n):
        h = close(mask)
        if h not in weights:
            weights[h] = draw()
        w = weights[h]
        table.append(-w if mask.bit_count() & 1 else w)
    return ground, CircuitFamily(circuits), TableSetFunction(ground, table, zero, f"random-{value_kind}")
