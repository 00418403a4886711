"""Matroids from circuit lists, with the characteristic polynomial and
Crapo's beta invariant computed both from the defining rank sums and from
broken-circuit counts.

A matroid is given by its ground set (the input order is the ambient
linear order) and its circuits, the minimal dependent sets.  Rank is
computed greedily; broken-circuit-free subsets are independent, so the
counts b_k assemble the characteristic polynomial and the beta invariant
directly.  Both sums sweep the ground positions in order over contracted
minors (``_minor_sweep``): prefixes whose minors agree on the undecided
positions share one state, so Petersen's cycle matroid takes 660 steps
for either sum, not one per independent set.
"""

from __future__ import annotations

import itertools
from math import comb

from .algebra import IntPolynomial
from .core import WORK_BUDGET, _image_fold, _within_budget
from .errors import PreconditionError, SchemaError

AXIOM_CAP = 12


class Matroid:
    """Matroid represented by its circuits.

    Circuit axioms (incomparability and elimination) are checked
    exhaustively when the ground set has at most AXIOM_CAP elements;
    larger inputs are accepted with ``validated`` False.
    """

    def __init__(self, elements, circuits, validate=True):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise SchemaError("ground set labels must be pairwise distinct")
        self.elements = elements
        self._pos = {e: i for i, e in enumerate(elements)}
        circs = []
        seen = set()
        for c in circuits:
            cs = frozenset(c)
            if not cs:
                raise SchemaError("circuits must be nonempty")
            if not cs <= self._pos.keys():
                raise SchemaError(f"circuit {sorted(map(repr, cs))} leaves the ground set")
            if cs not in seen:
                seen.add(cs)
                circs.append(cs)
        self.circuits = tuple(circs)
        self._circuit_masks = [self._mask(c) for c in self.circuits]
        # circuit masks by their largest position
        self._circuits_by_max = [[] for _ in elements]
        for cm in self._circuit_masks:
            self._circuits_by_max[cm.bit_length() - 1].append(cm)
        clash = self._comparable_pair()
        if clash is not None:
            a, b = (self.circuits[k] for k in clash)
            raise PreconditionError(
                f"circuits are not an antichain: {sorted(map(repr, a))} and {sorted(map(repr, b))}"
            )
        self.validated = False
        if validate and len(elements) <= AXIOM_CAP:
            self._check_elimination()
            self.validated = True

    def _comparable_pair(self):
        """First pair (j, k), j < k, of circuit indices with one circuit inside the other, or None.

        Distinct circuits of one size are never comparable, so only a
        smaller circuit is tested against each larger one.
        """
        by_size = {}
        for k, cm in enumerate(self._circuit_masks):
            by_size.setdefault(cm.bit_count(), []).append((k, cm))
        sizes = sorted(by_size)
        clash = None
        for low, s in enumerate(sizes):
            for t in sizes[low + 1:]:
                larger = by_size[t]
                for ka, a in by_size[s]:
                    for kb, b in larger:
                        if a & b == a:
                            pair = (ka, kb) if ka < kb else (kb, ka)
                            if clash is None or pair < clash:
                                clash = pair
        return clash

    def _mask(self, subset):
        m = 0
        for e in subset:
            m |= 1 << self._pos[e]
        return m

    def _check_elimination(self):
        """For circuits C1 != C2 and e in both, some circuit lies inside (C1 | C2) - e.

        Many (pair, e) share one target, so each distinct target is tested
        once, by a plain scan of the circuits: the rank helpers assume the
        axioms under test.  The first failing pair in pair order is reported.
        """
        masks = self._circuit_masks
        # target mask -> whether some circuit lies inside it
        holds = {}
        for ma, mb in itertools.combinations(masks, 2):
            inter = ma & mb
            if not inter:
                continue
            union = ma | mb
            e = inter
            while e:
                bit = e & -e
                target = union & ~bit
                found = holds.get(target)
                if found is None:
                    found = holds[target] = any(cm & target == cm for cm in masks)
                if not found:
                    raise PreconditionError(
                        "circuit elimination fails for "
                        f"{sorted(map(repr, self._unmask(ma)))} and {sorted(map(repr, self._unmask(mb)))}"
                    )
                e ^= bit

    def _unmask(self, mask):
        return frozenset(self.elements[i] for i in range(len(self.elements)) if mask >> i & 1)

    def __repr__(self):
        return f"Matroid({len(self.elements)} elements, {len(self.circuits)} circuits)"

    def _is_independent_mask(self, mask):
        for cm in self._circuit_masks:
            if cm & mask == cm:
                return False
        return True

    def _greedy_step(self, i, acc):
        """Add position i to a greedy basis acc of positions below i, if it stays independent.

        acc is independent, so a circuit inside acc + i contains i, and has
        i as its maximum: only those circuits are tested.
        """
        t = acc | (1 << i)
        for cm in self._circuits_by_max[i]:
            if cm & t == cm:
                return acc
        return t

    def _rank_mask(self, mask):
        acc = 0
        step = self._greedy_step
        while mask:
            low = mask & -mask
            acc = step(low.bit_length() - 1, acc)
            mask ^= low
        return acc.bit_count()

    def rank(self, subset):
        """Size of a maximal circuit-free subset, built greedily in ground order."""
        return self._rank_mask(self._mask(frozenset(subset)))

    @property
    def full_rank(self):
        return self._rank_mask((1 << len(self.elements)) - 1)

    @classmethod
    def uniform(cls, r, n):
        """U_{r,n}: every (r+1)-subset of 0..n-1 is a circuit; refused before
        any is built when the C(n, r+1) circuits pass the work budget."""
        if not 0 <= r <= n:
            raise SchemaError("uniform matroid needs 0 <= r <= n")
        # C(n, k) = C(n, n - k) >= 2^k for n >= 2k, so k is cut where 2^k passes the budget
        k = max(0, min(r + 1, n - r - 1, WORK_BUDGET.bit_length()))
        _within_budget(comb(n, k), f"U({r},{n}) has C({n},{r + 1}) circuits")
        circuits = list(itertools.combinations(range(n), r + 1)) if r < n else []
        return cls(range(n), circuits)

    @classmethod
    def graphic(cls, graph):
        """Cycle matroid of a graph; elements are the edges in graph order."""
        from .graphs import cycles_edge_sets

        cycles = cycles_edge_sets(graph)
        labels = graph.edges
        circuits = [frozenset(labels[i] for i in c) for c in cycles]
        return cls(labels, circuits)


def _minor_sweep(matroid, nbc=False):
    """Nonzero {r(A): sum of (-1)^|A|} over the subsets A of the ground
    positions, or with ``nbc`` over those that include no broken circuit.

    The positions are decided in order, and a prefix A is kept only as its
    contracted minor M/A restricted to the undecided positions: the rank
    r(A) and which circuit classes are alive.  A circuit is alive while
    every decided position of it lies in the greedy basis of A; circuits
    whose undecided parts are equal read the same future, so they merge
    into one class, named by the smallest circuit index.  Before i is
    decided, the circuits with maximum i share the undecided part {i}, so
    they form one class, and i is a loop of M/A exactly when that class is
    alive.  Prefixes with equal minors share one state, so a
    graphic matroid sweeps about as many states as frontier partitions and
    a uniform one a state per rank (the frontier idea of Sekine, Imai and
    Tani, ISAAC 1995, for any circuit list).

    The state is one int: a "just taken" flag in bit 0, one bit per class
    above it, and the rank above those.  With ``nbc`` every surviving
    prefix is independent, so it is its own greedy basis, and the class of
    maximum i is alive exactly when the prefix holds a broken circuit
    C - i: the state then dies on both branches.  A loop's class is alive
    from the start.  It refuses 2^|E| past the work budget up front.
    """
    n = len(matroid.elements)
    _within_budget(1 << n, f"the rank and broken-circuit sums over 2^{n} subsets")
    masks = matroid._circuit_masks
    shift = len(masks) + 1
    # per position: the class of the circuits with that maximum, the mask
    # that kills the classes holding it, and the (members, ~members, name)
    # class merges once it is decided
    loop_class, keep, merges = [], [], []
    classes = {cm: 2 << k for k, cm in enumerate(masks)}  # undecided part -> class bit
    for i in range(n):
        bit = 1 << i
        loop_class.append(classes.get(bit, 0))
        held = 0
        # only the classes that hold i get a new part, and may meet another class
        moved = {}
        for part in [part for part in classes if part & bit]:
            cls = classes.pop(part)
            held |= cls
            if part != bit:
                moved.setdefault(part ^ bit, []).append(cls)
        keep.append(~held)
        merged = []
        for part, group in moved.items():
            if part in classes:
                group.append(classes[part])
            classes[part] = name = min(group)
            if len(group) > 1:
                members = sum(group)
                merged.append((members, ~members, name))
        merges.append(merged)

    lift = (1 << shift) | 1

    def include(i, state):
        if state & loop_class[i]:
            # A + i has the rank and the minor of A, so the two cancel
            return None if nbc else state
        return state + lift

    def settle(i, state):
        if state & 1:
            state ^= 1
        elif nbc and state & loop_class[i]:
            return None
        else:
            state &= keep[i]
        for members, others, name in merges[i]:
            if state & members:
                state = state & others | name
        return state

    start = (1 << shift) - 2
    return _image_fold(n, start, include, lambda state: state >> shift, settle)


def broken_circuit_counts(matroid):
    """b_k: number of k-subsets including no broken circuit of the matroid.

    The sweep over contracted minors drops a prefix once it holds a broken
    circuit C - max C, so every counted subset is independent and the
    count of k-subsets is the signed count at rank k.
    """
    counts = [0] * (len(matroid.elements) + 1)
    for k, count in _minor_sweep(matroid, nbc=True).items():
        # rank k means k elements: the count is |signed count|
        counts[k] = abs(count)
    return tuple(counts)


def characteristic_polynomial(matroid, method="broken_circuit"):
    """chi(M, x) = sum over subsets A of (-1)^|A| x^{r(E) - r(A)}."""
    re = matroid.full_rank
    if method == "full":
        return IntPolynomial.from_terms({re - r: count for r, count in _minor_sweep(matroid).items()})
    if method == "broken_circuit":
        return IntPolynomial.from_whitney_counts(re, broken_circuit_counts(matroid))
    raise SchemaError(f"unknown method {method!r}")


def beta_invariant(matroid, method="full"):
    """Crapo's beta invariant, three ways.

    full: (-1)^{r(E)} sum (-1)^|A| r(A); broken_circuit: the same with
    k b_k counts; derivative: from the slope of chi at 1.
    """
    re = matroid.full_rank
    sign = -1 if re & 1 else 1
    if method == "full":
        return sign * sum(r * count for r, count in _minor_sweep(matroid).items())
    if method == "broken_circuit":
        return sign * sum((-1) ** k * k * b for k, b in enumerate(broken_circuit_counts(matroid)))
    if method == "derivative":
        chi = characteristic_polynomial(matroid, "full")
        return -sign * chi.derivative_at(1)
    raise SchemaError(f"unknown method {method!r}")
