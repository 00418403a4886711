"""Matroids from circuit lists, with the characteristic polynomial and
Crapo's beta invariant computed both from the defining rank sums and from
broken-circuit counts.

A matroid is given by its ground set (the input order is the ambient
linear order) and its circuits, the minimal dependent sets.  Rank is
computed greedily; broken-circuit-free subsets are independent, so the
counts b_k assemble the characteristic polynomial and the beta invariant
directly.
"""

from __future__ import annotations

import itertools

from .algebra import IntPolynomial
from .core import _image_fold
from .errors import CapExceeded, CrossCheckFailed, PreconditionError, SchemaError

AXIOM_CAP = 12
# the rank sums and their broken-circuit forms are offered up to this size
SUM_CAP = 20


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
            if not cs <= set(elements):
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
        for a, b in itertools.combinations(self.circuits, 2):
            if a <= b or b <= a:
                raise PreconditionError(
                    f"circuits are not an antichain: {sorted(map(repr, a))} and {sorted(map(repr, b))}"
                )
        self.validated = False
        if validate and len(elements) <= AXIOM_CAP:
            self._check_elimination()
            self.validated = True

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

    def _signed_rank_histogram(self):
        """Nonzero {r(A): sum of (-1)^|A|} over all A, swept over distinct greedy bases."""
        return _image_fold(len(self.elements), 0, self._greedy_step, int.bit_count)

    def rank(self, subset):
        """Size of a maximal circuit-free subset, built greedily in ground order."""
        return self._rank_mask(self._mask(frozenset(subset)))

    def is_independent(self, subset):
        return self._is_independent_mask(self._mask(frozenset(subset)))

    @property
    def full_rank(self):
        return self._rank_mask((1 << len(self.elements)) - 1)

    @classmethod
    def uniform(cls, r, n):
        """U_{r,n}: every (r+1)-subset of 0..n-1 is a circuit."""
        if not 0 <= r <= n:
            raise SchemaError("uniform matroid needs 0 <= r <= n")
        circuits = list(itertools.combinations(range(n), r + 1)) if r < n else []
        return cls(range(n), circuits)

    @classmethod
    def graphic(cls, graph, cycle_cap=20):
        """Cycle matroid of a graph; elements are the edges in graph order."""
        from .graphs import cycles_edge_sets

        cycles = cycles_edge_sets(graph, cycle_cap)
        labels = graph.edges
        circuits = [frozenset(labels[i] for i in c) for c in cycles]
        return cls(labels, circuits)


def broken_circuit_counts(matroid):
    """b_k: number of k-subsets including no broken circuit of the matroid.

    The broken circuits are the circuit masks with their top bit cleared.
    Every counted subset is checked to be independent along the way: the
    sweep adds positions in increasing order, so a circuit inside a subset
    is caught when its maximum is added, by testing only the circuits with
    that maximum.
    """
    broken = [cm ^ 1 << (cm.bit_length() - 1) for cm in matroid._circuit_masks]
    by_max = matroid._circuits_by_max

    def include(i, acc):
        t = acc | (1 << i)
        for cm in by_max[i]:
            if cm & t == cm:
                raise CrossCheckFailed("broken-circuit-free subset is dependent")
        return t

    counts = [0] * (len(matroid.elements) + 1)
    hist = _image_fold(len(matroid.elements), 0, include, int.bit_count, None, broken)
    for k, count in hist.items():
        # every subset under key k has k elements, so its count is |signed count|
        counts[k] = abs(count)
    return tuple(counts)


def _check_sum_cap(matroid, what):
    if len(matroid.elements) > SUM_CAP:
        raise CapExceeded(f"{what} needs |E| <= {SUM_CAP}")


def characteristic_polynomial(matroid, method="broken_circuit"):
    """chi(M, x) = sum over subsets A of (-1)^|A| x^{r(E) - r(A)}."""
    _check_sum_cap(matroid, "characteristic polynomial")
    if method == "full":
        re = matroid.full_rank
        coeffs = [0] * (re + 1)
        for r, count in matroid._signed_rank_histogram().items():
            coeffs[re - r] = count
        return IntPolynomial(coeffs)
    if method == "broken_circuit":
        return _characteristic_from_counts(matroid, broken_circuit_counts(matroid))
    raise SchemaError(f"unknown method {method!r}")


def _characteristic_from_counts(matroid, counts):
    """chi(M, x) from the counts b_k: the coefficient of x^{r(E)-k} is (-1)^k b_k."""
    re = matroid.full_rank
    coeffs = [0] * (re + 1)
    for k, b in enumerate(counts):
        if b and k > re:
            raise CrossCheckFailed("independent subset larger than the rank")
        if k <= re:
            coeffs[re - k] = -b if k & 1 else b
    return IntPolynomial(coeffs)


def beta_invariant(matroid, method="full"):
    """Crapo's beta invariant, three ways.

    full: (-1)^{r(E)} sum (-1)^|A| r(A); broken_circuit: the same with
    k b_k counts; derivative: from the slope of chi at 1.
    """
    _check_sum_cap(matroid, "beta invariant")
    re = matroid.full_rank
    sign = -1 if re & 1 else 1
    if method == "full":
        return sign * sum(r * count for r, count in matroid._signed_rank_histogram().items())
    if method == "broken_circuit":
        return sign * sum((-1) ** k * k * b for k, b in enumerate(broken_circuit_counts(matroid)))
    if method == "derivative":
        chi = characteristic_polynomial(matroid, "full")
        return -sign * chi.derivative_at(1)
    raise SchemaError(f"unknown method {method!r}")
