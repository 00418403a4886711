"""Closure systems and convex geometries.

A closure system is a ground set with a family of closed sets containing
the ground set and closed under intersection; its hull operator sends a
subset to the smallest closed superset.  A convex geometry is a closure
system in which every closed set has a unique minimal generating set (its
basis, which consists of its extreme points).  Sums over all subsets then
collapse to the free sets (those whose every subset is closed) whenever
the summand adds to zero on every basis-to-closed-set interval; the
broken-circuit reduction is the special case where the hull is generated
by "broken set implies witness" rules.

Closed sets are stored extensionally, so every axiom and every interval
condition is checked exhaustively at desk scale.
"""

from __future__ import annotations

import itertools

from .core import (
    WORK_BUDGET,
    OrderedGroundSet,
    _bits,
    _group_sum,
    _image_fold,
    _within_budget,
    derive_broken_circuits,
    iter_avoiding_masks,
    sum_full,
)
from .errors import CrossCheckFailed, PreconditionError, SchemaError


class ClosureSystem:
    """Extensional closure system: explicit list of closed subsets."""

    def __init__(self, ground, closed_sets):
        if not isinstance(ground, OrderedGroundSet):
            ground = OrderedGroundSet(ground)
        _within_budget(1 << len(ground), f"closure system on {len(ground)} elements")
        self.ground = ground
        full = (1 << len(ground)) - 1
        masks = sorted({ground.mask_of(c) for c in closed_sets})
        mask_set = set(masks)
        if full not in mask_set:
            raise PreconditionError("the ground set itself must be closed")
        for a, b in itertools.combinations(masks, 2):
            if a & b not in mask_set:
                raise PreconditionError(
                    "closed sets are not intersection-closed: "
                    f"{sorted(map(repr, ground.subset_of(a)))} and {sorted(map(repr, ground.subset_of(b)))}"
                )
        self._masks = masks
        self._mask_set = mask_set
        self._full = full

    def __repr__(self):
        return f"ClosureSystem({len(self.ground)} elements, {len(self._masks)} closed sets)"

    @property
    def closed_sets(self):
        return tuple(self.ground.subset_of(m) for m in self._masks)

    def is_closed(self, subset):
        return self.ground.mask_of(subset) in self._mask_set

    def hull_mask(self, mask):
        acc = self._full
        for cm in self._masks:
            if cm & mask == mask:
                acc &= cm
        return acc

    def hull(self, subset):
        """Smallest closed superset: extensive, monotone, idempotent."""
        return self.ground.subset_of(self.hull_mask(self.ground.mask_of(subset)))

    def free_mask_set(self):
        """Masks of all free sets (sets whose every subset is closed).

        Every subset of a free set is free, so the free sets are grown
        level by level: F + i, for i above max F, is free when it is closed
        and F + i - j is free for every j in F.  At most |free| * n
        candidates are tested.
        """
        closed = self._mask_set
        if 0 not in closed:
            return set()
        n = len(self.ground)
        free = {0}
        level = [0]
        while level:
            grown = []
            for mask in level:
                for i in range(mask.bit_length(), n):
                    bigger = mask | 1 << i
                    if bigger not in closed:
                        continue
                    m = mask
                    while m:
                        bit = m & -m
                        if bigger ^ bit not in free:
                            break
                        m ^= bit
                    else:
                        grown.append(bigger)
            free.update(grown)
            level = grown
        return free

    def free_sets(self):
        masks = sorted(self.free_mask_set(), key=lambda m: (m.bit_count(), m))
        return [self.ground.subset_of(m) for m in masks]


class ConvexGeometry:
    """Closure system in which every closed set has a unique basis.

    Validation computes the extreme points of every closed set and checks
    that they generate it; a failure names the offending closed set, which
    certifies the input is not a convex geometry.
    """

    def __init__(self, system):
        self.system = system
        self.ground = system.ground
        self._basis = {}
        for cm in system._masks:
            ex = self._extreme_mask(cm)
            if system.hull_mask(ex) != cm:
                raise PreconditionError(
                    "closed set "
                    f"{sorted(map(repr, system.ground.subset_of(cm)))} has no unique basis"
                )
            self._basis[cm] = ex

    def _extreme_mask(self, cm):
        """Extreme points of a closed set C: hull(C - e) is C - e or C, so e
        is extreme exactly when C - e is closed."""
        closed = self.system._mask_set
        return sum(1 << i for i in _bits(cm) if cm ^ 1 << i in closed)

    def __repr__(self):
        return f"ConvexGeometry({self.system!r})"

    def hull(self, subset):
        return self.system.hull(subset)

    def is_closed(self, subset):
        return self.system.is_closed(subset)

    def basis(self, subset):
        """The unique minimal generating set of a closed set."""
        mask = self.ground.mask_of(subset)
        if mask not in self.system._mask_set:
            raise PreconditionError(
                f"{sorted(map(repr, subset))} is not a closed set"
            )
        return self.ground.subset_of(self._basis[mask])

    def free_sets(self):
        return self.system.free_sets()

    def free_mask_set(self):
        return self.system.free_mask_set()


def reduce_to_free_sets(f, geometry):
    """(full, free) sums of f; equal whenever the interval condition holds.

    The condition, checked exhaustively: for every closed set A that is
    not free, f sums to zero over the interval from the basis of A to A.
    """
    system = geometry.system
    ground = system.ground
    fm = f.mask_function(ground)
    zero = f.zero
    free = geometry.free_mask_set()
    for cm in system._masks:
        if cm in free:
            continue
        interval = [geometry._basis[cm]]
        for i in _bits(cm ^ interval[0]):
            interval += [m | 1 << i for m in interval]
        if _group_sum(map(fm, interval), zero) != zero:
            raise PreconditionError(
                "interval sum does not vanish on the closed set "
                f"{sorted(map(repr, ground.subset_of(cm)))}"
            )
    full = sum_full(f, ground)
    free_sum = _group_sum(map(fm, sorted(free)), zero)
    if full != free_sum:
        raise CrossCheckFailed("free-set reduction mismatch after validation")
    return full, free_sum


def count_free_signed(geometry):
    """sum over all A of (-1)^{|hull(A)| - |A|}; equals the number of free sets.

    Swept over hulls, as hull(A + i) = hull(hull(A) + i) for every closure
    operator.  No free set or basis is used, so the check below is independent.
    """
    system = geometry.system
    hist = _image_fold(len(system.ground), system.hull_mask(0),
                       lambda i, h: system.hull_mask(h | 1 << i), int.bit_count)
    total = sum(-count if size & 1 else count for size, count in hist.items())
    expected = len(geometry.free_mask_set())
    if total != expected:
        raise CrossCheckFailed(f"signed free count {total} differs from {expected}")
    return total


def euler_characteristic_free(geometry):
    """Euler characteristic of the complex of nonempty free sets; always 1.

    Needs a nonempty ground set and the empty set closed (so that the
    free complex is nonempty).
    """
    if len(geometry.ground) == 0:
        raise PreconditionError("ground set is empty")
    if not geometry.is_closed(frozenset()):
        raise PreconditionError("the empty set is not closed")
    total = sum(1 if mask.bit_count() & 1 else -1 for mask in geometry.free_mask_set() if mask)
    if total != 1:
        raise CrossCheckFailed(f"free-complex Euler characteristic is {total}, not 1")
    return total


def closure_from_circuits(ground, family):
    """The iterated-hull geometry generated by the family's broken circuits.

    Each broken circuit B keeps the maximum of its witness circuit as the
    element it forces; a set is closed when it already contains every
    forced element.  The resulting system is a convex geometry whose free
    sets coincide exactly with the broken-circuit-avoiding subsets, which
    is asserted.
    """
    if not isinstance(ground, OrderedGroundSet):
        ground = OrderedGroundSet(ground)
    broken = derive_broken_circuits(family, ground)
    rules = []
    for bc in broken:
        c = ground.max_of(bc.witness)
        if c in bc.subset:
            raise PreconditionError(
                f"broken circuit {sorted(map(repr, bc.subset))} has no witness element above it"
            )
        rules.append((ground.mask_of(bc.subset), 1 << ground.position(c)))
    geometry = _scanned_geometry(
        ground, lambda mask: all(mask & bmask != bmask or mask & cbit for bmask, cbit in rules))
    avoiding = set(iter_avoiding_masks(ground, [bc.subset for bc in broken]))
    if geometry.free_mask_set() != avoiding:
        raise CrossCheckFailed("free sets differ from the broken-circuit-avoiding subsets")
    return geometry


def _scanned_geometry(ground, is_closed):
    """The convex geometry whose closed sets are the masks over ``ground``
    that pass ``is_closed``: one scan of all 2^n masks, refused before it
    starts when they pass the work budget."""
    _within_budget(1 << len(ground), f"closure system on {len(ground)} elements")
    closed = [ground.subset_of(mask) for mask in range(1 << len(ground)) if is_closed(mask)]
    return ConvexGeometry(ClosureSystem(ground, closed))


def interval_geometry(n):
    """Points 1..n on a line; closed sets are the intervals."""
    _within_budget(2 ** min(n, WORK_BUDGET.bit_length()), f"closure system on {n} elements")
    labels = range(1, n + 1)
    closed = [frozenset()]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            closed.append(frozenset(range(i, j + 1)))
    return ConvexGeometry(ClosureSystem(labels, closed))


def ideal_geometry(poset):
    """Closed sets are the down-sets of a poset; bases are the maxima."""
    down = poset._down
    # a down-set holds the down-set of each of its members
    return _scanned_geometry(OrderedGroundSet(poset.elements),
                             lambda mask: not any(down[i] & ~mask for i in _bits(mask)))


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _in_hull(p, points):
    pts = list(points)
    if p in pts:
        return True
    for a, b in itertools.combinations(pts, 2):
        if _orient(a, b, p) == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(
            a[1], b[1]
        ) <= p[1] <= max(a[1], b[1]):
            return True
    for a, b, c in itertools.combinations(pts, 3):
        s1, s2, s3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
        if (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0):
            if _orient(a, b, c) != 0:
                return True
    return False


def planar_point_geometry(points):
    """Convex-hull geometry of integer points in the plane.

    A set is closed when it contains every point of the configuration
    inside its convex hull; exact integer orientation tests throughout.
    """
    pts = [tuple(p) for p in points]
    if len(set(pts)) != len(pts):
        raise SchemaError("points must be pairwise distinct")
    n = len(pts)

    def is_closed(mask):
        inside = [pts[i] for i in range(n) if mask >> i & 1]
        return not any(_in_hull(pts[i], inside) for i in range(n) if not mask >> i & 1)

    return _scanned_geometry(OrderedGroundSet(pts), is_closed)


def discrete_geometry(labels):
    """Every subset closed; the hull is the identity."""
    return _scanned_geometry(OrderedGroundSet(labels), lambda mask: True)


def random_geometry(rng, max_size=8):
    """A random small convex geometry from the built-in generators."""
    from .core import FinitePoset

    kind = rng.choice(["interval", "ideal", "planar", "discrete"])
    if kind == "interval":
        return interval_geometry(rng.randint(1, max_size))
    if kind == "discrete":
        return discrete_geometry(range(rng.randint(1, min(6, max_size))))
    if kind == "ideal":
        n = rng.randint(2, max_size)
        covers = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        poset = FinitePoset.from_covers(range(n), covers)
        return ideal_geometry(poset)
    n = rng.randint(3, min(7, max_size))
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(0, 6), rng.randint(0, 6)))
    return planar_point_geometry(sorted(pts))
