"""Broken-circuit pruning engines and their applications.

The core engine restricts abelian-group-valued subset sums to the subsets
avoiding every broken circuit, given the cancellation property across
circuit maxima.  On top of it: graph chromatic, subgraph component and
domination polynomials; hypergraph chromatic polynomials; matroid
characteristic polynomials and the beta invariant; lattice Mobius
functions through crosscuts; divisor-lattice expansions of arithmetical
functions; and the convex-geometry generalization that collapses subset
sums to free sets.

Everything is exact (Python ints, Fractions, integer polynomials) except
the zeta-reciprocal approximation, and every restricted sum is
cross-checkable against a brute-force oracle at desk scale.
"""

import importlib

# public name -> its home module, imported on first access (PEP 562), so
# importing the package or one engine loads no other engine
_HOMES = {
    "algebra": ("BiPolynomial", "IntPolynomial"),
    "core": (
        "CircuitFamily", "FinitePoset", "IndexedSetFamily", "OrderedGroundSet", "SetFunction",
        "TableSetFunction", "derive_broken_circuits", "enumerate_avoiding", "maxmin_identity",
        "narushima_union", "restricted_union_size", "sum_full", "sum_over_chains",
        "sum_over_maxima", "sum_pruned", "verify_cancellation",
    ),
    "errors": ("CapExceeded", "CrossCheckFailed", "PreconditionError", "SchemaError"),
    "geometry": ("ClosureSystem", "ConvexGeometry"),
    "graphs": ("Graph",),
    "hypergraphs": ("Hypergraph",),
    "lattices": ("Crosscut", "FiniteLattice"),
    "matroids": ("Matroid",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
