"""Per-layer metrics from the spans of a traced run.

Every ``*_ms`` metric is the time one pass over the workload's op list
spends in that layer: the spans of the traced set-up (object
construction, for the in-process workloads) plus the traced ops' spans
divided by the number of passes.  Most are self times; ``io.parse_ms``
and ``io.serialize_ms`` are inclusive, so parsing counts its validation.

A span whose name maps to no metric takes its parent's metric when the
parent is in the same layer (``lattices.mobius`` inside
``lattices.rota_crosscut`` is crosscut time), and no metric otherwise.
"""

from __future__ import annotations

from tracing import BUSY, ID, LEAVES, NAME, OP, PARENT, SPACE, self_times

SELF_METRICS = {
    "core.walk_ms": {"core.iter_avoiding_masks", "core.enumerate_avoiding", "core.sum_pruned",
                     "core.avoiding_subsets"},
    "core.derive_ms": {"core.derive_broken_circuits"},
    "core.full_sum_ms": {"core.sum_full"},
    "core.cancel_ms": {"core.verify_cancellation"},
    "graphs.cycles_ms": {"graphs.cycles_edge_sets", "graphs.cycles_vertex_sets",
                         "graphs.is_cyclically_claw_free"},
    "graphs.full_ms": {"graphs.chromatic_polynomial[full]", "graphs.q_at_minus_one[direct]",
                       "graphs.domination_polynomial[direct]",
                       "graphs.domination_polynomial[alternating]",
                       "graphs.subgraph_component_polynomial"},
    "graphs.pruned_ms": {"graphs.chromatic_polynomial[broken_circuit]", "graphs.whitney_edge_counts",
                         "graphs.edge_broken_circuits", "graphs.vertex_broken_circuits",
                         "graphs.q_at_minus_one[restricted]", "graphs.q_at_minus_one[acyclic]",
                         "graphs.domination_polynomial[pruned]", "graphs.broken_neighbourhoods",
                         "graphs.degree1_upset_order"},
    "hypergraphs.full_ms": {"hypergraphs.hypergraph_chromatic[full]"},
    "hypergraphs.restricted_ms": {"hypergraphs.hypergraph_chromatic[restricted]"},
    "hypergraphs.family_check_ms": {"hypergraphs.is_self_covering_family",
                                    "hypergraphs.is_pair_upset_family",
                                    "hypergraphs.is_berge_cycle_edge_set", "hypergraphs.tight_cycles"},
    "matroids.build_ms": {"matroids.Matroid.__init__", "matroids.Matroid.uniform",
                          "matroids.Matroid.graphic"},
    "matroids.bc_ms": {"matroids.broken_circuit_counts",
                       "matroids.characteristic_polynomial[broken_circuit]",
                       "matroids.beta_invariant[broken_circuit]"},
    "matroids.full_ms": {"matroids.characteristic_polynomial[full]", "matroids.beta_invariant[full]",
                         "matroids.beta_invariant[derivative]"},
    "lattices.blass_sagan_ms": {"lattices.blass_sagan_mobius", "lattices.blass_sagan_family"},
    "lattices.crosscut_ms": {"lattices.rota_crosscut"},
    "lattices.build_ms": {"lattices.FiniteLattice.__init__", "lattices.Crosscut.__init__",
                          "lattices.boolean_lattice", "lattices.partition_lattice",
                          "lattices.divisor_lattice"},
    "numbers.subset_walk_ms": {"numbers.totient_subset_sum", "numbers.inverse_subset_sum",
                               "numbers.gcd_expansion"},
    "numbers.closed_form_ms": {"numbers.totient", "numbers.dirichlet_inverse_totient",
                               "numbers.totient_product", "numbers.totient_divisor_sum",
                               "numbers.inverse_product", "numbers.inverse_divisor_sum",
                               "numbers.classical_mobius", "numbers.zeta_reciprocal"},
    "numbers.complex_ms": {"numbers.divisor_complex", "numbers.bonferroni_all",
                           "numbers.bonferroni_check", "numbers.AbstractComplex.__init__",
                           "numbers.complement_isomorphic"},
    "geometry.sum_ms": {"geometry.count_free_signed", "geometry.euler_characteristic_free",
                        "geometry.reduce_to_free_sets"},
    "geometry.build_ms": {"geometry.ClosureSystem.__init__", "geometry.ConvexGeometry.__init__",
                          "geometry.interval_geometry", "geometry.planar_point_geometry",
                          "geometry.closure_from_circuits", "geometry.ideal_geometry",
                          "geometry.discrete_geometry", "geometry.random_geometry"},
}

_OWN = {name: metric for metric, names in SELF_METRICS.items() for name in names}


def _is_parse(name):
    return name == "io.load_instance" or name.startswith("io.parse_")


def _is_serialize(name):
    return (name in ("io.canonical_json", "io.rational_str", "io.float_str")
            or (name.startswith("io.") and name.endswith("_to_obj"))
            or name.endswith(".to_json"))


INCLUSIVE_METRICS = {"io.parse_ms": _is_parse, "io.serialize_ms": _is_serialize}

WALK = "core.iter_avoiding_masks"


def _layer(name):
    return name.split(".", 1)[0]


def categories(spans):
    """span id -> self-time metric name or None."""
    by_id = {s[ID]: s for s in spans}
    out = {}

    def category(span):
        sid = span[ID]
        if sid in out:
            return out[sid]
        name = span[NAME]
        metric = _OWN.get(name) or _OWN.get(name.split("[", 1)[0])
        if metric is None:
            parent = by_id.get(span[PARENT])
            if parent is not None and _layer(parent[NAME]) == _layer(name):
                metric = category(parent)
        out[sid] = metric
        return metric

    for s in spans:
        category(s)
    return out


def _inclusive(spans, match):
    """Busy time of the outermost spans that match."""
    by_id = {s[ID]: s for s in spans}
    total = 0.0
    for s in spans:
        if not match(s[NAME]):
            continue
        parent = by_id.get(s[PARENT])
        while parent is not None and not match(parent[NAME]):
            parent = by_id.get(parent[PARENT])
        if parent is None:
            total += s[BUSY]
    return total


def layer_metrics(spans, passes):
    """Per-pass layer times (ms), walk counts and the pruning ratio."""
    setup = [s for s in spans if s[OP] == "setup"]
    timed = [s for s in spans if isinstance(s[OP], int)]
    out = {metric: 0.0 for metric in (*SELF_METRICS, *INCLUSIVE_METRICS)}
    for phase, scale in ((setup, 1.0), (timed, 1.0 / passes)):
        own = self_times(phase)
        cats = categories(phase)
        for s in phase:
            metric = cats[s[ID]]
            if metric is not None:
                out[metric] += own[s[ID]] * 1000.0 * scale
        for metric, match in INCLUSIVE_METRICS.items():
            out[metric] += _inclusive(phase, match) * 1000.0 * scale
    walks = [s for s in timed if s[NAME] == WALK]
    leaves = sum(s[LEAVES] for s in walks)
    space = sum(s[SPACE] for s in walks)
    out["core.leaves"] = leaves // passes if leaves % passes == 0 else leaves / passes
    out["core.prune_ratio"] = leaves / space if space else 0.0
    walk_s = out["core.walk_ms"] / 1000.0
    out["core.leaves_per_s"] = (leaves / passes) / walk_s if walk_s else 0.0
    return out
