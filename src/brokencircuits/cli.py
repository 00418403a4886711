"""Command-line front end.

Three subcommands: ``compute`` dispatches an instance file (or inline
parameters) to the matching engine and prints a result document;
``verify`` runs the property-check corpus; ``generate`` emits instance
files from the built-in generators.  Stdout carries JSON only; human
messages go to stderr.  Exit codes: 0 success, 1 failed checks, 2 schema
error, 3 cap exceeded, 4 precondition violation, 5 failed internal
cross-check (``CrossCheckFailed``).

A table names each kind's engine module, imported when the kind runs, so
a process loads only the engine it uses.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys

from . import io
from .core import WORK_BUDGET, _within_budget
from .errors import CapExceeded, CrossCheckFailed, PreconditionError, SchemaError


def _emit(args, data):
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(io.canonical_json(data))


def _permutation(spec, size):
    try:
        positions = [int(x) for x in spec.split(",")]
    except ValueError:
        raise SchemaError(f"--permute-order must list integers, got {spec!r}") from None
    if sorted(positions) != list(range(size)):
        raise SchemaError(f"--permute-order must be a permutation of 0..{size - 1}")
    return positions


def _spec_integer(spec, option):
    """The integer after the colon of an option value such as tight:2 or power:3."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise SchemaError(f"{option} {spec!r} needs an integer after the colon") from None


def _graph_chromatic(args, doc, graphs):
    g = io.parse_graph(doc)
    if args.permute_order:
        perm = _permutation(args.permute_order, len(g.edges))
        g = graphs.Graph(g.vertices, [g.edges[p] for p in perm])
    method = args.method or "broken_circuit"
    out = {"method": method}
    if method == "broken_circuit":
        from .algebra import IntPolynomial

        counts = graphs.whitney_edge_counts(g)
        out["counts"] = list(counts)
        poly = IntPolynomial.from_whitney_counts(len(g.vertices), counts)
    else:
        poly = graphs.chromatic_polynomial(g, method)
    out["polynomial"] = poly.to_json()
    return out


def _graph_scp(args, doc, graphs):
    method = args.method or "direct"
    poly = graphs.q_at_minus_one(io.parse_graph(doc), method)
    return {"method": method, "polynomial": poly.to_json(var="y")}


def _graph_domination(args, doc, graphs):
    method = args.method or "direct"
    poly = graphs.domination_polynomial(io.parse_graph(doc), method)
    return {"method": method, "polynomial": poly.to_json()}


def _hypergraph_chromatic(args, doc, hypergraphs):
    hg, embedded = io.parse_hypergraph(doc)
    method = args.method or "full"
    circuits = None
    if method == "restricted":
        spec = args.circuits or "embedded"
        if spec == "embedded":
            if embedded is None:
                raise PreconditionError("instance has no embedded circuits")
            circuits = embedded
        elif spec.startswith("tight:"):
            circuits = hypergraphs.tight_cycles(hg, _spec_integer(spec, "--circuits"))
        else:
            raise SchemaError(f"unknown circuits source {spec!r}")
    poly = hypergraphs.hypergraph_chromatic(hg, method, circuits)
    return {"method": method, "polynomial": poly.to_json()}


def _matroid_characteristic(args, doc, matroids):
    m = io.parse_matroid(doc)
    method = args.method or "broken_circuit"
    out = {"method": method}
    if method == "broken_circuit":
        from .algebra import IntPolynomial

        counts = matroids.broken_circuit_counts(m)
        out["counts"] = list(counts)
        poly = IntPolynomial.from_whitney_counts(m.full_rank, counts)
    else:
        poly = matroids.characteristic_polynomial(m, method)
    out["polynomial"] = poly.to_json()
    out["validated"] = m.validated
    return out


def _matroid_beta(args, doc, matroids):
    m = io.parse_matroid(doc)
    values = {
        method: matroids.beta_invariant(m, method)
        for method in ("full", "broken_circuit", "derivative")
    }
    if len(set(values.values())) != 1:
        raise CrossCheckFailed(f"beta methods disagree: {values}")
    return {"beta": values["full"], "methods": values}


def _lattice_mobius(args, doc, lattices):
    lat = io.parse_lattice(doc)
    mu = lattices.mobius_function(lat)
    return {"mobius": mu[lat.top], "function": [[io._unlabel(e), mu[e]] for e in lat.elements]}


def _lattice_blass_sagan(args, doc, lattices):
    lat, cut = io.parse_crosscut(doc)
    family = lattices.blass_sagan_family(lat, cut)
    value = lattices.blass_sagan_mobius(lat, cut, family=family)
    return {"mobius": value, "family_size": len(family)}


def _geometry_verify(args, doc, geometry):
    report = {"closure_system": False, "convex_geometry": False}
    try:
        system = io.parse_geometry(doc)
        report["closure_system"] = True
        geometry.ConvexGeometry(system)
    except (PreconditionError, SchemaError) as exc:
        _emit(args, {"kind": args.what, **report, "witness": str(exc)})
        raise
    return {"closure_system": True, "convex_geometry": True}


def _geometry_stats(args, doc, geometry):
    cg = geometry.ConvexGeometry(io.parse_geometry(doc))
    out = {"free_count": len(cg.free_sets()), "signed_count": geometry.count_free_signed(cg)}
    if len(cg.ground) and cg.is_closed(frozenset()):
        out["euler_characteristic"] = geometry.euler_characteristic_free(cg)
    return out


def _whitney_sum(args, doc, core):
    ground, circuits, broken, f = io.parse_whitney(doc)
    if args.permute_order:
        perm = _permutation(args.permute_order, len(ground))
        ground = ground.permuted(perm)
    derived = [bc.subset for bc in core.derive_broken_circuits(circuits, ground)]
    chosen = core._chosen_broken(derived, broken, "a broken circuit of the given family")
    cancellation = "asserted"
    report = None
    if len(ground) <= core.CANCELLATION_CAP:
        report = core.verify_cancellation(f, circuits, ground)
        cancellation = "verified" if report.ok else "violated"
    pruned = core.sum_pruned(f, ground, chosen)
    full = core.sum_full(f, ground) if 1 << len(ground) <= WORK_BUDGET else None
    out = {
        "cancellation": cancellation,
        "pruned": _value_obj(pruned),
        "counts": list(core.enumerate_avoiding(ground, chosen)),
    }
    if full is not None:
        out["full"] = _value_obj(full)
    if cancellation == "violated":
        out["violation"] = {
            "circuit": [io._unlabel(e) for e in sorted(report.circuit, key=repr)],
            "superset": [io._unlabel(e) for e in sorted(report.superset, key=repr)],
        }
        _emit(args, {"kind": args.what, **out})
        raise PreconditionError("cancellation condition violated")
    return out


def _value_obj(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    return str(value) if isinstance(value, int) else io.rational_str(value)


def _number_gcd_expansion(args, doc, numbers):
    variant = args.variant or "gcd"
    value = numbers.gcd_expansion(args.n, variant, modified_domain=args.modified_domain)
    return {"n": args.n, "variant": variant, "value": value}


def _number_totient(args, doc, numbers):
    """number-totient and number-dirichlet-inverse, which differ only in the function."""
    spec = args.h or "identity"
    if spec == "identity":
        h = numbers.MultiplicativeFunction.identity()
    elif spec.startswith("power:"):
        h = numbers.MultiplicativeFunction.power(_spec_integer(spec, "--h"))
    else:
        raise SchemaError(f"unknown multiplicative function {spec!r}")
    fn = numbers.totient if args.what == "number-totient" else numbers.dirichlet_inverse_totient
    value = fn(args.n, h, args.method or "all", modified_domain=args.modified_domain)
    return {"n": args.n, "h": h.name, "value": io.rational_str(value)}


def _number_zeta(args, doc, numbers):
    value = numbers.zeta_reciprocal(args.s, args.prime_bound)
    out = {"s": args.s, "prime_bound": args.prime_bound, "value": io.float_str(value)}
    if args.s == 2:
        reference = 6 / math.pi**2
        out["reference"] = io.float_str(reference)
        out["error"] = io.float_str(abs(value - reference))
    return out


def _number_complex(args, doc, numbers):
    variant = args.variant or "gcd"
    cx = numbers.divisor_complex(args.n, variant)
    return {
        "n": args.n,
        "variant": variant,
        "faces": len(cx),
        "euler_characteristic": cx.euler_characteristic(),
        "bonferroni": numbers.bonferroni_all(cx),
    }


# compute kind -> (engine module, runner); a runner maps (args, instance
# document, engine module) to the result's fields.  The number kinds take
# inline parameters and no document, every other kind an instance file.
_COMPUTE = {
    "graph-chromatic": ("graphs", _graph_chromatic),
    "graph-scp": ("graphs", _graph_scp),
    "graph-domination": ("graphs", _graph_domination),
    "hypergraph-chromatic": ("hypergraphs", _hypergraph_chromatic),
    "matroid-characteristic": ("matroids", _matroid_characteristic),
    "matroid-beta": ("matroids", _matroid_beta),
    "lattice-mobius": ("lattices", _lattice_mobius),
    "lattice-crosscut": ("lattices",
                         lambda a, doc, m: {"mobius": m.rota_crosscut(*io.parse_crosscut(doc))}),
    "lattice-blass-sagan": ("lattices", _lattice_blass_sagan),
    "geometry-verify": ("geometry", _geometry_verify),
    "geometry-stats": ("geometry", _geometry_stats),
    "whitney-sum": ("core", _whitney_sum),
    "number-mobius": ("numbers", lambda a, doc, m: {"n": a.n, "mobius": m.classical_mobius(a.n)}),
    "number-gcd-expansion": ("numbers", _number_gcd_expansion),
    "number-totient": ("numbers", _number_totient),
    "number-dirichlet-inverse": ("numbers", _number_totient),
    "number-zeta": ("numbers", _number_zeta),
    "number-complex": ("numbers", _number_complex),
}


def _cmd_compute(args):
    kind = args.what
    if kind not in _COMPUTE:
        raise SchemaError(f"unknown compute kind {kind!r}")
    module, run = _COMPUTE[kind]
    doc = None
    if module != "numbers":
        if not args.file:
            raise SchemaError(f"compute {kind} needs an instance file")
        doc = io.load_instance(args.file)
    elif kind == "number-zeta":
        if args.s is None or args.prime_bound is None:
            raise SchemaError("compute number-zeta needs --s and --prime-bound")
    elif args.n is None:
        raise SchemaError(f"compute {kind} needs --n")
    engine = importlib.import_module(f"{__package__}.{module}")
    _emit(args, {"kind": kind, **run(args, doc, engine)})
    return 0


def _cmd_verify(args):
    from . import verify

    try:
        results = verify.run_suite(args.suite, args.seed)
    except KeyError:
        raise SchemaError(f"unknown suite {args.suite!r}") from None
    out = {
        "suite": args.suite,
        "seed": args.seed,
        "checks": [
            {"name": r.name, "status": r.status, "witness": r.witness, "seconds": round(r.seconds, 4)}
            for r in results
        ],
        "ok": all(r.status != "fail" for r in results),
    }
    _emit(args, out)
    return 0 if out["ok"] else 1


def _planar_geometry(args, rng, geometry):
    # refused before drawing: the 7x7 grid has 49 points, so past it the draw never ends
    _within_budget(2 ** min(args.n, WORK_BUDGET.bit_length()),
                   f"closure system on {args.n} elements")
    pts = set()
    while len(pts) < args.n:
        pts.add((rng.randint(0, 6), rng.randint(0, 6)))
    return [geometry.planar_point_geometry(sorted(pts))]


# generate kind -> (engine module, builder, io serializer); a builder maps
# (args, rng, engine module) to the serializer's positional arguments
_GENERATE = {
    "random-graph": ("graphs", lambda a, rng, m: [m.random_graph(rng, a.n, a.p)], "graph_to_obj"),
    "grid": ("hypergraphs", lambda a, rng, m: m.grid_rectangle_hypergraph(a.m, a.n),
             "hypergraph_to_obj"),
    "uniform-matroid": ("matroids", lambda a, rng, m: [m.Matroid.uniform(a.r, a.n)], "matroid_to_obj"),
    "boolean-lattice": ("lattices", lambda a, rng, m: [m.boolean_lattice(a.n)], "lattice_to_obj"),
    "divisor-lattice": ("lattices", lambda a, rng, m: [m.divisor_lattice(a.n)], "lattice_to_obj"),
    "partition-lattice": ("lattices", lambda a, rng, m: [m.partition_lattice(a.n)], "lattice_to_obj"),
    "interval-geometry": ("geometry", lambda a, rng, m: [m.interval_geometry(a.n)], "geometry_to_obj"),
    "planar-geometry": ("geometry", _planar_geometry, "geometry_to_obj"),
    "random-whitney": ("core", lambda a, rng, m: m.random_cancelling_instance(rng, a.n),
                       "whitney_to_obj"),
}


def _cmd_generate(args):
    import random

    if args.what not in _GENERATE:
        raise SchemaError(f"unknown generator kind {args.what!r}")
    module, build, serializer = _GENERATE[args.what]
    engine = importlib.import_module(f"{__package__}.{module}")
    parts = build(args, random.Random(args.seed), engine)
    _emit(args, getattr(io, serializer)(*parts, seed=args.seed))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="brokencircuits",
        description="Broken-circuit pruned subset sums and their applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="run one engine on an instance")
    pc.add_argument("what")
    pc.add_argument("file", nargs="?")
    pc.add_argument("--method")
    pc.add_argument("--circuits")
    pc.add_argument("--variant")
    pc.add_argument("--n", type=int)
    pc.add_argument("--s", type=float)
    pc.add_argument("--prime-bound", dest="prime_bound", type=int)
    pc.add_argument("--h")
    pc.add_argument("--modified-domain", dest="modified_domain", action="store_true")
    pc.add_argument("--permute-order", dest="permute_order")
    pc.add_argument("--json", action="store_true", help="pretty-print the output")
    pc.set_defaults(fn=_cmd_compute)

    pv = sub.add_parser("verify", help="run the property-check corpus")
    pv.add_argument("suite", nargs="?", default="all")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(fn=_cmd_verify)

    pg = sub.add_parser("generate", help="emit an instance file")
    pg.add_argument("what")
    pg.add_argument("--n", type=int, default=4)
    pg.add_argument("--m", type=int, default=2)
    pg.add_argument("--r", type=int, default=2)
    pg.add_argument("--p", type=float, default=0.5)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--json", action="store_true")
    pg.set_defaults(fn=_cmd_generate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, FileNotFoundError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except CrossCheckFailed as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
