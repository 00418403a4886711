"""Command-line front end.

Three subcommands: ``compute`` dispatches an instance file (or inline
parameters) to the matching engine and prints a result document;
``verify`` runs the property-check corpus; ``generate`` emits instance
files from the built-in generators.  Stdout carries JSON only; human
messages go to stderr.  Exit codes: 0 success, 1 failed checks, 2 schema
error, 3 cap exceeded, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import core, geometry, graphs, hypergraphs, io, lattices, matroids, numbers, verify
from .errors import CapExceeded, PreconditionError, SchemaError


def _emit(args, data):
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(io.canonical_json(data))


def _permutation(spec, size):
    positions = [int(x) for x in spec.split(",")]
    if sorted(positions) != list(range(size)):
        raise SchemaError(f"--permute-order must be a permutation of 0..{size - 1}")
    return positions


_INLINE_KINDS = {
    "number-mobius",
    "number-gcd-expansion",
    "number-totient",
    "number-dirichlet-inverse",
    "number-zeta",
    "number-complex",
}


def _cmd_compute(args):
    kind = args.what
    if kind not in _INLINE_KINDS and not args.file:
        raise SchemaError(f"compute {kind} needs an instance file")
    if kind in _INLINE_KINDS and kind != "number-zeta" and args.n is None:
        raise SchemaError(f"compute {kind} needs --n")
    if kind == "number-zeta" and (args.s is None or args.prime_bound is None):
        raise SchemaError("compute number-zeta needs --s and --prime-bound")
    if kind == "graph-chromatic":
        g = io.parse_graph(io.load_instance(args.file))
        if args.permute_order:
            perm = _permutation(args.permute_order, len(g.edges))
            g = graphs.Graph(g.vertices, [g.edges[p] for p in perm])
        method = args.method or "broken_circuit"
        out = {"kind": kind, "method": method}
        if method == "broken_circuit":
            counts = graphs.whitney_edge_counts(g)
            out["counts"] = list(counts)
            poly = graphs._chromatic_from_counts(g, counts)
        else:
            poly = graphs.chromatic_polynomial(g, method)
        out["polynomial"] = poly.to_json()
        _emit(args, out)
    elif kind == "graph-scp":
        g = io.parse_graph(io.load_instance(args.file))
        method = args.method or "direct"
        poly = graphs.q_at_minus_one(g, method)
        _emit(args, {"kind": kind, "method": method, "polynomial": poly.to_json(var="y")})
    elif kind == "graph-domination":
        g = io.parse_graph(io.load_instance(args.file))
        method = args.method or "direct"
        poly = graphs.domination_polynomial(g, method)
        _emit(args, {"kind": kind, "method": method, "polynomial": poly.to_json()})
    elif kind == "hypergraph-chromatic":
        hg, embedded = io.parse_hypergraph(io.load_instance(args.file))
        method = args.method or "full"
        circuits = None
        if method == "restricted":
            spec = args.circuits or "embedded"
            if spec == "embedded":
                if embedded is None:
                    raise PreconditionError("instance has no embedded circuits")
                circuits = embedded
            elif spec.startswith("tight:"):
                circuits = hypergraphs.tight_cycles(hg, int(spec.split(":", 1)[1]))
            else:
                raise SchemaError(f"unknown circuits source {spec!r}")
        poly = hypergraphs.hypergraph_chromatic(hg, method, circuits)
        _emit(args, {"kind": kind, "method": method, "polynomial": poly.to_json()})
    elif kind == "matroid-characteristic":
        m = io.parse_matroid(io.load_instance(args.file))
        method = args.method or "broken_circuit"
        out = {"kind": kind, "method": method}
        if method == "broken_circuit":
            matroids._check_sum_cap(m, "characteristic polynomial")
            counts = matroids.broken_circuit_counts(m)
            out["counts"] = list(counts)
            poly = matroids._characteristic_from_counts(m, counts)
        else:
            poly = matroids.characteristic_polynomial(m, method)
        out["polynomial"] = poly.to_json()
        out["validated"] = m.validated
        _emit(args, out)
    elif kind == "matroid-beta":
        m = io.parse_matroid(io.load_instance(args.file))
        values = {
            method: matroids.beta_invariant(m, method)
            for method in ("full", "broken_circuit", "derivative")
        }
        if len(set(values.values())) != 1:
            raise RuntimeError(f"beta methods disagree: {values}")
        _emit(args, {"kind": kind, "beta": values["full"], "methods": values})
    elif kind == "lattice-mobius":
        lat = io.parse_lattice(io.load_instance(args.file))
        mu = lattices.mobius_function(lat)
        _emit(
            args,
            {
                "kind": kind,
                "mobius": mu[lat.top],
                "function": [[io._unlabel(e), mu[e]] for e in lat.elements],
            },
        )
    elif kind == "lattice-crosscut":
        lat, cut = io.parse_crosscut(io.load_instance(args.file))
        value = lattices.rota_crosscut(lat, cut)
        _emit(args, {"kind": kind, "mobius": value})
    elif kind == "lattice-blass-sagan":
        lat, cut = io.parse_crosscut(io.load_instance(args.file))
        family = lattices.blass_sagan_family(lat, cut)
        value = lattices.blass_sagan_mobius(lat, cut, family=family)
        _emit(args, {"kind": kind, "mobius": value, "family_size": len(family)})
    elif kind == "geometry-verify":
        obj = io.load_instance(args.file)
        report = {"kind": kind, "closure_system": True, "convex_geometry": True}
        try:
            system = io.parse_geometry(obj)
        except (PreconditionError, SchemaError) as exc:
            report["closure_system"] = False
            report["convex_geometry"] = False
            report["witness"] = str(exc)
            _emit(args, report)
            raise
        try:
            geometry.ConvexGeometry(system)
        except PreconditionError as exc:
            report["convex_geometry"] = False
            report["witness"] = str(exc)
            _emit(args, report)
            raise
        _emit(args, report)
    elif kind == "geometry-stats":
        system = io.parse_geometry(io.load_instance(args.file))
        cg = geometry.ConvexGeometry(system)
        free = cg.free_sets()
        out = {
            "kind": kind,
            "free_count": len(free),
            "signed_count": geometry.count_free_signed(cg),
        }
        if len(cg.ground) and cg.is_closed(frozenset()):
            out["euler_characteristic"] = geometry.euler_characteristic_free(cg)
        _emit(args, out)
    elif kind == "whitney-sum":
        ground, circuits, broken, f = io.parse_whitney(io.load_instance(args.file))
        if args.permute_order:
            perm = _permutation(args.permute_order, len(ground))
            ground = ground.permuted(perm)
        derived = [bc.subset for bc in core.derive_broken_circuits(circuits, ground)]
        if broken == "all":
            chosen = derived
        else:
            allowed = set(derived)
            chosen = broken
            for b in chosen:
                if b not in allowed:
                    raise PreconditionError(
                        f"{sorted(map(repr, b))} is not a broken circuit of the given family"
                    )
        cancellation = "asserted"
        report = None
        if len(ground) <= (args.cap_elements or core.CANCELLATION_CAP):
            report = core.verify_cancellation(f, circuits, ground)
            cancellation = "verified" if report.ok else "violated"
        pruned = core.sum_pruned(f, ground, chosen)
        full = core.sum_full(f, ground) if len(ground) <= core.FULL_SUM_FEASIBLE else None
        out = {
            "kind": kind,
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
            _emit(args, out)
            raise PreconditionError("cancellation condition violated")
        _emit(args, out)
    elif kind == "number-mobius":
        _emit(args, {"kind": kind, "n": args.n, "mobius": numbers.classical_mobius(args.n)})
    elif kind == "number-gcd-expansion":
        variant = args.variant or "gcd"
        value = numbers.gcd_expansion(args.n, variant, modified_domain=args.modified_domain)
        _emit(args, {"kind": kind, "n": args.n, "variant": variant, "value": value})
    elif kind == "number-totient":
        h = _parse_h(args.h)
        value = numbers.totient(args.n, h, args.method or "all", modified_domain=args.modified_domain)
        _emit(args, {"kind": kind, "n": args.n, "h": h.name, "value": io.rational_str(value)})
    elif kind == "number-dirichlet-inverse":
        h = _parse_h(args.h)
        value = numbers.dirichlet_inverse_totient(
            args.n, h, args.method or "all", modified_domain=args.modified_domain
        )
        _emit(args, {"kind": kind, "n": args.n, "h": h.name, "value": io.rational_str(value)})
    elif kind == "number-zeta":
        value = numbers.zeta_reciprocal(args.s, args.prime_bound)
        out = {
            "kind": kind,
            "s": args.s,
            "prime_bound": args.prime_bound,
            "value": io.float_str(value),
        }
        if args.s == 2:
            import math

            reference = 6 / math.pi**2
            out["reference"] = io.float_str(reference)
            out["error"] = io.float_str(abs(value - reference))
        _emit(args, out)
    elif kind == "number-complex":
        variant = args.variant or "gcd"
        cx = numbers.divisor_complex(args.n, variant)
        _emit(
            args,
            {
                "kind": kind,
                "n": args.n,
                "variant": variant,
                "faces": len(cx),
                "euler_characteristic": cx.euler_characteristic(),
                "bonferroni": numbers.bonferroni_all(cx),
            },
        )
    else:
        raise SchemaError(f"unknown compute kind {kind!r}")
    return 0


def _value_obj(value):
    from .algebra import BiPolynomial, IntPolynomial

    if isinstance(value, IntPolynomial):
        return value.to_json()
    if isinstance(value, BiPolynomial):
        return value.to_json()
    if isinstance(value, int):
        return str(value)
    return io.rational_str(value)


def _parse_h(spec):
    spec = spec or "identity"
    if spec == "identity":
        return numbers.MultiplicativeFunction.identity()
    if spec.startswith("power:"):
        return numbers.MultiplicativeFunction.power(int(spec.split(":", 1)[1]))
    raise SchemaError(f"unknown multiplicative function {spec!r}")


def _cmd_verify(args):
    try:
        results = verify.run_suite(args.suite, args.seed)
    except KeyError:
        raise SchemaError(f"unknown suite {args.suite!r}") from None
    out = {
        "suite": args.suite,
        "seed": args.seed,
        "checks": [
            {
                "name": r.name,
                "status": r.status,
                "witness": r.witness,
                "seconds": round(r.seconds, 4),
            }
            for r in results
        ],
        "ok": all(r.status != "fail" for r in results),
    }
    _emit(args, out)
    return 0 if out["ok"] else 1


def _cmd_generate(args):
    rng = random.Random(args.seed)
    kind = args.what
    if kind == "random-graph":
        g = graphs.random_graph(rng, args.n, args.p)
        obj = io.graph_to_obj(g, seed=args.seed)
    elif kind == "grid":
        hg, family = hypergraphs.grid_rectangle_hypergraph(args.m, args.n)
        obj = io.hypergraph_to_obj(hg, circuits=family, seed=args.seed)
    elif kind == "uniform-matroid":
        obj = io.matroid_to_obj(matroids.Matroid.uniform(args.r, args.n), seed=args.seed)
    elif kind == "boolean-lattice":
        obj = io.lattice_to_obj(lattices.boolean_lattice(args.n), seed=args.seed)
    elif kind == "divisor-lattice":
        obj = io.lattice_to_obj(lattices.divisor_lattice(args.n), seed=args.seed)
    elif kind == "partition-lattice":
        obj = io.lattice_to_obj(lattices.partition_lattice(args.n), seed=args.seed)
    elif kind == "interval-geometry":
        obj = io.geometry_to_obj(geometry.interval_geometry(args.n), seed=args.seed)
    elif kind == "planar-geometry":
        pts = set()
        while len(pts) < args.n:
            pts.add((rng.randint(0, 6), rng.randint(0, 6)))
        obj = io.geometry_to_obj(geometry.planar_point_geometry(sorted(pts)), seed=args.seed)
    elif kind == "random-whitney":
        ground, circuits, f = core.random_cancelling_instance(rng, args.n)
        obj = io.whitney_to_obj(ground, circuits, f, seed=args.seed)
    else:
        raise SchemaError(f"unknown generator kind {kind!r}")
    _emit(args, obj)
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
    pc.add_argument("--m", type=int)
    pc.add_argument("--s", type=float)
    pc.add_argument("--prime-bound", dest="prime_bound", type=int)
    pc.add_argument("--h")
    pc.add_argument("--modified-domain", dest="modified_domain", action="store_true")
    pc.add_argument("--permute-order", dest="permute_order")
    pc.add_argument("--cap-elements", dest="cap_elements", type=int)
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
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
