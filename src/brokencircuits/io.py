"""Instance file parsing and serialization.

Instances are JSON documents with a top-level "kind" discriminator;
unknown fields are rejected.  Labels may be strings, integers, or nested
lists (which become tuples).  Output is canonical: sorted keys, compact
separators, one trailing newline.
"""

from __future__ import annotations

import json

from .core import CircuitFamily, OrderedGroundSet, SetFunction, TableSetFunction
from .errors import SchemaError
from .geometry import ClosureSystem, ConvexGeometry
from .graphs import Graph
from .hypergraphs import Hypergraph
from .lattices import Crosscut, FiniteLattice
from .matroids import Matroid

_FIELDS = {
    "whitney": ({"kind", "elements", "circuits", "function"}, {"broken", "seed"}),
    "graph": ({"kind", "vertices", "edges"}, {"seed"}),
    "hypergraph": ({"kind", "vertices", "edges"}, {"circuits", "seed"}),
    "matroid": ({"kind"}, {"elements", "circuits", "uniform", "graphic", "seed"}),
    "lattice": ({"kind", "elements", "covers"}, {"seed"}),
    "crosscut": ({"kind", "lattice", "crosscut"}, {"precedence", "seed"}),
    "geometry": ({"kind", "elements", "closed"}, {"seed"}),
}


def canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _label(x):
    if isinstance(x, list):
        return tuple(_label(v) for v in x)
    return x


def _unlabel(x):
    if isinstance(x, (frozenset, set)):
        return [_unlabel(v) for v in sorted(x, key=repr)]
    if isinstance(x, tuple):
        return [_unlabel(v) for v in x]
    return x


def check_fields(obj, kind):
    if kind not in _FIELDS:
        raise SchemaError(f"unknown instance kind {kind!r}")
    if obj.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, got {obj.get('kind')!r}")
    required, optional = _FIELDS[kind]
    keys = set(obj)
    if not required <= keys:
        raise SchemaError(f"missing fields for {kind}: {sorted(required - keys)}")
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"unknown fields for {kind}: {sorted(unknown)}")


def load_instance(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("instance files need a top-level 'kind'")
    check_fields(obj, obj["kind"])
    return obj


def parse_graph(obj):
    check_fields(obj, "graph")
    return Graph([_label(v) for v in obj["vertices"]], [tuple(map(_label, e)) for e in obj["edges"]])


def graph_to_obj(graph, seed=None):
    out = {
        "kind": "graph",
        "vertices": [_unlabel(v) for v in graph.vertices],
        "edges": [[_unlabel(u), _unlabel(v)] for u, v in graph.edges],
    }
    if seed is not None:
        out["seed"] = seed
    return out


def parse_hypergraph(obj):
    check_fields(obj, "hypergraph")
    hg = Hypergraph(
        [_label(v) for v in obj["vertices"]],
        [frozenset(_label(v) for v in e) for e in obj["edges"]],
    )
    circuits = None
    if "circuits" in obj:
        circuits = CircuitFamily([frozenset(int(i) for i in c) for c in obj["circuits"]])
    return hg, circuits


def hypergraph_to_obj(hypergraph, circuits=None, seed=None):
    out = {
        "kind": "hypergraph",
        "vertices": [_unlabel(v) for v in hypergraph.vertices],
        "edges": [sorted((_unlabel(v) for v in e), key=repr) for e in hypergraph.edges],
    }
    if circuits is not None:
        out["circuits"] = [sorted(c) for c in circuits]
    if seed is not None:
        out["seed"] = seed
    return out


def parse_matroid(obj):
    check_fields(obj, "matroid")
    given = [k for k in ("elements", "uniform", "graphic") if k in obj]
    if "uniform" in obj:
        if len(given) > 1 or "circuits" in obj:
            raise SchemaError("a uniform matroid takes no other structure fields")
        r, n = obj["uniform"]
        return Matroid.uniform(int(r), int(n))
    if "graphic" in obj:
        if len(given) > 1 or "circuits" in obj:
            raise SchemaError("a graphic matroid takes no other structure fields")
        return Matroid.graphic(parse_graph(obj["graphic"]))
    if "elements" not in obj or "circuits" not in obj:
        raise SchemaError("a matroid needs elements+circuits, uniform, or graphic")
    return Matroid(
        [_label(e) for e in obj["elements"]],
        [frozenset(_label(x) for x in c) for c in obj["circuits"]],
    )


def matroid_to_obj(matroid, seed=None):
    out = {
        "kind": "matroid",
        "elements": [_unlabel(e) for e in matroid.elements],
        "circuits": [sorted((_unlabel(x) for x in c), key=repr) for c in matroid.circuits],
    }
    if seed is not None:
        out["seed"] = seed
    return out


def parse_lattice(obj):
    check_fields(obj, "lattice")
    return FiniteLattice(
        [_label(e) for e in obj["elements"]],
        [(_label(a), _label(b)) for a, b in obj["covers"]],
    )


def lattice_to_obj(lattice, seed=None):
    covers = []
    for i, e in enumerate(lattice.elements):
        for j in sorted(lattice._covers_up[i]):
            covers.append([_unlabel(e), _unlabel(lattice.elements[j])])
    out = {
        "kind": "lattice",
        "elements": [_unlabel(e) for e in lattice.elements],
        "covers": covers,
    }
    if seed is not None:
        out["seed"] = seed
    return out


def parse_crosscut(obj):
    check_fields(obj, "crosscut")
    lattice = parse_lattice(obj["lattice"])
    elements = [_label(e) for e in obj["crosscut"]]
    precedence = [(_label(a), _label(b)) for a, b in obj.get("precedence", [])]
    return lattice, Crosscut(lattice, elements, precedence)


def parse_geometry(obj):
    check_fields(obj, "geometry")
    ground = OrderedGroundSet([_label(e) for e in obj["elements"]])
    closed = [frozenset(_label(x) for x in c) for c in obj["closed"]]
    return ClosureSystem(ground, closed)


def geometry_to_obj(geometry, seed=None):
    system = geometry.system if isinstance(geometry, ConvexGeometry) else geometry
    out = {
        "kind": "geometry",
        "elements": [_unlabel(e) for e in system.ground],
        "closed": [sorted((_unlabel(x) for x in c), key=repr) for c in system.closed_sets],
    }
    if seed is not None:
        out["seed"] = seed
    return out


def parse_whitney(obj):
    """(ground, circuits, broken, f) from a whitney instance."""
    check_fields(obj, "whitney")
    ground = OrderedGroundSet([_label(e) for e in obj["elements"]])
    circuits = CircuitFamily([frozenset(_label(x) for x in c) for c in obj["circuits"]])
    broken = obj.get("broken", "all")
    if broken != "all":
        broken = [frozenset(_label(x) for x in b) for b in broken]
    f = parse_set_function(obj["function"], ground)
    return ground, circuits, broken, f


def parse_set_function(obj, ground):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("function objects need a 'kind'")
    kind = obj["kind"]
    if kind == "sign":
        if set(obj) != {"kind"}:
            raise SchemaError("sign functions take no other fields")
        return SetFunction(lambda s: -1 if len(s) & 1 else 1, 0, "sign")
    if kind == "table":
        allowed = {"kind", "entries", "default"}
        if not set(obj) <= allowed or "entries" not in obj:
            raise SchemaError("table functions take 'entries' and optional 'default'")
        default = _table_int(obj.get("default", "0"))
        table = {}
        for subset, value in obj["entries"]:
            table[frozenset(_label(x) for x in subset)] = _table_int(value)
        return TableSetFunction(ground, table, 0, "table", default=default)
    raise SchemaError(f"unknown function kind {kind!r}")


def _is_table_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _table_int(value):
    """A table value: a JSON integer or a decimal integer string."""
    if _is_table_int(value):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise SchemaError(f"table values must be integers, got {value!r}")


def whitney_to_obj(ground, circuits, f, broken="all", seed=None):
    if isinstance(f, TableSetFunction):
        entries = []
        for mask in range(1 << len(ground)):
            value = f._table[mask]
            if not _is_table_int(value):
                raise SchemaError(
                    f"whitney instances hold integer tables only, got {type(value).__name__} values"
                )
            entries.append(
                [sorted((_unlabel(e) for e in ground.subset_of(mask)), key=repr), str(value)]
            )
        function = {"kind": "table", "entries": entries}
    else:
        function = {"kind": f.name}
    out = {
        "kind": "whitney",
        "elements": [_unlabel(e) for e in ground],
        "circuits": [sorted((_unlabel(x) for x in c), key=repr) for c in circuits],
        "function": function,
    }
    if broken != "all":
        out["broken"] = [sorted((_unlabel(x) for x in b), key=repr) for b in broken]
    if seed is not None:
        out["seed"] = seed
    return out


def rational_str(value):
    """Exact rationals as 'p/q', or plain 'p' for integers."""
    from fractions import Fraction

    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def float_str(value):
    return f"{value:.12g}"
