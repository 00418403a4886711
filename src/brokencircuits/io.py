"""Instance file parsing and serialization.

Instances are JSON documents with a top-level "kind" discriminator;
unknown fields and malformed shapes are rejected.  Labels may be
strings, integers, or nested lists (which become tuples).  Output is
canonical: sorted keys, compact separators, one trailing newline.
"""

from __future__ import annotations

import json

from .core import CircuitFamily, OrderedGroundSet, SetFunction, TableSetFunction
from .errors import SchemaError

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
    if isinstance(x, dict):
        raise SchemaError(f"labels are strings, integers or lists, got {x!r}")
    return x


def _labels(value, what):
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {type(value).__name__}")
    return [_label(x) for x in value]


def _label_lists(value, what, size=None):
    """A JSON list of label lists, as tuples, each of `size` labels if given."""
    items = _labels(value, what)
    for item in items:
        if not isinstance(item, tuple) or (size and len(item) != size):
            shape = f"{size}-element list" if size else "list"
            raise SchemaError(f"each of {what} must be a {shape}, got {item!r}")
    return items


def _unlabel(x):
    if isinstance(x, (frozenset, set)):
        return [_unlabel(v) for v in sorted(x, key=repr)]
    if isinstance(x, tuple):
        return [_unlabel(v) for v in x]
    return x


def _seeded(out, seed):
    if seed is not None:
        out["seed"] = seed
    return out


def check_fields(obj, kind):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a {kind} object, got {type(obj).__name__}")
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
    from .graphs import Graph

    check_fields(obj, "graph")
    return Graph(_labels(obj["vertices"], "vertices"), _label_lists(obj["edges"], "edges", 2))


def graph_to_obj(graph, seed=None):
    out = {
        "kind": "graph",
        "vertices": [_unlabel(v) for v in graph.vertices],
        "edges": [[_unlabel(u), _unlabel(v)] for u, v in graph.edges],
    }
    return _seeded(out, seed)


def parse_hypergraph(obj):
    from .hypergraphs import Hypergraph

    check_fields(obj, "hypergraph")
    edges = [frozenset(e) for e in _label_lists(obj["edges"], "edges")]
    hg = Hypergraph(_labels(obj["vertices"], "vertices"), edges)
    circuits = None
    if "circuits" in obj:
        circuits = _label_lists(obj["circuits"], "circuits")
        if not all(_is_int(i) for c in circuits for i in c):
            raise SchemaError("hypergraph circuits are lists of edge indices")
        circuits = CircuitFamily([frozenset(c) for c in circuits])
    return hg, circuits


def hypergraph_to_obj(hypergraph, circuits=None, seed=None):
    out = {
        "kind": "hypergraph",
        "vertices": [_unlabel(v) for v in hypergraph.vertices],
        "edges": [sorted((_unlabel(v) for v in e), key=repr) for e in hypergraph.edges],
    }
    if circuits is not None:
        out["circuits"] = [sorted(c) for c in circuits]
    return _seeded(out, seed)


def parse_matroid(obj):
    from .matroids import Matroid

    check_fields(obj, "matroid")
    given = [k for k in ("elements", "uniform", "graphic") if k in obj]
    if "uniform" in obj:
        if len(given) > 1 or "circuits" in obj:
            raise SchemaError("a uniform matroid takes no other structure fields")
        uniform = obj["uniform"]
        if not (isinstance(uniform, list) and len(uniform) == 2 and all(map(_is_int, uniform))):
            raise SchemaError(f"uniform must be two integers [r, n], got {uniform!r}")
        return Matroid.uniform(*uniform)
    if "graphic" in obj:
        if len(given) > 1 or "circuits" in obj:
            raise SchemaError("a graphic matroid takes no other structure fields")
        return Matroid.graphic(parse_graph(obj["graphic"]))
    if "elements" not in obj or "circuits" not in obj:
        raise SchemaError("a matroid needs elements+circuits, uniform, or graphic")
    circuits = [frozenset(c) for c in _label_lists(obj["circuits"], "circuits")]
    return Matroid(_labels(obj["elements"], "elements"), circuits)


def matroid_to_obj(matroid, seed=None):
    out = {
        "kind": "matroid",
        "elements": [_unlabel(e) for e in matroid.elements],
        "circuits": [sorted((_unlabel(x) for x in c), key=repr) for c in matroid.circuits],
    }
    return _seeded(out, seed)


def parse_lattice(obj):
    from .lattices import FiniteLattice

    check_fields(obj, "lattice")
    return FiniteLattice(_labels(obj["elements"], "elements"), _label_lists(obj["covers"], "covers", 2))


def lattice_to_obj(lattice, seed=None):
    elements = [_unlabel(e) for e in lattice.elements]
    covers = [[elements[i], elements[j]] for i in range(len(elements))
              for j in sorted(lattice._covers_up[i])]
    return _seeded({"kind": "lattice", "elements": elements, "covers": covers}, seed)


def parse_crosscut(obj):
    from .lattices import Crosscut

    check_fields(obj, "crosscut")
    lattice = parse_lattice(obj["lattice"])
    elements = _labels(obj["crosscut"], "crosscut")
    precedence = _label_lists(obj.get("precedence", []), "precedence", 2)
    return lattice, Crosscut(lattice, elements, precedence)


def parse_geometry(obj):
    from .geometry import ClosureSystem

    check_fields(obj, "geometry")
    ground = OrderedGroundSet(_labels(obj["elements"], "elements"))
    closed = [frozenset(c) for c in _label_lists(obj["closed"], "closed")]
    return ClosureSystem(ground, closed)


def geometry_to_obj(geometry, seed=None):
    from .geometry import ConvexGeometry

    system = geometry.system if isinstance(geometry, ConvexGeometry) else geometry
    out = {
        "kind": "geometry",
        "elements": [_unlabel(e) for e in system.ground],
        "closed": [sorted((_unlabel(x) for x in c), key=repr) for c in system.closed_sets],
    }
    return _seeded(out, seed)


def parse_whitney(obj):
    """(ground, circuits, broken, f) from a whitney instance."""
    check_fields(obj, "whitney")
    ground = OrderedGroundSet(_labels(obj["elements"], "elements"))
    circuits = CircuitFamily([frozenset(c) for c in _label_lists(obj["circuits"], "circuits")])
    broken = obj.get("broken", "all")
    if broken != "all":
        broken = [frozenset(b) for b in _label_lists(broken, "broken")]
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
        entries = obj["entries"]
        if not (isinstance(entries, list) and all(isinstance(e, list) and len(e) == 2 for e in entries)):
            raise SchemaError("table entries are a list of [subset, value] pairs")
        for subset, value in entries:
            table[frozenset(_labels(subset, "table subsets"))] = _table_int(value)
        return TableSetFunction(ground, table, 0, "table", default=default)
    raise SchemaError(f"unknown function kind {kind!r}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _table_int(value):
    """A table value: a JSON integer or a decimal integer string."""
    if _is_int(value):
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
            if not _is_int(value):
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
    return _seeded(out, seed)


def rational_str(value):
    """Exact rationals as 'p/q', or plain 'p' for integers."""
    from fractions import Fraction

    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def float_str(value):
    return f"{value:.12g}"
