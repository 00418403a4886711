import importlib

import pytest

import brokencircuits
from brokencircuits import core, lattices

HOMES = {
    "algebra": ["BiPolynomial", "IntPolynomial"],
    "core": [
        "CircuitFamily", "FinitePoset", "IndexedSetFamily", "OrderedGroundSet", "SetFunction",
        "TableSetFunction", "derive_broken_circuits", "enumerate_avoiding", "maxmin_identity",
        "narushima_union", "restricted_union_size", "sum_full", "sum_over_chains",
        "sum_over_maxima", "sum_pruned", "verify_cancellation",
    ],
    "errors": ["CapExceeded", "CrossCheckFailed", "PreconditionError", "SchemaError"],
    "geometry": ["ClosureSystem", "ConvexGeometry"],
    "graphs": ["Graph"],
    "hypergraphs": ["Hypergraph"],
    "lattices": ["Crosscut", "FiniteLattice"],
    "matroids": ["Matroid"],
}
HOME_OF = {name: module for module, names in HOMES.items() for name in names}


def test_all_is_the_sorted_public_surface():
    assert brokencircuits.__all__ == sorted(HOME_OF)


def test_every_public_name_is_its_home_object():
    for name, module in HOME_OF.items():
        home = importlib.import_module(f"brokencircuits.{module}")
        assert getattr(brokencircuits, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from brokencircuits import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == brokencircuits.__all__
    for name, module in HOME_OF.items():
        assert namespace[name] is getattr(importlib.import_module(f"brokencircuits.{module}"), name)


def test_dir_lists_every_name_and_unknown_names_raise():
    assert set(brokencircuits.__all__) <= set(dir(brokencircuits))
    with pytest.raises(AttributeError, match="no_such_name"):
        brokencircuits.no_such_name
    assert not hasattr(brokencircuits, "core_sum")


# (class, field names, field values, repr); each behaves as the frozen
# dataclass it replaced
RECORDS = [
    (core.BrokenCircuit, ("subset", "witness"), (frozenset({1}), frozenset({1, 2})),
     "BrokenCircuit(subset=frozenset({1}), witness=frozenset({1, 2}))"),
    (core.CancellationReport, ("ok", "checked", "circuit", "superset"),
     (False, 3, frozenset({"a"}), None),
     "CancellationReport(ok=False, checked=3, circuit=frozenset({'a'}), superset=None)"),
    (core.MaximaReduction, ("restricted", "full", "cancellation"), (1, None, None),
     "MaximaReduction(restricted=1, full=None, cancellation=None)"),
    (lattices.BrokenCrosscutSet, ("subset", "witnesses", "added", "circuit"),
     (frozenset({1}), {1: 0}, 0, frozenset({0, 1})),
     "BrokenCrosscutSet(subset=frozenset({1}), witnesses={1: 0}, added=0, circuit=frozenset({0, 1}))"),
]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_equality_hash_immutability_and_repr(cls, names, values, text):
    a = cls(*values)
    assert repr(a) == text
    assert a == cls(**dict(zip(names, values)))
    assert not a != cls(*values)
    assert a != cls("other", *values[1:])
    assert a != tuple(values)
    for name, value in zip(names, values):
        assert getattr(a, name) is value
    with pytest.raises(AttributeError):
        setattr(a, names[0], values[0])
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, names[0])
    # dataclass hashing: the tuple of fields; BrokenCrosscutSet keeps its own
    # hash over (subset, added), since its witnesses dict is unhashable
    key = (values[0], values[2]) if cls is lattices.BrokenCrosscutSet else tuple(values)
    assert hash(a) == hash(cls(*values)) == hash(key)
    assert len({a, cls(*values)}) == 1


def test_cancellation_report_truth_is_ok():
    assert core.CancellationReport(True, 0, None, None)
    assert not core.CancellationReport(False, 1, frozenset(), frozenset())
