"""Spans recorded around the calls into each ``brokencircuits`` layer.

Tracing is installed from outside the program: ``Tracer.install`` replaces
the public functions in every layer module's namespace, and the
constructors and class methods of the public classes, with wrappers that
record a span per call.  No file of the program changes.  A span is the
tuple

    (id, name, start, end, parent, op, busy, leaves, space)

``busy`` is ``end - start`` for a plain call.  For a generator function it
is the summed time of the generator's resumptions, so the time a consumer
spends between two ``next()`` calls stays with the consumer; ``leaves``
counts the items it yielded and ``space`` is 2^len(first argument), the
size of the cube a subset walk ranges over.  A span's self time is its
busy time minus the busy time of its child spans.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "brokencircuits"
LAYERS = (
    "cli",
    "io",
    "core",
    "algebra",
    "graphs",
    "hypergraphs",
    "matroids",
    "lattices",
    "numbers",
    "geometry",
    "oracles",
)
# value types whose methods run once per subset; only their serializers
# are traced, or the spans would outnumber the work
_VALUE_LAYERS = {"algebra"}

ID, NAME, START, END, PARENT, OP, BUSY, LEAVES, SPACE = range(9)


def _method_slot(fn):
    """(position, default) of a ``method`` parameter, or None."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for i, p in enumerate(params):
        if p.name == "method":
            return i, p.default
    return None


class Tracer:
    """Span recorder for one process."""

    def __init__(self, base_id=0, root=None):
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = base_id
        self._root = root
        self._wrapped = {}

    def new_id(self):
        self._next_id += 1
        return self._next_id

    def _parent(self):
        return self._stack[-1] if self._stack else self._root

    def record(self, sid, name, start, end):
        """Record a span the caller timed, such as a child process's life."""
        self.spans.append((sid, name, start, end, self._parent(), self.op, end - start, 0, 0))

    # -- wrapping ---------------------------------------------------------

    def install(self):
        """Wrap the public callables of every layer module."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        homes = {m.__name__ for m in modules}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in homes:
                    setattr(module, attr, self._wrap(obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
        return self

    def _wrap(self, fn, name=None):
        cached = self._wrapped.get(fn)
        if cached is not None:
            return cached
        if name is None:
            name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        if inspect.isgeneratorfunction(fn):
            wrapper = self._generator_wrapper(fn, name)
        else:
            wrapper = self._call_wrapper(fn, name)
        self._wrapped[fn] = wrapper
        return wrapper

    def _wrap_class(self, cls, layer):
        own = vars(cls)
        prefix = f"{layer}.{cls.__name__}"
        if "to_json" in own and inspect.isfunction(own["to_json"]):
            cls.to_json = self._wrap(own["to_json"], f"{prefix}.to_json")
        if layer in _VALUE_LAYERS:
            return
        if "__init__" in own and inspect.isfunction(own["__init__"]):
            cls.__init__ = self._wrap(own["__init__"], f"{prefix}.__init__")
        for attr, obj in list(own.items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, f"{prefix}.{attr}")))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(obj.__func__, f"{prefix}.{attr}")))

    def _call_wrapper(self, fn, name):
        slot = _method_slot(fn)
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if slot is not None:
                pos, default = slot
                method = kwargs.get("method", args[pos] if len(args) > pos else default)
                label = f"{name}[{method}]"
            parent = tracer._parent()
            sid = tracer.new_id()
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, label, start, end, parent, tracer.op, end - start, 0, 0))

        return wrapper

    def _generator_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the parent is the caller, fixed now rather than at the first next()
            return tracer._walk(fn, name, args, kwargs, tracer._parent(), tracer.op)

        return wrapper

    def _walk(self, fn, name, args, kwargs, parent, op):
        clock = time.perf_counter
        stack = self._stack
        sid = self.new_id()
        space = 1 << len(args[0]) if args and hasattr(args[0], "__len__") else 0
        leaves = 0
        busy = 0.0
        start = clock()
        gen = fn(*args, **kwargs)
        try:
            while True:
                stack.append(sid)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    break
                finally:
                    busy += clock() - t0
                    stack.pop()
                leaves += 1
                yield item
        finally:
            gen.close()
            self.spans.append((sid, name, start, clock(), parent, op, busy, leaves, space))

    # -- output -----------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def load_spans(path):
    with open(path) as fh:
        return [tuple(s) for s in json.load(fh)]


def self_times(spans):
    """span id -> busy time minus the busy time of its children."""
    child_busy = {}
    for s in spans:
        if s[PARENT] is not None:
            child_busy[s[PARENT]] = child_busy.get(s[PARENT], 0.0) + s[BUSY]
    return {s[ID]: s[BUSY] - child_busy.get(s[ID], 0.0) for s in spans}
