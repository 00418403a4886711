"""The three benchmark workloads and the instances they run.

Every instance is made from the workload seed, through a string-seeded
``random.Random`` per instance family, so the same seed gives the same
inputs and one family's draws do not shift another's.  Named instances
(Petersen, K6, the grids, the cycles, B5, Pi5, n = 180 and 720720) are
fixed.  The digest of a plan covers every instance's data, so two runs
with equal digests ran identical inputs.

pruned-walk
    The broken-circuit routes on the largest instances each family
    finishes today.  This is the paper's pruned sum: the ``core`` walk and
    the per-leaf evaluations do the work.
unrestricted-sums
    The same graph, matroid, Whitney and cycle instances through their
    full routes, plus the divisor, crosscut and geometry sums.  The work
    sits in 2^n loops and recursive walks that recompute a statistic per
    subset; the ``core`` pruning walk does almost nothing here.
cli-oneshot
    One ``brokencircuits compute`` process per op, on small instances of
    every compute kind: the cost a user pays for one answer.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import referee as R

WORKLOADS = ("pruned-walk", "unrestricted-sums", "cli-oneshot")

# graph draws: (vertices, edges).  The pruned route's cost on draws with 18
# or 20 edges swings up to fourfold between seeds, which would dominate the
# seed-to-seed spread; with at most 16 edges the full route runs the same
# draws in a fraction of a second.
GRAPH_DRAWS = ((9, 12), (10, 16))
# Whitney instances are redrawn until the avoiding share of 2^n lies in this
# band, so that the walk's work does not swing with the seed
LEAF_BAND = (7 / 16, 9 / 16)
CHILD_TIMEOUT_S = 60
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


@dataclass
class Op:
    """One call into a public engine function, or one ``compute`` process."""

    name: str
    call: Callable[[], object]
    check: Callable[[R.Referee, object], bool]
    args: list | None = None  # compute arguments of a cli op


@dataclass
class Plan:
    """A workload's ops and what the worker needs to run them.

    ``rss`` has ``sample()``, called after each op, and ``peak_mb``;
    ``traced_ops(tracer)`` gives the ops to run under a tracer;
    ``child_spans()`` collects spans written by child processes;
    ``rebuild()`` repeats the instance building, for tracing set-up;
    ``warm_up()`` runs before timing.
    """

    ops: list
    digest: str
    # (poly op, int op) running the identical walk, for algebra.poly_extra_ms
    poly_pair: tuple | None = None
    rss: object = None
    # passes the timed loop makes at least, so that the same ops set the tail
    min_passes: int = 1
    traced_ops: Callable = None
    child_spans: Callable = None
    rebuild: Callable = None
    warm_up: Callable = None


def _module(layer):
    return importlib.import_module(f"brokencircuits.{layer}")


def engine(layer, attr, *args):
    """Call ``brokencircuits.<layer>.<attr>`` as resolved at call time, so an
    installed tracer's wrapper is the one that runs."""
    module = _module(layer)
    return lambda: getattr(module, attr)(*args)


def digest_of(descriptions):
    blob = json.dumps(descriptions, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class SelfRss:
    """Highest resident set size of this process seen between ops.

    The high-water mark of the whole process would be set by set-up, whose
    transient size follows the seed's draws, so it is sampled per op."""

    def __init__(self):
        self.peak_mb = 0.0

    def sample(self):
        with open("/proc/self/statm") as fh:
            resident = int(fh.read().split()[1])
        self.peak_mb = max(self.peak_mb, resident * PAGE_BYTES / 2**20)


# -- instances ------------------------------------------------------------


def petersen_edges():
    return [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]


def grid_graph_edges(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((i * cols + j, i * cols + j + 1))
            if i + 1 < rows:
                edges.append((i * cols + j, (i + 1) * cols + j))
    return edges


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def random_precedence(rng, elements):
    order = list(elements)
    rng.shuffle(order)
    return [(order[i], order[j]) for i in range(len(order))
            for j in range(i + 1, len(order)) if rng.random() < 0.4]


class Corpus:
    """Instances shared by the in-process workloads, made once per set-up."""

    def __init__(self, seed):
        self.seed = seed
        self.describe = {}

    def rng(self, label):
        return random.Random(f"{self.seed}:{label}")

    def graphs(self):
        Graph = _module("graphs").Graph
        out = {
            "petersen": Graph(range(10), petersen_edges()),
            "grid3x4": Graph(range(12), grid_graph_edges(3, 4)),
            "k6": Graph(range(6), complete_edges(6)),
        }
        for n, m in GRAPH_DRAWS:
            rng = self.rng(f"graph-{n}-{m}")
            while True:
                g = _module("graphs").random_graph(rng, n, m / math.comb(n, 2))
                if len(g.edges) == m:
                    break
            out[f"random-{n}-{m}"] = g
        for name, g in out.items():
            self.describe[f"graph:{name}"] = [list(g.vertices), [list(e) for e in g.edges]]
        return out

    def cycles(self):
        Graph = _module("graphs").Graph
        self.describe["cycles"] = [14, 16]
        return {f"c{n}": Graph(range(n), cycle_edges(n)) for n in (14, 16)}

    def matroids(self, petersen):
        Matroid = _module("matroids").Matroid
        self.describe["matroid:uniform-4-10"] = [4, 10]
        return {
            "graphic-petersen": Matroid.graphic(petersen),
            "uniform-4-10": Matroid.uniform(4, 10),
        }

    def whitney(self):
        """n = 16 with "int" and "poly" values on the same circuits, and n = 18."""
        core = _module("core")
        out = {}
        for n, kinds in ((16, ("int", "poly")), (18, ("int",))):
            for attempt in range(256):
                label = f"whitney-{n}-{attempt}"
                if not _in_band(n, _predicted_circuits(self.rng(label), n)):
                    continue
                ground, circuits, f = core.random_cancelling_instance(self.rng(label), n)
                if _in_band(n, [_positions(ground, c) for c in circuits]):
                    break
            derived = [bc.subset for bc in core.derive_broken_circuits(circuits, ground)]
            broken = R.broken_masks([_positions(ground, c) for c in circuits])
            for kind in kinds:
                if kind != "int":
                    ground, again, f = core.random_cancelling_instance(self.rng(label), n, kind)
                    if list(again) != list(circuits):
                        raise RuntimeError("value kinds drew different circuits")
                name = f"w{n}-{kind}"
                table = [f.mask_function(ground)(m) for m in range(1 << n)]
                out[name] = (ground, derived, f, table, broken)
                self.describe[f"whitney:{name}"] = [
                    n,
                    sorted(sorted(_positions(ground, c)) for c in circuits),
                    hashlib.sha256(repr([_plain(v) for v in table]).encode()).hexdigest(),
                ]
        return out

    def hypergraph(self, rows, cols):
        hg, family = _module("hypergraphs").grid_rectangle_hypergraph(rows, cols)
        self.describe[f"hypergraph:grid{rows}x{cols}"] = [rows, cols, len(hg.edges), len(family)]
        return hg, family

    def crosscuts(self):
        lattices = _module("lattices")
        out = {}
        for name, lat in (("b5", lattices.boolean_lattice(5)), ("pi5", lattices.partition_lattice(5))):
            atoms = lat.atoms()
            order = random_precedence(self.rng(f"precedence-{name}"), atoms)
            out[name] = (lat, lattices.Crosscut(lat, atoms, order))
            self.describe[f"crosscut:{name}"] = [list(map(str, atoms)), [list(map(str, p)) for p in order]]
        return out


def _predicted_circuits(rng, n, max_circuits=4):
    """The circuits ``random_cancelling_instance`` draws from ``rng``, as
    positions.  It draws them before its 2^n values, so this screens a
    draw for the leaf band without paying for the table; the drawn
    instance is checked again."""
    out = []
    for _ in range(rng.randint(1, max_circuits)):
        top = rng.randrange(1, n)
        below = rng.sample(range(top), min(top, rng.randint(1, 3)))
        out.append(below + [top])
    return out


def _in_band(n, circuits):
    leaves = sum(R.avoiding_counts(n, R.broken_masks(circuits)))
    return LEAF_BAND[0] <= leaves / (1 << n) <= LEAF_BAND[1]


def _positions(ground, subset):
    return [ground.position(e) for e in subset]


def _plain(value):
    return value if isinstance(value, int) else list(value.coeffs)


def _ends(graph):
    index = {v: i for i, v in enumerate(graph.vertices)}
    return [(index[u], index[v]) for u, v in graph.edges]


# -- referee hooks for in-process values ---------------------------------


def _check_whitney_sum(key, table):
    def check(ref, value):
        return R.same_sum(value, ref.expect(("table-sum", key), lambda: R.table_sum(table)))

    return check


def _check_counts(key, n, broken):
    def check(ref, value):
        return list(value) == ref.expect(("avoiding", key), lambda: R.avoiding_counts(n, broken))

    return check


def _check_graphic_beta(key, graph):
    def check(ref, value):
        expected = ref.expect(("beta", key), lambda: R.graphic_beta(len(graph.vertices), _ends(graph)))
        return value == expected

    return check


def _check_complex(n):
    def check(ref, value):
        return tuple(value) == ref.expect(("complex", n), lambda: R.divisor_complex_stats(n))

    return check


def complex_op(n):
    """divisor_complex(n) with its truncation inequalities, as one op."""
    numbers = _module("numbers")

    def call():
        cx = numbers.divisor_complex(n)
        return len(cx), cx.euler_characteristic(), numbers.bonferroni_all(cx)

    return call


# -- in-process workloads -------------------------------------------------


def _in_process_plan(seed, full):
    corpus = Corpus(seed)
    graphs = corpus.graphs()
    cycles = corpus.cycles()
    matroids = corpus.matroids(graphs["petersen"])
    whitney = corpus.whitney()
    crosscuts = corpus.crosscuts()
    ops = []

    def add(name, call, check):
        ops.append(Op(name, call, check))

    method = "full" if full else "broken_circuit"
    for name, g in graphs.items():
        add(f"graphs.chromatic_polynomial[{method}] {name}",
            engine("graphs", "chromatic_polynomial", g, method), R.check_chromatic(name, g))

    for name, m in matroids.items():
        if name == "graphic-petersen":
            chi_check = R.check_graphic_characteristic("petersen", graphs["petersen"])
            beta_check = _check_graphic_beta("petersen", graphs["petersen"])
        else:
            chi_check = R.check_coefficients(R.uniform_characteristic(4, 10))
            beta_check = R.check_equal(R.uniform_beta(4, 10))
        add(f"matroids.characteristic_polynomial[{method}] {name}",
            engine("matroids", "characteristic_polynomial", m, method), chi_check)
        add(f"matroids.beta_invariant[{method}] {name}",
            engine("matroids", "beta_invariant", m, method), beta_check)

    if full:
        hg, _ = corpus.hypergraph(2, 6)
        add("hypergraphs.hypergraph_chromatic[full] grid2x6",
            engine("hypergraphs", "hypergraph_chromatic", hg, "full"),
            R.check_hypergraph_chromatic("grid2x6", hg))
    else:
        hg, family = corpus.hypergraph(3, 4)
        add("hypergraphs.hypergraph_chromatic[restricted] grid3x4",
            engine("hypergraphs", "hypergraph_chromatic", hg, "restricted", family),
            R.check_hypergraph_chromatic("grid3x4", hg))

    for name, (ground, derived, f, table, broken) in whitney.items():
        if full:
            add(f"core.sum_full {name}", engine("core", "sum_full", f, ground),
                _check_whitney_sum(name, table))
            continue
        add(f"core.sum_pruned {name}", engine("core", "sum_pruned", f, ground, derived),
            _check_whitney_sum(name, table))
        if name.endswith("-int"):
            add(f"core.enumerate_avoiding {name}",
                engine("core", "enumerate_avoiding", ground, derived),
                _check_counts(name, len(ground), broken))

    for name, g in cycles.items():
        dom_check = R.check_domination(name, g)
        scp_check = R.check_scp(name, len(g.vertices), _ends(g))
        dom_methods = ("direct", "alternating") if full else ("pruned",)
        for method in dom_methods:
            add(f"graphs.domination_polynomial[{method}] {name}",
                engine("graphs", "domination_polynomial", g, method), dom_check)
        for method in ("direct",) if full else ("restricted", "acyclic"):
            add(f"graphs.q_at_minus_one[{method}] {name}",
                engine("graphs", "q_at_minus_one", g, method), scp_check)

    mobius = {"b5": R.boolean_mobius(5), "pi5": R.partition_mobius(5)}
    for name, (lat, cut) in crosscuts.items():
        if full:
            add(f"lattices.rota_crosscut {name}", engine("lattices", "rota_crosscut", lat, cut),
                R.check_equal(mobius[name]))
        else:
            add(f"lattices.blass_sagan_mobius {name}",
                engine("lattices", "blass_sagan_mobius", lat, cut),
                R.check_equal(mobius[name]))

    if full:
        for n in (180, 720720):
            add(f"numbers.totient[all] {n}", engine("numbers", "totient", n),
                R.check_fraction(R.euler_phi(n)))
            add(f"numbers.dirichlet_inverse_totient[all] {n}",
                engine("numbers", "dirichlet_inverse_totient", n),
                R.check_fraction(R.inverse_totient(n)))
        for variant in ("gcd", "lcm"):
            add(f"numbers.gcd_expansion {variant} 180", engine("numbers", "gcd_expansion", 180, variant),
                R.check_equal(R.mobius(180)))
        add("numbers.divisor_complex+bonferroni_all 180", complex_op(180), _check_complex(180))
        interval = _module("geometry").interval_geometry(14)
        add("geometry.count_free_signed interval14",
            engine("geometry", "count_free_signed", interval), R.check_equal(2 * 14))
        corpus.describe["numbers"] = [180, 720720]
        corpus.describe["geometry:interval"] = 14
        poly_pair = ("core.sum_full w16-poly", "core.sum_full w16-int")
    else:
        poly_pair = ("core.sum_pruned w16-poly", "core.sum_pruned w16-int")

    corpus.describe["ops"] = [op.name for op in ops]
    return Plan(
        ops=ops,
        digest=digest_of(corpus.describe),
        poly_pair=poly_pair,
        rss=SelfRss(),
        # Enough passes that the tail percentile falls among the samples of
        # the few slowest ops, which are fixed instances of similar cost.  On
        # pruned-walk the median is one op's latency, so more passes give it
        # more samples spread over the run.
        min_passes=3 if full else 6,
        traced_ops=lambda tracer: ops,
        child_spans=lambda: [],
        rebuild=lambda: _in_process_plan(seed, full),
        warm_up=lambda: [op.call() for op in ops],
    )


# -- cli-oneshot ----------------------------------------------------------


class ChildRunner:
    """Runs one child process at a time and keeps the peak RSS of op children."""

    def __init__(self, env, workdir):
        self.env = env
        self.workdir = workdir
        self.peak_mb = 0.0

    def sample(self):
        pass

    def run(self, argv, track=True):
        """(exit code or "timeout", stdout bytes) of one child."""
        out_path = os.path.join(self.workdir, "child.out")
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=self.workdir)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = proc.returncode < 0
        if track:
            self.peak_mb = max(self.peak_mb, usage.ru_maxrss / 1024.0)
        with open(out_path, "rb") as fh:
            data = fh.read()
        return ("timeout" if timed_out else proc.returncode), data


def _cli_json(check):
    """Adapt a check of the parsed stdout document to a (code, stdout) value."""

    def wrapped(ref, value):
        code, data = value
        return code == 0 and check(ref, json.loads(data))

    return wrapped


def _graph_from_doc(doc):
    Graph = _module("graphs").Graph
    return Graph(doc["vertices"], [tuple(e) for e in doc["edges"]])


def _hypergraph_from_doc(doc):
    Hypergraph = _module("hypergraphs").Hypergraph
    label = lambda v: tuple(v) if isinstance(v, list) else v  # noqa: E731
    return Hypergraph([label(v) for v in doc["vertices"]],
                      [frozenset(label(v) for v in e) for e in doc["edges"]])


def _lattice_atoms(doc):
    uppers = {json.dumps(b) for _, b in doc["covers"]}
    bottom = next(e for e in doc["elements"] if json.dumps(e) not in uppers)
    return [b for a, b in doc["covers"] if a == bottom]


def _whitney_expected(doc):
    """(plain table sum, avoiding counts) of a whitney instance document."""
    elements = doc["elements"]
    pos = {json.dumps(e): i for i, e in enumerate(elements)}
    values = [int(v) for _, v in doc["function"]["entries"]]
    circuits = [[pos[json.dumps(x)] for x in c] for c in doc["circuits"]]
    return sum(values), R.avoiding_counts(len(elements), R.broken_masks(circuits))


def cli_plan(seed, workdir, env):
    runner = ChildRunner(env, workdir)
    python = sys.executable
    cli = [python, "-m", "brokencircuits.cli"]
    docs = {}

    def generate(name, *args):
        code, data = runner.run(cli + ["generate", *args], track=False)
        if code != 0:
            raise RuntimeError(f"generate {args} exited {code}")
        docs[name] = json.loads(data)
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)

    def write(name, doc):
        docs[name] = doc
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh)

    rng = random.Random(f"{seed}:cli")
    # redraw the random graph until it has 12-16 edges, inside the 20-edge
    # cycle cap and of steady cost
    for attempt in range(64):
        generate("rg10.json", "random-graph", "--n", "10", "--p", "0.3",
                 "--seed", str(seed * 64 + attempt))
        if 12 <= len(docs["rg10.json"]["edges"]) <= 16:
            break
    generate("grid2x4.json", "grid", "--m", "2", "--n", "4", "--seed", str(seed))
    generate("u38.json", "uniform-matroid", "--r", "3", "--n", "8", "--seed", str(seed))
    generate("u49.json", "uniform-matroid", "--r", "4", "--n", "9", "--seed", str(seed))
    generate("pi4.json", "partition-lattice", "--n", "4", "--seed", str(seed))
    generate("b4.json", "boolean-lattice", "--n", "4", "--seed", str(seed))
    generate("interval8.json", "interval-geometry", "--n", "8", "--seed", str(seed))
    generate("w12.json", "random-whitney", "--n", "12", "--seed", str(seed))
    write("k6.json", {"kind": "graph", "vertices": list(range(6)),
                      "edges": [list(e) for e in complete_edges(6)]})
    write("c10.json", {"kind": "graph", "vertices": list(range(10)),
                       "edges": [list(e) for e in cycle_edges(10)]})
    for name in ("pi4", "b4"):
        lat = docs[f"{name}.json"]
        atoms = _lattice_atoms(lat)
        write(f"{name}cut.json", {"kind": "crosscut", "lattice": lat, "crosscut": atoms,
                                  "precedence": random_precedence(rng, atoms)})
    perm = list(range(15))
    rng.shuffle(perm)

    ops = []

    def add(args, check):
        ops.append(Op(" ".join(args), lambda argv=cli + args: runner.run(argv), check, args))

    def chromatic(name):
        g = _graph_from_doc(docs[name])
        base = R.check_chromatic(name, g)

        def check(ref, out):
            coeffs = R.coefficients(out["polynomial"])
            n = len(coeffs) - 1
            counts = out["counts"]
            consistent = all(coeffs[n - k] == (-1) ** k * b for k, b in enumerate(counts) if k <= n)
            return consistent and base(ref, out["polynomial"])

        return _cli_json(check)

    add(["compute", "graph-chromatic", "k6.json"], chromatic("k6.json"))
    add(["compute", "graph-chromatic", "rg10.json"], chromatic("rg10.json"))
    add(["compute", "graph-chromatic", "k6.json", "--permute-order", ",".join(map(str, perm))],
        chromatic("k6.json"))
    c10 = _graph_from_doc(docs["c10.json"])
    scp = R.check_scp("c10", 10, _ends(c10))
    dom = R.check_domination("c10", c10)
    add(["compute", "graph-scp", "c10.json"], _cli_json(lambda ref, o: scp(ref, o["polynomial"])))
    add(["compute", "graph-domination", "c10.json"],
        _cli_json(lambda ref, o: dom(ref, o["polynomial"])))
    hyper = R.check_hypergraph_chromatic("grid2x4", _hypergraph_from_doc(docs["grid2x4.json"]))
    add(["compute", "hypergraph-chromatic", "grid2x4.json", "--method", "restricted"],
        _cli_json(lambda ref, o: hyper(ref, o["polynomial"])))
    for name, r, n in (("u38.json", 3, 8), ("u49.json", 4, 9)):
        chi = R.uniform_characteristic(r, n)
        beta = R.uniform_beta(r, n)
        add(["compute", "matroid-characteristic", name],
            _cli_json(lambda ref, o, chi=chi: o["validated"] and R.coefficients(o["polynomial"]) == chi))
        add(["compute", "matroid-beta", name],
            _cli_json(lambda ref, o, beta=beta: o["beta"] == beta
                      and set(o["methods"].values()) == {beta}))
    for name, top, below in (("pi4", R.partition_mobius(4), R.partition_label_mobius),
                             ("b4", R.boolean_mobius(4), lambda x: (-1) ** bin(x).count("1"))):
        add(["compute", "lattice-mobius", f"{name}.json"],
            _cli_json(lambda ref, o, top=top, below=below: o["mobius"] == top
                      and all(mu == below(x) for x, mu in o["function"])))
        for kind in ("lattice-crosscut", "lattice-blass-sagan"):
            add(["compute", kind, f"{name}cut.json"],
                _cli_json(lambda ref, o, top=top: o["mobius"] == top))
    add(["compute", "geometry-verify", "interval8.json"],
        _cli_json(lambda ref, o: o["closure_system"] and o["convex_geometry"]))
    add(["compute", "geometry-stats", "interval8.json"],
        _cli_json(lambda ref, o: o["free_count"] == o["signed_count"] == 16
                  and o["euler_characteristic"] == 1))
    total, counts = _whitney_expected(docs["w12.json"])
    add(["compute", "whitney-sum", "w12.json"],
        _cli_json(lambda ref, o: o["cancellation"] == "verified" and o["pruned"] == o["full"] == str(total)
                  and o["counts"] == counts))
    n = 180
    add(["compute", "number-mobius", "--n", str(n)],
        _cli_json(lambda ref, o: o["mobius"] == R.mobius(n)))
    add(["compute", "number-gcd-expansion", "--n", str(n)],
        _cli_json(lambda ref, o: o["value"] == R.mobius(n)))
    add(["compute", "number-totient", "--n", str(n)],
        _cli_json(lambda ref, o: Fraction(o["value"]) == R.euler_phi(n)))
    add(["compute", "number-dirichlet-inverse", "--n", str(n)],
        _cli_json(lambda ref, o: Fraction(o["value"]) == R.inverse_totient(n)))
    complex_check = _check_complex(n)
    add(["compute", "number-complex", "--n", str(n)],
        _cli_json(lambda ref, o: complex_check(ref, (o["faces"], o["euler_characteristic"], o["bonferroni"]))))
    add(["compute", "number-zeta", "--s", "2", "--prime-bound", "50"],
        _cli_json(lambda ref, o: math.isclose(float(o["value"]), R.zeta_reciprocal(2, 50), rel_tol=1e-10)))

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    span_files = []

    def traced_ops(tracer):
        traced = []
        for op in ops:
            def call(op=op):
                sid = tracer.new_id()
                path = os.path.join(workdir, f"spans-{sid}.json")
                argv = [python, os.path.join(bench_dir, "traced_cli.py"), path, str(tracer.op),
                        str(sid), str(sid * 100_000), *op.args]
                start = time.perf_counter()
                value = runner.run(argv)
                tracer.record(sid, "cli.op", start, time.perf_counter())
                span_files.append(path)
                return value

            traced.append(Op(op.name, call, op.check, op.args))
        return traced

    def child_spans():
        from tracing import load_spans

        spans = []
        for path in span_files:
            if os.path.exists(path):
                spans.extend(load_spans(path))
        return spans

    describe = {"ops": [op.args for op in ops], "files": {k: docs[k] for k in sorted(docs)}}
    return Plan(
        ops=ops,
        digest=digest_of(describe),
        poly_pair=None,
        rss=runner,
        min_passes=2,
        traced_ops=traced_ops,
        child_spans=child_spans,
        rebuild=None,
        # a child's cost lies in start-up and import, so one child warms
        # the byte-code and file caches for all
        warm_up=lambda: runner.run(cli + ops[0].args, track=False),
    )


def build(workload, seed, workdir, env):
    if workload == "pruned-walk":
        return _in_process_plan(seed, full=False)
    if workload == "unrestricted-sums":
        return _in_process_plan(seed, full=True)
    if workload == "cli-oneshot":
        return cli_plan(seed, workdir, env)
    raise KeyError(workload)
