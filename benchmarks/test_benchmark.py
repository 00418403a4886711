"""Tests of the benchmark itself: exact pins, the referee, input identity.

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import layers  # noqa: E402
import referee as R  # noqa: E402
import workloads as W  # noqa: E402
import worker  # noqa: E402
from brokencircuits import core, geometry, graphs, lattices, matroids, numbers  # noqa: E402
from tracing import self_times  # noqa: E402

PROBE = """
import json
from tracing import Tracer, LEAVES, NAME, SPACE
from brokencircuits import graphs
import workloads as W
tracer = Tracer().install()
out = {}
for name, edges in (("petersen", W.petersen_edges()), ("grid3x4", W.grid_graph_edges(3, 4))):
    del tracer.spans[:]
    g = graphs.Graph(range(len({v for e in edges for v in e})), edges)
    graphs.chromatic_polynomial(g, "broken_circuit")
    walks = [s for s in tracer.spans if s[NAME] == "core.iter_avoiding_masks"]
    out[name] = [sum(s[LEAVES] for s in walks), sum(s[SPACE] for s in walks)]
print(json.dumps(out))
"""


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH]), PYTHONHASHSEED="0")


def test_core_leaves_pins():
    # tracing rewrites module namespaces, so it runs in its own process
    out = subprocess.run([sys.executable, "-c", PROBE], env=_env(), capture_output=True,
                         text=True, check=True)
    leaves = json.loads(out.stdout)
    assert leaves["petersen"] == [16_680, 32_768]
    assert leaves["grid3x4"] == [58_670, 131_072]


def _petersen():
    return graphs.Graph(range(10), W.petersen_edges())


def test_wrong_value_counts_as_failed():
    g = _petersen()
    right = graphs.chromatic_polynomial(g, "broken_circuit")
    wrong = type(right)([right.coeffs[0] + 1, *right.coeffs[1:]])
    op = W.Op("chromatic petersen", lambda: right, R.check_chromatic("petersen", g))
    seg = worker.Segment([(0, 0.01, right, None), (0, 0.01, wrong, None),
                          (0, 0.01, None, "CapExceeded: x")], [0.01, 0.01, 0.01])
    ref = R.Referee()
    failed, names = worker.referee_segments([op], [seg], ref)
    assert failed == 2 and ref.checked == 3
    metrics, _ = worker.end_to_end(seg, 1.0, failed, 50.0)
    assert metrics["ok_share"] == pytest.approx(1 / 3)


def test_cli_check_rejects_nonzero_exit_and_bad_output():
    check = W._cli_json(lambda ref, o: o["mobius"] == -1)
    ref = R.Referee()
    assert ref.verdict(check, (0, b'{"mobius": -1}'))
    assert not ref.verdict(check, (0, b'{"mobius": 1}'))
    assert not ref.verdict(check, (3, b""))
    assert not ref.verdict(check, ("timeout", b""))


def test_seed_fixes_the_inputs():
    a, b, c = W.Corpus(3), W.Corpus(3), W.Corpus(4)
    for corpus in (a, b, c):
        corpus.graphs()
        corpus.whitney()
    assert W.digest_of(a.describe) == W.digest_of(b.describe)
    assert W.digest_of(a.describe) != W.digest_of(c.describe)


@pytest.mark.parametrize("seed", range(4))
def test_generated_instances_stay_within_caps(seed):
    corpus = W.Corpus(seed)
    drawn = corpus.graphs()
    for n, m in W.GRAPH_DRAWS:
        g = drawn[f"random-{n}-{m}"]
        assert len(g.edges) == m <= graphs.CYCLE_CAP
    for name, (ground, *_rest, broken) in corpus.whitney().items():
        share = sum(R.avoiding_counts(len(ground), broken)) / (1 << len(ground))
        assert W.LEAF_BAND[0] <= share <= W.LEAF_BAND[1]
        assert len(ground) <= core.CANCELLATION_CAP


def test_predicted_circuits_match_the_draw():
    for attempt in range(5):
        rng = random.Random(f"7:whitney-16-{attempt}")
        predicted = W._predicted_circuits(random.Random(f"7:whitney-16-{attempt}"), 16)
        ground, circuits, _ = core.random_cancelling_instance(rng, 16)
        assert [sorted(p) for p in predicted] == [sorted(W._positions(ground, c)) for c in circuits]


def test_closed_forms_agree_with_the_engine():
    for r, n in ((2, 4), (3, 6), (4, 7)):
        m = matroids.Matroid.uniform(r, n)
        assert R.uniform_beta(r, n) == matroids.beta_invariant(m, "full")
        assert R.uniform_characteristic(r, n) == list(matroids.characteristic_polynomial(m, "full").coeffs)
    for n in (3, 6, 9):
        assert geometry.count_free_signed(geometry.interval_geometry(n)) == 2 * n
    for n in (12, 60, 180):
        cx = numbers.divisor_complex(n)
        assert R.divisor_complex_stats(n) == (len(cx), cx.euler_characteristic(), numbers.bonferroni_all(cx))
        assert R.euler_phi(n) == numbers.totient(n)
        assert R.mobius(n) == numbers.classical_mobius(n)
    pi4 = lattices.partition_lattice(4)
    mu = lattices.mobius_function(pi4)
    assert all(mu[e] == R.partition_label_mobius(e) for e in pi4.elements)
    assert R.partition_mobius(5) == 24 and R.boolean_mobius(5) == -1
    g = graphs.Graph(range(10), W.cycle_edges(10))
    assert R.induced_component_sum(10, W._ends(g)) == list(graphs.q_at_minus_one(g, "direct").coeffs)
    pet = _petersen()
    assert R.graphic_beta(10, W._ends(pet)) == matroids.beta_invariant(matroids.Matroid.graphic(pet), "full")


def test_avoiding_counts_match_brute_force():
    rng = random.Random(5)
    ground, circuits, _ = core.random_cancelling_instance(rng, 10)
    broken = R.broken_masks([W._positions(ground, c) for c in circuits])
    brute = [0] * 11
    for mask in range(1 << 10):
        if not any(mask & b == b for b in broken):
            brute[bin(mask).count("1")] += 1
    assert R.avoiding_counts(10, broken) == brute


def test_tail_leaves_ten_samples_beyond():
    pct = worker.tail_percentile(100)
    assert pct == 90.0
    assert worker.tail([i / 1000 for i in range(100)], pct) == (0.089, 10)
    # more samples at the same percentile leave more beyond
    assert worker.tail([i / 1000 for i in range(200)], pct) == (0.179, 20)


def test_latency_quantiles_use_each_ops_median():
    # op 0 has one slow sample out of three; op 1 is steady
    records = [(0, 0.010, None, None), (1, 0.050, None, None),
               (0, 0.030, None, None), (1, 0.052, None, None),
               (0, 0.011, None, None), (1, 0.051, None, None)]
    seg = worker.Segment(records, [0.06, 0.08, 0.06])
    assert seg.op_typical_latencies() == [0.011, 0.051] * 3
    metrics, _ = worker.end_to_end(seg, 1.0, 0, 50.0)
    # the slow sample moves neither quantile
    assert metrics["lat_p50_ms"] == pytest.approx(31.0)
    assert metrics["lat_tail_ms"] == pytest.approx(11.0)


def test_self_time_and_per_pass_layers():
    # (id, name, start, end, parent, op, busy, leaves, space)
    spans = [
        (1, "graphs.chromatic_polynomial[broken_circuit]", 0.0, 1.0, None, 0, 1.0, 0, 0),
        (2, "graphs.whitney_edge_counts", 0.1, 0.9, 1, 0, 0.8, 0, 0),
        (3, "core.iter_avoiding_masks", 0.2, 0.8, 2, 0, 0.5, 10, 16),
        (4, "graphs.cycles_edge_sets", 0.1, 0.2, 2, 0, 0.1, 0, 0),
        (5, "matroids.Matroid.__init__", 0.0, 0.3, None, "setup", 0.3, 0, 0),
        (6, "io.parse_matroid", 0.0, 0.4, None, 1, 0.4, 0, 0),
        (7, "matroids.Matroid.__init__", 0.0, 0.3, 6, 1, 0.3, 0, 0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(0.2) and own[2] == pytest.approx(0.2)
    out = layers.layer_metrics(spans, passes=2)
    # per pass: (1.0 - 0.8 + 0.8 - 0.6) / 2 s of pruned graph time
    assert out["graphs.pruned_ms"] == pytest.approx(200.0)
    assert out["core.walk_ms"] == pytest.approx(250.0)
    assert out["graphs.cycles_ms"] == pytest.approx(50.0)
    # set-up counts once, ops once per pass
    assert out["matroids.build_ms"] == pytest.approx(300.0 + 150.0)
    assert out["io.parse_ms"] == pytest.approx(200.0)
    assert out["core.leaves"] == 5 and out["core.prune_ratio"] == pytest.approx(10 / 16)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "pruned-walk",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "cli-oneshot",
                          "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
