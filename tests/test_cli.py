import inspect
import json
import os
import random
import subprocess
import sys
import time

import pytest

from brokencircuits import cli, core, graphs, io, matroids, verify
from brokencircuits.algebra import IntPolynomial
from brokencircuits.errors import SchemaError
from brokencircuits.core import OrderedGroundSet, SetFunction, sum_full, sum_pruned

def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def cli_process(*argv, script=None):
    """A fresh ``brokencircuits`` process on argv (or a script taking argv), 30 s at most."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    command = ["-c", script] if script else ["-m", "brokencircuits.cli"]
    return subprocess.run(
        [sys.executable, *command, *argv], capture_output=True, text=True, env=env, timeout=30
    )


# cli.main in a process limited to 2 GB of address space
LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))
from brokencircuits import cli
sys.exit(cli.main(sys.argv[1:]))
"""

K3 = {"kind": "graph", "vertices": [0, 1, 2], "edges": [[0, 1], [0, 2], [1, 2]]}


class TestCompute:
    def test_graph_chromatic(self, tmp_path, capsys):
        path = write(tmp_path, "k3.json", K3)
        code, out, _ = run(capsys, "compute", "graph-chromatic", path, "--method", "broken_circuit")
        assert code == 0
        assert out["polynomial"] == {"var": "x", "coeffs": ["0", "2", "-3", "1"]}
        assert out["counts"] == [1, 3, 2, 0]

    def test_graph_chromatic_walks_once(self, tmp_path, capsys, monkeypatch):
        walks = []
        walk = graphs.enumerate_avoiding

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(graphs, "enumerate_avoiding", counted)
        path = write(tmp_path, "k3.json", K3)
        assert cli.main(["compute", "graph-chromatic", path]) == 0
        assert capsys.readouterr().out == (
            '{"counts":[1,3,2,0],"kind":"graph-chromatic","method":"broken_circuit",'
            '"polynomial":{"coeffs":["0","2","-3","1"],"var":"x"}}\n'
        )
        assert len(walks) == 1

    def test_matroid_characteristic_walks_once(self, tmp_path, capsys, monkeypatch):
        # the broken-circuit counts sweep the kernel once, and read their
        # broken circuits from the swept minors, not from masks
        walks = []
        fold = matroids._image_fold

        def counted(*args, **kwargs):
            walks.append(inspect.signature(fold).bind(*args, **kwargs).arguments)
            return fold(*args, **kwargs)

        monkeypatch.setattr(matroids, "_image_fold", counted)
        path = write(tmp_path, "u24.json", {"kind": "matroid", "uniform": [2, 4]})
        assert cli.main(["compute", "matroid-characteristic", path]) == 0
        assert capsys.readouterr().out == (
            '{"counts":[1,4,3,0,0],"kind":"matroid-characteristic","method":"broken_circuit",'
            '"polynomial":{"coeffs":["3","-4","1"],"var":"x"},"validated":true}\n'
        )
        assert len(walks) == 1
        assert "broken" not in walks[0]

    def test_graph_chromatic_full_matches(self, tmp_path, capsys):
        path = write(tmp_path, "k3.json", K3)
        _, full, _ = run(capsys, "compute", "graph-chromatic", path, "--method", "full")
        _, pruned, _ = run(capsys, "compute", "graph-chromatic", path)
        assert full["polynomial"] == pruned["polynomial"]

    def test_permuted_edge_order_same_polynomial(self, tmp_path, capsys):
        path = write(tmp_path, "k3.json", K3)
        _, base, _ = run(capsys, "compute", "graph-chromatic", path)
        _, permuted, _ = run(
            capsys, "compute", "graph-chromatic", path, "--permute-order", "2,0,1"
        )
        assert base["polynomial"] == permuted["polynomial"]

    def test_lattice_mobius(self, tmp_path, capsys):
        lattice = {
            "kind": "lattice",
            "elements": [0, 1, 2, 3, 4, 5, 6, 7],
            "covers": [
                [a, b]
                for a in range(8)
                for b in range(8)
                if a != b and a & b == a and bin(b ^ a).count("1") == 1
            ],
        }
        path = write(tmp_path, "b3.json", lattice)
        code, out, _ = run(capsys, "compute", "lattice-mobius", path)
        assert code == 0
        assert out["mobius"] == -1

    def test_number_zeta(self, capsys):
        code, out, _ = run(capsys, "compute", "number-zeta", "--s", "2", "--prime-bound", "13")
        assert code == 0
        assert abs(float(out["value"]) - 0.618) < 1e-3

    def test_number_totient(self, capsys):
        code, out, _ = run(capsys, "compute", "number-totient", "--n", "30")
        assert code == 0
        assert out["value"] == "8"

    def test_whitney_sum(self, tmp_path, capsys):
        instance = {
            "kind": "whitney",
            "elements": ["a", "b", "c"],
            "circuits": [["a", "b", "c"]],
            "function": {"kind": "sign"},
        }
        path = write(tmp_path, "w.json", instance)
        code, out, _ = run(capsys, "compute", "whitney-sum", path)
        assert code == 0
        assert out["cancellation"] == "verified"
        assert out["full"] == "0"
        assert out["pruned"] == "0"
        assert out["counts"] == [1, 3, 2, 0]

    def test_whitney_violation_reported(self, tmp_path, capsys):
        instance = {
            "kind": "whitney",
            "elements": ["a", "b"],
            "circuits": [["a", "b"]],
            "function": {
                "kind": "table",
                "entries": [[[], "1"], [["a"], "1"], [["b"], "1"], [["a", "b"], "1"]],
            },
        }
        path = write(tmp_path, "w.json", instance)
        code, out, err = run(capsys, "compute", "whitney-sum", path)
        assert code == 4
        assert out["cancellation"] == "violated"
        assert out["violation"]["circuit"] == ["a", "b"]
        assert "precondition" in err

    def test_matroid_beta(self, tmp_path, capsys):
        path = write(tmp_path, "u23.json", {"kind": "matroid", "uniform": [2, 3]})
        code, out, _ = run(capsys, "compute", "matroid-beta", path)
        assert code == 0
        assert out["beta"] == 1
        assert set(out["methods"].values()) == {1}

    def test_graphic_matroid_from_file(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", {"kind": "matroid", "graphic": K3})
        code, out, _ = run(capsys, "compute", "matroid-characteristic", path)
        assert code == 0
        assert out["polynomial"] == {"var": "x", "coeffs": ["2", "-3", "1"]}
        assert out["counts"] == [1, 3, 2, 0]
        bad = dict(K3)
        bad["kind"] = "matroid"
        path = write(tmp_path, "bad.json", {"kind": "matroid", "graphic": bad})
        code, _, err = run(capsys, "compute", "matroid-characteristic", path)
        assert code == 2

    def test_geometry_stats(self, tmp_path, capsys):
        obj = {
            "kind": "geometry",
            "elements": [1, 2, 3],
            "closed": [[], [1], [2], [3], [1, 2], [2, 3], [1, 2, 3]],
        }
        path = write(tmp_path, "g.json", obj)
        code, out, _ = run(capsys, "compute", "geometry-stats", path)
        assert code == 0
        assert out["free_count"] == 6
        assert out["signed_count"] == 6
        assert out["euler_characteristic"] == 1

    def test_geometry_verify_reports_witness(self, tmp_path, capsys):
        obj = {
            "kind": "geometry",
            "elements": [1, 2, 3],
            "closed": [[], [1], [2], [3], [1, 2, 3]],
        }
        path = write(tmp_path, "g.json", obj)
        code, out, err = run(capsys, "compute", "geometry-verify", path)
        assert code == 4
        assert out["convex_geometry"] is False
        assert "witness" in out

    def test_hypergraph_tight(self, tmp_path, capsys):
        import itertools

        obj = {
            "kind": "hypergraph",
            "vertices": [0, 1, 2, 3, 4],
            "edges": [sorted(c) for c in itertools.combinations(range(5), 3)],
        }
        path = write(tmp_path, "h.json", obj)
        _, full, _ = run(capsys, "compute", "hypergraph-chromatic", path, "--method", "full")
        code, restricted, _ = run(
            capsys,
            "compute",
            "hypergraph-chromatic",
            path,
            "--method",
            "restricted",
            "--circuits",
            "tight:2",
        )
        assert code == 0
        assert restricted["polynomial"] == full["polynomial"]


class TestMoreComputeKinds:
    def test_graph_scp(self, tmp_path, capsys):
        path = write(tmp_path, "k3.json", K3)
        for method in ("direct", "restricted", "acyclic"):
            code, out, _ = run(capsys, "compute", "graph-scp", path, "--method", method)
            assert code == 0
            assert out["polynomial"] == {"var": "y", "coeffs": ["1", "-1"]}

    def test_graph_scp_direct_refuses_30_vertices(self, tmp_path):
        # a 20-vertex path plus 10 isolated vertices: 2^30 subsets on the
        # direct route, refused up front with exit 3
        obj = {"kind": "graph", "vertices": list(range(30)), "edges": [[i, i + 1] for i in range(19)]}
        path = write(tmp_path, "p20_plus_10.json", obj)
        proc = cli_process("compute", "graph-scp", path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "cap exceeded" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_graph_scp_restricted_refuses_24_vertices(self, tmp_path):
        # no edges, so no broken sets: the pruned route would fold all 2^24
        # vertex subsets
        path = write(tmp_path, "e24.json", {"kind": "graph", "vertices": list(range(24)), "edges": []})
        proc = cli_process("compute", "graph-scp", path, "--method", "restricted")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "cap exceeded" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_both_hypergraph_routes_run_the_4x4_grid(self, tmp_path):
        # 36 edges, but the sweeps keep few states, and both methods print one polynomial
        grid = cli_process("generate", "grid", "--m", "4", "--n", "4")
        assert grid.returncode == 0
        path = tmp_path / "grid4x4.json"
        path.write_text(grid.stdout)
        polynomials = []
        for method in ("full", "restricted"):
            proc = cli_process("compute", "hypergraph-chromatic", str(path), "--method", method)
            assert proc.returncode == 0, proc.stderr
            polynomials.append(json.loads(proc.stdout)["polynomial"])
        assert polynomials[0] == polynomials[1]

    def test_full_graph_route_runs_k7_and_k8(self, tmp_path):
        # past the broken-circuit route's 20-edge cycle cap, so the falling factorial
        # x(x - 1)...(x - n + 1) stands in for its polynomial
        for n in (7, 8):
            k = {"kind": "graph", "vertices": list(range(n)),
                 "edges": [[i, j] for i in range(n) for j in range(i + 1, n)]}
            start = time.perf_counter()
            proc = cli_process("compute", "graph-chromatic", write(tmp_path, f"k{n}.json", k),
                               "--method", "full")
            assert time.perf_counter() - start < 5
            assert proc.returncode == 0, proc.stderr
            falling = IntPolynomial([1])
            for j in range(n):
                falling = falling * IntPolynomial([-j, 1])
            assert json.loads(proc.stdout)["polynomial"]["coeffs"] == [str(c) for c in falling.coeffs]

    def test_number_routes_at_720720(self):
        for kind, value in (("number-totient", "138240"), ("number-dirichlet-inverse", "5760")):
            proc = cli_process("compute", kind, "--n", "720720")
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["value"] == value
        for variant in ("gcd", "lcm"):
            proc = cli_process("compute", "number-gcd-expansion", "--n", "720720", "--variant", variant)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["value"] == 0

    def test_graph_domination(self, tmp_path, capsys):
        p3 = {"kind": "graph", "vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]}
        path = write(tmp_path, "p3.json", p3)
        for method in ("direct", "alternating", "pruned"):
            code, out, _ = run(capsys, "compute", "graph-domination", path, "--method", method)
            assert code == 0
            assert out["polynomial"] == {"var": "x", "coeffs": ["0", "1", "3", "1"]}

    def test_lattice_crosscut_and_blass_sagan(self, tmp_path, capsys):
        lattice = {
            "kind": "lattice",
            "elements": [0, 1, 2, 3],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
        }
        obj = {
            "kind": "crosscut",
            "lattice": lattice,
            "crosscut": [1, 2],
            "precedence": [[1, 2]],
        }
        path = write(tmp_path, "cc.json", obj)
        code, out, _ = run(capsys, "compute", "lattice-crosscut", path)
        assert (code, out["mobius"]) == (0, 1)
        code, out, _ = run(capsys, "compute", "lattice-blass-sagan", path)
        assert (code, out["mobius"]) == (0, 1)

    def test_number_kinds(self, capsys):
        code, out, _ = run(capsys, "compute", "number-mobius", "--n", "30")
        assert (code, out["mobius"]) == (0, -1)
        code, out, _ = run(capsys, "compute", "number-gcd-expansion", "--n", "30")
        assert (code, out["value"]) == (0, -1)
        code, out, _ = run(capsys, "compute", "number-dirichlet-inverse", "--n", "6")
        assert (code, out["value"]) == (0, "2")
        code, out, _ = run(capsys, "compute", "number-complex", "--n", "12")
        assert code == 0
        assert out["euler_characteristic"] == 1
        assert out["bonferroni"] is True

    def test_totient_power_h(self, capsys):
        code, out, _ = run(
            capsys, "compute", "number-totient", "--n", "6", "--h", "power:2"
        )
        assert code == 0
        assert out["value"] == "24"  # 36 * (3/4) * (8/9)

    def test_whitney_explicit_broken_sublist(self, tmp_path, capsys):
        instance = {
            "kind": "whitney",
            "elements": ["a", "b", "c", "d"],
            "circuits": [["a", "b", "c"], ["b", "c", "d"]],
            "broken": [["a", "b"]],
            "function": {"kind": "sign"},
        }
        path = write(tmp_path, "w.json", instance)
        code, out, _ = run(capsys, "compute", "whitney-sum", path)
        assert code == 0
        assert out["full"] == out["pruned"] == "0"

    def test_whitney_foreign_broken_rejected(self, tmp_path, capsys):
        instance = {
            "kind": "whitney",
            "elements": ["a", "b", "c"],
            "circuits": [["a", "b", "c"]],
            "broken": [["b"]],
            "function": {"kind": "sign"},
        }
        path = write(tmp_path, "w.json", instance)
        code, _, err = run(capsys, "compute", "whitney-sum", path)
        assert code == 4
        assert "broken circuit" in err

    def test_pretty_json_flag(self, capsys):
        code = cli.main(["compute", "number-mobius", "--n", "6", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("{\n")


class TestMoreGenerators:
    def test_divisor_and_partition_lattices(self, capsys):
        code, obj, _ = run(capsys, "generate", "divisor-lattice", "--n", "30")
        assert code == 0
        assert len(obj["elements"]) == 8
        code, obj, _ = run(capsys, "generate", "partition-lattice", "--n", "3")
        assert code == 0
        assert len(obj["elements"]) == 5

    def test_geometries(self, tmp_path, capsys):
        code, obj, _ = run(capsys, "generate", "interval-geometry", "--n", "3")
        assert code == 0
        path = write(tmp_path, "g.json", obj)
        code, out, _ = run(capsys, "compute", "geometry-stats", path)
        assert (code, out["free_count"]) == (0, 6)
        code, obj, _ = run(capsys, "generate", "planar-geometry", "--n", "5", "--seed", "2")
        assert code == 0
        path = write(tmp_path, "pg.json", obj)
        code, out, _ = run(capsys, "compute", "geometry-verify", path)
        assert code == 0

    def test_planar_geometry_past_the_cap_exits_3(self, capsys):
        # 50 points exceed both the closure cap and the 49 points of the grid drawn from
        code, out, err = run(capsys, "generate", "planar-geometry", "--n", "50")
        assert code == 3 and out is None
        assert "cap" in err


class TestExitCodes:
    def test_schema_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"kind": "graph", "vertices": [0], "edges": [], "extra": 1})
        code, _, err = run(capsys, "compute", "graph-chromatic", path)
        assert code == 2
        assert "schema" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compute", "graph-chromatic", "/nonexistent.json")
        assert code == 2

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "generate", "grid", "--m", "5", "--n", "5")
        assert code == 3
        assert "cap" in err

    def test_precondition(self, capsys):
        code, _, err = run(capsys, "compute", "number-gcd-expansion", "--n", "7")
        assert code == 4
        assert "precondition" in err

    def test_unknown_kind(self, capsys):
        code, _, err = run(capsys, "compute", "nonsense", "--n", "3")
        assert code == 2

    def test_cross_check_failure_exits_5(self, tmp_path, capsys, monkeypatch):
        from brokencircuits import lattices
        from brokencircuits.errors import CrossCheckFailed

        # an engine whose recursive Mobius value disagrees with the crosscut sum
        monkeypatch.setattr(lattices, "mobius", lambda lattice: 7)
        square = {"kind": "lattice", "elements": [0, 1, 2, 3], "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}
        crosscut = write(tmp_path, "cc.json", {"kind": "crosscut", "lattice": square, "crosscut": [1, 2]})
        for kind in ("lattice-crosscut", "lattice-blass-sagan"):
            code, out, err = run(capsys, "compute", kind, crosscut)
            assert (code, out) == (5, None), kind
            assert err.startswith("internal cross-check failed: ") and err.count("\n") == 1, err
            assert "differs from mu(L) = 7" in err
        # a disagreement found by the CLI itself, between the beta routes
        monkeypatch.setattr(matroids, "beta_invariant", lambda m, method: len(method))
        path = write(tmp_path, "u24.json", {"kind": "matroid", "uniform": [2, 4]})
        code, out, err = run(capsys, "compute", "matroid-beta", path)
        assert (code, out) == (5, None)
        assert "beta methods disagree" in err and err.count("\n") == 1
        # verify reports a failed cross-check as a failed check, exit 1
        def disagreeing(rng):
            raise CrossCheckFailed("injected disagreement")

        monkeypatch.setitem(verify.SUITES, "algebra", [("algebra/injected", disagreeing)])
        code, _, _ = run(capsys, "verify", "algebra")
        assert code == 1
        # a fresh process prints no traceback either
        script = (
            "import sys; from brokencircuits import cli, lattices\n"
            "lattices.mobius = lambda lattice: 7\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = cli_process("compute", "lattice-crosscut", crosscut, script=script)
        assert proc.returncode == 5
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert issubclass(CrossCheckFailed, RuntimeError)

    def test_compute_has_no_m_option(self):
        # --m was parsed and ignored by every compute kind; it is now an
        # ambiguous prefix of --method and --modified-domain
        proc = cli_process("compute", "number-totient", "--n", "6", "--m", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "ambiguous option" in proc.stderr
        assert "Traceback" not in proc.stderr
        grid = cli_process("generate", "grid", "--m", "2", "--n", "3")
        assert grid.returncode == 0, grid.stderr
        assert json.loads(grid.stdout)["kind"] == "hypergraph"

    def test_compute_has_no_cap_elements_option(self, tmp_path):
        # whitney-sum verifies the cancellation up to core.CANCELLATION_CAP
        # elements, and no option moves that bound
        instance = {
            "kind": "whitney",
            "elements": ["a", "b", "c"],
            "circuits": [["a", "b", "c"]],
            "function": {"kind": "sign"},
        }
        path = write(tmp_path, "w.json", instance)
        assert cli_process("compute", "whitney-sum", path).returncode == 0
        proc = cli_process("compute", "whitney-sum", path, "--cap-elements", "20")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--cap-elements" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_matroid_past_the_sum_cap_exits_3(self, tmp_path, capsys):
        # both matroid sums run in matroids._minor_sweep, which refuses 2^21 subsets
        path = write(tmp_path, "u221.json", {"kind": "matroid", "uniform": [2, 21]})
        for argv in (["matroid-characteristic", path], ["matroid-characteristic", path, "--method", "full"],
                     ["matroid-beta", path]):
            code, out, err = run(capsys, "compute", *argv)
            assert (code, out) == (3, None), argv
            assert err == ("cap exceeded: the rank and broken-circuit sums over 2^21 subsets: "
                           f"past the work budget of {core.WORK_BUDGET} steps\n")
        # an unknown method is a schema error before any sum runs
        code, out, err = run(capsys, "compute", "matroid-characteristic", path, "--method", "bogus")
        assert (code, out) == (2, None)

    def test_boolean_lattice_past_the_cap_is_refused_up_front(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "generate", "boolean-lattice", "--n", "11")
        assert time.perf_counter() - start < 0.5
        assert code == 3 and out is None
        assert "2^11 elements" in err
        proc = cli_process("generate", "boolean-lattice", "--n", "11")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_partition_lattice_refused_by_its_bell_number(self, capsys):
        code, out, err = run(capsys, "generate", "partition-lattice", "--n", "8")
        assert code == 3 and out is None
        assert "Bell(8) elements" in err
        code, out, err = run(capsys, "generate", "partition-lattice", "--n", "-2")
        assert code == 4 and out is None
        assert "n >= 0, got -2" in err

    @pytest.mark.parametrize("uniform", [[10, 40], [6, 30]])
    def test_uniform_matroid_document_refused_before_its_circuits(self, tmp_path, uniform):
        # C(40, 11) and C(30, 7) circuits pass the work budget, so none is built
        path = write(tmp_path, "u.json", {"kind": "matroid", "uniform": uniform})
        proc = cli_process("compute", "matroid-characteristic", path)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert len(proc.stderr.splitlines()) == 1
        assert "circuits: past the work budget" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["random-graph", "uniform-matroid", "interval-geometry"])
    def test_generator_refuses_a_huge_n_before_building(self, kind):
        proc = cli_process("generate", kind, "--n", "1000000")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert len(proc.stderr.splitlines()) == 1
        assert "past the work budget" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind, instance", [
        ("graph-chromatic", K3),
        ("whitney-sum", {"kind": "whitney", "elements": ["a", "b", "c"],
                         "circuits": [["a", "b", "c"]], "function": {"kind": "sign"}}),
    ])
    def test_non_integer_permute_order_exits_2(self, tmp_path, kind, instance):
        path = write(tmp_path, "instance.json", instance)
        for spec in ("a", "0,x,1"):
            proc = cli_process("compute", kind, path, "--permute-order", spec)
            assert (proc.returncode, proc.stdout) == (2, ""), spec
            assert proc.stderr == f"schema error: --permute-order must list integers, got {spec!r}\n"

    @pytest.mark.parametrize("kind, option, spec", [
        ("hypergraph-chromatic", "--circuits", "tight:x"),
        ("number-totient", "--h", "power:x"),
        ("number-dirichlet-inverse", "--h", "power:x"),
    ])
    def test_non_integer_spec_exits_2(self, tmp_path, kind, option, spec):
        if kind == "hypergraph-chromatic":
            doc = {"kind": "hypergraph", "vertices": [0, 1, 2, 3], "edges": [[0, 1, 2]]}
            argv = [write(tmp_path, "hg.json", doc), "--method", "restricted"]
        else:
            argv = ["--n", "12"]
        proc = cli_process("compute", kind, *argv, option, spec)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"schema error: {option} {spec!r} needs an integer after the colon\n"

    def test_tight_cycle_search_is_refused_by_its_sequences(self, tmp_path):
        # 11 vertices: P(11, m) sequences for each 3 <= m <= 11, more than 39 million
        doc = {"kind": "hypergraph", "vertices": list(range(11)), "edges": [[0, 1, 2]]}
        start = time.perf_counter()
        proc = cli_process("compute", "hypergraph-chromatic", write(tmp_path, "hg.json", doc),
                           "--method", "restricted", "--circuits", "tight:2")
        assert time.perf_counter() - start < 5
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("cap exceeded: the tight-cycle search over 11 vertices: "
                               f"past the work budget of {core.WORK_BUDGET} steps\n")

    @pytest.mark.parametrize("circuit", ["a pair", "every label"])
    def test_large_whitney_document_is_refused_in_its_first_descent(self, tmp_path, circuit):
        # 2 x 10^5 labels: a walk that kept an n-bit mask per pending branch, or walked
        # the budget's count of n-bit masks, ran out of 2 GB or ran for minutes
        labels = [f"e{i}" for i in range(200_000)]
        doc = {"kind": "whitney", "elements": labels, "function": {"kind": "sign"},
               "circuits": [labels[:2] if circuit == "a pair" else labels]}
        start = time.perf_counter()
        proc = cli_process("compute", "whitney-sum", write(tmp_path, "big.json", doc), script=LIMITED)
        assert time.perf_counter() - start < 8
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("cap exceeded: the walk over 200000 elements: "
                               f"past the work budget of {core.WORK_BUDGET} steps\n")

    def test_many_vertices_run_or_are_refused_within_the_memory_limit(self, tmp_path):
        # a 200,000-vertex graph with one edge: no |V|^2 neighbourhood masks are built
        # for the edge routes
        doc = {"kind": "graph", "vertices": list(range(200_000)), "edges": [[0, 1]]}
        proc = cli_process("compute", "graph-chromatic", write(tmp_path, "g.json", doc), script=LIMITED)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["counts"] == [1, 1]
        # one edge of 1.2M vertices: each merge would pass its 1.2M frontier labels 1.2M
        # times, and the labels would need more characters than there are code points
        n = 1_200_000
        doc = {"kind": "hypergraph", "vertices": list(range(n)), "edges": [list(range(n))]}
        proc = cli_process("compute", "hypergraph-chromatic", write(tmp_path, "h.json", doc), script=LIMITED)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (f"cap exceeded: {n} frontier labels passed at {n} edge ends: "
                               f"past the work budget of {core.WORK_BUDGET} steps\n")

    def test_prime_bound_past_the_budget_is_refused_before_the_sieve(self):
        # a sieve up to 10^10 would allocate 10 GB, past the 2 GB limit
        proc = cli_process("compute", "number-zeta", "--s", "2", "--prime-bound", "10000000000",
                           script=LIMITED)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("cap exceeded: the sieve up to 10000000000: "
                               f"past the work budget of {core.WORK_BUDGET} steps\n")

    def test_lattice_document_past_the_cap_exits_3(self, tmp_path):
        chain = list(range(1025))
        doc = {"kind": "lattice", "elements": chain, "covers": [[a, a + 1] for a in chain[:-1]]}
        proc = cli_process("compute", "lattice-mobius", write(tmp_path, "chain.json", doc))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "lattice has 1025 elements" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "kind, instance",
        [
            ("graph-chromatic", {"kind": "graph", "vertices": [0, 1], "edges": 5}),
            ("graph-chromatic", {"kind": "graph", "vertices": [0, 1, 2], "edges": [[0, 1, 2]]}),
            ("graph-chromatic", {"kind": "graph", "vertices": "ab", "edges": []}),
            ("graph-chromatic", {"kind": "graph", "vertices": [{"a": 1}], "edges": []}),
            ("matroid-characteristic", {"kind": "matroid", "uniform": [2]}),
            ("matroid-characteristic", {"kind": "matroid", "uniform": [2, "4"]}),
            ("matroid-characteristic", {"kind": "matroid", "graphic": [[0, 1]]}),
            ("hypergraph-chromatic",
             {"kind": "hypergraph", "vertices": [0, 1], "edges": [[0, 1]], "circuits": [0]}),
            ("lattice-mobius", {"kind": "lattice", "elements": [0, 1], "covers": [[0]]}),
            ("lattice-crosscut", {"kind": "crosscut", "lattice": 5, "crosscut": [1]}),
            ("geometry-stats", {"kind": "geometry", "elements": [1], "closed": [1]}),
            ("whitney-sum", {"kind": "whitney", "elements": ["a"], "circuits": [["a"]],
                             "function": {"kind": "table", "entries": [[["a"], "1", "2"]]}}),
        ],
    )
    def test_malformed_shape_exits_2(self, tmp_path, kind, instance):
        proc = cli_process("compute", kind, write(tmp_path, "bad.json", instance))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "schema error" in proc.stderr
        assert "Traceback" not in proc.stderr


# records the modules a process newly loads around cli.main
FOOTPRINT = """
import json, sys
before = set(sys.modules)
from brokencircuits import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "args, engine, absent",
    [
        (["graph-chromatic", "k3.json"], "graphs",
         ["verify", "lattices", "numbers", "geometry", "hypergraphs", "matroids"]),
        (["number-totient", "--n", "180"], "numbers",
         ["graphs", "matroids", "lattices", "geometry", "hypergraphs", "verify"]),
    ],
)
def test_compute_loads_only_its_engine(tmp_path, args, engine, absent):
    write(tmp_path, "k3.json", K3)
    argv = ["compute", *(str(tmp_path / a) if a.endswith(".json") else a for a in args)]
    proc = cli_process(*argv, script=FOOTPRINT)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert f"brokencircuits.{engine}" in loaded
    unexpected = {f"brokencircuits.{m}" for m in absent} | {"dataclasses", "inspect"}
    assert not loaded & unexpected


class TestWhitneyTables:
    def test_int_table_round_trips(self):
        ground, circuits, f = core.random_cancelling_instance(random.Random(1), 5)
        obj = io.whitney_to_obj(ground, circuits, f)
        _, _, _, parsed = io.parse_whitney(json.loads(json.dumps(obj)))
        assert [parsed._table[m] for m in range(32)] == f._table

    def test_table_written_over_another_ground_order(self):
        # the labels of each entry are read in the written order, so the
        # values must be too
        f = core.TableSetFunction(core.OrderedGroundSet((0, 1, 2)), range(8))
        ground = core.OrderedGroundSet((2, 1, 0))
        obj = io.whitney_to_obj(ground, [frozenset({1, 2})], f)
        entries = {frozenset(labels): int(v) for labels, v in obj["function"]["entries"]}
        assert entries[frozenset({2})] == 4
        subsets = [ground.subset_of(m) for m in range(8)]
        assert entries == {s: f(s) for s in subsets}
        _, _, _, parsed = io.parse_whitney(json.loads(json.dumps(obj)))
        assert [parsed(s) for s in subsets] == [f(s) for s in subsets]

    def test_polynomial_table_is_refused_on_write(self):
        ground, circuits, f = core.random_cancelling_instance(random.Random(1), 5, "poly")
        with pytest.raises(SchemaError, match="integer"):
            io.whitney_to_obj(ground, circuits, f)

    @pytest.mark.parametrize("value", ["IntPolynomial([1, 2])", "1.5", 1.5, True, None, [1]])
    def test_non_integer_entry_exits_2(self, tmp_path, capsys, value):
        instance = {
            "kind": "whitney",
            "elements": ["a", "b"],
            "circuits": [["a", "b"]],
            "function": {
                "kind": "table",
                "entries": [[[], "1"], [["a"], "-1"], [["b"], value], [["a", "b"], "1"]],
            },
        }
        with pytest.raises(SchemaError):
            io.parse_whitney(instance)
        path = write(tmp_path, "w.json", instance)
        code, out, err = run(capsys, "compute", "whitney-sum", path)
        assert code == 2
        assert out is None
        assert "table values must be integers" in err


class TestGenerate:
    def test_roundtrip_is_byte_identical(self, tmp_path, capsys):
        code, obj, _ = run(capsys, "generate", "random-graph", "--n", "5", "--p", "0.5", "--seed", "3")
        assert code == 0
        g = io.parse_graph(obj)
        assert io.canonical_json(io.graph_to_obj(g, seed=3)) == io.canonical_json(obj)

    def test_grid_instance(self, capsys):
        code, obj, _ = run(capsys, "generate", "grid", "--m", "2", "--n", "3")
        assert code == 0
        assert len(obj["edges"]) == 3
        assert len(obj["circuits"]) == 1

    def test_uniform_matroid(self, capsys):
        code, obj, _ = run(capsys, "generate", "uniform-matroid", "--r", "2", "--n", "3")
        assert code == 0
        assert obj["circuits"] == [[0, 1, 2]]

    def test_boolean_lattice(self, capsys):
        code, obj, _ = run(capsys, "generate", "boolean-lattice", "--n", "3")
        assert code == 0
        assert len(obj["elements"]) == 8

    def test_whitney_instance_computes(self, tmp_path, capsys):
        code, obj, _ = run(capsys, "generate", "random-whitney", "--n", "5", "--seed", "11")
        assert code == 0
        path = write(tmp_path, "w.json", obj)
        code, out, _ = run(capsys, "compute", "whitney-sum", path)
        assert code == 0
        assert out["cancellation"] == "verified"
        assert out["full"] == out["pruned"]


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "algebra", "--seed", "7")
        assert code == 0
        assert out["ok"] is True
        assert all(c["status"] == "pass" for c in out["checks"])

    def test_report_is_sorted_and_deterministic(self, capsys):
        code_a, out_a, _ = run(capsys, "verify", "whitney-core", "--seed", "5")
        code_b, out_b, _ = run(capsys, "verify", "whitney-core", "--seed", "5")
        names = [c["name"] for c in out_a["checks"]]
        assert names == sorted(names)
        assert [c["status"] for c in out_a["checks"]] == [c["status"] for c in out_b["checks"]]

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2


class TestNegativeControl:
    def test_mutant_broken_family_detected(self):
        # prune with a set that is not a broken circuit: the sums must differ,
        # which is exactly what the comparison harness reports as a failure
        ground = OrderedGroundSet("abc")
        f = SetFunction(lambda s: 1 if len(s) < 2 else 0, 0, "mutant")
        full = sum_full(f, ground)
        mutant = sum_pruned(f, ground, [frozenset({"a"})])
        assert full != mutant

    def test_run_suite_flags_failures(self, monkeypatch):
        def broken_check(rng):
            return "witness: injected failure"

        monkeypatch.setitem(
            verify.SUITES, "algebra", [("algebra/injected", broken_check)]
        )
        results = verify.run_suite("algebra", seed=0)
        assert results[0].status == "fail"
        assert "injected" in results[0].witness
