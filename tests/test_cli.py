import dataclasses
import importlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import treecut
from treecut.cli import main
from treecut.config import DEFAULT, EXHAUSTIVE_LIMIT, Config, load_config
from treecut.graph import Graph, format_edge_list
from treecut.oracle import CheckReport
from treecut.tree import DecompositionTree, TreeNode, build_improved

from corpus import ring_of_cliques

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
RING = os.path.join(FIXTURES, "ring8.edges")
DEMANDS = os.path.join(FIXTURES, "ring8.demands")

# `treecut oracle` on RING with mu = {0: 5/3, 3: 1/7, 5: 2}, after its
# first line: phi 1/24 leaves an exact expander, phi 1 peels one side
RATIONAL_EXPANDER = """\
phi = 1/24, sparsity threshold = 1/8
peel steps: 0, residual size: 8
expander certificate: exact (value 42/19)
all postconditions pass
"""
RATIONAL_PEEL = """\
phi = 1, sparsity threshold = 3
peel steps: 1, residual size: 2
  step 0: side=[0, 1, 2, 3, 6, 7] ratio=42/19
all postconditions pass
"""


def assert_usage_error(argv, capsys):
    """Exit code 2 with an `error:` line on stderr, not a traceback."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, argv
    assert "error:" in err and "Traceback" not in err, err


@pytest.fixture
def tree_file(tmp_path):
    out = tmp_path / "tree.json"
    assert main(["build", "--input", RING, "--mode", "basic",
                 "--out", str(out)]) == 0
    return str(out)


class TestBuildVerify:
    def test_fixture_golden_run(self, tree_file, capsys):
        rc = main(["verify", "--graph", RING, "--tree", tree_file,
                   "--exhaustive"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "quality alpha" in out
        first = out.splitlines()[0]
        doc = json.loads(first)
        assert doc["violations"] == []
        assert doc["mode"] == "exhaustive"

    def test_build_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            assert main(["build", "--input", RING, "--mode", "improved",
                         "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_build_counts_failed_routing(self, tmp_path, capsys,
                                         monkeypatch):
        """The summary names how many refinements the tree holds and how
        many failed their routing check; the tree bytes do not depend on
        the verdict."""
        # the package's `refine` is the function; patch its module's name
        refine = importlib.import_module("treecut.refine")
        ring = ring_of_cliques_file(tmp_path / "ring.edges", 3, 4)
        refined = sum(n.refinement is not None
                      for n in build_improved(ring_of_cliques(3, 4)).nodes())
        assert refined > 0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["build", "--input", ring, "--mode", "improved", "--out"]
        assert main(argv + [str(a)]) == 0
        err = capsys.readouterr().err
        assert err.endswith(", %d refinements, 0 failed routing\n" % refined)

        def failing(res):
            rep = CheckReport()
            rep.fail("stub")
            return rep

        monkeypatch.setattr(refine, "check_routing", failing)
        assert main(argv + [str(b)]) == 0
        err = capsys.readouterr().err
        assert err.endswith(", %d refinements, %d failed routing\n"
                            % (refined, refined))
        assert a.read_bytes() == b.read_bytes()

    def test_tampered_weight_exits_one(self, tree_file, tmp_path, capsys):
        blob = open(tree_file).read()
        bad = tmp_path / "bad.json"
        bad.write_text(blob.replace('"weight":"4"', '"weight":"1"', 1))
        rc = main(["verify", "--graph", RING, "--tree", str(bad)])
        assert rc == 1
        assert "fail" in capsys.readouterr().out.lower()

    def test_tree_files_exit_alike_in_every_command(self, tree_file,
                                                    tmp_path, capsys):
        """A tampered tree exits 1 and a malformed one 2, whichever command
        reads it."""
        blob = open(tree_file).read()
        doc = json.loads(blob)

        def edited(**changes):
            return json.dumps(dict(doc, **changes))

        malformed = ("[]", "{", "[" * 100000, edited(graph=5),
                     edited(tree=dict(doc["tree"], children=5)),
                     edited(vertices=[0, "a"]),
                     edited(tree=dict(doc["tree"], members="01234567")),
                     edited(tree=dict(doc["tree"], weight=[])),
                     edited(format_version=99), edited(mode="weird"))
        tampered = blob.replace('"weight":"4"', '"weight":"1"', 1)
        assert tampered != blob
        bad = tmp_path / "bad.json"
        for argv in (["verify", "--graph", RING],
                     ["replay", "--graph", RING, "--demands", DEMANDS,
                      "--cut", "0"],
                     ["export"]):
            argv = argv + ["--tree", str(bad)]
            for text in malformed:
                bad.write_text(text)
                assert_usage_error(argv, capsys)
            bad.write_text(tampered)
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert "tree verification failed" in captured.out
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("text", ["12/2", "6.0", " 6", "+6", "06"])
    def test_non_canonical_weight_exits_two(self, text, tree_file, tmp_path,
                                            capsys):
        """A weight of the right value that is not written as str writes
        the int is a malformed document in every command that reads it."""
        blob = open(tree_file).read()
        assert '"weight":"6"' in blob
        bad = tmp_path / "bad.json"
        bad.write_text(blob.replace('"weight":"6"',
                                    '"weight":%s' % json.dumps(text), 1))
        for argv in (["verify", "--graph", RING],
                     ["replay", "--graph", RING, "--demands", DEMANDS,
                      "--cut", "0"],
                     ["export"]):
            assert_usage_error(argv + ["--tree", str(bad)], capsys)

    def test_malformed_graph_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 not-a-vertex\n")
        rc = main(["build", "--input", str(bad), "--out",
                   str(tmp_path / "t.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_numbers_exit_two(self, tree_file, tmp_path, capsys):
        """A zero denominator is malformed input in every file format."""
        bad = tmp_path / "bad.txt"
        for text, argv in (
                ("0 0 1 0\n", ["replay", "--graph", RING, "--tree",
                               tree_file, "--demands", str(bad),
                               "--cut", "0"]),
                ("0 1/0\n", ["oracle", "--graph", RING, "--phi", "1",
                             "--mu", str(bad)]),
                ("quality_C = 1/0\n", ["build", "--input", RING,
                                       "--config", str(bad)])):
            bad.write_text(text)
            assert_usage_error(argv, capsys)

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        assert_usage_error(["build", "--input", RING, "--out",
                            str(tmp_path / "missing" / "t.json")], capsys)

    def test_vertices_outside_the_graph_exit_two(self, tree_file, tmp_path,
                                                 capsys):
        """Demands, cuts and measures may name only vertices of the graph,
        and a cut must be a proper nonempty subset."""
        outside = tmp_path / "outside.demands"
        outside.write_text("0 0 1 1\n50 0 -1 1\n")
        replay = ["replay", "--graph", RING, "--tree", tree_file,
                  "--demands"]
        for demands, cut in ((str(outside), "0"), (DEMANDS, "0,99"),
                             (DEMANDS, ""), (DEMANDS, "0,1,2,3,4,5,6,7")):
            assert_usage_error(replay + [demands, "--cut", cut], capsys)
        mu = tmp_path / "mu.txt"
        mu.write_text("".join("%d 1\n" % v for v in range(8)))
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n99 1\n")
        for measures in (["--mu", str(bad)],
                         ["--mu", str(mu), "--nu", str(bad)]):
            assert_usage_error(["oracle", "--graph", RING, "--phi", "1/24"]
                               + measures, capsys)

    def test_zero_entries_at_unknown_vertices_exit_two(self, tree_file,
                                                       tmp_path, capsys):
        """A line naming a vertex outside the graph is refused even when
        its entries are zero or cancel, so the parsed input drops them."""
        zero_mu = tmp_path / "zero.txt"
        zero_mu.write_text("0 1\n99 0\n")
        cancel = tmp_path / "cancel.demands"
        cancel.write_text("0 0 1 1\n1 0 -1 1\n99 0 1 1\n99 0 -1 1\n")
        for argv in (["oracle", "--graph", RING, "--phi", "1/24",
                      "--mu", str(zero_mu)],
                     ["replay", "--graph", RING, "--tree", tree_file,
                      "--demands", str(cancel), "--cut", "0"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "error:" in err and "99" in err, err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["verify", "--graph", RING,
                     "--tree", str(tmp_path / "nope.json")]) == 2

    def test_sampled_verify_deterministic(self, tree_file, capsys):
        args = ["verify", "--graph", RING, "--tree", tree_file,
                "--samples", "40", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_exhaustive_verify_above_limit_exits_two(self, tmp_path):
        """An exhaustive verify of a 40-vertex path once built its 2^39
        cuts until memory ran out; it must be refused before any cut is
        made.  The run is a child process under a memory limit and a
        timeout, so a regression fails the test rather than the machine."""
        g = Graph(range(40), [(i, i + 1, 1) for i in range(39)])
        root = TreeNode(g.vertices, "root", 0)
        root.children = [TreeNode({v}, "leaf", g.degree(v))
                         for v in g.vertices]
        graph, tree = tmp_path / "path.edges", tmp_path / "star.json"
        graph.write_text(format_edge_list(g))
        tree.write_text(DecompositionTree(g, root, "basic").to_json())
        proc = run_cli(["verify", "--graph", str(graph), "--tree",
                        str(tree), "--exhaustive"], memory=1 << 30,
                       timeout=10)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "limit" in proc.stderr
        assert "Traceback" not in proc.stderr


def run_cli(argv, memory=None, timeout=60):
    """`python -m treecut.cli argv` in a child process, optionally under an
    address-space limit of `memory` bytes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(treecut.__file__)),
         os.environ.get("PYTHONPATH", "")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    return subprocess.run([sys.executable, "-m", "treecut.cli"] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=timeout,
                          preexec_fn=limit if memory else None)


def ring_of_cliques_file(path, k, s):
    path.write_text(format_edge_list(ring_of_cliques(k, s)))
    return str(path)


class TestConfig:
    def test_zero_congestion_cap_exits_two(self, tmp_path):
        """A zero cap once made the congestion escalation double 0 forever,
        so the build runs in a subprocess under a timeout."""
        ring = ring_of_cliques_file(tmp_path / "ring.edges", 6, 4)
        cfg = tmp_path / "cap.cfg"
        for value in ("0", "-1"):
            cfg.write_text("oracle_congestion_cap = %s\n" % value)
            proc = run_cli(["build", "--input", ring, "--config", str(cfg),
                            "--out", str(tmp_path / "t.json")])
            assert proc.returncode == 2, proc.stderr
            assert "error:" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_large_c_phi_builds_a_verified_tree(self, tmp_path, capsys):
        """With c_phi = 100 the refinement threshold passes 1, and the
        oracle's relocated cut on the 4x5 ring kept the whole cluster: the
        build once ended in a RefineError traceback."""
        ring = ring_of_cliques_file(tmp_path / "ring.edges", 4, 5)
        cfg, out = tmp_path / "c_phi.cfg", tmp_path / "t.json"
        cfg.write_text("c_phi = 100\n")
        assert main(["build", "--input", ring, "--mode", "improved",
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--graph", ring, "--tree", str(out),
                     "--config", str(cfg)]) == 0
        assert "within: True" in capsys.readouterr().out

    def test_off_schedule_c_phi_is_labelled(self, tmp_path, capsys):
        """The build summary names a c_phi off the paper's schedule and
        says nothing of c_phi at the default, written out or not."""
        ring = ring_of_cliques_file(tmp_path / "ring.edges", 3, 4)
        cfg, out = tmp_path / "c_phi.cfg", tmp_path / "t.json"
        argv = ["build", "--input", ring, "--mode", "improved", "--out",
                str(out)]
        assert main(argv) == 0
        plain = capsys.readouterr().err
        assert plain.endswith(" failed routing\n") and "c_phi" not in plain
        cfg.write_text("c_phi = 1/48\n")
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().err == plain
        cfg.write_text("c_phi = 1/24\n")
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().err == \
            plain[:-1] + "; off-schedule c_phi = 1/24\n"

    def test_out_of_range_constants_exit_two(self, tmp_path, capsys):
        """A c_phi <= 0 makes every refinement phi 0 or negative, and a
        zero quality_C declares an envelope no replay can meet."""
        cfg = tmp_path / "bad.cfg"
        for line in ("c_phi = 0", "c_phi = -1"):
            cfg.write_text(line + "\n")
            assert_usage_error(["build", "--input", RING, "--config",
                                str(cfg), "--out", str(tmp_path / "t.json")],
                               capsys)
        tree = tmp_path / "ring.json"
        assert main(["build", "--input", RING, "--out", str(tree)]) == 0
        replay = ["replay", "--graph", RING, "--tree", str(tree), "--demands",
                  DEMANDS, "--cut", "0,1,2"]
        assert main(replay) == 0
        assert "verdict: pass" in capsys.readouterr().out
        cfg.write_text("quality_C = 0\n")
        assert_usage_error(replay + ["--config", str(cfg)], capsys)

    def test_removed_keys_exit_two(self, tmp_path, capsys):
        """The constants the paper fixes are no Config keys: a file that
        sets one, even to its old default, is refused by name."""
        cfg = tmp_path / "old.cfg"
        for line in ("oracle_sparsity_c = 1", "oracle_congestion_limit = 64",
                     "merge_phi_coeff = 1/6", "merge_shrink_coeff = 1/8",
                     "merge_loop_slack = 16", "tau_basic = none",
                     "c0_declared = 1", "kappa = 1/384",
                     "alpha_improved_cap = 8", "replay_tau_c = 6"):
            key = line.split()[0]
            cfg.write_text("# an older config\n" + line + "\n")
            argv = ["build", "--input", RING, "--config", str(cfg), "--out",
                    str(tmp_path / "t.json")]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert ":2: unknown key %r" % key in err, err

    def test_load_config_types(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# tuned\nbrute_threshold = 12\nsamples = 500\n"
                       "seed = 7  # fixed\nc_phi = 1/96\nquality_C = 8\n")
        c = load_config(str(cfg))
        for name, value in (("brute_threshold", 12), ("samples", 500),
                            ("seed", 7)):
            assert type(getattr(c, name)) is int
            assert getattr(c, name) == value
        for name, value in (("c_phi", Fraction(1, 96)), ("quality_C", 8)):
            assert type(getattr(c, name)) is Fraction
            assert getattr(c, name) == value
        with pytest.raises(ValueError, match="oracle_congestion_cap"):
            DEFAULT.replace(oracle_congestion_cap=0)

    def test_six_fields(self):
        assert [f.name for f in dataclasses.fields(Config)] == [
            "brute_threshold", "oracle_congestion_cap", "c_phi", "quality_C",
            "samples", "seed"]

    def test_api_refuses_bad_values(self):
        for name in ("quality_C", "oracle_congestion_cap", "c_phi"):
            for value in (Fraction(0), Fraction(-1, 2)):
                with pytest.raises(ValueError, match=name):
                    Config(**{name: value})
        for name in ("samples", "seed"):
            with pytest.raises(ValueError, match=name):
                DEFAULT.replace(**{name: -5})
            assert getattr(Config(**{name: 0}), name) == 0
        # enumeration tables grow as 2^n: the threshold stops where an
        # exhaustive verify does
        for value in (-1, EXHAUSTIVE_LIMIT + 1, 40):
            with pytest.raises(ValueError, match="brute_threshold"):
                Config(brute_threshold=value)
        for value in (0, EXHAUSTIVE_LIMIT):
            assert Config(brute_threshold=value).brute_threshold == value

    def test_negative_samples_exit_two(self, tree_file, tmp_path, capsys):
        assert_usage_error(["verify", "--graph", RING, "--tree", tree_file,
                            "--samples", "-5"], capsys)
        cfg = tmp_path / "samples.cfg"
        cfg.write_text("samples = -1\n")
        assert_usage_error(["verify", "--graph", RING, "--tree", tree_file,
                            "--config", str(cfg)], capsys)

    def test_negative_seed_exit_two(self, tree_file, tmp_path, capsys):
        """Random seeds from |seed|: a negative seed would check the cuts
        of its positive twin while the report names the negative one."""
        assert_usage_error(["verify", "--graph", RING, "--tree", tree_file,
                            "--seed", "-3"], capsys)
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -1\n")
        assert_usage_error(["verify", "--graph", RING, "--tree", tree_file,
                            "--config", str(cfg)], capsys)


class TestReplay:
    def test_fixture_demands_pass(self, tree_file, capsys):
        rc = main(["replay", "--graph", RING, "--tree", tree_file,
                   "--demands", DEMANDS, "--cut", "0,1,2"])
        assert rc == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_zero_demands_empty_ledger(self, tree_file, tmp_path, capsys):
        empty = tmp_path / "zero.demands"
        empty.write_text("")
        rc = main(["replay", "--graph", RING, "--tree", tree_file,
                   "--demands", str(empty), "--cut", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "charge mass = 0" in out

    def test_unrespected_demands_exit_one(self, tree_file, tmp_path,
                                          capsys):
        big = tmp_path / "big.demands"
        big.write_text("0 0 1000 1\n5 0 -1000 1\n")
        rc = main(["replay", "--graph", RING, "--tree", tree_file,
                   "--demands", str(big), "--cut", "0"])
        assert rc == 1
        assert "1-respected" in capsys.readouterr().out

    def test_edited_tree_refused(self, tree_file, tmp_path, capsys):
        # structurally valid but not the deterministic build: flows for it
        # do not exist, so the replay refuses
        blob = open(tree_file).read()
        doc = json.loads(blob)
        # fabricate a consistent star tree over the same graph (leaf
        # weights are the vertex degrees)
        members = doc["tree"]["members"]
        degrees = ["6", "4", "4", "3", "6", "4", "4", "3"]
        doc["tree"] = {"members": members, "kind": "root", "weight": "0",
                       "children": [{"members": [v], "kind": "leaf",
                                     "weight": w}
                                    for v, w in zip(members, degrees)]}
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        rc = main(["replay", "--graph", RING, "--tree", str(other),
                   "--demands", DEMANDS, "--cut", "0"])
        assert rc == 1


class TestOracle:
    def test_expander_case(self, tmp_path, capsys):
        mu = tmp_path / "mu.txt"
        mu.write_text("".join("%d 1\n" % v for v in range(8)))
        rc = main(["oracle", "--graph", RING, "--phi", "1/24",
                   "--mu", str(mu)])
        assert rc == 0
        assert "all postconditions pass" in capsys.readouterr().out

    def test_refined_case(self, tmp_path, capsys):
        mu = tmp_path / "mu.txt"
        mu.write_text("".join("%d 1\n" % v for v in range(8)))
        nu = tmp_path / "nu.txt"
        nu.write_text("0 1\n4 1\n")
        rc = main(["oracle", "--graph", RING, "--phi", "1/24",
                   "--mu", str(mu), "--nu", str(nu)])
        assert rc == 0
        assert "refined case" in capsys.readouterr().out

    @pytest.mark.parametrize("phi, refined, out", [
        ("1/24", False, "case: Expander\n" + RATIONAL_EXPANDER),
        ("1/24", True, "refined case: 1 (base Expander)\n"
         + RATIONAL_EXPANDER),
        ("1", False, "case: BalancedCut\n" + RATIONAL_PEEL),
        ("1", True, "refined case: 2c (base BalancedCut)\n"
         + RATIONAL_PEEL)],
        ids=["expander", "expander-nu", "peel", "peel-nu"])
    def test_rational_measure_output(self, phi, refined, out, tmp_path,
                                     capsys):
        """A measure file of rationals: phi, the threshold, each step ratio
        and the certificate value print as the file's own scale gives
        them."""
        mu = tmp_path / "mu.txt"
        mu.write_text("0 5/3\n3 1/7\n5 2\n")
        argv = ["oracle", "--graph", RING, "--phi", phi, "--mu", str(mu)]
        if refined:
            nu = tmp_path / "nu.txt"
            nu.write_text("1 1/2\n4 3/5\n6 1\n")
            argv += ["--nu", str(nu)]
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_repeated_measure_vertex_exits_two(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("0 1\n4 1\n")
        twice = tmp_path / "twice.txt"
        twice.write_text("0 1\n# again\n0 2\n")
        for mu, nu in ((twice, None), (good, twice)):
            argv = ["oracle", "--graph", RING, "--phi", "1/24",
                    "--mu", str(mu)] + (["--nu", str(nu)] if nu else [])
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "line 3" in err, err

    def test_bad_phi_exits_two(self, tmp_path, capsys):
        mu = tmp_path / "mu.txt"
        mu.write_text("0 1\n")
        for phi in ("x", "1/0", "-1", "0"):
            assert_usage_error(["oracle", "--graph", RING, "--phi", phi,
                                "--mu", str(mu)], capsys)

    def test_out_of_range_brute_threshold_exits_two(self, tmp_path, capsys):
        """On a 40-vertex graph, brute_threshold = 40 would table 2^27 sides
        of 42 ints.  The config is refused by name; the graph here is the
        8-vertex ring, so a build that accepted it would only run."""
        mu = tmp_path / "mu.txt"
        mu.write_text("".join("%d 1\n" % v for v in range(8)))
        cfg = tmp_path / "big.cfg"
        for value in ("40", "25", "-1"):
            cfg.write_text("brute_threshold = %s\n" % value)
            rc = main(["oracle", "--graph", RING, "--phi", "1/24",
                       "--mu", str(mu), "--config", str(cfg)])
            err = capsys.readouterr().err
            assert rc == 2 and err.startswith("error: "), err
            assert "brute_threshold" in err and "Traceback" not in err


class TestExport:
    def test_dot_written(self, tree_file, tmp_path):
        dot = tmp_path / "t.dot"
        assert main(["export", "--tree", tree_file, "--dot",
                     str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("graph decomposition {")
        assert "label=" in text

    def test_unwritable_dot_exits_two(self, tree_file, tmp_path, capsys):
        assert_usage_error(["export", "--tree", tree_file, "--dot",
                            str(tmp_path / "missing" / "t.dot")], capsys)
