import dataclasses
import importlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treecut
from treecut.cli import main
from treecut.config import DEFAULT, Config
from treecut.graph import (BRUTE_THRESHOLD, Graph, format_edge_list,
                           parse_edge_list)
from treecut.oracle import CheckReport
from treecut.tree import DecompositionTree, TreeNode, build_improved
from treecut.verify import EXHAUSTIVE_LIMIT, verify_quality

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
        blob = Path(tree_file).read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(blob.replace('"weight":"4"', '"weight":"1"', 1))
        rc = main(["verify", "--graph", RING, "--tree", str(bad)])
        assert rc == 1
        assert "fail" in capsys.readouterr().out.lower()

    def test_tree_files_exit_alike_in_every_command(self, tree_file,
                                                    tmp_path, capsys):
        """A tampered tree exits 1 and a malformed one 2, whichever command
        reads it."""
        blob = Path(tree_file).read_text()
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
        blob = Path(tree_file).read_text()
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
        """A zero denominator is malformed input in every file format, and
        in the int flags of verify (which argparse refuses)."""
        bad = tmp_path / "bad.txt"
        for text, argv in (
                ("0 0 1 0\n", ["replay", "--graph", RING, "--tree",
                               tree_file, "--demands", str(bad),
                               "--cut", "0"]),
                ("0 1/0\n", ["oracle", "--graph", RING, "--phi", "1",
                             "--mu", str(bad)])):
            bad.write_text(text)
            assert_usage_error(argv, capsys)
        for flag in ("--samples", "--seed"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--graph", RING, "--tree", tree_file, flag,
                      "1/0"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "invalid int value: '1/0'" in captured.err
            assert not captured.out

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


def assert_refused_option(proc, option):
    """A child run that argparse stopped at an option it does not know:
    exit 2, no traceback and nothing on stdout."""
    assert proc.returncode == 2, proc.stderr
    assert "unrecognized arguments: %s" % option in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


class TestConfig:
    def test_zero_congestion_cap_exits_two(self, tmp_path):
        """A zero cap once made the congestion escalation double 0 forever.
        The first cap is a constant now and build takes no config file:
        a build handed one exits 2 before it starts (in a subprocess under
        a timeout, as argparse exits)."""
        cfg = tmp_path / "cap.cfg"
        for value in ("0", "-1"):
            cfg.write_text("oracle_congestion_cap = %s\n" % value)
            assert_refused_option(
                run_cli(["build", "--input", RING, "--config", str(cfg),
                         "--out", str(tmp_path / "t.json")]), "--config")
            assert not (tmp_path / "t.json").exists()

    def test_out_of_range_constants_exit_two(self, tmp_path, capsys):
        """A zero quality_C once declared an envelope no replay can meet.
        No file sets quality_C now: replay takes no config file, and one
        handed a file exits 2 before it starts (in a subprocess, as
        argparse exits)."""
        cfg = tmp_path / "bad.cfg"
        tree = tmp_path / "ring.json"
        assert main(["build", "--input", RING, "--out", str(tree)]) == 0
        replay = ["replay", "--graph", RING, "--tree", str(tree), "--demands",
                  DEMANDS, "--cut", "0,1,2"]
        assert main(replay) == 0
        assert "verdict: pass" in capsys.readouterr().out
        cfg.write_text("quality_C = 0\n")
        assert_refused_option(run_cli(replay + ["--config", str(cfg)]),
                              "--config")

    def test_removed_keys_exit_two(self, tree_file, tmp_path):
        """The constants the paper fixes are no Config fields: the
        constructor refuses each by name, and verify, which takes no config
        file, exits 2 on a file that sets them (in a subprocess, as
        argparse exits)."""
        keys = ("oracle_sparsity_c", "oracle_congestion_limit",
                "merge_phi_coeff", "merge_shrink_coeff", "merge_loop_slack",
                "tau_basic", "c0_declared", "kappa", "alpha_improved_cap",
                "replay_tau_c", "brute_threshold", "oracle_congestion_cap",
                "c_phi")
        for key in keys:
            with pytest.raises(TypeError, match=key):
                Config(**{key: 1})
        cfg = tmp_path / "old.cfg"
        cfg.write_text("# an older config\nsamples = 40\n"
                       + "".join("%s = 1\n" % key for key in keys))
        assert_refused_option(
            run_cli(["verify", "--graph", RING, "--tree", tree_file,
                     "--config", str(cfg)]), "--config")

    def test_field_types(self):
        """quality_C is exact and samples and seed are ints, as the
        defaults and the report of a sampled verify hold them."""
        assert type(DEFAULT.quality_C) is Fraction
        g = parse_edge_list(Path(RING).read_text())
        rep = verify_quality(g, build_improved(g), "sampled",
                             Config(samples=500, seed=7))
        doc = json.loads(rep.to_json())
        for name, value in (("samples", 500), ("seed", 7)):
            assert type(doc[name]) is int
            assert doc[name] == value

    def test_three_fields(self):
        assert [f.name for f in dataclasses.fields(Config)] == [
            "quality_C", "samples", "seed"]

    def test_api_refuses_bad_values(self):
        """Config is the one typed way in besides the flags: a value of the
        wrong type or range is a ValueError that names its field."""
        for value in (0, Fraction(0), Fraction(-1, 2), 1.5, "16", True,
                      None):
            with pytest.raises(ValueError, match="quality_C"):
                Config(quality_C=value)
        for name in ("samples", "seed"):
            for value in (-5, 2.5, True, "5", None):
                with pytest.raises(ValueError, match=name):
                    Config(**{name: value})
            assert getattr(Config(**{name: 0}), name) == 0
        # an int quality_C is as exact as a Fraction
        assert Config(quality_C=16).quality_C == DEFAULT.quality_C

    def test_negative_samples_exit_two(self, tree_file, capsys):
        assert_usage_error(["verify", "--graph", RING, "--tree", tree_file,
                            "--samples", "-5"], capsys)

    def test_negative_seed_exit_two(self, tree_file, capsys):
        """Random seeds from |seed|: a negative seed would check the cuts
        of its positive twin while the report names the negative one."""
        assert_usage_error(["verify", "--graph", RING, "--tree", tree_file,
                            "--seed", "-3"], capsys)


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
        blob = Path(tree_file).read_text()
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

    def test_out_of_range_brute_threshold_exits_two(self, tmp_path):
        """On a 40-vertex graph, brute_threshold = 40 would table 2^27 sides
        of 42 ints.  The threshold is a constant now, stopping where an
        exhaustive verify does (enumeration tables grow as 2^n), and the
        oracle takes no config file: one handed a file exits 2 before it
        starts, in a subprocess, as argparse exits."""
        assert BRUTE_THRESHOLD <= EXHAUSTIVE_LIMIT
        mu = tmp_path / "mu.txt"
        mu.write_text("".join("%d 1\n" % v for v in range(8)))
        cfg = tmp_path / "big.cfg"
        for value in ("40", "25", "-1"):
            cfg.write_text("brute_threshold = %s\n" % value)
            assert_refused_option(
                run_cli(["oracle", "--graph", RING, "--phi", "1/24",
                         "--mu", str(mu), "--config", str(cfg)]), "--config")


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
