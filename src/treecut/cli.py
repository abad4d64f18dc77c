"""Command-line surface: build trees, verify quality, replay demands,
probe the cut/expander oracle, and export DOT renderings.

Exit codes: 0 = pass, 1 = a verified property is violated, 2 = usage or
malformed input.
"""

import argparse
import sys

from .config import DEFAULT, Config
from .demand import parse_demands
from .graph import parse_edge_list, parse_measure
from .oracle import (check_outcome, check_refined, cut_or_expander,
                     refined_cut_or_expander)
from .replay import ReplayError, full_replay
from .tree import DecompositionTree, TreeError, build_basic, build_improved
from .util import data_lines, parse_frac
from .verify import VerifyError, quality_envelope, verify_quality


def _read(path, what):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError("cannot read %s file %r: %s" % (what, path, exc))


def _write(path, text, what):
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError("cannot write %s file %r: %s" % (what, path, exc))


class _UsageError(Exception):
    pass


def _load_graph(path):
    try:
        return parse_edge_list(_read(path, "edge-list"))
    except ValueError as exc:
        raise _UsageError("graph file %r: %s" % (path, exc))


def _known(g, vertices, what):
    """Refuse an input that names vertices the graph does not have."""
    unknown = sorted(set(vertices) - g.vertex_set())
    if unknown:
        raise _UsageError("%s names vertices not in the graph: %s"
                          % (what, ", ".join(map(str, unknown))))


def _line_vertices(text):
    """The vertex that opens each data line of a measure or demands file
    that parsed; the parsed objects drop zero entries, so only the lines
    show every vertex the file names."""
    return [int(line.split()[0])
            for _, line in data_lines(text.splitlines())]


def _parse_cut(text, g):
    try:
        b = frozenset(int(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise _UsageError("cut must be a list of integer vertices, got %r"
                          % text)
    _known(g, b, "cut")
    if not b or b == g.vertex_set():
        raise _UsageError("cut must be a proper nonempty vertex subset, "
                          "got %r" % text)
    return b


def _load_measure(path, g):
    text = _read(path, "measure")
    try:
        mu, scale = parse_measure(text)
    except ValueError as exc:
        raise _UsageError("measure file %r: %s" % (path, exc))
    _known(g, _line_vertices(text), "measure file %r" % path)
    return mu, scale


def cmd_build(args):
    g = _load_graph(args.input)
    build = build_basic if args.mode == "basic" else build_improved
    t = build(g)
    _write(args.out, t.to_json(), "tree")
    # every refinement records its routing verdict (refine.check_routing)
    refined = [n.refinement for n in t.nodes() if n.refinement is not None]
    failed = sum(not res.routing.ok for res in refined)
    print("built %s tree: %d nodes, %d leaves, %d refinements, %d failed "
          "routing" % (args.mode, len(t.nodes()), len(t.leaves()),
                       len(refined), failed), file=sys.stderr)
    return 0


def _load_tree(path):
    """(tree, text) of a tree file.  A tree that fails its own checks (a
    tampered weight, say) exits 1 in every command; a malformed document
    is a usage error."""
    text = _read(path, "tree")
    try:
        return DecompositionTree.from_json(text), text
    except TreeError:
        raise
    except ValueError as exc:
        raise _UsageError("tree file %r: %s" % (path, exc))


def cmd_verify(args):
    g = _load_graph(args.graph)
    try:
        cfg = Config(samples=args.samples, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc))
    t, _ = _load_tree(args.tree)
    mode = "exhaustive" if args.exhaustive else None
    try:
        report = verify_quality(g, t, mode=mode, cfg=cfg)
    except VerifyError as exc:
        raise _UsageError(str(exc))
    sys.stdout.write(report.to_json())
    for line in report.table_lines():
        print(line)
    n = g.vertex_count
    print("quality alpha = %s (%s over %d cuts)"
          % (report.worst, report.mode, report.cuts_checked))
    print("declared envelope = %s; within: %s"
          % (quality_envelope(n, cfg), report.within_envelope(n, cfg)))
    if report.violations:
        print("LOWER BOUND VIOLATED at cut %r"
              % sorted(report.violations[0]))
        return 1
    return 0


def cmd_replay(args):
    g = _load_graph(args.graph)
    t_stored, blob = _load_tree(args.tree)
    if t_stored.graph.vertex_set() != g.vertex_set() \
            or t_stored.graph.cap != g.cap:
        raise _UsageError("tree was not built from the given graph")
    text = _read(args.demands, "demands")
    try:
        p = parse_demands(text)
    except ValueError as exc:
        raise _UsageError("demands file %r: %s" % (args.demands, exc))
    _known(g, _line_vertices(text), "demands file %r" % args.demands)
    b = _parse_cut(args.cut, g)
    # the stored flows are not serialized, so rebuild deterministically and
    # insist the result matches the given tree byte for byte
    build = build_basic if t_stored.mode == "basic" else build_improved
    t = build(g)
    if t.to_json() != blob:
        print("stored tree does not match a deterministic rebuild; "
              "refusing to replay")
        return 1
    try:
        rep = full_replay(t, p, b)
    except ReplayError as exc:
        print("replay failed: %s" % exc)
        return 1
    for line in rep.ledger.report_lines():
        print(line)
    print("demand across cut = %s; charge mass = %s; cut capacity = %s"
          % (rep.dem_p, rep.ledger.total_mass(), rep.cap_cut))
    print("max per-edge charge = %s (declared envelope %s); within: %s"
          % (rep.max_charge, rep.envelope, rep.within_envelope))
    print("verdict: pass")
    return 0


def cmd_oracle(args):
    g = _load_graph(args.graph)
    try:
        phi = parse_frac(args.phi)
    except ValueError:
        raise _UsageError("phi must be a rational, got %r" % args.phi)
    if phi <= 0:
        raise _UsageError("phi must be positive, got %r" % args.phi)
    # mu holds the file's weights times scale, so every ratio is the file's
    # over scale: phi goes in so, and each ratio prints times scale
    mu, scale = _load_measure(args.mu, g)
    phi /= scale
    if args.nu:
        nu, _ = _load_measure(args.nu, g)
        outcome = refined_cut_or_expander(g, phi, mu, nu)
        base = outcome.base
        print("refined case: %s (base %s)" % (outcome.tag, base.tag))
        rep = check_refined(outcome)
    else:
        outcome = cut_or_expander(g, phi, mu)
        base = outcome
        print("case: %s" % outcome.tag)
        rep = check_outcome(outcome)
    print("phi = %s, sparsity threshold = %s"
          % (base.phi * scale, base.threshold * scale))
    print("peel steps: %d, residual size: %d"
          % (len(base.steps), len(base.residual)))
    for i, step in enumerate(base.steps):
        print("  step %d: side=%r ratio=%s"
              % (i, sorted(step.side), step.ratio * scale))
    if base.certificate is not None:
        cert = base.certificate
        print("expander certificate: %s (value %s)"
              % (cert.verified, "none" if cert.value is None
                 else cert.value * scale))
    for note in rep.notes:
        print("note: %s" % note)
    if not rep.ok:
        for f in rep.failures:
            print("postcondition FAILED: %s" % f)
        return 1
    print("all postconditions pass")
    return 0


def cmd_export(args):
    t, _ = _load_tree(args.tree)
    _write(args.dot, t.to_dot(), "DOT")
    return 0


def make_parser():
    ap = argparse.ArgumentParser(
        prog="treecut",
        description="hierarchical tree cut-sparsifiers with checked "
                    "certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a decomposition tree")
    b.add_argument("--input", required=True, help="edge-list file")
    b.add_argument("--mode", choices=("basic", "improved"), default="basic")
    b.add_argument("--out", help="output tree JSON (default stdout)")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="verify tree quality against a graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--tree", required=True)
    v.add_argument("--exhaustive", action="store_true")
    v.add_argument("--samples", type=int, default=DEFAULT.samples)
    v.add_argument("--seed", type=int, default=DEFAULT.seed)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("replay", help="replay a demand state over the tree")
    r.add_argument("--graph", required=True)
    r.add_argument("--tree", required=True)
    r.add_argument("--demands", required=True,
                   help="file of `v commodity num den` lines")
    r.add_argument("--cut", required=True,
                   help="comma/space separated vertex list")
    r.set_defaults(func=cmd_replay)

    o = sub.add_parser("oracle", help="run one cut-or-expander oracle call")
    o.add_argument("--graph", required=True)
    o.add_argument("--phi", required=True)
    o.add_argument("--mu", required=True, help="measure file: `v weight`")
    o.add_argument("--nu", help="second measure for the refined oracle")
    o.set_defaults(func=cmd_oracle)

    e = sub.add_parser("export", help="render a tree as DOT")
    e.add_argument("--tree", required=True)
    e.add_argument("--dot", help="output file (default stdout)")
    e.set_defaults(func=cmd_export)
    return ap


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except TreeError as exc:
        # an inconsistent tree is a verification failure, not a usage error
        print("tree verification failed: %s" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
