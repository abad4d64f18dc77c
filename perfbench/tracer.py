"""Per-layer tracing of treecut from outside the library.

Each traced layer function is wrapped by rebinding its name in every loaded
``treecut`` module that holds it.  Rebinding everywhere is needed because the
library uses from-imports: ``min_ratio_cut`` is bound in both ``graph`` and
``oracle``, ``mincut_in_tree`` in ``tree``, ``verify`` and ``replay``, so
patching one module alone would miss most calls.

Spans are recorded only while the benchmark has a phase span open (one per
timed build, verify or replay call), so set-up and output checks are never
attributed to a layer.  A span stack gives each span its self time: its
duration minus the time covered by its child spans.  Spans are kept in
compact arrays in memory and written out only when the run ends.
"""

import sys
import time
from array import array
from contextlib import contextmanager

# Layer functions, by module.  build_basic and build_improved share one span
# name: their self time is the tree-building glue around the calls below.
LAYERS = {
    "graph": ("min_ratio_cut", "cut_capacity"),
    "oracle": ("sparsest_cut", "cut_or_expander", "check_outcome",
               "check_refined"),
    "flow": ("max_flow", "route_from_cut", "path_decomposition"),
    "merge": ("merge_phase",),
    "refine": ("refine",),
    "tree": ("build_basic", "build_improved", "mincut_in_tree"),
    "demand": ("respects_exact", "update"),
    "verify": ("verify_quality",),
    "replay": ("full_replay",),
}
RENAME = {"tree.build_basic": "tree.build",
          "tree.build_improved": "tree.build"}

# Spans of these layers belong to building a tree; none may appear while
# only queries are timed.
BUILD_LAYERS = ("graph.min_ratio_cut", "oracle.sparsest_cut",
                "oracle.cut_or_expander", "oracle.check_outcome",
                "oracle.check_refined", "flow.max_flow",
                "flow.route_from_cut", "flow.path_decomposition",
                "merge.merge_phase", "refine.refine", "tree.build",
                "demand.respects_exact")

# Outcome counters: the share of calls whose result satisfies the predicate.
OUTCOMES = {
    "oracle.sparsest_cut": ("exact_share", lambda r: r[2]),
    "flow.route_from_cut": ("feasible_share", lambda r: r.feasible),
}

PHASES = ("build", "verify", "replay")


def span_names():
    names = []
    for mod, funcs in LAYERS.items():
        for fn in funcs:
            name = RENAME.get("%s.%s" % (mod, fn), "%s.%s" % (mod, fn))
            if name not in names:
                names.append(name)
    return names


class Tracer:
    """Collects spans for the calls made inside ``phase`` blocks."""

    def __init__(self):
        self.names = ["phase." + p for p in PHASES] + span_names()
        self._id = {n: i for i, n in enumerate(self.names)}
        self._rebound = []          # (module, attribute, original)
        # open frames: [name id, start, child seconds, span number]
        self._stack = []
        self._phase = None          # index of the open phase span's name
        # one entry per finished span; spans are numbered from 1 as they
        # open, and a root span's parent is 0
        self.span_id = array("L")
        self.span_parent = array("L")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self._opened = 0
        self.reset()

    def reset(self):
        """Zero the aggregates (spans already recorded are kept)."""
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.hits = [0] * k
        # self seconds per (phase, layer), for attributing each phase's time
        self.phase_self = {p: [0.0] * k for p in PHASES}

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None
                and (name == "treecut" or name.startswith("treecut."))]
        for mod, funcs in LAYERS.items():
            home = sys.modules["treecut." + mod]
            for fn in funcs:
                orig = getattr(home, fn)
                name = RENAME.get("%s.%s" % (mod, fn), "%s.%s" % (mod, fn))
                wrapper = self._wrap(name, orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._rebound.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._rebound):
            setattr(m, attr, orig)
        self._rebound = []

    def _wrap(self, name, orig):
        nid = self._id[name]
        outcome = OUTCOMES.get(name, (None, None))[1]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return orig(*args, **kwargs)
            self._opened += 1
            frame = [nid, clock(), 0.0, self._opened]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(frame, clock())
            if outcome is not None and outcome(result):
                self.hits[nid] += 1
            return result

        traced.__wrapped__ = orig
        return traced

    def _close(self, frame, end):
        stack = self._stack
        stack.pop()
        nid, start, child, number = frame
        dur = end - start
        own = dur - child
        if stack:
            stack[-1][2] += dur
        self.calls[nid] += 1
        self.self_s[nid] += own
        self.phase_self[PHASES[self._phase]][nid] += own
        self.span_id.append(number)
        self.span_parent.append(stack[-1][3] if stack else 0)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)

    @contextmanager
    def phase(self, phase):
        """Open the root span of one timed call."""
        if self._stack:
            raise RuntimeError("phase spans do not nest")
        self._phase = PHASES.index(phase)
        self._opened += 1
        frame = [self._phase, time.perf_counter(), 0.0, self._opened]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._close(frame, time.perf_counter())

    # -- results -----------------------------------------------------------

    def snapshot(self):
        """The aggregates since the last reset: per layer (calls, self
        seconds, outcome hits), the total self time, the number of
        build-layer calls, and per phase the layer with the most self time
        in it with its share of the phase (None if the phase never ran)."""
        top = {}
        for phase, own in self.phase_self.items():
            total = sum(own)
            i = max(range(len(own)), key=own.__getitem__)
            top[phase] = (self.names[i], own[i] / total) if total > 0 \
                else None
        return {"layers": {n: (self.calls[i], self.self_s[i], self.hits[i])
                           for i, n in enumerate(self.names)},
                "self_total": sum(self.self_s),
                "build_calls": sum(self.calls[self._id[n]]
                                   for n in BUILD_LAYERS),
                "top": top}

    def write_spans(self, path):
        """One line per span: its number, its parent's number (0 for a
        root), its name, and its start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for row in zip(self.span_id, self.span_parent, self.span_name,
                           self.span_start, self.span_end):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n"
                         % (row[0], row[1], self.names[row[2]], row[3],
                            row[4]))
