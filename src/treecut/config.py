"""The six settable values of the pipeline.

Three reach code paths a default build at small sizes never takes: the
exact-enumeration threshold, the first congestion cap of the escalation
ladder, and the refinement schedule coefficient c_phi (off the paper's
schedule when changed; `treecut build` says so).  The quality envelope
constant is what `QualityReport.within_envelope` reads, and the two
sampling values are what `treecut verify` sets.  The constants the
analysis fixes (the merge phi and shrink coefficients, the oracle's
sparsity factor and congestion limit, the routing constant c0, the leaf
rate kappa, the replay's load growth and improved-mode cap) live as
module constants next to the one module that reads each.  Every value is
pinned so certificates are reproducible.
"""

import dataclasses
from dataclasses import dataclass, fields
from fractions import Fraction

from .util import data_lines, parse_frac

# Exhaustive verification keeps two ints for each of its 2^(n-1) - 1 cuts
# and no frozenset; its time and memory double with each vertex, to about
# 2.5 s and 128 MiB at this limit (n = 24, 2 vCPUs).  Exact cut enumeration
# up to brute_threshold vertices first tables 2^(n - 13) sides of n + 2
# ints each (graph._min_ratio_side), so the same limit bounds it.
EXHAUSTIVE_LIMIT = 24


@dataclass(frozen=True)
class Config:
    # Exact cut enumeration is used up to this many vertices; above it the
    # sparsest-cut backend falls back to spectral sweeps and certificates are
    # reported as sampled rather than exact.
    brute_threshold: int = 18

    # First edge congestion cap for every routing flow the build records
    # (merge attachments and refinement cuts); flow.escalate doubles it up
    # to its fixed limit, then boosts the sink caps.
    oracle_congestion_cap: Fraction = Fraction(4)

    # Refinement schedule.  c_phi is the largest coefficient compatible with
    # both sparsity requirements of the schedule (aggregate peel cuts are at
    # most 3*c_phi/f(S)-sparse and the three-way branch needs 1/(16 f(S))).
    c_phi: Fraction = Fraction(1, 48)

    # Quality envelope constant: measured quality must satisfy
    # alpha <= quality_C * (log2 n)^2 * max(1, log2 log2 n).
    quality_C: Fraction = Fraction(16)

    # Sampled verification defaults.
    samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        # a zero cap would make the congestion escalation double 0 forever,
        # a zero c_phi makes every refinement phi 0, and a quality_C <= 0
        # declares an envelope no tree can meet
        for name in ("oracle_congestion_cap", "c_phi", "quality_C"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError("%s must be > 0, got %s" % (name, value))
        # Random seeds from |seed|, so a negative seed would check the
        # cuts of its positive twin under its own name
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError("%s must be >= 0, got %s" % (name, value))
        if not 0 <= self.brute_threshold <= EXHAUSTIVE_LIMIT:
            raise ValueError("brute_threshold must be in [0, %d], got %s"
                             % (EXHAUSTIVE_LIMIT, self.brute_threshold))

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


def load_config(path: str) -> Config:
    """Read key=value lines ('#' comments); values parsed as rationals/ints."""
    kw = {}
    ftypes = {f.name: f.type for f in fields(Config)}
    with open(path) as fh:
        for lineno, line in data_lines(fh):
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in ftypes:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            kw[key] = int(val) if ftypes[key] is int else parse_frac(val)
    return Config(**kw)


DEFAULT = Config()
