"""Configuration for every tunable constant in the pipeline.

All the construction-side constants the analysis leaves implicit are pinned
here so certificates are reproducible and the verifier can report
measured-vs-declared values.
"""

import dataclasses
from dataclasses import dataclass, fields
from fractions import Fraction

from .util import parse_frac


@dataclass(frozen=True)
class Config:
    # Exact cut enumeration is used up to this many vertices; above it the
    # sparsest-cut backend falls back to spectral sweeps and certificates are
    # reported as sampled rather than exact.
    brute_threshold: int = 18

    # Oracle: peel while the sparsest-cut ratio is below
    # oracle_sparsity_c * phi * log2(n).
    oracle_sparsity_c: Fraction = Fraction(1)
    # Edge congestion cap for every routing flow the build records (merge
    # attachments and refinement cuts).  flow.escalate walks the whole
    # order for a flow infeasible at this cap: the cap doubles up to
    # oracle_congestion_limit, then the sink caps are boosted, doubling up
    # to 64 times; attachment flows are never boosted.  The record keeps
    # the constants reached and whether the declared ones sufficed.
    oracle_congestion_cap: Fraction = Fraction(4)
    oracle_congestion_limit: Fraction = Fraction(64)

    # Balanced clustering: oracle called at phi = merge_phi_coeff / log2(n);
    # with the peeling balance guarantees this makes every accepted separator
    # at most 1/2-sparse, so each shrink multiplies the inter-cluster edge
    # capacity by at most (1 - merge_shrink_coeff / log2(n)).
    merge_phi_coeff: Fraction = Fraction(1, 6)
    merge_shrink_coeff: Fraction = Fraction(1, 8)
    merge_loop_slack: int = 16

    # Basic mode boundary weight; None means 1/log2(n) (rational surrogate).
    tau_basic: Fraction | None = None

    # Refinement schedule.  c_phi is the largest coefficient compatible with
    # both sparsity requirements of the schedule (aggregate peel cuts are at
    # most 3*c_phi/f(S)-sparse and the three-way branch needs 1/(16 f(S))).
    c_phi: Fraction = Fraction(1, 48)
    # Declared routing constant c0; the verifier asserts measured <= declared.
    c0_declared: Fraction = Fraction(1)
    # Boundary all-to-all respect rate for refinement leaves: kappa/(f*log n).
    kappa: Fraction = Fraction(1, 384)
    # Per-cluster load cap asserted after the improved-mode uniformization and
    # boundary routing reset.
    alpha_improved_cap: Fraction = Fraction(8)

    # Load growth per merge replay: alpha' = alpha * (1 + replay_tau_c * tau).
    replay_tau_c: int = 6

    # Quality envelope constant: measured quality must satisfy
    # alpha <= quality_C * (log2 n)^2 * max(1, log2 log2 n).
    quality_C: Fraction = Fraction(16)

    # Sampled verification defaults.
    samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        # a zero cap would make the congestion escalation double 0 forever;
        # a zero merge or schedule coefficient makes an oracle phi 0 or
        # divides by 0, a zero kappa makes every leaf-certificate target 0,
        # an alpha_improved_cap or quality_C <= 0 declares a cap or an
        # envelope no tree can meet, and a negative replay_tau_c lowers the
        # load factor a merge grants (to 0 at tau = 1)
        for name in ("oracle_sparsity_c", "oracle_congestion_cap",
                     "oracle_congestion_limit", "merge_phi_coeff",
                     "merge_shrink_coeff", "c_phi", "c0_declared", "kappa",
                     "alpha_improved_cap", "quality_C"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError("%s must be > 0, got %s" % (name, value))
        for name in ("merge_loop_slack", "replay_tau_c"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError("%s must be >= 0, got %s" % (name, value))
        if self.tau_basic is not None and not 0 < self.tau_basic <= 1:
            raise ValueError("tau_basic must be None or in (0, 1], got %s"
                             % self.tau_basic)
        if self.samples < 0:
            raise ValueError("samples must be >= 0, got %s" % self.samples)

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


def load_config(path: str) -> Config:
    """Read key=value lines ('#' comments); values parsed as rationals/ints."""
    kw = {}
    ftypes = {f.name: f.type for f in fields(Config)}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in ftypes:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            if ftypes[key] is int:
                kw[key] = int(val)
            elif key == "tau_basic":
                kw[key] = None if val.lower() == "none" else parse_frac(val)
            else:
                kw[key] = parse_frac(val)
    return Config(**kw)


DEFAULT = Config()
