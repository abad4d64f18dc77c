"""The three values of the read side.

The quality envelope constant is what `QualityReport.within_envelope` and
the replay's envelope read, and the two sampling values are what
`treecut verify --samples/--seed` set.  The build reads no Config: the
constants the analysis fixes (the exact-enumeration threshold, the first
congestion cap and its limit, the refinement schedule coefficient c_phi,
the merge phi and shrink coefficients, the oracle's sparsity factor, the
routing constant c0, the leaf rate kappa, the replay's load growth and
improved-mode cap) live as module constants next to the one module that
reads each.  Every value is pinned so certificates are reproducible.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Config:
    # Quality envelope constant: measured quality must satisfy
    # alpha <= quality_C * (log2 n)^2 * max(1, log2 log2 n).
    quality_C: Fraction = Fraction(16)

    # Sampled verification defaults.
    samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        # the envelope and the report are exact: a float would turn the
        # envelope into a float, a bool would print as true in the report
        c = self.quality_C
        if type(c) not in (int, Fraction):
            raise ValueError("quality_C must be an int or a Fraction, got %r"
                             % (c,))
        # a quality_C <= 0 declares an envelope no tree can meet
        if c <= 0:
            raise ValueError("quality_C must be > 0, got %s" % c)
        # Random seeds from |seed|, so a negative seed would check the
        # cuts of its positive twin under its own name
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError("%s must be an int, got %r" % (name, value))
            if value < 0:
                raise ValueError("%s must be >= 0, got %s" % (name, value))


DEFAULT = Config()
