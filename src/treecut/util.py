"""Small shared helpers: rational logs, ceilings, deterministic formatting,
'#'-commented data lines."""

import math
from fractions import Fraction

import numpy as np

# Precision (in bits after the point) for rational surrogates of log2.
_LOG_BITS = 24


def rlog2(x) -> Fraction:
    """Deterministic rational surrogate for log2(x), rounded to 2^-24.

    Used wherever the constructions need a log2 value inside exact rational
    arithmetic (thresholds, schedules, envelopes).  The surrogate is fixed
    once, so every consumer sees the same value and certificates stay
    reproducible.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("rlog2 requires a positive argument")
    v = math.log2(x.numerator) - math.log2(x.denominator)
    return Fraction(round(v * (1 << _LOG_BITS)), 1 << _LOG_BITS)


def rloglog2(n) -> Fraction:
    """log2(log2(n)) clamped below at 1, as a rational surrogate."""
    l = rlog2(n)
    if l <= 1:
        return Fraction(1)
    return max(Fraction(1), rlog2(l))


def ceil_frac(x) -> int:
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def frac_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_frac(s: str) -> Fraction:
    """A rational literal such as `3`, `-2/5` or `0.25`; a zero denominator
    is a ValueError like any other malformed literal."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


def data_lines(lines):
    """(line number from 1, text) of each line that holds anything besides
    a '#' comment and blanks, with the comment and the outer blanks cut."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def int_dtype(bound):
    """numpy dtype for exact integer arrays whose values, sums included,
    stay within bound: int64 below 2^62, Python ints (object) from there."""
    return np.int64 if bound < 1 << 62 else object
