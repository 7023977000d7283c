"""Phases mod 1: the two fractional-part conventions and one exact kernel.

frac01 reduces into [0, 1) and frac_half into (-1/2, 1/2]; nearest_int
is [t] = t - {t}, the nearest integer with half-integers rounding down.

frac_dd multiplies a float64 array k by a double-double constant
hi + lo and reduces mod 1 without forming the huge product in one
double: Dekker's two_prod (Numer. Math. 18, 1971) splits k * hi into
p + e exactly, p mod 1 is exact, and only the small terms e + k * lo
round. For integer-valued k (an integer exactly stored in a double) the
result is within a few units of 2^-53 of k * (hi + lo) mod 1 while
|k * hi| stays below about 2^53, with no extended-precision type.
"""

import numpy as np

_SPLIT = 2.0**27 + 1.0
EXACT_LIMIT = 2.0**53  # every integer below this is exact in a double


def frac01(t):
    """Fractional part in [0, 1) (array-friendly)."""
    r = t - np.floor(t)
    # a tiny negative t rounds t + 1 up to 1.0, which is 0 mod 1
    return r - (r >= 1.0)


def frac_half(t):
    """Signed fractional part {t} in (-1/2, 1/2] (array-friendly)."""
    return t - nearest_int(t)


def nearest_int(t):
    """[t] = t - {t}: nearest integer, half-integers rounding down."""
    n = np.ceil(t - 0.5)
    # t - 0.5 rounds for 2^52 <= |t| < 2^53, so an odd t there gives t - 1
    return n + (t - n > 0.5)


def two_prod(a, b):
    """p + e = a*b exactly (Dekker split, no fma needed)."""
    p = a * b
    aa = a * _SPLIT
    ahi = aa - (aa - a)
    alo = a - ahi
    bb = b * _SPLIT
    bhi = bb - (bb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def frac_dd(k, hi: float, lo: float = 0.0, reduce=frac01):
    """reduce(k * (hi + lo) mod 1) for a float64 array k.

    hi + lo is a double-double constant (lo = 0 for a plain double).
    The error is about 1e-16 for integer-valued k while |k * hi| stays
    below ~1e15. |k| >= 2^53 raises ValueError: such a k cannot be the
    exact integer the caller meant. reduce picks the convention, frac01
    or frac_half.
    """
    k = np.asarray(k, dtype=np.float64)
    top = max(k.max(), -k.min()) if k.size else 0.0
    if top >= EXACT_LIMIT:
        raise ValueError(f"|k| = {top:.17g} reaches 2^53: not an exact integer")
    p, e = two_prod(k, hi)
    return reduce((p % 1.0) + (e + k * lo))
