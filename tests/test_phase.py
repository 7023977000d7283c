import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hlmlab._phase import frac01, frac_dd, frac_half, nearest_int


def circle_gap(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@settings(max_examples=500, deadline=None)
@given(
    data=st.data(),
    hi=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    lo_ulps=st.floats(-0.5, 0.5),
    half=st.booleans(),
)
def test_frac_dd_matches_fraction(data, hi, lo_ulps, half):
    # a normalized double-double constant: |lo| <= ulp(hi) / 2
    lo = lo_ulps * math.ulp(hi)
    k_max = min(2**53 - 1, int(1e15 / max(abs(hi), 0.1)))
    k = data.draw(st.integers(-k_max, k_max))
    reduce = frac_half if half else frac01
    got = float(frac_dd(np.array([k], dtype=np.float64), hi, lo, reduce)[0])
    exact = k * (Fraction(hi) + Fraction(lo))
    if half:
        want = exact - math.ceil(exact - Fraction(1, 2))
        assert -0.5 <= got <= 0.5
    else:
        want = exact % 1
        assert 0.0 <= got <= 1.0
    assert circle_gap(got, float(want)) <= 1e-15


@settings(max_examples=1000, deadline=None)
@given(t=st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e-15, 0.0)))
@example(t=-1e-17)
@example(t=2.0**52 + 1)
@example(t=-(2.0**52 + 1))
def test_fractional_parts_stay_in_their_ranges(t):
    for got in (frac01(t), frac01(np.array([t]))[0]):
        assert isinstance(got, np.float64) and 0.0 <= got < 1.0
    for got in (frac_half(t), frac_half(np.array([t]))[0]):
        assert isinstance(got, np.float64) and -0.5 < got <= 0.5
    for n in (nearest_int(t), nearest_int(np.array([t]))[0]):
        assert isinstance(n, np.float64) and n == math.floor(n)
        assert -0.5 < Fraction(t) - Fraction(n) <= 0.5  # exact, no rounding


@pytest.mark.parametrize("k", [2.0**53, -(2.0**53), 2.0**60])
def test_frac_dd_refuses_inexact_integers(k):
    with pytest.raises(ValueError, match="2\\^53"):
        frac_dd(np.array([1.0, k]), 0.5)
    with pytest.raises(ValueError, match="2\\^53"):
        frac_dd(np.array([int(k)], dtype=np.int64), 0.5)


def test_frac_dd_accepts_the_largest_exact_integer():
    k = 2**53 - 1
    got = float(frac_dd(np.array([k], dtype=np.int64), 0.25, reduce=frac_half)[0])
    assert got == float((Fraction(k, 4) + Fraction(1, 2)) % 1 - Fraction(1, 2))
