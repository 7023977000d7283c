import math
from fractions import Fraction

import numpy as np
import pytest

from hlmlab import obstruction
from hlmlab._phase import frac_dd, frac_half


@pytest.fixture(scope="module")
def a1_1e5():
    return obstruction.build("A1", 10**5, 0.1)


@pytest.fixture(scope="module")
def a2_1e5():
    return obstruction.build("A2", 10**5, 0.1)


def sqrt_fraction(n, digits=40):
    s = Fraction(math.isqrt(n * 10 ** (2 * digits)), 10**digits)
    for _ in range(4):
        s = (s + n / s) / 2
    return s


def test_dd_frac_against_rational_oracle():
    s2 = sqrt_fraction(2)
    for k in (10**6, 999999937, 4 * 10**12 + 12345):
        exact = float((k * s2 + Fraction(1, 2)) % 1 - Fraction(1, 2))
        got = float(frac_dd(np.array([k]), obstruction.SQRT2_HI, obstruction.SQRT2_LO,
                            frac_half)[0])
        assert abs(got - exact) < 1e-13


def test_membership_matches_definition(a1_1e5, rng):
    s2 = sqrt_fraction(2)
    for x in rng.integers(1, 10**5 + 1, size=100):
        phase = (int(x) ** 2 * s2 + Fraction(1, 2)) % 1 - Fraction(1, 2)
        expected = abs(phase) <= Fraction(1, 20)
        assert bool(a1_1e5.membership[x - 1]) == expected, x


def test_densities(a1_1e5, a2_1e5):
    assert a1_1e5.density == pytest.approx(0.1, abs=0.01)
    assert a2_1e5.density == pytest.approx(0.1, abs=0.02)
    for obset in (a1_1e5, a2_1e5):
        assert obset.alpha / 2 <= obset.density <= 2 * obset.alpha


def test_build_validation():
    with pytest.raises(ValueError):
        obstruction.build("A1", 10**4, 0.0)
    with pytest.raises(ValueError):
        obstruction.build("A1", 10**4, 0.3)
    with pytest.raises(ValueError):
        obstruction.build("A1", 100, 0.1)
    with pytest.raises(ValueError):
        obstruction.build("A9", 10**4, 0.1)


def test_linear_bias_small_for_obstruction_sets(a1_1e5, a2_1e5):
    assert obstruction.linear_bias(a1_1e5) <= 0.01
    assert obstruction.linear_bias(a2_1e5) <= 0.02


def test_linear_bias_control_evens():
    n = np.arange(1, 10**4 + 1)
    evens = obstruction.ObstructionSet("evens", 10**4, 0.5, n % 2 == 0, 0.5)
    assert obstruction.linear_bias(evens) == pytest.approx(0.5, abs=1e-6)


def test_a1_contrast(a1_1e5):
    s3 = obstruction.ap_stats(a1_1e5, 3)
    s4 = obstruction.ap_stats(a1_1e5, 4)
    assert 0.7 <= s3["ratio"] <= 1.4  # 3-APs look random
    assert s4["ratio"] >= 2.0  # 4-APs are enhanced


def test_a2_enhancement(a2_1e5):
    # measured ~1.66 at alpha=0.1; the enhancement constant grows as alpha
    # shrinks (2.65 at alpha=0.05), so the frozen floors differ per alpha
    assert obstruction.ap_stats(a2_1e5, 4)["ratio"] >= 1.5
    small_alpha = obstruction.build("A2", 10**5, 0.05)
    assert obstruction.ap_stats(small_alpha, 4)["ratio"] >= 2.0


def test_full_set_ratio_is_one():
    N = 10**4
    full = obstruction.ObstructionSet("full", N, 0.25, np.ones(N, dtype=bool), 1.0)
    assert obstruction.ap_stats(full, 3)["ratio"] == pytest.approx(1.0)
    assert obstruction.ap_stats(full, 4)["ratio"] == pytest.approx(1.0)


def test_completion_probability(a1_1e5):
    cp = obstruction.completion_probability(a1_1e5)
    assert 0.2 <= cp <= 0.4  # against 8/27 ~ 0.296
    small_n = obstruction.build("A1", 10**4, 0.1)
    assert abs(obstruction.completion_probability(small_n) - cp) <= 0.05
    small_alpha = obstruction.build("A1", 10**5, 0.05)
    assert 0.2 <= obstruction.completion_probability(small_alpha) <= 0.4


def test_completion_bernoulli_control():
    ctrl = obstruction.random_control_set(10**5, 0.1, seed=5)
    cp = obstruction.completion_probability(ctrl)
    assert cp == pytest.approx(0.1, abs=0.03)


def test_completion_insufficient_sample():
    sparse = obstruction.ObstructionSet(
        "sparse", 2000, 0.002, np.zeros(2000, dtype=bool), 0.0
    )
    with pytest.raises(ValueError, match="conditioning"):
        obstruction.completion_probability(sparse)


def test_constraint_identity():
    # spot values: 1 - 12 + 27 - 16 and 0 - 75 + 300 - 225
    assert 1 - 3 * 2**2 + 3 * 3**2 - 4**2 == 0
    assert 0 - 3 * 25 + 3 * 100 - 225 == 0
    assert obstruction.check_constraint_identity(1000, 1000)
    assert obstruction.check_constraint_identity(0, 0)
    assert obstruction.check_constraint_identity(2, 3 * obstruction._BLOCK)  # rows past a block


def test_constraint_identity_works_in_blocks(traced_peak):
    # the whole 1001 x 1001 int64 grid and its temporaries traced 15.4 MiB;
    # blocks of at most 2^16 cells trace 1.6 MiB
    assert traced_peak(lambda: obstruction.check_constraint_identity(1000, 1000)) < 2 << 20


def test_build_matches_whole_array_phases():
    # N spans two whole blocks and part of a third
    N, alpha = 2 * obstruction._BLOCK + 5, 0.1
    x = np.arange(1, N + 1, dtype=np.int64)
    inner = frac_dd(x, obstruction.SQRT3_HI, obstruction.SQRT3_LO, frac_half)
    phases = {"A1": frac_dd(x * x, obstruction.SQRT2_HI, obstruction.SQRT2_LO, frac_half),
              "A2": frac_dd(x * inner, obstruction.SQRT2_HI, obstruction.SQRT2_LO, frac_half)}
    for kind, phase in phases.items():
        got = obstruction.build(kind, N, alpha)
        assert np.array_equal(got.membership, np.abs(phase) <= alpha / 2.0), kind


def test_build_holds_its_membership_and_one_block(traced_peak):
    # beside the N-byte membership, a block's phases take about eight
    # float64 temporaries of _BLOCK (4.1 MiB for A1, 4.6 MiB for A2 at
    # N = 10^5); whole-array phases traced 6.1 MiB and 6.9 MiB
    N = 10**5
    for kind in ("A1", "A2"):
        peak = traced_peak(lambda: obstruction.build(kind, N, 0.1))
        assert peak <= N + 10 * 8 * obstruction._BLOCK, kind


def test_stats_report_schema(a1_1e5):
    report = obstruction.stats_report(a1_1e5)
    for key in ("kind", "N", "alpha", "density", "bias", "ap3", "ap4",
                "ratios", "completion_prob"):
        assert key in report
    assert report["kind"] == "A1"
