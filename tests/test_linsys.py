import math
import os
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from hlmlab import linsys

ROOT = Path(__file__).resolve().parents[1]
PRIMES_TO_100 = [p for p in range(2, 101) if all(p % q for q in range(2, p))]


def alpha_by_full_enumeration(rows, p):
    """Independent oracle: walk all of F_p^t, no linear algebra."""
    t = len(rows[0])
    sols = nz = 0
    for x in product(range(p), repeat=t):
        if all(sum(a * xi for a, xi in zip(r, x)) % p == 0 for r in rows):
            sols += 1
            nz += all(xi != 0 for xi in x)
    return Fraction(nz, sols) / (Fraction(p - 1, p) ** t)


def test_new_system_accepts_ap_matrices():
    assert linsys.new_system([[1, -2, 1]]).t == 3
    sys4 = linsys.new_system([[1, -2, 1, 0], [0, 1, -2, 1]])
    assert (sys4.s, sys4.t) == (2, 4)
    assert linsys.ap_system(5).s == 3


def test_new_system_rejections():
    with pytest.raises(linsys.DegenerateSystem, match="rank deficient"):
        linsys.new_system([[1, -2, 1], [2, -4, 2]])
    with pytest.raises(linsys.DegenerateSystem, match=r"columns \{0,1\}"):
        linsys.new_system([[1, -1, 0, 0], [0, 0, 1, -1]])
    with pytest.raises(linsys.DegenerateSystem, match="t >= s\\+2"):
        linsys.new_system([[1, 0, 1], [0, 1, 1]])


def test_parse_system():
    sys4 = linsys.parse_system("1,-2,1,0;0,1,-2,1")
    assert sys4.rows() == [[1, -2, 1, 0], [0, 1, -2, 1]]
    assert sys4.describe() == "1,-2,1,0;0,1,-2,1"


def test_local_factor_spec_values():
    assert linsys.local_factor(linsys.new_system([[1, 9, -27]]), 3) == 0
    assert linsys.local_factor(linsys.AP3, 3) == Fraction(3, 4)
    assert linsys.local_factor(linsys.AP4, 5) == Fraction(25, 32)
    # at p=3 only d=0 survives: 2 of the 9 null-space points, and
    # (2/9) / ((2/3)^4) = 9/8; brute force over F_3^4 agrees
    assert linsys.local_factor(linsys.AP4, 3) == Fraction(9, 8)
    assert linsys.local_factor(linsys.AP3, 2) == 2
    assert linsys.local_factor(linsys.AP4, 2) == 4


def test_local_factor_routes_and_closed_forms():
    for p in PRIMES_TO_100:
        e3 = linsys.local_factor(linsys.AP3, p, "enumerate")
        r3 = linsys.local_factor(linsys.AP3, p, "rank")
        e4 = linsys.local_factor(linsys.AP4, p, "enumerate")
        r4 = linsys.local_factor(linsys.AP4, p, "rank")
        assert e3 == r3 and e4 == r4
        if p >= 3:
            assert e3 == 1 - Fraction(1, (p - 1) ** 2)
        if p >= 5:
            assert e4 == 1 - Fraction(3 * p - 1, (p - 1) ** 3)


def test_local_factor_against_full_enumeration_oracle():
    balog = linsys.new_system([[1, 1, -2]])
    for p in (2, 3, 5, 7):
        assert linsys.local_factor(linsys.AP4, p) == alpha_by_full_enumeration(
            linsys.AP4.rows(), p
        )
        assert linsys.local_factor(balog, p) == alpha_by_full_enumeration(
            balog.rows(), p
        )


def test_local_factor_validation():
    with pytest.raises(ValueError, match="not prime"):
        linsys.local_factor(linsys.AP3, 4)
    with pytest.raises(linsys.EnumerationTooLarge):
        linsys.local_factor(linsys.AP3, 4001, "enumerate")
    # the default rank route has no cap
    assert linsys.local_factor(linsys.AP3, 4001) == 1 - Fraction(1, 4000**2)
    with pytest.raises(ValueError, match="unknown method"):
        linsys.local_factor(linsys.AP3, 5, "auto")


def test_enumerate_route_walks_the_null_space_in_blocks(traced_peak):
    # p^2 = 1,018,081 points of the AP3 null space at p = 1009
    got = []
    peak = traced_peak(lambda: got.append(linsys.local_factor(linsys.AP3, 1009, "enumerate")))
    assert peak < 8 * 2**20
    assert got == [linsys.local_factor(linsys.AP3, 1009, "rank")]
    grid = np.indices((3,) * 4).reshape(4, -1)
    assert np.array_equal(linsys._digits(5, 40, 3, 4), grid[:, 5:40])


def test_row_scaling_invariance_for_coprime_primes():
    scaled = linsys.new_system([[7, -14, 7]])
    for p in [q for q in PRIMES_TO_100 if q <= 50]:
        assert linsys.local_factor(scaled, p) == linsys.local_factor(linsys.AP3, p)
    for method in ("rank", "enumerate"):
        assert linsys.local_factor(scaled, 7, method) == Fraction(35, 36)
    scaled4 = linsys.new_system([[1, -2, 1, 0], [0, -3, 6, -3]])  # row2 x -3
    for p in (2, 3, 5, 7, 11, 47):
        assert linsys.local_factor(scaled4, p) == linsys.local_factor(linsys.AP4, p)
    lattice = linsys.parse_system("1,-1,1,1;-3,1,3,1")
    for method in ("rank", "enumerate"):
        with pytest.raises(linsys.DegenerateSystem, match="non-saturated"):
            linsys.local_factor(lattice, 2, method)


def test_primitive_system():
    assert linsys.primitive_system(linsys.new_system([[7, -14, 7]])) == linsys.AP3
    scaled4 = linsys.new_system([[2, -4, 2, 0], [0, -3, 6, -3]])
    assert linsys.primitive_system(scaled4).entries == ((1, -2, 1, 0), (0, -1, 2, -1))
    scaled = linsys.new_system([[4 * 10**15, 4 * 10**15, -8 * 10**15]])
    balog = linsys.new_system([[1, 1, -2]])
    got, want = linsys.singular_series(scaled, 1000), linsys.singular_series(balog, 1000)
    assert got.local_factors == want.local_factors
    assert got.truncated_product == want.truncated_product
    # rows 1,-1,1,1 and -3,1,3,1 span half of their saturation, which
    # -1,0,2,1 = (row 1 + row 2) / 2 and -3,1,3,1 span: the same integer solutions
    lattice = linsys.parse_system("1,-1,1,1;-3,1,3,1")
    with pytest.raises(linsys.DegenerateSystem, match="non-saturated"):
        linsys.singular_series(lattice, 1000)
    saturated = linsys.parse_system("-1,0,2,1;-3,1,3,1")
    assert linsys.primitive_system(saturated) == saturated


def test_alpha_envelope_near_one():
    primes_1k = [p for p in range(3, 1001) if all(p % q for q in range(2, int(p**0.5) + 1))]
    for system in (linsys.AP3, linsys.AP4):
        fit = max(
            abs(float(linsys.local_factor(system, p)) - 1.0) * p * p
            for p in primes_1k
            if p <= 97
        )
        for p in primes_1k:
            if p > 97:
                assert abs(float(linsys.local_factor(system, p)) - 1.0) <= fit / p**2


def test_closed_form_constants():
    s3 = linsys.closed_form_S3(10**6)
    s4 = linsys.closed_form_S4(10**6)
    assert abs(s3 - 0.3301) <= 2e-4
    assert abs(s4 - 0.4764) <= 2e-4
    assert abs(linsys.closed_form_S3(10**3) - s3) <= 1e-3
    with pytest.raises(ValueError):
        linsys.closed_form_S3(100)


def test_singular_series_refuses_p0_below_2():
    for P0 in (-5, 0, 1):
        with pytest.raises(ValueError, match=f"P0 = {P0}"):
            linsys.singular_series(linsys.AP3, P0)
    assert list(linsys.singular_series(linsys.AP3, 2).local_factors) == [2]


def test_singular_series_ap3_value():
    series = linsys.singular_series(linsys.AP3, 10**6)
    assert abs(series.truncated_product - 1.3203) <= 5e-4
    assert series.truncated_product == pytest.approx(
        4 * linsys.closed_form_S3(10**6), rel=1e-9
    )
    assert series.tail_estimate < 1e-6


def test_singular_series_ap4_tracks_closed_form():
    series = linsys.singular_series(linsys.AP4, 10**4)
    assert series.truncated_product == pytest.approx(
        6 * linsys.closed_form_S4(10**4), rel=1e-9
    )
    assert all(a >= 0 for a in series.local_factors.values())


def whole_array_tail(system, P0):
    """singular_series' tail estimate with |log alpha_p| and its cumsum
    taken over every tail prime at once."""
    system = linsys.primitive_system(system)
    patterns = linsys._zero_pattern_ranks(system)
    primes = np.flatnonzero(linsys.prime_sieve(10 * P0))
    tail_primes = primes[primes > P0]
    csum = np.cumsum(np.abs(np.log(linsys._alpha_float(patterns, system, tail_primes))))
    marks = linsys._tail_marks(tail_primes.size)
    _, intercept = np.polyfit(1.0 / tail_primes[marks].astype(float), csum[marks], 1)
    return float(max(intercept, csum[-1]))


@pytest.mark.parametrize("block", [None, 1000])
def test_blocked_tail_is_the_whole_array_tail(block, monkeypatch):
    # 10^5 and 2*10^5 have 68,906 and 130,949 tail primes, two blocks of
    # 2^16 each, the second a short one; blocks of 1000 cut them 69 and
    # 131 times
    if block:
        monkeypatch.setattr(linsys, "_TAIL_BLOCK", block)
    for system, P0 in ((linsys.AP3, 10**5), (linsys.AP4, 2 * 10**5),
                       (linsys.new_system([[1, 1, -2]]), 2 * 10**5)):
        got = linsys.singular_series(system, P0).tail_estimate
        assert got.hex() == whole_array_tail(system, P0).hex(), (system, P0)


def test_tail_marks_are_the_distinct_sorted_marks():
    for size in range(4, 201):
        want = np.unique(np.linspace(size // 4, size - 1, 8).astype(int))
        np.testing.assert_array_equal(linsys._tail_marks(size), want)


def test_singular_series_leaves_numpy_ma_unimported():
    # np.unique's first call imports numpy.ma (about 1 MB); the tail fit needs none of it
    code = ("import sys; from hlmlab import linsys; "
            "linsys.singular_series(linsys.ap_system(3), 1000); "
            "assert 'numpy.ma' not in sys.modules")
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_singular_series_vanishing():
    series = linsys.singular_series(linsys.new_system([[1, 9, -27]]), 10**3)
    assert series.truncated_product == 0.0
    assert series.local_factors[3] == 0


def test_bareiss_rank_exactness():
    assert linsys._bareiss([[1, -2, 1]])[0] == 1
    assert linsys._bareiss([[1, -2, 1], [2, -4, 2]])[0] == 1
    assert linsys._bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]])[0] == 3
    # large entries stay exact under fraction-free elimination
    big = [[10**12, 1, 0], [0, 10**12, 1]]
    assert linsys._bareiss(big)[0] == 2


def leibniz_det(m):
    """sum over permutations s of sign(s) * prod_i m[i][s(i)], term by term."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def minor_rank(m):
    """The largest r with a nonzero r x r minor, each minor by leibniz_det."""
    nr, nc = len(m), len(m[0])
    for r in range(min(nr, nc), 0, -1):
        if any(leibniz_det([[m[i][j] for j in cols] for i in rows])
               for rows in combinations(range(nr), r) for cols in combinations(range(nc), r)):
            return r
    return 0


def random_int_matrix(rng, nr, nc, case):
    """Small entries, a zero leading pivot, dependent rows, or entries near 2^62."""
    if case == "near_2^62":
        m = [[int(rng.choice([-1, 1])) * (2**62 - int(rng.integers(0, 8))) for _ in range(nc)]
             for _ in range(nr)]
    else:
        m = [[int(v) for v in rng.integers(-4, 5, nc)] for _ in range(nr)]
    if case == "zero_pivot":
        for row in m[: nr - 1]:
            row[0] = 0
    if case == "singular":
        m[-1] = [2 * a - 3 * b for a, b in zip(m[0], m[-2])] if nr > 1 else [0] * nc
    return m


def test_bareiss_matches_leibniz_and_minor_rank():
    assert linsys._bareiss([]) == (0, 1)  # the 0 x 0 matrix
    rng = np.random.default_rng(31)
    cases = ("small", "zero_pivot", "singular", "near_2^62")
    for n in range(1, 5):
        for case in cases:
            for _ in range(25):
                m = random_int_matrix(rng, n, n, case)
                det = leibniz_det(m)
                assert linsys._bareiss(m) == (minor_rank(m), det), m
                if case == "singular":
                    assert det == 0
    for nr, nc in ((1, 3), (2, 1), (2, 4), (3, 2), (3, 5), (4, 3)):
        for case in cases:
            for _ in range(10):
                m = random_int_matrix(rng, nr, nc, case)
                assert linsys._bareiss(m) == (minor_rank(m), 0), m
