"""Acceptance criteria A1-A11, one test each, with a printed verdict line.

Item A4 itself reports FAIL, and stays that way: its ratio clauses divide
the exact prime AP counts at N = 10^5 by the crude main terms
S_k N^2 / log^k N, which leave out the secondary log-correction (see the
"Known red" section of the README), so its ratios sit at 1.32 and 1.44,
above the stated [0.75, 1.3] bracket. test_a4_ratio_gate does not assert
that verdict either way. It checks that the verdict follows A4's own rule
from the values A4 reports, that A4's counts agree with two independent
counts, and that those counts sit inside the same [0.75, 1.3] bracket
once divided by the Hardy-Littlewood prediction in its finite-N,
log-weighted form. A4's exact small counts are tested in
test_a4_small_counts. Every other item passes.
"""

import math

import numpy as np

from hlmlab import acceptance, arith, counting, fourier, linsys


def _run(tab, cid):
    entry = next(c for c in acceptance.CRITERIA if c[0] == cid)
    passed, measured = entry[3](tab)
    res = acceptance.CriterionResult(cid, entry[1], passed, measured)
    print(res.line())
    return res


def test_a1_singular_constants(table_1e6):
    assert _run(table_1e6, "A1").passed


def test_a2_local_factor_oracle(table_1e6):
    assert _run(table_1e6, "A2").passed


def test_a3_weighted_3ap(table_1e6):
    assert _run(table_1e6, "A3").passed


def test_a4_small_counts(table_1e6):
    tab = table_1e6
    assert counting.count_ap_primes(tab, 20, 3) == 5
    assert counting.count_ap_primes(tab, 10, 3) == 1
    assert counting.count_ap_primes(tab, 23, 4) == 1
    assert counting.count_ap_primes(tab, 20, 4) == 0
    print("PASS A4 (exact small counts)")


def _even_self_conv(f):
    """conv[2m] = sum_{a+b=2m} f(a) f(b) for 2m <= 2N, by real FFT."""
    N = f.size - 1
    L = 1 << (2 * N + 1).bit_length()
    fa = np.fft.rfft(f, L)
    return np.fft.irfft(fa * fa, L)[0 : 2 * N + 1 : 2]


def _fft_3ap_count(is_prime, N):
    """Increasing 3-APs of primes in [1, N], by self-convolution.

    With f the odd-prime indicator, conv[2m] counts ordered pairs (a, b)
    of odd primes with a + b = 2m; the pair a = b is the trivial AP.
    """
    f = is_prime[: N + 1].astype(np.float64)
    f[2] = 0.0  # 2 starts no 3-AP: its later terms would be even
    conv = _even_self_conv(f)
    exact = np.rint(conv)
    margin = float(np.abs(conv - exact).max())
    assert margin < 0.25, f"FFT rounding margin {margin} too large to round"
    return (int(np.dot(f, exact)) - int(f.sum())) // 2


def _and_4ap_count(is_prime, N):
    """Increasing 4-APs of primes in [1, N], by whole-array ANDs.

    Such an AP starts at p1 >= 5 and has 6 | d: an odd d gives an even
    term, and d prime to 3 puts a multiple of 3 above 3 among three terms.
    """
    total = 0
    for d in range(6, (N - 5) // 3 + 1, 6):
        top = N - 3 * d + 1
        hit = is_prime[5:top] & is_prime[5 + d : top + d]
        hit &= is_prime[5 + 2 * d : top + 2 * d]
        hit &= is_prime[5 + 3 * d : top + 3 * d]
        total += int(hit.sum())
    return total


def test_a4_ratio_gate(table_1e6):
    N = 10**5
    res = _run(table_1e6, "A4")
    m = res.measured
    c3, c4 = m["count3_1e5"], m["count4_1e5"]

    # the gate's verdict follows its own rule from the values it reports
    for k, c in ((3, c3), (4, c4)):
        crude = c / counting.prediction(k, N)
        assert math.isclose(m[f"ratio{k}"], crude, rel_tol=1e-12), (
            f"A4 reports ratio{k}={m[f'ratio{k}']!r}, but its count over "
            f"the crude main term is {crude!r}"
        )
    rule = (
        m["small_counts_ok"]
        and 0.75 <= m["ratio3"] <= 1.3
        and 0.75 <= m["ratio4"] <= 1.3
    )
    assert res.passed == rule, (
        f"A4 reports passed={res.passed}, but its own rule on its reported "
        f"values gives {rule} (the item is expected to report FAIL)"
    )

    # the counts agree with two independent counts on the same sieve
    isp = table_1e6.is_prime
    assert c3 == _fft_3ap_count(isp, N), "A4's 3-AP count disagrees with the FFT count"
    assert c4 == _and_4ap_count(isp, N), "A4's 4-AP count disagrees with the AND-loop count"

    # the counts sit in the bracket once the prediction keeps its log weights:
    # C_k = S(AP_k), the singular series of the k-AP system
    C3 = 4.0 * linsys.closed_form_S3(10**6)
    C4 = 6.0 * linsys.closed_form_S4(10**6)
    r3 = c3 / (C3 * counting.log_weight_sum(N, 3))
    r4 = c4 / (C4 * counting.log_weight_sum(N, 4))
    print(f"A4 counts over the log-weighted prediction: ratio3={r3:.4f} ratio4={r4:.4f}")
    assert 0.75 <= r3 <= 1.3 and 0.75 <= r4 <= 1.3, (
        f"A4's exact counts at N=1e5 over the log-weighted Hardy-Littlewood "
        f"prediction give ratio3={r3:.4f}, ratio4={r4:.4f}, outside [0.75, 1.3]"
    )


def test_a5_exp_sum_spots(table_1e6):
    assert _run(table_1e6, "A5").passed


def test_a5_never_makes_the_lambda_column():
    # a fresh table: the session's table_1e6 has its column read by other tests
    tab = arith.build_table(10**6)
    res = _run(tab, "A5")
    assert res.passed
    assert "vonmangoldt" not in tab.__dict__
    lam = tab.vonmangoldt[1 : 10**6 + 1]
    assert res.measured == {"S0": abs(fourier.exp_sum(lam, 0.0)),
                            "S_half": abs(fourier.exp_sum(lam, 0.5)),
                            "S_third": abs(fourier.exp_sum(lam, 1.0 / 3.0))}


def test_a6_davenport_decay(table_1e6):
    assert _run(table_1e6, "A6").passed


def test_a7_gowers_cross_method(table_1e6):
    assert _run(table_1e6, "A7").passed


def test_a8_inequality_suites(table_1e6):
    assert _run(table_1e6, "A8").passed


def test_a9_heisenberg_orbit(table_1e6):
    assert _run(table_1e6, "A9").passed


def test_a10_obstruction_contrast(table_1e6):
    assert _run(table_1e6, "A10").passed


def test_a11_mobius_nilsequence_decay(table_1e6):
    assert _run(table_1e6, "A11").passed


def test_a10_fails_without_completion_probability(table_1e6, monkeypatch):
    # stats_report reports None when too few triples condition the completion
    report = {"bias": 0.0, "ratios": {"ap4": 3.0}, "completion_prob": None}
    monkeypatch.setattr(acceptance.obstruction, "build", lambda *args: None)
    monkeypatch.setattr(acceptance.obstruction, "stats_report", lambda obset: report)
    res = _run(table_1e6, "A10")
    assert not res.passed and res.measured["completion_prob"] is None
