import math

import numpy as np
import pytest

from hlmlab import gowers, nilseq


def per_h_power(v, k, spectral):
    """||v||_{U^k}^{2^k} by the literal per-h recursion, one np.roll per shift.

    D_h v = v conj(roll(v, -h)) down to the U^2 spectral base (spectral)
    or to the U^1 base |mean|^2; complex arithmetic throughout.
    """
    v = np.asarray(v, dtype=np.complex128)
    M = v.size
    if spectral and k == 2:
        return float(np.sum(np.abs(np.fft.fft(v) / M) ** 4))
    if k == 1:
        return abs(np.mean(v)) ** 2
    return sum(per_h_power(v * np.conj(np.roll(v, -h)), k - 1, spectral) for h in range(M)) / M


def sample_input(rng, M, complex_input):
    f = rng.uniform(-1.0, 1.0, M)
    return f + 1j * rng.uniform(-1.0, 1.0, M) if complex_input else f


def test_u2_constant_and_cos():
    assert gowers.u2_norm(np.ones(16)) == pytest.approx(1.0)
    M = 64
    f = np.cos(2 * np.pi * np.arange(M) / M)
    assert gowers.u2_norm(f) == pytest.approx((1 / 8) ** 0.25, abs=1e-12)


def test_u2_equals_bruteforce(rng):
    f = rng.choice([-1.0, 1.0], size=64)
    assert gowers.u2_norm(f) == pytest.approx(gowers.uk_norm_bruteforce(f, 2), abs=1e-10)


def test_bruteforce_delta_and_alternating():
    delta = np.zeros(4)
    delta[0] = 1.0
    assert gowers.uk_norm_bruteforce(delta, 2) == pytest.approx(
        gowers.u2_norm(delta), abs=1e-12
    )
    alt = (-1.0) ** np.arange(8)
    assert gowers.uk_norm_bruteforce(alt, 2) == pytest.approx(1.0)
    assert gowers.u2_norm(alt) == pytest.approx(1.0)


def test_uk_constant_is_one():
    for k in (2, 3, 4):
        assert gowers.uk_norm(np.ones(12), k) == pytest.approx(1.0)
        assert gowers.uk_norm_bruteforce(np.ones(8), k) == pytest.approx(1.0)


def test_quadratic_phase_is_u3_maximal():
    M = 64
    f = np.exp(2j * np.pi * np.arange(M) ** 2 / M)
    assert gowers.uk_norm(f, 3) == pytest.approx(1.0, abs=1e-9)
    assert gowers.uk_norm(f, 3, "recursive") == pytest.approx(1.0, abs=1e-9)


def test_cross_method_agreement(rng):
    for trial in range(60):
        k = (2, 3, 4)[trial % 3]
        M = int(rng.integers(4, 17 if k == 4 else 33))
        f = rng.uniform(-1.0, 1.0, M)
        a = gowers.uk_norm(f, k, "fft")
        b = gowers.uk_norm(f, k, "recursive")
        c = gowers.uk_norm_bruteforce(f, k)
        assert abs(a - b) <= 1e-10 and abs(a - c) <= 1e-10


def test_uk_caps_and_validation():
    with pytest.raises(ValueError):
        gowers.uk_norm(np.ones(8192), 3)
    with pytest.raises(ValueError):
        gowers.uk_norm(np.ones(512), 4)
    with pytest.raises(ValueError):
        gowers.uk_norm(np.ones(8), 5)
    with pytest.raises(ValueError):
        gowers.uk_norm(np.ones(8), 3, method="bogus")
    with pytest.raises(ValueError):
        gowers.uk_norm_bruteforce(np.ones(512), 3)  # 512^4 > cap
    for k in (-1, 0, 1, 5):  # the k range comes before any power of M
        with pytest.raises(ValueError, match="2 <= k <= 4"):
            gowers.uk_norm_bruteforce(np.ones(8), k)


def test_monotonicity_in_k(rng):
    for _ in range(20):
        f = rng.uniform(-1.0, 1.0, 32)
        u2 = gowers.u2_norm(f)
        u3 = gowers.uk_norm(f, 3)
        u4 = gowers.uk_norm(f, 4)
        assert u2 <= u3 + 1e-10
        assert u3 <= u4 + 1e-10
        assert u4 <= np.abs(f).max() + 1e-10


def test_ap_average_constant():
    assert gowers.ap_average([np.ones(7)] * 3) == pytest.approx(1.0)
    assert gowers.ap_average([np.ones(7)] * 4) == pytest.approx(1.0)


def test_ap_average_character_orthogonality(rng):
    M = 101
    n = np.arange(M)
    e = lambda c: np.exp(2j * np.pi * c * n / M)
    # nonzero exactly when (c1,c2,c3) is a multiple of (1,-2,1) mod M
    for lam in (1, 5, 40):
        val = gowers.ap_average([e(lam), e(-2 * lam % M), e(lam)])
        assert abs(val) == pytest.approx(1.0, abs=1e-12)
    for cs in ((1, 2, 3), (1, 1, 1), (0, 1, 0)):
        val = gowers.ap_average([e(c) for c in cs])
        assert abs(val) <= 1e-12


def test_ap_average_modulus_validation():
    with pytest.raises(ValueError):
        gowers.ap_average([np.ones(8)] * 3)  # gcd(8, 2) != 1
    with pytest.raises(ValueError):
        gowers.ap_average([np.ones(9)] * 4)  # gcd(9, 6) != 1
    with pytest.raises(ValueError):
        gowers.ap_average([np.ones(7), np.ones(9), np.ones(7)])


@pytest.mark.parametrize("M", [7, 11, 13])
def test_ap_average_is_the_literal_double_loop(M):
    rng = np.random.default_rng(M)
    for k in (3, 4):
        fs = [sample_input(rng, M, k == 4) for _ in range(k)]
        want = sum(math.prod(fs[i][(x + i * d) % M] for i in range(k))
                   for x in range(M) for d in range(M)) / M**2
        assert gowers.ap_average(fs) == pytest.approx(want, rel=1e-12)
        assert not any(gowers._ap_index(M, j).flags.writeable for j in range(1, k))


def test_spectral_identity_on_random_triples(rng):
    M = 101
    for _ in range(50):
        fs = [rng.uniform(-1.0, 1.0, M) for _ in range(3)]
        direct = gowers.ap_average(fs)
        spectral = gowers.ap_average_spectral(*fs)
        assert abs(direct - spectral) <= 1e-10
    with pytest.raises(ValueError):
        gowers.ap_average_spectral(np.ones(8), np.ones(8), np.ones(8))


def test_gvn_inequality(rng):
    M = 101
    for trial in range(200):
        k = 3 if trial % 2 else 4
        fs = [rng.uniform(-1.0, 1.0, M) for _ in range(k)]
        lhs = abs(gowers.ap_average(fs))
        rhs = min(
            (gowers.u2_norm(f) if k == 3 else gowers.uk_norm(f, 3)) for f in fs
        )
        assert lhs <= rhs + 1e-12


def test_inverse_u2_witness(rng):
    M = 101
    f = np.exp(2j * np.pi * 3 * np.arange(M) / M)
    xi, mag, u2 = gowers.inverse_u2_witness(f)
    assert xi == 3 and mag == pytest.approx(1.0) and u2 == pytest.approx(1.0)
    xi, mag, u2 = gowers.inverse_u2_witness(np.zeros(M))
    assert mag == 0.0 and u2 == 0.0
    for _ in range(100):
        g = rng.uniform(-1.0, 1.0, 128)
        _, mag, u2 = gowers.inverse_u2_witness(g)
        assert mag >= u2**2 - 1e-12
    with pytest.raises(ValueError):
        gowers.inverse_u2_witness(2.0 * np.ones(16))


def test_nilsequence_correlation_forces_large_u3():
    M = 256
    F = nilseq.TestFunction.vertical_character(1)
    for g, floor in [
        (nilseq.HeisenbergElement(math.sqrt(2), 0.0, math.sqrt(3)), 0.30),
        (nilseq.HeisenbergElement(1 / math.pi, 1 / math.e, math.sqrt(5)), 0.30),
    ]:
        seq = nilseq.eval_nilsequence(F, g, nilseq.ORIGIN, M)
        f = seq.real
        corr = abs(np.mean(f * seq))  # |E_n f(n) seq(n)|
        u3 = gowers.uk_norm(f, 3)
        assert u3 >= corr  # the proved direction: correlation forces norm
        assert u3 >= floor  # frozen regression value


def test_quadratic_phase_cos_has_structured_u3():
    M = 256
    q = nilseq.quadratic_embedding(math.sqrt(2), M)
    f = np.cos(2 * np.pi * q.phase(np.arange(1, M + 1)))
    assert gowers.uk_norm(f, 3) >= 0.5



@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_routes_match_per_h_oracle(k, complex_input):
    rng = np.random.default_rng(100 * k + complex_input)
    for M in range(2, 34):  # odd and even M; even M has a Nyquist bin
        f = sample_input(rng, M, complex_input)
        want = per_h_power(f, k, spectral=True)
        # each route against the recursion with its own base; the U^1 base
        # costs M^(k-1) Python calls, so the largest cases use the spectral one
        checks = [(gowers.uk_norm(f, k, "fft"), want)]
        u1_want = per_h_power(f, k, spectral=False) if M ** (k - 1) <= 2000 else want
        checks.append((gowers.uk_norm(f, k, "recursive"), u1_want))
        if M ** (k + 1) <= 10**6:
            checks.append((gowers.uk_norm_bruteforce(f, k), want))
        for got, expected in checks:
            assert got ** 2**k == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_derivative_kernel_is_the_definition(complex_input, monkeypatch):
    rng = np.random.default_rng(11)
    V = np.array([sample_input(rng, 9, complex_input) for _ in range(5)])
    hs = rng.integers(0, 9, size=7)
    want = [v * np.conj(np.roll(v, -int(h))) for v in V for h in hs]  # row-major in (i, h)
    for block in (1, 40, 2**20):
        monkeypatch.setattr(gowers, "_BLOCK", block)
        blocks = list(gowers._derivatives(V, hs))
        assert all(b.size <= max(block, 9) for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), want)


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_one_row_chunks_match_one_block(complex_input, monkeypatch):
    rng = np.random.default_rng(12)
    cases = [(sample_input(rng, M, complex_input), k) for M, k in ((13, 3), (16, 3), (9, 4), (12, 4))]
    f_big = sample_input(rng, 300, complex_input)

    def run():
        # f_big at M = 300 takes many blocks of one row at _BLOCK = 1
        return ([gowers.uk_norm(f, k, m) for f, k in cases + [(f_big, 3)]
                 for m in ("fft", "recursive")]
                + [gowers.uk_norm_bruteforce(f, k) for f, k in cases])

    monkeypatch.setattr(gowers, "_BLOCK", 2**40)  # everything in one block
    whole = run()
    monkeypatch.setattr(gowers, "_BLOCK", 1)  # one row of M, or one h_1, per block
    assert run() == pytest.approx(whole, rel=1e-13)


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("M", [97, 101, 127, 128, 129])
def test_fft_route_matches_per_h_oracle_around_the_gemm_cutoff(M, complex_input):
    # the U^2 base is a GEMM up to M = 128 and an rfft/fft above it
    f = sample_input(np.random.default_rng(M + 1000 * complex_input), M, complex_input)
    for k in (2, 3):
        want = per_h_power(f, k, spectral=True)
        assert gowers.uk_norm(f, k, "fft") ** 2**k == pytest.approx(want, rel=1e-12)


def test_fft_route_calls_no_fft_up_to_the_cutoff(monkeypatch):
    rng = np.random.default_rng(16)

    def refuse(*args, **kwargs):
        raise AssertionError("np.fft called")

    for name in ("fft", "rfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    for complex_input in (False, True):
        gowers.uk_norm(sample_input(rng, 128, complex_input), 3, "fft")
        with pytest.raises(AssertionError, match="np.fft called"):
            gowers.uk_norm(sample_input(rng, 129, complex_input), 2, "fft")


def test_routes_stay_independent(monkeypatch):
    f = np.random.default_rng(14).uniform(-1.0, 1.0, 10)

    def refuse(*args, **kwargs):
        raise AssertionError("route crossed into another route's machinery")

    with monkeypatch.context() as m:
        for name in ("fft", "rfft", "ifft", "irfft"):
            m.setattr(np.fft, name, refuse)
        gowers.uk_norm(f, 4, "recursive")  # no spectrum
    with monkeypatch.context() as m:
        m.setattr(gowers, "_derivatives", refuse)
        gowers.uk_norm_bruteforce(f, 4)  # no derivative kernel


def test_routes_work_in_blocks_of_2_16(traced_peak):
    # the derivative blocks and the brute-force h_1 slices hold about 2^16
    # values each; at _BLOCK = 2^20 these runs traced 16 to 29 MiB
    rng = np.random.default_rng(15)
    f3, f4 = rng.uniform(-1.0, 1.0, 4096), rng.uniform(-1.0, 1.0, 256)
    runs = [lambda: gowers.uk_norm(f3, 3), lambda: gowers.uk_norm(f4, 4),
            lambda: gowers.uk_norm_bruteforce(f3[:32], 3),
            lambda: gowers.uk_norm_bruteforce(f4[:16], 4)]
    for run in runs:
        assert traced_peak(run) <= 4 << 20
