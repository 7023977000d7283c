import math

import numpy as np
import pytest

from hlmlab import fourier


def test_dft_constant_and_delta():
    coeffs = fourier.dft(np.ones(8))
    assert abs(coeffs[0] - 1.0) < 1e-12
    assert np.abs(coeffs[1:]).max() < 1e-12
    delta = np.zeros(11)
    delta[0] = 1.0
    coeffs = fourier.dft(delta)
    assert np.abs(coeffs - 1 / 11).max() < 1e-12


def test_dft_roundtrip_and_parseval(rng):
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    coeffs = fourier.dft(f)
    # the inverse of the averaged transform
    assert np.abs(np.fft.ifft(coeffs * coeffs.size) - f).max() < 1e-10
    parseval_lhs = np.sum(np.abs(coeffs) ** 2)
    parseval_rhs = np.mean(np.abs(f) ** 2)
    assert abs(parseval_lhs - parseval_rhs) < 1e-12 * parseval_rhs
    with pytest.raises(ValueError):
        fourier.dft([])


def test_exp_sum_spot_values(table_1e6):
    lam = table_1e6.vonmangoldt_seq(10**6)
    assert abs(fourier.exp_sum(lam, 0.0) - 1.0) <= 0.01
    assert abs(fourier.exp_sum(lam, 0.5) + 1.0) <= 0.01
    assert abs(fourier.exp_sum(lam, 1 / 3) + 0.5) <= 0.02


def test_exp_sum_mobius_small(table_1e4):
    val = fourier.exp_sum(table_1e4.mobius_seq(10), 0.0)
    assert val == pytest.approx(-0.1, abs=1e-15)


def test_sup_exp_sum_nonnegative_weights_peak_at_zero():
    theta, value = fourier.sup_exp_sum(np.ones(100))
    assert theta == 0.0 and value == pytest.approx(1.0)


def test_sup_exp_sum_parity_character():
    f = np.where(np.arange(1, 11) % 2 == 0, 0.5, -0.5)
    theta, value = fourier.sup_exp_sum(f)
    assert theta == pytest.approx(0.5)
    assert value == pytest.approx(0.5)


def test_sup_exp_sum_davenport_decay(table_1e6):
    v4 = fourier.sup_exp_sum(table_1e6.mobius_seq(10**4))[1]
    v6 = fourier.sup_exp_sum(table_1e6.mobius_seq(10**6))[1]
    assert v6 < v4


def test_sup_exp_sum_grid_adequacy(table_1e6):
    for N in (10**4, 10**5):
        w = table_1e6.mobius_seq(N)
        a = fourier.sup_exp_sum(w, 4)[1]
        b = fourier.sup_exp_sum(w, 8)[1]
        assert abs(a - b) <= 0.02 * max(a, b)
    with pytest.raises(ValueError):
        fourier.sup_exp_sum(np.ones(10), oversample=2)


def test_classify_arc_examples():
    res = fourier.classify_arc(1 / 3, 10**6, 2.0)
    assert res.verdict == "major" and (res.a, res.q) == (1, 3)
    res = fourier.classify_arc(math.sqrt(2) - 1, 10**6, 2.0)
    assert res.verdict == "minor" and res.a is None
    res = fourier.classify_arc(1 / 3 + 1e-9, 10**6, 2.0)
    assert res.verdict == "major" and (res.a, res.q) == (1, 3)


def test_classify_arc_validation():
    with pytest.raises(ValueError):
        fourier.classify_arc(1.5, 10**6, 2.0)
    with pytest.raises(ValueError):
        fourier.classify_arc(0.3, 5, 2.0)
    with pytest.raises(ValueError):
        fourier.classify_arc(0.3, 100, 0.0)


def test_arc_partition_and_major_measure():
    N, A = 10**6, 1.0
    G = 100003  # prime grid size so grid points are not small rationals
    thetas = np.arange(G) / G
    verdicts = [fourier.classify_arc(float(t), N, A).verdict for t in thetas[::10]]
    assert all(v in ("major", "minor") for v in verdicts)
    Q = math.log(N) ** A
    major_frac = sum(v == "major" for v in verdicts) / len(verdicts)
    assert major_frac <= 2 * Q**3 / N


def test_arc_sweep_report():
    sweep = fourier.arc_sweep([0.0, 1 / 3, math.sqrt(2) - 1], 10**6, 2.0)
    assert [d["verdict"] for d in sweep] == ["major", "major", "minor"]
    assert sweep[0] == {"theta": 0.0, "verdict": "major", "a": 0, "q": 1}


def test_type1_basic():
    assert fourier.type1_max(np.ones(100, dtype=complex), 1) == pytest.approx(99.0)
    assert fourier.type1_max(np.zeros(100, dtype=complex), 4) == 0.0
    with pytest.raises(ValueError):
        fourier.type1_max(np.ones(100, dtype=complex), 30)  # 30 > 100^(2/3)


def test_type1_minor_arc_cancellation():
    N = 10**4
    n = np.arange(1, N + 1)
    f = np.exp(2j * np.pi * np.mod(n * math.sqrt(2), 1.0))
    assert fourier.type1_max(f, 10) <= 0.05 * N


def test_type2_multiplicative_no_cancellation():
    N = 10**6
    n = np.arange(1, N + 1)
    f = np.exp(2j * np.pi * np.log(n))
    value = fourier.type2_max(f, 100, 100)
    assert value >= 0.99 * math.sqrt(100) * math.sqrt(100)


def test_type2_against_svd_oracle():
    N = 4096
    f = np.random.default_rng(1).choice([-1.0, 1.0], size=N).astype(complex)
    value = fourier.type2_max(f, 32, 32)
    fe = np.zeros(N + 1, dtype=complex)
    fe[1:] = f
    matrix = fe[np.outer(np.arange(32, 64), np.arange(32, 64))]
    top = np.linalg.svd(matrix, compute_uv=False)[0]
    assert value <= 5 * math.sqrt(32)
    assert value == pytest.approx(top, rel=1e-5)
    assert fourier.type2_max(np.zeros(N, dtype=complex), 32, 32) == 0.0


def test_type2_transpose_symmetry():
    N = 8192
    loc = np.random.default_rng(2)
    f = loc.uniform(-1, 1, N) + 1j * loc.uniform(-1, 1, N)
    a = fourier.type2_max(f, 32, 64)
    b = fourier.type2_max(f, 64, 32)
    assert a == pytest.approx(b, rel=1e-6)


def test_type2_range_validation():
    f = np.ones(4096, dtype=complex)
    with pytest.raises(ValueError):
        fourier.type2_max(f, 8, 32)  # D < N^(1/3)
    with pytest.raises(ValueError):
        fourier.type2_max(f, 32, 256)  # W > N/D


def test_type2_nonconvergence_reports_last_iterate(rng):
    f = (rng.uniform(-1, 1, 4096)).astype(complex)
    with pytest.raises(fourier.PowerIterationError) as exc:
        fourier.type2_max(f, 32, 32, rtol=0.0, max_iter=3)
    assert exc.value.last_value > 0.0


