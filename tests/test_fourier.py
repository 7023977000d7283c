import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlmlab import arith, fourier
from hlmlab._phase import frac01


def sup_exp_sum_full_length(weights, oversample=4):
    """The grid sup as one zero-padded rfft of length M2: (xi*, |F(xi)| over
    xi = 0..M2/2). Ties resolve to the smallest xi."""
    w = np.asarray(weights, dtype=np.float64)
    N = w.size
    buf = np.zeros(fourier._padded_length(oversample * N))
    buf[1 : N + 1] = w  # value at n sits at index n, so bin xi means theta = xi/M2
    mags = np.abs(np.fft.rfft(buf))
    return int(np.argmax(mags)), mags


def sup_input(kind, N, rng):
    n = np.arange(1, N + 1)
    if kind == "bool":
        return rng.random(N) < 0.3
    if kind == "real":
        return rng.standard_normal(N)
    if kind == "int8":  # mu-like, as the table's column holds it
        return rng.choice(np.array([-1, 0, 1], dtype=np.int8), N)
    if kind == "constant":
        return np.full(N, 0.75)
    if kind == "zero":
        return np.zeros(N)
    return np.where(n % 2 == 0, 0.5, -0.5)  # parity


def assert_same_sup(w, oversample, ties_within_rounding=False):
    """sup_exp_sum against the full-length rfft: the same grid point and a
    value within 1e-12 relative. With ties_within_rounding, another grid
    point is accepted when the oracle's magnitude there is within 1e-12 of
    its maximum, as for a single nonzero weight, where every |F(xi)| is 1."""
    xi, mags = sup_exp_sum_full_length(w, oversample)
    M2 = 2 * (mags.size - 1)
    theta, value = fourier.sup_exp_sum(w, oversample)
    N = np.asarray(w).size
    assert value == pytest.approx(mags[xi] / N, rel=1e-12, abs=0.0)
    if theta != xi / M2 and ties_within_rounding:
        assert theta * M2 == int(theta * M2)
        assert mags[int(theta * M2)] >= mags[xi] * (1 - 1e-12)
    else:
        assert theta == xi / M2


def test_exp_sum_spot_values(table_1e6):
    lam = table_1e6.vonmangoldt[1 : 10**6 + 1]
    assert abs(fourier.exp_sum(lam, 0.0) - 1.0) <= 0.01
    assert abs(fourier.exp_sum(lam, 0.5) + 1.0) <= 0.01
    assert abs(fourier.exp_sum(lam, 1 / 3) + 0.5) <= 0.02


def test_exp_sum_mobius_small(table_1e4):
    val = fourier.exp_sum(table_1e4.mobius[1:11], 0.0)
    assert val == pytest.approx(-0.1, abs=1e-15)


def test_exp_sum_matches_mean_across_block_edges(rng):
    for N in (2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 1):
        w = rng.standard_normal(N)
        n = np.arange(1, N + 1, dtype=np.float64)
        for theta in (0.0, 0.5, 1 / 3, math.sqrt(2) - 1):
            want = np.mean(w * np.exp(2j * np.pi * frac01(theta * n)))
            assert abs(fourier.exp_sum(w, theta) - want) <= 1e-12 * np.abs(w).mean()


SPOT_THETAS = (0.0, 0.5, 1 / 3)


@pytest.fixture(scope="module")
def dumped_1e6(tmp_path_factory):
    """A fresh table at 10^6 dumped (is_prime and mu; a load derives Lambda)."""
    path = tmp_path_factory.mktemp("tables") / "t.hlm2"
    arith.dump_table(arith.build_table(10**6), path)
    return path


def assert_streamed_lambda_sums_equal_the_column_sums(tab, thetas):
    got = fourier.exp_sums(arith.vonmangoldt_blocks(tab), thetas)
    assert "vonmangoldt" not in tab.__dict__  # the blocks were built, not sliced
    want = [fourier.exp_sum(tab.vonmangoldt[1:], theta) for theta in thetas]
    assert got == want
    # a table whose column was read yields its slices, with the same sums
    assert fourier.exp_sums(arith.vonmangoldt_blocks(tab), thetas) == want


@pytest.mark.parametrize("N", [1, 2**16 - 1, 2**16, 2**16 + 1, 10**5, 10**6])
@pytest.mark.parametrize("source", ["fresh", "loaded"])
def test_exp_sums_of_lambda_blocks_equal_exp_sum_of_the_column(N, source, dumped_1e6):
    tab = arith.build_table(N) if source == "fresh" else arith.load_table(dumped_1e6, N)
    assert_streamed_lambda_sums_equal_the_column_sums(tab, SPOT_THETAS + (math.sqrt(2) - 1,))


@settings(max_examples=25, deadline=None)
@given(N=st.integers(1, 3 * 2**16 + 7), loaded=st.booleans(),
       thetas=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4))
def test_exp_sums_of_lambda_blocks_at_drawn_thetas(N, loaded, thetas, dumped_1e6):
    tab = arith.load_table(dumped_1e6, N) if loaded else arith.build_table(N)
    assert_streamed_lambda_sums_equal_the_column_sums(tab, SPOT_THETAS + tuple(thetas))


def test_exp_sums_of_int8_mobius_blocks_equal_exp_sum_of_the_column(table_1e6):
    mu = table_1e6.mobius[1:]
    blocks = [mu[lo : lo + fourier._EXP_BLOCK] for lo in range(0, mu.size, fourier._EXP_BLOCK)]
    assert blocks[0].dtype == np.int8
    want = [fourier.exp_sum(mu, theta) for theta in SPOT_THETAS]
    assert fourier.exp_sums(blocks, SPOT_THETAS) == want


def test_exp_sums_refuses_blocks_off_its_block_length():
    B = fourier._EXP_BLOCK
    assert fourier.exp_sums([np.ones(B), np.ones(3)], (0.0,)) == [1.0]  # a short last block
    for blocks in ([np.ones(10), np.ones(10)],  # a short block in the middle
                   [np.ones(B), np.ones(B - 1), np.ones(B)],
                   [np.ones(B), np.ones(0), np.ones(5)],
                   [np.ones(B + 1)]):  # a long block
        with pytest.raises(ValueError, match="need blocks of 65536 terms"):
            fourier.exp_sums(blocks, (0.0, 0.5))


def test_exp_sums_refuses_empty_input_like_exp_sum():
    with pytest.raises(ValueError) as plain:
        fourier.exp_sum([], 0.0)
    for blocks in ([], [np.ones(0)]):
        with pytest.raises(ValueError) as blocked:
            fourier.exp_sums(blocks, (0.0,))
        assert str(blocked.value) == str(plain.value)


def test_sup_exp_sum_nonnegative_weights_peak_at_zero():
    theta, value = fourier.sup_exp_sum(np.ones(100))
    assert theta == 0.0 and value == pytest.approx(1.0)


def test_sup_exp_sum_parity_character():
    f = np.where(np.arange(1, 11) % 2 == 0, 0.5, -0.5)
    theta, value = fourier.sup_exp_sum(f)
    assert theta == pytest.approx(0.5)
    assert value == pytest.approx(0.5)


def test_sup_exp_sum_davenport_decay(table_1e6):
    v4 = fourier.sup_exp_sum(table_1e6.mobius[1 : 10**4 + 1])[1]
    v6 = fourier.sup_exp_sum(table_1e6.mobius[1 : 10**6 + 1])[1]
    assert v6 < v4


def test_sup_exp_sum_grid_adequacy(table_1e6):
    for N in (10**4, 10**5):
        w = table_1e6.mobius[1 : N + 1]
        a = fourier.sup_exp_sum(w, 4)[1]
        b = fourier.sup_exp_sum(w, 8)[1]
        assert abs(a - b) <= 0.02 * max(a, b)
    with pytest.raises(ValueError):
        fourier.sup_exp_sum(np.ones(10), oversample=2)


def test_sup_exp_sum_refuses_complex_input():
    # its classes past R/2 are read as mirrors, which holds for real weights only
    with pytest.raises(ValueError, match="real"):
        fourier.sup_exp_sum(np.exp(2j * np.pi * np.arange(100) / 7))


def test_sup_exp_sum_refuses_empty_input_like_exp_sum():
    with pytest.raises(ValueError, match="need N >= 1"):
        fourier.exp_sum([], 0.0)
    with pytest.raises(ValueError, match="need N >= 1"):
        fourier.sup_exp_sum([])


def test_sup_exp_sum_matches_full_length_rfft(rng):
    # 2^14 +- 1 straddle the one-class limit (M2 = 2^16) at oversample 4,
    # and 2^16 +- 1 and 2^18 +- 1 give several classes and fold blocks;
    # 10^6 at oversample 4 folds 16 blocks of 2^16 into 64 classes
    kinds = ("bool", "real", "constant", "zero", "parity")
    for N in (1, 2, 3, 2**14 - 1, 2**14 + 1, 2**16 - 1, 2**16 + 1, 2**18 - 1, 2**18 + 1):
        for kind in kinds:
            w = sup_input(kind, N, rng)
            for oversample in (4, 5, 8) if N < 2**16 or kind in ("bool", "real") else (4,):
                assert_same_sup(w, oversample)
    for kind in ("bool", "real"):
        assert_same_sup(sup_input(kind, 10**6, rng), 4)


def class_length(N, oversample=4):
    """sup_exp_sum's grid length M2 and class length L at N."""
    M2 = fourier._padded_length(oversample * N)
    return M2, min(M2, max(fourier._CLASS_LEN, M2 // fourier._MAX_CLASSES))


def test_sup_exp_sum_matches_full_length_rfft_with_short_classes():
    # a shorter class transform gives many classes and fold blocks at small
    # N, and L = M2/128 once M2 > 128 * _CLASS_LEN; a group of 1 to 5
    # classes per read of the input, set through _GROUP_POINTS, often does
    # not divide the R/2 classes past class 0
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 3000),
        kind=st.sampled_from(["bool", "int8", "real", "constant", "zero", "parity"]),
        oversample=st.integers(4, 9),
        class_bits=st.integers(1, 10),
        group=st.integers(1, 5),
    )
    def check(seed, N, kind, oversample, class_bits, group):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fourier, "_CLASS_LEN", 1 << class_bits)
            mp.setattr(fourier, "_GROUP_POINTS", group * class_length(N, oversample)[1])
            assert_same_sup(sup_input(kind, N, np.random.default_rng(seed)), oversample,
                            ties_within_rounding=True)

    check()


def test_sup_exp_sum_transforms_are_class_length(monkeypatch, rng):
    lengths = []
    for name in ("rfft", "fft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda a, *args, _t=transform, **kw: lengths.append(len(a)) or _t(a, *args, **kw))
    # at the default class floor and, with a floor of 2^10, at R = 128
    # classes of the floor (3*10^4) and of M2/128 (10^5)
    for class_bits, N in ((16, 3 * 10**5), (10, 3 * 10**4), (10, 10**5)):
        monkeypatch.setattr(fourier, "_CLASS_LEN", 1 << class_bits)
        M2, L = class_length(N)
        R = M2 // L
        lengths.clear()
        fourier.sup_exp_sum(rng.standard_normal(N))
        assert max(lengths) <= L < M2
        assert 2 <= R <= 128
        assert len(lengths) == R // 2 + 1  # classes 0..R/2


def test_sup_exp_sum_holds_a_few_class_arrays(rng, traced_peak):
    # beside its input, the two folds of a group and one transform output of
    # L = 2^16 complex values each, and a slab of at most 2^16 values: 3.7
    # MiB at N = 10^5, where the 2^18 class floor traced 9.1 MiB
    w = rng.standard_normal(10**5)
    assert traced_peak(lambda: fourier.sup_exp_sum(w)) <= 4 * 16 * fourier._EXP_BLOCK


def test_spectral_kernels_stay_within_a_multiple_of_their_input(rng, traced_peak):
    # at this N the full-length kernels (one rfft of M2, one complex
    # temporary per stage, complex copies of real input) peak at about
    # 17.5x, 6.0x and 7.7x the input's bytes; these kernels at about 3.9x
    # (5.3x while each class made its own fold, twist and magnitudes), 1.1x
    # and 1.9x (2.2x while the Type II gather took 512 rows at a time)
    N = 3 * 10**5
    w = rng.standard_normal(N)
    assert traced_peak(lambda: fourier.sup_exp_sum(w)) <= 4.4 * w.nbytes
    assert traced_peak(lambda: fourier.exp_sum(w, 0.3)) <= 2 * w.nbytes
    assert traced_peak(lambda: fourier.type2_max(w, 300, 300)) <= 2.1 * w.nbytes
    # mu-like int8 input is read as it is: a float64 copy of it would add 8
    # bytes per element to the peak, so the second half of the input may add
    # at most 2 (with a copy it adds about 0.5 x 8N; read as stored, 0.06 x 8N)
    mu = rng.choice(np.array([-1, 0, 1], dtype=np.int8), N)
    for kernel in (fourier.sup_exp_sum, lambda f: fourier.exp_sum(f, 0.3),
                   lambda f: fourier.type2_max(f, 300, 300)):
        half = traced_peak(lambda: kernel(mu[: N // 2]))
        assert traced_peak(lambda: kernel(mu)) - half <= 2 * (N - N // 2)


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


def test_type1_against_literal_sum():
    N, D = 2000, 12
    loc = np.random.default_rng(4)
    for f in (loc.standard_normal(N), np.exp(2j * np.pi * loc.random(N))):
        want = math.sqrt(sum(abs(sum(f[w * d - 1] for w in range(1, N) if w * d < N)) ** 2
                             for d in range(D, 2 * D)))
        assert fourier.type1_max(f, D) == pytest.approx(want, rel=1e-12)


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


def test_type_sums_of_real_input_equal_those_of_its_complex_cast(rng):
    N = 3 * 10**5
    lam = np.log(np.arange(1, N + 1.0)) * (rng.random(N) < 0.1)
    for f in (rng.standard_normal(N), lam, rng.choice([-1.0, 0.0, 1.0], N)):
        assert fourier.type1_max(f, 300) == fourier.type1_max(f.astype(complex), 300)
        assert fourier.type2_max(f, 300, 300) == fourier.type2_max(f.astype(complex), 300, 300)


def test_type_sums_of_int8_input_equal_those_of_float64():
    # mu-like int8 input, with 4DW below N and (the zero slot for w*d > N) above it
    N = 10**4
    f = np.random.default_rng(5).choice(np.array([-1, 0, 1], dtype=np.int8), N)
    fe = np.zeros(4 * 60 * 100 + 1)
    fe[1 : N + 1] = f
    for D, W in ((25, 25), (60, 100)):
        assert fourier.type1_max(f, D) == fourier.type1_max(f.astype(np.float64), D)
        value = fourier.type2_max(f, D, W)
        assert value == fourier.type2_max(f.astype(np.float64), D, W)
        matrix = fe[np.outer(np.arange(D, 2 * D), np.arange(W, 2 * W))]
        assert value == pytest.approx(np.linalg.svd(matrix, compute_uv=False)[0], rel=1e-5)
    # and the exponential sums; 10^5 terms span two exp_sum blocks and two
    # sup_exp_sum classes
    g = np.random.default_rng(6).choice(np.array([-1, 0, 1], dtype=np.int8), 10**5)
    for w in (f, g):
        for theta in (0.0, 0.3, math.sqrt(2) - 1):
            assert fourier.exp_sum(w, theta) == fourier.exp_sum(w.astype(np.float64), theta)
        assert fourier.sup_exp_sum(w) == fourier.sup_exp_sum(w.astype(np.float64))


def test_type2_of_complex_input_against_svd_oracle():
    N = 4096
    loc = np.random.default_rng(3)
    f = np.exp(2j * np.pi * loc.random(N))
    fe = np.zeros(N + 1, dtype=complex)
    fe[1:] = f
    for D, W in ((32, 32), (16, 64)):
        matrix = fe[np.outer(np.arange(D, 2 * D), np.arange(W, 2 * W))]
        top = np.linalg.svd(matrix, compute_uv=False)[0]
        assert fourier.type2_max(f, D, W, rtol=1e-9) == pytest.approx(top, rel=1e-6)


def test_type2_transpose_symmetry():
    N = 8192
    loc = np.random.default_rng(2)
    f = loc.uniform(-1, 1, N) + 1j * loc.uniform(-1, 1, N)
    a = fourier.type2_max(f, 32, 64)
    b = fourier.type2_max(f, 64, 32)
    assert a == pytest.approx(b, rel=1e-6)


def test_type2_matvec_equals_the_dense_product():
    # W = 300 gathers 218 rows a block, so D = 300 takes two blocks, and
    # w*d runs past N = 10^5 in the second
    loc = np.random.default_rng(8)
    N = 10**5
    for f in (loc.random(N) < 0.3, loc.choice(np.array([-1, 0, 1], dtype=np.int8), N),
              loc.standard_normal(N), np.exp(2j * np.pi * loc.random(N))):
        fe = np.zeros(4 * 300 * 300, dtype=complex)
        fe[1 : N + 1] = f
        ds, ws = np.arange(300, 600), np.arange(300, 600)
        matrix = fe[np.outer(ds, ws)]
        v = loc.standard_normal(300) + 1j * loc.standard_normal(300)
        np.testing.assert_allclose(fourier._type2_matvec(f, ds, ws, v), matrix @ v, rtol=1e-12)
        np.testing.assert_allclose(fourier._type2_matvec(f, ws, ds, v, conj=True),
                                   matrix.T.conj() @ v, rtol=1e-12)


def test_type2_start_vector_is_the_stream_of_the_seed():
    # numpy's default_rng is the oracle for the package's stream
    for seed in (0, 7, -1, 2**64 + 5, 12345678901234567890):
        parts = np.random.default_rng(seed % 2**64).uniform(-1.0, 1.0, 10)
        want = parts[0::2] + 1j * parts[1::2]
        np.testing.assert_array_equal(fourier._start_vector(seed, 5),
                                      want / np.linalg.norm(want))
    np.testing.assert_array_equal(fourier._start_vector(-1, 5),
                                  fourier._start_vector(2**64 - 1, 5))
    assert not np.array_equal(fourier._start_vector(0, 5), fourier._start_vector(1, 5))


def test_type2_does_not_depend_on_the_seed_beyond_rtol():
    N = 10**5
    f = np.random.default_rng(4).choice(np.array([-1, 0, 1], dtype=np.int8), N)
    values = [fourier.type2_max(f, 60, 100, seed=seed) for seed in range(5)]
    assert max(values) - min(values) <= 1e-6 * min(values)


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


