import itertools
import math
from unittest import mock

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

from hlmlab import arith, counting, fourier, linsys, obstruction


def oracle_ap_count(table, N, k):
    """Literal (p1, d) double loop, the independent counting oracle."""
    isp = table.is_prime
    count = 0
    for p1 in range(2, N + 1):
        if not isp[p1]:
            continue
        for d in range(1, (N - p1) // (k - 1) + 1):
            if all(isp[p1 + j * d] for j in range(1, k)):
                count += 1
    return count


def oracle_weighted_ap3(table, N):
    """O(N^2) oracle for the k = 3 weighted average: pairs (x1, x3) of one parity."""
    lam = table.vonmangoldt[: N + 1]
    total = 0.0
    for x1 in range(1, N + 1):
        if lam[x1] == 0.0:
            continue
        x3 = np.arange(1 if x1 % 2 else 2, N + 1, 2)  # same parity as x1
        mid = (x1 + x3) // 2
        total += lam[x1] * float(np.dot(lam[x3], lam[mid]))
    return total / (N + 2 * counting.ap_cells(N, 3))


def oracle_ap_sum(fs):
    """Literal loop over (x, d), the independent oracle for counting.ap_sum."""
    k, N = len(fs), len(fs[0])
    vals = [f.tolist() for f in fs]
    total = 0
    for x in range(N):
        for d in range(1, N):
            if x + (k - 1) * d >= N:
                break
            term = 1
            for j in range(k):
                term *= vals[j][x + j * d]
            total += term
    return total


def oracle_equation_sum(coeffs, fs):
    """Literal loop over x_i in [1, len(fs[i])] for the first t - 1
    coordinates, solving for the last."""
    a_last = coeffs[-1]
    vals = [f.tolist() for f in fs]
    total = 0
    for head in itertools.product(*(range(1, len(f) + 1) for f in fs[:-1])):
        rest = -sum(a * x for a, x in zip(coeffs, head))
        if rest % a_last or not 1 <= rest // a_last <= len(fs[-1]):
            continue
        term = vals[-1][rest // a_last - 1]
        for f, x in zip(vals, head):
            term *= f[x - 1]
        total += term
    return total


def test_ap_sum_matches_literal_loop():
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        k=st.sampled_from([3, 4, 5]),
        n=st.integers(0, 60),
        boolean=st.booleans(),
        sparse=st.booleans(),
        sharing=st.sampled_from(["all", "ends", "none"]),
    )
    def check(data, k, n, boolean, sparse, sharing):
        elements = st.booleans() if boolean else st.floats(-1.0, 1.0)
        dtype = bool if boolean else np.float64

        def draw():
            return data.draw(arrays(dtype, n, elements=elements, fill=st.nothing()))

        if sharing == "all":  # one sequence k times
            fs = [draw()] * k
        elif sharing == "ends":  # f_1 is f_k, the middle ones differ
            f = draw()
            fs = [f] + [draw() for _ in range(k - 2)] + [f]
        else:
            fs = [draw() for _ in range(k)]
        if sparse and n:  # f_1 keeps at most three nonzeros
            keep = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
            fs[0] = np.where(np.isin(np.arange(n), list(keep)), fs[0], 0).astype(dtype)
        got = counting.ap_sum(fs)
        want = oracle_ap_sum(fs)
        if boolean:
            assert type(got) is int and got == want
        else:
            assert type(got) is float
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    with mock.patch.object(counting, "_support_walk", wraps=counting._support_walk) as support, \
            mock.patch.object(counting, "_dense_walk", wraps=counting._dense_walk) as dense:
        check()
    assert support.call_count > 0, "no example took the support walk"
    assert any(c.args[0][0].dtype != bool for c in dense.call_args_list), (
        "no real-valued example took the whole-array walk")
    # every bool f = f_3 and g on [1, n] for n <= 4: both parity classes, the
    # progressions from 1, and the empty and one-element classes of n = 0, 1, 2
    for n in range(5):
        for bits in itertools.product((False, True), repeat=2 * n):
            f, g = np.array(bits[:n], dtype=bool), np.array(bits[n:], dtype=bool)
            got = counting.ap_sum((f, g, f))
            assert type(got) is int and got == oracle_ap_sum((f, g, f))
            real = counting.ap_sum((f + 0.5, g - 0.25, f + 0.5))
            assert real == pytest.approx(oracle_ap_sum((f + 0.5, g - 0.25, f + 0.5)),
                                         rel=1e-12, abs=1e-12)


def test_support_walk_reaches_every_anchor():
    rng = np.random.default_rng(7)
    N = 61
    for k in (3, 4, 5):
        rest = [rng.uniform(-1.0, 1.0, N) for _ in range(k - 1)]
        for x in range(N):  # one anchor: fewer nonzeros than d-steps
            f = np.zeros(N)
            f[x] = 0.7
            with mock.patch.object(counting, "_support_walk",
                                   wraps=counting._support_walk) as support:
                got = counting.ap_sum([f, *rest])
            assert support.call_count == 1
            assert got == pytest.approx(oracle_ap_sum([f, *rest]), rel=1e-12, abs=1e-15)


def test_product_sum_counts_bool_and_sums_real_products():
    rng = np.random.default_rng(3)
    a, b, c = (rng.uniform(-1.0, 1.0, n) for n in (40, 40, 80))
    parts = [a, b[::-1], c[::2]]  # a reversed and a strided input
    before = [part.copy() for part in parts]
    got = counting._product_sum(parts, np.empty(50))
    assert type(got) is float
    assert got == pytest.approx(float(np.sum(a * b[::-1] * c[::2])), rel=1e-13)
    assert all(np.array_equal(x, y) for x, y in zip(parts, before))
    bits = [rng.uniform(size=40) < 0.6 for _ in range(3)]
    got = counting._product_sum(bits, np.empty(40, dtype=bool))
    assert type(got) is int and got == int(np.count_nonzero(bits[0] & bits[1] & bits[2]))
    assert counting._product_sum([a[:0], b[:0]], np.empty(0)) == 0.0


@pytest.mark.parametrize("words, steps", [(1 << 16, 64), (1, 64), (16, 2)])
def test_packed_walk_matches_literal_loop(monkeypatch, words, steps):
    # one word per block, and a few words over at most two values of d per
    # block, split every residue's walk; N = 500 reaches d >= 64 for each k
    monkeypatch.setattr(counting, "_WORD_BLOCK", words)
    monkeypatch.setattr(counting, "_BLOCK_STEPS", steps)
    rng = np.random.default_rng(words + steps)
    for k in (4, 5, 6):
        for N in (0, 1, k - 1, k, 63, 64, 65, 127, 129, 500):
            m = rng.random(N) < 0.6
            for fs in ([rng.random(N) < 0.7 for _ in range(k)], (m,) * (k - 1) + (np.ones_like(m),)):
                got = counting._packed_walk(fs)
                assert type(got) is int and got == oracle_ap_sum(fs), (k, N)


def test_packed_walk_ends_zero_blocks_early(monkeypatch):
    # a sparse sequence's blocks are all zero by term 8 and stop there; an
    # all-ones sequence's never are, and every block ANDs all k - 1 views
    rng = np.random.default_rng(25)
    ands = []
    bitwise_and = np.bitwise_and
    monkeypatch.setattr(np, "bitwise_and", lambda *a, **kw: ands.append(1) or bitwise_and(*a, **kw))
    N, k = 500, 20
    calls = {}
    for name, m in (("sparse", rng.random(N) < 0.3), ("ones", np.ones(N, dtype=bool))):
        ands.clear()
        got = counting._packed_walk((m,) * k)
        calls[name] = len(ands)
        assert type(got) is int and got == oracle_ap_sum((m,) * k), name
    D = (N - 1) // (k - 1)  # one block per d at this N
    assert calls == {"sparse": 7 * D, "ones": (k - 1) * D}


def test_packed_walk_matches_the_real_route_on_an_obstruction_set():
    m = obstruction.build("A1", 2 * 10**4, 0.1).membership
    with mock.patch.object(counting, "_packed_walk", wraps=counting._packed_walk) as packed:
        got = counting.ap_sum((m,) * 4)
    assert packed.call_count == 1
    assert type(got) is int and got > 0 and got == counting.ap_sum((m.astype(float),) * 4)


def test_packed_walk_stays_within_8_bytes_per_entry(traced_peak):
    # 64 shifted copies of one bit per entry are 8 B per entry of each
    # distinct sequence, and each copy's zero pad is at most (k - 1)
    # _BLOCK_STEPS words; beside them the walk holds one block of words,
    # one packed row while it builds the copies, and numpy's ufunc buffers
    # of at most getbufsize() elements for each of three operands
    N, k = 2 * 10**5, 4
    m = np.random.default_rng(2).random(N) < 0.3
    pad = 64 * 8 * (k - 1) * counting._BLOCK_STEPS
    block = 8 * counting._WORD_BLOCK + N // 8 + 3 * 8 * np.getbufsize()
    for fs, distinct in (((m,) * k, 1), ((m,) * (k - 1) + (np.ones_like(m),), 2)):
        assert traced_peak(lambda: counting.ap_sum(fs)) <= distinct * (8 * N + pad) + block


def draw_equation(data, t: int, n: int, boolean: bool, unequal: bool):
    """t nonzero coefficients in [-5, 5] and t sequences on [1, n] (or each
    of its own length up to 40), a drawn index reusing an earlier one."""
    coeffs = data.draw(st.lists(st.integers(1, 5) | st.integers(-5, -1), min_size=t, max_size=t))
    elements = st.booleans() if boolean else st.floats(-1.0, 1.0)
    dtype = bool if boolean else np.float64
    fs = []
    for _ in range(t):
        reuse = data.draw(st.integers(0, len(fs)))
        if reuse == len(fs):
            size = data.draw(st.integers(0, 40)) if unequal else n
            fs.append(data.draw(arrays(dtype, size, elements=elements, fill=st.nothing())))
        else:
            fs.append(fs[reuse])
    return coeffs, fs


def test_equation_sum_matches_literal_loop():
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        t=st.integers(2, 4),
        n=st.integers(0, 40),
        boolean=st.booleans(),
        unequal=st.booleans(),
    )
    def check(data, t, n, boolean, unequal):
        coeffs, fs = draw_equation(data, t, n, boolean, unequal)
        got = counting.equation_sum(coeffs, fs)
        want = oracle_equation_sum(coeffs, fs)
        if boolean:
            assert type(got) is int and got == want
        else:
            assert type(got) is float
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    check()
    # every bool triple of lengths 0, 1, 2, on equations whose read sequence
    # is first, last, dilated or reversed
    for coeffs in ((-1, 1, 1), (1, 1, -1), (1, -2, 1), (2, -1, 3), (-3, 1, -1)):
        for sizes in itertools.product(range(3), repeat=3):
            for bits in itertools.product((False, True), repeat=sum(sizes)):
                cuts = np.cumsum((0,) + sizes)
                fs = [np.array(bits[a:b], dtype=bool) for a, b in zip(cuts, cuts[1:])]
                got = counting.equation_sum(coeffs, fs)
                assert type(got) is int and got == oracle_equation_sum(coeffs, fs)


def class_routes():
    """Patch _class_sum to record its calls."""
    return mock.patch.object(counting, "_class_sum", wraps=counting._class_sum)


def test_equation_sum_by_frequency_classes_matches_literal_loop():
    # with the class length cut from 2^16 to 8..64 points, real input takes
    # the class route whenever its transform would pass that length, with
    # R = ceil((top + 1) / class length) classes; slabs of 1 to 8 values of
    # m (_EXP_BLOCK // 32) make each fold span several slabs
    classes = []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), t=st.integers(2, 4), n=st.integers(0, 40), unequal=st.booleans(),
           class_len=st.integers(8, 64), slab=st.integers(1, 8))
    def check(data, t, n, unequal, class_len, slab):
        coeffs, fs = draw_equation(data, t, n, False, unequal)
        with (mock.patch.object(fourier, "_CLASS_LEN", class_len),
              mock.patch.object(fourier, "_EXP_BLOCK", 32 * slab), class_routes() as route):
            got = counting.equation_sum(coeffs, fs)
        classes.extend(-(-(c.args[4] + 1) // class_len) for c in route.call_args_list)
        assert type(got) is float
        assert got == pytest.approx(oracle_equation_sum(coeffs, fs), rel=1e-9, abs=1e-9)

    check()
    assert len(classes) >= 20 and max(classes) >= 4
    # multiplicities 2 and 3 of dilated and reversed sequences, the read
    # sequence first and last, lengths that are no multiple of the class
    # length, and an empty sequence
    rng = np.random.default_rng(28)
    f, g, h = rng.uniform(-1, 1, 23), rng.uniform(-1, 1, 17), rng.uniform(-1, 1, 30)
    for coeffs, fs in (((-1, 1, 1), (h, f, f)), ((1, 1, -1), (f, f, h)),
                       ((5, -2, -2, 1), (g, f, f, h)), ((3, 3, 3, -5), (g, g, g, h)),
                       ((-2, -2, -2, 5), (g, g, g, f)), ((-4, 1, -1, 3), (f, g, h, g)),
                       ((2, -1, 1), (f, h, np.array([])))):
        for class_len, slab in ((8, 3), (13, 5), (20, 2048)):
            with (mock.patch.object(fourier, "_CLASS_LEN", class_len),
                  mock.patch.object(fourier, "_EXP_BLOCK", 32 * slab), class_routes() as route):
                got = counting.equation_sum(coeffs, fs)
            assert route.call_count == (fs[-1].size > 0)
            assert got == pytest.approx(oracle_equation_sum(coeffs, fs), rel=1e-12, abs=1e-12)


def test_equation_sum_keeps_bool_input_on_one_transform(monkeypatch):
    # exact counts round and margin-check each read value, which a class
    # total cannot give: bool input never takes the class route
    monkeypatch.setattr(fourier, "_CLASS_LEN", 8)
    rng = np.random.default_rng(29)
    f, g = rng.random(40) < 0.5, rng.random(27) < 0.5
    for coeffs, fs in (((-1, 1, 1), (f, g, g)), ((2, -3, 1), (g, f, f)), ((1, 1, -2), (f, f, g))):
        with class_routes() as route:
            got = counting.equation_sum(coeffs, fs)
        assert route.call_count == 0
        assert type(got) is int and got == oracle_equation_sum(coeffs, fs)
        with class_routes() as route:
            counting.equation_sum(coeffs, [x.astype(float) for x in fs])
        assert route.call_count == 1


def single_transform_sum(coeffs, fs):
    """equation_sum on (-s, a_1, ..., a_k), s and every a_i > 0, for real
    sequences, as one FFT product at the length of the linear convolution:
    f_i(x) is placed at a_i (x - 1), and the convolution is read at
    s x_0 - sum_i a_i against f_0(x_0)."""
    (s, *rest), (f0, *others) = coeffs, fs
    top = sum(a * (f.size - 1) for a, f in zip(rest, others))
    spec = 1.0
    for a, f in zip(rest, others):
        seq = np.zeros(top + 1)
        seq[: a * (f.size - 1) + 1 : a] = f
        spec = spec * np.fft.rfft(seq)
    conv = np.fft.irfft(spec, top + 1)
    n = -s * np.arange(1, f0.size + 1) - sum(rest)
    inside = (n >= 0) & (n <= top)
    return float(np.sum(f0[inside] * conv[n[inside]]))


def test_weighted_classes_match_a_single_transform(table_1e6, monkeypatch):
    # at 10^5 every transform is below 2^16 points; at 10^6 and 3*10^6 the
    # parity classes' transforms are read as R = 3 and R = 8 classes
    for N, table, R in ((10**5, table_1e6, None), (10**6, table_1e6, 3),
                        (3 * 10**6, arith.build_table(3 * 10**6), 8)):
        with class_routes() as route:
            got = counting.weighted_ap_average(table, N, 3)
        assert {-(-(c.args[4] + 1) // fourier._CLASS_LEN) for c in route.call_args_list} == (
            {R} if R else set())
        with monkeypatch.context() as patch:
            patch.setattr(counting, "equation_sum", single_transform_sum)
            want = counting.weighted_ap_average(table, N, 3)
        assert got == pytest.approx(want, rel=1e-12)


def test_equation_sum_refuses_a_wide_rounding_margin(monkeypatch):
    f = np.ones(50, dtype=bool)
    assert counting.equation_sum((1, -1), (f, f)) == 50  # x_1 = x_2
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    with pytest.raises(ArithmeticError, match="margin"):
        counting.equation_sum((1, -1), (f, f))
    with pytest.raises(ArithmeticError, match="margin"):
        counting.ap_sum((f, f, f))
    # real input is summed as it comes: 50 read values, each 0.3 too large
    assert counting.equation_sum((1, -1), (f, f.astype(float))) == pytest.approx(65.0)
    for wide in (0, 1):  # ap_sum's two parity classes: either one alone is refused
        calls = []

        def one_wide(*args, **kw):
            calls.append(None)
            return irfft(*args, **kw) + (0.3 if len(calls) == wide + 1 else 0.0)

        monkeypatch.setattr(np.fft, "irfft", one_wide)
        with pytest.raises(ArithmeticError, match="margin"):
            counting.ap_sum((f, f, f))
        assert len(calls) == wide + 1


def test_fft_length_is_the_smallest_5_smooth_length():
    def smooth(m):
        for q in (2, 3, 5):
            while m % q == 0:
                m //= q
        return m == 1

    for n in range(1, 5001):
        assert counting._fft_length(n) == next(m for m in itertools.count(n) if smooth(m))


def test_ap_sum_k3_transforms_at_most_n_entries(monkeypatch):
    lengths = []
    rfft = np.fft.rfft

    def recording(a, n=None, *args, **kw):
        lengths.append(n)
        return rfft(a, n, *args, **kw)

    monkeypatch.setattr(np.fft, "rfft", recording)
    rng = np.random.default_rng(3)
    for N in (2000, 2025):  # even and odd, both 5-smooth: no length is rounded past N
        for f in (rng.random(N) < 0.3, rng.random(N)):
            lengths.clear()
            counting.ap_sum((f, f, f))
            assert len(lengths) == 2 and max(lengths) <= N


def parity_calls():
    """Patch _parity_sum to record its calls: on the classes mod 6 it sees
    arrays of about N/6 entries, on the parity route the whole input."""
    return mock.patch.object(counting, "_parity_sum", wraps=counting._parity_sum)


def test_ap3_classes_mod_6_match_literal_loop(table_1e4):
    # Lambda is nonzero at n with gcd(n, 6) > 1 only on powers of 2 and 3,
    # the prime indicator only at 2 and 3: both take the classes mod 6
    sizes = set(range(1, 201))
    sizes |= {p**a + e for p, top in ((2, 10), (3, 6)) for a in range(1, top + 1) for e in (-1, 0, 1)}
    for N in sorted(sizes):
        for f in (table_1e4.is_prime[1 : N + 1], table_1e4.vonmangoldt[1 : N + 1]):
            with parity_calls() as parity:
                got = counting.ap_sum((f, f, f))
            assert [c.args[0].size for c in parity.call_args_list] == [(N + 5) // 6, (N + 1) // 6]
            want = oracle_ap_sum((f, f, f))
            if f.dtype == bool:
                assert type(got) is int and got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def draw_few_off_class(data, n: int, boolean: bool):
    """A drawn sequence on [1, n]: any values on the n prime to 6, and at
    most four other points."""
    coprime = np.gcd(np.arange(1, n + 1), 6) == 1
    off = np.flatnonzero(~coprime).tolist()
    dtype = bool if boolean else np.float64
    f = data.draw(arrays(dtype, n, elements=st.booleans() if boolean else st.floats(-1.0, 1.0),
                         fill=st.nothing()))
    keep = coprime.copy()
    if off:
        keep[list(data.draw(st.sets(st.sampled_from(off), max_size=4)))] = True
    return np.where(keep, f, 0).astype(dtype)


def test_ap3_classes_mod_6_with_a_few_off_class_points():
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 90), boolean=st.booleans(), shared=st.booleans())
    def check(data, n, boolean, shared):
        f = draw_few_off_class(data, n, boolean)
        g = f if shared else draw_few_off_class(data, n, boolean)
        with parity_calls() as parity:
            got = counting.ap_sum((f, g, f))
        assert [c.args[0].size for c in parity.call_args_list] == [(n + 5) // 6, (n + 1) // 6]
        want = oracle_ap_sum((f, g, f))
        if boolean:
            assert type(got) is int and got == want
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    check()


def test_class_split_matches_literal_loop():
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.sampled_from([3, 4, 5]), n=st.integers(1, 90),
           boolean=st.booleans(), sharing=st.sampled_from(["all", "ends", "none"]))
    def check(data, k, n, boolean, sharing):
        def draw():
            return draw_few_off_class(data, n, boolean)

        if sharing == "all":
            fs = [draw()] * k
        elif sharing == "ends":
            f = draw()
            fs = [f] + [draw() for _ in range(k - 2)] + [f]
        else:
            fs = [draw() for _ in range(k)]
        with mock.patch.object(counting, "_off_class_walk",
                               wraps=counting._off_class_walk) as walk:
            got = counting.ap_sum(fs)
        assert walk.call_count == 1
        want = oracle_ap_sum(fs)
        if boolean:
            assert type(got) is int and got == want
        else:
            assert type(got) is float and got == pytest.approx(want, rel=1e-9, abs=1e-9)

    check()


def test_k4_classes_mod_6_match_literal_loop(table_1e4):
    # every N mod 6 and the powers of 2 and 3 at either end of [1, N]
    sizes = set(range(1, 61)) | {64, 65, 81, 82, 127, 128, 243, 244}
    for N in sorted(sizes):
        for f in (table_1e4.is_prime[1 : N + 1], table_1e4.vonmangoldt[1 : N + 1]):
            for k in (4, 5):
                with mock.patch.object(counting, "_off_class_walk",
                                       wraps=counting._off_class_walk) as walk:
                    got = counting.ap_sum((f,) * k)
                assert walk.call_count == 1
                want = oracle_ap_sum((f,) * k)
                if f.dtype == bool:
                    assert type(got) is int and got == want
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_prime_progressions_past_k3_have_no_term_off_the_classes(table_1e4):
    # a prime k-AP with k >= 4 has 6 | d: an odd d makes p2 or p3 even and
    # above 2, and an even d prime to 3 puts a multiple of 3 above 3 among
    # p2, p3, p4. So no term is 2 or 3, and the walk from R = {2, 3} adds 0
    for N in (23, 100, 500, 1000, 10**4):
        view = counting._view(table_1e4.is_prime[1 : N + 1], 4 * N.bit_length())
        assert view.R.tolist() == [2, 3]
        for k in (4, 5):
            assert counting._off_class_walk([view] * k, True) == 0
        assert counting._off_class_walk([view] * 3, True) > 0  # (3, 5, 7) and more


def full_length_weighted(table, N, k, monkeypatch):
    """weighted_ap_average on the full-length Lambda column, without the
    class split: the parity route for k = 3, the support walk for k = 4."""
    lam = table.vonmangoldt[1 : N + 1]
    with monkeypatch.context() as patch:
        patch.setattr(counting, "_off_class_support", lambda f, budget: None)
        total = 2.0 * counting.ap_sum((lam,) * k)
    nz = lam[lam != 0]
    total += float(np.dot(nz * nz, nz * nz if k == 4 else nz))
    return total / (N + 2 * counting.ap_cells(N, k))


def test_weighted_never_reads_the_lambda_column(table_1e4, monkeypatch):
    class NoLambda(arith.ArithTable):
        @property
        def vonmangoldt(self):
            raise AssertionError("the Lambda column was read")

    blind = NoLambda(10**4, is_prime=table_1e4.is_prime)
    for N in (1, 7, 50, 2000, 10**4):
        for k in (3, 4):
            want = full_length_weighted(table_1e4, N, k, monkeypatch)
            assert counting.weighted_ap_average(blind, N, k) == pytest.approx(want, rel=1e-12)


def test_dense_off_class_support_keeps_the_parity_route():
    N = 5000
    members = np.random.default_rng(11).random(N) < 0.1  # an obstruction-like set
    for f in (members, members.astype(float), counting._inverse_log(N)):
        with parity_calls() as parity:
            counting.ap_sum((f, f, f))
        assert [c.args[0].size for c in parity.call_args_list] == [N]
    with parity_calls() as parity:
        counting.log_weight_sum(N, 3)
    assert [c.args[0].size for c in parity.call_args_list] == [N]


def test_weighted_classes_mod_6_match_the_parity_route(table_1e6, monkeypatch):
    N = 10**5
    with parity_calls() as parity:
        fast = counting.weighted_ap_average(table_1e6, N, 3)
    assert [c.args[0].size for c in parity.call_args_list] == [(N + 5) // 6, (N + 1) // 6]
    with parity_calls() as parity:
        slow = full_length_weighted(table_1e6, N, 3, monkeypatch)
    assert [c.args[0].size for c in parity.call_args_list] == [N]
    assert fast == pytest.approx(slow, rel=1e-12)


def test_ap3_stays_within_a_multiple_of_its_input(table_1e6, traced_peak):
    # at this N the parity route peaks at about 2.0x (Lambda) and 40x (the
    # prime indicator, whose spectra take 16 B per input byte) the input's
    # bytes; the classes mod 6 at about 0.67x and 7.0x. The weighted
    # average adds its d = 0 term on the prime powers only, where a
    # whole-length product of Lambda would alone be 1x
    N = 3 * 10**5
    lam, isp = table_1e6.vonmangoldt[1 : N + 1], table_1e6.is_prime[1 : N + 1]
    for f, bound in ((lam, 0.75), (isp, 7.5)):
        assert traced_peak(lambda: counting.ap_sum((f, f, f))) <= bound * f.nbytes
    assert traced_peak(lambda: counting.weighted_ap_average(table_1e6, N, 3)) <= 0.8 * lam.nbytes
    # with the sieve inside: Lambda is only ever made as its class arrays,
    # 1/3 of a full-length column, from sieved segments of the primality,
    # so a table that never held is_prime does not make it
    fresh_table = arith.build_table(N)
    fresh = traced_peak(lambda: counting.weighted_ap_average(fresh_table, N, 3))
    assert fresh <= 1.0 * 8 * N and "is_prime" not in fresh_table.__dict__


def test_count_ap_primes_frozen_examples(table_1e4):
    assert counting.count_ap_primes(table_1e4, 20, 3) == 5
    assert counting.count_ap_primes(table_1e4, 10, 3) == 1
    assert counting.count_ap_primes(table_1e4, 23, 4) == 1
    assert counting.count_ap_primes(table_1e4, 20, 4) == 0


def test_count_ap_primes_with_k_past_n_forms_no_progression(table_1e4):
    # no 10^6-term AP fits in [1, 100]: the count is 0 before any k-tuple of
    # columns is formed
    with mock.patch.object(counting, "ap_sum", side_effect=AssertionError("ap_sum called")):
        assert counting.count_ap_primes(table_1e4, 100, 10**6) == 0
        assert counting.ap_count_report(table_1e4, 100, 10**6).observed == 0.0


def test_off_class_walk_does_bounded_work_at_large_k(table_1e4):
    # each progression off the classes is keyed once, and a position's pairs
    # are looked up in one batch: at most a few positions look anything up,
    # one _lookup per other term each, whatever k is
    for k in (4, 5, 250, 1000):
        with mock.patch.object(counting, "_lookup", wraps=counting._lookup) as lookup, \
                mock.patch.object(counting, "_product_sum", wraps=counting._product_sum) as product:
            got = counting.count_ap_primes(table_1e4, 2000, k)
        if k < 250:
            assert got == oracle_ap_count(table_1e4, 2000, k)
        else:
            assert got == 0
            assert lookup.call_count <= 3 * (k - 1)
            assert product.call_count <= 33


def test_count_ap_primes_matches_oracle(table_1e4):
    for N in (23, 100, 500, 1000, 10**4):
        for k in (3, 4, 5):
            assert counting.count_ap_primes(table_1e4, N, k) == oracle_ap_count(
                table_1e4, N, k
            )


def test_count_monotone_increments_at_primes(table_1e4):
    prev = counting.count_ap_primes(table_1e4, 9, 3)  # (3,5,7) is already there
    for N in range(10, 301):
        cur = counting.count_ap_primes(table_1e4, N, 3)
        assert cur >= prev
        if cur > prev:
            assert table_1e4.is_prime[N]
        prev = cur


def test_count_validation(table_1e4):
    with pytest.raises(ValueError):
        counting.count_ap_primes(table_1e4, 10, 2)
    with pytest.raises(ValueError):
        counting.count_ap_primes(table_1e4, 10**5, 3)


def test_weighted_fft_equals_bruteforce(table_1e4):
    for N in (50, 500, 2000):
        fast = counting.weighted_ap_average(table_1e4, N, 3)
        slow = oracle_weighted_ap3(table_1e4, N)
        assert fast == pytest.approx(slow, rel=1e-9)


def test_weighted_zero_weights():
    N = 200
    zero = arith.ArithTable(
        limit=N,
        is_prime=np.zeros(N + 1, dtype=bool),
        mobius=np.zeros(N + 1, dtype=np.int8),
    )
    assert counting.weighted_ap_average(zero, N, 3) == 0.0
    assert counting.weighted_ap_average(zero, N, 4) == 0.0


def test_weighted_3ap_converges_to_singular_series(table_1e6):
    target = 4 * linsys.closed_form_S3(10**6)
    r5 = counting.weighted_ap_average(table_1e6, 10**5, 3) / target
    r4 = counting.weighted_ap_average(table_1e6, 10**4, 3) / target
    assert abs(r5 - 1) < abs(r4 - 1)
    assert abs(r5 - 1) < 0.1


def test_weighted_4ap_tracks_its_series(table_1e6):
    # S(A4) = 6 * S4 ~ 2.858; moderate N sits within ~15 percent
    avg = counting.weighted_ap_average(table_1e6, 3 * 10**4, 4)
    assert avg == pytest.approx(6 * linsys.closed_form_S4(10**4), rel=0.15)


def test_generic_count_matches_ap_counter(table_1e4):
    report = counting.generic_count(table_1e4, linsys.AP3, 20, mode="exact")
    assert report.extra["symmetry"] == 2
    assert report.extra["up_to_symmetry"] == 5.0
    assert report.observed == 2 * 5 + 8  # ordered: both orientations + 8 constant APs
    r4 = counting.generic_count(table_1e4, linsys.AP4, 2000, mode="exact")
    assert r4.extra["up_to_symmetry"] == counting.count_ap_primes(table_1e4, 2000, 4)


def test_generic_count_balog_equals_3ap(table_1e4):
    balog = linsys.new_system([[1, 1, -2]])
    a = counting.generic_count(table_1e4, balog, 50, mode="exact")
    b = counting.generic_count(table_1e4, linsys.AP3, 50, mode="exact")
    assert a.observed == b.observed
    assert a.extra["distinct"] == b.extra["distinct"]


def test_generic_count_montecarlo(table_1e4):
    exact = counting.generic_count(table_1e4, linsys.AP3, 10**4, mode="exact")
    mc = counting.generic_count(
        table_1e4, linsys.AP3, 10**4, mode="montecarlo", samples=10**6, seed=11
    )
    assert mc.method == "montecarlo" and mc.seed == 11
    assert mc.observed == pytest.approx(exact.observed, rel=0.05)


def test_generic_count_prediction_quality(table_1e4):
    report = counting.generic_count(table_1e4, linsys.AP3, 10**4, mode="exact")
    assert report.ratio == pytest.approx(1.0, abs=0.15)


def oracle_generic_count(table, row, N):
    """Literal loop over [1, N]^3: (observed, distinct, HL weight sum)."""
    isp = table.is_prime
    observed = distinct = 0
    hl_sum = 0.0
    for x in itertools.product(range(1, N + 1), repeat=3):
        if sum(a * v for a, v in zip(row, x)) != 0:
            continue
        if min(x) > 1:
            hl_sum += 1.0 / math.prod(math.log(v) for v in x)
        if all(isp[v] for v in x):
            observed += 1
            distinct += len(set(x)) == 3
    return observed, distinct, hl_sum


@pytest.mark.parametrize("row", [[1, 1, -2], [1, 2, -3], [2, 3, -5], [1, -1, 1]],
                         ids=["1,1,-2", "1,2,-3", "2,3,-5", "1,-1,1"])
def test_generic_count_matches_literal_enumeration(table_1e4, row):
    system = linsys.new_system([row])
    series = linsys.singular_series(system, 10**4).truncated_product
    with mock.patch.object(counting, "_equation_counts", wraps=counting._equation_counts) as fft, \
            mock.patch.object(counting, "_enumerate_counts",
                              wraps=counting._enumerate_counts) as walk:
        for N in (1, 2, 3, 5, 12, 30):
            report = counting.generic_count(table_1e4, system, N, mode="exact")
            observed, distinct, hl_sum = oracle_generic_count(table_1e4, row, N)
            assert report.method == "enumerate"
            assert report.observed == observed and report.extra["distinct"] == distinct
            assert report.predicted == pytest.approx(series * hl_sum, rel=1e-12, abs=1e-12)
    assert fft.call_count > 0 and walk.call_count > 0, "both routes should have run"


def test_generic_count_divides_rows_by_their_gcd(table_1e4):
    balog = linsys.new_system([[1, 1, -2]])
    scaled = linsys.new_system([[4 * 10**15, 4 * 10**15, -8 * 10**15]])
    for mode in ("exact", "montecarlo"):
        want = counting.generic_count(table_1e4, balog, 500, mode=mode, samples=10**4).to_dict()
        got = counting.generic_count(table_1e4, scaled, 500, mode=mode, samples=10**4).to_dict()
        assert got.pop("descriptor") == "4000000000000000,4000000000000000,-8000000000000000"
        want.pop("descriptor")
        assert got == want
    huge = linsys.new_system([[10**19, 1, -1]])  # x_2 - x_3 = -10^19 x_1: no box solution
    assert counting.generic_count(table_1e4, huge, 500).observed == 0.0
    with pytest.raises(ValueError, match="int64"):
        counting.generic_count(table_1e4, huge, 500, mode="montecarlo")
    wide = linsys.new_system([[1, -2, 1, 0], [0, 1, -2, 4 * 10**18 + 1]])
    with pytest.raises(ValueError, match="int64"):
        counting.generic_count(table_1e4, wide, 100)


def test_log_weight_sum_matches_literal_loop():
    for N in (0, 1, 2, 7, 60):
        for k in (3, 4, 5):
            want = sum(
                math.prod(1.0 / math.log(x + j * d) for j in range(k))
                for x in range(2, N + 1) for d in range(1, N) if x + (k - 1) * d <= N
            )
            assert counting.log_weight_sum(N, k) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_generic_count_validation(table_1e4):
    wide = linsys.new_system([[1, 1, 1, -1, -2]])  # t - s = 4
    with pytest.raises(counting.FreeRankTooLarge):
        counting.generic_count(table_1e4, wide, 100, mode="exact")
    with pytest.raises(ValueError):
        counting.generic_count(table_1e4, linsys.AP3, 100, mode="montecarlo", samples=10)
    with pytest.raises(ValueError):
        counting.generic_count(table_1e4, linsys.AP3, 100, mode="bogus")
    with pytest.raises(arith.CapacityError, match="samples"):
        counting.generic_count(table_1e4, linsys.AP3, 100, mode="montecarlo",
                               samples=counting.WORK_CAP + 1)


def test_prediction_values():
    n = 10**5
    assert counting.prediction(3, n) == pytest.approx(
        linsys.closed_form_S3(10**6) * n**2 / math.log(n) ** 3
    )
    assert counting.prediction(4, n) == pytest.approx(
        linsys.closed_form_S4(10**6) * n**2 / math.log(n) ** 4
    )
    assert linsys.singular_series(linsys.new_system([[1, 9, -27]])).truncated_product == 0.0
    with pytest.raises(ValueError):
        counting.prediction(3, 50)
    with pytest.raises(ValueError):
        counting.prediction(6, 10**4)


def test_count_report_serialization(table_1e4):
    report = counting.ap_count_report(table_1e4, 1000, 3)
    data = report.to_dict()
    for key in ("descriptor", "N", "observed", "predicted", "ratio", "method", "seed"):
        assert key in data
    assert data["method"] == "direct"
    assert data["observed"] == 1500.0
    weighted = counting.weighted_ap_report(table_1e4, 2000, 3)
    assert weighted.to_dict()["method"] == "fft"
