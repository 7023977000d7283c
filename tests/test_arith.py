import math
import os
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlmlab import arith


def trial_division_mu(n: int) -> int:
    """Independent Mobius oracle by literal factorization."""
    if n == 1:
        return 1
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def test_mobius_first_ten(table_1e4):
    assert table_1e4.mobius[1:11].tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert table_1e4.mobius[1:11].sum() == -1


def test_mobius_against_factorization_oracle(table_1e4):
    for n in range(1, 10**4 + 1):
        assert table_1e4.mobius[n] == trial_division_mu(n), n


def whole_array_mobius(N: int) -> np.ndarray:
    """The unsegmented sieve: mu and the int32 product of small primes on
    all of [0, N], then the one comparison pass."""
    mobius = np.ones(N + 1, dtype=np.int8)
    mobius[0] = 0
    small_prime_prod = np.ones(N + 1, dtype=np.int32)
    for p in np.flatnonzero(arith.prime_sieve(math.isqrt(N))).tolist():
        mobius[p::p] *= -1
        small_prime_prod[p::p] *= p
        mobius[p * p :: p * p] = 0
    mobius[small_prime_prod < np.arange(N + 1)] *= -1
    return mobius


def test_segmented_mobius_equals_the_whole_array_sieve():
    S = arith._SEGMENT
    for N in (1, 2, 10, S - 1, S, S + 1, 2 * S - 1, 2 * S + 1, 10**6, 2 * 10**6):
        assert np.array_equal(arith._mobius(N), whole_array_mobius(N)), N


def test_segmented_mobius_with_short_segments():
    # segments of 8-64 values put primes and their squares past a segment's
    # end and squares across segment boundaries, and comparison pieces of
    # 1-64 values split a segment unevenly
    @settings(max_examples=200, deadline=None)
    @given(N=st.integers(1, 5000), segment=st.integers(8, 64), block=st.integers(1, 64))
    def check(N, segment, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_SEGMENT", segment)
            mp.setattr(arith, "_BLOCK", block)
            assert np.array_equal(arith._mobius(N), whole_array_mobius(N))

    check()


def test_mobius_sieve_stays_near_its_two_columns(traced_peak):
    # mu (1 byte per n) is the one whole-length column: the int32 product of
    # small primes is one segment long, and the comparison works in pieces
    # of 2^16. At this N the whole-array sieve traced 9.91 MiB (5.2 B/n,
    # bound 6N), and the segmented one 3.29 MiB (1.7 B/n)
    N = 2 * 10**6
    assert traced_peak(lambda: arith._mobius(N)) <= N + (2 << 20)
    mu = arith._mobius(N)
    for n in [n for k in range(1, N >> 16) for n in range((k << 16) - 2, (k << 16) + 2)]:
        assert mu[n] == trial_division_mu(n), n


def test_mobius_divisor_sums_vanish(table_1e4):
    N = 10**4
    sums = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        sums[d::d] += table_1e4.mobius[d]
    assert sums[1] == 1
    assert (sums[2:] == 0).all()


def test_vonmangoldt_prime_power_values(table_1e4):
    assert table_1e4.vonmangoldt[8] == np.log(2.0)
    assert table_1e4.vonmangoldt[1] == 0.0
    # Lambda(p^k) is the same float as Lambda(p), exactly
    for p in (2, 3, 5, 7, 11, 31, 97):
        pk = p
        while pk <= 10**4:
            assert table_1e4.vonmangoldt[pk] == table_1e4.vonmangoldt[p]
            pk *= p
    # nonzero exactly at prime powers
    nz = np.nonzero(table_1e4.vonmangoldt)[0]
    for n in nz[:200]:
        m = int(n)
        smallest = next(d for d in range(2, m + 1) if m % d == 0)
        while m % smallest == 0:
            m //= smallest
        assert m == 1, f"{n} is not a prime power"


def test_vonmangoldt_divisor_sums_give_log(table_1e4):
    N = 10**4
    sums = np.zeros(N + 1)
    for d in range(1, N + 1):
        sums[d::d] += table_1e4.vonmangoldt[d]
    n = np.arange(1, N + 1)
    assert np.abs(sums[1:] - np.log(n)).max() < 1e-9


def test_prime_number_theorem_scale(table_1e6):
    mean = table_1e6.vonmangoldt[1:].mean()
    assert abs(mean - 1.0) <= 0.01


def test_chebyshev_band_everywhere_beyond_1e5(table_1e6):
    psi = np.cumsum(table_1e6.vonmangoldt[1:])
    n = np.arange(1, 10**6 + 1)
    ratios = psi[10**5 - 1 :] / n[10**5 - 1 :]
    assert ratios.min() >= 0.9 and ratios.max() <= 1.1


def test_mertens_inequality(table_1e6):
    m = np.cumsum(table_1e6.mobius[1:].astype(np.int64))
    n = np.arange(1, 10**6 + 1)
    assert (np.abs(m[9:]) <= n[9:] / 2).all()


def test_rebuild_is_bit_identical(table_1e4):
    again = arith.build_table(10**4)
    assert np.array_equal(table_1e4.is_prime, again.is_prime)
    assert np.array_equal(table_1e4.mobius, again.mobius)
    assert table_1e4.vonmangoldt.tobytes() == again.vonmangoldt.tobytes()


def test_capacity_cap(traced_peak):
    def refuse():
        with pytest.raises(arith.CapacityError):
            arith.build_table(arith.DEFAULT_LIMIT_CAP + 1)
    assert traced_peak(refuse) < 1 << 16  # refused before any column is made
    with pytest.raises(ValueError):
        arith.build_table(0)


def test_w_trick_single_value(table_1e4):
    params = arith.WTrickParams.create(2, 1)
    seq = arith.w_trick(table_1e4, params, 10)
    assert seq[0] == pytest.approx(math.log(3) / 2, abs=1e-12)  # n=1 -> Lambda(3)/2


def test_w_trick_mean_near_one(table_1e6):
    params = arith.WTrickParams.create(6, 1)
    seq = arith.w_trick(table_1e6, params, 10**5)
    assert abs(seq.mean() - 1.0) <= 0.05


def test_w_trick_rejections(table_1e4):
    with pytest.raises(ValueError, match="coprime"):
        arith.WTrickParams.create(6, 4)
    with pytest.raises(ValueError, match="squarefree"):
        arith.WTrickParams.create(12, 1)
    params = arith.WTrickParams.create(6, 1)
    with pytest.raises(ValueError, match="table limit"):
        arith.w_trick(table_1e4, params, 10**4)


def test_w_trick_equals_the_scaled_column(table_1e6):
    for W, b in ((2, 1), (6, 1), (6, 5), (30, 7)):
        params = arith.WTrickParams.create(W, b)
        N = (table_1e6.limit - b) // W
        want = params.scale * table_1e6.vonmangoldt[W * np.arange(1, N + 1) + b]
        assert arith.w_trick(table_1e6, params, N).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match=r"table limit 1000000 < W\*N\+b"):
            arith.w_trick(table_1e6, params, N + 1)


def test_vonmangoldt_classes_match_the_column(table_1e4, table_1e6):
    # N < 6 and every N mod 6; 25, 49 and 121 fall in the classes, 4, 8, 9
    # and 27 in R
    tables = [(N, arith.build_table(N)) for N in range(1, 41)]
    for N, tab in tables + [(10**4, table_1e4), (10**6, table_1e6)]:
        (ones, fives), R, values = arith.vonmangoldt_classes(tab, N)
        lam = tab.vonmangoldt
        assert ones.tobytes() == lam[1::6].tobytes()
        assert fives.tobytes() == lam[5::6].tobytes()
        assert np.array_equal(R, np.flatnonzero((np.gcd(np.arange(N + 1), 6) > 1) & (lam != 0)))
        assert values.tobytes() == lam[R].tobytes()
    assert {4, 8, 9, 27} <= set(R.tolist())
    assert ones[25 // 6] == fives[121 // 6] == lam[5] and ones[49 // 6] == lam[7]


def whole_array_prime_sieve(N: int) -> np.ndarray:
    """The unsegmented sieve: each prime's multiples from p^2 crossed off
    all of [0, N] at once."""
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


def test_segmented_prime_sieve_equals_the_whole_array_sieve():
    S = arith._SEGMENT
    for N in (*range(41), S - 1, S, S + 1, 10**6 + 7):
        assert np.array_equal(arith.prime_sieve(N), whole_array_prime_sieve(N)), N


def test_classes_from_sieved_segments_equal_the_classes_from_the_column():
    # a table that was never read sieves its segments afresh and never
    # makes is_prime; one holding the column reads the classes off it
    S = arith._SEGMENT
    for N, M in [(N, N) for N in range(1, 41)] + [(S + 1, S + 1), (10**6 + 7, 10**6 + 7),
                                                 (10**6 + 7, S - 1), (10**5, 5000)]:
        fresh = arith.build_table(N)
        got = arith.vonmangoldt_classes(fresh, M)
        assert "is_prime" not in fresh.__dict__
        want = arith.vonmangoldt_classes(arith.ArithTable(N, is_prime=whole_array_prime_sieve(N)), M)
        for a, b in zip((*got[0], *got[1:]), (*want[0], *want[1:])):
            assert a.tobytes() == b.tobytes(), (N, M)


def test_a_table_holding_its_column_hands_out_slices_of_it(tmp_path):
    S = arith._SEGMENT
    N = 2 * S + 5
    col = whole_array_prime_sieve(N)
    read = arith.build_table(N)
    read.is_prime
    arith.dump_table(read, tmp_path / "t.hlm2")
    tables = {"injected": arith.ArithTable(N, is_prime=col), "read": read,
              "loaded": arith.load_table(tmp_path / "t.hlm2")}
    with mock.patch.object(arith, "_prime_segments", side_effect=AssertionError("sieved")):
        for name, tab in tables.items():
            for M in (N, S + 3, 7):
                segs = list(tab.prime_segments(M))
                assert [lo for lo, _ in segs] == list(range(0, M + 1, S)), name
                assert all(np.shares_memory(seg, tab.is_prime) for _, seg in segs), name
                assert np.concatenate([seg for _, seg in segs]).tobytes() == col[: M + 1].tobytes()


def default_w_params(b: int = 1) -> arith.WTrickParams:
    """Product of the primes up to 5 (W = 30); w(N) is a free knob here."""
    return arith.WTrickParams.create(2 * 3 * 5, b)


def test_w_trick_default_params():
    params = default_w_params()
    assert params.W == 30 and params.b == 1
    assert params.scale == pytest.approx((1 / 2) * (2 / 3) * (4 / 5))


def test_balanced_function_cases():
    full = arith.balanced_function(np.ones(10, dtype=bool))
    assert np.abs(full).max() == 0.0
    empty = arith.balanced_function(np.zeros(7, dtype=bool))
    assert np.abs(empty).max() == 0.0
    evens = arith.balanced_function((np.arange(1, 11) % 2 == 0))
    assert np.abs(evens - np.where(np.arange(1, 11) % 2 == 0, 0.5, -0.5)).max() < 1e-12
    rng = np.random.default_rng(0)
    f = arith.balanced_function(rng.uniform(size=1000) < 0.3)
    assert abs(f.sum()) <= 1e-9 * 1000
    with pytest.raises(ValueError):
        arith.balanced_function(np.array([]))


def test_dump_load_roundtrip(tmp_path, table_1e4):
    path = tmp_path / "table.hlm2"
    arith.dump_table(table_1e4, path)
    raw = path.read_bytes()
    assert raw[:4] == b"HLM2"
    assert int.from_bytes(raw[4:12], "little") == 10**4
    assert len(raw) == 12 + 2 * 10**4  # is_prime and mu only
    back = arith.load_table(path)
    assert back.limit == table_1e4.limit
    assert np.array_equal(back.is_prime, table_1e4.is_prime)
    assert np.array_equal(back.mobius, table_1e4.mobius)
    assert back.vonmangoldt.tobytes() == table_1e4.vonmangoldt.tobytes()
    again = tmp_path / "again.bin"
    arith.dump_table(back, again)
    assert again.read_bytes() == raw


def test_load_reads_a_prefix_of_a_larger_file(tmp_path, table_1e4):
    path = tmp_path / "table.bin"
    arith.dump_table(table_1e4, path)
    fresh = arith.build_table(1000)
    prefix = arith.load_table(path, 1000)
    assert prefix.limit == 1000
    for name in ("is_prime", "mobius", "vonmangoldt"):
        assert getattr(prefix, name).tobytes() == getattr(fresh, name).tobytes()
    arith.dump_table(prefix, tmp_path / "prefix.bin")
    arith.dump_table(fresh, tmp_path / "fresh.bin")
    assert (tmp_path / "prefix.bin").read_bytes() == (tmp_path / "fresh.bin").read_bytes()


def test_prefix_load_refuses_past_the_file_and_reads_only_the_prefix(
        tmp_path, table_1e4, traced_peak):
    path = tmp_path / "table.bin"
    arith.dump_table(table_1e4, path)
    for N in (10**4 + 1, 0):
        def load():
            with pytest.raises(ValueError):
                arith.load_table(path, N)

        assert traced_peak(load) < 1 << 16  # refused before any column is made
    N = 5000  # the whole column would trace 10^4 bytes
    tab = arith.load_table(path, N)
    assert traced_peak(lambda: tab.mobius) <= 1.2 * (N + 1)
    assert np.array_equal(tab.mobius, table_1e4.mobius[: N + 1])


def test_load_rejects_corruption(tmp_path, table_1e4):
    path = tmp_path / "t.bin"
    arith.dump_table(table_1e4, path)
    data = bytearray(path.read_bytes())
    bad = tmp_path / "bad_magic.bin"
    bad.write_bytes(b"XXXX" + bytes(data[4:]))
    with pytest.raises(ValueError, match="magic"):
        arith.load_table(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(bytes(data[:-5]))
    with pytest.raises(ValueError, match="payload"):
        arith.load_table(short)
    cut = tmp_path / "cut_header.bin"
    cut.write_bytes(bytes(data[:7]))
    with pytest.raises(ValueError, match="header"):
        arith.load_table(cut)
    # the old HLM1 layout (is_prime, mu and Lambda as f64, 12 + 10 N bytes)
    old = tmp_path / "old.bin"
    old.write_bytes(b"HLM1" + bytes(data[4:]) + table_1e4.vonmangoldt[1:].astype("<f8").tobytes())
    with pytest.raises(ValueError, match="magic") as exc:
        arith.load_table(old)
    assert "\n" not in str(exc.value)


def test_columns_are_allocated_only_when_read(tmp_path, traced_peak):
    N = 10**5
    path = tmp_path / "table.bin"
    arith.dump_table(arith.build_table(N), path)
    assert traced_peak(lambda: arith.build_table(10**6)) < 1 << 16
    assert traced_peak(lambda: arith.load_table(path)) < 1 << 16
    tab = arith.load_table(path)
    # only mu's N + 1 bytes (and no staging copy of the file) for mu alone
    assert traced_peak(lambda: tab.mobius) <= 1.2 * (N + 1)
    assert np.array_equal(tab.mobius, arith.build_table(N).mobius)


def test_loaded_table_reads_the_file_it_checked(tmp_path, table_1e4):
    path = tmp_path / "table.bin"
    arith.dump_table(table_1e4, path)
    tab = arith.load_table(path)
    other = tmp_path / "other.bin"
    arith.dump_table(arith.build_table(10**3), other)
    os.replace(other, path)  # a later read still sees the checked file
    assert tab.vonmangoldt.tobytes() == table_1e4.vonmangoldt.tobytes()


def test_dump_writes_the_columns_without_copies(tmp_path, table_1e6, traced_peak):
    # both stored columns are made first, so only the dump itself is traced
    for col in (table_1e6.is_prime, table_1e6.mobius):
        assert col.size == 10**6 + 1
    assert traced_peak(lambda: arith.dump_table(table_1e6, tmp_path / "t.bin")) < 1 << 20


@pytest.mark.parametrize("N", [1, 2, 2**16 - 1, 2**16, 2**16 + 1, 10**5])
def test_vonmangoldt_blocks_are_the_column(N):
    fresh = arith.build_table(N)
    blocks = list(arith.vonmangoldt_blocks(fresh))
    assert "vonmangoldt" not in fresh.__dict__  # built from is_prime alone
    starts = range(1, N + 1, 1 << 16)
    assert [b.size for b in blocks] == [min(1 << 16, N + 1 - lo) for lo in starts]
    column = arith.build_table(N).vonmangoldt
    assert np.concatenate(blocks).tobytes() == column[1:].tobytes()


def test_dump_never_makes_lambda(tmp_path, traced_peak):
    # is_prime and mu are made first; the file holds no Lambda, so the dump
    # makes neither its 8 B/n column (8 MB here) nor a block of it
    tab = arith.build_table(10**6)
    tab.is_prime, tab.mobius
    build = mock.Mock(wraps=arith.vonmangoldt_progression)
    with mock.patch.object(arith, "vonmangoldt_progression", build):
        assert traced_peak(lambda: arith.dump_table(tab, tmp_path / "t.hlm2")) <= 4 * 8 << 16
    assert "vonmangoldt" not in tab.__dict__ and not build.called


def test_load_refuses_a_huge_header_before_allocating(tmp_path, traced_peak):
    path = tmp_path / "huge.bin"
    path.write_bytes(arith.MAGIC + struct.pack("<Q", 2**40) + bytes(100))

    def load():
        with pytest.raises(ValueError, match="payload"):
            arith.load_table(path)

    assert traced_peak(load) < 1 << 20
