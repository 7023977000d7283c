import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hlmlab import cli, nilseq
from hlmlab.nilseq import ORIGIN, HeisenbergElement, HeisenbergPoint


def circle_gap(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def correlate(weights, seq) -> complex:
    """E_{n<=N} w(n) * seq(n), the full-length mean."""
    return complex(np.mean(np.asarray(weights, dtype=np.float64) * seq))


def test_frac_conventions():
    assert nilseq.frac_half(0.5) == 0.5
    assert nilseq.frac_half(-0.5) == 0.5
    assert nilseq.frac_half(0.3) == pytest.approx(0.3)
    assert nilseq.frac_half(0.7) == pytest.approx(-0.3)
    assert nilseq.nearest_int(0.5) == 0.0  # halves round down
    assert nilseq.nearest_int(1.5) == 1.0
    assert nilseq.nearest_int(-0.5) == -1.0
    assert nilseq.nearest_int(2.3) == 2.0


def test_reduce_examples():
    p = nilseq.reduce_point(0.2, 0.3, 0.1)
    assert (p.x, p.y, p.z) == (0.2, 0.3, 0.1)
    p = nilseq.reduce_point(0.5, 0.0, 1.0)
    assert (p.x, p.y, p.z) == (0.5, 0.5, 0.0)
    # -1e-17 + 1 rounds to 1.0, which must reduce to 0.0
    p = nilseq.reduce_point(-1e-17, 0.3, 0.0)
    assert (p.x, p.y, p.z) == (0.0, 0.3, 0.0)
    # t - 0.5 rounds for an odd t in [2^52, 2^53); [t] must still be t
    p = nilseq.reduce_point(0.0, 0.0, 2.0**52 + 1)
    assert p.z == 0.0  # z - [z], inside (-1/2, 1/2]


def test_reduce_idempotent(rng):
    for _ in range(10**4):
        raw = rng.uniform(-10, 10, 3)
        p = nilseq.reduce_point(*raw)
        q = nilseq.reduce_point(p.x, p.y, p.z)
        assert (p.x, p.y, p.z) == (q.x, q.y, q.z)
        assert 0 <= p.x < 1 and 0 <= p.y < 1 and -0.5 < p.z <= 0.5


def test_shift_degenerate_cases():
    p = HeisenbergPoint(0.3, 0.4, 0.2)
    q = nilseq.shift(HeisenbergElement(0, 0, 0), p)
    assert (q.x, q.y, q.z) == (0.3, 0.4, 0.2)
    alpha = math.sqrt(2)
    q = nilseq.shift(HeisenbergElement(alpha, 0, 0), ORIGIN)
    assert q.x == pytest.approx(alpha - 1) and q.y == 0 and q.z == 0


def test_closed_form_matches_iteration(rng):
    for _ in range(10):
        g = HeisenbergElement(*rng.uniform(-2, 2, 3))
        p = ORIGIN
        for n in range(1, 1001):
            p = nilseq.shift(g, p)
            if n in (1, 2, 3, 10, 100, 1000):
                c = nilseq.closed_form_orbit(g, n)
                assert circle_gap(p.x, c.x) < 1e-8
                assert circle_gap(p.y, c.y) < 1e-8
                assert circle_gap(p.z, c.z) < 1e-8


def test_closed_form_specific_element():
    g = HeisenbergElement(math.sqrt(2), 0.0, math.sqrt(3))
    p = ORIGIN
    for _ in range(100):
        p = nilseq.shift(g, p)
    c = nilseq.closed_form_orbit(g, 100)
    assert circle_gap(p.x, c.x) < 1e-9
    assert circle_gap(p.y, c.y) < 1e-9
    assert circle_gap(p.z, c.z) < 1e-9


def test_closed_form_degenerations():
    c = nilseq.closed_form_orbit(HeisenbergElement(0.3, 0.4, 0.5), 0)
    assert (c.x, c.y, c.z) == (0.0, 0.0, 0.0)
    beta = math.pi / 7
    c = nilseq.closed_form_orbit(HeisenbergElement(0.4, beta, 0.0), 9)
    assert c.y == pytest.approx((9 * beta) % 1.0, abs=1e-12)  # torus rotation
    assert c.z == 0.0
    with pytest.raises(ValueError):
        nilseq.closed_form_orbit(HeisenbergElement(0, 0, 0), -1)


def test_orbit_array_matches_scalar_iteration(rng):
    g = HeisenbergElement(math.sqrt(2), 0.1, math.sqrt(3))
    for start in (ORIGIN, HeisenbergPoint(0.3, 0.7, 0.25)):
        arr = nilseq.orbit_array(g, start, 800)
        p = start
        for n in range(800):
            p = nilseq.shift(g, p)
            assert circle_gap(p.x, arr[n, 0]) < 1e-8
            assert circle_gap(p.y, arr[n, 1]) < 1e-8
            assert circle_gap(p.z, arr[n, 2]) < 1e-8


def test_abelian_degeneration_exact(rng):
    beta = 1 / math.e
    for g in (HeisenbergElement(0.0, beta, 0.77), HeisenbergElement(0.77, beta, 0.0)):
        arr = nilseq.orbit_array(g, ORIGIN, 1000)
        expect = (np.arange(1, 1001) * beta) % 1.0
        assert np.abs(arr[:, 1] - expect).max() <= 1e-10


def test_constant_test_function_gives_constant_sequence():
    F = nilseq.TestFunction.torus_character(0, 0)  # F == 1 everywhere
    g = HeisenbergElement(math.sqrt(2), 0.3, math.sqrt(3))
    seq = nilseq.eval_nilsequence(F, g, ORIGIN, 100)
    assert np.abs(seq - 1.0).max() < 1e-12


def test_torus_character_is_linear_phase():
    theta = math.sqrt(2) - 1
    F = nilseq.TestFunction.torus_character(1, 0)
    seq = nilseq.eval_nilsequence(F, HeisenbergElement(theta, 0, 0), ORIGIN, 64)
    expect = np.exp(2j * np.pi * theta * np.arange(1, 65))
    assert np.abs(seq - expect).max() < 1e-12


def test_nilsequence_boundedness():
    for name, (F, g) in nilseq.default_battery().items():
        seq = nilseq.eval_nilsequence(F, g, ORIGIN, 5000)
        assert np.abs(seq).max() <= 1.0 + 1e-12, name


def test_vertical_character_sees_bracket_term():
    # with gamma irrational the bracket [n gamma] n alpha enters y; the
    # sequence must differ from any pure abelian phase e(n beta') by a lot
    g = HeisenbergElement(math.sqrt(2), 0.0, math.sqrt(3))
    F = nilseq.TestFunction.vertical_character(1)
    seq = nilseq.eval_nilsequence(F, g, ORIGIN, 4096)
    spec = np.abs(np.fft.fft(seq)) / seq.size
    assert spec.max() < 0.5  # no single frequency explains the sequence


def test_gluing_constraints():
    assert nilseq.TestFunction.vertical_character(1).gluing_defect() <= 1e-9
    assert nilseq.TestFunction.vertical_character(3).gluing_defect() <= 1e-9
    assert nilseq.TestFunction.torus_character(2, 5).gluing_defect() <= 1e-9


def test_lipschitz_estimates_finite():
    for F in (nilseq.TestFunction.vertical_character(1),
              nilseq.TestFunction.torus_character(1, 1)):
        assert 0 < F.lipschitz_estimate < 100


def test_lipschitz_estimate_is_made_when_first_read():
    F = nilseq.TestFunction.vertical_character(1)
    assert F.evaluate(0.25, 0.5, 0.0) == pytest.approx(-1.0)
    assert "lipschitz_estimate" not in F.__dict__
    value = F.lipschitz_estimate
    assert F.__dict__["lipschitz_estimate"] == value  # kept for every later read
    # seeded, so every instance estimates the same value
    assert nilseq.TestFunction.vertical_character(1).lipschitz_estimate == value


def bilinear_embedding(theta1, theta2, N):
    """theta1*n*{theta2*n} as 10*theta1*N {n/(10N)}{theta2 n} for n <= N."""
    b = np.zeros((2, 2))
    b[0, 1] = 10.0 * theta1 * N
    return nilseq.GeneralizedQuadratic.create(
        beta=b, gamma_coeffs=[0.0, 0.0], thetas=[1.0 / (10.0 * N), theta2]
    )


def test_gen_quadratic_zero_and_embeddings():
    q = nilseq.GeneralizedQuadratic.create([[0.0]], [0.0], [0.3])
    assert q.phase(17) == 0.0
    N = 1000
    theta = math.sqrt(2)
    q = nilseq.quadratic_embedding(theta, N)
    n = np.arange(1, N + 1)
    assert np.abs(q.phase(n) - theta * n**2).max() <= 1e-9 * (1 + theta * N**2)
    q2 = bilinear_embedding(0.7, math.sqrt(3), N)
    direct = 0.7 * n * nilseq.frac_half(math.sqrt(3) * n)
    assert np.abs(q2.phase(n) - direct).max() <= 1e-9 * (1 + 0.7 * N)
    vals = q2.value(n)
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-12


def test_gen_quadratic_validation():
    with pytest.raises(ValueError, match="dimension"):
        nilseq.GeneralizedQuadratic.create(
            np.zeros((100, 100)), np.zeros(100), np.ones(100)
        )
    with pytest.raises(ValueError, match="finite"):
        nilseq.GeneralizedQuadratic.create([[math.inf]], [0.0], [0.5])
    with pytest.raises(ValueError):
        nilseq.GeneralizedQuadratic.create([[0.0, 0.0]], [0.0], [0.5])


def test_davenport_direction_battery(table_1e6):
    mu = table_1e6.mobius[1 : 10**6 + 1]
    n = np.arange(1, 10**6 + 1)
    thetas = [1 / 3, 2 / 5, 1 / 7, 3 / 8, 5 / 11, 1 / 2, 1 / 6, 7 / 9, 2 / 11, 9 / 13,
              math.sqrt(2) - 1, (math.sqrt(5) - 1) / 2, 1 / math.pi, 1 / math.e,
              math.sqrt(3) - 1, 2 - math.sqrt(2), math.log(2), 0.123456789,
              math.sqrt(7) - 2, 5 - 2 * math.sqrt(5)]
    assert len(thetas) == 20
    for theta in thetas:
        seq = np.exp(2j * np.pi * np.mod(theta * n, 1.0))
        assert abs(correlate(mu, seq)) < 0.01


def test_mobius_battery_decay(table_1e6):
    small = nilseq.correlation_battery(table_1e6.mobius[1 : 10**3 + 1], 10**3)
    big = nilseq.correlation_battery(table_1e6.mobius[1 : 10**6 + 1], 10**6)
    assert set(small) == set(big) and len(small) == 5
    for name in small:
        assert big[name] <= 0.5 * small[name], name
        assert big[name] < 0.05


def test_battery_takes_its_support_one_block_at_a_time(table_1e6, traced_peak):
    # 1.8 MiB traced at both sizes, about seven float64 arrays of one block
    # of 2 _BLOCK values of n; with the whole support as int64 (4.9 MB at
    # 10^6 for mu) the battery traced 6.0 MiB at 10^6 and 10.7 MiB at 2 10^6
    mu = table_1e6.mobius[1:]
    block = 8 * 2 * nilseq._BLOCK
    half, full = (traced_peak(lambda: nilseq.correlation_battery(mu, N)) for N in (5 * 10**5, 10**6))
    assert full <= 12 * block
    assert full - half <= block  # nothing grows with N


def test_battery_of_int8_weights_equals_float64(table_1e6):
    # mu keeps its int8 dtype; 10^5 points hold four blocks of mu's support
    mu = table_1e6.mobius[1 : 10**5 + 1]
    assert nilseq.correlation_battery(mu, 10**5) == nilseq.correlation_battery(
        mu.astype(np.float64), 10**5)


def test_orbit_csv_export(tmp_path):
    # the CLI file is byte-for-byte what csv.writer makes of the orbit values,
    # within one block of rows and across several
    a, b, c = math.sqrt(2), 0.1, math.sqrt(3)
    path = tmp_path / "orbit.csv"
    for n_max in (50, 10_000):
        assert cli.main(["nilseq", "--alpha-g", repr(a), "--beta-g", repr(b),
                         "--gamma-g", repr(c), "--n", str(n_max), "--format", "csv",
                         "--out", str(path)]) == 0
        orbit = nilseq.orbit_array(HeisenbergElement(a, b, c), ORIGIN, n_max)
        vals = nilseq.TestFunction.vertical_character(1).evaluate(*orbit.T)
        expect = io.StringIO(newline="")
        wr = csv.writer(expect)
        wr.writerow(["n", "x", "y", "z", "re_F", "im_F"])
        for i in range(n_max):
            wr.writerow([i + 1, orbit[i, 0], orbit[i, 1], orbit[i, 2], vals[i].real, vals[i].imag])
        assert path.read_bytes() == expect.getvalue().encode()


@pytest.mark.parametrize("n_max", [10**8, 94_906_267])
def test_orbit_array_refuses_inexact_length_before_allocating(n_max):
    # n(n-1) must stay an exact double; 94_906_266 is the largest n_max that passes
    g = HeisenbergElement(math.sqrt(2), 0.1, math.sqrt(3))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^53"):
            nilseq.orbit_array(g, ORIGIN, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_orbit_blocks_match_one_block(monkeypatch):
    # every orbit fill is elementwise, so block boundaries change no bit
    g = HeisenbergElement(math.sqrt(2), 0.1, math.sqrt(3))
    x0 = HeisenbergPoint(0.25, 0.5, -0.125)
    F = nilseq.TestFunction.vertical_character(2)

    def run():
        return (nilseq.orbit_array(g, x0, 1000), nilseq.eval_nilsequence(F, g, x0, 1000),
                nilseq.nilsequence_table(F, g, x0, 1000))

    monkeypatch.setattr(nilseq, "_BLOCK", 2**40)
    orbit, seq, table = run()
    np.testing.assert_array_equal(seq, F.evaluate(*orbit.T))
    np.testing.assert_array_equal(table, np.column_stack([orbit, seq.real, seq.imag]))
    monkeypatch.setattr(nilseq, "_BLOCK", 7)  # 142 whole blocks and a part
    for got, want in zip(run(), (orbit, seq, table)):
        np.testing.assert_array_equal(got, want)


def test_nilsequence_blocks_are_the_table_rows(monkeypatch):
    g = HeisenbergElement(math.sqrt(2), 0.1, math.sqrt(3))
    x0 = HeisenbergPoint(0.25, 0.5, -0.125)
    F = nilseq.TestFunction.torus_character(2, -3)
    table = nilseq.nilsequence_table(F, g, x0, 1000)
    monkeypatch.setattr(nilseq, "_BLOCK", 7)  # 142 whole blocks and a part
    blocks = list(nilseq.nilsequence_blocks(F, g, x0, 1000))
    assert [lo for lo, _ in blocks] == list(range(0, 1000, 7))
    assert all(rows.shape == (min(7, 1000 - lo), 5) for lo, rows in blocks)
    np.testing.assert_array_equal(np.concatenate([rows for _, rows in blocks]), table)


HUGE_CHARACTERS = {
    "torus-m2": nilseq.TestFunction.torus_character(1, 10**308),
    "torus-m1": nilseq.TestFunction.torus_character(-(10**308), 0),
    "torus-sum": nilseq.TestFunction.torus_character(10**307, 2 * 10**307),
    "vertical": nilseq.TestFunction.vertical_character(10**308),
    "past-float": nilseq.TestFunction.vertical_character(10**400),
}


@pytest.mark.parametrize("F", HUGE_CHARACTERS.values(), ids=HUGE_CHARACTERS.keys())
def test_a_character_whose_phase_overflows_is_refused_before_evaluation(F, monkeypatch):
    def never(*pts):
        raise AssertionError("F evaluated")

    monkeypatch.setattr(F, "evaluate", never)
    g = HeisenbergElement(math.sqrt(2), 0.1, math.sqrt(3))
    for fill in (nilseq.eval_nilsequence, nilseq.nilsequence_blocks, nilseq.nilsequence_table):
        with pytest.raises(ValueError, match="overflows a double"):
            fill(F, g, ORIGIN, 100)


def test_a_huge_character_inside_the_bound_stays_finite():
    g = HeisenbergElement(math.sqrt(2), 0.1, math.sqrt(3))
    for F in (nilseq.TestFunction.torus_character(10**300, -(10**300)),
              nilseq.TestFunction.vertical_character(10**300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = nilseq.nilsequence_table(F, g, ORIGIN, 1000)
        assert np.isfinite(table).all()


OVERFLOWING = {
    "x-overflow": HeisenbergElement(1e308, 0.0, 0.0),
    "product-overflow": HeisenbergElement(1e200, 0.0, 1e200),
    "split-overflow": HeisenbergElement(1e301, 0.0, 0.0),
    "y-overflow": HeisenbergElement(1.0, 1e307, 0.0),
    "nan": HeisenbergElement(math.nan, 0.0, 0.0),
    "inf": HeisenbergElement(1.0, 0.0, math.inf),
}


@pytest.mark.parametrize("g", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_orbit_refuses_an_overflowing_g_before_allocating(g, traced_peak):
    F = nilseq.TestFunction.torus_character(1, 1)
    fills = (lambda: nilseq.orbit_array(g, ORIGIN, 10**6),
             lambda: nilseq.eval_nilsequence(F, g, ORIGIN, 10**6),
             lambda: nilseq.nilsequence_table(F, g, ORIGIN, 10**6))
    for fill in fills:
        def refuse():
            with pytest.raises(ValueError, match="finite|overflows"):
                fill()
        assert traced_peak(refuse) < 1 << 16  # each output would take 16 MB or more


def test_orbit_of_a_huge_finite_g_stays_finite():
    # huge but inside every bound: no overflow, no warning, every value reduced
    F = nilseq.TestFunction.vertical_character(1)
    cases = ((HeisenbergElement(1e300, 0.0, 0.0), 5),
             (HeisenbergElement(1e10, 3.0, 1e140), 10**5),
             (HeisenbergElement(-1e150, -1e150, 1e150), 100))
    for g, n_max in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = nilseq.nilsequence_table(F, g, ORIGIN, n_max)
        assert np.isfinite(table).all()
        assert (table[:, :2] >= 0.0).all() and (table[:, :2] < 1.0).all()


def test_battery_on_support_matches_full_length(table_1e6, rng):
    N = 10**5  # both supports span several evaluation blocks
    mu = table_1e6.mobius[1 : N + 1].astype(np.float64)
    sparse = rng.uniform(-1.0, 1.0, N) * (rng.uniform(size=N) < 0.5)
    for w in (mu, sparse):
        assert (w == 0).any()
        got = nilseq.correlation_battery(w, N)
        for name, (F, g) in nilseq.default_battery().items():
            full = abs(correlate(w, nilseq.eval_nilsequence(F, g, ORIGIN, N)))
            assert abs(got[name] - full) <= 1e-15, name
    with pytest.raises(ValueError, match="length"):
        nilseq.correlation_battery(mu[:100], 200)
