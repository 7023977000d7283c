"""Gowers uniformity norms on Z/M and multilinear AP averages.

The U^k norm averages a function over k-dimensional additive
parallelepipeds:

    ||f||_{U^k}^{2^k} = E_{x, h_1..h_k} prod_{w in {0,1}^k} C^{|w|} f(x + w.h),

with C conjugation (a no-op on real input, which stays float64). The
fast routes recurse through multiplicative derivatives, all taken by
one batched kernel (_derivatives):

    ||f||_{U^k}^{2^k} = E_h ||D_h f||_{U^(k-1)}^{2^(k-1)},
    D_h f(x) = f(x) conj(f(x + h)).

"recursive" takes k-1 derivatives down to the U^1 base |E_x g|^2 and
uses no spectrum; "fft" takes k-2 and ends in the exact U^2 base
||g||_{U^2}^4 = sum_xi |ghat(xi)|^4 (half spectrum for real rows).
Up to M = 128 (_GEMM_MAX_M) that spectrum is one matrix product of the
derivative block with a cached DFT table, reduced in one pass with no
square root; above it, rfft (fft for complex rows). pocketfft has no
fast radix at a prime M: per (M x M) block the product measured 4-8x
faster at M = 97, 101 and 127 and 1.7-1.9x at M = 16 and 64, level at
M = 100 and 128, and 1.3-2x slower at M = 256, where its table also
grows as M^2 (OpenBLAS, 1 and 2 threads). "bruteforce" is the
independent oracle: the literal parallelepiped average in its own code,
with no derivative. They agree to 1e-10 at small M; the test suite
pins this.

Every route works in blocks of about 2^16 elements (_BLOCK, one row of
M at the least): a derivative block holds that many values, and the
brute force sums its tensor over a slice of max(1, _BLOCK // M^k)
values of h_1 at a time. So the memory beyond the input is O(_BLOCK)
per level of the recursion, whatever M is.

ap_average is the multilinear solution-count form for the k-term AP
system on Z/M, E_{x,d} prod_i f_i(x + (i-1)d); it requires
gcd(M, (k-1)!) = 1 so the AP coefficients are invertible, which makes
the generalized von Neumann bound hold with constant exactly 1:

    |ap_average(f_1..f_k)| <= min_i ||f_i||_{U^(k-1)}    (|f_i| <= 1).

Its index tables (x + j d) mod M are cached per (M, j) while M^2 fits
one block. The DFT and index tables are built on first use, never at
import, and are read-only.
"""

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

UK_CAPS = {3: 4096, 4: 256}
BRUTEFORCE_CAP = 10**8
_BLOCK = 2**16  # elements in one derivative or brute-force block
_GEMM_MAX_M = 128  # the U^2 base is one GEMM against a DFT table up to this M


def _as_vector(f) -> np.ndarray:
    """f as float64 when real, complex128 otherwise."""
    v = np.asarray(f)
    v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=False)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-d sequence on Z/M with M >= 2")
    return v


def _derivatives(V: np.ndarray, hs: np.ndarray):
    """Yield D_h V[i] for each row i and shift h in hs, i-major, in blocks of
    about _BLOCK elements (one row of M at the least)."""
    R, M = V.shape
    h_step = max(1, min(hs.size, _BLOCK // M))
    r_step = max(1, _BLOCK // (h_step * M))
    for r in range(0, R, r_step):
        rows = V[r : r + r_step]
        # window h of a doubled row is x -> V[i, (x + h) mod M]
        doubled = np.concatenate([rows, rows], axis=1)
        row_stride, step = doubled.strides
        shifted = as_strided(doubled, (rows.shape[0], M + 1, M), (row_stride, step, step),
                             writeable=False)
        for j in range(0, hs.size, h_step):
            g = shifted[:, hs[j : j + h_step]]
            if np.iscomplexobj(g):
                np.conj(g, out=g)
            np.multiply(rows[:, None, :], g, out=g)
            yield g.reshape(-1, M)


def _u1_power(V: np.ndarray) -> np.ndarray:
    """|E_x V[i]|^2 per row."""
    return np.abs(V.mean(axis=1)) ** 2


@functools.lru_cache(maxsize=8)
def _dft_table(M: int, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """(T, w): V @ T is the DFT of the rows of V and w weighs its bins.

    Real rows: T holds cos and -sin of 2 pi x xi / M interleaved, column
    2 xi and 2 xi + 1, over the M//2 + 1 bins of the half spectrum, with
    w = 2 on every bin but 0 and Nyquist. Complex rows: T = e(-x xi / M)
    over all M bins, with w = 1. Both are read-only. x xi is reduced
    mod M before it becomes an angle.
    """
    bins = np.arange(M // 2 + 1 if real else M)
    angle = (2 * np.pi / M) * (np.arange(M)[:, None] * bins % M)
    if real:
        table = np.stack([np.cos(angle), -np.sin(angle)], axis=2).reshape(M, -1)
        weights = np.where((bins == 0) | (2 * bins == M), 1.0, 2.0)
    else:
        table, weights = np.exp(-1j * angle), np.ones(M)
    table.flags.writeable = weights.flags.writeable = False
    return table, weights


def _u2_power(V: np.ndarray) -> np.ndarray:
    """sum_xi |Vhat[i](xi)|^4 per row, under the averaged transform:
    one GEMM against a cached DFT table up to _GEMM_MAX_M (the module
    docstring says why), rfft or fft above it."""
    M = V.shape[1]
    real = not np.iscomplexobj(V)
    if M <= _GEMM_MAX_M:
        table, weights = _dft_table(M, real)
        s = (V @ table).view(np.float64)  # re, im interleaved per bin
        s *= s
        p = s[:, 0::2] + s[:, 1::2]
        p *= p
        return (p @ weights) / M**4
    a = np.abs((np.fft.rfft if real else np.fft.fft)(V, axis=1)) / M
    a *= a
    a *= a
    if real:  # |fhat(-xi)| = |fhat(xi)|: twice each bin but 0 and Nyquist
        a[:, 1 : (M + 1) // 2] *= 2.0
    return a.sum(axis=1)


def _power_sum(V: np.ndarray, depth: int, base) -> float:
    """Sum of base over the depth-fold derivatives of every row of V."""
    if depth == 0:
        return float(base(V).sum())
    blocks = _derivatives(V, np.arange(V.shape[1]))
    return sum(_power_sum(g, depth - 1, base) for g in blocks)


def u2_norm(f) -> float:
    """(sum_xi |fhat(xi)|^4)^(1/4) under the averaged transform."""
    return uk_norm(f, 2)


def _check_k(k: int) -> None:
    """Every route's k range, checked before any power of M."""
    if not 2 <= k <= 4:
        raise ValueError(f"supported range is 2 <= k <= 4, got k={k}")


def uk_norm(f, k: int, method: str = "fft") -> float:
    """U^k norm on Z/M for 2 <= k <= 4 (M capped at 4096/256 for k=3/4)."""
    v = _as_vector(f)
    _check_k(k)
    cap = UK_CAPS.get(k)
    if cap is not None and v.size > cap:
        raise ValueError(f"M={v.size} beyond the k={k} cap {cap}")
    if method not in ("fft", "recursive"):
        raise ValueError(f"unknown method {method!r}")
    depth, base = (k - 2, _u2_power) if method == "fft" else (k - 1, _u1_power)
    power = _power_sum(v[None, :], depth, base) / v.size**depth
    return max(power, 0.0) ** (1.0 / 2**k)


def uk_norm_bruteforce(f, k: int) -> float:
    """Literal parallelepiped average over (x, h_1..h_k) in (Z/M)^(k+1),
    summed over h_1 in slices of max(1, _BLOCK // M^k) values."""
    v = _as_vector(f)
    M = v.size
    _check_k(k)
    if M ** (k + 1) > BRUTEFORCE_CAP:
        raise ValueError(f"M^(k+1) = {M**(k+1)} beyond cap {BRUTEFORCE_CAP}")
    tiled = np.tile(v, k + 1)  # x + w.h < (k+1) M: no reduction mod M
    base = np.arange(M)
    x = base.reshape((1,) * k + (M,))

    def tensor_sum(h1_values: np.ndarray) -> float:
        # axes (h_1, ..., h_k, x): a slice of h_1 values times (Z/M)^k
        hs = [h1_values] + [base] * (k - 1)
        axes = [h.reshape((1,) * i + (h.size,) + (1,) * (k - i)) for i, h in enumerate(hs)]
        acc = None
        for bits in range(2**k - 1, -1, -1):  # all ones first: the full shape
            term = tiled[x + sum(axes[i] for i in range(k) if bits >> i & 1)]
            if np.iscomplexobj(term) and bin(bits).count("1") % 2 == 1:
                np.conj(term, out=term)
            acc = term if acc is None else np.multiply(acc, term, out=acc)
        return float(np.sum(acc).real)

    step = max(1, _BLOCK // M**k)
    total = sum(tensor_sum(base[lo : lo + step]) for lo in range(0, M, step))
    return max(total / M ** (k + 1), 0.0) ** (1.0 / 2**k)


def ap_average(fs) -> complex:
    """E_{x,d in Z/M} prod_i f_i(x + (i-1)d) for k = len(fs) functions."""
    vs = [_as_vector(f) for f in fs]
    k = len(vs)
    if k < 2:
        raise ValueError("need at least two functions")
    M = vs[0].size
    if any(v.size != M for v in vs):
        raise ValueError("all functions must live on the same Z/M")
    if math.gcd(M, math.factorial(k - 1)) != 1:
        raise ValueError(f"need gcd(M, (k-1)!) = 1, got M={M}, k={k}")
    # tables of one block or less are cached; a larger M builds each in turn
    index = _ap_index if M * M <= _BLOCK else _ap_index.__wrapped__
    acc = vs[0][:, None]  # column; broadcasts to (M, M) at the first multiply
    for j in range(1, k):
        acc = acc * vs[j][index(M, j)]
    return complex(acc.mean())


@functools.lru_cache(maxsize=8)
def _ap_index(M: int, j: int) -> np.ndarray:
    """The read-only (M, M) table (x + j d) mod M over (x, d)."""
    table = (np.arange(M)[:, None] + j * np.arange(M)) % M
    table.flags.writeable = False
    return table


def ap_average_spectral(f1, f2, f3) -> complex:
    """3-AP average via sum_xi fhat1(xi) fhat2(-2xi) fhat3(xi), M odd.

    The exact Fourier identity for E over x1 - 2x2 + x3 = 0 on Z/M.
    """
    v1, v2, v3 = (_as_vector(f) for f in (f1, f2, f3))
    M = v1.size
    if M % 2 == 0:
        raise ValueError("need odd M")
    h1 = np.fft.fft(v1) / M
    h2 = np.fft.fft(v2) / M
    h3 = np.fft.fft(v3) / M
    xi = np.arange(M)
    return complex(np.sum(h1 * h2[(-2 * xi) % M] * h3))


def inverse_u2_witness(f) -> tuple[int, float, float]:
    """Largest Fourier coefficient as a structure witness.

    Returns (xi_star, |fhat(xi_star)|, u2) with the guarantee
    |fhat(xi_star)| >= u2^2 whenever max|f| <= 1: on Z/M,
    sum |fhat|^4 <= sup|fhat|^2 * E|f|^2 <= sup|fhat|^2.
    """
    v = _as_vector(f)
    if np.max(np.abs(v)) > 1.0 + 1e-12:
        raise ValueError("witness guarantee needs max|f| <= 1")
    spec = np.abs(np.fft.fft(v) / v.size)
    xi = int(np.argmax(spec))
    u2 = float(np.sum(spec**4)) ** 0.25
    return xi, float(spec[xi]), u2
