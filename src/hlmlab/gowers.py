"""Gowers uniformity norms on Z/M and multilinear AP averages.

The U^k norm averages a function over k-dimensional additive
parallelepipeds:

    ||f||_{U^k}^{2^k} = E_{x, h_1..h_k} prod_{w in {0,1}^k} C^{|w|} f(x + w.h),

with C conjugation (present on odd |w| in complex mode; the real mode
drops it). Equivalent recursion used by the fast paths:

    ||f||_{U^k}^{2^k} = E_h ||D_h f||_{U^(k-1)}^{2^(k-1)},
    D_h f(x) = f(x) conj(f(x + h)),

and on Z/M the base case is exact in frequency space:

    ||f||_{U^2}^4 = sum_xi |fhat(xi)|^4.

Three independent routes (method enum): "fft" recurses to the U^2
spectral identity, "recursive" recurses all the way to the U^1 mean,
"bruteforce" is the literal parallelepiped average. They agree to
1e-10 at small M; the test suite pins this.

ap_average is the multilinear solution-count form for the k-term AP
system on Z/M, E_{x,d} prod_i f_i(x + (i-1)d); it requires
gcd(M, (k-1)!) = 1 so the AP coefficients are invertible, which makes
the generalized von Neumann bound hold with constant exactly 1:

    |ap_average(f_1..f_k)| <= min_i ||f_i||_{U^(k-1)}    (|f_i| <= 1).
"""

import math

import numpy as np

UK_CAPS = {3: 4096, 4: 256}
BRUTEFORCE_CAP = 10**8


def _as_complex(f) -> np.ndarray:
    v = np.asarray(f, dtype=np.complex128)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-d sequence on Z/M with M >= 2")
    return v


def u2_norm(f) -> float:
    """(sum_xi |fhat(xi)|^4)^(1/4) under the averaged transform."""
    v = _as_complex(f)
    spec = np.abs(np.fft.fft(v) / v.size)
    return float(np.sum(spec**4)) ** 0.25


def _u2_pow4(v: np.ndarray) -> float:
    spec = np.abs(np.fft.fft(v) / v.size)
    return float(np.sum(spec**4))


def _uk_pow_fft(v: np.ndarray, k: int, h_block: int = 256) -> float:
    """||v||_{U^k}^{2^k} by recursion with the spectral U^2 base."""
    M = v.size
    if k == 2:
        return _u2_pow4(v)
    total = 0.0
    for lo in range(0, M, h_block):
        hs = np.arange(lo, min(lo + h_block, M))
        # rows: D_h v for each h in the block
        rolled = v[(np.arange(M)[None, :] + hs[:, None]) % M]
        diff = v[None, :] * np.conj(rolled)
        if k == 3:
            spec = np.abs(np.fft.fft(diff, axis=1) / M)
            total += float(np.sum(spec**4))
        else:
            for row in diff:
                total += _uk_pow_fft(row, k - 1)
    return total / M


def _uk_pow_recursive(v: np.ndarray, k: int) -> float:
    """||v||_{U^k}^{2^k} by recursion down to the U^1 mean."""
    M = v.size
    if k == 1:
        return abs(np.mean(v)) ** 2
    total = 0.0
    for h in range(M):
        total += _uk_pow_recursive(v * np.conj(np.roll(v, -h)), k - 1)
    return total / M


def uk_norm(f, k: int, method: str = "fft") -> float:
    """U^k norm on Z/M for 2 <= k <= 4 (M capped at 4096/256 for k=3/4)."""
    v = _as_complex(f)
    if not 2 <= k <= 4:
        raise ValueError("supported range is 2 <= k <= 4")
    cap = UK_CAPS.get(k)
    if cap is not None and v.size > cap:
        raise ValueError(f"M={v.size} beyond the k={k} cap {cap}")
    if method == "fft":
        power = _uk_pow_fft(v, k)
    elif method == "recursive":
        power = _uk_pow_recursive(v, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    return max(power, 0.0) ** (1.0 / 2**k)


def uk_norm_bruteforce(f, k: int) -> float:
    """Literal parallelepiped average over (x, h_1..h_k) in (Z/M)^(k+1)."""
    v = _as_complex(f)
    M = v.size
    if M ** (k + 1) > BRUTEFORCE_CAP:
        raise ValueError(f"M^(k+1) = {M**(k+1)} beyond cap {BRUTEFORCE_CAP}")
    base = np.arange(M)
    # axes: (h_1, ..., h_(k-1); x, h_k handled inside the chunk product)
    # full broadcast when small, else chunked over h_1
    def tensor_sum(h1_values: np.ndarray) -> float:
        shape_axes = [h1_values] + [base] * (k - 1) + [base]  # h1, h2..hk, x
        acc = None
        for bits in range(2**k):
            idx = shape_axes[-1].reshape((1,) * k + (M,)).copy()
            for i in range(k):
                if bits >> i & 1:
                    hi = shape_axes[i]
                    idx = idx + hi.reshape((1,) * i + (hi.size,) + (1,) * (k - i))
            term = v[np.mod(idx, M)]
            if bin(bits).count("1") % 2 == 1:
                term = np.conj(term)
            acc = term if acc is None else acc * term
        return float(np.sum(acc).real)

    if M ** (k + 1) <= 2**22:
        total = tensor_sum(base)
    else:
        total = sum(tensor_sum(np.array([h1])) for h1 in range(M))
    return max(total / M ** (k + 1), 0.0) ** (1.0 / 2**k)


def u3_norm_sampled(f, samples: int = 512, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo U^3 estimate for large M: sample h, FFT each D_h f.

    Returns (estimate, standard error of the norm estimate). Intended
    for M beyond the exact k=3 cap; seeded and reproducible.
    """
    v = _as_complex(f)
    M = v.size
    rng = np.random.default_rng(seed)
    hs = rng.integers(0, M, size=samples)
    vals = np.empty(samples)
    for i, h in enumerate(hs):
        vals[i] = _u2_pow4(v * np.conj(np.roll(v, -int(h))))
    mean = float(vals.mean())
    se_mean = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    norm = max(mean, 0.0) ** 0.125
    se = se_mean / (8.0 * max(norm, 1e-12) ** 7)  # delta method through x^(1/8)
    return norm, se


def ap_average(fs, M: int | None = None) -> complex:
    """E_{x,d in Z/M} prod_i f_i(x + (i-1)d) for k = len(fs) functions."""
    vs = [_as_complex(f) for f in fs]
    k = len(vs)
    if k < 2:
        raise ValueError("need at least two functions")
    M = vs[0].size if M is None else M
    if any(v.size != M for v in vs):
        raise ValueError("all functions must live on the same Z/M")
    if math.gcd(M, math.factorial(k - 1)) != 1:
        raise ValueError(f"need gcd(M, (k-1)!) = 1, got M={M}, k={k}")
    x = np.arange(M)[:, None]
    d = np.arange(M)[None, :]
    acc = vs[0][x]  # column; broadcasts to (M, M) at the first multiply
    for j in range(1, k):
        acc = acc * vs[j][(x + j * d) % M]
    return complex(acc.mean())


def ap_average_spectral(f1, f2, f3) -> complex:
    """3-AP average via sum_xi fhat1(xi) fhat2(-2xi) fhat3(xi), M odd.

    The exact Fourier identity for E over x1 - 2x2 + x3 = 0 on Z/M.
    """
    v1, v2, v3 = (_as_complex(f) for f in (f1, f2, f3))
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
    v = _as_complex(f)
    if np.max(np.abs(v)) > 1.0 + 1e-12:
        raise ValueError("witness guarantee needs max|f| <= 1")
    spec = np.abs(np.fft.fft(v) / v.size)
    xi = int(np.argmax(spec))
    u2 = float(np.sum(spec**4)) ** 0.25
    return xi, float(spec[xi]), u2
