"""Exponential sums on [1, N], arc classification and bilinear sums.

Exponential sums over [1, N] are plain averages E_{n<=N} w(n) e(theta*n),
e(t) = exp(2*pi*i*t), evaluated by direct summation in blocks of 2^16
terms. exp_sums takes w as those blocks, for several theta in one pass:
every block but the last must hold exactly 2^16 terms (a stream such as
arith.vonmangoldt_blocks keeps its own block size, so a block of another
length is refused, not summed in another order), and exp_sum is exp_sums
on an array's slices, so both give the same bits.

The supremum over theta is searched on the grid xi/M2, M2 the power of
two >= oversample*N (grid error is bounded by the derivative bound
2*pi*N*E|w| per grid cell). That grid is never transformed whole: with
M2 = R*L it is read as R frequency classes xi = R*j + r, each one
transform of length L of the sequence folded mod L (the four-step split
of Bailey, "FFTs in external or hierarchical memory", J. Supercomputing
4, 1990), with L = min(M2, max(2^16, M2/128)), so at most 128 classes.
The classes are folded a group at a time (g*L = 2^17 points, two classes
at L = 2^16) by one small real matmul per block of the input, so the
input is read once per group and the memory beyond it is O(L). That fold
and twist is one kernel (_fold_pieces, _fold_classes) for a sequence
placed at any start and step of any cyclic length R*L, which
counting.equation_sum shares for its real sums past 2^16 points.

Arc classification follows the usual major/minor split: theta is major
when its best rational approximation a/q with q <= log^A N (continued
fractions, via Fraction.limit_denominator) satisfies
|theta - a/q| <= log^A N / (q*N).

Type I/II maximal bilinear sums: the Type I maximum over unit-l2
coefficients collapses to an l2 norm of inner sums (Cauchy-Schwarz with
equality); the Type II maximum is the top singular value of the matrix
f(w*d), computed by power iteration. Both keep real input real: a real
sequence and its complex cast give the same values bit for bit.

Every kernel reads its sequence in the dtype it is given (a table column
is bool, int8 or float64) and widens it one block or one fold at a time,
so an int8 input gives the values of its float64 cast bit for bit.
"""

from dataclasses import asdict, dataclass
from fractions import Fraction
import math

import numpy as np

from ._phase import frac01
from ._rng import Stream


@dataclass(frozen=True)
class ArcClassification:
    theta: float
    verdict: str  # "major" | "minor"
    a: int | None
    q: int | None


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, msg: str, last_value: float):
        super().__init__(msg)
        self.last_value = last_value


_EXP_BLOCK = 1 << 16  # terms per exp_sums block, elements per Type II gather
_CLASS_LEN = 1 << 16  # shortest class transform of sup_exp_sum, one _EXP_BLOCK
_MAX_CLASSES = 128  # sup_exp_sum's class length is at least M2 / _MAX_CLASSES
_GROUP_POINTS = 1 << 17  # g * L: the g complex folds of a group hold 2 MiB
_MAX_LOG_Q = 700  # log of the largest arc cap Q; a double overflows past e^709.78


def exp_sums(blocks, thetas) -> list[complex]:
    """E_{n<=N} w(n) e(theta*n) for each theta in thetas, in one pass over
    w's consecutive blocks of 2^16 terms, of which only the last may be
    shorter; a block of any other length is refused.

    Each block is taken once and summed for every theta, and each theta's
    total adds the block sums in order, so the blocks of a column give the
    values exp_sum gives on the column bit for bit. The phase theta*n is
    reduced mod 1 before exponentiation to keep the argument small.
    """
    thetas = tuple(thetas)
    totals = [0j] * len(thetas)
    N, last = 0, _EXP_BLOCK  # last: the length of the block before
    for block in blocks:
        w = np.asarray(block)
        if last != _EXP_BLOCK or w.size > _EXP_BLOCK:
            raise ValueError(f"need blocks of {_EXP_BLOCK} terms, only the last shorter")
        n = np.arange(N + 1, N + w.size + 1, dtype=np.float64)
        for i, theta in enumerate(thetas):
            totals[i] += np.sum(w * np.exp(2j * np.pi * frac01(theta * n)))
        N, last = N + w.size, w.size
    if N < 1:
        raise ValueError("need N >= 1")
    return [complex(total / N) for total in totals]


def exp_sum(weights, theta: float) -> complex:
    """E_{n<=N} w(n) e(theta*n): exp_sums on weights' slices of 2^16 terms.

    weights[i] is the weight at n = i+1.
    """
    w = np.asarray(weights)
    return exp_sums((w[lo : lo + _EXP_BLOCK] for lo in range(0, w.size, _EXP_BLOCK)), (theta,))[0]


def _padded_length(n: int) -> int:
    return 1 << max(1, int(math.ceil(math.log2(max(2, n)))))


def sup_exp_sum(weights, oversample: int = 4) -> tuple[float, float]:
    """Maximize |E_n w(n) e(theta*n)| over the grid xi/M2.

    M2 is the power-of-two grid length >= oversample*N. Returns
    (theta_star, value); ties resolve to the smallest grid frequency.

    With M2 = R*L, class r of the grid is one length-L transform of the
    input folded mod L and twisted (_fold_classes). Real input has
    |F(M2 - xi)| = |F(xi)|, so the classes r <= R/2 cover the grid an
    rfft of length M2 would read; class 0 is an rfft of the plain fold,
    and it is the only class when M2 <= 2^16.
    L = min(M2, max(2^16, M2/128)), so there are at most 128 classes and
    at most 33 fold blocks. The classes 1..R/2 are folded g = 2^17 // L
    (at least 1) at a time, so the input is read once per group, and the
    memory beyond it is the g folds (2 MiB), one transform output of L,
    the slab (at most 33 x 2^11 values) and pocketfft's scratch: 3.7 MiB
    traced at L = 2^16. tests/test_cli.py checks that the values do not
    depend on the BLAS thread count.
    Complex weights, which have no such mirror, are refused.
    """
    if oversample < 4:
        raise ValueError("oversample must be >= 4")
    w = np.asarray(weights)
    if np.iscomplexobj(w):
        raise ValueError("sup_exp_sum needs real weights: it reads classes past R/2 as mirrors")
    N = w.size
    if N < 1:
        raise ValueError("need N >= 1")
    M2 = _padded_length(oversample * N)
    L = min(M2, max(_CLASS_LEN, M2 // _MAX_CLASSES))
    R = M2 // L
    pieces = _fold_pieces(w, 1, 1, L)  # w(n) = w[n-1] sits at n
    g = min(R // 2, max(1, _GROUP_POINTS // L)) if R > 1 else 1
    # class 0's fold (and then its magnitudes) sits in the first L floats of
    # the g folds, and its rfft fills the head of the transform output
    folds = np.zeros((g, L) if R > 1 else L // 2, dtype=np.complex128)
    spec = np.empty(L if R > 1 else L // 2 + 1, dtype=np.complex128)
    mags = folds.reshape(-1).view(np.float64)[:L]
    for _, lo, view in pieces:
        for row in view:
            mags[lo : lo + row.size] += row
    mags0 = np.abs(np.fft.rfft(mags, out=spec[: L // 2 + 1]), out=mags[: L // 2 + 1])
    j = int(np.argmax(mags0))
    best, best_xi = mags0[j], R * j
    for r0 in range(1, R // 2 + 1, g):
        _fold_classes(pieces, 1, R, r0, folds, spec)
        for fold, r in zip(folds, range(r0, min(r0 + g, R // 2 + 1))):
            # the spent fold's floats take the magnitudes; this class holds
            # its own mirror images when 2r = R: keep xi <= M2/2
            cls = np.abs(np.fft.fft(fold, out=spec), out=fold.view(np.float64)[:L])
            cls = cls[: L // 2 if 2 * r == R else L]
            # among the top bins, the first has the least xi = R*j + r and
            # the last the least mirror M2 - xi
            first, last = int(np.argmax(cls)), cls.size - 1 - int(np.argmax(cls[::-1]))
            top, x = cls[first], min(R * first + r, M2 - (R * last + r))
            if top > best or (top == best and x < best_xi):
                best, best_xi = top, x
    return best_xi / M2, float(best / N)


def _fold_pieces(x, start: int, step: int, Lc: int):
    """x placed at the points start + step*t of a cyclic group of length
    R*Lc, cut into fold blocks of Lc: (fold block q, offset, 2-D view)
    pieces, whose rows are the blocks q, q + 1, ... and whose column c
    sits at m = offset + step*c of its block. A step of 1 takes the whole
    blocks as one view; a longer step takes one piece per block, every
    block from the first point's to the last's, empty ones too.
    """
    n = x.size
    if step > 1:
        pieces = []
        for q in range(start // Lc, (start + step * (n - 1)) // Lc + 1):
            a = max(0, -(-(q * Lc - start) // step))
            b = min(n, -(-((q + 1) * Lc - start) // step))
            pieces.append((q, start + step * a - q * Lc, x[a:b][None]))
        return pieces
    q, lo = divmod(start, Lc)
    head = min(n, Lc - lo)
    whole = (n - head) // Lc
    pieces = [(q, lo, x[:head][None])]
    if whole:
        pieces.append((q + 1, 0, x[head : head + whole * Lc].reshape(whole, Lc)))
    if head + whole * Lc < n:
        pieces.append((q + 1 + whole, 0, x[head + whole * Lc :][None]))
    return pieces


def _fold_classes(pieces, step: int, R: int, r0: int, folds, twist) -> None:
    """Fill folds[k] with class r = r0 + k of a placed sequence, as one
    transform of length Lc = folds.shape[1] reads it.

    With X(xi) = sum_n x_n e(-xi*n/L) for the sequence placed on Z_L,
    L = R*Lc (_fold_pieces), xi = R*j + r and n = m + Lc*q (0 <= m < Lc),
    X(R*j + r) is the length-Lc DFT at j of
    e(-r*m/L) * sum_q x_{m + Lc*q} e(-r*q/R): the sequence folded mod Lc,
    each fold block weighted, the fold twisted (the four-step split of
    Bailey). For each block of 2^11 values of m, the fold blocks' values
    there are widened into one float slab, and one real matmul by the
    group's cos/sin table gives the folds' real and imaginary parts, so
    the sequence is read once per call. twist is scratch of at least Lc.
    """
    g, Lc = folds.shape
    L = R * Lc
    q0 = pieces[0][0]
    Q = pieces[-1][0] + pieces[-1][2].shape[0] - q0
    # as floats, column 2k is Re e(-r_k*q/R) and column 2k+1 its Im
    qr = np.arange(q0, q0 + Q)[:, None] * np.arange(r0, r0 + g)
    table = np.exp(-2j * np.pi * (qr % R) / R)
    B = min(Lc, _EXP_BLOCK // 32)  # values of m per slab: 33 x 2^11 at most in sup_exp_sum
    slab = np.empty((Q, B))
    parts = np.empty((B, g), dtype=np.complex128)
    for i in range(0, Lc, B):
        for q, lo, view in pieces:
            a = max(0, -(-(i - lo) // step))  # the columns at m in [i, i + B)
            b = min(view.shape[1], -(-(i + B - lo) // step))
            rows = slice(q - q0, q - q0 + view.shape[0])
            if b - a < B:
                slab[rows] = 0.0
            if a < b:
                slab[rows, lo + step * a - i : lo + step * (b - 1) - i + 1 : step] = view[:, a:b]
        np.matmul(slab.T, table.view(np.float64), out=parts.view(np.float64))
        folds[:, i : i + B] = parts[: Lc - i].T
    # the twist e(-r*m/L) is an outer product over m = m1*L2 + m2, so each
    # class takes Lc/L2 + L2 exponentials, not Lc; r*m < L keeps them exact
    L2 = 1 << (Lc.bit_length() // 2)
    L1 = Lc // L2  # and a tail of Lc - L1*L2 < L2 values of m
    m1, m2 = np.arange(0, L1 * L2, L2), np.arange(L2)
    for fold, r in zip(folds, range(r0, r0 + g)):
        inner = np.exp(-2j * np.pi * (r * m2) / L)
        np.multiply.outer(np.exp(-2j * np.pi * (r * m1) / L), inner,
                          out=twist[: L1 * L2].reshape(L1, L2))
        np.multiply(np.exp(-2j * np.pi * (r * L1 * L2) / L), inner[: Lc - L1 * L2],
                    out=twist[L1 * L2 : Lc])
        fold *= twist[:Lc]


def classify_arc(theta: float, N: int, A: float) -> ArcClassification:
    """Major/minor verdict for theta in [0,1) at scale N with exponent A.

    Q = (log N)^A caps the denominator; the best rational a/q with
    q <= Q comes from the continued-fraction convergent machinery.
    Major iff |theta - a/q| <= Q/(q*N).
    """
    if not (0.0 <= theta < 1.0):
        raise ValueError(f"theta must lie in [0,1), got {theta}")
    if N < 10 or not 0 < A <= _MAX_LOG_Q / math.log(math.log(N)):
        raise ValueError(f"need N >= 10 and 0 < A with (log N)^A <= e^{_MAX_LOG_Q}, "
                         f"got N={N}, A={A}")
    Q = math.log(N) ** A
    qmax = max(1, int(Q))
    approx = Fraction(theta).limit_denominator(qmax)
    a, q = approx.numerator, approx.denominator
    eta = abs(theta - a / q)
    if eta <= Q / (q * N):
        return ArcClassification(theta=theta, verdict="major", a=a, q=q)
    return ArcClassification(theta=theta, verdict="minor", a=None, q=None)


def arc_sweep(thetas, N: int, A: float) -> list[dict]:
    """Classification report for a batch of thetas, JSON-ready."""
    return [asdict(classify_arc(t, N, A)) for t in thetas]


def type1_max(f, D: int) -> float:
    """max over unit-l2 (a_d) of |sum_{d in [D,2D)} a_d sum_{w < N/d} f(wd)|.

    Equals sqrt(sum_d |S_d|^2) with S_d = sum_{w>=1, wd<N} f(wd): the
    Cauchy-Schwarz equality case aligns a_d with conj(S_d). S_d sums a
    strided slice of f, its real and imaginary parts apart, so real input
    needs no complex copy and gives the value of its complex cast.
    """
    fv = np.asarray(f)
    N = fv.size
    if not (1 <= D <= N ** (2.0 / 3.0)):
        raise ValueError(f"need 1 <= D <= N^(2/3), got D={D}, N={N}")
    parts = (fv.real, fv.imag) if np.iscomplexobj(fv) else (fv,)
    total = 0.0
    for d in range(D, 2 * D):
        for part in parts:
            total += float(part[d - 1 : N - 1 : d].sum()) ** 2  # f(wd) for wd < N
    return math.sqrt(total)


def _type2_matvec(f: np.ndarray, ds: np.ndarray, ws: np.ndarray,
                  v: np.ndarray, conj: bool = False) -> np.ndarray:
    """(Av)_d = sum_w f(w*d) v_w, or sum_w conj(f(w*d)) v_w with conj, where
    f(n) = f[n - 1] on [1, N] and 0 past N. Each block gathers
    max(1, 2^16 // ws.size) rows from f itself into one int64 index and
    one complex128 row buffer, both made once: a megabyte temporary freed
    every block is handed back to the OS and faulted in again by the next
    (5,700 minor faults per type2_max call at D = W = 1000). The rows are
    cast to complex128 as rows @ v would cast them, so the values are that
    product's bit for bit."""
    out = np.empty(ds.size, dtype=np.complex128)
    block = max(1, _EXP_BLOCK // ws.size)
    idx = np.empty((min(block, ds.size), ws.size), dtype=np.int64)
    rows = np.empty(idx.shape, dtype=np.complex128)
    for lo in range(0, ds.size, block):
        hi = min(lo + block, ds.size)
        i, r = idx[: hi - lo], rows[: hi - lo]
        np.multiply.outer(ds[lo:hi], ws, out=i)
        i -= 1  # f(w*d) sits at w*d - 1; past N the clip reads f(N), zeroed
        gathered = f.take(i, mode="clip")
        gathered[i >= f.size] = 0
        np.copyto(r, gathered)
        if conj and np.iscomplexobj(f):  # a real row is its own conjugate
            np.conjugate(r, out=r)
        np.matmul(r, v, out=out[lo:hi])
    return out


def _start_vector(seed: int, size: int) -> np.ndarray:
    """A unit complex vector drawn from seed: entry i (from 0) has as real
    and imaginary parts draws 2i and 2i + 1 of uniform(-1, 1) on the
    package's one stream (_rng.Stream, numpy's default_rng sequence) seeded
    with seed mod 2^64, so every integer seed, negative too, picks one."""
    parts = Stream(seed % 2**64).uniform(-1.0, 1.0, 2 * size)
    v = parts[0::2] + 1j * parts[1::2]
    return v / np.linalg.norm(v)


def type2_max(f, D: int, W: int, rtol: float = 1e-6, max_iter: int = 10**4,
              seed: int = 7) -> float:
    """Top singular value of the matrix m(d, w) = f(w*d), dyadic ranges.

    d in [D,2D), w in [W,2W); entries with w*d > N are zero (f lives on
    [1, N]). Power iteration on A^H A until the value settles to rtol;
    raises PowerIterationError with the last iterate past max_iter. seed
    picks the start vector (_start_vector), so the value depends on it only
    within rtol. f is read in place, in its own dtype (real or complex),
    and each gathered block is conjugated for A^H, so real input gives the
    value of its complex cast.
    """
    fv = np.asarray(f)
    N = fv.size
    lo = N ** (1.0 / 3.0)
    if not lo <= D <= N ** (2.0 / 3.0):
        raise ValueError(f"need N^(1/3) <= D <= N^(2/3), got D={D}, N={N}")
    if not lo <= W <= N / D:
        raise ValueError(f"need N^(1/3) <= W <= N/D, got W={W}, D={D}, N={N}")
    ds = np.arange(D, 2 * D, dtype=np.int64)
    ws = np.arange(W, 2 * W, dtype=np.int64)

    v = _start_vector(seed, ws.size)
    sigma = 0.0
    for _ in range(max_iter):
        u = _type2_matvec(fv, ds, ws, v)
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return 0.0
        # back-multiply by A^H: (A^H u)_w = sum_d conj(f(w*d)) u_d
        vt = _type2_matvec(fv, ws, ds, u / nu, conj=True)
        nv = np.linalg.norm(vt)
        if nv == 0.0:
            return 0.0
        v = vt / nv
        prev, sigma = sigma, nv
        if abs(sigma - prev) <= rtol * 0.02 * max(sigma, 1e-300):
            return float(sigma)
    raise PowerIterationError(
        f"no convergence after {max_iter} iterations (last value {sigma})", float(sigma)
    )
