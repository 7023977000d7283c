"""Counting prime solutions of linear systems, with asymptotic predictions.

Two kernels carry every count. equation_sum sums prod_i f_i(x_i) over
x_i in [1, N_i] on one equation sum_i a_i x_i = 0 by the circle-method
identity on a cyclic group long enough to hold the linear convolution of
the dilated sequences: as one FFT product at a 5-smooth length when the
input is bool (exact counts) or that length is at most 2^16, and else
from the spectra alone, one frequency class of about 2^16 points at a
time (Parseval against the read sequence), so its transforms take O(2^16)
memory at any N. ap_sum sums prod_j f_j(x + j d) over x and d >= 1 for
k sequences on [1, N].

Every prime progression sum, counted or Lambda-weighted and of any k,
takes one route: the W-trick with W = 6. Each sequence is read as its
view, the class arrays 1 and 5 mod 6 plus its values on the sparse set
R of n with gcd(n, 6) > 1 where it is nonzero (2 and 3 for the prime
indicator, the powers of 2 and 3 for Lambda). A progression with every
term prime to 6 has 6 | d and lies in one class, where it is summed on
arrays about N/6 long; every other progression is walked from R, keyed
on its first term there. ap_sum builds the views from full-length
sequences when each R is sparse; weighted_ap_average builds Lambda's
from the table's primality segments (arith.vonmangoldt_classes), with
no is_prime column the table does not hold already. Dense input, such
as the obstruction sets and the log weights, keeps the whole-array
routes: for k = 3 with f_1 = f_3, x + z = 2y split by the parity of x
and z (W = 2), each class one equation_sum on (-1, 1, 1), about N long;
otherwise a walk over d: for bool input on packed 64-bit words, 64
shifted copies of each sequence whose words a block of d-steps ANDs
and popcounts in a few numpy calls (_packed_walk); for real input from
the support of f_1 when it has fewer nonzeros than there are d-steps,
and with whole-array products otherwise. The class parts take these
same routes on the class arrays. Every other walk ends in one product
kernel, _product_sum: the terms of a family of progressions, as aligned
slices, multiplied in place into one buffer per walk and counted (bool)
or summed (real).

  * count_ap_primes: exact number of p_1 < ... < p_k <= N in arithmetic
    progression (genuine primes, strictly increasing), ap_sum of the
    prime indicator.
  * weighted_ap_average: E of Lambda(x_1)...Lambda(x_k) over the integer
    solutions of the AP system in [1, N]^k — all solutions, any sign of
    d including d = 0 (that is the normalization of the expectation:
    divide by the number of integer solutions in the box).
  * generic_count: any validated system, at most WORK_CAP cells or
    samples. Exact counts of one equation go through equation_sum when
    its FFT length is below the N^(t-s) cells; other exact counts
    enumerate the t - s <= 2 free coordinates; Monte Carlo samples them.
  * log_weight_sum: the finite-N weight sum of the increasing k-APs,
    sum of prod_j 1/log(x + j d) over x >= 2, d >= 1.

Predictions: the truncated singular-series constants give

    #(increasing k-AP of primes <= N) ~ S_k N^2 / log^k N,   k = 3, 4,

and the weighted average tends to the full product of local factors.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations, permutations
import math
from typing import NamedTuple

import numpy as np

from . import fourier
from ._rng import Stream
from .arith import ArithTable, CapacityError, vonmangoldt_classes
from .linsys import (LinearSystem, _bareiss, _digits, ap_system, closed_form_S3, closed_form_S4,
                     primitive_system, singular_series)

WORK_CAP = 10**8  # exact cells or Monte Carlo samples in one generic_count
PREDICTION_P0 = 10**6  # primes p <= P0 in prediction's singular-series products
_CHUNK = 1 << 20  # cells or samples per vectorized pass
_WORD_BLOCK = 1 << 16  # uint64 words in one block of the packed walk
_BLOCK_STEPS = 64  # values of d in one block of the packed walk, which bound its zero pad


class FreeRankTooLarge(ValueError):
    """Exact enumeration needs t - s <= 2 free coordinates."""


@dataclass
class CountReport:
    """Observed-vs-predicted record for one counting run."""

    descriptor: str
    N: int
    observed: float
    predicted: float
    method: str  # direct | fft | enumerate | montecarlo
    seed: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.observed / self.predicted if self.predicted != 0 else math.inf

    def to_dict(self) -> dict:
        d = {
            "descriptor": self.descriptor,
            "N": self.N,
            "observed": self.observed,
            "predicted": self.predicted,
            "ratio": self.ratio if self.predicted != 0 else None,
            "method": self.method,
            "seed": self.seed,
        }
        d.update(self.extra)
        return d


def equation_sum(coeffs, fs):
    """Sum over x with x_i in [1, N_i] and sum_i a_i x_i = 0 of prod_i fs[i][x_i].

    fs holds t sequences, fs[i] on [1, N_i] with N_i its length; a zero
    coefficient leaves its coordinate free. Every sequence but the one of
    the largest |a_i| is dilated by its a_i (reversed where a_i < 0), and
    their linear convolution is read against that sequence, at that
    stride. A repeated (sequence, coefficient) pair shares one spectrum,
    raised to its multiplicity in place. All-bool inputs give an exact
    int from one FFT product: the inverse transform of the product of the
    spectra, at the 5-smooth length L above the convolution, each read
    value rounded (ArithmeticError when one is 0.25 or more from an
    integer). Any other real inputs give a float: the same product when
    L <= 2^16, and else the sum read off the spectra by frequency classes
    (_class_sum), with no transform longer than about 2^16 points.
    """
    fs = [np.asarray(f) for f in fs]
    coeffs = [int(a) for a in coeffs]
    if len(coeffs) != len(fs):
        raise ValueError("need one coefficient per sequence")
    if any(f.ndim != 1 for f in fs):
        raise ValueError("sequences must be 1-D")
    exact = all(f.dtype == bool for f in fs)
    free = 1 if exact else 1.0
    terms = []
    for a, f in zip(coeffs, fs):
        if a == 0:
            free *= int(np.count_nonzero(f)) if exact else float(f.sum())
        else:
            terms.append((a, f))
    if not terms:
        return free
    if len(terms) == 1 or any(f.size == 0 for _, f in terms):
        return free * 0  # a x = 0 has no solution x >= 1, and [1, 0] is empty
    r = max(range(len(terms)), key=lambda i: abs(terms[i][0]))
    sign = -1 if terms[r][0] > 0 else 1  # so that the read coefficient is negative
    stride, f_r = abs(terms[r][0]), terms[r][1]
    groups = {}  # (sequence, coefficient) -> [sequence, coefficient, multiplicity]
    for i, (a, f) in enumerate(terms):
        if i != r:
            groups.setdefault((id(f), sign * a), [f, sign * a, 0])[2] += 1
    # the other coordinates sum to index sum_i a_i (x_i - 1) + sum_{a_i < 0} |a_i| (N_i - 1)
    # of the convolution, which the equation makes base + stride (x_r - 1)
    top = sum(abs(a) * m * (f.size - 1) for f, a, m in groups.values())
    base = stride + sum(-a * m * f.size if a < 0 else -a * m for f, a, m in groups.values())
    lo, hi = max(0, -(base // stride)), min(f_r.size - 1, (top - base) // stride)
    if lo > hi:
        return free * 0
    L = _fft_length(top + 1)
    if not exact and L > fourier._CLASS_LEN:
        return free * _class_sum(groups.values(), f_r[lo : hi + 1], base + stride * lo, stride, top)
    spec = None
    for f, a, m in groups.values():
        if abs(a) == 1:
            seq = f if a > 0 else f[::-1]
        else:  # f(x) at a (x - 1), or at |a| (N_i - x) for a < 0
            seq = np.zeros(abs(a) * (f.size - 1) + 1)
            seq[:: abs(a)] = f if a > 0 else f[::-1]
        s = np.fft.rfft(seq, L)
        if m > 1:
            s **= m
        if spec is None:
            spec = s
        else:
            spec *= s
    conv = np.fft.irfft(spec, L)
    read = conv[base + stride * lo : base + stride * hi + 1 : stride]
    f_r = f_r[lo : hi + 1]
    if not exact:
        # read is a view into conv, so the product allocates nothing; numpy's
        # own sum keeps the value off BLAS and its thread count
        return free * float(np.multiply(read, f_r, out=read).sum())
    rounded = np.rint(read)
    margin = float(np.abs(read - rounded).max())
    if margin >= 0.25:
        raise ArithmeticError(f"FFT rounding margin {margin:.3g} >= 0.25: count not exact")
    return free * int(rounded[f_r].sum())


def _class_sum(groups, read, start: int, stride: int, top: int) -> float:
    """sum_t read[t] conv(start + stride t), conv the linear convolution of
    the groups' dilated sequences (support [0, top]), by frequency classes.

    By Parseval on Z_L, the sum is (1/L) sum_xi conj(H(xi)) prod_i S_i(xi)^m_i,
    H the read sequence placed at its read points. With R = ceil((top + 1)
    / 2^16) and L = R Lc, Lc the 5-smooth length >= (top + 1) / R, class
    xi = R j + r of each spectrum is one Lc-point FFT of a twisted fold
    (fourier._fold_classes), so no transform is longer than about 2^16.
    Every sequence is real, so class R - r is the mirror image of class r:
    classes 0 .. R/2 are summed, those with 0 < r < R/2 twice.
    """
    R = -(-(top + 1) // fourier._CLASS_LEN)
    Lc = _fft_length(-(-(top + 1) // R))
    # f(x) sits at a (x - 1), or at |a| (N_i - x) for a < 0
    placed = [(fourier._fold_pieces(f if a > 0 else f[::-1], 0, abs(a), Lc), abs(a), m)
              for f, a, m in groups]
    read_pieces = fourier._fold_pieces(read, start, stride, Lc)
    fold = np.empty((1, Lc), dtype=np.complex128)
    spec, acc = np.empty(Lc, dtype=np.complex128), np.empty(Lc, dtype=np.complex128)
    total = 0.0
    for r in range(R // 2 + 1):
        # spec is the twist's scratch until the fold is transformed into it
        fourier._fold_classes(read_pieces, stride, R, r, fold, spec)
        np.conjugate(np.fft.fft(fold[0], out=acc), out=acc)
        for pieces, step, m in placed:
            fourier._fold_classes(pieces, step, R, r, fold, spec)
            s = np.fft.fft(fold[0], out=spec)
            if m > 1:
                s **= m
            acc *= s
        # numpy's own sum keeps the value off BLAS and its thread count
        part = float(acc.real.sum())
        total += part if 2 * r in (0, R) else 2.0 * part
    return total / (R * Lc)


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: equation_sum's FFT length for a
    linear convolution of n entries, a length pocketfft transforms fast."""
    best = 1 << max(n - 1, 0).bit_length()
    odd = 1  # 3^b 5^c
    while odd < best:
        part = odd
        while part < best:
            best = min(best, part << max(-(-n // part) - 1, 0).bit_length())
            part *= 3
        odd *= 5
    return best


def ap_sum(fs):
    """Sum over x and over d >= 1 of prod_j fs[j][x + j d].

    fs holds k >= 3 sequences on [1, N], all of length N; x runs over the
    progressions that lie inside [1, N]. All-bool inputs give an exact
    int, any other real inputs a float. When every sequence is nonzero at
    few n with gcd(n, 6) > 1, as Lambda and the prime indicator are, the
    sum is split by the W-trick with W = 6 (_class_split): each sequence
    is read as its class arrays 1 and 5 mod 6 and its values on that
    sparse off-class support R. Otherwise, and on each class part, k = 3
    with fs[0] equal to fs[2] splits x and z by parity (W = 2), every
    transform about as long as its input; every other all-bool case
    walks d on packed 64-bit words, a block of d-steps per numpy call; a
    non-bool input whose fs[0] has fewer nonzeros on its anchor range
    than there are d-steps is summed from that support, one strided
    product per anchor; every other case walks d with whole-array
    products. Each product of the real walks, the class split and the
    parity route is one _product_sum call.
    """
    fs = [np.asarray(f) for f in fs]
    k = len(fs)
    if k < 3:
        raise ValueError("need k >= 3 sequences")
    N = fs[0].size
    if any(f.ndim != 1 or f.size != N for f in fs):
        raise ValueError("sequences must be 1-D and of one length")
    exact = all(f.dtype == bool for f in fs)
    if k == 3 and fs[2] is not fs[0] and np.array_equal(fs[0], fs[2]):
        fs[2] = fs[0]
    # The parity route runs four transforms of about N entries, some
    # 10 N log2 N flops, and the class route 1/6 of that; for k = 3 a point
    # of R walks strided products of about N flops in all, so walking pays
    # up to about 8 log2 N points; 4 log2 N for each sequence leaves room
    # for the strided reads. For k >= 4 the class parts walk 1/18 of the
    # whole-array walk, which leaves far more room
    budget = 4 * max(N, 1).bit_length()
    views = {}
    for f in fs:
        if id(f) not in views:
            views[id(f)] = _view(f, budget)
            if views[id(f)] is None:
                return _walk(fs, exact)
    return _class_split([views[id(f)] for f in fs], exact)


class _View(NamedTuple):
    """A sequence f on [1, N] as the W-trick with W = 6 reads it: its class
    arrays (f(1 + 6m), f(5 + 6m)), and its values at R, the n with
    gcd(n, 6) > 1 where f is nonzero, ascending."""

    N: int
    classes: tuple
    R: np.ndarray
    values: np.ndarray


def _view(f, budget: int):
    """The W = 6 view of f on [1, N], or None when more than budget n
    with gcd(n, 6) > 1 hold a nonzero f(n)."""
    R = _off_class_support(f, budget)
    if R is None:
        return None
    return _View(f.size, tuple(np.ascontiguousarray(f[b - 1 :: 6]) for b in (1, 5)),
                 R, f[R - 1])


def _class_split(views, exact: bool):
    """ap_sum from the W = 6 views of its k sequences.

    A progression whose terms are all prime to 6 is odd throughout, so
    2 | d, and misses 0 mod 3, so 3 | d: it lies in one class b in {1, 5}
    at step d/6 of the class arrays, and each class is one ap_sum route
    on arrays about N/6 long (the parity split for k = 3 with f_1 = f_3).
    Every other progression has a term in R and is walked from there by
    _off_class_walk.
    """
    total = sum(_walk([v.classes[c] for v in views], exact) for c in (0, 1))
    return total + _off_class_walk(views, exact)


def _off_class_walk(views, exact: bool):
    """The part of ap_sum over the progressions with a term n where
    gcd(n, 6) > 1, read from the views only.

    Each progression is keyed once, on its first such term (position i,
    value r in R_i) and the residue e of d mod 6, e = 6 for 6 | d. Terms
    six places apart agree mod 6, so i < 6, and e fixes the class of
    every other term: a key with an earlier term off the classes is
    skipped. If every later term is prime to 6 too, d = e + 6t walks each
    term at stride j - i on its class array: one product of k - 1 class
    slices per (i, r, e). Otherwise the first later term off the classes,
    at position j, lies in R_j and fixes d = (s - r)/(j - i). Each pair
    (r, d) is reached once; position i's pairs, over every r and e, are
    looked up term by term in one batch.
    """
    k, N = len(views), views[0].N
    dtype = bool if exact else np.float64
    # d <= (N - 1) // (k - 1), so a class walk d = e + 6t, e >= 1, has at most this many terms
    buf = np.empty(((N - 1) // (k - 1) + 5) // 6, dtype=dtype)
    Rs = [v.R.tolist() for v in views]
    total = 0 if exact else 0.0
    for i, v in enumerate(views[:6]):
        at, ds = [], []
        for a, (r, val) in enumerate(zip(Rs[i], v.values.tolist())):
            # the longest d with x = r - i d >= 1 and r + (k - 1 - i) d <= N
            dmax = min((r - 1) // i if i else N, (N - r) // (k - 1 - i) if i < k - 1 else N)
            for e in range(1, min(dmax, 6) + 1):
                # terms six places apart agree mod 6, so this sees every earlier
                # term and the first later one off the classes
                off = [j for j in range(min(i + 7, k))
                       if j != i and (r + (j - i) * e) % 6 not in (1, 5)]
                if not off:
                    T = (dmax - e) // 6 + 1
                    starts = {j: r + (j - i) * e for j in range(k) if j != i}
                    parts = [views[j].classes[n % 6 == 5][n // 6 :: j - i][:T]
                             for j, n in starts.items()]
                    total += val * _product_sum(parts, buf)
                elif off[0] > i:  # else an earlier term keys the progression
                    j = off[0]
                    start, stop = r + (j - i) * e, r + (j - i) * dmax
                    pinned = Rs[j][bisect_left(Rs[j], start) : bisect_right(Rs[j], stop)]
                    found = [(s - r) // (j - i) for s in pinned if (s - start) % (6 * (j - i)) == 0]
                    at += [a] * len(found)
                    ds += found
        if ds:
            idx, d = np.array(at), np.array(ds)
            r = v.R[idx]
            parts = [v.values[idx]] + [_lookup(views[j], r + (j - i) * d)
                                       for j in range(k) if j != i]
            total += _product_sum(parts, np.empty(idx.size, dtype=dtype))
    return total


def _lookup(view, n):
    """The viewed sequence at each n of an int array of points in [1, N]."""
    out = np.zeros(n.shape, dtype=view.values.dtype)
    cls = n % 6
    for b, arr in zip((1, 5), view.classes):
        at = cls == b
        out[at] = arr[n[at] // 6]
    if view.R.size:
        pos = np.minimum(np.searchsorted(view.R, n), view.R.size - 1)
        hit = view.R[pos] == n
        out[hit] = view.values[pos[hit]]
    return out


def _off_class_support(f, budget: int):
    """The n in [1, N] with gcd(n, 6) > 1 and f(n) != 0, ascending, or
    None when there are more than budget of them."""
    even, threes = f[1::2], f[2::6]
    if np.count_nonzero(even) + np.count_nonzero(threes) > budget:
        return None  # counted first, so dense input allocates nothing here
    return np.sort(np.concatenate((2 * np.flatnonzero(even) + 2, 6 * np.flatnonzero(threes) + 3)))


def _parity_sum(f, g, exact: bool):
    """ap_sum of (f, g, f) with x and z split by parity (the W-trick with W = 2).

    The progressions from 1 are one product, f(1) g(1 + d) f(1 + 2d); in
    the rest x, z >= 2 share a parity, and x = 2u, z = 2w give u + w = y,
    x = 2u + 1, z = 2w + 1 give u + w = y - 1, over u, w >= 1: each class
    is equation_sum on (-1, 1, 1) of g (one place on for the odd class)
    against two copies of the class of f, so every transform is about N
    long. The sum over both classes, less the diagonal x = z, is halved,
    as d < 0 mirrors d > 0.
    """
    even, odd = f[1::2], f[2::2]
    both = (equation_sum((-1, 1, 1), (g, even, even))
            + equation_sum((-1, 1, 1), (g[1:], odd, odd)))
    buf = np.empty(max(f.size - 1, 0), dtype=bool if exact else np.float64)
    # f[:1] is f(1), or empty when N = 0
    start = f[:1].sum().item() * _product_sum([g[1 : odd.size + 1], odd], buf)
    diagonal = _product_sum([f[1:], f[1:], g[1:]], buf)
    return ((both - diagonal) // 2 if exact else (both - diagonal) / 2.0) + start


def _walk(fs, exact: bool):
    """ap_sum without the class split: the parity split for k = 3 with
    fs[0] is fs[2], else the packed walk for bool input, the support walk
    or the whole-array walk."""
    k, N = len(fs), fs[0].size
    if k == 3 and fs[0] is fs[2]:
        return _parity_sum(fs[0], fs[1], exact)
    if exact:
        return _packed_walk(fs)
    steps = range(1, (N - 1) // (k - 1) + 1)
    anchors = np.flatnonzero(fs[0][: max(N - k + 1, 0)])
    if anchors.size < len(steps):
        return _support_walk(fs, anchors)
    return _dense_walk(fs, steps)


def _dense_walk(fs, steps) -> float:
    """ap_sum of real sequences over each d in steps, with whole-array products."""
    k, N = len(fs), fs[0].size
    buf = np.empty(max(N - k + 1, 0), dtype=np.float64)
    total = 0.0
    for d in steps:
        L = N - (k - 1) * d
        total += _product_sum([f[j * d : j * d + L] for j, f in enumerate(fs)], buf)
    return total


def _packed_walk(fs) -> int:
    """ap_sum of bool sequences over every d >= 1, on packed 64-bit words.

    Each distinct sequence is held as 64 shifted copies (_packed_copies),
    so that bit b of word w of copy r is f[64 w + r + b]. For d = c + 64 t
    the terms f_j[x + j d] of the progressions from x = 64 w + b are then
    bit b of word (j c) // 64 + j t + w of copy (j c) % 64: for fixed c, a
    block of consecutive t is one 2-D view per term, its rows j words
    apart. The k views are ANDed into one buffer of about _WORD_BLOCK words
    and popcounted; a buffer found all zero after a multiple of 8 terms
    skips the rest, so large k costs a few ANDs per block. The copies read
    zero past N, so the last term ends each row at x + (k - 1) d < N
    without a mask. A block takes at most _BLOCK_STEPS values of t, which
    bounds the zero pad the rows read past N to (k - 1) _BLOCK_STEPS
    words of each copy.
    """
    k, N = len(fs), fs[0].size
    D = (N - 1) // (k - 1)  # the largest d
    if D < 1:
        return 0
    depth = min(_BLOCK_STEPS, (D - 1) // 64 + 1)  # the most values of t in one block
    full = -(-N // 64)  # words of one whole copy
    words = full + (k - 1) * (depth - 1)
    copies = {}
    for f in fs:
        if id(f) not in copies:
            copies[id(f)] = _packed_copies(f, words)
    first, *rest = [copies[id(f)] for f in fs]
    buf = np.empty(max(full, min(_WORD_BLOCK, depth * full)), dtype=first.dtype)
    total = 0
    for c in range(1, min(D, 64) + 1):
        T = (D - c) // 64 + 1  # d = c, c + 64, ..., at most D
        t = 0
        while t < T:
            width = -(-(N - (k - 1) * (c + 64 * t)) // 64)  # words from x = 0 to the last x
            rows = min(T - t, depth, max(1, _WORD_BLOCK // width))
            out = buf[: rows * width].reshape(rows, width)
            for j, C in enumerate(rest, 1):
                # a block that is all zero stays so: test it every 8 terms
                if j % 8 == 0 and not out.any():
                    break
                part = np.ndarray((rows, width), C.dtype, C,
                                  C.itemsize * ((j * c) % 64 * words + (j * c) // 64 + j * t),
                                  (j * C.itemsize, C.itemsize))
                # term 0 reads the same words for every t
                np.bitwise_and(first[0, :width] if j == 1 else out, part, out=out)
            total += int(np.bitwise_count(out, out=out).sum())  # in place: no cast to sum
            t += rows
    return total


def _packed_copies(f, words: int):
    """The 64 shifted copies of a bool f as little-endian 64-bit words:
    bit b of word w of copy r is f[64 w + r + b], and 0 past f's end."""
    copies = np.zeros((64, words), dtype="<u8")
    as_bytes = copies.view(np.uint8)
    for r in range(min(64, f.size)):
        as_bytes[r, : -(-(f.size - r) // 8)] = np.packbits(f[r:], bitorder="little")
    return copies


def _support_walk(fs, anchors) -> float:
    """ap_sum from the support of fs[0]: for each anchor x, the strided
    product of fs[j][x + j m] over m >= 1, summed, times fs[0][x]."""
    k, N = len(fs), fs[0].size
    buf = np.empty((N - 1) // (k - 1), dtype=np.float64)
    total = 0.0
    for x in anchors.tolist():
        M = (N - 1 - x) // (k - 1)
        parts = [f[x + j : x + j * M + 1 : j] for j, f in enumerate(fs) if j]
        total += float(fs[0][x]) * _product_sum(parts, buf)
    return total


def _product_sum(parts, buf):
    """The sum over m of prod_j parts[j][m]: the two or more 1-D arrays of
    one length L are multiplied in place into buf[:L]. A bool buf gives
    the number of nonzero products as an int, any other buf their float sum."""
    prod = buf[: parts[0].size]
    np.multiply(parts[0], parts[1], out=prod, dtype=prod.dtype)
    for part in parts[2:]:
        np.multiply(prod, part, out=prod, dtype=prod.dtype)
    return int(np.count_nonzero(prod)) if prod.dtype == bool else float(prod.sum())


def check_ap_k(k: int, weighted: bool = False) -> None:
    """Refuse, with ValueError, a k that count_ap_primes (k >= 3) or, when
    weighted, weighted_ap_average (k in {3, 4}) does not take."""
    if weighted and k not in (3, 4):
        raise ValueError("weighted averages implemented for k in {3, 4}")
    if k < 3:
        raise ValueError("need k >= 3")


def count_ap_primes(table: ArithTable, N: int, k: int) -> int:
    """Exact count of strictly increasing k-term prime APs inside [1, N]."""
    check_ap_k(k)
    if N > table.limit:
        raise ValueError(f"N={N} beyond table limit {table.limit}")
    if k > N:
        return 0  # no k distinct terms fit in [1, N]
    return ap_sum((table.is_prime[1 : N + 1],) * k)


def ap_cells(N: int, k: int) -> int:
    """#{(x, d) : d >= 1, x + (k-1)d <= N}: the k-APs with d >= 1 in [1, N].

    The k-AP system has N + 2 * ap_cells(N, k) integer solutions in
    [1, N]^k: d = 0, and d < 0 mirroring d > 0.
    """
    D = (N - 1) // (k - 1)
    return D * N - (k - 1) * D * (D + 1) // 2


def weighted_ap_average(table: ArithTable, N: int, k: int) -> float:
    """E over {AP system solutions in [1,N]^k} of the Lambda product.

    Lambda is read as its W = 6 view, built from the table's primality
    segments: the class arrays 1 and 5 mod 6 and the powers of 2 and 3
    (arith.vonmangoldt_classes), summed by ap_sum's class split; neither
    Lambda's column nor, unless the table holds it, is_prime's is made.
    """
    check_ap_k(k, weighted=True)
    if N > table.limit:
        raise ValueError(f"N={N} beyond table limit {table.limit}")
    classes, R, values = vonmangoldt_classes(table, N)
    lam = _View(N, classes, R, values)
    total = 2.0 * _class_split((lam,) * k, False)  # d < 0 mirrors d > 0
    powers = (*(c[c != 0] for c in classes), values)  # d = 0, on the prime powers
    buf = np.empty(max(nz.size for nz in powers))
    for nz in powers:
        total += _product_sum([nz] * k, buf)
    return total / (N + 2 * ap_cells(N, k))


def _column_complement(system: LinearSystem) -> tuple[list[int], list[int]]:
    """Split columns into an invertible s-set and the free complement."""
    rows = system.rows()
    for bound in combinations(range(system.t), system.s):
        sub = [[row[c] for c in bound] for row in rows]
        if _bareiss(sub)[0] == system.s:
            free = [c for c in range(system.t) if c not in bound]
            return list(bound), free
    raise FreeRankTooLarge("no invertible column complement")  # unreachable if validated


def _adjugate(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj, det) of a small integer matrix, exactly."""
    n = len(m)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            adj[i][j] = (-1) ** (i + j) * _bareiss(minor)[1]
    return adj, _bareiss(m)[1]


def _solution_symmetry(system: LinearSystem) -> int:
    """# of coordinate permutations preserving the rational row span.

    This is the runtime-computed ordering factor between all-distinct
    ordered solutions and solutions counted up to symmetry (2 for AP
    systems: identity and reversal).
    """
    rows = system.rows()
    count = 0
    for perm in permutations(range(system.t)):
        permuted = [[row[c] for c in perm] for row in rows]
        if _bareiss(rows + permuted)[0] == system.s:
            count += 1
    return count


def _set_partitions(items: list):
    """Every partition of items into nonempty blocks."""
    if not items:
        yield []
        return
    for rest in _set_partitions(items[1:]):
        yield [[items[0]]] + rest
        for i in range(len(rest)):
            yield rest[:i] + [[items[0]] + rest[i]] + rest[i + 1 :]


def _inverse_log(N: int) -> np.ndarray:
    """w(x) = 1 / log x on [1, N], with w(1) = 0: the Hardy-Littlewood weight."""
    w = np.zeros(max(N, 0))
    w[1:] = 1.0 / np.log(np.arange(2, N + 1))
    return w


def _equation_counts(table: ArithTable, row: list[int], N: int) -> tuple[int, int, float]:
    """(observed, distinct, HL weight sum) of one equation, through equation_sum.

    distinct is inclusion-exclusion over the coordinate equalities: each
    partition of the coordinates into blocks of equal values is again one
    equation, with Moebius weight prod over blocks of (-1)^(b-1) (b-1)!.
    """
    t = len(row)
    isp = table.is_prime[1 : N + 1]
    observed = distinct = 0
    for blocks in _set_partitions(list(range(t))):
        merged = [sum(row[i] for i in b) for b in blocks]
        count = equation_sum(merged, [isp] * len(blocks))
        if len(blocks) == t:
            observed = count
        distinct += count * math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1)
                                      for b in blocks)
    return observed, distinct, equation_sum(row, [_inverse_log(N)] * t)


def _enumerate_counts(table: ArithTable, system: LinearSystem, N: int, mode: str,
                      work: int, seed: int) -> tuple[int, int, float]:
    """(observed, distinct, HL weight sum) over work cells of the free
    coordinates, every cell (exact) or seeded uniform samples (montecarlo)."""
    free_rank = system.t - system.s
    bound_cols, free_cols = _column_complement(system)
    rows = system.rows()
    adj, det = _adjugate([[row[c] for c in bound_cols] for row in rows])
    # x_bound * det = solve @ x_free, exact in int64 only below 2^63
    solve = [[-sum(adj[i][m] * rows[m][c] for m in range(system.s)) for c in free_cols]
             for i in range(system.s)]
    reach = max([abs(det)] + [sum(map(abs, r)) * N for r in solve])
    if reach >= 2**63:
        raise ValueError(f"coefficients too large: the enumeration reaches {reach}, past int64")
    solve = np.array(solve, dtype=np.int64)

    isp = table.is_prime
    rng = None if mode == "exact" else Stream(seed)  # exact draws nothing

    observed = 0
    distinct = 0
    hl_sum = 0.0
    for start in range(0, work, _CHUNK):
        stop = min(start + _CHUNK, work)
        if mode == "exact":
            xf = _digits(start, stop, N, free_rank) + 1
        else:
            xf = rng.integers(1, N + 1, size=(free_rank, stop - start))
        xb_scaled = solve @ xf
        integral = (xb_scaled % det == 0).all(axis=0)
        xb = np.where(integral, xb_scaled // det, 0)
        in_box = integral & ((xb >= 1) & (xb <= N)).all(axis=0)
        coords = np.vstack([xb, xf])
        # the HL weight sum runs over every integer solution in the box
        if in_box.any():
            sol = coords[:, in_box]
            big = (sol > 1).all(axis=0)
            hl_sum += float((1.0 / np.log(sol[:, big]).prod(axis=0)).sum())
        safe = np.where(in_box, coords, 2)
        ok = in_box & isp[safe].all(axis=0)
        observed += int(ok.sum())
        if ok.any():
            pts = coords[:, ok]
            dmask = np.ones(pts.shape[1], dtype=bool)
            for i, j in combinations(range(system.t), 2):
                dmask &= pts[i] != pts[j]
            distinct += int(dmask.sum())
    return observed, distinct, hl_sum


def generic_count(table: ArithTable, system: LinearSystem, N: int,
                  mode: str = "exact", samples: int = 10**4,
                  seed: int = 0) -> CountReport:
    """Count box solutions of A x = 0 with every coordinate prime.

    observed counts ordered solutions (the full solution set in
    [1, N]^t). extra carries: distinct (all-coordinates-distinct
    solutions), symmetry (row-span-preserving coordinate permutations),
    and up_to_symmetry = distinct / symmetry, which for AP systems is
    the strictly-increasing count. predicted is the Hardy-Littlewood
    value: the singular series times sum over integer solutions of
    prod 1/log x_i (solutions with any x_i = 1 are skipped; 1 is not
    prime). Each row is first divided by the gcd of its entries, which
    keeps the solution set. Exact mode on one equation runs equation_sum
    when its FFT length is below the N^(t-s) cells; otherwise, and for
    Monte Carlo, the free coordinates are enumerated or sampled uniformly.
    More than WORK_CAP cells or samples raise CapacityError; an
    enumeration past int64 raises ValueError.
    """
    if mode not in ("exact", "montecarlo"):
        raise ValueError(f"unknown mode {mode!r}")
    if N > table.limit:
        raise ValueError(f"N={N} beyond table limit {table.limit}")
    free_rank = system.t - system.s
    if mode == "exact" and free_rank > 2:
        raise FreeRankTooLarge(f"t - s = {free_rank} > 2")
    if mode == "montecarlo" and samples < 10**3:
        raise ValueError("need samples >= 10^3")
    work = N**free_rank if mode == "exact" else samples
    if work > WORK_CAP:
        unit = "cells" if mode == "exact" else "samples"
        raise CapacityError(f"{work} {unit} exceed the work cap {WORK_CAP}")

    primitive = primitive_system(system)
    row = list(primitive.entries[0])
    sizes = sorted(map(abs, row))
    if mode == "exact" and system.s == 1 and _fft_length(sum(sizes[:-1]) * (N - 1) + 1) < work:
        observed, distinct, hl_sum = _equation_counts(table, row, N)
    else:
        observed, distinct, hl_sum = _enumerate_counts(table, primitive, N, mode, work, seed)

    sym = _solution_symmetry(system)
    series = singular_series(primitive, 10**4)
    if mode == "montecarlo":
        scale = N**free_rank / samples
        observed = observed * scale
        distinct = distinct * scale
        hl_sum = hl_sum * scale
    predicted = series.truncated_product * hl_sum
    return CountReport(
        descriptor=system.describe(),
        N=N,
        observed=float(observed),
        predicted=float(predicted),
        method="enumerate" if mode == "exact" else "montecarlo",
        seed=seed if mode == "montecarlo" else None,
        extra={
            "distinct": float(distinct),
            "symmetry": sym,
            "up_to_symmetry": float(distinct) / sym,
            "singular_series": series.truncated_product,
        },
    )


def log_weight_sum(N: int, k: int) -> float:
    """sum over x >= 2, d >= 1, x + (k-1)d <= N of prod_{j<k} 1/log(x + j d).

    S(AP_k) times this is the finite-N, log-weighted Hardy-Littlewood
    prediction of the increasing prime k-APs in [1, N].
    """
    return ap_sum((_inverse_log(N),) * k)


def prediction(k: int, N: int) -> float:
    """Hardy-Littlewood main term S_k N^2 / (log N)^k for increasing prime
    k-APs, k = 3 or 4, with S_k's product truncated at PREDICTION_P0."""
    if N < 100:
        raise ValueError("need N >= 100")
    if k == 3:
        return closed_form_S3(PREDICTION_P0) * N**2 / math.log(N) ** 3
    if k == 4:
        return closed_form_S4(PREDICTION_P0) * N**2 / math.log(N) ** 4
    raise ValueError("closed-form predictions available for k in {3, 4}")


def ap_count_report(table: ArithTable, N: int, k: int) -> CountReport:
    """count_ap_primes wrapped with its asymptotic prediction.

    The closed-form prediction needs N >= 100; below that the report
    carries predicted = 0 (ratio suppressed).
    """
    return CountReport(
        descriptor=f"{k}-AP",
        N=N,
        observed=float(count_ap_primes(table, N, k)),
        predicted=prediction(k, N) if N >= 100 and k in (3, 4) else 0.0,
        method="direct",
    )


def weighted_ap_report(table: ArithTable, N: int, k: int) -> CountReport:
    """weighted_ap_average wrapped with its singular-series prediction."""
    return CountReport(
        descriptor=f"{k}-AP weighted",
        N=N,
        observed=weighted_ap_average(table, N, k),
        predicted=singular_series(ap_system(k), 10**4).truncated_product,
        method="fft" if k == 3 else "direct",
    )
