"""Counting prime solutions of linear systems, with asymptotic predictions.

Two kernels carry every count. equation_sum sums prod_i f_i(x_i) over
x_i in [1, N_i] on one equation sum_i a_i x_i = 0, as one FFT product of
the dilated sequences at a 5-smooth length (the circle-method identity
on a long enough cyclic group). ap_sum sums prod_j f_j(x + j d) over x
and d >= 1 for k sequences on [1, N]. For k = 3 with f_1 = f_3 it uses
the W-trick with W = 6 when f_1 and f_2 are nonzero at few n with
gcd(n, 6) > 1, as Lambda and the prime indicator are: x, y, z prime to
6 lie in one class 1 or 5 mod 6, each class is the parity split below
on an array about N/6 long, and every other progression is walked from
that sparse support. Otherwise it splits x + z = 2y by the parity of x
and z (W = 2): each class is equation_sum on (-1, 1, 1), a
self-convolution of f_1 on the class, about N long. For k >= 4 it walks
d, from the support of f_1 when a real f_1 has fewer nonzeros than there
are d-steps and with whole-array products otherwise.

  * count_ap_primes: exact number of p_1 < ... < p_k <= N in arithmetic
    progression (genuine primes, strictly increasing), ap_sum of the
    prime indicator (for k >= 4, of its classes 1 and 5 mod 6).
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

from dataclasses import dataclass, field
from itertools import combinations, permutations
import math

import numpy as np

from .arith import ArithTable, CapacityError
from .linsys import (LinearSystem, _bareiss, ap_system, closed_form_S3, closed_form_S4,
                     primitive_system, singular_series)

WORK_CAP = 10**8  # exact cells or Monte Carlo samples in one generic_count
PREDICTION_P0 = 10**6  # primes p <= P0 in prediction's singular-series products
_CHUNK = 1 << 20  # cells or samples per vectorized pass


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
    coefficient leaves its coordinate free. The sum is one FFT product:
    every other sequence is dilated by its a_i (reversed where a_i < 0),
    and the inverse transform of the product of their spectra, at the
    5-smooth length above their linear convolution, is read against the
    sequence of the largest |a_i|, at that stride. A repeated (sequence,
    coefficient) pair shares one spectrum, raised to its multiplicity in
    place. All-bool inputs give an exact int (ArithmeticError when a read
    value is 0.25 or more from an integer), any other real inputs a float.
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
        return free * float(np.dot(f_r, read))
    rounded = np.rint(read)
    margin = float(np.abs(read - rounded).max())
    if margin >= 0.25:
        raise ArithmeticError(f"FFT rounding margin {margin:.3g} >= 0.25: count not exact")
    return free * int(rounded[f_r].sum())


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
    int, any other real inputs a float. For k = 3 and fs[0] equal to
    fs[2] the progressions are split by the classes of their terms mod 6
    (W = 6) when fs[0] and fs[1] are nonzero at few n with gcd(n, 6) > 1:
    those all prime to 6 lie in class 1 or 5, each summed on its class
    arrays by the parity split, and the rest are walked from that sparse
    support. Otherwise x and z are split by parity (W = 2), with every
    transform about N long. In the remaining cases a non-bool input
    whose fs[0] has fewer nonzeros on its anchor range than there are
    d-steps is summed from that support, one strided product per anchor;
    every other case walks d with whole-array products.
    """
    fs = [np.asarray(f) for f in fs]
    k = len(fs)
    if k < 3:
        raise ValueError("need k >= 3 sequences")
    N = fs[0].size
    if any(f.ndim != 1 or f.size != N for f in fs):
        raise ValueError("sequences must be 1-D and of one length")
    exact = all(f.dtype == bool for f in fs)
    if k == 3 and (fs[0] is fs[2] or np.array_equal(fs[0], fs[2])):
        return _ap3_sum(fs[0], fs[1], exact)
    steps = range(1, (N - 1) // (k - 1) + 1)
    if not exact:
        anchors = np.flatnonzero(fs[0][: max(N - k + 1, 0)])
        if anchors.size < len(steps):
            return _support_walk(fs, anchors)
    return _dense_walk(fs, steps, exact)


def _ap3_sum(f, g, exact: bool):
    """ap_sum of (f, g, f), split by the classes mod 6 of x < y < z (W = 6).

    C is the n prime to 6 and R the rest; every progression falls in one
    of four parts. x, y, z all in C: they are odd, and nonzero mod 3 with
    x + z = 2y, so x = z = y mod 3; they lie in one class b in {1, 5} mod
    6 with 6 | d, which is _parity_sum on the class arrays f[b - 1::6],
    each transform about N/6 long. The other three are walked from the
    support of f and g on R, which the caller keeps sparse. x and z in R:
    pairs of that support with one parity. One end a in R and the other e
    in C: both odd, so a = 3 mod 6, and e = b + 6w on either side of a
    meets y = (a + b)/2 + 3w, one product of a class array with g at
    stride 3. x and z in C and y in R: for each class pair (r, s) of
    (x, z), x = r + 6u, z = s + 6(c - u), one product of class arrays;
    this counts (x, z) and (z, x), so that part is halved.
    """
    # The parity route runs four transforms of about N entries, some
    # 10 N log2 N flops, and the class route 1/6 of that; each anchor
    # walks at most two products of N/6 entries, 2N/3 flops, so walking
    # pays up to about 12 log2 N anchors; 4 log2 N for each of f and g
    # leaves room for the strided reads
    budget = 4 * max(f.size, 1).bit_length()
    off_f = _off_class_support(f, budget)
    off_g = off_f if g is f else _off_class_support(g, budget)
    if off_f is None or off_g is None:
        return _parity_sum(f, g, exact)
    num = int if exact else float
    if exact:
        def dot(a, b):
            return int(np.count_nonzero(a & b))
    else:
        def dot(a, b):
            return float(np.dot(a, b))
    fc = {b: np.ascontiguousarray(f[b - 1 :: 6]) for b in (1, 5)}
    gc = fc if g is f else {b: np.ascontiguousarray(g[b - 1 :: 6]) for b in (1, 5)}
    total = sum(_parity_sum(fc[b], gc[b], exact) for b in (1, 5))
    i, j = np.triu_indices(off_f.size, 1)
    x, z = off_f[i], off_f[j]
    same = (z - x) % 2 == 0
    x, z = x[same], z[same]
    total += dot(f[x - 1] * f[z - 1], g[(x + z) // 2 - 1])
    for a in off_f[off_f % 2 == 1].tolist():
        for b, cls in fc.items():
            y0 = (a + b) // 2 - 1
            total += num(f[a - 1]) * dot(cls, g[y0 : y0 + 3 * cls.size : 3])
    centre = 0 if exact else 0.0
    for y in off_g.tolist():
        for r, s in ((1, 1), (1, 5), (5, 1), (5, 5)):
            c, rem = divmod(2 * y - r - s, 6)  # x = r + 6u, z = s + 6(c - u)
            lo, hi = max(0, c - fc[s].size + 1), min(fc[r].size - 1, c)
            if rem or lo > hi:
                continue
            centre += num(g[y - 1]) * dot(fc[r][lo : hi + 1], fc[s][c - hi : c - lo + 1][::-1])
    return total + (centre // 2 if exact else centre / 2.0)


def _off_class_support(f, budget: int):
    """The n in [1, N] with gcd(n, 6) > 1 and f(n) != 0, ascending, or
    None when there are more than budget of them."""
    even, threes = f[1::2].nonzero()[0], f[2::6].nonzero()[0]
    if even.size + threes.size > budget:
        return None
    return np.sort(np.concatenate((2 * even + 2, 6 * threes + 3)))


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
    ends = g[1 : odd.size + 1]
    if exact:  # f[:1] is f(1), or empty when N = 0
        start = int(np.count_nonzero(f[:1] & ends & odd))
        return (both - int(np.count_nonzero(f[1:] & g[1:]))) // 2 + start
    start = float(f[:1].sum()) * float(np.dot(ends, odd))
    return (both - float(np.dot(f[1:] * f[1:], g[1:]))) / 2.0 + start


def _dense_walk(fs, steps, exact: bool):
    """ap_sum over each d in steps, with whole-array products."""
    k, N = len(fs), fs[0].size
    acc = np.empty(N, dtype=bool if exact else np.float64)
    total = 0 if exact else 0.0
    for d in steps:
        L = N - (k - 1) * d
        prod = acc[:L]
        np.multiply(fs[0][:L], fs[1][d : d + L], out=prod, dtype=prod.dtype)
        for j in range(2, k):
            np.multiply(prod, fs[j][j * d : j * d + L], out=prod, dtype=prod.dtype)
        total += np.count_nonzero(prod) if exact else float(prod.sum())
    return int(total) if exact else total


def _support_walk(fs, anchors) -> float:
    """ap_sum from the support of fs[0]: for each anchor x, the strided
    product of fs[j][x + j m] over m >= 1, summed, times fs[0][x]."""
    k, N = len(fs), fs[0].size
    acc = np.empty((N - 1) // (k - 1), dtype=np.float64)
    total = 0.0
    for x in anchors.tolist():
        M = (N - 1 - x) // (k - 1)
        prod = acc[:M]
        prod[:] = fs[1][x + 1 : x + M + 1]
        for j in range(2, k):
            np.multiply(prod, fs[j][x + j : x + j * M + 1 : j], out=prod)
        total += float(fs[0][x]) * float(prod.sum())
    return total


def count_ap_primes(table: ArithTable, N: int, k: int) -> int:
    """Exact count of strictly increasing k-term prime APs inside [1, N]."""
    if k < 3:
        raise ValueError("need k >= 3")
    if N > table.limit:
        raise ValueError(f"N={N} beyond table limit {table.limit}")
    if k > N:
        return 0  # no k distinct terms fit in [1, N]
    isp = table.is_prime[1 : N + 1]
    if k == 3:
        return ap_sum((isp,) * 3)
    # A prime k-AP with k >= 4 has 6 | d (and p1 >= 5): an odd d makes p2 or
    # p3 even and above 2; an even d prime to 3 makes one of p1, p2, p3 equal
    # to 3, and as p2, p3 >= 4 that is p1, so p4 = 3 + 3d is a multiple of 3.
    # So it lies in one class b = 1 or 5 mod 6, at steps of d/6 in isp[b - 1::6]
    classes = (np.ascontiguousarray(isp[b - 1 :: 6]) for b in (1, 5))
    return sum(ap_sum((cls,) * k) for cls in classes)


def ap_cells(N: int, k: int) -> int:
    """#{(x, d) : d >= 1, x + (k-1)d <= N}: the k-APs with d >= 1 in [1, N].

    The k-AP system has N + 2 * ap_cells(N, k) integer solutions in
    [1, N]^k: d = 0, and d < 0 mirroring d > 0.
    """
    D = (N - 1) // (k - 1)
    return D * N - (k - 1) * D * (D + 1) // 2


def weighted_ap_average(table: ArithTable, N: int, k: int) -> float:
    """E over {AP system solutions in [1,N]^k} of the Lambda product."""
    if k not in (3, 4):
        raise ValueError("weighted averages implemented for k in {3, 4}")
    if N > table.limit:
        raise ValueError(f"N={N} beyond table limit {table.limit}")
    lam = table.vonmangoldt[1 : N + 1]
    total = 2.0 * ap_sum((lam,) * k)  # d < 0 mirrors d > 0
    nz = lam[lam != 0]  # the d = 0 term, on the prime powers
    sq = nz * nz
    total += float(np.dot(sq, sq if k == 4 else nz))
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
    rng = np.random.default_rng(seed)

    observed = 0
    distinct = 0
    hl_sum = 0.0
    for start in range(0, work, _CHUNK):
        stop = min(start + _CHUNK, work)
        if mode == "exact":
            flat = np.arange(start, stop, dtype=np.int64)
            xf = np.empty((free_rank, flat.size), dtype=np.int64)
            rem = flat
            for i in range(free_rank - 1, -1, -1):
                xf[i] = rem % N + 1
                rem = rem // N
        else:
            xf = rng.integers(1, N + 1, size=(free_rank, stop - start), dtype=np.int64)
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
