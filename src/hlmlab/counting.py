"""Counting prime solutions of linear systems, with asymptotic predictions.

Every progression count goes through one kernel, ap_sum, which sums
prod_j f_j(x + j d) over x and d >= 1 for k sequences on [1, N]: one
FFT self-convolution for k = 3 with f_1 = f_3, else a whole-array d-loop.

  * count_ap_primes: exact number of p_1 < ... < p_k <= N in arithmetic
    progression (genuine primes, strictly increasing), ap_sum of the
    prime indicator (d restricted to multiples of 6 for k >= 4).
  * weighted_ap_average: E of Lambda(x_1)...Lambda(x_k) over the integer
    solutions of the AP system in [1, N]^k — all solutions, any sign of
    d including d = 0 (that is the normalization of the expectation:
    divide by the number of integer solutions in the box).
  * generic_count: any validated system, exact enumeration over t - s
    free coordinates (t - s <= 2) or seeded Monte Carlo, at most
    WORK_CAP cells or samples.

Predictions: the truncated singular-series constants give

    #(increasing k-AP of primes <= N) ~ S_k N^2 / log^k N,   k = 3, 4,

and the weighted average tends to the full product of local factors.
"""

from dataclasses import dataclass, field
from itertools import combinations, permutations
import math

import numpy as np

from .arith import ArithTable, CapacityError
from .linsys import (LinearSystem, _det_int, ap_system, closed_form_S3, closed_form_S4,
                     rank_int, singular_series)

WORK_CAP = 10**8  # exact cells or Monte Carlo samples in one generic_count
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


def ap_sum(fs, d_step: int = 1):
    """Sum over x and over d >= 1 with d_step | d of prod_j fs[j][x + j d].

    fs holds k >= 3 sequences on [1, N], all of length N; x runs over the
    progressions that lie inside [1, N]. All-bool inputs give an exact
    int, any other real inputs a float. For k = 3, d_step = 1 and fs[0]
    equal to fs[2] the sum is (sum_m f_2(m) (f_1 * f_1)(2m) - diagonal) / 2
    with one FFT self-convolution; every other case walks d with
    whole-array products.
    """
    fs = [np.asarray(f) for f in fs]
    k = len(fs)
    if k < 3:
        raise ValueError("need k >= 3 sequences")
    if d_step < 1:
        raise ValueError(f"need d_step >= 1, got {d_step}")
    N = fs[0].size
    if any(f.ndim != 1 or f.size != N for f in fs):
        raise ValueError("sequences must be 1-D and of one length")
    exact = all(f.dtype == bool for f in fs)
    if k == 3 and d_step == 1 and N >= k and (fs[0] is fs[2] or np.array_equal(fs[0], fs[2])):
        return _ap3_fft(fs[0], fs[1], exact)
    acc = np.empty(N, dtype=bool if exact else np.float64)
    total = 0 if exact else 0.0
    for d in range(d_step, (N - 1) // (k - 1) + 1, d_step):
        L = N - (k - 1) * d
        prod = acc[:L]
        np.multiply(fs[0][:L], fs[1][d : d + L], out=prod, dtype=prod.dtype)
        for j in range(2, k):
            np.multiply(prod, fs[j][j * d : j * d + L], out=prod, dtype=prod.dtype)
        total += np.count_nonzero(prod) if exact else float(prod.sum())
    return int(total) if exact else total


def _ap3_fft(f, g, exact: bool):
    """ap_sum((f, g, f)) through the self-convolution of f.

    (f * f)(2m) sums f(a) f(b) over a + b = 2m: each 3-AP with d >= 1
    twice (a < b and a > b) plus the term a = b = m.
    """
    N = f.size
    L = 1 << (2 * N - 2).bit_length()
    ft = np.fft.rfft(f, L)
    ft *= ft
    conv = np.fft.irfft(ft, L)
    mid = conv[0 : 2 * N - 1 : 2]  # mid[m] = (f * f)(2m), m = 0..N-1
    if not exact:
        return (float(np.dot(g, mid)) - float(np.dot(f * f, g))) / 2.0
    rounded = np.rint(mid)
    margin = float(np.abs(mid - rounded).max())
    if margin >= 0.25:
        raise ArithmeticError(f"FFT rounding margin {margin:.3g} >= 0.25: count not exact")
    return (int(rounded[g].sum()) - int(np.count_nonzero(f & g))) // 2


def count_ap_primes(table: ArithTable, N: int, k: int) -> int:
    """Exact count of strictly increasing k-term prime APs inside [1, N]."""
    if k < 3:
        raise ValueError("need k >= 3")
    if N > table.limit:
        raise ValueError(f"N={N} beyond table limit {table.limit}")
    isp = table.is_prime[1 : max(N, 0) + 1]
    # A prime k-AP with k >= 4 has 6 | d (and p1 >= 5): an odd d makes p2 or
    # p3 even and above 2; an even d prime to 3 makes one of p1, p2, p3 equal
    # to 3, and as p2, p3 >= 4 that is p1, so p4 = 3 + 3d is a multiple of 3
    return ap_sum((isp,) * k, d_step=1 if k == 3 else 6)


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
    sq = lam * lam
    total += float(np.dot(sq, sq if k == 4 else lam))  # the d = 0 term
    return total / (N + 2 * ap_cells(N, k))


def _column_complement(system: LinearSystem) -> tuple[list[int], list[int]]:
    """Split columns into an invertible s-set and the free complement."""
    rows = system.rows()
    for bound in combinations(range(system.t), system.s):
        sub = [[row[c] for c in bound] for row in rows]
        if rank_int(sub) == system.s:
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
            adj[i][j] = (-1) ** (i + j) * (_det_int(minor) if minor else 1)
    return adj, _det_int(m)


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
        if rank_int(rows + permuted) == system.s:
            count += 1
    return count


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
    prime). Monte Carlo samples the free coordinates uniformly. More
    than WORK_CAP cells (N^(t-s)) or samples raise CapacityError.
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

    bound_cols, free_cols = _column_complement(system)
    rows = system.rows()
    B = [[rows[i][c] for c in bound_cols] for i in range(system.s)]
    F = np.array([[rows[i][c] for c in free_cols] for i in range(system.s)], dtype=np.int64)
    adj, det = _adjugate(B)
    adj = np.array(adj, dtype=np.int64)
    solve = -adj @ F  # x_bound * det = solve @ x_free

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

    sym = _solution_symmetry(system)
    series = singular_series(system, 10**4)
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


def prediction(kind, N: int, P0: int = 10**6) -> float:
    """Hardy-Littlewood main term.

    kind = 3 or 4: S_k N^2 / (log N)^k for increasing prime k-APs.
    kind = LinearSystem: the weighted-average limit, i.e. the truncated
    singular series (0 when some local factor vanishes).
    """
    if isinstance(kind, LinearSystem):
        return singular_series(kind, min(P0, 10**4)).truncated_product
    k = int(kind)
    if N < 100:
        raise ValueError("need N >= 100")
    if k == 3:
        return closed_form_S3(P0) * N**2 / math.log(N) ** 3
    if k == 4:
        return closed_form_S4(P0) * N**2 / math.log(N) ** 4
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
