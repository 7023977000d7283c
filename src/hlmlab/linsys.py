"""Integer linear systems, local solution densities, and singular series.

A system is an s x t integer matrix A, solutions read as A x = 0
(homogeneous only). Validity:

  * t >= s + 2 and rank_Q(A) = s (fraction-free integer elimination);
  * no nonzero vector in the rational row span has <= 2 nonzero entries.
    Equivalent finite test: for every column pair {i, j}, the matrix with
    those columns deleted still has rank s; a rank drop exhibits a
    row-span vector supported inside {i, j}.

The local factor at a prime p is

    alpha_p = P(all x_i != 0 | A x = 0 over F_p) / ((p-1)/p)^t,

an exact rational. Two routes compute it:

  * "enumerate": literal traversal of the F_p null space (parametrize
    the free coordinates after mod-p reduction), capped in size;
  * "rank": inclusion-exclusion over coordinates forced to zero,
    #(x : Ax=0, x_S = 0) = p^(t - |S| - rank of A minus columns S),
    which needs only O(2^t) mod-p ranks and scales to large p.

Both give the same rational; tests pin their equality. The truncated
singular series is the double-precision product of exact alpha_p over
p <= P0 in ascending order, with a tail estimate from extrapolating
partial sums of |log alpha_p| linearly in 1/p.

Closed forms for the AP systems (densities of three- and four-term
progressions of primes):

    S3(P0) = 1/2 * prod_{3 <= p <= P0} (1 - 1/(p-1)^2)      ~ 0.3301
    S4(P0) = 3/4 * prod_{5 <= p <= P0} (1 - (3p-1)/(p-1)^3) ~ 0.4764
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import numpy as np

from .arith import DEFAULT_LIMIT_CAP, CapacityError, prime_sieve

ENUMERATION_CAP = 10**7
_TAIL_BLOCK = 1 << 16  # tail primes per block of singular_series' |log alpha_p| sums


class DegenerateSystem(ValueError):
    """Rejected matrix; .reason names the violated clause."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class EnumerationTooLarge(ValueError):
    """Null-space size p^dim exceeds the enumeration cap."""


@dataclass(frozen=True)
class LinearSystem:
    """Validated non-degenerate s x t integer system (rows() gives A)."""

    s: int
    t: int
    entries: tuple

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def describe(self) -> str:
        return ";".join(",".join(str(e) for e in r) for r in self.entries)


@dataclass
class SingularSeries:
    """Truncated product of local factors with an extrapolated tail."""

    local_factors: dict  # prime -> Fraction
    truncated_product: float
    truncation_prime: int
    tail_estimate: float


def parse_system(text: str) -> LinearSystem:
    """Rows separated by ';', entries by ',': "1,-2,1,0;0,1,-2,1"."""
    rows = [[int(e) for e in row.split(",")] for row in text.strip().split(";")]
    return new_system(rows)


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank over Q, determinant) by one fraction-free (Bareiss) elimination.

    Every division is exact, so the integers never round. The determinant
    is that of a square matrix (1 for the 0 x 0 one); it reads 0 for a
    singular or a non-square matrix.
    """
    m = [list(map(int, r)) for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nr:
            break
    return rank, sign * prev if rank == nr == nc else 0


def new_system(matrix) -> LinearSystem:
    """Validate and wrap an integer matrix; DegenerateSystem on failure."""
    rows = [list(map(int, r)) for r in matrix]
    s = len(rows)
    if s < 1 or any(len(r) != len(rows[0]) for r in rows):
        raise DegenerateSystem("matrix must be rectangular with at least one row")
    t = len(rows[0])
    r = _bareiss(rows)[0]
    if r < s:
        raise DegenerateSystem(f"rank deficient: rank {r} < s = {s}")
    if t < s + 2:
        raise DegenerateSystem(f"need t >= s+2, got s={s}, t={t}")
    for i, j in combinations(range(t), 2):
        reduced = [[row[c] for c in range(t) if c not in (i, j)] for row in rows]
        if _bareiss(reduced)[0] < s:
            raise DegenerateSystem(
                f"row span contains a vector supported on columns {{{i},{j}}}"
            )
    return LinearSystem(s=s, t=t, entries=tuple(tuple(r) for r in rows))


def primitive_system(system: LinearSystem) -> LinearSystem:
    """The system with each row divided by the gcd of its entries.

    The integer solutions do not change, and the local factors then count
    them at every prime. DegenerateSystem when the rows still span a
    lattice that is not saturated (every s x s minor shares a factor
    g > 1): its local factors at the primes of g would count solutions
    mod p that no integer solution reduces to.
    """
    rows = [[e // gcd(*row) for e in row] for row in system.entries]
    g = 0
    for cols in combinations(range(system.t), system.s):
        g = gcd(g, _bareiss([[row[c] for c in cols] for row in rows])[1])
        if g == 1:
            return LinearSystem(system.s, system.t, tuple(tuple(r) for r in rows))
    raise DegenerateSystem(
        f"rows span a non-saturated lattice: every {system.s}x{system.s} minor "
        f"is divisible by {g}")


def _rref_mod_p(rows: list[list[int]], p: int):
    """Reduced row echelon mod p: (rank, pivot_cols, reduced_matrix)."""
    m = [[e % p for e in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    piv_cols = []
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col] % p != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p) if p > 2 else m[rank][col]
        m[rank] = [(e * inv) % p for e in m[rank]]
        for r in range(nr):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        piv_cols.append(col)
        rank += 1
        if rank == nr:
            break
    return rank, piv_cols, m


def _local_factor_enumerate(system: LinearSystem, p: int) -> Fraction:
    rank, piv_cols, R = _rref_mod_p(system.rows(), p)
    t = system.t
    free_cols = [c for c in range(t) if c not in piv_cols]
    m = len(free_cols)
    if p**m > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"null space has p^{m} = {p**m} points, cap is {ENUMERATION_CAP}"
        )
    # x_piv = -R[:, free] @ x_free mod p, enumerated in blocks of the flat index
    coef = np.array([[R[i][c] for c in free_cols] for i in range(rank)], dtype=np.int64)
    total, block = p**m, 1 << 16
    nonzero = 0
    for lo in range(0, total, block):
        xf = _digits(lo, min(lo + block, total), p, m)
        xp = (-coef @ xf) % p
        nonzero += int(np.count_nonzero((xf != 0).all(axis=0) & (xp != 0).all(axis=0)))
    return (Fraction(nonzero, total)) / (Fraction(p - 1, p) ** t)


def _digits(lo: int, hi: int, base: int, m: int) -> np.ndarray:
    """The m base-`base` digits, most significant first, of each flat index
    in [lo, hi): column c is cell lo + c of the grid [0, base)^m in C order."""
    rem = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((m, rem.size), dtype=np.int64)
    for i in range(m - 1, -1, -1):
        rem, out[i] = np.divmod(rem, base)
    return out


@dataclass(frozen=True)
class _SystemPatterns:
    """One-time inclusion-exclusion data for a system.

    For primes not dividing any minor gcd, the nonzero-solution count is
    the polynomial sum_j coeffs[j] * p^j; subsets carries (rank_Q,
    minor_gcd) per zeroed-column set for the exceptional primes.
    """

    t: int
    r0: int
    coeffs: tuple  # ((exponent, coefficient), ...)
    subsets: tuple  # ((S, rank_Q, minor_gcd), ...)
    gcds: tuple  # distinct minor gcds > 1


def _zero_pattern_ranks(system: LinearSystem) -> _SystemPatterns:
    """Rational rank and minor gcd of A minus each column subset.

    Rank mod p equals rank_Q unless p divides the subset's minor gcd
    (gcd of all rank-sized minors of the column-deleted matrix).
    """
    rows = system.rows()
    t = system.t
    subsets = []
    coeffs: dict[int, int] = {}
    for size in range(t + 1):
        for S in combinations(range(t), size):
            keep = [c for c in range(t) if c not in S]
            sub = [[row[c] for c in keep] for row in rows]
            r = _bareiss(sub)[0]
            g = 0
            if r:
                for rsel in combinations(range(len(sub)), r):
                    for csel in combinations(range(len(keep)), r):
                        g = gcd(g, _bareiss([[sub[i][j] for j in csel] for i in rsel])[1])
                        if g == 1:
                            break
                    if g == 1:
                        break
            subsets.append((S, r, abs(g)))
            e = t - size - r
            coeffs[e] = coeffs.get(e, 0) + (-1) ** size
    gcds = tuple(sorted({g for _, _, g in subsets if g > 1}))
    return _SystemPatterns(
        t=t,
        r0=subsets[0][1],
        coeffs=tuple(sorted((e, c) for e, c in coeffs.items() if c != 0)),
        subsets=tuple(subsets),
        gcds=gcds,
    )


def _local_factor_rank(system: LinearSystem, p: int,
                       patterns: _SystemPatterns | None = None) -> Fraction:
    """Exact alpha_p by inclusion-exclusion over zeroed coordinates."""
    if patterns is None:
        patterns = _zero_pattern_ranks(system)
    t = patterns.t
    if any(g % p == 0 for g in patterns.gcds):
        # some subset rank drops mod p: redo the ranks at this prime
        count = 0
        r0 = patterns.r0
        for S, r_q, g in patterns.subsets:
            if g != 0 and g % p == 0:
                keep = [c for c in range(t) if c not in S]
                sub = [[row[c] for c in keep] for row in system.rows()]
                r = _rref_mod_p(sub, p)[0] if keep else 0
                if not S:
                    r0 = r
            else:
                r = r_q
            count += (-1) ** len(S) * p ** (t - len(S) - r)
    else:
        count = sum(c * p**e for e, c in patterns.coeffs)
        r0 = patterns.r0
    # alpha = (count / p^(t-r0)) / ((p-1)/p)^t = count * p^r0 / (p-1)^t
    return Fraction(count * p**r0, (p - 1) ** t)


def local_factor(system: LinearSystem, p: int, method: str = "rank") -> Fraction:
    """Exact local density alpha_p >= 0 of primitive_system(system) at a prime p.

    method "rank" uses the inclusion-exclusion identity; "enumerate"
    walks the F_p null space (EnumerationTooLarge beyond ENUMERATION_CAP
    points) and is the independent oracle for it. Both see the rows
    divided by their gcd, so a common row factor does not change the
    factor at its primes; a non-saturated system raises DegenerateSystem.
    """
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")
    system = primitive_system(system)
    if method == "rank":
        return _local_factor_rank(system, p)
    if method == "enumerate":
        return _local_factor_enumerate(system, p)
    raise ValueError(f"unknown method {method!r}")


def singular_series(system: LinearSystem, P0: int = 10**4) -> SingularSeries:
    """Truncated product of exact alpha_p over p <= P0, of primitive_system(system).

    Factors are exact rationals (rank route for large p), computable
    independently per prime; the product always accumulates in
    ascending p in double precision. tail_estimate extrapolates partial
    sums of |log alpha_p| over (P0, 10*P0] linearly in 1/p to the
    1/p -> 0 intercept. P0 < 2 raises ValueError, and 10 * P0 past
    DEFAULT_LIMIT_CAP CapacityError, before any sieve.
    """
    if P0 < 2:
        raise ValueError(f"need P0 >= 2, got P0 = {P0}")
    if 10 * P0 > DEFAULT_LIMIT_CAP:
        raise CapacityError(f"10 * P0 = {10 * P0} exceeds cap {DEFAULT_LIMIT_CAP}")
    system = primitive_system(system)
    patterns = _zero_pattern_ranks(system)
    primes = np.flatnonzero(prime_sieve(10 * P0))
    head = [int(p) for p in primes[primes <= P0]]
    factors = {p: _local_factor_rank(system, p, patterns) for p in head}
    product = 1.0
    for p in head:
        product *= float(factors[p])
    if any(a == 0 for a in factors.values()):
        return SingularSeries(factors, 0.0, P0, 0.0)

    tail_primes = primes[primes > P0]
    if tail_primes.size >= 4:
        marks = _tail_marks(tail_primes.size)
        at_marks, csum = np.empty(marks.size), np.zeros(1)
        for lo in range(0, tail_primes.size, _TAIL_BLOCK):
            logs = np.log(_alpha_float(patterns, system, tail_primes[lo : lo + _TAIL_BLOCK]))
            # the last partial sum leads the block, so each is the whole cumsum's float
            csum = np.cumsum(np.concatenate((csum[-1:], np.abs(logs))))[1:]
            inside = (marks >= lo) & (marks < lo + csum.size)
            at_marks[inside] = csum[marks[inside] - lo]
        slope, intercept = np.polyfit(1.0 / tail_primes[marks].astype(float), at_marks, 1)
        tail = float(max(intercept, csum[-1]))
    else:
        tail = 0.0
    return SingularSeries(factors, product, P0, tail)


def _tail_marks(size: int) -> np.ndarray:
    """The distinct indices of 8 points spaced evenly over [size // 4, size - 1].
    They come sorted, so a repeat is a zero step; np.unique would find them
    too, but its first call imports numpy.ma."""
    marks = np.linspace(size // 4, size - 1, 8).astype(int)
    return marks[np.diff(marks, prepend=-1) > 0]


def _alpha_float(patterns: _SystemPatterns, system: LinearSystem,
                 primes: np.ndarray) -> np.ndarray:
    """alpha_p in double precision, vectorized over a prime array."""
    p = primes.astype(np.float64)
    count = np.zeros_like(p)
    for e, c in patterns.coeffs:
        count += c * p**e
    alpha = count * p**patterns.r0 / (p - 1.0) ** patterns.t
    for g in patterns.gcds:
        if g < 2**62:
            bad = np.nonzero(np.mod(g, primes) == 0)[0]
        else:
            bad = np.nonzero([g % int(q) == 0 for q in primes])[0]
        for i in bad:
            alpha[i] = float(_local_factor_rank(system, int(primes[i]), patterns))
    return alpha


def closed_form_S3(P0: int = 10**6) -> float:
    """Truncated 1/2 * prod_{3<=p<=P0} (1 - 1/(p-1)^2)."""
    if P0 < 10**3:
        raise ValueError("need P0 >= 10^3")
    p = np.flatnonzero(prime_sieve(P0))[1:].astype(np.float64)  # drop p = 2
    return 0.5 * float(np.exp(np.log1p(-1.0 / (p - 1.0) ** 2).sum()))


def closed_form_S4(P0: int = 10**6) -> float:
    """Truncated 3/4 * prod_{5<=p<=P0} (1 - (3p-1)/(p-1)^3)."""
    if P0 < 10**3:
        raise ValueError("need P0 >= 10^3")
    p = np.flatnonzero(prime_sieve(P0))[2:].astype(np.float64)  # drop p = 2, 3
    return 0.75 * float(np.exp(np.log1p(-(3.0 * p - 1.0) / (p - 1.0) ** 3).sum()))


def ap_system(k: int) -> LinearSystem:
    """The (k-2) x k second-difference matrix whose kernel is k-term APs."""
    if k < 3:
        raise ValueError("need k >= 3")
    rows = []
    for i in range(k - 2):
        row = [0] * k
        row[i : i + 3] = [1, -2, 1]
        rows.append(row)
    return new_system(rows)


AP3 = ap_system(3)
AP4 = ap_system(4)
