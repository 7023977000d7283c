"""Sieved arithmetic-function tables: primality, Mobius mu, von Mangoldt Lambda.

Provides:
- ArithTable: is_prime / mu / Lambda on [1, N]: is_prime and mu by sieves
  segmented in blocks of 2^18 values of n, Lambda always derived from
  is_prime; prime_segments hands out its primality as segments, slices of
  its is_prime column when it holds one and else sieved afresh
- prime_sieve: the primality column, filled by _prime_segments, the one
  segmented primality sieve, shared with the singular series
- vonmangoldt_progression: Lambda on a progression n = b (mod W) read off
  is_prime. The table's column is its W = 1 case, and the W-trick
  reweighting Lambda_{b,W}(n) = (phi(W)/W) * Lambda(W*n + b) its scaled case
- vonmangoldt_classes: Lambda on [1, N] as the W-trick with W = 6 reads
  it, the classes 1 and 5 mod 6 built from the table's primality
  segments, and the powers of 2 and 3; the Lambda-weighted AP averages
  read it in place of the column
- vonmangoldt_blocks: Lambda on [1, N] in blocks of 2^16, each built from
  is_prime, so the 8 B/n column is never made
- mean_vonmangoldt: E_{n<=N} Lambda(n) from the primes alone
- balanced function of a set, 1_A - |A|/N
- binary dump/load of tables (magic "HLM2", little-endian, 2 B/n: is_prime
  and mu only), or a load of the N-prefix of a table with a larger limit
- table: the one table path of the CLI and the acceptance suite; with
  HLM_DATA_DIR set, a run reads the smallest cached table whose limit is
  at least N, as a prefix, and otherwise builds and caches table_<N>.hlm2

Conventions:
    mu(1) = 1, mu(n) = 0 iff a square divides n
    Lambda(n) = log p if n = p^k, else 0; Lambda(p^k) is the *same float*
    as Lambda(p), so prime-power equality checks are exact.

Arrays are indexed directly by n (length N+1, slot 0 unused); the
Fourier and correlation routines take "sequences on [1, N]", the slice
column[1 : N + 1] in the column's own dtype.

A table makes each column the first time it is read and keeps it: a
build sieves is_prime and mu from the primes up to sqrt(N), one segment
at a time, so mu holds 1 B/n and one segment's int32 products; a load
reads is_prime and mu from the file it holds open. Lambda is derived
from is_prime in either case, so no table holds a Lambda that disagrees
with its primes. A caller that never reads a column never allocates it.
Columns are never mutated once made.
"""

from dataclasses import dataclass
from functools import cached_property
import itertools
from math import fsum, gcd, isqrt
import os
import re
import struct
import weakref

import numpy as np

MAGIC = b"HLM2"

# Memory cap: N <= 10^8 keeps the three arrays near 1 GB.
DEFAULT_LIMIT_CAP = 10**8

_BLOCK = 1 << 16  # values of n per block: _mobius's comparison pass, the Lambda blocks
# values of n per segment of _prime_segments and _mobius (its int32 products).
# In-process medians of 9 (2-core host) at N = 2*10^6 / 10^7: whole-array
# 39.1 / 216.6 ms, segments of 2^16 40.4 / 332.9 ms, of 2^18 37.8 / 202.2 ms
# and of 2^20 36.9 / 182.4 ms, tracing 9.91, 2.54, 3.29 and 6.29 MiB at
# 2*10^6; 2^18 is within 1 ms of 2^20 there for a quarter of the array
_SEGMENT = 4 * _BLOCK


class CapacityError(ValueError):
    """Requested table size exceeds DEFAULT_LIMIT_CAP."""


class ArithTable:
    """Arithmetic-function arrays up to limit N, each made on first read.

    Attributes:
        limit: largest n covered
        is_prime: bool array, length N+1, indexed by n
        mobius: int8 array, mu(n) in {-1, 0, 1}
        vonmangoldt: float64 array, Lambda(n), always derived from is_prime

    An is_prime or mobius given to the constructor is used as it is; any
    other is sieved from limit when first read.
    """

    def __init__(self, limit: int, is_prime=None, mobius=None):
        self.limit = limit
        for name, col in (("is_prime", is_prime), ("mobius", mobius)):
            if col is not None:
                setattr(self, name, col)

    @cached_property
    def is_prime(self) -> np.ndarray:
        return prime_sieve(self.limit)

    @cached_property
    def mobius(self) -> np.ndarray:
        return _mobius(self.limit)

    @cached_property
    def vonmangoldt(self) -> np.ndarray:
        return vonmangoldt_progression(self.is_prime, 0, 1, self.limit)

    def prime_segments(self, N: int):
        """The table's primality on [0, N], N <= limit, as _prime_segments
        yields it: slices of the is_prime column when the table holds one,
        else segments sieved afresh, so the column is never made."""
        if "is_prime" not in self.__dict__:
            return _prime_segments(N)
        col = self.is_prime
        return ((lo, col[lo : min(lo + _SEGMENT, N + 1)]) for lo in range(0, N + 1, _SEGMENT))


@dataclass(frozen=True)
class WTrickParams:
    """Parameters of the reweighting n -> (phi(W)/W) * Lambda(W*n + b).

    W must be squarefree (a product of distinct small primes) and b
    coprime to W; scale = phi(W)/W is derived, not stored by the caller.
    """

    W: int
    b: int
    scale: float

    @classmethod
    def create(cls, W: int, b: int) -> "WTrickParams":
        if W < 1:
            raise ValueError(f"W must be positive, got {W}")
        if gcd(b, W) != 1:
            raise ValueError(f"b={b} is not coprime to W={W}")
        scale = 1.0
        m, p = W, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    raise ValueError(f"W={W} is not squarefree")
                scale *= 1.0 - 1.0 / p
            p += 1
        if m > 1:
            scale *= 1.0 - 1.0 / m
        return cls(W=W, b=b, scale=scale)


def prime_sieve(N: int) -> np.ndarray:
    """Bool array of length N+1 (indexed by n), True exactly at the primes,
    filled segment by segment from _prime_segments."""
    is_prime = np.empty(N + 1, dtype=bool)
    for lo, seg in _prime_segments(N):
        is_prime[lo : lo + seg.size] = seg
    return is_prime


def _prime_segments(N: int):
    """Yield (lo, seg) for lo = 0, _SEGMENT, ... up to N, seg[i] True
    exactly when lo + i <= N is prime: the segmented sieve of Bays and
    Hudson (BIT 17, 1977), crossing off the multiples from p^2 of each
    prime p <= sqrt(N) in one reused buffer, so a segment is valid until
    the next is drawn. prime_sieve through it, medians of 7 in-process
    (2-core host) at N = 10^6 / 3*10^6 / 10^7: 2.14 / 7.06 / 27.7 ms,
    against 2.01 / 10.2 / 45.6 ms for one whole-array pass."""
    primes = np.flatnonzero(prime_sieve(isqrt(N))).tolist() if N >= 4 else []
    buf = np.empty(min(_SEGMENT, N + 1), dtype=bool)
    for lo in range(0, N + 1, _SEGMENT):
        seg = buf[: min(_SEGMENT, N + 1 - lo)]
        seg[:] = True
        if lo == 0:
            seg[:2] = False
        for p in primes:
            seg[max(p * p, -(-lo // p) * p) - lo :: p] = False
        yield lo, seg


def build_table(N: int) -> ArithTable:
    """The table of is_prime, mu and Lambda on [1, N], sieved column by
    column as each is first read.

    Deterministic: rebuilding yields bit-identical arrays. is_prime by a
    segmented Eratosthenes sieve; mu by sign-flips over primes and
    zeroing over squares, segment by segment (_mobius); Lambda written
    only at prime powers.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > DEFAULT_LIMIT_CAP:
        raise CapacityError(f"N={N} exceeds cap {DEFAULT_LIMIT_CAP}")
    return ArithTable(N)


def _mobius(N: int) -> np.ndarray:
    """mu on [0, N], one segment of _SEGMENT values of n at a time: for each
    prime p <= sqrt(N), flip the signs of the segment's multiples of p,
    multiply their products of small primes by p, and zero the multiples of
    p^2; any n whose product then falls short of n has exactly one prime
    factor > sqrt(N), contributing one more sign flip. The int32 product
    array is one segment long, so the memory beyond the column is
    O(_SEGMENT) (the segmented sieve of Bays and Hudson, BIT 17, 1977)."""
    mobius = np.empty(N + 1, dtype=np.int8)
    products = np.empty(min(_SEGMENT, N + 1), dtype=np.int32)  # one, reused
    primes = np.flatnonzero(prime_sieve(isqrt(N))).tolist()
    for lo in range(0, N + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, N + 1)
        mu, prod = mobius[lo:hi], products[: hi - lo]
        mu[:] = 1
        prod[:] = 1
        for p in primes:
            sq = p * p  # from the segment's first multiples of p and p^2 past 0
            first, first_sq = (-lo % p, -lo % sq) if lo else (p, sq)
            mu[first::p] *= -1
            prod[first::p] *= p
            mu[first_sq::sq] = 0
        for b in range(0, hi - lo, _BLOCK):  # the comparison's temporaries stay O(_BLOCK)
            e = min(b + _BLOCK, hi - lo)
            rest = prod[b:e] < np.arange(lo + b, lo + e, dtype=np.int32)
            mu[b:e][rest] *= -1
    mobius[0] = 0
    return mobius


def vonmangoldt_progression(is_prime, b: int, W: int, N: int) -> np.ndarray:
    """Lambda(b + W m) for m = 0, 1, ... while b + W m <= N: Lambda on the
    progression n = b (mod W) from b, read off the primality column
    (indexed by n, covering [0, N]).

    It holds log p at the primes p of the progression and the same float
    at each p^j (j >= 2) that falls in it. W = 1, b = 0 is the table's
    column on [0, N].
    """
    out = np.zeros(max((N - b) // W + 1, 0), dtype=np.float64)
    m = np.flatnonzero(is_prime[b : N + 1 : W])
    logn = m.astype(np.float64)  # b + W m, exact below 2^53
    logn *= W
    logn += b
    out[m] = np.log(logn, out=logn)
    small = np.flatnonzero(is_prime[: isqrt(max(N, 0)) + 1])
    pk, logs = _prime_powers(small, N, 2)
    hit = (pk >= b) & ((pk - b) % W == 0)
    out[(pk[hit] - b) // W] = logs[hit]
    return out


def vonmangoldt_blocks(table: ArithTable):
    """Yield Lambda(n) for n = lo .. min(lo + 2^16 - 1, N) as an array, for
    lo = 1, 1 + 2^16, ... up to N = table.limit.

    Each block is vonmangoldt_progression on it, read off is_prime, so
    the 8 B/n column is never made. The blocks hold the column's floats
    bit for bit, in the blocks fourier.exp_sums sums, so its sums over
    them equal exp_sum's over the column.
    """
    N = table.limit
    for lo in range(1, N + 1, _BLOCK):
        yield vonmangoldt_progression(table.is_prime, lo, 1, min(lo + _BLOCK - 1, N))


def mean_vonmangoldt(table: ArithTable) -> float:
    """E_{n<=N} Lambda(n) from the primes alone: the correctly rounded sum
    of log p over every prime power p^k <= N (the float the column holds
    there) over N. fsum's sum does not depend on the order of its terms,
    so this is the mean of the column's nonzero values, with no Lambda
    block made; the primes are read 2^16 values of n at a time."""
    N, is_prime = table.limit, table.is_prime
    _, higher = _prime_powers(np.flatnonzero(is_prime[: isqrt(N) + 1]), N, 2)
    logs = (np.log((np.flatnonzero(is_prime[lo : lo + _BLOCK]) + lo).astype(np.float64))
            .tolist() for lo in range(1, N + 1, _BLOCK))
    return fsum(itertools.chain(higher.tolist(), itertools.chain.from_iterable(logs))) / N


def vonmangoldt_classes(table: ArithTable, N: int):
    """Lambda on [1, N] as the W-trick with W = 6 reads it, built from the
    table's primality segments (ArithTable.prime_segments), so the table
    makes no is_prime column it does not hold already.

    Returns ((Lambda(1 + 6m), Lambda(5 + 6m)) for m = 0, 1, ..., R, values):
    the class arrays 1 and 5 mod 6, and Lambda at the n <= N with
    gcd(n, 6) > 1 where it is nonzero, the powers of 2 and 3, ascending.
    Every value is the float the table's column holds at that n.
    """
    classes = tuple(np.zeros(max((N - b) // 6 + 1, 0), dtype=np.float64) for b in (1, 5))
    for lo, seg in table.prime_segments(N):
        if lo == 0:  # 3 and sqrt(N) lie in it for every N up to DEFAULT_LIMIT_CAP
            small = np.flatnonzero(seg[: max(isqrt(N), 3) + 1])
        for out, b in zip(classes, (1, 5)):  # log n at the primes n = b + 6m in the segment
            m = np.flatnonzero(seg[(b - lo) % 6 :: 6]) + (lo + (b - lo) % 6) // 6
            out[m] = np.log(6.0 * m + b)
    pk, logs = _prime_powers(small, N, 1)  # p^j <= N, j >= 1, for each small prime p
    for out, b in zip(classes, (1, 5)):
        out[pk[pk % 6 == b] // 6] = logs[pk % 6 == b]
    off = np.gcd(pk, 6) > 1  # the powers of 2 and 3
    order = np.argsort(pk[off])
    return classes, pk[off][order], logs[off][order]


def _prime_powers(primes: np.ndarray, N: int, first: int):
    """(p^j, log p) for each p in primes and j >= first with p^j <= N; log p
    is the float the table's column holds at p."""
    logs = np.log(primes.astype(np.float64))
    pk = primes ** first
    powers, values = [pk[:0]], [logs[:0]]
    while pk.size:
        keep = pk <= N
        pk, primes, logs = pk[keep], primes[keep], logs[keep]
        powers.append(pk)
        values.append(logs)
        pk = pk * primes
    return np.concatenate(powers), np.concatenate(values)


def w_trick(table: ArithTable, params: WTrickParams, N: int) -> np.ndarray:
    """Lambda_{b,W}(n) = (phi(W)/W) * Lambda(W*n + b) for n = 1..N."""
    need = params.W * N + params.b
    if table.limit < need:
        raise ValueError(
            f"table limit {table.limit} < W*N+b = {need}; rebuild with a larger N"
        )
    return params.scale * vonmangoldt_progression(table.is_prime, params.W + params.b,
                                                  params.W, need)


def balanced_function(indicator) -> np.ndarray:
    """1_A - alpha for a set A given by its indicator on [1, N].

    alpha = |A|/N; the output sums to zero up to rounding.
    """
    indicator = np.asarray(indicator)
    if indicator.size == 0:
        raise ValueError("empty indicator sequence")
    return indicator - indicator.mean()


def dump_table(table: ArithTable, path) -> None:
    """Binary dump: magic "HLM2", N as u64 LE, then is_prime as u8[N] and
    mobius as i8[N], each covering n = 1..N: 12 + 2N bytes, the columns'
    own buffers written as they are. Lambda is not stored; a load derives
    it from is_prime, as a build does."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", table.limit))
        fh.write(np.asarray(table.is_prime[1:], dtype=bool).view(np.uint8))
        fh.write(np.asarray(table.mobius[1:], dtype=np.int8))


def load_table(path, N=None) -> ArithTable:
    """Inverse of dump_table; validates the magic and the payload size
    before any column is allocated, then reads each column from the open
    file when it is first read. With N given, the table is the file's
    N-prefix, equal to build_table(N) byte for byte."""
    fh = open(path, "rb", buffering=0)
    try:
        head = fh.read(12)
        if head[:4] != MAGIC:
            raise ValueError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
        if len(head) < 12:
            raise ValueError(f"header is {len(head)} bytes, expected 12")
        (limit,) = struct.unpack("<Q", head[4:])
        size = os.fstat(fh.fileno()).st_size - 12
        if size != 2 * limit:
            raise ValueError(f"payload is {size} bytes, expected {2 * limit}")
        N = limit if N is None else N
        if not 1 <= N <= limit:
            raise ValueError(f"N={N} is outside the file's limits [1, {limit}]")
    except BaseException:
        fh.close()
        raise
    return _LoadedTable(int(N), fh, limit)


def table(N: int) -> ArithTable:
    """build_table(N), or with $HLM_DATA_DIR set, the N-prefix of the
    smallest table_<M>.hlm2 there with M >= N; with none there (a missing
    directory counts as empty), build_table(N) dumped to table_<N>.hlm2.
    Files of any other name, a table_<M>.bin of the old format among
    them, are never read."""
    cache_dir = os.environ.get("HLM_DATA_DIR")
    if not cache_dir:
        return build_table(N)
    # Freeing a large mmapped block raises glibc's mmap and trim
    # thresholds, so the kernels' per-block temporaries are then reused
    # from the heap, not faulted in again on every block (mobius-corr at
    # N = 2e6: 6k page faults against 129k). Nothing this path keeps is
    # that large and freed, so it frees one untouched block, which costs
    # no memory; glibc ignores a block past 32 MiB, so it stops at 31 MiB.
    # 12 + 10N bytes is a measured size, not a file's: warm-cache
    # mobius-corr at N = 2e6 read 0.93 s with it and 2.45 s with no block
    # (BENCH_17.json), and 0.85 s against 0.92 s with 12 + 2N (medians of
    # 8 alternating runs, 2-core host).
    np.empty(min(12 + 10 * N, 31 << 20), dtype=np.uint8)
    names = os.listdir(cache_dir) if os.path.isdir(cache_dir) else []
    # a concurrent writer's table_<N>.hlm2.<pid>.tmp never matches
    matches = [re.fullmatch(r"table_(\d+)\.hlm2", name) for name in names]
    limits = [int(m[1]) for m in matches if m and int(m[1]) >= N]
    if limits:
        return load_table(os.path.join(cache_dir, f"table_{min(limits)}.hlm2"), N)
    tab = build_table(N)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"table_{N}.hlm2")
    # a concurrent run sees either no table or a whole one, never a part
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        dump_table(tab, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return tab


class _LoadedTable(ArithTable):
    """A table whose is_prime and mu are the first `limit` entries of an
    HLM2 file's columns of `stride` entries each; its Lambda is derived
    from that is_prime, as a built table's is. The file stays open (and
    closes with the table), so each read sees the file that load_table
    checked, even if its path has since been replaced."""

    def __init__(self, limit: int, fh, stride: int):
        super().__init__(limit)
        self._fh = fh
        self._stride = stride
        weakref.finalize(self, fh.close)

    def _read(self, index: int, dtype) -> np.ndarray:
        """Payload column `index` (0 or 1) on [0, limit], read into its array."""
        col = np.empty(self.limit + 1, dtype=dtype)
        col[0] = 0
        out = col[1:].view(np.uint8)
        self._fh.seek(12 + index * self._stride)
        done = 0
        while done < out.size:
            got = self._fh.readinto(out[done:])
            if not got:
                raise ValueError(f"table file ended {out.size - done} bytes early")
            done += got
        return col

    @cached_property
    def is_prime(self) -> np.ndarray:
        col = self._read(0, np.uint8)
        np.minimum(col, 1, out=col)  # any nonzero byte reads as True
        return col.view(bool)

    @cached_property
    def mobius(self) -> np.ndarray:
        return self._read(1, np.int8)

    def prime_segments(self, N: int):
        self.is_prime  # the file's column defines the table's primes
        return super().prime_segments(N)
