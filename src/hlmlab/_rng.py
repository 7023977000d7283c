"""One seeded stream: numpy's default generator, drawn without numpy.random.

Stream(seed) gives the draws of np.random.default_rng(seed) bit for bit:
PCG64, the 128-bit LCG with XSL-RR output of O'Neill ("PCG: a family of
simple fast space-efficient statistically good algorithms for random
number generation", HMC-CS-2014-0905), seeded through SeedSequence.
Importing numpy.random loads secrets, _hashlib and libcrypto, about 6 MB
of RSS per process; this module needs only numpy's uint64 arithmetic.

The LCG s -> A*s + c mod 2^128 is run B = 4096 steps at a time: the
stream holds B consecutive states as (hi, lo) uint64 arrays and moves all
of them on by one jump s -> A_B*s + C_B, where A_B = A^B and
C_B = c*(A^(B-1) + ... + A + 1) mod 2^128, with the high 64 bits of each
64 x 64-bit product taken from 32-bit limbs. The first block is built
from the seeded state by doubling (jumps of 1, 2, 4, ... steps).

Doubles are (u >> 11) * 2^-53 of each 64-bit output u, and uniform is
low + (high - low) * double, a product rounded and then a sum, as numpy's
x86-64 build computes it (a build that fuses the two into one FMA can
differ in the last bit when high - low is not a power of two). Bounded integers are numpy's: Lemire's multiply-and-reject
("Fast random integer generation in an interval", ACM TOMACS 29, 2019) on
32-bit words, each 64-bit output giving its low half and then its high
half, with the unused high half kept for the next integer draw however
many doubles come between, as numpy's bit generator keeps it.
"""

import math
import operator
import sys

import numpy as np

BLOCK = 4096  # states moved by one jump
# integers drawn per pass of a bulk draw: 2*10^6 draws took 24-36 ms in
# passes of 2^16 against 36-43 ms with whole-length temporaries
_CHUNK = 16 * BLOCK
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_LITTLE = sys.byteorder == "little"
_LOW = 0 if _LITTLE else 1  # the low half of a uint64 viewed as two uint32
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier
_U32 = np.uint64(_M32)
_S11, _S32, _S58 = np.uint64(11), np.uint64(32), np.uint64(58)
_S64, _S63 = np.uint64(64), np.uint64(63)

# SeedSequence's hash constants (O'Neill's seed_seq_fe, as in numpy)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# (A^k, 1 + A + ... + A^(k-1)) mod 2^128 for k = 1, 2, 4, ..., BLOCK
_JUMPS = [(_MULT, 1)]
while len(_JUMPS) <= BLOCK.bit_length() - 1:
    _a, _s = _JUMPS[-1]
    _JUMPS.append((_a * _a & _M128, _s * (1 + _a) & _M128))


def seed_state(seed: int) -> tuple[int, int]:
    """PCG64's (state, inc) after seeding from SeedSequence(seed): the
    four 64-bit words of generate_state(4, uint64) give the initial state
    (words 0 and 1) and the stream (words 2 and 3). A negative seed raises
    ValueError, as numpy's does."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")  # numpy's words
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_const = [], _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    w = [words[2 * j] | words[2 * j + 1] << 32 for j in range(_POOL)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = (inc + (w[0] << 64 | w[1])) & _M128  # one step from 0, plus the seed
    return (state * _MULT + inc) & _M128, inc


def _jump(hi, lo, a: int, c: int):
    """a*s + c mod 2^128 for every state s = hi:lo of two uint64 arrays."""
    a_hi, a_lo = np.uint64(a >> 64), np.uint64(a & _M64)
    a0, a1 = np.uint64(a & _M32), np.uint64(a >> 32 & _M32)
    c_hi, c_lo = np.uint64(c >> 64), np.uint64(c & _M64)
    # the high word of lo * a_lo from 32-bit limbs; no partial sum passes 2^64
    x0, x1 = lo & _U32, lo >> _S32
    t = x1 * a0
    t += x0 * a0 >> _S32
    u = x0 * a1
    u += t & _U32
    new_hi = x1 * a1
    new_hi += t >> _S32
    new_hi += u >> _S32
    new_hi += lo * a_hi
    new_hi += hi * a_lo
    new_hi += c_hi
    new_lo = lo * a_lo
    new_lo += c_lo
    new_hi += new_lo < c_lo  # the carry out of the low word
    return new_hi, new_lo


def _xsl_rr(hi, lo):
    """PCG's XSL-RR output: hi ^ lo rotated right by the state's top 6 bits."""
    x = hi ^ lo
    rot = hi >> _S58
    out = x >> rot
    out |= x << ((_S64 - rot) & _S63)
    return out


def _shape(size) -> tuple[int, tuple]:
    if isinstance(size, tuple):
        return math.prod(size), size
    n = operator.index(size)
    return n, (n,)


class Stream:
    """The draws of np.random.default_rng(seed), in order, for the two
    methods the package uses. Each call continues the stream where the
    last one stopped, so a sequence of calls gives numpy's values for the
    same sequence of calls on one Generator."""

    def __init__(self, seed: int):
        state, inc = seed_state(seed)
        self._c_block = inc * _JUMPS[-1][1] & _M128
        step = (state * _MULT + inc) & _M128  # the first output's state
        hi = np.array([step >> 64], dtype=np.uint64)
        lo = np.array([step & _M64], dtype=np.uint64)
        for a, s in _JUMPS[:-1]:  # double the run of states to BLOCK
            nhi, nlo = _jump(hi, lo, a, inc * s & _M128)
            hi, lo = np.concatenate((hi, nhi)), np.concatenate((lo, nlo))
        self._hi, self._lo = hi, lo
        self._out = _xsl_rr(hi, lo)
        self._pos = 0
        self._half = None  # the high half of a 64-bit output not yet drawn

    def _refill(self) -> None:
        self._hi, self._lo = _jump(self._hi, self._lo, _JUMPS[-1][0], self._c_block)
        self._out = _xsl_rr(self._hi, self._lo)
        self._pos = 0

    def _next64(self, n: int) -> np.ndarray:
        """The next n 64-bit outputs (a view of the block when it holds them)."""
        pos = self._pos
        if pos + n <= BLOCK:
            self._pos = pos + n
            return self._out[pos : pos + n]
        out = np.empty(n, dtype=np.uint64)
        done = BLOCK - pos
        out[:done] = self._out[pos:]
        while done < n:
            self._refill()
            take = min(BLOCK, n - done)
            out[done : done + take] = self._out[:take]
            done += take
            self._pos = take
        return out

    def _words(self, n: int) -> np.ndarray:
        """The next n 32-bit words, as uint32."""
        w = self._next64((n - (self._half is not None) + 1) // 2).view(np.uint32)
        if not _LITTLE:
            w = w.reshape(-1, 2)[:, ::-1].ravel()
        if self._half is not None:
            w = np.concatenate((np.array([self._half], dtype=np.uint32), w))
        self._half = int(w[n]) if w.size > n else None
        return w[:n]

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform doubles on [low, high): a float when size is None, else
        an array of that size."""
        low = float(low)
        span = float(high) - low
        if size is None:
            return low + span * ((int(self._next64(1)[0]) >> 11) * 2.0**-53)
        n, shape = _shape(size)
        d = (self._next64(n) >> _S11) * 2.0**-53
        d *= span
        d += low
        return d.reshape(shape)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers on [low, high): an int when size is None, else
        an int64 array of that size. high - low must be below 2^32."""
        low, high = operator.index(low), operator.index(high)
        span = high - 1 - low
        if span < 0:
            raise ValueError(f"need low < high, got [{low}, {high})")
        if span >= _M32:
            raise ValueError(f"the range [{low}, {high}) holds 2^32 or more integers")
        excl = span + 1
        threshold = (1 << 32) % excl  # below it a word is rejected
        if size is None:
            if span == 0:
                return low
            while True:
                m = int(self._words(1)[0]) * excl
                if m & _M32 >= threshold:
                    return low + (m >> 32)
        n, shape = _shape(size)
        if span == 0:
            return np.full(shape, low, dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        done = 0
        while done < n:
            halves = (self._words(min(n - done, _CHUNK)) * np.uint64(excl)).view(np.uint32)
            high = halves[1 - _LOW :: 2]  # the draws; the low halves decide rejection
            if threshold and not (kept := halves[_LOW::2] >= threshold).all():
                high = high[kept]
            np.add(high, np.int64(low), out=out[done : done + high.size])
            done += high.size
        return out.reshape(shape)
