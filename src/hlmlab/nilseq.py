"""Nilsequences: torus rotations, the Heisenberg nilmanifold and generalized
quadratic phases.

The Heisenberg nilmanifold is the quotient of upper unitriangular 3x3
real matrices by the integer lattice, coordinatized as (x, y, z) with
the equivalences (x, y, z) ~ (x+a, y+b+c*x, z+c), a, b, c integers
(so x, y reduce mod 1 and a z-wrap by c twists y by c*x; the cylinder
gluing (x, y, -1/2) ~ (x, x+y, 1/2) is the c = 1 case). Fundamental
domain: x, y in [0, 1), z in (-1/2, 1/2].

The translation by g = (alpha, beta, gamma) acting on this quotient is

    T_g(x, y, z) = (x + alpha, y + beta + alpha*z, z + gamma).

The middle term must couple alpha with z: that is the unique form that
descends through the identification above (a cross-term gamma*x fails
to: a z-wrap before or after the shift would then change the result by
the non-integer gamma*a - c*alpha). Because T_g descends, reducing at
every step or reducing once at the end agree, and a short induction
gives the orbit of the origin:

    T_g^n(0,0,0) = (n*alpha, n*beta + n(n-1)/2 * alpha*gamma, n*gamma),

whose reduced y-coordinate picks up the bracket cross-term
[n*gamma]*n*alpha: the hallmark generalized-quadratic behaviour of
2-step sequences. (The quadratic coefficient is n(n-1)/2: one
application of T_g to the origin yields exactly (alpha, beta, gamma).)

Signed fractional part convention everywhere: {t} in (-1/2, 1/2], and
[t] = t - {t} is the nearest integer with half-integers rounding down
(both from hlmlab._phase, with the exact double-double phase kernel).

Closed-form orbit coordinates are reduced in exact rational arithmetic
(floats are binary rationals), so they stay trustworthy for any n; the
step-by-step shift orbit is the independent ground truth the tests
compare against.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import math
import sys

import numpy as np

from ._phase import _SPLIT, EXACT_LIMIT, frac01, frac_dd, frac_half, nearest_int, two_prod
from ._rng import Stream


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element g with upper-triangular coordinates (alpha, beta, gamma)."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class HeisenbergPoint:
    """Fundamental-domain point: x, y in [0,1), z in (-1/2, 1/2]."""

    x: float
    y: float
    z: float


ORIGIN = HeisenbergPoint(0.0, 0.0, 0.0)


def reduce_point(x: float, y: float, z: float) -> HeisenbergPoint:
    """Reduce raw coordinates into the fundamental domain.

    c = -[z] fixes z (updating y by c*x with the pre-reduction x), then
    x and y drop mod 1. Idempotent, and equivalent to the input.
    Array-friendly: equal-shape coordinate arrays reduce elementwise.
    """
    c = nearest_int(z)
    y = y - c * x
    return HeisenbergPoint(frac01(x), frac01(y), z - c)


def shift(g: HeisenbergElement, p: HeisenbergPoint) -> HeisenbergPoint:
    """One translation: reduce(x + alpha, y + beta + alpha*z, z + gamma).

    Array-friendly like reduce_point: with array coordinates in g and p
    it steps many orbits at once.
    """
    return reduce_point(p.x + g.alpha, p.y + g.beta + g.alpha * p.z, p.z + g.gamma)


def closed_form_orbit(g: HeisenbergElement, n: int) -> HeisenbergPoint:
    """T_g^n(origin), reduced, via exact rational mod-1 arithmetic.

    Unreduced coordinates (n*a, n*b + n(n-1)/2 * a*c, n*c) are formed
    as exact fractions (each float is a binary rational), so the mod-1
    reductions lose nothing even when the quadratic term is huge.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    a, b, c = Fraction(g.alpha), Fraction(g.beta), Fraction(g.gamma)
    xr = n * a
    zr = n * c
    yr = n * b + Fraction(n * (n - 1), 2) * a * c
    zint = math.ceil(zr - Fraction(1, 2))  # [z], halves down
    y_red = (yr - zint * xr) % 1
    return HeisenbergPoint(float(xr % 1), float(y_red), float(zr - zint))


# points per block of the orbit fills and the battery: a block's dozen
# temporaries then stay in cache (at N = 10^7 this halves the battery's time
# against whole-array passes)
_BLOCK = 1 << 14


def _check_n_max(n_max: int) -> None:
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if n_max * (n_max - 1) >= EXACT_LIMIT:
        raise ValueError(f"n_max = {n_max} too large: n(n-1) must stay below 2^53")


def _check_orbit(g: HeisenbergElement, x0: HeisenbergPoint, n_max: int) -> None:
    """Refuse an orbit that _orbit cannot compute in doubles for n <= n_max:
    n_max < 1, n_max(n_max - 1) >= 2^53, a non-finite coordinate, or a
    finite g whose intermediates overflow."""
    _check_n_max(n_max)
    coords = (g.alpha, g.beta, g.gamma, x0.x, x0.y, x0.z)
    if not all(math.isfinite(t) for t in coords):
        raise ValueError(f"g and x0 must be finite, got g = {g}, x0 = {x0}")
    a, b, c, x, y, z = (abs(float(t)) for t in coords)
    # each bounds the magnitude of one intermediate of _orbit at n = n_max
    bounds = (x + a * n_max,  # x_raw
              z + c * n_max,  # z_raw, and the wrap count
              a * _SPLIT, c * _SPLIT, a * c * _SPLIT,  # the Dekker splits
              n_max * n_max * (a * c),  # the quadratic product in frac_dd
              y + b * n_max + a * z * n_max + 2.0 + z + c * n_max)  # y_raw
    if not all(math.isfinite(t) for t in bounds):
        raise ValueError(f"the orbit of g = {g} overflows a double within n <= {n_max}")


def _orbit(g: HeisenbergElement, x0: HeisenbergPoint, n: np.ndarray):
    """Reduced coordinates (x, y, z) of T_g^n x0 at the integer-valued
    float64 array n, whose largest n(n-1) the caller keeps below 2^53.

    The quadratic term n(n-1)/2 * alpha*gamma is reduced mod 1 by the
    double-double kernel from the exact product alpha*gamma, so it is
    exact to double resolution for every such n.
    """
    x_raw = x0.x + g.alpha * n
    z_raw = x0.z + g.gamma * n
    quad = frac_dd(n * (n - 1.0) * 0.5, *two_prod(g.alpha, g.gamma))
    x_red = frac01(x_raw)
    c = nearest_int(z_raw)
    # c * x_raw = c * x_red (mod 1); the reduced form avoids huge products
    y_raw = x0.y + g.beta * n + g.alpha * x0.z * n + quad - c * x_red
    return x_red, frac01(y_raw), z_raw - c


def _orbit_blocks(g: HeisenbergElement, x0: HeisenbergPoint, n_max: int):
    """Yield (lo, (x, y, z)) for n = lo+1 .. lo+_BLOCK in turn up to n_max.
    Every point is the one _orbit gives on the whole range, bit for bit:
    _orbit is elementwise. The caller runs _check_orbit first."""
    for lo in range(0, n_max, _BLOCK):
        yield lo, _orbit(g, x0, np.arange(lo + 1.0, min(lo + _BLOCK, n_max) + 1))


def orbit_array(g: HeisenbergElement, x0: HeisenbergPoint, n_max: int) -> np.ndarray:
    """Reduced orbit points for n = 1..n_max as an (n_max, 3) array.

    Vectorized closed form (valid because the shift descends to the
    quotient): unreduced coordinates from (x0, y0, z0) are

        x = x0 + n*alpha,  z = z0 + n*gamma,
        y = y0 + n*beta + n*alpha*z0 + n(n-1)/2 * alpha*gamma,

    then one reduction. The quadratic term is exact to double resolution
    (hlmlab._phase.frac_dd). The z-wrap correction c * x_red is a plain
    double product: x_red carries the ~n * 2^-53 rounding of n*alpha and
    c ~ n*gamma multiplies it, so y is off by up to ~n^2 * 2^-53 (up to
    2e-4 near n = 10^6 and 1.6e-2 near 10^7 for g = (sqrt2, 0.1, sqrt3)).
    The points are filled in blocks of _BLOCK, so the memory beyond the
    output is one block's temporaries. n_max < 1, n_max(n_max - 1) >= 2^53
    or an orbit that overflows a double raises ValueError before any
    allocation.
    """
    _check_orbit(g, x0, n_max)
    out = np.empty((n_max, 3))
    for lo, pts in _orbit_blocks(g, x0, n_max):
        out[lo : lo + _BLOCK] = np.stack(pts, axis=1)
    return out


@dataclass
class TestFunction:
    """Bounded Lipschitz test function on the Heisenberg nilmanifold.

    kind "vertical_character": F(x,y,z) = e(m*y) * bump(z), where the
    smooth bump vanishes at z = +-1/2 so the gluing
    F(x, y, -1/2) = F(x, x+y, 1/2) holds exactly (both sides are 0).
    kind "torus_character": F = e(m1*x + m2*z); no cutoff is needed
    since e(m2*z) glues on its own (e(-m2/2) = e(m2/2) for integer m2).

    lipschitz_estimate is a sampled finite-difference estimate on a
    seeded random grid, not a certified bound. It is computed when first
    read and then kept: the correlations and the orbit tables never read
    it. Its grid is drawn from _rng.Stream(1), numpy's default_rng(1)
    sequence without the import of numpy.random.
    """

    kind: str
    m: tuple

    @classmethod
    def vertical_character(cls, m: int = 1) -> "TestFunction":
        return cls(kind="vertical_character", m=(int(m),))

    @classmethod
    def torus_character(cls, m1: int = 1, m2: int = 0) -> "TestFunction":
        return cls(kind="torus_character", m=(int(m1), int(m2)))

    @staticmethod
    def _bump(z):
        z = np.asarray(z, dtype=np.float64)
        out = np.zeros_like(z)
        inside = np.abs(z) < 0.5
        u = np.clip(2.0 * z[inside], -1.0 + 1e-300, 1.0 - 1e-300)
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u * u))
        return out

    def evaluate(self, x, y, z) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "vertical_character":
            return np.exp(2j * np.pi * self.m[0] * y) * self._bump(z)
        return np.exp(2j * np.pi * (self.m[0] * x + self.m[1] * z))

    def gluing_defect(self, gx: int = 100, gy: int = 100) -> float:
        """max |F(x, y, -1/2) - F(x, x+y, 1/2)| over a gx-by-gy grid."""
        x = np.linspace(0.0, 1.0, gx, endpoint=False)[:, None]
        y = np.linspace(0.0, 1.0, gy, endpoint=False)[None, :]
        lo = self.evaluate(x + 0 * y, y + 0 * x, np.full((gx, gy), -0.5))
        hi = self.evaluate(x + 0 * y, frac01(x + y), np.full((gx, gy), 0.5))
        return float(np.max(np.abs(lo - hi)))

    @cached_property
    def lipschitz_estimate(self) -> float:
        samples, eps = 4000, 1e-4
        rng = Stream(1)
        x = rng.uniform(0, 1, samples)
        y = rng.uniform(0, 1, samples)
        z = rng.uniform(-0.5 + eps, 0.5 - eps, samples)
        base = self.evaluate(x, y, z)
        grad = np.zeros(samples)
        for dx, dy, dz in ((eps, 0, 0), (0, eps, 0), (0, 0, eps)):
            stepped = self.evaluate(frac01(x + dx), frac01(y + dy), z + dz)
            grad += (np.abs(stepped - base) / eps) ** 2
        return float(np.sqrt(grad).max())


def _check_character(F: TestFunction) -> None:
    """Refuse a character whose phase 2*pi*(m . coordinates) can overflow a
    double on the fundamental domain (x, y < 1, |z| <= 1/2), before F is
    evaluated anywhere; the bound has a factor 2 of room for rounding."""
    weights = (1, Fraction(1, 2)) if F.kind == "torus_character" else (1,)
    if sum(abs(m) * w for m, w in zip(F.m, weights)) > sys.float_info.max / (4 * math.pi):
        raise ValueError(f"the {F.kind} phase 2*pi*(m . (x, y, z)) overflows a double")


def eval_nilsequence(F: TestFunction, g: HeisenbergElement,
                     x0: HeisenbergPoint = ORIGIN, n_max: int = 1000) -> np.ndarray:
    """(F(T_g^n x0))_{n=1..n_max} as a complex array, |values| <= 1,
    evaluated block by block on orbit_array's points."""
    _check_orbit(g, x0, n_max)
    _check_character(F)
    out = np.empty(n_max, dtype=np.complex128)
    for lo, pts in _orbit_blocks(g, x0, n_max):
        out[lo : lo + _BLOCK] = F.evaluate(*pts)
    return out


def nilsequence_blocks(F: TestFunction, g: HeisenbergElement, x0: HeisenbergPoint,
                       n_max: int):
    """An iterator of (lo, rows): rows (x, y, z, Re F, Im F) at T_g^n x0 for
    n = lo+1 .. lo+_BLOCK in turn up to n_max, as a (rows, 5) array, each
    point orbit_array's and each value F's at it, bit for bit. The orbit
    and the character are checked when it is called, before any block is
    made; the memory is one block's rows and temporaries."""
    _check_orbit(g, x0, n_max)
    _check_character(F)

    def blocks():
        for lo, pts in _orbit_blocks(g, x0, n_max):
            vals = F.evaluate(*pts)
            yield lo, np.stack([*pts, vals.real, vals.imag], axis=1)
    return blocks()


def nilsequence_table(F: TestFunction, g: HeisenbergElement, x0: HeisenbergPoint,
                      n_max: int) -> np.ndarray:
    """The rows of nilsequence_blocks as one (n_max, 5) array, refused on
    the same inputs before it is allocated."""
    blocks = nilsequence_blocks(F, g, x0, n_max)
    out = np.empty((n_max, 5))
    for lo, rows in blocks:
        out[lo : lo + _BLOCK] = rows
    return out


GQ_DIM_CAP = 64  # largest number C of frequencies in a GeneralizedQuadratic


@dataclass(frozen=True)
class GeneralizedQuadratic:
    """phi(n) = sum_{r,s} beta[r,s] {theta_r n}{theta_s n} + sum_r gamma[r] {theta_r n}."""

    beta: np.ndarray
    gamma_coeffs: np.ndarray
    thetas: np.ndarray

    @classmethod
    def create(cls, beta, gamma_coeffs, thetas) -> "GeneralizedQuadratic":
        b = np.atleast_2d(np.asarray(beta, dtype=np.float64))
        g = np.atleast_1d(np.asarray(gamma_coeffs, dtype=np.float64))
        th = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
        C = th.size
        if C > GQ_DIM_CAP:
            raise ValueError(f"dimension {C} beyond cap {GQ_DIM_CAP}")
        if b.shape != (C, C) or g.shape != (C,):
            raise ValueError("beta must be C x C and gamma length C")
        if not (np.isfinite(b).all() and np.isfinite(g).all() and np.isfinite(th).all()):
            raise ValueError("parameters must be finite")
        return cls(beta=b, gamma_coeffs=g, thetas=th)

    def phase(self, n) -> np.ndarray:
        """phi(n), vectorized over integer n >= 1."""
        narr = np.atleast_1d(np.asarray(n, dtype=np.float64))
        parts = frac_half(np.outer(self.thetas, narr))  # (C, len(n))
        quad = np.einsum("rs,rn,sn->n", self.beta, parts, parts)
        lin = self.gamma_coeffs @ parts
        out = quad + lin
        return out if np.ndim(n) else float(out[0])

    def value(self, n) -> np.ndarray:
        """e(phi(n))."""
        return np.exp(2j * np.pi * np.asarray(self.phase(n)))


def quadratic_embedding(theta: float, N: int) -> GeneralizedQuadratic:
    """theta*n^2 as a generalized quadratic: 100*theta*N^2 {n/(10N)}^2.

    Exact for 1 <= n <= N since n/(10N) stays inside (0, 1/2].
    """
    return GeneralizedQuadratic.create(
        beta=[[100.0 * theta * N * N]], gamma_coeffs=[0.0], thetas=[1.0 / (10.0 * N)]
    )


def correlation_battery(weights, n_max: int) -> dict:
    """|E_{n<=n_max} w(n) seq(n)| for a frozen battery of nilsequences.

    Two torus rotations and three Heisenberg orbits with a vertical
    character; keys describe each sequence. Used for the Mobius
    correlation-decay checks. Each orbit and test function is evaluated
    only where w(n) != 0 (61% of n for mu at N = 2e6), block by block;
    the sum over that support is divided by n_max, so the mean is the
    full-length one. The support is taken one block of 2 _BLOCK values of
    n at a time (about _BLOCK points for mu), and each block gathers its
    own weights and points, so the weights keep their dtype (mu as int8)
    and neither a full-length float copy nor a full-length index is made.
    """
    w = np.asarray(weights)[:n_max]
    if w.size != n_max:
        raise ValueError(f"length mismatch: {w.size} weights for n_max = {n_max}")
    _check_n_max(n_max)
    battery = default_battery()
    totals = dict.fromkeys(battery, 0j)
    for lo in range(0, n_max, 2 * _BLOCK):
        block = w[lo : lo + 2 * _BLOCK]
        idx = np.flatnonzero(block)
        n, wb = idx + (lo + 1.0), block[idx]
        for name, (F, g) in battery.items():
            totals[name] += complex(np.sum(wb * F.evaluate(*_orbit(g, ORIGIN, n))))
    return {name: abs(total) / n_max for name, total in totals.items()}


def default_battery() -> dict:
    """The frozen 5-sequence battery: 2 torus, 3 Heisenberg."""
    sq2 = math.sqrt(2.0)
    sq3 = math.sqrt(3.0)
    sq5 = math.sqrt(5.0)
    return {
        "torus_e(n*sqrt2)": (
            TestFunction.torus_character(1, 0),
            HeisenbergElement(sq2 - 1.0, 0.0, 0.0),
        ),
        "torus_e(n*golden)": (
            TestFunction.torus_character(1, 0),
            HeisenbergElement((sq5 - 1.0) / 2.0, 0.0, 0.0),
        ),
        "heis_sqrt2_sqrt3": (
            TestFunction.vertical_character(1),
            HeisenbergElement(sq2, 0.0, sq3),
        ),
        "heis_pi_e": (
            TestFunction.vertical_character(1),
            HeisenbergElement(1.0 / math.pi, 1.0 / math.e, sq5),
        ),
        "heis_cbrt2": (
            TestFunction.vertical_character(2),
            HeisenbergElement(2.0 ** (1.0 / 3.0), 0.1, 3.0 ** (1.0 / 3.0)),
        ),
    }
