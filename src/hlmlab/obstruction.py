"""Quadratic obstruction sets: no linear bias, yet excess 4-term APs.

Two sets inside [1, N], for a width parameter alpha:

    A1 = {x : {x^2 sqrt(2)} in [-alpha/2, alpha/2]}
    A2 = {x : {x sqrt(2) {x sqrt(3)}} in [-alpha/2, alpha/2]}

with the signed fractional part {t} in (-1/2, 1/2], both interval ends
closed. Both sets have density ~ alpha and tiny linear exponential-sum
bias, yet A1 has ~ 8/(27 alpha) times the random-model count of 4-term
APs: the alternating second difference

    x^2 - 3(x+d)^2 + 3(x+2d)^2 - (x+3d)^2 = 0

forces {(x+3d)^2 sqrt(2)} into [-7a/2, 7a/2] whenever the first three
points lie in A1, and the completion probability tends to
P(y1 - 3y2 + 3y3 in [-1,1] | y_i in [-1,1]) = 8/27.

Fractional parts are computed in double-double arithmetic (Dekker
products, hlmlab._phase.frac_dd), so x^2 sqrt(2) mod 1 keeps ~1e-15
accuracy out to x ~ 2e6 instead of losing 12 bits in plain doubles. AP
counts and the completion probability are counting.ap_sum over the
membership table.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from ._phase import frac_dd, frac_half
from ._rng import Stream
from .arith import balanced_function
from .counting import ap_cells, ap_sum
from .fourier import sup_exp_sum


def _dd_sqrt(n: int) -> tuple[float, float]:
    """sqrt(n) as a hi+lo double pair via exact rational Newton steps."""
    s = Fraction(math.isqrt(n * 10**40), 10**20)
    for _ in range(4):
        s = (s + n / s) / 2
    hi = float(s)
    lo = float(s - Fraction(hi))
    return hi, lo


SQRT2_HI, SQRT2_LO = _dd_sqrt(2)
SQRT3_HI, SQRT3_LO = _dd_sqrt(3)
MIN_CONDITION = 100  # fewest conditioning triples a completion probability needs
_BLOCK = 1 << 16  # x per block of build and of check_constraint_identity

@dataclass
class ObstructionSet:
    """Membership table of A1 or A2 on [1, N] with measured density."""

    kind: str  # "A1" | "A2"
    N: int
    alpha: float
    membership: np.ndarray  # bool, index i <-> n = i+1
    density: float

    def members(self) -> np.ndarray:
        return np.nonzero(self.membership)[0] + 1


def build(kind: str, N: int, alpha: float) -> ObstructionSet:
    """Membership by direct evaluation of the defining inequality.

    The phases are elementwise, so they are taken one block of _BLOCK x at
    a time into the bool membership: beyond its N bytes the build holds
    one block's float64 temporaries, not N-long ones.
    """
    if not 0.0 < alpha <= 0.25:
        raise ValueError(f"need 0 < alpha <= 0.25, got {alpha}")
    if N < 10**3:
        raise ValueError(f"need N >= 10^3, got {N}")
    member = np.empty(N, dtype=bool)
    for lo in range(0, N, _BLOCK):
        x = np.arange(lo + 1, min(lo + _BLOCK, N) + 1, dtype=np.int64)
        if kind == "A1":
            phase = frac_dd(x * x, SQRT2_HI, SQRT2_LO, frac_half)
        elif kind == "A2":
            inner = frac_dd(x, SQRT3_HI, SQRT3_LO, frac_half)
            # x*inner is not an integer, but the kernel only needs it to be a
            # double: inner is exact to ~1e-16, and the product with sqrt2 is
            # re-split so the mod-1 keeps full precision
            phase = frac_dd(x * inner, SQRT2_HI, SQRT2_LO, frac_half)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        # closed interval at both ends: the <= keeps +alpha/2; -alpha/2
        # maps to |phase| == alpha/2 as well under the signed convention
        member[lo : lo + _BLOCK] = np.abs(phase) <= alpha / 2.0
    return ObstructionSet(kind=kind, N=N, alpha=alpha,
                          membership=member, density=float(member.mean()))


def random_control_set(N: int, alpha: float, seed: int = 0) -> ObstructionSet:
    """Bernoulli(alpha) control with the same interface."""
    member = Stream(seed).uniform(size=N) < alpha
    return ObstructionSet(kind="bernoulli", N=N, alpha=alpha,
                          membership=member, density=float(member.mean()))


def linear_bias(obset: ObstructionSet) -> float:
    """sup over the frequency grid of |E f_A(n) e(theta n)|."""
    return sup_exp_sum(balanced_function(obset.membership))[1]


def _ap_stats(obset: ObstructionSet, k: int, observed: int) -> dict:
    predicted = obset.density**k * ap_cells(obset.N, k)
    return {
        "kind": obset.kind,
        "k": k,
        "N": obset.N,
        "observed": observed,
        "predicted": predicted,
        "ratio": observed / predicted if predicted > 0 else None,
    }


def ap_stats(obset: ObstructionSet, k: int) -> dict:
    """Exact in-set AP count against the random-model alpha^k baseline."""
    if k < 3:
        raise ValueError("need k >= 3")
    return _ap_stats(obset, k, ap_sum((obset.membership,) * k))


def _four_ap_counts(m: np.ndarray) -> tuple[int, int]:
    """(# in-set 4-APs, # in-set 3-APs (x, x+d, x+2d) with x + 3d <= N)."""
    return ap_sum((m,) * 4), ap_sum((m, m, m, np.ones_like(m)))


def _completion(completed: int, conditioned: int) -> float:
    if conditioned < MIN_CONDITION:
        raise ValueError(
            f"only {conditioned} conditioning triples (< {MIN_CONDITION})"
        )
    return completed / conditioned


def completion_probability(obset: ObstructionSet) -> float:
    """Empirical P(x + 3d in A | x, x+d, x+2d in A), over d >= 1."""
    return _completion(*_four_ap_counts(obset.membership))


def check_constraint_identity(x_max: int, d_max: int) -> bool:
    """x^2 - 3(x+d)^2 + 3(x+2d)^2 - (x+3d)^2 == 0, all 0 <= x,d <= bounds.

    Exact integer arithmetic; int64 is safe for bounds up to ~1e6. The
    (x, d) grid is taken in blocks of x rows of at most _BLOCK cells (one
    row when a row is longer), and the first nonzero value ends the check.
    """
    d = np.arange(0, d_max + 1, dtype=np.int64)[None, :]
    rows = max(1, _BLOCK // d.size)
    for lo in range(0, x_max + 1, rows):
        x = np.arange(lo, min(lo + rows, x_max + 1), dtype=np.int64)[:, None]
        val = x**2 - 3 * (x + d) ** 2 + 3 * (x + 2 * d) ** 2 - (x + 3 * d) ** 2
        if val.any():
            return False
    return True


def stats_report(obset: ObstructionSet) -> dict:
    """Full JSON-ready report: density, bias, AP counts, completion."""
    s3 = ap_stats(obset, 3)
    completed, conditioned = _four_ap_counts(obset.membership)
    s4 = _ap_stats(obset, 4, completed)
    report = {
        "kind": obset.kind,
        "N": obset.N,
        "alpha": obset.alpha,
        "density": obset.density,
        "bias": linear_bias(obset),
        "ap3": s3["observed"],
        "ap4": s4["observed"],
        "ratios": {"ap3": s3["ratio"], "ap4": s4["ratio"]},
    }
    try:
        report["completion_prob"] = _completion(completed, conditioned)
    except ValueError:
        report["completion_prob"] = None
    return report
