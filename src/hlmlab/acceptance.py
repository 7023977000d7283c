"""Acceptance suite: eleven numbered checks with frozen tolerances.

Each item measures the quantities it gates and reports them alongside
the verdict, so a failure names the value that broke the gate. Every
item takes the one N = 10^6 arithmetic table that run_all gets from
arith.table and reads only the columns it needs; A5 streams Lambda in
blocks derived from is_prime (arith.vonmangoldt_blocks), so the run
never makes Lambda's 8 B/n column. run_all returns the results and
prints one PASS/FAIL line per item; the CLI maps any failure to exit
code 3.

Item A4's two large-N ratio clauses are known to fail: the exact AP
counts at N = 10^5 sit 1.32x / 1.44x above the crude main terms
S_k N^2 / log^k N (the secondary log-correction), outside the stated
[0.75, 1.3] bracket. The counts themselves are checked by a
brute-force oracle up to N = 1000 and by two independent counts at
N = 10^5 in the tests; the gate is kept as specified and reports its
measured ratios.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import math
import time

import numpy as np

from . import arith, counting, fourier, gowers, linsys, nilseq, obstruction
from ._rng import Stream


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    measured: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        vals = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"{verdict} {self.cid} {self.title} [{self.elapsed:.1f}s] {vals}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def a1_singular_constants(tab) -> tuple[bool, dict]:
    s3 = linsys.closed_form_S3(10**6)
    s4 = linsys.closed_form_S4(10**6)
    ok = abs(s3 - 0.3301) <= 2e-4 and abs(s4 - 0.4764) <= 2e-4
    return ok, {"S3": s3, "S4": s4}


def a2_local_factor_oracle(tab) -> tuple[bool, dict]:
    ok = True
    checked = 0
    for p in range(2, 101):
        if not all(p % q for q in range(2, int(p**0.5) + 1)):
            continue
        e3 = linsys.local_factor(linsys.AP3, p, "enumerate")
        e4 = linsys.local_factor(linsys.AP4, p, "enumerate")
        ok &= e3 == linsys.local_factor(linsys.AP3, p, "rank")
        ok &= e4 == linsys.local_factor(linsys.AP4, p, "rank")
        if p == 2:
            ok &= e3 == 2 and e4 == 4
        elif p == 3:
            ok &= e3 == Fraction(3, 4) and e4 == Fraction(9, 8)
        else:
            ok &= e3 == 1 - Fraction(1, (p - 1) ** 2)
            ok &= e4 == 1 - Fraction(3 * p - 1, (p - 1) ** 3)
        checked += 1
    return bool(ok), {"primes_checked": checked}


def a3_weighted_3ap(tab) -> tuple[bool, dict]:
    target = 4.0 * linsys.closed_form_S3(10**6)  # = S(A3) ~ 1.3203
    w6 = counting.weighted_ap_average(tab, 10**6, 3)
    w4 = counting.weighted_ap_average(tab, 10**4, 3)
    r6, r4 = w6 / target, w4 / target
    ok = abs(r6 - 1.0) <= 0.10 and abs(r6 - 1.0) < abs(r4 - 1.0)
    return ok, {"avg_1e6": w6, "target": target, "ratio_1e6": r6, "ratio_1e4": r4}


def a4_unweighted_counts(tab) -> tuple[bool, dict]:
    small_ok = (
        counting.count_ap_primes(tab, 20, 3) == 5
        and counting.count_ap_primes(tab, 10, 3) == 1
        and counting.count_ap_primes(tab, 23, 4) == 1
        and counting.count_ap_primes(tab, 20, 4) == 0
    )
    c3 = counting.count_ap_primes(tab, 10**5, 3)
    c4 = counting.count_ap_primes(tab, 10**5, 4)
    r3 = c3 / counting.prediction(3, 10**5)
    r4 = c4 / counting.prediction(4, 10**5)
    ratio_ok = 0.75 <= r3 <= 1.3 and 0.75 <= r4 <= 1.3
    return small_ok and ratio_ok, {
        "small_counts_ok": small_ok,
        "count3_1e5": c3,
        "ratio3": r3,
        "count4_1e5": c4,
        "ratio4": r4,
    }


def a5_exp_sum_spots(tab) -> tuple[bool, dict]:
    # Lambda on [1, 10^6] (run_all's table) streamed in blocks, each made
    # once for all three thetas, so the table never makes its 8 B/n column
    s0, s12, s13 = fourier.exp_sums(arith.vonmangoldt_blocks(tab), (0.0, 0.5, 1.0 / 3.0))
    ok = (
        abs(s0 - 1.0) <= 0.01
        and abs(s12 - (-1.0)) <= 0.01
        and abs(s13 - (-0.5)) <= 0.02
    )
    return ok, {"S0": abs(s0), "S_half": abs(s12), "S_third": abs(s13)}


def a6_davenport_decay(tab) -> tuple[bool, dict]:
    sups = [fourier.sup_exp_sum(tab.mobius[1 : N + 1], 4)[1] for N in (10**4, 10**5, 10**6)]
    ok = sups[0] > sups[1] > sups[2] and sups[2] <= 0.01
    return ok, {"sup_1e4": sups[0], "sup_1e5": sups[1], "sup_1e6": sups[2]}


def a7_gowers_cross_method(tab) -> tuple[bool, dict]:
    rng = Stream(2024)
    worst = 0.0
    for trial in range(200):
        k = (2, 3, 4)[trial % 3]
        M = rng.integers(4, 17 if k == 4 else 33)
        f = rng.uniform(-1.0, 1.0, M)
        a = gowers.uk_norm(f, k, "fft")
        b = gowers.uk_norm(f, k, "recursive")
        c = gowers.uk_norm_bruteforce(f, k)
        worst = max(worst, abs(a - b), abs(a - c), abs(b - c))
    ident_worst = 0.0
    M = 101
    for _ in range(200):
        fs = [rng.uniform(-1.0, 1.0, M) for _ in range(3)]
        direct = gowers.ap_average(fs)
        spectral = gowers.ap_average_spectral(*fs)
        ident_worst = max(ident_worst, abs(direct - spectral))
    ok = worst <= 1e-10 and ident_worst <= 1e-10
    return ok, {"cross_method_worst": worst, "fourier_identity_worst": ident_worst}


def a8_inequalities(tab) -> tuple[bool, dict]:
    rng = Stream(4096)
    M = 101
    gvn_margin = math.inf
    for trial in range(1000):
        k = 3 if trial % 2 == 0 else 4
        fs = [rng.uniform(-1.0, 1.0, M) for _ in range(k)]
        lhs = abs(gowers.ap_average(fs))
        rhs = min(
            gowers.u2_norm(f) if k == 3 else gowers.uk_norm(f, 3) for f in fs
        )
        gvn_margin = min(gvn_margin, rhs - lhs)
    inv_margin = math.inf
    for _ in range(500):
        f = rng.uniform(-1.0, 1.0, 128)
        _, mag, u2 = gowers.inverse_u2_witness(f)
        inv_margin = min(inv_margin, mag - u2**2)
    ok = gvn_margin >= -1e-12 and inv_margin >= -1e-12
    return ok, {"gvn_min_margin": gvn_margin, "inverse_u2_min_margin": inv_margin}


def a9_heisenberg_orbit(tab) -> tuple[bool, dict]:
    rng = Stream(99)
    checkpoints = {1, 10, 100, 1000, 10**4}
    draws = rng.uniform(-2.0, 2.0, (100, 3))
    # all 100 orbits step at once: shift works elementwise on array coordinates
    g = nilseq.HeisenbergElement(*draws.T)
    p = nilseq.HeisenbergPoint(*np.zeros((3, 100)))
    worst = 0.0
    for n in range(1, 10**4 + 1):
        p = nilseq.shift(g, p)
        if n in checkpoints:
            for i, row in enumerate(draws):
                c = nilseq.closed_form_orbit(nilseq.HeisenbergElement(*row), n)
                for a, b in ((p.x[i], c.x), (p.y[i], c.y), (p.z[i], c.z)):
                    d = abs(a - b) % 1.0
                    worst = max(worst, float(min(d, 1.0 - d)))
    return worst <= 1e-8, {"worst_coordinate_gap": worst}


def a10_obstruction_contrast(tab) -> tuple[bool, dict]:
    # one report: the 4-AP ratio and the completion share one pair of AP sums
    report = obstruction.stats_report(obstruction.build("A1", 10**5, 0.1))
    bias, ratio4 = report["bias"], report["ratios"]["ap4"]
    comp = report["completion_prob"]  # None: too few conditioning triples
    ident = obstruction.check_constraint_identity(1000, 1000)
    ok = bias <= 0.01 and ratio4 >= 2.0 and comp is not None and 0.2 <= comp <= 0.4 and ident
    return ok, {
        "bias": bias,
        "ap4_ratio": ratio4,
        "completion_prob": comp,
        "identity_exact": ident,
    }


def a11_mobius_nilsequences(tab) -> tuple[bool, dict]:
    small = nilseq.correlation_battery(tab.mobius[1 : 10**3 + 1], 10**3)
    big = nilseq.correlation_battery(tab.mobius[1 : 10**6 + 1], 10**6)
    ok = True
    measured = {}
    for name in small:
        ok &= big[name] <= 0.5 * small[name] and big[name] <= 0.05
        measured[f"{name}@1e6"] = big[name]
    return bool(ok), measured


CRITERIA = [
    ("A1", "singular-series constants", ("singular", "linsys"), a1_singular_constants),
    ("A2", "local-factor oracle equivalence", ("singular", "linsys"), a2_local_factor_oracle),
    ("A3", "weighted 3-AP Hardy-Littlewood check", ("count",), a3_weighted_3ap),
    ("A4", "unweighted AP counts", ("count",), a4_unweighted_counts),
    ("A5", "exponential-sum spot values", ("expsum",), a5_exp_sum_spots),
    ("A6", "Davenport decay battery", ("expsum", "mobius-corr"), a6_davenport_decay),
    ("A7", "Gowers cross-method equivalence", ("gowers",), a7_gowers_cross_method),
    ("A8", "GvN and inverse-U2 inequality suites", ("gowers",), a8_inequalities),
    ("A9", "Heisenberg orbit closed form", ("nilseq",), a9_heisenberg_orbit),
    ("A10", "obstruction contrast", ("obstruction",), a10_obstruction_contrast),
    ("A11", "Mobius-nilsequence correlation decay", ("mobius-corr", "nilseq"), a11_mobius_nilsequences),
]


def run_all(only: str | None = None) -> list[CriterionResult]:
    """Run the acceptance items (optionally filtered by id or tag)."""
    tab = arith.table(10**6)
    results = []
    for cid, title, tags, fn in CRITERIA:
        if only and only.lower() != cid.lower() and only.lower() not in tags:
            continue
        t0 = time.time()
        passed, measured = fn(tab)
        res = CriterionResult(cid, title, passed, measured, time.time() - t0)
        results.append(res)
        print(res.line())
    return results
