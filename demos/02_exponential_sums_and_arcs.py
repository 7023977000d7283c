"""Exponential sums over primes and the major/minor arc dichotomy.

S(theta) = E Lambda(n) e(theta n) takes structured values at rationals
with small denominator (the major arcs): S(0) -> 1, S(1/2) -> -1,
S(1/3) -> -1/2. At a badly approximable irrational like sqrt(2) - 1 the
sum collapses (the minor arcs). Mobius kills the distinction: M(theta)
is uniformly tiny, and its sup over theta decays as N grows.
"""

import math

import numpy as np

from hlmlab import arith, fourier

N = 10**6
table = arith.build_table(N)
lam = table.vonmangoldt[1 : N + 1]

print("Spot values of S(theta) at N = 1e6:")
for theta, label, expect in [
    (0.0, "0", "+1"),
    (0.5, "1/2", "-1"),
    (1 / 3, "1/3", "-1/2"),
    (math.sqrt(2) - 1, "sqrt2-1", "~0"),
]:
    s = fourier.exp_sum(lam, theta)
    print(f"  S({label:>8}) = {s.real:+.4f} {s.imag:+.4f}i   (expect {expect})")

print("\nArc classification at N = 1e6, A = 2 (q <= log^2 N):")
for theta in (1 / 3, 1 / 3 + 1e-9, math.sqrt(2) - 1, 0.5):
    arc = fourier.classify_arc(theta, N, 2.0)
    where = f"a/q = {arc.a}/{arc.q}" if arc.verdict == "major" else "no close rational"
    print(f"  theta = {theta:.9f}: {arc.verdict:>5}  ({where})")

print("\nDavenport decay of sup |M(theta)| on the 4x oversampled grid:")
for n in (10**4, 10**5, 10**6):
    theta_star, value = fourier.sup_exp_sum(table.mobius[1 : n + 1])
    print(f"  N = {n:>7}: sup = {value:.5f} at theta = {theta_star:.6f}")

print("\nType I/II cancellation for the minor-arc phase e(n sqrt 2), N = 1e4:")
n = np.arange(1, 10**4 + 1)
f = np.exp(2j * np.pi * np.mod(n * math.sqrt(2), 1.0))
print(f"  type1_max(D=10) = {fourier.type1_max(f, 10):.2f}  (<< N = 1e4)")
print(f"  type2_max(D=W=32, N=4096) = {fourier.type2_max(f[:4096], 32, 32):.2f}"
      f"  (rank-one bound would be {32.0:.0f})")
