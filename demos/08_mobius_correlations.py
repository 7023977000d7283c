"""Mobius orthogonality against nilsequences, measured.

The Mobius randomness principle says mu should be asymptotically
orthogonal to any reasonable bounded sequence. Davenport proved it for
linear phases; the generalized method needs it for nilsequences. Here
the correlations against a frozen battery (two torus rotations, three
Heisenberg sequences) visibly collapse between N = 10^3 and N = 10^6.
"""

import numpy as np

from hlmlab import arith, nilseq

table = arith.build_table(10**6)

print("|E mu(n) F(T_g^n x)| for the frozen battery:")
print(f"{'sequence':>22}  {'N=1e3':>9}  {'N=1e6':>9}  decay")
small = nilseq.correlation_battery(table.mobius[1 : 10**3 + 1], 10**3)
big = nilseq.correlation_battery(table.mobius[1 : 10**6 + 1], 10**6)
for name in small:
    ratio = small[name] / max(big[name], 1e-12)
    print(f"{name:>22}  {small[name]:9.5f}  {big[name]:9.5f}  x{ratio:.0f}")

print("\nfor contrast, a sequence mu does NOT decorrelate from: itself")
mu = table.mobius[1 : 10**6 + 1]
print(f"  E mu(n)^2 = {np.mean(mu * mu):.4f}  (the density of squarefree numbers)")

print("\nand the prime indicator correlates with e(n/2) forever "
      "(all primes but 2 are odd):")
lam = table.vonmangoldt[1 : 10**6 + 1]
seq = np.exp(1j * np.pi * np.arange(1, 10**6 + 1))
print(f"  E Lambda(n) e(n/2) = {np.mean(lam * seq).real:+.4f}  "
      "(the W-trick exists to remove exactly this)")
