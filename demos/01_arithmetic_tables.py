"""Tour of the sieve tables: lambda, mu, d, beta, nu and the partial sums.

Run:  python demos/01_arithmetic_tables.py
"""

import numpy as np

from liouville_mellin import (beta_value, build_table, divisor_count,
                              liouville, mobius, nu_partial_sum, nu_value,
                              sqfree_square_split)

LIMIT = 200_001

print(f"sieving every arithmetic function up to {LIMIT} ...")
table = build_table(LIMIT)

# The Liouville function flips sign with every prime factor (with
# multiplicity); the Moebius function kills anything non-squarefree.
print("\n n   lambda  mu   d   beta        nu")
for n in range(1, 16):
    b = beta_value(table, n) if n % 2 else 0
    print(f"{n:3d}   {liouville(table, n):+d}    {mobius(table, n):+d}  "
          f"{divisor_count(table, n):3d}  {b:+4d}   {nu_value(table, n):+.6f}")

# Every odd n factors uniquely as (squarefree) * (square); beta scores the
# square part with the Moebius sign of the squarefree part.
print("\nsquarefree-times-square decompositions:")
for n in (45, 99, 1125, 9801):
    k, h = sqfree_square_split(table, n)
    print(f"  {n} = {k} * {h}^2   ->  beta({n}) = {beta_value(table, n):+d}")

# nu is supported on odd integers and rides the convolution
#   n nu(n) = sum_{k l = n} mu(k) beta(l)/sqrt(l);
# the convolution identity below is its Moebius inversion.
n = 225
acc = sum(l * nu_value(table, l) for l in range(1, n + 1) if n % l == 0)
print(f"\nconvolution check at n={n}: sum l*nu(l) over divisors = {acc:.12f}")
print(f"beta({n})/sqrt({n})                                     = "
      f"{beta_value(table, n) / np.sqrt(n):.12f}")

# The headline fact: the nu series sums to zero.  Watch S(N) drift down.
print("\npartial sums S(N) = sum nu(m), m <= N:")
for k in range(0, 18, 2):
    N = 2 ** k
    if N > LIMIT:
        break
    print(f"  S(2^{k:2d}) = {nu_partial_sum(table, N):+.6e}")

# Two inequalities hold with no exceptions across the whole table.  The table
# holds every function at odd n only (entry m is n = 2m+1); lambda, mu and d
# at even n follow from the odd part, and beta and nu vanish there.
odd_n = np.arange(1, LIMIT + 1, 2, dtype=np.float64)
ratio = table.beta_odd / np.sqrt(odd_n)
print(f"\nbeta(n)/sqrt(n) over odd n: min {ratio.min():+.6f}, "
      f"max {ratio.max():+.6f}  (never <= -1, equals +1 only at squares)")
bound_ok = np.all(np.abs(table.nu_odd) <= table.dcount_odd / odd_n + 1e-15)
print(f"|nu(n)| <= d(n)/n for every odd n (nu is 0 at even n): {bound_ok}")
