"""Tour of the kernels: one function, two series, shared poles and residues.

Run:  python demos/03_kernels.py
"""

import math

from liouville_mellin import (build_table, fermi, fermi_deficit, kernel_M,
                              kernel_M_prime, kernel_N, kernel_N_series,
                              residue_estimate)
from liouville_mellin.kernels import kernel_M_with_bound

LIMIT = 200_001
print(f"sieving to {LIMIT} ...")
table = build_table(LIMIT)

# The building block: the Fermi-type kernel 1/(e^z+1), regular at 0 with
# poles only at odd multiples of i pi.
print("\nFermi kernel:")
print(f"  fermi(0)   = {fermi(0.0).real}")
print(f"  fermi(100) = {fermi(100.0).real:.3e}   (no overflow, exact scale)")
print(f"  1/2 - fermi(1e-18) = {fermi_deficit(1e-18).real:.3e}   (full relative accuracy)")

# Two series build the same odd meromorphic function:
#   N: a partial-fraction sum with beta coefficients,
#   M: an exponential-kernel sum with nu coefficients.
print("\nM(z) against N(z):")
for z in (0.5, 1.0, 2.0, 0.5 + 0.5j, 2.0 - 1.0j):
    nv = kernel_N(z, table)
    mv = kernel_M(z, table)
    print(f"  z={z}:  N={nv:.10f}  |M-N|={abs(mv-nv):.2e}")

# Near the origin both collapse to one power series.
z = 0.8
print(f"\npower series at z={z}: {kernel_N_series(z).real:.12f} "
      f"vs direct {kernel_N(z, table).real:.12f}")

# The shared poles carry residues beta(2l+1)/sqrt(2l+1); extract them
# numerically as the mean of (z - p) K(z) over 32 points of |z - p| = pi/2.
print("\nresidues at i pi (2l+1):")
for l in (0, 1, 2):
    want = table.beta_odd[l] / math.sqrt(2 * l + 1)  # beta(2l+1)
    rn = residue_estimate("N", l, table)
    rm = residue_estimate("M", l, table)
    print(f"  l={l}: N-> {rn.real:+.6f}, M-> {rm.real:+.6f}, expected {want:+.6f}")

# The plain exponential form is the half-shifted sum plus one boundary term
# from the cached partial sums of nu; summation by parts bounds its remainder.
# The bound grows with x: at x = 50 it passes the 5e-8 that kernel_M accepts
# on this table, so the loop reads value and bound together.
print("\ndecay along the real axis:")
for x in (1.0, 5.0, 10.0, 50.0, 100.0):
    m, bound = kernel_M_with_bound(x, table, form="plain")
    print(f"  x={x:6.1f}  M(x)={m:+.6e}  bound {bound:.1e}   x*|M|={x*abs(m):.4f}")
print(f"max-scale derivative: M'(0) = {kernel_M_prime(0.0, table):+.6f}"
      "   (equals zeta_nu(1)/4)")
