"""Genus-0 boundary presentations and second cohomology.

The n-pointed genus-0 space is cut out by boundary divisors D_S subject to
the four-point relations and the incompatibility products; the same
generic elimination engine recovers its Betti numbers and Poincare
duality.  The second-cohomology presentation works for every genus.
"""
from tautrings import (h2_rank, kappa1_in_boundary_basis, keel_generators,
                       keel_pairing_check, keel_ring_dims,
                       psi_in_boundary_basis)

print("Boundary divisor counts 2^(n-1) - n - 1:")
for n in range(3, 8):
    print(f"  n={n}: {len(keel_generators(n))} divisors")

print("\nBetti numbers from the presentation:")
for n in (4, 5, 6):
    print(f"  n={n}: {keel_ring_dims(n)}  perfect pairing:",
          keel_pairing_check(n))

print("\npsi_1 in the divisor basis (auxiliary markings 2, 3):")
print("  n=4:", psi_in_boundary_basis(4, 1, 2, 3))
print("  n=5:", psi_in_boundary_basis(5, 1, 2, 3))
print("(different auxiliary choices differ by four-point relations only)")

print("\nkappa_1 in the divisor basis, weight (|S|-1)(n-|S|-1)/(n-1) on D_S:")
print("  n=5:", kappa1_in_boundary_basis(5))

print("\nSecond-cohomology ranks across genera:")
for (g, n) in [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]:
    print(f"  H^2 rank at (g={g}, n={n}):", h2_rank(g, n))
print("(the genus-0 column reproduces the Keel Betti numbers in degree 1)")
