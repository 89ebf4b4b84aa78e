"""The kappa-class ring of smooth genus-g curves via the FZ relations.

The relation generator extracts homogeneous kappa-polynomials from the
two-branch hypergeometric series; the generic graded-quotient engine then
reveals the Gorenstein structure: palindromic dimensions and perfect
pairings into a one-dimensional socle.
"""
from tautrings import (fz_relation_set, gorenstein_check, lambda_from_kappa,
                       ring_dims, socle_class_check, vanishing_check)

print("Lambda classes are polynomials in the odd kappas:")
for i, lam in enumerate(lambda_from_kappa(4)):
    print(f"  lambda_{i} = {lam!r}")

print("\nThe first interesting relation (genus 4, degree 2):")
for rel in fz_relation_set(4, 2):
    print(f"  [index r={rel.r}, sigma={list(rel.index)}]  {rel.polynomial!r} = 0")
print("  i.e. kappa_2 = (3/32) kappa_1^2 on the genus-4 interior")

print("\nGraded dimensions of the candidate rings:")
for g in range(2, 9):
    print(f"  g={g}: {ring_dims(g)}")

print("\nFull Gorenstein verification (dims palindromic, pairings perfect):")
for g in (6, 8):
    rep = gorenstein_check(g)
    print(f"  g={g}: dims={rep.dims} pairing-ranks={rep.pairing_ranks} "
          f"verdict={'yes' if rep.gorenstein else 'no'}")

print("\nkappa_{g-2} generates the socle; its hyperelliptic ratio:")
for g in (3, 4, 5):
    print(f"  g={g}: [H_g]/kappa_(g-2) =", socle_class_check(g))

print("\nEverything above the socle degree dies (Looijenga vanishing):")
for g in (4, 5, 6):
    print(f"  g={g}: degrees {g-1}..{g} vanish:", vanishing_check(g, g))
