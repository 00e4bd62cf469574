"""The four-point sphere: deformed entry algebra and the AW(3) relations.

With symbolic weights on three of the points, the two monodromies close a
weight-deformed algebra with a central pair K1 K2 = 1; the fourth weight
is the central combination K1 + K2, and the three geodesic functions
close the Zhedanov-type quadratic algebra.
"""

from qshear.coeffs import Coefficient
from qshear.monodromy import element_is_zero, pvi_realization, relation_defects, relation_families
from qshear.torus import ew

real = pvi_realization()
f = real.form
print("M1 entries:")
for k in "abc":
    print(f"  {k}1 =", real.entry(k, 1))

a1, c2 = real.entry("a", 1), real.entry("c", 2)
c1, a2 = real.entry("c", 1), real.entry("a", 2)
q2 = Coefficient.q_power(2)
k1 = a1.mul(c2) - c1.mul(a2).scale(q2) - c1.scale(Coefficient.q_power(1) * real.omegas[2])
print("\nK1 =", k1, " (a single central monomial)")
print("K1 == exp(-X-Y-Z):", k1 == ew(f, {"X": -1, "Y": -1, "Z": -1}))

defects = relation_defects(relation_families(real, ("pvi", "hermitian")))
bad = [lbl for lbl, d in defects if not element_is_zero(d)]
print(f"\nfull catalog ({len(defects)} relations incl. AW(3) and the star checks):", "all pass" if not bad else bad)
