"""The clock-and-shift oracle: independent numeric checks at roots of unity.

The skew form is put in integer normal form; each hyperbolic pair becomes
a clock/shift pair at t = exp(i pi / N).  Each generator image is a
cyclic shift of the index grid times a phase vector.  Monodromy words act
on seeded probe vectors in the representation (never touching the
symbolic product or a dense matrix) and every relation is re-verified as
a sesquilinear form u^H (L - R) w at two moduli.
"""

import numpy as np

from qshear.monodromy import an_realization
from qshear.oracle import (
    ClockShiftRep,
    mutation_check,
    numeric_pair_norms,
    numeric_realization,
    numeric_relation_pairs,
    skew_normal_form,
    worst_norm,
)

real = an_realization(3)
_, _, pairings = skew_normal_form(real.form.beta)
print("skew normal form pairings:", pairings)

params = {"omega0": 0.47}
for modulus in (5, 7):
    rep = ClockShiftRep(real.form, modulus, seed=1)
    print(f"\nmodulus {modulus}: representation dimension {rep.dim}")
    du = real.form.du({"X1": 2})
    dv = real.form.du({"S": 2})
    for name, d in (("X1", du), ("S", dv)):
        image = rep.image(d)
        print(f"  image of W({name}): grid shift {image.shift} times {len(image.phase)} phases")
    probe = rep.probe(1)[0]
    lhs = rep.act(rep.image(du), rep.act(rep.image(dv), probe))
    rhs = rep.t_value ** real.form.pairing(du, dv) * rep.act(
        rep.image(tuple(a + b for a, b in zip(du, dv))), probe
    )
    print("  defining relation defect on the probe pair:", float(np.max(np.abs(lhs - rhs))))
    pairs = numeric_relation_pairs(numeric_realization(rep, real, params), ("entry", "cross"))
    worst = worst_norm([n for _, n in numeric_pair_norms(pairs)])
    print(f"  {len(pairs)} relations re-verified, worst norm {worst:.2e}")
    caught = mutation_check(pairs, rep.t_value, 3)
    print(f"  mutated identities caught: {sum(caught)}/{len(caught)}")
