"""Quantum mutation substitutions and what they leave invariant.

A flip of an inner edge Z induces a morphism of quantum tori: the flipped
coordinates become rational expressions in the original exponentials,
with binomial dressings whose q-offsets are pinned by the homomorphism
and star-equivariance requirements.  Monodromy matrix words compiled on
the flipped graph map back exactly onto the original ones.
"""

from qshear.fatgraph import spine_graph_an
from qshear.flips import homomorphism_defects, linear_sum_relations, quantum_flip_substitution
from qshear.monodromy import build_monodromy, catalog_defects, element_is_zero, relation_defects
from qshear.ore import ore_zero_test

g = spine_graph_an(4)
sub = quantum_flip_substitution(g, "X2")
print("flipping X2; affected generators:", sub.affected)
for name in sub.affected:
    print(f"  image of exp({name}):", sub.image_of_generator(name, +1))

bad = [k for k, d in homomorphism_defects(sub) if not ore_zero_test(d)]
print("substitution is a homomorphism:", not bad)
((_, defect),) = relation_defects(linear_sum_relations(sub))
print("exp(D~+C~+Z~) maps to exp(D+C):", ore_zero_test(defect))

print("the flip records of an4, one per inner edge and the root pending edge:")
for record, anchor, defects in catalog_defects(build_monodromy(g), ("flip",)):
    ok = all(element_is_zero(d) for _, d in defects)
    print(f"  {record:22s} {len(defects):4d} checks  {'pass' if ok else 'FAIL'}  {anchor}")
