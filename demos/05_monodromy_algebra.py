"""The quantum algebra carried by monodromy matrix entries.

On a chain of order-2 orbifold points each matrix has the shape
[[q a, -b], [c, -a/q]] with U_q(sl2) entries; pairs of matrices close
the full cross-relation table, the geodesic functions close the
disjoint/nested/crossing/adjacent algebra, and the braid group acts by
automorphisms.
"""

from qshear.monodromy import (
    an_realization,
    braid_apply,
    catalog_defects,
    cross_relation_defects,
    element_is_zero,
    geodesic_G,
    nelson_regge_relations,
    relation_defects,
    uqsl2_defects,
    yang_baxter_defect,
)


def clean(defects):
    return all(element_is_zero(d) for _, d in defects)


real = an_realization(4)
print("points:", real.points)
print("a1 =", real.entry("a", 1))
print("b1 =", real.entry("b", 1))

print("\nU_q(sl2) for each matrix:", all(clean(uqsl2_defects(real, i)) for i in (1, 2, 3, 4)))
print(
    "cross relations for every pair:",
    all(clean(cross_relation_defects(real, i, j)) for i in (1, 2, 3) for j in range(i + 1, 5)),
)

g13 = geodesic_G(real, 1, 3)
print("\nG(1,3) =", g13)
print("G(1,3) is star-fixed:", (g13.star() - g13).is_zero())

nr = relation_defects(nelson_regge_relations(real, [0, 1, 2, 3]))
print("geodesic algebra over {0..3}:", clean(nr), f"({len(nr)} relations)")

print("\nscalar Yang-Baxter:", yang_baxter_defect().is_zero())
braid = {record: defects for record, _, defects in catalog_defects(real, ("braid",))}
print("braid relation b12 b23 b12 = b23 b12 b23:", clean(braid["braid-relation-12"]))
print("braid forms, determinants, products and the G-M table:",
      all(clean(defects) for defects in braid.values()), f"({len(braid)} records)")
imaged = braid_apply(real, 1)
print("braided realization keeps the cross relations:",
      clean(cross_relation_defects(imaged, 1, 2)))
