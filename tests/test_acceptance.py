"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line.  Everything here is exact unless a numeric tolerance
is part of the criterion itself."""

import time

from qshear.fatgraph import spine_graph_an
from qshear.flips import (
    CLASSICAL_FLIP_IDENTITIES,
    apply_substitution,
    quantum_flip_substitution,
    quantum_pending_substitution,
    tilde_expansion_defects,
    verify_flip_matrix_identity_classical,
)
from qshear.monodromy import (
    an_realization,
    braid_apply,
    build_monodromy,
    catalog_defects,
    cross_relation_defects,
    element_is_zero,
    geodesic_G,
    nelson_regge_relations,
    pvi_realization,
    quantum_determinant_relations,
    reflection_ii_relations,
    reflection_relations,
    relation_defects,
    relation_families,
    uqsl2_defects,
    yang_baxter_defect,
)
from qshear.oracle import (
    ClockShiftRep,
    closed_trace_minimum,
    random_closed_words,
    flip_involution_deviation,
    mutation_check,
    numeric_identity_deviation,
    numeric_pair_norms,
    numeric_realization,
    numeric_reflection_pairs,
    numeric_relation_pairs,
    oracle_check,
    pending_flip_involution_deviation,
    pentagon_deviation,
    worst_norm,
)
from qshear.ore import OreElement, ore_zero_test


def _report(name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    return ok


def assert_clean(defects):
    bad = [lbl for lbl, d in defects if not element_is_zero(d)]
    assert not bad, bad[:5]


def test_criterion_1_an_core():
    """U_q(sl2), M^2 = -E and all nine cross relations on the 3- and
    4-point chains, exact, under 60 s."""
    start = time.perf_counter()
    for n in (3, 4):
        real = an_realization(n)
        for i in range(1, n + 1):
            assert_clean(uqsl2_defects(real, i))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert_clean(cross_relation_defects(real, i, j))
    elapsed = time.perf_counter() - start
    assert _report("criterion-1 an-core", elapsed < 60, elapsed)


def test_criterion_2_nelson_regge():
    """Every admissible index tuple in {0..3} on the 4-point chain, three
    relation families, exact, under 5 min."""
    start = time.perf_counter()
    real = an_realization(4)
    defects = relation_defects(nelson_regge_relations(real, [0, 1, 2, 3]))
    assert_clean(defects)
    elapsed = time.perf_counter() - start
    assert _report(
        "criterion-2 nelson-regge", elapsed < 300, elapsed, f"{len(defects)} relations"
    )


def test_criterion_3_rmatrix():
    """Scalar Yang-Baxter on 8x8, both reflection forms for all pairs on
    the 3- and 4-point chains and for the four-point sphere, under 2 min."""
    start = time.perf_counter()
    assert yang_baxter_defect().is_zero()
    for n in (3, 4):
        real = an_realization(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert_clean(relation_defects(reflection_relations(real, i, j)))
        for i in range(1, n + 1):
            assert_clean(relation_defects(reflection_ii_relations(real, i)))
    assert_clean(relation_defects(reflection_relations(pvi_realization(), 1, 2)))
    elapsed = time.perf_counter() - start
    assert _report("criterion-3 r-matrix", elapsed < 120, elapsed)


def test_criterion_4_braid():
    """Braid relation matrix-by-matrix, preservation of determinants and
    cross relations, product invariance and the full G-M table, under
    5 min."""
    start = time.perf_counter()
    real4 = an_realization(4)
    for i in range(1, 4):
        imaged = braid_apply(real4, i)
        assert_clean(relation_defects(quantum_determinant_relations(imaged, range(1, 5))))
        for x in range(1, 5):
            for y in range(x + 1, 5):
                assert_clean(cross_relation_defects(imaged, x, y))
    # the family's records: the braid relation, the braid form, the
    # determinants and cross relations of each image, the ordered products
    # and the G-M table
    for real in (an_realization(3), real4):
        for record, _, defects in catalog_defects(real, ("braid",)):
            assert defects, record
            assert_clean(defects)
    elapsed = time.perf_counter() - start
    assert _report("criterion-4 braid", elapsed < 300, elapsed)


def test_criterion_5_pvi():
    """Deformed entry algebra, consistency condition, central K pair with
    K1 K2 = 1, Hermitian geodesics and the three AW(3) relations with all
    weights symbolic, under 2 min."""
    start = time.perf_counter()
    real = pvi_realization()
    assert_clean(relation_defects(relation_families(real, ("pvi", "hermitian"))))
    elapsed = time.perf_counter() - start
    assert _report("criterion-5 pvi-aw3", elapsed < 120, elapsed)


def test_criterion_6_flip_invariance():
    """Monodromies invariant under inner flips, geodesics under the root
    pending flip, and the flipped-word Weyl expansion, under 5 min."""
    start = time.perf_counter()
    for n in (3, 4):
        graph = spine_graph_an(n)
        real = build_monodromy(graph)
        root_vertex = graph.vertices[0]
        for edge in graph.edges:
            if not graph.is_internal(edge):
                continue
            sub = quantum_flip_substitution(graph, edge)
            # required set: flips whose surrounding roles avoid the root
            # edge; flips touching it are verified too (they hold by the
            # reduction mechanism)
            real2 = build_monodromy(sub.target_graph)
            for i in range(1, n + 1):
                for r in range(2):
                    for s in range(2):
                        img = apply_substitution(sub, real2.matrix(i)[r, s])
                        assert ore_zero_test(
                            img - OreElement.from_torus(real.matrix(i)[r, s])
                        ), (n, edge, i, r, s)
            assert not [
                k for k, d in tilde_expansion_defects(sub) if not d.is_zero()
            ]
        sub = quantum_pending_substitution(graph, "S")
        real2 = build_monodromy(sub.target_graph)
        for i, point in enumerate(real.points, start=1):
            # the root flip moves the points along the root's face
            img = apply_substitution(sub, geodesic_G(real2, 0, real2.points.index(point) + 1))
            assert ore_zero_test(
                img - OreElement.from_torus(geodesic_G(real, 0, i))
            ), (n, i)
    elapsed = time.perf_counter() - start
    assert _report("criterion-6 flip-invariance", elapsed < 300, elapsed)


def test_criterion_7_classical_layer():
    """Six flip identities and both decoration identities, exact and
    numeric (< 1e-10 over 1000 seeded samples); traces >= 2; pentagon to
    1e-10."""
    start = time.perf_counter()
    for ident in CLASSICAL_FLIP_IDENTITIES:
        assert verify_flip_matrix_identity_classical(ident), ident
        dev = numeric_identity_deviation(ident, sample_count=1000, seed=20240229)
        assert dev < 1e-10, (ident, dev)
    g3, g4 = spine_graph_an(3), spine_graph_an(4)
    assert flip_involution_deviation(g3, "X1", 1000) < 1e-10
    assert pending_flip_involution_deviation(g3, "S", 1000) < 1e-10
    assert pentagon_deviation(g4, "X1", "X2", 200) < 1e-10
    (words,) = random_closed_words(g4, (20,), 20240229)
    low = closed_trace_minimum(g4, words, samples=200)
    assert low >= 2.0 - 1e-9, low
    elapsed = time.perf_counter() - start
    assert _report("criterion-7 classical", elapsed < 300, elapsed, f"min trace {low:.3f}")


def test_criterion_8_oracle_coupling():
    """Symbolic passes evaluate below 1e-9 at two root-of-unity moduli and
    50 seeded mutations are all caught above 1e-6, under 5 min."""
    start = time.perf_counter()
    all_norms = []
    for realization, params, families in (
        (an_realization(3), {"omega0": 0.47}, ("entry", "cross")),
        (an_realization(4), {"omega0": 0.47}, ("entry", "cross")),
        (pvi_realization(), {"omega0": 0.31, "omega1": 0.83, "omega2": 1.21}, ("pvi",)),
    ):
        for modulus in (5, 7):
            rep = ClockShiftRep(realization.form, modulus, seed=20240229)
            src = numeric_realization(rep, realization, params)
            norms = numeric_pair_norms(
                [*numeric_relation_pairs(src, families), *numeric_reflection_pairs(src)]
            )
            all_norms.extend(n for _, n in norms)
    worst = worst_norm(all_norms)
    assert all(n <= 1e-9 for n in all_norms), worst

    # Ore-valued flip-invariance differences are evaluated directly
    graph = spine_graph_an(3)
    real = build_monodromy(graph)
    sub = quantum_pending_substitution(graph, "S")
    real2 = build_monodromy(sub.target_graph)
    diffs = []
    for i in (1, 2):
        img = apply_substitution(sub, geodesic_G(real2, 0, real2.points.index(real.points[i - 1]) + 1))
        diffs.append((f"G(0,{i})", img - OreElement.from_torus(geodesic_G(real, 0, i))))
    ore_worst, _ = oracle_check(diffs, real.form, moduli=(5, 7), seed=20240229)
    assert ore_worst < 1e-9, ore_worst

    real3 = an_realization(3)
    rep = ClockShiftRep(real3.form, 5, seed=20240229)
    params3 = {"omega0": 0.47}
    pairs = numeric_relation_pairs(numeric_realization(rep, real3, params3), ("entry", "cross"))
    caught = mutation_check(pairs, rep.t_value, 20240229)
    assert len(caught) == 50 and all(caught)
    elapsed = time.perf_counter() - start
    assert _report(
        "criterion-8 oracle", elapsed < 300, elapsed, f"{len(all_norms)} numeric pairs, worst {worst:.1e}"
    )
