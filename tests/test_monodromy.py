import random
import re
import sys
from itertools import combinations

import pytest

from qshear import monodromy, oracle, torus
from qshear.coeffs import Coefficient, ONE
from qshear.fatgraph import (
    FatGraph,
    PendingInfo,
    compile_path,
    flip_graph,
    monodromy_path,
    pending_flip_graph,
    spine_graph_an,
)
from qshear.matrices import AlgMatrix
from qshear.monodromy import (
    an_realization,
    braid_apply,
    build_monodromy,
    catalog_defects,
    cross_relation_defects,
    element_is_zero,
    family_records,
    geodesic_G,
    nelson_regge_relations,
    nelson_regge_supports,
    pvi_realization,
    reflection_ii_relations,
    reflection_relations,
    relation_defects,
    relation_families,
    uqsl2_defects,
    yang_baxter_defect,
)
from qshear.ore import OreElement, QDenominator
from qshear.reports import witness_digest
from qshear.suites import RunConfig, _defect_report, run_suite
from qshear.torus import TorusElement, commutative_shadow, ew

from conftest import random_monomial

Q1 = Coefficient.q_power(1)
QM1 = Coefficient.q_power(-1)


def assert_clean(defects):
    bad = [lbl for lbl, d in defects if not element_is_zero(d)]
    assert not bad, bad


@pytest.fixture(scope="module")
def an2():
    return an_realization(2)


@pytest.fixture(scope="module")
def an3():
    return an_realization(3)


@pytest.fixture(scope="module")
def an4():
    return an_realization(4)


@pytest.fixture(scope="module")
def pvi():
    return pvi_realization()


def test_an2_entries_match_known_expansions(an2):
    f = an2.form
    a1 = ew(f, {"X1": -1, "Z1": -1}) + ew(f, {"Z1": -1})
    assert an2.entry("a", 1) == a1
    c1 = ew(f, {"X1": -1, "Z1": -1, "S": -1})
    assert an2.entry("c", 1) == c1
    b2 = (
        ew(f, {"X1": -1, "Z2": -1, "S": 1})
        + ew(f, {"Z2": 1, "S": 1}, Q1 + QM1)
        + ew(f, {"X1": -1, "Z2": 1, "S": 1})
        + ew(f, {"X1": 1, "Z2": 1, "S": 1})
    )
    assert an2.entry("b", 2) == b2


def test_reduced_one_edge_case():
    g = FatGraph(
        ("Z", "S", "W"),
        (("Z", "S", "W"),),
        {"Z": PendingInfo.from_param("omega"), "S": PendingInfo.from_param("omega0")},
    )
    f = g.skew_form()
    m = compile_path(g, monodromy_path(g, "S", "Z"), f)
    w = Coefficient.parameter("omega")
    assert m[0, 0] == ew(f, {"Z": -1}, Q1) + ew(f, {}, w)
    assert m[0, 1] == -(
        ew(f, {"Z": -1, "S": 1}) + ew(f, {"Z": 1, "S": 1}) + ew(f, {"S": 1}, w)
    )
    assert m[1, 0] == ew(f, {"Z": -1, "S": -1})
    assert m[1, 1] == ew(f, {"Z": -1}, -QM1)


def test_uqsl2(an3):
    for i in (1, 2, 3):
        assert_clean(uqsl2_defects(an3, i))


def test_cross_relations(an3):
    for i in (1, 2):
        for j in range(i + 1, 4):
            assert_clean(cross_relation_defects(an3, i, j))


def test_cross_relation_labels_name_the_weight_terms(an3):
    """At order-2 points no weight term is added or named; at the weighted
    points of the four-point sphere each added term is in the label."""
    assert not [label for label, _ in cross_relation_defects(an3, 1, 2) if "w_" in label]
    labels = [label for label, _, _ in monodromy.cross_relations(pvi_realization(), 1, 2)]
    assert [label.split(" = ", 1)[1] for label in labels if "w_" in label] == [
        "a_j b_i + (q^2-q^-2) a_i b_j + (q-q^-1) w_i b_j",
        "a_j b_i + (q^2-q^-2) b_j a_i + (q-q^-1) w_i b_j",
        "c_j a_i + (q^2-q^-2) c_i a_j + (q-q^-1) w_j c_i",
        "c_j a_i + (q^2-q^-2) a_j c_i + (q-q^-1) w_j c_i",
        "q^-1 c_j b_i - q^-1 (q^-2-q^2) a_j a_i"
        " + (q^2-q^-2) w_i a_j + (q^2-q^-2) w_j a_i + (q-q^-1) w_i w_j",
    ]


def test_geodesic_classical_limit(an2):
    g12 = geodesic_G(an2, 1, 2)
    assert len(g12.terms) == 3
    assert all(c == ONE for c in g12.terms.values())
    shadow = commutative_shadow(an2.form)
    want = (
        ew(shadow, {"Z2": 1, "Z1": 1})
        + ew(shadow, {"Z2": -1, "Z1": 1})
        + ew(shadow, {"Z2": -1, "Z1": -1})
    )
    assert (g12.at_t_one(shadow) - want).is_zero()


def test_geodesics_hermitian(an4):
    [(record, anchor, defects)] = catalog_defects(an4, ("hermitian",))
    assert (record, anchor) == ("hermitian", "geodesic functions are star-fixed")
    assert [label for label, _ in defects] == [
        "G(0,1)* = G(0,1)",
        "G(0,2)* = G(0,2)",
        "G(0,3)* = G(0,3)",
        "G(0,4)* = G(0,4)",
        "G(1,2)* = G(1,2)",
        "G(1,3)* = G(1,3)",
        "G(1,4)* = G(1,4)",
        "G(2,3)* = G(2,3)",
        "G(2,4)* = G(2,4)",
        "G(3,4)* = G(3,4)",
    ]
    assert_clean(defects)


def test_geodesic_with_root_weight(an3):
    g01 = geodesic_G(an3, 0, 1)
    b1, c1, a1 = an3.entry("b", 1), an3.entry("c", 1), an3.entry("a", 1)
    assert (g01 - b1 - c1 - a1.scale(an3.omega0)).is_zero()


def test_nelson_regge_families(an4):
    defects = relation_defects(nelson_regge_relations(an4, [0, 1, 2, 3]))
    assert len(defects) == 7  # 3 quadruple families + 4 triples
    assert_clean(defects)


def test_nelson_regge_counts(an4):
    defects = relation_defects(nelson_regge_relations(an4, [0, 1, 2, 3, 4]))
    from math import comb

    assert len(defects) == 3 * comb(5, 4) + comb(5, 3)
    assert_clean(defects)


def test_nelson_regge_supports_follow_the_relations(an4):
    """Each relation involves the geodesic functions over exactly its
    support, in the generator's order."""
    relations = list(nelson_regge_relations(an4, range(5)))
    supports = nelson_regge_supports(range(5))
    assert len(supports) == len(relations) == 25
    for (label, _, _), ix in zip(relations, supports):
        named = {int(k) for pair in re.findall(r"G\((\d),(\d)\)", label) for k in pair}
        assert named == set(ix), label


def test_yang_baxter():
    assert yang_baxter_defect().is_zero()


def test_reflection_equations(an3):
    for i in (1, 2):
        for j in range(i + 1, 4):
            assert_clean(relation_defects(reflection_relations(an3, i, j)))
    for i in (1, 2, 3):
        assert_clean(relation_defects(reflection_ii_relations(an3, i)))


def test_pvi_reflection(pvi):
    assert_clean(relation_defects(reflection_relations(pvi, 1, 2)))


def _keys(m):
    return [x.key() for row in m.rows for x in row]


@pytest.mark.parametrize("name", ["an3", "an4", "pvi"])
def test_reflection_sides_are_the_left_to_right_chains(name, request):
    """Both reflection forms share or re-associate their factors; each side
    is still, entry by entry, the element of its product read left to
    right."""
    real = request.getfixturevalue(name)
    r_pos, r_neg = real.r_matrix(-1), real.r_matrix(1)
    r_t, r = real.r_matrix(-2, transposed=True), real.r_matrix(-2)
    points = range(1, real.n + 1)
    for i, j in combinations(points, 2):
        mi1, mj2 = real.embed(real.matrix(i), 1), real.embed(real.matrix(j), 2)
        [(_, lhs, rhs)] = reflection_relations(real, i, j)
        assert _keys(lhs) == _keys(r_pos.mul(mi1).mul(r_neg).mul(mj2)), (i, j)
        assert _keys(rhs) == _keys(mj2.mul(r_pos).mul(mi1).mul(r_neg)), (i, j)
    for i in (i for i in points if not real.omegas[i]):
        mi1, mi2 = real.embed(real.matrix(i), 1), real.embed(real.matrix(i), 2)
        [(_, lhs, rhs)] = reflection_ii_relations(real, i)
        assert _keys(lhs) == _keys(r_t.mul(mi2).mul(mi1)), i
        assert _keys(rhs) == _keys(mi1.mul(mi2).mul(r)), i


def _mutate_r_matrix(monkeypatch, mutant):
    """Every R-matrix the exact families ask for becomes the R at
    ``mutant(power, transposed)``."""
    r_matrix = monodromy.MonodromyRealization.r_matrix
    monkeypatch.setattr(
        monodromy.MonodromyRealization,
        "r_matrix",
        lambda self, power, transposed=False: r_matrix(self, *mutant(power, transposed)),
    )


def test_shared_mixed_factor_with_one_r_matrix_fails_every_mixed_record(an3, monkeypatch):
    """R12[q^-1] M_i R12[q^-1] in place of the shared R12[q^-1] M_i R12[q]
    breaks every mixed record: the sides x M_j and M_j x are not one
    product written twice."""
    _mutate_r_matrix(monkeypatch, lambda power, transposed: (-1 if power == 1 else power, transposed))
    assert _failing_records(an3, "reflection") == ["reflection-12", "reflection-13", "reflection-23"]


@pytest.mark.parametrize("name", ["an3", "an4"])
def test_untransposed_left_r_matrix_fails_every_single_matrix_record(name, request, monkeypatch):
    real = request.getfixturevalue(name)
    _mutate_r_matrix(monkeypatch, lambda power, transposed: (power, False))
    failing = _failing_records(real, "reflection")
    assert failing == [f"reflection-ii-{i}" for i in range(1, real.n + 1)]


def test_pvi_entries(pvi):
    f = pvi.form
    w1 = Coefficient.parameter("omega1")
    b1 = ew(f, {"X": 1, "Z": -1}) + ew(f, {"X": 1, "Z": 1}) + ew(f, {"X": 1}, w1)
    assert pvi.entry("b", 1) == b1
    assert pvi.entry("a", 2) == ew(f, {"Y": 1})


def test_pvi_catalog(pvi):
    assert_clean(relation_defects(relation_families(pvi, ("pvi", "hermitian"))))


def test_pvi_k_elements_explicitly(pvi):
    f = pvi.form
    a1, c2 = pvi.entry("a", 1), pvi.entry("c", 2)
    c1, a2 = pvi.entry("c", 1), pvi.entry("a", 2)
    w2 = pvi.omegas[2]
    k1 = a1.mul(c2) - c1.mul(a2).scale(Coefficient.q_power(2)) - c1.scale(Q1 * w2)
    assert k1 == ew(f, {"X": -1, "Y": -1, "Z": -1})


def test_shape_validation_rejects_wrong_matrix(an2):
    from qshear.monodromy import extract_entries

    bad = AlgMatrix.identity(an2.form)
    with pytest.raises(ValueError):
        extract_entries(bad, Coefficient.zero())


def test_consistency_witness_up_to_five_points():
    """The realizations with 3, 4 and 5 points satisfy all pairwise entry
    relations simultaneously, exhibiting a faithful-enough model of the
    abstract algebra."""
    for n in (3, 4, 5):
        real = an_realization(n)
        for i in range(1, n + 1):
            assert_clean(uqsl2_defects(real, i))
            for j in range(i + 1, n + 1):
                assert_clean(cross_relation_defects(real, i, j))


def test_classical_specialization_of_quantum_relations():
    """At t = 1 the entry relations become commutative identities that hold
    in the classical ring: bc = 1 + w a + a^2 and the determinant
    bc - a^2 = 1 at weight zero."""
    shadow = None
    real = pvi_realization()
    shadow = commutative_shadow(real.form)
    one = ew(shadow, {})
    for i in (1, 2):
        a = real.entry("a", i).at_t_one(shadow)
        b = real.entry("b", i).at_t_one(shadow)
        c = real.entry("c", i).at_t_one(shadow)
        w = real.omegas[i].at_t_one()
        assert (b.mul(c) - one - a.scale(w) - a.mul(a)).is_zero()
        assert (b.mul(c) - c.mul(b)).is_zero()
    chain = an_realization(3)
    sh2 = commutative_shadow(chain.form)
    one2 = ew(sh2, {})
    for i in (1, 2, 3):
        a = chain.entry("a", i).at_t_one(sh2)
        b = chain.entry("b", i).at_t_one(sh2)
        c = chain.entry("c", i).at_t_one(sh2)
        assert (b.mul(c) - a.mul(a) - one2).is_zero()


def test_stored_words_compile_to_the_matrices(an2, an3, an4, pvi):
    for real in (an2, an3, an4, pvi):
        assert len(real.words) == real.n
        for word, mat in zip(real.words, real.mats):
            assert compile_path(real.graph, word, real.form).rows == mat.rows


def test_four_point_words_are_the_steps_around_each_point(pvi):
    """The four-point words, derived from the spectator root X, run out
    along X, around Z or Y and back, in this order."""
    assert (pvi.root, pvi.points) == ("X", ("Z", "Y"))
    assert [word.steps for word in pvi.words] == [
        (("edge", "X"), ("turn", "L"), ("orb", "Z", 1), ("turn", "R"), ("edge", "X")),
        (("edge", "X"), ("turn", "R"), ("orb", "Y", 1), ("turn", "L"), ("edge", "X")),
    ]


# -- the point order: the root's face, read backwards --------------------------


def _failing_records(real, family):
    return [record for record, _, defects in catalog_defects(real, (family,))
            if any(not element_is_zero(d) for _, d in defects)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_points_of_the_spines_are_in_linear_order(n):
    assert build_monodromy(spine_graph_an(n)).points == tuple(f"Z{i}" for i in range(1, n + 1))


@pytest.mark.parametrize(
    "flip, points",
    [
        (lambda g: flip_graph(g, "X1")[0], ("Z1", "Z2", "Z3", "Z4")),
        (lambda g: flip_graph(g, "X2")[0], ("Z1", "Z2", "Z3", "Z4")),
        (lambda g: pending_flip_graph(g, "S")[0], ("Z4", "Z1", "Z2", "Z3")),
    ],
    ids=["X1", "X2", "S"],
)
def test_points_of_a_flipped_spine_follow_the_root_face(flip, points):
    """On the an4 spine flipped at X1, at X2 or at the root's pending edge,
    the points are the pending free ends of the root's face, read from the
    root backwards; the root flip moves Z4 to the front.  In that order the
    entry, cross and Nelson-Regge records all hold exactly."""
    real = build_monodromy(flip(spine_graph_an(4)))
    assert real.points == points
    for family in ("entry", "cross", "nelson-regge"):
        assert _failing_records(real, family) == [], family


@pytest.mark.parametrize("flip", [lambda g: g, lambda g: pending_flip_graph(g, "S")[0]], ids=["an4", "S"])
def test_the_unreversed_face_order_fails_every_cross_record(flip):
    """The face's order after the root, not reversed, breaks all six cross
    records and Nelson-Regge, on an4 and on its root-flipped spine.  Every
    point has weight 0, so reversing the matrices is that order."""
    real = build_monodromy(flip(spine_graph_an(4)))
    unreversed = real.with_matrices(real.mats[::-1])
    assert len(_failing_records(unreversed, "cross")) == 6
    assert _failing_records(unreversed, "nelson-regge") == ["nelson-regge-full"]


def test_braided_realization_has_no_words_to_recheck(an3):
    imaged = braid_apply(an3, 1)
    assert imaged.words is None
    rep = oracle.ClockShiftRep(an3.form, 5)
    with pytest.raises(ValueError):
        oracle.numeric_realization(rep, imaged, {"omega0": 0.47})


def _an3_catalog_defects(an3):
    defects = []
    for i in range(1, 4):
        defects += uqsl2_defects(an3, i)
        for j in range(i + 1, 4):
            defects += cross_relation_defects(an3, i, j)
    return defects


def test_nonzero_defects_are_reported_nonzero(an3):
    """The zero verdict must also work in the other direction: a catalog
    defect plus a nonzero monomial W(u) t^k is never declared zero."""
    rng = random.Random(20240229)
    defects = _an3_catalog_defects(an3)
    assert len(defects) > 20
    for label, defect in defects:
        mutant = defect + random_monomial(rng, an3.form)
        assert element_is_zero(mutant) is False, label


def test_defect_report_fails_on_the_mutated_relation(an3):
    rng = random.Random(7)
    defects = _an3_catalog_defects(an3)
    assert _defect_report("clean", "anchor", defects).status
    for _ in range(5):
        k = rng.randrange(len(defects))
        label, defect = defects[k]
        mutated = list(defects)
        mutated[k] = (label, defect + random_monomial(rng, an3.form))
        rep = _defect_report("mutated", "anchor", mutated)
        assert rep.status is False
        assert rep.witness.startswith(f"{label}: ")
        assert rep.to_json()["status"] == "fail"


def test_witness_digest_cuts_between_whole_terms():
    """A long difference is cut after 20 whole terms, never inside a
    multi-term coefficient, and the rest is counted in terms: monomials of
    a torus element, fractions of an Ore element.  Up to 20 terms the
    digest is the element's text."""
    form = an_realization(2).form
    coeff = Coefficient.t_power(-2, 3) + ONE + Coefficient.t_power(2)

    def torus(n):
        return TorusElement(form, {form.du({"S": k}): coeff for k in range(n)})

    for n in (8, 20):
        assert witness_digest(torus(n)) == repr(torus(n))
    assert witness_digest(torus(25)) == repr(torus(20)) + " + ... (5 more terms)"
    step = form.du({"X1": 1})
    fractions = [(torus(2), (QDenominator(form, step, (Coefficient.rational(k),)),)) for k in range(1, 24)]
    assert len(OreElement(form, fractions).terms) == 23
    head = repr(OreElement(form, fractions[:20]))
    assert witness_digest(OreElement(form, fractions[:20])) == head
    assert witness_digest(OreElement(form, fractions)) == head + " + ... (3 more terms)"


# -- the record table ------------------------------------------------------------


def test_unknown_family_is_named(an3):
    with pytest.raises(ValueError, match="'entries'"):
        list(family_records(an3, "entries"))
    with pytest.raises(ValueError, match="'entries'"):
        list(relation_families(an3, ("entry", "entries")))
    with pytest.raises(ValueError, match="'entries'"):
        catalog_defects(an3, ("entries",))


def test_no_single_matrix_reflection_record_at_nonzero_weight(pvi):
    """The single-matrix reflection form holds at weight zero only, so the
    four-point realization has no reflection-ii record in either ring."""
    rep = oracle.ClockShiftRep(pvi.form, 5)
    params = {"omega0": 0.31, "omega1": 0.83, "omega2": 1.21}
    src = oracle.numeric_realization(rep, pvi, params)
    for ring in (pvi, src):
        assert [record for record, _, _ in family_records(ring, "reflection")] == ["reflection-12"]


def test_no_hermitian_record_over_operators(an3):
    """An operator has no star here, so the star relations stay exact and
    add no oracle pair."""
    rep = oracle.ClockShiftRep(an3.form, 5)
    params = {"omega0": 0.47}
    src = oracle.numeric_realization(rep, an3, params)
    assert list(family_records(src, "hermitian")) == []

    def labels(families):
        pairs = oracle.numeric_relation_pairs(src, families)
        return [label for label, _, _ in pairs]

    assert labels(("nelson-regge", "hermitian")) == labels(("nelson-regge",))
    assert len(labels(("nelson-regge",))) == 7


@pytest.mark.parametrize("family", ["braid", "flip"])
def test_exact_only_family_over_operators_is_named(an3, family):
    """The braid and flip families read exact matrices and the graph, so
    over an operator source they raise a ValueError that names them."""
    rep = oracle.ClockShiftRep(an3.form, 5)
    src = oracle.numeric_realization(rep, an3, {"omega0": 0.47})
    with pytest.raises(ValueError, match=f"'{family}' is exact-only"):
        list(family_records(src, family))


def test_an3_braid_records_keep_their_ids_and_check_counts(an3):
    assert [(record, len(defects)) for record, _, defects in catalog_defects(an3, ("braid",))] == [
        ("braid-relation-12", 12),
        ("braid-alt-1", 8),
        ("braid-det-1", 3),
        ("braid-cross-1", 36),
        ("braid-product-1", 8),
        ("braid-alt-2", 8),
        ("braid-det-2", 3),
        ("braid-cross-2", 36),
        ("braid-product-2", 8),
        ("gm-table", 36),
    ]


# -- weighted points --------------------------------------------------------------


def weighted_spine(n):
    """The A_n spine whose points Z1..Zn carry the parameters omega1..omegan
    instead of order 2: a graph edit only."""
    g = spine_graph_an(n)
    pending = dict(g.pending)
    pending.update({f"Z{k}": PendingInfo.from_param(f"omega{k}") for k in range(1, n + 1)})
    return build_monodromy(FatGraph(g.edges, g.vertices, pending, g.meta))


@pytest.mark.parametrize("n", [3, 4])
def test_weighted_chain_cross_relations_and_star(n):
    """At symbolic weights on every point, every pair's cross relations and
    every geodesic function's star relation vanish exactly."""
    real = weighted_spine(n)
    assert all(real.omegas.values())
    pairs = n * (n - 1) // 2
    cross = catalog_defects(real, ("cross",))
    assert [len(defects) for _, _, defects in cross] == [12] * pairs
    [(_, _, star)] = catalog_defects(real, ("hermitian",))
    assert len(star) == pairs + n
    for _, _, defects in cross:
        assert_clean(defects)
    assert_clean(star)


def test_dropping_any_weight_term_fails_pvi_and_the_weighted_chain(monkeypatch):
    """Each of the ten weight terms, seven in the cross relations and three
    in the geodesic function, dropped alone, fails an exact pvi record,
    pvi-oracle-N5 and the cross or star relations of the weighted A3
    spine.  A term is told by its call site of monodromy._weighted."""
    weighted = monodromy._weighted
    chain = weighted_spine(3)

    def failures(drop=None):
        sites = set()

        def traced(x, w, scale, y):
            caller = sys._getframe(1)
            site = (caller.f_code.co_name, caller.f_lasti)
            sites.add(site)
            return x if site == drop else weighted(x, w, scale, y)

        monkeypatch.setattr(monodromy, "_weighted", traced)
        pvi = {r.ident for r in run_suite("pvi", RunConfig(oracle_moduli=(5,))) if r.status is not True}
        defects = relation_defects(relation_families(chain, ("cross", "hermitian")))
        return sites, pvi, [label for label, d in defects if not d.is_zero()]

    sites, pvi, bad = failures()
    assert (pvi, bad) == (set(), [])
    names = [name for name, _ in sites]
    assert (names.count("cross_relations"), names.count("geodesic_G"), len(names)) == (7, 3, 10)
    for site in sorted(sites):
        _, pvi, bad = failures(drop=site)
        assert "pvi-oracle-N5" in pvi and pvi - {"pvi-oracle-N5"} and bad, (site, pvi)


# -- both orders from one pass, and equal sides -----------------------------------


def test_a_joint_pass_that_keeps_one_order_fails_the_records(monkeypatch, an3, pvi):
    """With the reversed table of the joint pass written at +shift, y x comes
    out as x y.  Every an3 entry, cross and Nelson-Regge record fails, with
    the braid family's cross and G-M records and the pvi entry and AW(3)
    records.  K1K2 still passes: K1 and K2 are central, so k g = g k is
    what the swapped pass gives too."""
    accumulate = torus._accumulate

    def one_order(form, pairs, both):
        (acc,) = accumulate(form, pairs, False)
        return (acc, {dw: dict(c) for dw, c in acc.items()}) if both else (acc,)

    monkeypatch.setattr(torus, "_accumulate", one_order)
    failing = {}
    for real, families in ((an3, ("entry", "cross", "nelson-regge", "braid")), (pvi, ("pvi",))):
        for record, _, defects in catalog_defects(real, families):
            bad = sum(not element_is_zero(d) for _, d in defects)
            if bad:
                failing[record] = bad
    assert failing == {
        "uqsl2-1": 4, "uqsl2-2": 4, "uqsl2-3": 4,
        "cross-12": 10, "cross-13": 10, "cross-23": 10,
        "nelson-regge-full": 5,
        "braid-cross-1": 30, "braid-cross-2": 30, "gm-table": 28,
        "entry-algebra": 19, "aw3": 3,
    }


def _subtracted(relations):
    """The defects lhs - rhs with every side subtracted, entry by entry."""
    out = []
    for label, lhs, rhs in relations:
        diff = lhs - rhs
        if isinstance(diff, AlgMatrix):
            out.extend((label.format(f"{r}{s}"), diff[r, s]) for r in range(diff.n) for s in range(diff.n))
        else:
            out.append((label, diff))
    return out


def _refuse_subtraction(*args):
    raise AssertionError("equal sides must not be subtracted")


def test_equal_sides_give_zero_without_a_subtraction(monkeypatch, an3, pvi):
    """Relations whose sides are equal torus elements, alone or as matrix
    entries: the an3 disjoint and nested Nelson-Regge relations, G(1,2) vs
    M3 and the K centralities.  Their defects are zero with subtraction
    refused; a monomial added to one side, new or one the side has, gives
    the subtraction's nonzero (label, element) and witness text."""
    G = {(i, j): geodesic_G(an3, i, j) for i, j in combinations(range(1, 4), 2)}
    equal = [rel for rel in nelson_regge_relations(an3, range(4)) if "disjoint" in rel[0] or "nested" in rel[0]]
    equal += [rel for rel in monodromy._gm_relations(an3, 1, 2, G) if "M3" in rel[0]]
    [(_, _, k_relations)] = [rec for rec in monodromy.pvi_relations(pvi) if rec[0] == "K1K2"]
    equal += [rel for rel in k_relations if "central" in rel[0]]
    assert len(equal) == 2 + 1 + 12
    with monkeypatch.context() as m:
        m.setattr(TorusElement, "__sub__", _refuse_subtraction)
        defects = relation_defects(equal)
    assert len(defects) == 2 + 4 + 12 and all(type(d) is TorusElement and d.is_zero() for _, d in defects)

    rng = random.Random(31)
    for k, (label, lhs, rhs) in enumerate(equal):
        form = rhs.form
        mono = random_monomial(rng, form)
        if k % 3 == 0:
            # at a monomial the side has: same monomials, one other coefficient
            side = lhs[0, 1] if isinstance(lhs, AlgMatrix) else lhs
            (coeff,) = mono.terms.values()
            mono = TorusElement.monomial(form, rng.choice(sorted(side.terms)), coeff)
        if isinstance(lhs, AlgMatrix):
            rows = [list(row) for row in lhs.rows]
            rows[0][1] = rows[0][1] + mono
            perturbed = [(label, AlgMatrix(form, rows), rhs)]
        else:
            perturbed = [(label, lhs + mono, rhs) if k % 2 else (label, lhs, rhs + mono)]
        got, want = relation_defects(perturbed), _subtracted(perturbed)
        assert got == want and any(not d.is_zero() for _, d in got), label
        assert _defect_report("x", "a", got).witness == _defect_report("x", "a", want).witness is not None
