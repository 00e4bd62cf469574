import random

import pytest

from qshear import flips
from qshear.coeffs import Coefficient
from qshear.fatgraph import FatGraph, PendingInfo, flip_roles, spine_graph_an
from qshear.flips import (
    apply_substitution,
    classical_limit_relations,
    homomorphism_defects,
    linear_sum_relations,
    quantum_flip_substitution,
    quantum_pending_substitution,
    star_defects,
    tilde_expansion_defects,
)
from qshear.monodromy import an_realization, build_monodromy, catalog_defects, geodesic_G, relation_defects
from qshear.ore import OreElement, ore_zero_test
from qshear.suites import RunConfig, run_suite
from qshear.torus import TorusElement, ew, half

from conftest import bigon_graph, random_monomial


@pytest.fixture(scope="module")
def an4():
    return spine_graph_an(4)


@pytest.fixture(scope="module")
def sub_x2(an4):
    return quantum_flip_substitution(an4, "X2")


def test_image_table_closed_forms(an4, sub_x2):
    form = sub_x2.source_form
    a, b, c, d = flip_roles(an4, "X2")
    qm1 = Coefficient.q_power(-1)
    # successor roles are dressed by the binomial with the inverse q power
    img_a = sub_x2.image_of_generator(a, +1)
    binom = TorusElement.one(form) + ew(form, {"X2": 1}, qm1)
    want = OreElement.from_torus(binom.mul(ew(form, {a: 1})))
    assert ore_zero_test(img_a - want)
    # predecessor roles invert the opposite binomial
    img_b = sub_x2.image_of_generator(b, +1)
    prod = OreElement.from_torus(
        (TorusElement.one(form) + ew(form, {"X2": -1}, qm1))
    ).mul(img_b)
    assert ore_zero_test(prod - OreElement.from_torus(ew(form, {b: 1})))
    # flipped edge inverts
    img_z = sub_x2.image_of_generator("X2", +1)
    assert ore_zero_test(img_z - OreElement.from_torus(ew(form, {"X2": -1})))


def test_pending_image_trinomial(an4):
    sub = quantum_pending_substitution(an4, "S")
    form = sub.source_form
    a, b = "Z4", "X1"
    w0 = Coefficient.parameter("omega0")
    qm1 = Coefficient.q_power(-1)
    qm2 = Coefficient.q_power(-2)
    trinom = (
        TorusElement.one(form)
        + ew(form, {"S": 1}, qm1 * w0)
        + ew(form, {"S": 2}, qm2)
    )
    want = OreElement.from_torus(trinom.mul(ew(form, {a: 1})))
    assert ore_zero_test(sub.image_of_generator(a, +1) - want)
    # q = 1 limit of the trinomial image is the classical formula
    defects = relation_defects(classical_limit_relations(sub))
    assert not [lbl for lbl, d in defects if not ore_zero_test(d)]


def test_substitution_is_homomorphism(sub_x2):
    assert not [lbl for lbl, d in homomorphism_defects(sub_x2) if not ore_zero_test(d)]


def test_substitution_star_equivariant(sub_x2):
    assert not [lbl for lbl, d in star_defects(sub_x2) if not ore_zero_test(d)]


def test_substitution_classical_limit(sub_x2):
    defects = relation_defects(classical_limit_relations(sub_x2))
    assert not [lbl for lbl, d in defects if not ore_zero_test(d)]


def test_linear_sum_invariant(sub_x2):
    ((_, defect),) = relation_defects(linear_sum_relations(sub_x2))
    assert ore_zero_test(defect)


def test_apply_to_unit(sub_x2):
    one = TorusElement.one(sub_x2.target_form)
    assert ore_zero_test(apply_substitution(sub_x2, one) - OreElement.one(sub_x2.source_form))


def test_apply_is_multiplicative_on_random_even_pairs(sub_x2):
    rng = random.Random(23)
    tform = sub_x2.target_form
    affected = set(sub_x2.affected)

    def rand_even():
        el = TorusElement.zero(tform)
        for _ in range(2):
            du = {}
            for name in tform.names:
                du[name] = 2 * rng.randint(-1, 1) if name in affected else rng.randint(-1, 1)
            el = el + TorusElement.monomial(
                tform, tform.du(du), Coefficient.t_power(rng.randint(-2, 2))
            )
        return el

    for _ in range(10):
        x, y = rand_even(), rand_even()
        lhs = apply_substitution(sub_x2, x.mul(y))
        rhs = apply_substitution(sub_x2, x).mul(apply_substitution(sub_x2, y))
        assert ore_zero_test(lhs - rhs)


def test_apply_rejects_odd_exponents(sub_x2):
    bad = half(sub_x2.target_form, {"X2": 1})
    with pytest.raises(ValueError):
        apply_substitution(sub_x2, bad)


def test_tilde_expansion_matches_display(sub_x2):
    bad = [k for k, d in tilde_expansion_defects(sub_x2) if not d.is_zero()]
    assert not bad


def test_monodromy_invariance_under_inner_flips(an4):
    real = build_monodromy(an4)
    for edge in ("X1", "X2"):
        sub = quantum_flip_substitution(an4, edge)
        real2 = build_monodromy(sub.target_graph)
        for i in (1, 4):
            for r in range(2):
                for s in range(2):
                    img = apply_substitution(sub, real2.matrix(i)[r, s])
                    diff = img - OreElement.from_torus(real.matrix(i)[r, s])
                    assert ore_zero_test(diff), (edge, i, r, s)


def test_geodesics_invariant_under_root_flip(an4):
    """The root flip moves the points along the root's face, so the
    flipped realization is read at the same point, not the same index."""
    real = build_monodromy(an4)
    sub = quantum_pending_substitution(an4, "S")
    real2 = build_monodromy(sub.target_graph)
    assert real2.points == ("Z4", "Z1", "Z2", "Z3")
    for i in (1, 3):
        img = apply_substitution(sub, geodesic_G(real2, 0, real2.points.index(real.points[i - 1]) + 1))
        assert ore_zero_test(img - OreElement.from_torus(geodesic_G(real, 0, i)))


def test_scale_rule_bookkeeping():
    """In each certified flip identity the relating t-power is the quarter
    of the difference of turn counts between the two sides."""
    words = {
        "inner-1": (("R", "R"), ("R",), 1),
        "inner-2": (("R", "L"), ("L", "R"), 0),
        "inner-3": (("L",), ("L", "L"), 1),
        "pending-1": (("L", "L"), ("R", "R"), -4),
        "pending-2": (("L", "R"), ("R", "L"), 0),
        "pending-3": (("R", "L"), ("L", "R"), 0),
    }
    for ident, (lhs, rhs, tpow) in words.items():
        bal = lambda ts: sum(1 if t == "R" else -1 for t in ts)
        assert bal(lhs) - bal(rhs) == tpow, ident


@pytest.mark.parametrize(
    "make_sub",
    [
        lambda g: quantum_flip_substitution(g, "X1"),
        lambda g: quantum_pending_substitution(g, "S"),
    ],
    ids=["X1", "S"],
)
def test_ore_valued_flip_defects_both_verdicts(make_sub):
    """The Ore zero test must find every flip defect zero, and every
    defect plus a nonzero monomial W(u) t^k nonzero."""
    sub = make_sub(spine_graph_an(3))
    defects = [*homomorphism_defects(sub), *star_defects(sub)]
    assert any(dens for _, x in defects for _, dens in x.terms)
    rng = random.Random(20240229)
    for label, defect in defects:
        assert ore_zero_test(defect) is True, label
        mutant = defect + random_monomial(rng, defect.form)
        assert ore_zero_test(mutant) is False, label


def test_flip_witness_labels_are_pinned():
    """A passing record carries no witness, so the report bytes cannot see
    these labels; they name the relation and entry a failure points at."""
    records = {record: defects for record, _, defects in catalog_defects(an_realization(3), ("flip",))}
    assert list(records) == [
        "sub-X1-morphism", "tilde-expansion-X1", "flip-invariance-X1", "sub-root-morphism", "root-flip-G0i"
    ]

    def morphism(affected):
        gens = [(n, s) for n in affected for s in (+1, -1)]
        return [(n1, s1, n2, s2) for n1, s1 in gens for n2, s2 in gens] + gens + gens

    labels = {record: [lbl for lbl, _ in defects] for record, defects in records.items()}
    assert labels["sub-X1-morphism"] == morphism(("S", "X1", "Z1", "Z2", "Z3")) + ["linear sum"]
    assert labels["tilde-expansion-X1"] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert labels["flip-invariance-X1"] == [f"M{i}[{rs}]" for i in (1, 2, 3) for rs in ("00", "01", "10", "11")]
    assert labels["sub-root-morphism"] == morphism(("S", "X1", "Z3"))
    assert labels["root-flip-G0i"] == ["G(0,1)", "G(0,2)", "G(0,3)"]


def test_substitution_builders_refuse_wrong_kind_and_repeated_roles():
    """Each builder refuses the other kind of edge, and a role that occurs
    twice, which the float moves accumulate: the bigon's e is both A and C
    of Z, and a pending Z next to a loop P has P as both A and B."""
    an3 = spine_graph_an(3)
    with pytest.raises(ValueError, match="'S' is pending"):
        quantum_flip_substitution(an3, "S")
    with pytest.raises(ValueError, match="'X1' is not pending"):
        quantum_pending_substitution(an3, "X1")
    bigon = bigon_graph()
    with pytest.raises(ValueError, match="requires distinct neighbor edges"):
        quantum_flip_substitution(bigon, "Z")
    loop = FatGraph(("Z", "P"), (("Z", "P", "P"),), {"Z": PendingInfo.from_order(3)})
    with pytest.raises(ValueError, match="requires distinct neighbor edges"):
        quantum_pending_substitution(loop, "Z")


def test_broken_flip_fails_its_records(monkeypatch):
    """With the q**-1 of every flip (tri)nomial read as q**0, the records
    that use the quantum images fail at their first relation and entry,
    while the tilde expansion, which uses none, still passes."""
    qden = flips._qden

    def broken(form, name, sign, qpow, weight=None):
        return qden(form, name, sign, 0 if qpow == -1 else qpow, weight)

    monkeypatch.setattr(flips, "_qden", broken)
    reports = run_suite("flips-quantum", RunConfig(suites=("flips-quantum",)))
    assert not [r.ident for r in reports if r.status is None]
    an3 = {r.ident: r for r in reports if r.ident.startswith("an3-")}
    failing = {ident: r.witness for ident, r in an3.items() if r.status is False}
    assert sorted(failing) == [
        "an3-flip-invariance-X1", "an3-root-flip-G0i", "an3-sub-X1-morphism", "an3-sub-root-morphism"
    ]
    assert failing["an3-sub-X1-morphism"].startswith("('Z1', 1, 'S', 1): ")
    assert failing["an3-flip-invariance-X1"].startswith("M1[00]: ")
    assert failing["an3-sub-root-morphism"].startswith("('Z3', 1, 'X1', 1): ")
    assert failing["an3-root-flip-G0i"].startswith("G(0,1): ")
    assert an3["an3-tilde-expansion-X1"].status is True
