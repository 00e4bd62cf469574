import pytest

from qshear import monodromy
from qshear.fatgraph import PendingInfo, spine_graph_an
from qshear.monodromy import (
    an_realization,
    braid_alternative_form_relations,
    braid_apply,
    braid_product_invariance_relations,
    braid_relations,
    build_monodromy,
    catalog_defects,
    cross_relation_defects,
    element_is_zero,
    family_records,
    geodesic_G,
    gm_relations,
    quantum_determinant_relations,
    relation_defects,
    relation_families,
    uqsl2_defects,
)


def assert_clean(defects):
    bad = [lbl for lbl, d in defects if not element_is_zero(d)]
    assert not bad, bad


@pytest.fixture(scope="module")
def an4():
    return an_realization(4)


@pytest.fixture(scope="module")
def an3():
    return an_realization(3)


def test_braid_relation(an4):
    assert_clean(relation_defects(braid_relations(an4, 1)))
    assert_clean(relation_defects(braid_relations(an4, 2)))


def test_braid_alternative_form(an4):
    for i in (1, 2, 3):
        assert_clean(relation_defects(braid_alternative_form_relations(an4, i)))


def test_braid_preserves_determinant(an4):
    for i in (1, 2, 3):
        assert_clean(relation_defects(quantum_determinant_relations(braid_apply(an4, i))))


def test_braid_preserves_shape_and_relations(an4):
    for i in (1, 2, 3):
        imaged = braid_apply(an4, i)  # re-extraction validates the shape
        for x in range(1, 5):
            assert_clean(uqsl2_defects(imaged, x))
            for y in range(x + 1, 5):
                assert_clean(cross_relation_defects(imaged, x, y))


def test_braid_index_bounds(an4):
    with pytest.raises(ValueError):
        braid_apply(an4, 4)
    with pytest.raises(ValueError):
        braid_apply(an4, 0)


def test_gm_table(an4):
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert_clean(relation_defects(gm_relations(an4, i, j)))


def test_g_commutes_with_far_matrix(an3):
    g12 = geodesic_G(an3, 1, 2)
    m3 = an3.matrix(3)
    diff = m3.scalar_mul_left(g12) - m3.scalar_mul_right(g12)
    assert diff.is_zero()


def test_products_are_braid_invariants(an3, an4):
    for real in (an3, an4):
        for i in range(1, real.n):
            assert_clean(relation_defects(braid_product_invariance_relations(real, i)))


# -- fail direction ------------------------------------------------------------


def _nonzero(defects):
    return sum(1 for _, d in defects if not element_is_zero(d))


def _transposed_G(src, i, j):
    """G_ij with the transposed q-powers q^-1 b_i c_j + q^-3 c_i b_j - ..."""
    if i == 0:
        return geodesic_G(src, i, j)
    ai, bi, ci = (src.entry(k, i) for k in "abc")
    aj, bj, cj = (src.entry(k, j) for k in "abc")
    q, q3 = src.q(-1), src.q(-3)
    return q * (bi @ cj) + q3 * (ci @ bj) - (q3 + q) * (ai @ aj)


def test_transposed_G_breaks_the_braid_form_and_gm_table(monkeypatch, an3):
    monkeypatch.setattr(monodromy, "geodesic_G", _transposed_G)
    assert _nonzero(relation_defects(braid_alternative_form_relations(an3, 1))) == 8
    assert _nonzero(relation_defects(gm_relations(an3, 1, 3))) == 12


def test_unsigned_braid_image_breaks_product_invariance(monkeypatch, an3):
    def unsigned(real, i):
        mats = list(real.mats)
        mats[i - 1], mats[i] = mats[i - 1] @ mats[i] @ mats[i - 1], mats[i - 1]
        return real.with_matrices(mats)

    monkeypatch.setattr(monodromy, "braid_apply", unsigned)
    assert _nonzero(relation_defects(braid_product_invariance_relations(an3, 1))) == 6


def test_order_three_point_breaks_the_determinant():
    graph = spine_graph_an(3)
    graph.pending["Z2"] = PendingInfo.from_order(3)  # w = 1 at Z2
    defects = relation_defects(quantum_determinant_relations(build_monodromy(graph)))
    assert [lbl for lbl, d in defects if not element_is_zero(d)] == ["det 2"]


def test_braid_relation_compares_the_two_sides(monkeypatch, an3):
    """The braid relation stays zero under every image that extraction
    accepts (a dropped sign, a negated M_{i+1} and conjugation on the other
    side all satisfy it), so its fail direction is pinned by dropping the
    last generator of each side: beta_1 beta_2 against beta_2 beta_1
    differs in all 12 entries."""
    calls = []

    def one_short(real, i):
        calls.append(i)
        return real if len(calls) % 3 == 0 else braid_apply(real, i)

    monkeypatch.setattr(monodromy, "braid_apply", one_short)
    assert _nonzero(relation_defects(braid_relations(an3, 1))) == 12
    assert calls == [1, 2, 1, 2, 1, 2]


# -- the braid family: each image once, the verdict both ways ------------------


def test_braid_family_records_keep_their_order(an4):
    records = catalog_defects(an4, ("braid",))
    assert [record for record, _, _ in records] == [
        "braid-relation-12",
        "braid-relation-23",
        *(f"braid-{kind}-{i}" for i in (1, 2, 3) for kind in ("alt", "det", "cross", "product")),
        "gm-table",
    ]
    labels = {record: [lbl for lbl, _ in defects] for record, _, defects in records}

    def standalone(relations):
        return [lbl for lbl, _ in relation_defects(relations)]

    for i in (1, 2, 3):
        imaged = braid_apply(an4, i)
        assert labels[f"braid-alt-{i}"] == standalone(braid_alternative_form_relations(an4, i))
        assert labels[f"braid-det-{i}"] == ["det 1", "det 2", "det 3", "det 4"]
        assert labels[f"braid-cross-{i}"] == standalone(relation_families(imaged, ("cross",)))
    pairs = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    gm = [lbl for i, j in pairs for lbl in standalone(gm_relations(an4, i, j))]
    assert labels["gm-table"] == gm


def test_braid_family_records_read_late_give_the_same_defects(an4):
    """Records taken all at once and read afterwards, when the family has
    freed its braid images, compute them again."""
    late = [(record, relation_defects(rels)) for record, _, rels in list(family_records(an4, "braid"))]
    assert late == [(record, defects) for record, _, defects in catalog_defects(an4, ("braid",))]


def test_braid_family_images_the_source_once_per_index(monkeypatch, an4):
    calls = []

    def counting(real, i):
        calls.append((real is an4, i))
        return braid_apply(real, i)

    monkeypatch.setattr(monodromy, "braid_apply", counting)
    catalog_defects(an4, ("braid",))
    assert sorted(i for from_source, i in calls if from_source) == [1, 2, 3]


def test_braid_family_gives_the_standalone_defects(an4):
    records = {record: defects for record, _, defects in catalog_defects(an4, ("braid",))}
    for i in (1, 2):
        assert records[f"braid-relation-{i}{i + 1}"] == relation_defects(braid_relations(an4, i))
    for i in (1, 2, 3):
        standalone = relation_defects(braid_product_invariance_relations(an4, i))
        assert records[f"braid-product-{i}"] == standalone


def _swapping_braid(real, i):
    """A wrong braid image: M_i -> -M_{i+1} M_i M_i, which is M_{i+1} at an
    order-2 point, so the two matrices are only swapped."""
    mats = list(real.mats)
    mi = mats[i - 1]
    mats[i - 1] = -(mats[i] @ mi @ mi)
    mats[i] = mi
    return real.with_matrices(mats)


def test_a_wrong_braid_image_fails_the_family(monkeypatch, an4):
    """The family reads its braid images once, through ``braid_apply``; a
    swap satisfies the braid relation and keeps every determinant and the
    G-M table, but fails the image's form, its cross relations and the
    ordered products."""
    monkeypatch.setattr(monodromy, "braid_apply", _swapping_braid)
    failing = {
        record: _nonzero(defects) for record, _, defects in catalog_defects(an4, ("braid",))
    }
    assert {record for record, count in failing.items() if count} == {
        f"braid-{kind}-{i}" for i in (1, 2, 3) for kind in ("alt", "cross", "product")
    }
    assert failing["braid-product-2"] == 8 and failing["braid-alt-2"] == 8


# -- failure witnesses ---------------------------------------------------------


def _entries(prefix):
    return [f"{prefix}{rs}]" for rs in ("00", "01", "10", "11")]


def test_witness_labels_are_pinned(an3):
    """A passing record carries no witness, so the report bytes cannot see
    these labels; they name the relation and entry a failure points at."""
    assert [lbl for lbl, _ in relation_defects(braid_relations(an3, 1))] == [
        label for k in (1, 2, 3) for label in _entries(f"braid rel (1,2) M{k}[")
    ]
    assert _entries("G(1,3) vs M2 [") == [
        "G(1,3) vs M2 [00]", "G(1,3) vs M2 [01]", "G(1,3) vs M2 [10]", "G(1,3) vs M2 [11]"
    ]
    for i in (1, 2):
        assert [lbl for lbl, _ in relation_defects(braid_alternative_form_relations(an3, i))] == [
            *_entries(f"braid form {i}: q M G - q^2 M' ["),
            *_entries(f"braid form {i}: q^-1 G M - q^-2 M' ["),
        ]
        assert [lbl for lbl, _ in relation_defects(braid_product_invariance_relations(an3, i))] == [
            *_entries(f"braid {i} forward product ["),
            *_entries(f"braid {i} reverse product ["),
        ]
    assert [lbl for lbl, _ in relation_defects(quantum_determinant_relations(an3))] == [
        "det 1",
        "det 2",
        "det 3",
    ]
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert [lbl for lbl, _ in relation_defects(gm_relations(an3, i, j))] == [
            label for k in (1, 2, 3) for label in _entries(f"G({i},{j}) vs M{k} [")
        ]
