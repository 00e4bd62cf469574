from functools import reduce
from itertools import combinations
from operator import matmul

import pytest

from qshear import monodromy
from qshear.fatgraph import PendingInfo, spine_graph_an
from qshear.matrices import AlgMatrix
from qshear.monodromy import (
    _braid_form_relations,
    _braid_move,
    _braid_relations,
    _gm_relations,
    _product_relations,
    _reduced,
    _WordProducts,
    an_realization,
    braid_apply,
    build_monodromy,
    catalog_defects,
    cross_relation_defects,
    cross_relations,
    element_is_zero,
    family_records,
    geodesic_G,
    quantum_determinant_relations,
    relation_defects,
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


def _records(real):
    return {record: defects for record, _, defects in catalog_defects(real, ("braid",))}


@pytest.fixture(scope="module")
def an4_records(an4):
    return _records(an4)


def test_braid_relation(an4_records):
    # one word-reduction certificate per matrix
    for record in ("braid-relation-12", "braid-relation-23"):
        assert len(an4_records[record]) == 4
        assert_clean(an4_records[record])


def test_braid_alternative_form(an4_records):
    for i in (1, 2, 3):
        assert len(an4_records[f"braid-alt-{i}"]) == 8
        assert_clean(an4_records[f"braid-alt-{i}"])


def test_braid_preserves_determinant(an4):
    for i in (1, 2, 3):
        assert_clean(relation_defects(quantum_determinant_relations(braid_apply(an4, i), range(1, 5))))


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


def test_gm_table(an4_records):
    # six pairs (i, j), each against the four matrices, entry by entry
    assert len(an4_records["gm-table"]) == 6 * 4 * 4
    assert_clean(an4_records["gm-table"])


def test_g_commutes_with_far_matrix(an3):
    g12 = geodesic_G(an3, 1, 2)
    m3 = an3.matrix(3)
    diff = m3.scalar_mul_left(g12) - m3.scalar_mul_right(g12)
    assert diff.is_zero()


def test_products_are_braid_invariants(an3, an4_records):
    for records, n in ((_records(an3), 3), (an4_records, 4)):
        for i in range(1, n):
            assert len(records[f"braid-product-{i}"]) == 2
            assert_clean(records[f"braid-product-{i}"])


# -- fail direction ------------------------------------------------------------


def _nonzero(defects):
    return sum(1 for _, d in defects if not element_is_zero(d))


def _transposed_G(src, i, j):
    """G_ij with the transposed q-powers q^-1 b_i c_j + q^-3 c_i b_j - ..."""
    ai, bi, ci = (src.entry(k, i) for k in "abc")
    aj, bj, cj = (src.entry(k, j) for k in "abc")
    q, q3 = src.q(-1), src.q(-3)
    return q * (bi @ cj) + q3 * (ci @ bj) - (q3 + q) * (ai @ aj)


def test_transposed_G_breaks_the_braid_form_and_gm_table(an3):
    G = {(i, j): _transposed_G(an3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))}
    form = _braid_form_relations(an3, 1, braid_apply(an3, 1), G[1, 2])
    assert _nonzero(relation_defects(form)) == 8
    assert _nonzero(relation_defects(_gm_relations(an3, 1, 3, G))) == 12


def test_unsigned_braid_image_breaks_product_invariance(an3):
    products = _WordProducts(an3)
    unsigned = tuple((1, word) for _, word in _braid_move(products.letters, 1))
    assert unsigned[0] == (1, (1, 2, 1))
    relations = _product_relations(1, unsigned, products)
    assert _nonzero(relation_defects(relations)) == 2


def test_order_three_point_breaks_the_determinant():
    graph = spine_graph_an(3)
    graph.pending["Z2"] = PendingInfo.from_order(3)  # w = 1 at Z2
    defects = relation_defects(quantum_determinant_relations(build_monodromy(graph), range(1, 4)))
    assert [lbl for lbl, d in defects if not element_is_zero(d)] == ["det 2"]


def test_braid_relation_compares_the_two_sides(monkeypatch, an3):
    """The braid relation stays zero under every image that extraction
    accepts (a dropped sign, a negated M_{i+1} and conjugation on the other
    side all satisfy it), so its fail direction is pinned by dropping the
    last generator of each side: beta_1 beta_2 against beta_2 beta_1
    reduces to other words for all three matrices, and each certificate
    fails at the first entry where the two products differ."""
    products = _WordProducts(an3)
    moved, next_moved = (_braid_move(products.letters, i) for i in (1, 2))
    calls = []

    def one_short(words, i):
        calls.append(i)
        return words if len(calls) % 2 == 0 else _braid_move(words, i)

    monkeypatch.setattr(monodromy, "_braid_move", one_short)
    defects = relation_defects(_braid_relations(1, moved, next_moved, products))
    assert [lbl for lbl, d in defects if not element_is_zero(d)] == [
        "braid rel (1,2) M1 [00]", "braid rel (1,2) M2 [00]", "braid rel (1,2) M3 [00]"
    ]
    assert calls == [2, 1, 1, 2]


def test_a_wrong_matrix_is_refused_with_a_bounded_witness():
    """A matrix off the normal shape names the defect's first 20 monomials
    and the count of the rest, not its whole text: at an5 the square of the
    ordered product leaves 75 monomials."""
    real = an_realization(5)
    mats = list(real.mats)
    mats[0] = _WordProducts(real)[(1, 2, 3, 4, 5) * 2]
    with pytest.raises(ValueError, match="normal shape") as err:
        real.with_matrices(mats)
    assert "(55 more terms)" in str(err.value)


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

    def labels_of(relations):
        return [lbl for lbl, _ in relation_defects(relations)]

    for i in (1, 2, 3):
        imaged = braid_apply(an4, i)
        form = _braid_form_relations(an4, i, imaged, geodesic_G(an4, i, i + 1))
        assert labels[f"braid-alt-{i}"] == labels_of(form)
        # only the new matrix M_i: its determinant and the n-1 pairs that hold it
        assert labels[f"braid-det-{i}"] == [f"det {i}"]
        pairs = [(k, l) for k, l in combinations(range(1, 5), 2) if i in (k, l)]
        assert len(pairs) == 3
        cross = [lbl for k, l in pairs for lbl in labels_of(cross_relations(imaged, k, l))]
        assert labels[f"braid-cross-{i}"] == cross
    pairs = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    G = {(i, j): geodesic_G(an4, i, j) for i, j in pairs}
    assert labels["gm-table"] == [lbl for i, j in pairs for lbl in labels_of(_gm_relations(an4, i, j, G))]


def test_braid_family_records_read_late_give_the_same_defects(an4):
    """Records taken all at once and read afterwards, when the family has
    let go of its table of braid images, read the images they hold."""
    late = [(record, relation_defects(rels)) for record, _, rels in list(family_records(an4, "braid"))]
    assert late == [(record, defects) for record, _, defects in catalog_defects(an4, ("braid",))]


def _recording_products(monkeypatch):
    """Record every word memo the braid family makes, with the words each
    one multiplies, and count every matrix product."""
    memos, matrix_products = [], []

    class Recording(_WordProducts):
        def __init__(self, src):
            super().__init__(src)
            self.formed = []
            memos.append(self)

        def __missing__(self, word):
            self.formed.append(word)
            return super().__missing__(word)

    mul = AlgMatrix.mul

    def counting(self, other):
        matrix_products.append(1)
        return mul(self, other)

    monkeypatch.setattr(monodromy, "_WordProducts", Recording)
    monkeypatch.setattr(AlgMatrix, "mul", counting)
    return memos, matrix_products


def _halves(word):
    """``word`` and the halves the memo splits it into, down to letters."""
    if len(word) < 2:
        return set()
    h = len(word) // 2
    return {word} | _halves(word[:h]) | _halves(word[h:])


def _assert_each_word_multiplied_once(memos, matrix_products, n):
    (memo,) = memos  # one memo per family run
    assert memo.formed and all(len(word) > 1 for word in memo.formed)
    assert len(set(memo.formed)) == len(memo.formed) == len(matrix_products)
    # only the braid images' words: the passing braid-relation and product
    # certificates form no product
    images = {word for i in range(1, n) for _, word in _braid_move(memo.letters, i)}
    assert set(memo.formed) == set().union(*map(_halves, images))


def test_braid_family_images_the_source_once_per_index(monkeypatch, an4):
    """Every braided matrix is a word over the source's matrices; each
    distinct word is multiplied once per family run, and no other matrix
    product is made."""
    memos, matrix_products = _recording_products(monkeypatch)
    catalog_defects(an4, ("braid",))
    _assert_each_word_multiplied_once(memos, matrix_products, 4)
    assert sorted(memos[0].formed) == [(1, 2, 1), (2, 1), (2, 3, 2), (3, 2), (3, 4, 3), (4, 3)]


def test_braid_family_records_read_late_image_the_source_once_per_index(monkeypatch, an4):
    """Every record is listed before any is read: the relations still read
    the memo of the family's run, and form no word again."""
    memos, matrix_products = _recording_products(monkeypatch)
    records = list(family_records(an4, "braid"))
    for _, _, relations in records:
        relation_defects(relations)
    _assert_each_word_multiplied_once(memos, matrix_products, 4)


def _terms(mat):
    return [x.terms for row in mat.rows for x in row]


@pytest.mark.parametrize("n", [3, 4])
def test_each_word_split_at_its_middle_is_its_left_to_right_product(monkeypatch, n):
    real = an_realization(n)
    memos, _ = _recording_products(monkeypatch)
    catalog_defects(real, ("braid",))
    monkeypatch.undo()
    (memo,) = memos
    assert len(memo) > n
    for word, product in memo.items():
        assert _terms(product) == _terms(reduce(matmul, map(real.matrix, word))), word


def test_braid_apply_is_the_left_to_right_braid_image(an4):
    for i in (1, 2, 3):
        mats = list(an4.mats)
        mi, mj = mats[i - 1], mats[i]
        mats[i - 1], mats[i] = -((mi @ mj) @ mi), mi
        assert [_terms(m) for m in braid_apply(an4, i).mats] == [_terms(m) for m in mats]


def _swapping_move(words, i):
    """A wrong braid move: M_i -> -M_{i+1} M_i M_i, which is M_{i+1} at an
    order-2 point, so the two matrices are only swapped."""
    words = list(words)
    (si, wi), (sj, wj) = words[i - 1], words[i]
    words[i - 1], words[i] = (-sj, wj + wi + wi), (si, wi)
    return tuple(words)


def test_a_wrong_braid_image_fails_the_family(monkeypatch, an4):
    """The family reads every braided matrix through ``_braid_move``; a
    swap satisfies the braid relation and keeps every determinant and the
    G-M table, but fails the image's form, its cross relations and the
    ordered products."""
    monkeypatch.setattr(monodromy, "_braid_move", _swapping_move)
    failing = {
        record: _nonzero(defects) for record, _, defects in catalog_defects(an4, ("braid",))
    }
    assert {record for record, count in failing.items() if count} == {
        f"braid-{kind}-{i}" for i in (1, 2, 3) for kind in ("alt", "cross", "product")
    }
    assert failing["braid-product-2"] == 2 and failing["braid-alt-2"] == 8
    # of the pairs that hold the new matrix, only (i, i+1) is out of order,
    # and it fails all 12 of its cross relations
    assert failing["braid-cross-1"] == failing["braid-cross-2"] == failing["braid-cross-3"] == 12


def _unsigned_move(words, i):
    """A wrong braid move: M_i -> +M_i M_{i+1} M_i, the sign dropped."""
    words = list(_braid_move(words, i))
    sign, word = words[i - 1]
    words[i - 1] = (-sign, word)
    return tuple(words)


def test_a_dropped_sign_fails_every_product_certificate(monkeypatch, an4):
    """Without its sign, the image's ordered products reduce to the same
    word as the source's with the other sign: both certificates of each
    braid-product record fail, at the first entry where the two products
    differ, and so does the braid form.  The other records cannot see the
    sign.  The two products differ by their sign only, so an entry where
    they agree is zero: the reverse product's [00] entry is."""
    monkeypatch.setattr(monodromy, "_braid_move", _unsigned_move)
    records = catalog_defects(an4, ("braid",))
    failing = {record: _nonzero(defects) for record, _, defects in records}
    assert {record for record, count in failing.items() if count} == {
        f"braid-{kind}-{i}" for i in (1, 2, 3) for kind in ("alt", "product")
    }
    products = {record: defects for record, _, defects in records if "product" in record}
    for i in (1, 2, 3):
        assert [lbl for lbl, _ in products[f"braid-product-{i}"]] == [
            f"braid {i} forward product [00]", f"braid {i} reverse product [01]"
        ]
        assert _nonzero(products[f"braid-product-{i}"]) == 2


def test_a_pair_at_an_order_three_point_is_not_reduced():
    """M_k M_k = -E holds at a point of weight zero only: at the order-3
    point Z2 (w = 1) the pair stays in the word, and the certificate
    compares the two products, which differ; at the order-2 point Z1 it
    cancels, and no product is formed."""
    graph = spine_graph_an(3)
    graph.pending["Z2"] = PendingInfo.from_order(3)
    real = build_monodromy(graph)
    assert _reduced((1, (1, 2, 2, 3)), real.omegas) == (1, (1, 2, 2, 3), set())
    assert _reduced((1, (3, 1, 1, 2)), real.omegas) == (-1, (3, 2), {1})
    products = _WordProducts(real)
    label, lhs, rhs = products.certificate("M2^2 = -E", (1, (2, 2)), (-1, (2, 2, 2, 2)))
    assert label == "M2^2 = -E [00]" and not element_is_zero(lhs - rhs)
    assert products.certificate("M1^2 = -E", (1, (1, 1, 3)), (-1, (3,)))[0] == "M1^2 = -E by uqsl2-1"
    assert set(products) == {(1,), (2,), (3,), (2, 2), (2, 2, 2, 2)}


# -- failure witnesses ---------------------------------------------------------


def _entries(prefix):
    return [f"{prefix}{rs}]" for rs in ("00", "01", "10", "11")]


def test_witness_labels_are_pinned(an3):
    """A passing record carries no witness, so the report bytes cannot see
    these labels; they name the relation and entry a failure points at."""
    labels = {
        record: [lbl for lbl, _ in defects] for record, _, defects in catalog_defects(an3, ("braid",))
    }
    # a passing certificate names the uqsl2 records its reduction relies on
    assert labels["braid-relation-12"] == [
        "braid rel (1,2) M1 by uqsl2-1",
        "braid rel (1,2) M2 as the same word",
        "braid rel (1,2) M3 as the same word",
    ]
    assert _entries("G(1,3) vs M2 [") == [
        "G(1,3) vs M2 [00]", "G(1,3) vs M2 [01]", "G(1,3) vs M2 [10]", "G(1,3) vs M2 [11]"
    ]
    for i in (1, 2):
        assert labels[f"braid-alt-{i}"] == [
            *_entries(f"braid form {i}: q M G - q^2 M' ["),
            *_entries(f"braid form {i}: q^-1 G M - q^-2 M' ["),
        ]
        assert labels[f"braid-product-{i}"] == [
            f"braid {i} forward product by uqsl2-{i}",
            f"braid {i} reverse product by uqsl2-{i}",
        ]
        assert labels[f"braid-det-{i}"] == [f"det {i}"]
    assert labels["gm-table"] == [
        label
        for i, j in ((1, 2), (1, 3), (2, 3))
        for k in (1, 2, 3)
        for label in _entries(f"G({i},{j}) vs M{k} [")
    ]
