"""Monodromy matrices on rooted spines and the quantum algebras of their
entries: the chain case at the orbifold weights of its points, its braid
action and geodesic-function algebra, its invariance under the quantum
flips of ``flips``, and the four-point sphere case.

The catalog is written once for both rings: each relation family yields
(label, lhs, rhs) triples over an entry source, which is a realization here
and a clock-and-shift image in the numeric oracle.  One record table,
:func:`family_records`, decides which relations form which report record;
the exact records (:func:`catalog_defects`) and the oracle's re-checks
(:func:`relation_families`) both read it.  :func:`relation_defects` turns
any family's relations into (label, element) defects that must vanish;
callers wrap these into reports.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import prod

from .coeffs import Coefficient
from .fatgraph import (
    compile_path,
    monodromy_path,
    pvi_graph,
    spine_graph_an,
)
from .flips import (
    apply_substitution,
    morphism_relations,
    quantum_flip_substitution,
    quantum_pending_substitution,
    tilde_expansion_relations,
)
from .matrices import AlgMatrix, r_matrix, scalar_tensor, tensor_embed
from .ore import OreElement
from .reports import witness_digest
from .torus import SkewForm, TorusElement, even_check


class MonodromyRealization:
    """Ordered monodromy matrices over one spine with extracted entries.

    Each matrix has the normal shape [[q a + w, -b], [c, -q**-1 a]]; the
    extraction validates it exactly and keeps (a, b, c) as torus elements.
    `words` are the PathWords the matrices were compiled from, or None
    when the matrices are not plain words (e.g. after a braid move).
    """

    __slots__ = (
        "graph", "form", "root", "points", "mats", "words", "a", "b", "c", "omegas", "omega0"
    )

    def __init__(self, graph, form, root, points, mats, omegas, omega0, words):
        self.graph = graph
        self.form = form
        self.root = root
        self.points = tuple(points)
        self.mats = tuple(mats)
        self.words = words
        self.omegas = dict(omegas)
        self.omega0 = omega0
        self.a = []
        self.b = []
        self.c = []
        for idx, mat in enumerate(self.mats, start=1):
            a, b, c = extract_entries(mat, self.omegas[idx])
            self.a.append(a)
            self.b.append(b)
            self.c.append(c)

    @property
    def n(self):
        return len(self.mats)

    def entry(self, kind, i):
        return {"a": self.a, "b": self.b, "c": self.c}[kind][i - 1]

    def matrix(self, i):
        return self.mats[i - 1]

    def with_matrices(self, mats):
        """Same spine and weights, new matrices; the words no longer apply."""
        return MonodromyRealization(
            self.graph, self.form, self.root, self.points, mats, self.omegas, self.omega0, None
        )

    # the exact entry source of the relation families below

    @property
    def one(self):
        return TorusElement.one(self.form)

    @staticmethod
    def q(k):
        return Coefficient.q_power(k)

    def identity(self):
        return AlgMatrix.identity(self.form)

    def r_matrix(self, power, transposed=False):
        r = r_matrix(power, self.form)
        return r.transpose() if transposed else r

    embed = staticmethod(tensor_embed)


def extract_entries(mat, omega):
    """(a, b, c) from [[q a + w, -b], [c, -q**-1 a]]; raises on shape
    mismatch."""
    q = Coefficient.q_power(1)
    a = (-mat[1, 1]).scale(q)
    b = -mat[0, 1]
    c = mat[1, 0]
    shape = mat[0, 0] - a.scale(q) - TorusElement.scalar(mat.form, omega)
    if not shape.is_zero():
        raise ValueError(f"matrix does not have the monodromy normal shape: {witness_digest(shape)}")
    for x in (a, b, c):
        if not even_check(x, mat.form.names):
            raise ValueError("monodromy entries must lie on the even lattice")
    return a, b, c


def _realization(graph, root, omega0):
    """Compile the monodromy words from the free end ``root`` around each
    pending free end of the root's face, read from the root backwards."""
    form = graph.skew_form()
    (start,) = graph.incidence(root)
    face = next(face for face in graph.faces() if start in face)
    at = face.index(start)
    ends = [graph.edge_at(slot) for slot in (face[at:] + face[:at])[:0:-1]]
    points = [e for e in ends if graph.is_pending(e)]
    words = tuple(monodromy_path(graph, root, point) for point in points)
    mats = [compile_path(graph, word, form) for word in words]
    omegas = {idx: graph.weight(point) for idx, point in enumerate(points, start=1)}
    return MonodromyRealization(graph, form, root, points, mats, omegas, omega0, words)


def build_monodromy(graph):
    """The monodromy matrices of an A-type spine from the root pending
    edge S, in the order of the root's face."""
    return _realization(graph, "S", graph.weight("S"))


def an_realization(n):
    """The order-2 chain realization with n points besides the root."""
    return build_monodromy(spine_graph_an(n))


def pvi_realization():
    """Monodromies of the four-point sphere over the one-vertex graph; the
    paths run out and back along the spectator leg X."""
    return _realization(pvi_graph(), "X", Coefficient.parameter("omega0"))


# -- the relation families ----------------------------------------------------
#
# Each family is written once, as a generator of (label, lhs, rhs) over an
# entry source: a MonodromyRealization (torus elements, Coefficient scalars)
# or an oracle.NumericSource (operators built from generator images, complex
# scalars).  A source supplies entry(kind, i), matrix(i), omegas[i], omega0,
# one, q(k), identity(), r_matrix(power, transposed) and embed(m, slot).  A
# matrix relation is one triple whose label holds {} for the entry; the
# exact layer checks it entry by entry, the oracle as a whole.  The braid
# and flip families below and the star (Hermitian) relations are
# exact-only: they read a MonodromyRealization and have no operator form in
# the oracle.  The record table at the end groups the families' relations
# into records.


def relation_defects(relations):
    """The exact defects lhs - rhs of a family's relations, one per matrix
    entry, each as (label, element)."""
    out = []
    for label, lhs, rhs in relations:
        diff = lhs.entrywise(_defect, rhs) if isinstance(lhs, AlgMatrix) else _defect(lhs, rhs)
        if isinstance(diff, AlgMatrix):
            out.extend(
                (label.format(f"{r}{s}"), diff[r, s]) for r in range(diff.n) for s in range(diff.n)
            )
        else:
            out.append((label, diff))
    return out


def _defect(lhs, rhs):
    """lhs - rhs, or zero for equal torus elements, whose terms are canonical."""
    if type(lhs) is TorusElement and type(rhs) is TorusElement and lhs == rhs:
        return TorusElement.zero(lhs.form)
    return lhs - rhs


def uqsl2_relations(src, i):
    """Deformed U_q(sl2) for one matrix; the undeformed case w = 0 adds
    M^2 = -E."""
    a, b, c = (src.entry(k, i) for k in "abc")
    w = src.omegas[i]
    q, qi, q2, qi2 = (src.q(k) for k in (1, -1, 2, -2))
    (ab, ba), (ac, ca), (bc, cb), aa = a.pair(b), a.pair(c), b.pair(c), a @ a
    yield (f"q a{i} b{i} = q^-1 b{i} a{i}", q * ab, qi * ba)
    yield (f"q^-1 a{i} c{i} = q c{i} a{i}", qi * ac, q * ca)
    yield (
        f"b{i} c{i} - c{i} b{i} = (q^2-q^-2) a{i}^2 + (q-q^-1) w a{i}",
        bc - cb,
        (q2 - qi2) * aa + ((q - qi) * w) * a,
    )
    yield (f"b{i} c{i} = 1 + w q a{i} + q^2 a{i}^2", bc, src.one + (q * w) * a + q2 * aa)
    yield (f"c{i} b{i} = 1 + w q^-1 a{i} + q^-2 a{i}^2", cb, src.one + (qi * w) * a + qi2 * aa)
    if not w:
        m = src.matrix(i)
        yield (f"(M{i}^2 + E)[{{}}]", m @ m, -src.identity())


# perfbench's mutant pool reads this and cross_relation_defects; their labels and order fix the pool
def uqsl2_defects(real, i):
    return relation_defects(uqsl2_relations(real, i))


def _weighted(x, w, scale, y):
    """x + (scale w) y, or x itself at weight w = 0, so that at order-2
    points the weighted formulas build exactly the order-2 elements and
    operators."""
    return x + (scale * w) * y if w else x


def _weight_terms(*terms):
    """Label suffix naming the (w, text) weight terms that _weighted adds,
    those with w nonzero, so a label names the relation checked."""
    return "".join(f" + {text}" for w, text in terms if w)


def cross_relations(src, i, j):
    """The complete set of chain cross relations for i < j, including both
    displayed variants of the mixed ones, at the weights w_i, w_j of the
    two points: b_i a_j gains (q-q^-1) w_i b_j, a_i c_j gains (q-q^-1)
    w_j c_i, and the last relation (q^2-q^-2)(w_i a_j + w_j a_i) +
    (q-q^-1) w_i w_j; a label names the terms its weights add."""
    ai, bi, ci = (src.entry(k, i) for k in "abc")
    aj, bj, cj = (src.entry(k, j) for k in "abc")
    wi, wj = src.omegas[i], src.omegas[j]
    wij = wi * wj
    q, qi, q2, qi2 = (src.q(k) for k in (1, -1, 2, -2))
    d, e = q2 - qi2, q - qi
    # the 18 distinct entry products are 9 in both orders, each pair from
    # one pass: those that two relations share are bound once, here
    (ai_bj, bj_ai), (bi_aj, aj_bi), (ci_aj, aj_ci) = ai.pair(bj), bi.pair(aj), ci.pair(aj)
    (ai_cj, cj_ai), (ci_bj, bj_ci), (ai_aj, aj_ai) = ai.pair(cj), ci.pair(bj), ai.pair(aj)
    wb = _weight_terms((wi, "(q-q^-1) w_i b_j"))
    wc = _weight_terms((wj, "(q-q^-1) w_j c_i"))
    wl = _weight_terms(
        (wi, "(q^2-q^-2) w_i a_j"), (wj, "(q^2-q^-2) w_j a_i"), (wij, "(q-q^-1) w_i w_j")
    )
    # one relation at a time: a relation's sides are freed once its defect is
    # taken, and only the shared products above stay bound
    pair = f"({i},{j})"
    lhs, rhs = bi.pair(bj)
    yield (f"{pair} q^-1 b_i b_j = q b_j b_i", qi * lhs, q * rhs)
    lhs, rhs = ci.pair(cj)
    yield (f"{pair} q^-1 c_i c_j = q c_j c_i", qi * lhs, q * rhs)
    yield (f"{pair} a_i b_j = b_j a_i", ai_bj, bj_ai)
    rhs = _weighted(aj_bi + d * ai_bj, wi, e, bj)
    yield (f"{pair} b_i a_j = a_j b_i + (q^2-q^-2) a_i b_j{wb}", bi_aj, rhs)
    rhs = _weighted(aj_bi + d * bj_ai, wi, e, bj)
    yield (f"{pair} b_i a_j = a_j b_i + (q^2-q^-2) b_j a_i{wb}", bi_aj, rhs)
    yield (f"{pair} c_i a_j = a_j c_i", ci_aj, aj_ci)
    rhs = _weighted(cj_ai + d * ci_aj, wj, e, ci)
    yield (f"{pair} a_i c_j = c_j a_i + (q^2-q^-2) c_i a_j{wc}", ai_cj, rhs)
    rhs = _weighted(cj_ai + d * aj_ci, wj, e, ci)
    yield (f"{pair} a_i c_j = c_j a_i + (q^2-q^-2) a_j c_i{wc}", ai_cj, rhs)
    yield (f"{pair} q c_i b_j = q^-1 b_j c_i", q * ci_bj, qi * bj_ci)
    yield (f"{pair} a_i a_j = a_j a_i + (1-q^-2) b_j c_i", ai_aj, aj_ai + (src.q(0) - qi2) * bj_ci)
    yield (f"{pair} a_i a_j = a_j a_i + (q^2-1) c_i b_j", ai_aj, aj_ai + (q2 - src.q(0)) * ci_bj)
    bi_cj, cj_bi = bi.pair(cj)
    rhs = _weighted(qi * cj_bi + (qi * d) * aj_ai, wi, d, aj)
    rhs = _weighted(_weighted(rhs, wj, d, ai), wij, e, src.one)
    yield (
        f"{pair} q b_i c_j + q(q^-2-q^2) a_i a_j = q^-1 c_j b_i - q^-1 (q^-2-q^2) a_j a_i{wl}",
        q * bi_cj - (q * d) * ai_aj,
        rhs,
    )


def cross_relation_defects(real, i, j):
    return relation_defects(cross_relations(real, i, j))


def geodesic_G(src, i, j):
    """Quantum geodesic function for the pair (i, j), root index 0: at the
    root b_j + c_j + w_0 a_j, and between two points the ordering
    G_ij = q b_i c_j + q^3 c_i b_j - (q^3+q) a_i a_j
           - q^2 (w_i a_j + w_j a_i) - q w_i w_j,
    whose weight terms vanish at order-2 points."""
    if not 0 <= i < j <= src.n:
        raise ValueError("need 0 <= i < j <= number of points")
    if i == 0:
        a, b, c = (src.entry(k, j) for k in "abc")
        return b + c + src.omega0 * a
    ai, bi, ci = (src.entry(k, i) for k in "abc")
    aj, bj, cj = (src.entry(k, j) for k in "abc")
    wi, wj = src.omegas[i], src.omegas[j]
    q, q2, q3 = src.q(1), src.q(2), src.q(3)
    g = q * (bi @ cj) + q3 * (ci @ bj) - (q3 + q) * (ai @ aj)
    g = _weighted(_weighted(g, wi, -q2, aj), wj, -q2, ai)
    return _weighted(g, wi * wj, -q, src.one)


def hermitian_relations(real):
    """G(i,j)* = G(i,j) for 0 <= i < j <= n (exact sources only: an
    operator has no star here)."""
    for i, j in combinations(range(real.n + 1), 2):
        g = geodesic_G(real, i, j)
        yield (f"G({i},{j})* = G({i},{j})", g.star(), g)


def nelson_regge_supports(indices):
    """The indices that each relation of :func:`nelson_regge_relations`
    over ``indices`` involves, in its order: each four of them three times
    (disjoint, nested, crossing), then each three once (adjacent)."""
    idx = sorted(indices)
    return [ix for ix in combinations(idx, 4) for _ in range(3)] + list(combinations(idx, 3))


def nelson_regge_relations(src, indices):
    """All disjoint, nested, crossing and adjacent relations over the given
    index range (root 0 allowed), in the order of
    :func:`nelson_regge_supports`."""
    idx = sorted(indices)
    G = {(i, j): geodesic_G(src, i, j) for i, j in combinations(idx, 2)}
    q, qi = src.q(1), src.q(-1)
    d = src.q(2) - src.q(-2)
    for i, j, k, l in combinations(idx, 4):
        (outer, outer_rev), (inner, inner_rev) = G[i, j].pair(G[k, l]), G[i, l].pair(G[j, k])
        yield (f"[G({i},{j}),G({k},{l})] = 0 (disjoint)", outer, outer_rev)
        yield (f"[G({i},{l}),G({j},{k})] = 0 (nested)", inner, inner_rev)
        # the crossing commutator that matches the adjacent and disjoint
        # conventions takes the outer geodesic first
        jl_ik, ik_jl = G[j, l].pair(G[i, k])
        yield (
            f"[G({j},{l}),G({i},{k})] = (q^2-q^-2)(G({i},{j})G({k},{l}) - G({i},{l})G({j},{k})) (crossing)",
            jl_ik - ik_jl,
            d * (outer - inner),
        )
    for i, j, k in combinations(idx, 3):
        ij_jk, jk_ij = G[i, j].pair(G[j, k])
        yield (
            f"q G({i},{j})G({j},{k}) - q^-1 G({j},{k})G({i},{j}) = (q^2-q^-2) G({i},{k}) (adjacent)",
            q * ij_jk - qi * jk_ij,
            d * G[i, k],
        )


# -- R-matrix form -----------------------------------------------------------


def yang_baxter_defect():
    """R12 R13 R23 - R23 R13 R12 on the 8x8 space, over the form with no
    generators."""
    r = r_matrix(1, SkewForm((), ()))
    r12 = scalar_tensor(r, (1, 2))
    r13 = scalar_tensor(r, (1, 3))
    r23 = scalar_tensor(r, (2, 3))
    return r12.mul(r13).mul(r23) - r23.mul(r13).mul(r12)


def reflection_relations(src, i, j):
    """R12[q^-1] M_i^(1) R12[q] M_j^(2) = M_j^(2) R12[q^-1] M_i^(1) R12[q].

    The leading argument q^-1 is the one compatible with the entry
    relations and with the single-matrix form below.  Both sides share
    R12[q^-1] M_i^(1) R12[q], formed once, so that no R-matrix meets a
    product of M_i and M_j entries.
    """
    r_pos, r_neg = src.r_matrix(-1), src.r_matrix(1)
    x = r_pos @ src.embed(src.matrix(i), 1) @ r_neg
    mj2 = src.embed(src.matrix(j), 2)
    yield (f"reflection ({i},{j}) entry {{}}", x @ mj2, mj2 @ x)


def reflection_ii_relations(src, i):
    """R^T_12[q^-2] M_i^(2) M_i^(1) = M_i^(1) M_i^(2) R_12[q^-2].

    Each R multiplies the one-matrix factor beside it first, whose entries
    are single entries of M_i, not the block of their products."""
    mi1 = src.embed(src.matrix(i), 1)
    mi2 = src.embed(src.matrix(i), 2)
    yield (
        f"reflection-ii ({i}) entry {{}}",
        (src.r_matrix(-2, transposed=True) @ mi2) @ mi1,
        mi1 @ (mi2 @ src.r_matrix(-2)),
    )


# -- braid action (exact sources only) ---------------------------------------
#
# A braided matrix is a signed word (sign, indices) over the source's
# matrices; a _WordProducts multiplies each distinct word once.


class _WordProducts(dict):
    """The product of each word over the matrices of ``src``, formed on its
    first read as product(word[:h]) @ product(word[h:]), h = len(word) // 2;
    ``letters`` are the source's own matrices as signed words."""

    def __init__(self, src):
        self.letters = tuple((1, (k,)) for k in range(1, src.n + 1))
        super().__init__((word, src.matrix(*word)) for _, word in self.letters)

    def __missing__(self, word):
        h = len(word) // 2
        product = self[word] = self[word[:h]] @ self[word[h:]]
        return product

    def signed(self, *words):
        """The product of the signed ``words`` joined in order."""
        product = self[tuple(chain.from_iterable(word for _, word in words))]
        return product if prod(sign for sign, _ in words) > 0 else -product


def _braid_move(words, i):
    """The braid generator swapping points i, i+1 on signed words:
    M_{i+1} -> M_i and M_i -> -M_i M_{i+1} M_i, whose sign is -s_{i+1}."""
    if not 1 <= i <= len(words) - 1:
        raise ValueError("braid index out of range")
    words = list(words)
    (si, wi), (sj, wj) = words[i - 1], words[i]
    words[i - 1], words[i] = (-sj, wi + wj + wi), (si, wi)
    return tuple(words)


def braid_apply(real, i):
    """The braid generator swapping points i, i+1: M_{i+1} -> M_i and
    M_i -> -M_i M_{i+1} M_i in natural order."""
    products = _WordProducts(real)
    return real.with_matrices(map(products.signed, _braid_move(products.letters, i)))


def _braid_relations(i, moved, next_moved, products):
    """beta_i beta_{i+1} beta_i = beta_{i+1} beta_i beta_{i+1}, compared
    matrix by matrix; ``moved`` and ``next_moved`` are the source's words
    after the moves at i and at i+1."""
    lhs = _braid_move(_braid_move(moved, i + 1), i)
    rhs = _braid_move(_braid_move(next_moved, i), i + 1)
    for k, sides in enumerate(zip(lhs, rhs), start=1):
        yield (f"braid rel ({i},{i+1}) M{k}[{{}}]", *map(products.signed, sides))


def _braid_form_relations(real, i, image, g):
    """-M_i M_{i+1} M_i = q M_i G_{i,i+1} - q^2 M_{i+1}
                        = q^-1 G_{i,i+1} M_i - q^-2 M_{i+1}.

    The left side is M_i of the braid ``image``; ``g`` is G_{i,i+1}."""
    mi = real.matrix(i)
    mj = real.matrix(i + 1)
    prod = image.matrix(i)
    q, qi, q2, qi2 = (real.q(k) for k in (1, -1, 2, -2))
    # q is central: scaling G before the product scales fewer terms
    yield (f"braid form {i}: q M G - q^2 M' [{{}}]", prod, mi.scalar_mul_right(q * g) - q2 * mj)
    yield (f"braid form {i}: q^-1 G M - q^-2 M' [{{}}]", prod, mi.scalar_mul_left(qi * g) - qi2 * mj)


def quantum_determinant_relations(real):
    """b_i c_i - q^2 a_i^2 = 1 for every matrix (the braid-preserved
    Casimir in the order-2 case)."""
    for i in range(1, real.n + 1):
        a, b, c = (real.entry(k, i) for k in "abc")
        yield (f"det {i}", b @ c - real.q(2) * (a @ a), real.one)


def _gm_relations(real, i, j, G):
    """Commutation of G_{i,j} with every M_k, including the middle-index
    relation for i < k < j; ``G`` maps index pairs to their geodesic
    functions."""
    g = G[i, j]
    q, qi, q2, qi2 = (real.q(k) for k in (1, -1, 2, -2))
    d2 = qi2 - q2
    for k in range(1, real.n + 1):
        # h M_k and M_k h by entry pairs; q is central, so it scales g first
        h = qi * g if k == i else q * g if k == j else g
        pairs = [[h.pair(x) for x in row] for row in real.matrix(k).rows]
        hm, mh = (AlgMatrix(real.form, [[p[side] for p in row] for row in pairs]) for side in (0, 1))
        if k == i:
            lhs, rhs = hm - q2 * mh, d2 * real.matrix(j)
        elif k == j:
            lhs, rhs = hm - qi2 * mh, -d2 * real.matrix(i)
        elif i < k < j:
            mid = real.matrix(i).scalar_mul_right(G[k, j]) - real.matrix(j).scalar_mul_left(G[i, k])
            lhs, rhs = hm - mh, -d2 * mid
        else:
            lhs, rhs = hm, mh
        yield (f"G({i},{j}) vs M{k} [{{}}]", lhs, rhs)


def _product_relations(i, moved, products):
    """The forward and reverse products M_1 ... M_n and M_n ... M_1 of the
    source equal those of its braid image at i, whose words are ``moved``."""
    for label, step in (("forward", 1), ("reverse", -1)):
        sides = (products.signed(*words[::step]) for words in (products.letters, moved))
        yield (f"braid {i} {label} product [{{}}]", *sides)


# -- flip invariance (exact sources only) -------------------------------------


def flip_invariance_relations(real, sub):
    """Each monodromy matrix of the flipped spine, at a point, maps back onto
    the matrix of ``real`` at that point under the substitution, entry by
    entry in the Ore field; the flip may move the points along the face."""
    flipped = build_monodromy(sub.target_graph)
    for i, point in enumerate(real.points, start=1):
        at = flipped.points.index(point) + 1
        lhs = [[apply_substitution(sub, x) for x in row] for row in flipped.matrix(at).rows]
        rhs = [[OreElement.from_torus(x) for x in row] for row in real.matrix(i).rows]
        yield (f"M{i}[{{}}]", AlgMatrix(real.form, lhs), AlgMatrix(real.form, rhs))


def root_flip_relations(real, sub):
    """The two-point geodesic functions G(0,i) are invariant under the flip
    of the root pending edge, point by point."""
    flipped = build_monodromy(sub.target_graph)
    for i, point in enumerate(real.points, start=1):
        lhs = apply_substitution(sub, geodesic_G(flipped, 0, flipped.points.index(point) + 1))
        yield (f"G(0,{i})", lhs, OreElement.from_torus(geodesic_G(real, 0, i)))


# -- four-point sphere --------------------------------------------------------


def pvi_relations(src):
    """The four-point catalog as three records (record, anchor,
    relations): deformed U_q(sl2) with the weighted cross relations of the
    pair (1, 2), the commutation of a1 with a2 and the consistency
    condition; centrality and duality of the K elements; and the three
    AW(3) relations of the geodesic functions G_XZ = G(0,1), G_XY = G(0,2)
    and G_YZ = G(1,2).  Their star relations are the 'hermitian' family."""
    one = src.one
    a1, b1, c1 = (src.entry(k, 1) for k in "abc")
    a2, b2, c2 = (src.entry(k, 2) for k in "abc")
    w0, w1, w2 = src.omega0, src.omegas[1], src.omegas[2]
    q, qi, q2, qi2 = (src.q(k) for k in (1, -1, 2, -2))
    d = q2 - qi2

    def entry_algebra():
        for i in (1, 2):
            yield from uqsl2_relations(src, i)
        yield from cross_relations(src, 1, 2)
        a1a2, a2a1 = a1.pair(a2)
        yield ("q^-1 a1a2 = q a2a1", qi * a1a2, q * a2a1)
        yield ("a1a2 = q^2 c1b2", a1a2, q2 * (c1 @ b2))

    yield ("entry-algebra", "deformed entry algebra and consistency condition", entry_algebra())

    k1 = a1 @ c2 - q2 * (c1 @ a2) - (q * w2) * c1
    k2 = a2 @ b1 - qi2 * (b2 @ a1) - (qi * w1) * b2

    def k_relations():
        gens = (("a1", a1), ("b1", b1), ("c1", c1), ("a2", a2), ("b2", b2), ("c2", c2))
        for name, k in (("K1", k1), ("K2", k2)):
            for gname, g in gens:
                yield (f"{name} central vs {gname}", *k.pair(g))
        yield ("K1 K2 = 1", k1 @ k2, one)

    yield ("K1K2", "central elements with K1 K2 = 1", k_relations())

    gxz, gxy, gyz = (geodesic_G(src, i, j) for i, j in ((0, 1), (0, 2), (1, 2)))
    om3 = k1 + k2

    def aw3_relations():
        for label, ga, gb, gc, wa, wb in (
            ("AW3 (XY,XZ)", gxy, gxz, gyz, w1 * w2, w0),
            ("AW3 (XZ,YZ)", gxz, gyz, gxy, w2 * w0, w1),
            ("AW3 (YZ,XY)", gyz, gxy, gxz, w0 * w1, w2),
        ):
            ab, ba = ga.pair(gb)
            yield (label, q * ab - qi * ba, d * gc + (q - qi) * (wa * one + wb * om3))

    yield ("aw3", "three-term quadratic algebra of the geodesic functions", aw3_relations())


# -- the record table ----------------------------------------------------------
#
# Which relations make up which record is decided here, once, for both rings:
# the suites turn each record into one exact report, and the oracle re-checks
# the chain of a family's records.  Records are lazy, so a relation's sides
# can be freed as soon as its defect or its pair is taken.


def family_records(src, family):
    """Yield each record of one relation family over all points of ``src``,
    in order, as (record, anchor, relations): 'entry', 'cross' (at the
    points' weights), 'nelson-regge' (all indices from the root),
    'reflection' (the single-matrix form at weight zero only), 'pvi' (the
    four-point sphere), or the exact-only 'hermitian' (G(i,j)* = G(i,j)
    for every pair from the root; the one star check of the catalog, which
    yields nothing over a source without a star), 'braid' (each braid
    image, the geodesic functions and each word of the source's matrices
    formed once, and handed to the relations of each record that reads
    them) and 'flip' (the substitution invariants of each inner edge and
    of the root pending edge), which raise ValueError over any other
    source."""
    if family in ("braid", "flip") and not isinstance(src, MonodromyRealization):
        raise ValueError(f"relation family {family!r} is exact-only")
    points = range(1, src.n + 1)
    if family == "entry":
        anchor = "entry algebra of one monodromy matrix and M^2 = -E"
        for i in points:
            yield (f"uqsl2-{i}", anchor, uqsl2_relations(src, i))
    elif family == "cross":
        anchor = "complete cross relations between two matrices"
        for i, j in combinations(points, 2):
            yield (f"cross-{i}{j}", anchor, cross_relations(src, i, j))
    elif family == "nelson-regge":
        anchor = "geodesic function algebra over all index tuples"
        yield ("nelson-regge-full", anchor, nelson_regge_relations(src, range(src.n + 1)))
    elif family == "hermitian":
        if hasattr(src.one, "star"):
            yield ("hermitian", "geodesic functions are star-fixed", hermitian_relations(src))
    elif family == "reflection":
        anchor = "mixed reflection equation in R-matrix form"
        for i, j in combinations(points, 2):
            yield (f"reflection-{i}{j}", anchor, reflection_relations(src, i, j))
        anchor = "single-matrix reflection equation"
        for i in points:
            if not src.omegas[i]:
                yield (f"reflection-ii-{i}", anchor, reflection_ii_relations(src, i))
    elif family == "pvi":
        yield from pvi_relations(src)
    elif family == "braid":
        # each braid image and geodesic function once, and every braided
        # matrix as a signed word multiplied once through one memo, held by
        # the relations that read them: a record read late forms nothing
        products = _WordProducts(src)
        moved = {i: _braid_move(products.letters, i) for i in range(1, src.n)}
        images = {i: src.with_matrices(map(products.signed, w)) for i, w in moved.items()}
        G = {(i, j): geodesic_G(src, i, j) for i, j in combinations(points, 2)}
        anchor = "braid group relation compared matrix by matrix"
        for i in range(1, src.n - 1):
            relations = _braid_relations(i, moved[i], moved[i + 1], products)
            yield (f"braid-relation-{i}{i+1}", anchor, relations)
        for i in range(1, src.n):
            image = images.pop(i)
            anchor = "braid image as a geodesic-function combination"
            yield (f"braid-alt-{i}", anchor, _braid_form_relations(src, i, image, G[i, i + 1]))
            anchor = "quantum determinant preserved by the braid action"
            yield (f"braid-det-{i}", anchor, quantum_determinant_relations(image))
            anchor = "cross relations preserved by the braid action"
            yield (f"braid-cross-{i}", anchor, relation_families(image, ("cross",)))
            anchor = "ordered matrix products are braid invariants"
            yield (f"braid-product-{i}", anchor, _product_relations(i, moved[i], products))
        anchor = "commutation table of geodesic functions with monodromies"
        gm = (_gm_relations(src, i, j, G) for i, j in combinations(points, 2))
        yield ("gm-table", anchor, chain.from_iterable(gm))
    elif family == "flip":
        graph = src.graph
        for edge in (e for e in graph.edges if graph.is_internal(e)):
            sub = quantum_flip_substitution(graph, edge)
            anchor = "flip substitution is a star-algebra morphism with the right classical limit"
            yield (f"sub-{edge}-morphism", anchor, morphism_relations(sub))
            anchor = "Weyl expansion of the flipped double-left word"
            yield (f"tilde-expansion-{edge}", anchor, tilde_expansion_relations(sub))
            anchor = "monodromy matrices invariant under the inner flip"
            yield (f"flip-invariance-{edge}", anchor, flip_invariance_relations(src, sub))
        sub = quantum_pending_substitution(graph, src.root)
        anchor = "root pending substitution is a star-algebra morphism"
        yield ("sub-root-morphism", anchor, morphism_relations(sub))
        anchor = "two-point geodesic functions invariant under the root flip"
        yield ("root-flip-G0i", anchor, root_flip_relations(src, sub))
    else:
        raise ValueError(f"unknown relation family {family!r}")


def relation_families(src, families):
    """Every relation of the named families of ``src``, in order: the chain
    of their :func:`family_records`."""
    for family in families:
        for _, _, relations in family_records(src, family):
            yield from relations


def catalog_defects(real, families):
    """The exact defects of every record of the named families of ``real``,
    each as (record, anchor, defects)."""
    return [
        (record, anchor, relation_defects(relations))
        for family in families
        for record, anchor, relations in family_records(real, family)
    ]


def element_is_zero(x):
    return x.is_zero()
