"""Monodromy matrices on rooted spines and the quantum algebras of their
entries: the order-2 chain case, its braid action and geodesic-function
algebra, and the four-point sphere case.

Every verifier returns a list of (label, element) pairs whose elements
must vanish; callers wrap these into reports and can feed the same
elements to the numeric oracle.
"""

from __future__ import annotations

from .coeffs import Coefficient, ONE
from .fatgraph import (
    PathWord,
    an_point_order,
    compile_path,
    monodromy_path,
    pvi_graph,
    spine_graph_an,
)
from .matrices import AlgMatrix, r_matrix, scalar_tensor, tensor_embed
from .torus import SkewForm, TorusElement, even_check

Q1 = Coefficient.q_power(1)
QM1 = Coefficient.q_power(-1)
Q2 = Coefficient.q_power(2)
QM2 = Coefficient.q_power(-2)
Q3 = Coefficient.q_power(3)


class MonodromyRealization:
    """Ordered monodromy matrices over one spine with extracted entries.

    Each matrix has the normal shape [[q a + w, -b], [c, -q**-1 a]]; the
    extraction validates it exactly and keeps (a, b, c) as torus elements.
    The builders set `words` to the PathWords the matrices were compiled
    from; it stays None when the matrices are not plain words (e.g. after
    a braid move).
    """

    __slots__ = (
        "graph", "form", "root", "points", "mats", "words", "a", "b", "c", "omegas", "omega0"
    )

    def __init__(self, graph, form, root, points, mats, omegas, omega0):
        self.graph = graph
        self.form = form
        self.root = root
        self.points = tuple(points)
        self.mats = tuple(mats)
        self.words = None
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
            self.graph, self.form, self.root, self.points, mats, self.omegas, self.omega0
        )


def extract_entries(mat, omega):
    """(a, b, c) from [[q a + w, -b], [c, -q**-1 a]]; raises on shape
    mismatch."""
    a = (-mat[1, 1]).scale(Q1)
    b = -mat[0, 1]
    c = mat[1, 0]
    shape = mat[0, 0] - a.scale(Q1) - TorusElement.scalar(mat.form, omega)
    if not shape.is_zero():
        raise ValueError(f"matrix does not have the monodromy normal shape: {shape!r}")
    for x in (a, b, c):
        if not even_check(x, mat.form.names):
            raise ValueError("monodromy entries must lie on the even lattice")
    return a, b, c


def build_monodromy(graph):
    """Compile the monodromy matrices of an A-type spine, from the root
    pending edge S to each of its points in linear order."""
    form = graph.skew_form()
    points = an_point_order(graph)
    words = tuple(monodromy_path(graph, "S", point) for point in points)
    mats = [compile_path(graph, word, form) for word in words]
    omegas = {idx: graph.weight(point) for idx, point in enumerate(points, start=1)}
    real = MonodromyRealization(graph, form, "S", points, mats, omegas, graph.weight("S"))
    real.words = words
    return real


def an_realization(n):
    """The order-2 chain realization with n points besides the root."""
    return build_monodromy(spine_graph_an(n))


def pvi_realization():
    """Monodromies of the four-point sphere over the one-vertex graph; the
    paths run out and back along the spectator leg X."""
    graph = pvi_graph()
    form = graph.skew_form()
    words = (
        PathWord([("edge", "X"), ("turn", "L"), ("orb", "Z", 1), ("turn", "R"), ("edge", "X")]),
        PathWord([("edge", "X"), ("turn", "R"), ("orb", "Y", 1), ("turn", "L"), ("edge", "X")]),
    )
    mats = [compile_path(graph, word, form) for word in words]
    omegas = {1: graph.weight("Z"), 2: graph.weight("Y")}
    real = MonodromyRealization(
        graph, form, None, ("Z", "Y"), mats, omegas, Coefficient.parameter("omega0")
    )
    real.words = words
    return real


# -- entry algebra -----------------------------------------------------------


def uqsl2_defects(real, i):
    """Deformed U_q(sl2) for one matrix; the undeformed case is w = 0."""
    a = real.entry("a", i)
    b = real.entry("b", i)
    c = real.entry("c", i)
    w = real.omegas[i]
    one = TorusElement.one(real.form)
    out = [
        (f"q a{i} b{i} = q^-1 b{i} a{i}", a.mul(b).scale(Q1) - b.mul(a).scale(QM1)),
        (f"q^-1 a{i} c{i} = q c{i} a{i}", a.mul(c).scale(QM1) - c.mul(a).scale(Q1)),
        (
            f"b{i} c{i} - c{i} b{i} = (q^2-q^-2) a{i}^2 + (q-q^-1) w a{i}",
            b.mul(c) - c.mul(b) - a.mul(a).scale(Q2 - QM2) - a.scale((Q1 - QM1) * w),
        ),
        (
            f"b{i} c{i} = 1 + w q a{i} + q^2 a{i}^2",
            b.mul(c) - one - a.scale(Q1 * w) - a.mul(a).scale(Q2),
        ),
        (
            f"c{i} b{i} = 1 + w q^-1 a{i} + q^-2 a{i}^2",
            c.mul(b) - one - a.scale(QM1 * w) - a.mul(a).scale(QM2),
        ),
    ]
    if w.is_zero():
        msq = real.matrix(i).mul(real.matrix(i)) + AlgMatrix.identity(real.form)
        for r in range(2):
            for s in range(2):
                out.append((f"(M{i}^2 + E)[{r}{s}]", msq[r, s]))
    return out


CROSS_RELATION_LABELS = (
    "q^-1 b_i b_j = q b_j b_i",
    "q^-1 c_i c_j = q c_j c_i",
    "a_i b_j = b_j a_i",
    "b_i a_j = a_j b_i + (q^2-q^-2) a_i b_j",
    "b_i a_j = a_j b_i + (q^2-q^-2) b_j a_i",
    "c_i a_j = a_j c_i",
    "a_i c_j = c_j a_i + (q^2-q^-2) c_i a_j",
    "a_i c_j = c_j a_i + (q^2-q^-2) a_j c_i",
    "q c_i b_j = q^-1 b_j c_i",
    "a_i a_j = a_j a_i + (1-q^-2) b_j c_i",
    "a_i a_j = a_j a_i + (q^2-1) c_i b_j",
    "q b_i c_j + q(q^-2-q^2) a_i a_j = q^-1 c_j b_i - q^-1 (q^-2-q^2) a_j a_i",
)


def cross_relation_defects(real, i, j):
    """The complete set of order-2 chain cross relations for i < j,
    including both displayed variants of the mixed ones."""
    ai, bi, ci = (real.entry(k, i) for k in "abc")
    aj, bj, cj = (real.entry(k, j) for k in "abc")
    d = Q2 - QM2
    rels = [
        bi.mul(bj).scale(QM1) - bj.mul(bi).scale(Q1),
        ci.mul(cj).scale(QM1) - cj.mul(ci).scale(Q1),
        ai.mul(bj) - bj.mul(ai),
        bi.mul(aj) - aj.mul(bi) - ai.mul(bj).scale(d),
        bi.mul(aj) - aj.mul(bi) - bj.mul(ai).scale(d),
        ci.mul(aj) - aj.mul(ci),
        ai.mul(cj) - cj.mul(ai) - ci.mul(aj).scale(d),
        ai.mul(cj) - cj.mul(ai) - aj.mul(ci).scale(d),
        ci.mul(bj).scale(Q1) - bj.mul(ci).scale(QM1),
        ai.mul(aj) - aj.mul(ai) - bj.mul(ci).scale(ONE - QM2),
        ai.mul(aj) - aj.mul(ai) - ci.mul(bj).scale(Q2 - ONE),
        bi.mul(cj).scale(Q1)
        + ai.mul(aj).scale(Q1 * (QM2 - Q2))
        - cj.mul(bi).scale(QM1)
        + aj.mul(ai).scale(QM1 * (QM2 - Q2)),
    ]
    return [
        (f"({i},{j}) {label}", rel)
        for label, rel in zip(CROSS_RELATION_LABELS, rels)
    ]


def geodesic_G(real, i, j):
    """Quantum geodesic function for the pair (i, j), root index 0."""
    if not 0 <= i < j <= real.n:
        raise ValueError("need 0 <= i < j <= number of points")
    if i == 0:
        a, b, c = (real.entry(k, j) for k in "abc")
        return b + c + a.scale(real.omega0)
    ai, bi, ci = (real.entry(k, i) for k in "abc")
    aj, bj, cj = (real.entry(k, j) for k in "abc")
    return (
        bi.mul(cj).scale(Q1)
        + ci.mul(bj).scale(Q3)
        - ai.mul(aj).scale(Q3 + Q1)
    )


def hermiticity_defects(real, pairs):
    return [
        (f"G({i},{j})* = G({i},{j})", geodesic_G(real, i, j).star() - geodesic_G(real, i, j))
        for i, j in pairs
    ]


def nelson_regge_defects(real, indices):
    """All disjoint, nested, crossing and adjacent relations over the given
    index range (root 0 allowed)."""
    idx = sorted(indices)
    G = {}
    for x in range(len(idx)):
        for y in range(x + 1, len(idx)):
            G[(idx[x], idx[y])] = geodesic_G(real, idx[x], idx[y])
    d = Q2 - QM2
    out = []
    from itertools import combinations

    for i, j, k, l in combinations(idx, 4):
        out.append(
            (
                f"[G({i},{j}),G({k},{l})] = 0 (disjoint)",
                G[(i, j)].mul(G[(k, l)]) - G[(k, l)].mul(G[(i, j)]),
            )
        )
        out.append(
            (
                f"[G({i},{l}),G({j},{k})] = 0 (nested)",
                G[(i, l)].mul(G[(j, k)]) - G[(j, k)].mul(G[(i, l)]),
            )
        )
        # the crossing commutator that matches the adjacent and disjoint
        # conventions takes the outer geodesic first
        out.append(
            (
                f"[G({j},{l}),G({i},{k})] = (q^2-q^-2)(G({i},{j})G({k},{l}) - G({i},{l})G({j},{k})) (crossing)",
                G[(j, l)].mul(G[(i, k)])
                - G[(i, k)].mul(G[(j, l)])
                - (G[(i, j)].mul(G[(k, l)]) - G[(i, l)].mul(G[(j, k)])).scale(d),
            )
        )
    for i, j, k in combinations(idx, 3):
        out.append(
            (
                f"q G({i},{j})G({j},{k}) - q^-1 G({j},{k})G({i},{j}) = (q^2-q^-2) G({i},{k}) (adjacent)",
                G[(i, j)].mul(G[(j, k)]).scale(Q1)
                - G[(j, k)].mul(G[(i, j)]).scale(QM1)
                - G[(i, k)].scale(d),
            )
        )
    return out


# -- R-matrix form -----------------------------------------------------------


def yang_baxter_defect():
    """R12 R13 R23 - R23 R13 R12 on the 8x8 space, over the form with no
    generators."""
    r = r_matrix(1, SkewForm((), ()))
    r12 = scalar_tensor(r, (1, 2))
    r13 = scalar_tensor(r, (1, 3))
    r23 = scalar_tensor(r, (2, 3))
    return r12.mul(r13).mul(r23) - r23.mul(r13).mul(r12)


def reflection_defects(real, i, j):
    """R12[q^-1] M_i^(1) R12[q] M_j^(2) = M_j^(2) R12[q^-1] M_i^(1) R12[q].

    The leading argument q^-1 is the one compatible with the entry
    relations and with the single-matrix form below.
    """
    r_pos = r_matrix(-1, real.form)
    r_neg = r_matrix(1, real.form)
    mi1 = tensor_embed(real.matrix(i), 1)
    mj2 = tensor_embed(real.matrix(j), 2)
    lhs = r_pos.mul(mi1).mul(r_neg).mul(mj2)
    rhs = mj2.mul(r_pos).mul(mi1).mul(r_neg)
    diff = lhs - rhs
    return [
        (f"reflection ({i},{j}) entry {r}{s}", diff[r, s])
        for r in range(4)
        for s in range(4)
    ]


def reflection_ii_defects(real, i):
    """R^T_12[q^-2] M_i^(2) M_i^(1) = M_i^(1) M_i^(2) R_12[q^-2]."""
    rp = r_matrix(-2, real.form)
    rt = rp.transpose()
    mi1 = tensor_embed(real.matrix(i), 1)
    mi2 = tensor_embed(real.matrix(i), 2)
    diff = rt.mul(mi2).mul(mi1) - mi1.mul(mi2).mul(rp)
    return [
        (f"reflection-ii ({i}) entry {r}{s}", diff[r, s])
        for r in range(4)
        for s in range(4)
    ]


# -- braid action -----------------------------------------------------------


def braid_apply(real, i):
    """The braid generator swapping points i, i+1: M_{i+1} -> M_i and
    M_i -> -M_i M_{i+1} M_i in natural order."""
    if not 1 <= i <= real.n - 1:
        raise ValueError("braid index out of range")
    mats = list(real.mats)
    mi = mats[i - 1]
    mats[i - 1] = mi.mul(mats[i]).mul(mi).neg()
    mats[i] = mi
    return real.with_matrices(mats)


def braid_relation_defects(real, i):
    """beta_i beta_{i+1} beta_i = beta_{i+1} beta_i beta_{i+1}, compared
    matrix by matrix."""
    lhs = braid_apply(braid_apply(braid_apply(real, i), i + 1), i)
    rhs = braid_apply(braid_apply(braid_apply(real, i + 1), i), i + 1)
    out = []
    for k in range(1, real.n + 1):
        diff = lhs.matrix(k) - rhs.matrix(k)
        for r in range(2):
            for s in range(2):
                out.append((f"braid rel ({i},{i+1}) M{k}[{r}{s}]", diff[r, s]))
    return out


def braid_alternative_form_defects(real, i):
    """-M_i M_{i+1} M_i = q M_i G_{i,i+1} - q^2 M_{i+1}
                        = q^-1 G_{i,i+1} M_i - q^-2 M_{i+1}."""
    mi = real.matrix(i)
    mj = real.matrix(i + 1)
    g = geodesic_G(real, i, i + 1)
    prod = mi.mul(mj).mul(mi).neg()
    rhs1 = mi.scalar_mul_right(g).scale_t(4) - mj.scale_t(8)
    rhs2 = mi.scalar_mul_left(g).scale_t(-4) - mj.scale_t(-8)
    out = []
    for label, rhs in (("q M G - q^2 M'", rhs1), ("q^-1 G M - q^-2 M'", rhs2)):
        diff = prod - rhs
        for r in range(2):
            for s in range(2):
                out.append((f"braid form {i}: {label} [{r}{s}]", diff[r, s]))
    return out


def quantum_determinant_defects(real):
    """b_i c_i - q^2 a_i^2 = 1 for every matrix (the braid-preserved
    Casimir in the order-2 case)."""
    one = TorusElement.one(real.form)
    out = []
    for i in range(1, real.n + 1):
        a, b, c = (real.entry(k, i) for k in "abc")
        out.append((f"det {i}", b.mul(c) - a.mul(a).scale(Q2) - one))
    return out


def gm_relation_defects(real, i, j):
    """Commutation of G_{i,j} with every M_k, including the middle-index
    relation for i < k < j."""
    g = geodesic_G(real, i, j)
    d2 = QM2 - Q2
    out = []
    for k in range(1, real.n + 1):
        mk = real.matrix(k)
        if k == i:
            diff = mk.scalar_mul_left(g).scale_t(-4) - mk.scalar_mul_right(g).scale_t(4) - real.matrix(j).scale(d2)
        elif k == j:
            diff = mk.scalar_mul_left(g).scale_t(4) - mk.scalar_mul_right(g).scale_t(-4) - real.matrix(i).scale(-d2)
        elif i < k < j:
            mid = real.matrix(i).scalar_mul_right(geodesic_G(real, k, j)) - real.matrix(j).scalar_mul_left(geodesic_G(real, i, k))
            diff = mk.scalar_mul_left(g) - mk.scalar_mul_right(g) - mid.scale(-d2)
        else:
            diff = mk.scalar_mul_left(g) - mk.scalar_mul_right(g)
        for r in range(2):
            for s in range(2):
                out.append((f"G({i},{j}) vs M{k} [{r}{s}]", diff[r, s]))
    return out


def braid_product_invariance_defects(real, i):
    """The ordered products M_1 ... M_n and M_n ... M_1 are invariant under
    each braid generator."""
    imaged = braid_apply(real, i)

    def product(r, order):
        acc = None
        for k in order:
            acc = r.matrix(k) if acc is None else acc.mul(r.matrix(k))
        return acc

    fwd = range(1, real.n + 1)
    back = range(real.n, 0, -1)
    out = []
    for label, order in (("forward", fwd), ("reverse", back)):
        diff = product(real, order) - product(imaged, order)
        for r in range(2):
            for s in range(2):
                out.append((f"braid {i} {label} product [{r}{s}]", diff[r, s]))
    return out


# -- four-point sphere --------------------------------------------------------


def pvi_defects(real):
    """The full four-point catalog: deformed U_q(sl2), the nine cross
    relations, the consistency condition, centrality and duality of the
    K elements, Hermitian geodesics, and the three AW(3) relations."""
    form = real.form
    one = TorusElement.one(form)
    a1, b1, c1 = (real.entry(k, 1) for k in "abc")
    a2, b2, c2 = (real.entry(k, 2) for k in "abc")
    w0 = real.omega0
    w1 = real.omegas[1]
    w2 = real.omegas[2]
    d = Q2 - QM2
    out = []
    for i in (1, 2):
        out.extend(uqsl2_defects(real, i))
    rels = {
        "q^-1 a1a2 = q a2a1": a1.mul(a2).scale(QM1) - a2.mul(a1).scale(Q1),
        "q^-1 b1b2 = q b2b1": b1.mul(b2).scale(QM1) - b2.mul(b1).scale(Q1),
        "q^-1 c1c2 = q c2c1": c1.mul(c2).scale(QM1) - c2.mul(c1).scale(Q1),
        "b-mixed": b1.mul(a2)
        + a1.mul(b2).scale(QM2)
        + b2.scale(QM1 * w1)
        - a2.mul(b1)
        - b2.mul(a1).scale(Q2)
        - b2.scale(Q1 * w1),
        "a1b2 = b2a1": a1.mul(b2) - b2.mul(a1),
        "c-mixed": a1.mul(c2)
        + c1.mul(a2).scale(QM2)
        + c1.scale(QM1 * w2)
        - c2.mul(a1)
        - a2.mul(c1).scale(Q2)
        - c1.scale(Q1 * w2),
        "c1a2 = a2c1": c1.mul(a2) - a2.mul(c1),
        "q c1b2 = q^-1 b2c1": c1.mul(b2).scale(Q1) - b2.mul(c1).scale(QM1),
        "bc-mixed": b1.mul(c2).scale(Q1)
        - c2.mul(b1).scale(QM1)
        - (
            a1.mul(a2).scale(Q1)
            + a2.mul(a1).scale(QM1)
            + a2.scale(w1)
            + a1.scale(w2)
        ).scale(d)
        - one.scale((Q1 - QM1) * (w1 * w2)),
        "a1a2 = q^2 c1b2": a1.mul(a2) - c1.mul(b2).scale(Q2),
    }
    out.extend(rels.items())

    k1 = a1.mul(c2) - c1.mul(a2).scale(Q2) - c1.scale(Q1 * w2)
    k2 = a2.mul(b1) - b2.mul(a1).scale(QM2) - b2.scale(QM1 * w1)
    for name, k in (("K1", k1), ("K2", k2)):
        for gname, g in (
            ("a1", a1), ("b1", b1), ("c1", c1), ("a2", a2), ("b2", b2), ("c2", c2),
        ):
            out.append((f"{name} central vs {gname}", k.mul(g) - g.mul(k)))
    out.append(("K1 K2 = 1", k1.mul(k2) - one))

    gxz = c1 + b1 + a1.scale(w0)
    gxy = c2 + b2 + a2.scale(w0)
    gyz = (
        b1.mul(c2).scale(Q1)
        - a1.mul(a2).scale(Q3)
        - (a2.scale(w1) + a1.scale(w2)).scale(Q2)
        - one.scale(Q1 * (w1 * w2))
    )
    om3 = k1 + k2
    for name, g in (("G_XZ", gxz), ("G_XY", gxy), ("G_YZ", gyz)):
        out.append((f"{name} Hermitian", g.star() - g))

    def aw_relation(ga, gb, gc, wa, wb):
        return (
            ga.mul(gb).scale(Q1)
            - gb.mul(ga).scale(QM1)
            - gc.scale(d)
            - (one.scale(wa) + om3.scale(wb)).scale(Q1 - QM1)
        )

    out.append(("AW3 (XY,XZ)", aw_relation(gxy, gxz, gyz, w1 * w2, w0)))
    out.append(("AW3 (XZ,YZ)", aw_relation(gxz, gyz, gxy, w2 * w0, w1)))
    out.append(("AW3 (YZ,XY)", aw_relation(gyz, gxy, gxz, w0 * w1, w2)))
    return out


def element_is_zero(x):
    return x.is_zero()
