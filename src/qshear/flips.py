"""Mapping-class-group moves, exactly: the classical flip identities as
token words and over the commutative torus, and the quantum substitutions
induced on the torus algebra.  Words are multiplied out by the word
evaluator of ``matrices``.  The float moves on shear values live in
``oracle``; this module does not import numpy.

Quantum flip images, with Z the flipped edge and q = t**4:

    exp(Ztilde) -> exp(-Z)
    successor roles (A, C):   exp(Atilde) -> (1 + q**-1 exp(Z)) exp(A)
    predecessor roles (B, D): exp(Btilde) -> (1 + q**-1 exp(-Z))**-1 exp(B)

and for a pending edge of weight w, with roles A and B, the binomial is
replaced by the trinomial 1 + q**-1 w exp(Z) + q**-2 exp(2Z); one table
builder serves both kinds over the signed roles of ``fatgraph.ROLE_SIGNS``.
The bracket of a successor role with Z is -1, of a predecessor role +1;
the whole table is pinned by the homomorphism, star-equivariance,
classical-limit and roundtrip invariants exercised in the test suite.
"""

from __future__ import annotations

from .coeffs import Coefficient
from .fatgraph import (
    ROLE_SIGNS,
    flip_graph,
    flip_roles,
    pending_flip_graph,
    pending_flip_roles,
)
from .matrices import EdgeMaps, word_matrix
from .ore import OreElement, QDenominator
from .reports import witness_digest
from .torus import SkewForm, TorusElement, commutative_shadow, even_check, half


# ---------------------------------------------------------------------------
# classical flip identities as token words
# ---------------------------------------------------------------------------


# Each classical flip identity as a pair of true-order token words.  L and R
# are turns, a name is the edge matrix X of that shear and a trailing ~ its
# shear after the move; F is the winding matrix of the pending weight w and
# O = a + c F a commutant insertion, -O its negative.
CLASSICAL_FLIP_WORDS = {
    "inner-1": ("D R Z R A", "D~ R A~"),
    "inner-2": ("D R Z L B", "D~ L Z~ R B~"),
    "inner-3": ("D L C", "D~ L Z~ L C~"),
    # In the bounce-back cases the commutant insertion transforms with
    # the same sign on both sides; only the pass-through case (pending-1)
    # sends F_p Omega to -Omega.
    "pending-1": ("A L Z F O Z L B", "A~ R Z~ -O Z~ R B~"),
    "pending-2": ("A L Z O Z R A", "A~ R Z~ O Z~ L A~"),
    "pending-3": ("B R Z O Z L B", "B~ L Z~ O Z~ R B~"),
    "decoration-1": ("Y L P L Y", "Y~ L P~ L Y~"),
    "decoration-2": ("Y R P R Y", "Y~ R P~ R Y~"),
}

CLASSICAL_FLIP_IDENTITIES = tuple(CLASSICAL_FLIP_WORDS)

# Per family: the shear names, the pending weight (None off a pending edge)
# and each ~ shear as (half exponents of v, s) with v~ = v + s log T.  T is
# 1 + e^Z, or the trinomial 1 + w e^Z + e^2Z at a pending edge: Atilde =
# A + log T and Btilde = B - log(1 + e^-Z) = B + Z - log T (B + 2Z - log T
# at a pending edge); a decoration change sends (Y, P) to (Y + P, -P).
_CLASSICAL_FAMILIES = {
    "inner": (
        ("A", "B", "C", "D", "Z"),
        None,
        {"A": ({"A": 1}, 1), "C": ({"C": 1}, 1), "B": ({"B": 1, "Z": 1}, -1),
         "D": ({"D": 1, "Z": 1}, -1), "Z": ({"Z": -1}, 0)},
    ),
    "pending": (
        ("A", "B", "Z"),
        Coefficient.parameter("w"),
        {"A": ({"A": 1}, 1), "B": ({"B": 1, "Z": 2}, -1), "Z": ({"Z": -1}, 0)},
    ),
    "decoration": (("Y", "P"), None, {"Y": ({"Y": 1, "P": 1}, 0), "P": ({"P": -1}, 0)}),
}


def _classical_token(text):
    if text in ("L", "R"):
        return ("turn", text)
    if text == "F":
        return ("F", "w")
    if text.lstrip("-") == "O":
        return ("omega", "w", -1 if text.startswith("-") else 1)
    return ("edge", text)


def classical_identity_words(ident):
    """The two words of a classical flip identity as true-order token lists
    of ('turn', t), ('edge', name), ('F', 'w') and ('omega', 'w', sign)."""
    if ident not in CLASSICAL_FLIP_WORDS:
        raise ValueError(f"unknown classical identity {ident!r}")
    return tuple(
        [_classical_token(t) for t in word.split()] for word in CLASSICAL_FLIP_WORDS[ident]
    )


def classical_identity_sides(ident):
    """Both sides of a classical flip identity, multiplied out from its
    token words over the commutative torus of the family's shears.

    X_{v + s log T} is T**(-1/2) X_v diag(1, T) for s = +1 and
    T**(-1/2) X_v diag(T, 1) for s = -1, so a side with m T-dressed ~
    factors is T**(-m/2) times a matrix with entries in the torus; returns
    ((m, lhs), (m, rhs), T).  The tokens F and O take their weight w and
    commutant entries a, c as parameters of those names."""
    lhs, rhs = classical_identity_words(ident)
    names, weight, tildes = _CLASSICAL_FAMILIES[ident.rsplit("-", 1)[0]]
    form = SkewForm(names, [[0] * len(names)] * len(names))
    t_poly = _qden(form, "Z", +1, 0, weight).as_torus() if "Z" in names else None

    def edge(name):
        exponents, s = tildes[name[:-1]] if name.endswith("~") else ({name: 1}, 0)
        up = half(form, exponents)
        dn = half(form, {n: -e for n, e in exponents.items()})
        if s > 0:
            up = up.mul(t_poly)
        elif s < 0:
            dn = dn.mul(t_poly)
        return (-up).mul, dn.mul

    edges = EdgeMaps(edge)  # formed once for both sides

    def side(word):
        m = sum(1 for step in word if step[1].endswith("~") and tildes[step[1][:-1]][1])
        return m, word_matrix(form, word, Coefficient.parameter, edges)

    return side(lhs), side(rhs), t_poly


def classical_identity_witness(ident):
    """None when the two sides T**(-m/2) P of a classical flip identity
    agree over the commutative torus; otherwise the first nonzero entry of
    their difference, or the parity of the counts m when it differs, since
    T is not a square."""
    (m_lhs, lhs), (m_rhs, rhs), t_poly = classical_identity_sides(ident)
    if (m_lhs - m_rhs) % 2:
        return f"T-power parity: lhs T^(-{m_lhs}/2), rhs T^(-{m_rhs}/2)"
    for _ in range((m_rhs - m_lhs) // 2):
        lhs = lhs.scalar_mul_left(t_poly)
    for _ in range((m_lhs - m_rhs) // 2):
        rhs = rhs.scalar_mul_left(t_poly)
    diff = lhs - rhs
    for r in range(2):
        for s in range(2):
            if not diff[r, s].is_zero():
                return f"[{r}{s}]: {witness_digest(diff[r, s])}"
    return None


def verify_flip_matrix_identity_classical(ident):
    """Exact check over the commutative torus; True iff the two sides
    agree (see :func:`classical_identity_witness`)."""
    return classical_identity_witness(ident) is None


# ---------------------------------------------------------------------------
# quantum substitutions
# ---------------------------------------------------------------------------


class QuantumSubstitution:
    """Image table of a quantum flip: target-coordinate exponentials of the
    affected generators expressed over the source torus."""

    __slots__ = (
        "source_graph",
        "target_graph",
        "source_form",
        "target_form",
        "edge",
        "kind",
        "affected",
        "table",
    )

    def __init__(self, source_graph, target_graph, edge, kind, table):
        self.source_graph = source_graph
        self.target_graph = target_graph
        self.source_form = source_graph.skew_form()
        self.target_form = target_graph.skew_form()
        self.edge = edge
        self.kind = kind
        self.affected = tuple(sorted(table, key=self.target_form.index))
        self.table = dict(table)

    def image_of_generator(self, name, sign):
        pos, neg = self.table[name]
        return pos if sign > 0 else neg


def _qden(form, name, sign, qpow, weight=None):
    """The binomial 1 + q**qpow exp(sign*Z), or the trinomial
    1 + q**qpow w exp(sign*Z) + q**(2 qpow) exp(2 sign*Z) when a weight w
    is given, as a denominator; ``as_torus`` gives it as a torus element."""
    step = form.du({name: 2 * sign})
    if weight is None:
        return QDenominator(form, step, (Coefficient.q_power(qpow),))
    return QDenominator(
        form, step, (Coefficient.q_power(qpow) * weight, Coefficient.q_power(2 * qpow))
    )


def _role_images(form, role, edge, sign, weight=None):
    """Images of exp(role~) and exp(-role~) for a role of the given sign:
    B**sign exp(role) and exp(-role) B**-sign, B the (tri)nomial in
    exp(sign*edge); a B**-1 left of exp(role) moves right by a shift."""
    du = form.du({role: 2})
    up = TorusElement.monomial(form, du)
    down = TorusElement.monomial(form, form.du({role: -2}))
    den = _qden(form, edge, sign, -1, weight)
    binom = den.as_torus()
    if sign > 0:
        return OreElement.from_torus(binom.mul(up)), OreElement.fraction(down, (den,))
    return OreElement.fraction(up, (den.shifted(du),)), OreElement.from_torus(down.mul(binom))


def _flip_substitution(graph, edge, kind, new_graph, roles, weight=None):
    """exp(Z~) -> exp(-Z), and each role dressed by its sign in ROLE_SIGNS."""
    if len({edge, *roles}) != len(roles) + 1:
        raise ValueError(f"quantum {kind} substitution requires distinct neighbor edges")
    form = graph.skew_form()
    e_neg = TorusElement.monomial(form, form.du({edge: -2}))
    e_pos = TorusElement.monomial(form, form.du({edge: 2}))
    table = {edge: (OreElement.from_torus(e_neg), OreElement.from_torus(e_pos))}
    for role, sign in zip(roles, ROLE_SIGNS):
        table[role] = _role_images(form, role, edge, sign, weight)
    return QuantumSubstitution(graph, new_graph, edge, kind, table)


def quantum_flip_substitution(graph, edge):
    if graph.is_pending(edge):
        raise ValueError(f"{edge!r} is pending; use quantum_pending_substitution")
    return _flip_substitution(graph, edge, "inner", *flip_graph(graph, edge))


def quantum_pending_substitution(graph, edge):
    if not graph.is_pending(edge):
        raise ValueError(f"{edge!r} is not pending")
    flipped = pending_flip_graph(graph, edge)
    return _flip_substitution(graph, edge, "pending", *flipped, graph.weight(edge))


def apply_substitution(sub, x):
    """Homomorphic extension of the image table to an even TorusElement over
    the target coordinates."""
    tform = sub.target_form
    sform = sub.source_form
    if x.form is not tform and x.form != tform:
        raise ValueError("element does not live over the substitution target")
    if not even_check(x, sub.affected):
        raise ValueError(
            "element has odd exponents in flip-adjacent generators "
            f"{sub.affected}; only the even sublattice is substitutable"
        )
    aff_idx = [(name, tform.index(name)) for name in sub.affected]
    out = OreElement.zero(sform)
    for du, coeff in x.terms.items():
        rest = list(du)
        factors = []
        for name, i in aff_idx:
            if du[i]:
                factors.append((name, du[i] // 2))
                rest[i] = 0
        rest = tuple(rest)
        # W(du) = t**corr * W(rest) * prod exp(u_k g_k) over the target form
        corr = 0
        acc = rest
        for name, u in factors:
            vec = tform.du({name: 2 * u})
            corr += tform.pairing(acc, vec)
            acc = tuple(p + q for p, q in zip(acc, vec))
        img = OreElement.from_torus(
            TorusElement.monomial(sform, rest, coeff.times_t(-corr))
        )
        for name, u in factors:
            base = sub.image_of_generator(name, +1 if u > 0 else -1)
            for _ in range(abs(u)):
                img = img.mul(base)
        out = out + img
    return out


# -- substitution invariants: relation families over a substitution ----------
#
# Each invariant yields (label, lhs, rhs) triples whose two sides must agree;
# ``monodromy.family_records`` groups them into the records of the flip
# family.  The *_defects reductions keep perfbench's mutant pool.


def homomorphism_relations(sub):
    """image(gh) = image(g) image(h) over all signed pairs of table
    generators."""
    tform = sub.target_form
    gens = [(n, s) for n in sub.affected for s in (+1, -1)]
    for n1, s1 in gens:
        for n2, s2 in gens:
            du1 = tform.du({n1: 2 * s1})
            du2 = tform.du({n2: 2 * s2})
            prod = TorusElement.monomial(tform, du1).mul(
                TorusElement.monomial(tform, du2)
            )
            lhs = apply_substitution(sub, prod)
            rhs = sub.image_of_generator(n1, s1).mul(sub.image_of_generator(n2, s2))
            yield ((n1, s1, n2, s2), lhs, rhs)


def homomorphism_defects(sub):
    return [(label, lhs - rhs) for label, lhs, rhs in homomorphism_relations(sub)]


def star_relations(sub):
    """Generators are star-fixed Weyl monomials, so star must fix their
    images."""
    for name in sub.affected:
        for sign in (+1, -1):
            img = sub.image_of_generator(name, sign)
            yield ((name, sign), img.star(), img)


def star_defects(sub):
    return [(label, lhs - rhs) for label, lhs, rhs in star_relations(sub)]


def classical_limit_relations(sub):
    """At t = 1 each image must reduce to the classical flip formula."""
    shadow = commutative_shadow(sub.source_form)
    weight = None
    if sub.kind == "pending":
        weight = sub.source_graph.weight(sub.edge).at_t_one()
    for name in sub.affected:
        for sign in (+1, -1):
            got = _ore_to_shadow(sub.image_of_generator(name, sign), shadow)
            yield ((name, sign), got, _classical_image(shadow, sub, name, sign, weight))


def _ore_to_shadow(x, shadow):
    out = OreElement.zero(shadow)
    for num, dens in x.terms:
        n = num.at_t_one(shadow)
        ds = tuple(
            QDenominator(shadow, d.step, tuple(c.at_t_one() for c in d.coeffs))
            for d in dens
        )
        out = out + OreElement(shadow, [(n, ds)])
    return out


def _classical_image(shadow, sub, name, sign, weight):
    edge = sub.edge
    if name == edge:
        return OreElement.from_torus(
            TorusElement.monomial(shadow, shadow.du({name: -2 * sign}))
        )
    roles = (pending_flip_roles if sub.kind == "pending" else flip_roles)(sub.source_graph, edge)
    role_sign = ROLE_SIGNS[roles.index(name)]
    den = _qden(shadow, edge, role_sign, 0, weight)
    mono = TorusElement.monomial(shadow, shadow.du({name: 2 * sign}))
    if sign == role_sign:
        return OreElement.from_torus(den.as_torus().mul(mono))
    return OreElement.fraction(mono, (den.shifted(shadow.du({name: 2 * sign})),))


def linear_sum_relations(sub):
    """For an inner flip, exp(D~ + C~ + Z~) must map to exp(D + C) exactly."""
    if sub.kind != "inner":
        raise ValueError("linear-sum check applies to inner flips")
    _, _, c, d = flip_roles(sub.source_graph, sub.edge)
    tform = sub.target_form
    sform = sub.source_form
    target = TorusElement.monomial(tform, tform.du({c: 2, d: 2, sub.edge: 2}))
    want = OreElement.from_torus(
        TorusElement.monomial(sform, sform.du({c: 2, d: 2}))
    )
    yield ("linear sum", apply_substitution(sub, target), want)


def morphism_relations(sub):
    """The substitution is a star-algebra morphism with the classical flip
    as its limit: the homomorphism, star and classical-limit relations,
    then the linear sum of an inner flip."""
    yield from homomorphism_relations(sub)
    yield from star_relations(sub)
    yield from classical_limit_relations(sub)
    if sub.kind == "inner":
        yield from linear_sum_relations(sub)


def tilde_expansion_relations(sub):
    """Weyl expansion of X_D~ L X_Z~ L X_C~ over the flipped coordinates.

    Expected entries (q = t**4):

        (1,1)  exp(D/2 - C/2 - Z/2) + exp(D/2 - C/2 + Z/2)
        (1,2)  -q**(-1/2) exp(D/2 + C/2 + Z/2)
        (2,1)  +q**(-1/2) exp(-D/2 - C/2 - Z/2)
        (2,2)  0

    The (2,1) sign is the one actually produced by the displayed edge and
    turn matrices.
    """
    if sub.kind != "inner":
        raise ValueError("tilde expansion applies to inner flips")
    _, _, c, d = flip_roles(sub.source_graph, sub.edge)
    tform = sub.target_form
    z = sub.edge
    word = [("edge", d), ("turn", "L"), ("edge", z), ("turn", "L"), ("edge", c)]
    mat = word_matrix(tform, word, sub.target_graph.weight)
    qm_half = Coefficient.t_power(-2)
    want = [
        [
            TorusElement.monomial(tform, tform.du({d: 1, c: -1, z: -1}))
            + TorusElement.monomial(tform, tform.du({d: 1, c: -1, z: 1})),
            TorusElement.monomial(tform, tform.du({d: 1, c: 1, z: 1}), -qm_half),
        ],
        [
            TorusElement.monomial(tform, tform.du({d: -1, c: -1, z: -1}), qm_half),
            TorusElement.zero(tform),
        ],
    ]
    for i in range(2):
        for j in range(2):
            yield ((i, j), mat[i, j], want[i][j])


def tilde_expansion_defects(sub):
    return [(label, lhs - rhs) for label, lhs, rhs in tilde_expansion_relations(sub)]
