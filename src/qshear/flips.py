"""Mapping-class-group moves: classical shear-coordinate flips, pending-edge
flips and decoration changes, their exact commutative verification ring,
and the quantum substitutions induced on the torus algebra.

Quantum flip images, with Z the flipped edge and q = t**4:

    exp(Ztilde) -> exp(-Z)
    successor roles (A, C):   exp(Atilde) -> (1 + q**-1 exp(Z)) exp(A)
    predecessor roles (B, D): exp(Btilde) -> (1 + q**-1 exp(-Z))**-1 exp(B)

and for a pending edge of weight w the binomial is replaced by the
trinomial 1 + q**-1 w exp(Z) + q**-2 exp(2Z).  The bracket of a successor
role with Z is -1, of a predecessor role +1; the whole table is pinned by
the homomorphism, star-equivariance, classical-limit and roundtrip
invariants exercised in the test suite.
"""

from __future__ import annotations

import numpy as np

from .coeffs import Coefficient, ONE, ZERO
from .fatgraph import (
    flip_graph,
    flip_roles,
    pending_flip_graph,
    pending_flip_roles,
)
from .ore import OreElement, QDenominator
from .torus import TorusElement, commutative_shadow, even_check


# ---------------------------------------------------------------------------
# classical (numeric) layer
# ---------------------------------------------------------------------------


def phi(z):
    """log(1 + exp(z)) at a float or an (S,) array of samples, without
    overflow; an exp(-|z|) that underflows to 0 is harmless, so not flagged."""
    with np.errstate(under="ignore"):
        return np.logaddexp(0.0, z)


def phi_pending(z, w):
    """log(1 + w exp(z) + exp(2z)), the pending-edge shift for weight w, at a
    float or an (S,) array: 2 max(z, 0) + log1p(w e^-|z| + e^-2|z|)."""
    m = np.abs(z)
    with np.errstate(under="ignore"):
        return 2 * np.maximum(z, 0.0) + np.log1p(w * np.exp(-m) + np.exp(-2 * m))


class ShearState:
    """Classical point: a graph with shear values, floats or (S,) sample
    arrays that the moves never write into, and numeric weight parameters."""

    __slots__ = ("graph", "values", "params")

    def __init__(self, graph, values, params=None):
        values = dict(values)
        for e in graph.edges:
            if e not in values:
                raise ValueError(f"missing shear value for edge {e!r}")
        self.graph = graph
        self.values = values
        self.params = dict(params or {})

    def weight_value(self, edge):
        info = self.graph.pending[edge]
        return info.weight.evaluate(1.0, self.params).real


def classical_flip(state, edge):
    """Whitehead move on the shear values; coincident neighbor roles
    accumulate their shifts, which reproduces the special-case list
    (a doubled role gets 2*phi, paired +/- roles collapse to a shift by Z)."""
    graph = state.graph
    if graph.is_pending(edge):
        raise ValueError(f"cannot flip pending edge {edge!r}")
    new_graph, (a, b, c, d) = flip_graph(graph, edge)
    z = state.values[edge]
    values = dict(state.values)
    for role, shift in ((a, phi(z)), (b, -phi(-z)), (c, phi(z)), (d, -phi(-z))):
        values[role] = values[role] + shift
    values[edge] = -z
    return ShearState(new_graph, values, state.params)


def classical_pending_flip(state, edge):
    graph = state.graph
    if not graph.is_pending(edge):
        raise ValueError(f"{edge!r} is not a pending edge")
    new_graph, (a, b) = pending_flip_graph(graph, edge)
    z = state.values[edge]
    w = state.weight_value(edge)
    values = dict(state.values)
    values[a] = values[a] + phi_pending(z, w)
    values[b] = values[b] - phi_pending(-z, w)
    values[edge] = -z
    return ShearState(new_graph, values, state.params)


def decoration_change(state, hole):
    """Change the spiraling direction at a hole given as the (Y, P) pair of
    its neck edge and perimeter loop: (Y, P) -> (Y + P, -P)."""
    y_edge, p_edge = hole
    graph = state.graph
    slots = graph.incidence(p_edge)
    if len(slots) != 2 or slots[0][0] != slots[1][0]:
        raise ValueError(f"{p_edge!r} is not a perimeter loop")
    if not graph.shared_vertices(y_edge, p_edge):
        raise ValueError(f"{y_edge!r} does not meet the loop {p_edge!r}")
    values = dict(state.values)
    values[y_edge] = state.values[y_edge] + state.values[p_edge]
    values[p_edge] = -state.values[p_edge]
    return ShearState(graph, values, state.params)


def run_flip_script(state, lines):
    """Apply a flip script: lines of the form ``flip <edge>``,
    ``pflip <edge>`` or ``decor <neck> <loop>``; blank lines and ``#``
    comments are skipped."""
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "flip" and len(parts) == 2:
                state = classical_flip(state, parts[1])
            elif parts[0] == "pflip" and len(parts) == 2:
                state = classical_pending_flip(state, parts[1])
            elif parts[0] == "decor" and len(parts) == 3:
                state = decoration_change(state, (parts[1], parts[2]))
            else:
                raise ValueError(f"unrecognized script line: {line!r}")
        except ValueError as exc:
            raise ValueError(f"flip script line {ln}: {exc}") from exc
    return state


# ---------------------------------------------------------------------------
# exact commutative ring with one adjoined square root
# ---------------------------------------------------------------------------


class SqrtRing:
    """Q(params)[exp(+-edge/2)][r] / (r**2 - T) with T a Laurent polynomial;
    elements carry a T**k denominator so the tilde matrix entries are exact."""

    __slots__ = ("names", "t_poly")

    def __init__(self, names, t_poly):
        self.names = tuple(names)
        self.t_poly = {tuple(du): c for du, c in t_poly.items() if c}

    def du(self, exponents):
        vec = [0] * len(self.names)
        for name, dexp in exponents.items():
            vec[self.names.index(name)] += int(dexp)
        return tuple(vec)

    def zero(self):
        return CElem(self, {}, 0)

    def const(self, coeff):
        return CElem(self, {(self.du({}), 0): coeff}, 0)

    def one(self):
        return self.const(ONE)

    def mono(self, exponents, coeff=ONE, rdeg=0, tk=0):
        return CElem(self, {(self.du(exponents), rdeg % 2): coeff}, tk)


class CElem:
    """terms / T**tk with terms mapping (du, r-degree) to Coefficient."""

    __slots__ = ("ring", "terms", "tk")

    def __init__(self, ring, terms, tk):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}
        self.tk = tk

    def _aligned(self, other):
        if self.tk == other.tk:
            return self.terms, other.terms, self.tk
        ring = self.ring
        if self.tk < other.tk:
            lifted = _tmul(ring, self.terms, other.tk - self.tk)
            return lifted, other.terms, other.tk
        lifted = _tmul(ring, other.terms, self.tk - other.tk)
        return self.terms, lifted, self.tk

    def __add__(self, other):
        a, b, tk = self._aligned(other)
        out = dict(a)
        for k, v in b.items():
            nv = out.get(k, ZERO) + v
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
        return CElem(self.ring, out, tk)

    def __neg__(self):
        return CElem(self.ring, {k: -v for k, v in self.terms.items()}, self.tk)

    def mul(self, other):
        ring = self.ring
        out = {}
        for (du1, r1), c1 in self.terms.items():
            for (du2, r2), c2 in other.terms.items():
                c = c1 * c2
                if not c:
                    continue
                du = tuple(x + y for x, y in zip(du1, du2))
                if r1 and r2:
                    for dt, ct in ring.t_poly.items():
                        key = (tuple(x + y for x, y in zip(du, dt)), 0)
                        nv = out.get(key, ZERO) + c * ct
                        if nv:
                            out[key] = nv
                        elif key in out:
                            del out[key]
                else:
                    key = (du, r1 ^ r2)
                    nv = out.get(key, ZERO) + c
                    if nv:
                        out[key] = nv
                    elif key in out:
                        del out[key]
        return CElem(ring, out, self.tk + other.tk)

    def equals(self, other):
        a, b, _ = self._aligned(other)
        return a == b

    def __repr__(self):
        return f"CElem({self.terms!r})/T^{self.tk}"


def _tmul(ring, terms, k):
    for _ in range(k):
        out = {}
        for (du, r), c in terms.items():
            for dt, ct in ring.t_poly.items():
                key = (tuple(x + y for x, y in zip(du, dt)), r)
                nv = out.get(key, ZERO) + c * ct
                if nv:
                    out[key] = nv
                elif key in out:
                    del out[key]
        terms = out
    return terms


def _cmat_mul(x, y):
    return [
        [
            x[0][0].mul(y[0][0]) + x[0][1].mul(y[1][0]),
            x[0][0].mul(y[0][1]) + x[0][1].mul(y[1][1]),
        ],
        [
            x[1][0].mul(y[0][0]) + x[1][1].mul(y[1][0]),
            x[1][0].mul(y[0][1]) + x[1][1].mul(y[1][1]),
        ],
    ]


def _cmat_chain(*ms):
    acc = ms[0]
    for m in ms[1:]:
        acc = _cmat_mul(acc, m)
    return acc


def _c_edge(ring, name, half=1, rdeg=0, tk=0, extra=None):
    """[[0, -e^{v/2}], [e^{-v/2}, 0]] where v/2 carries optional r / T^k
    dressing and an extra half-integer exponent offset."""
    up = {name: half}
    dn = {name: -half}
    if extra:
        for k, v in extra.items():
            up[k] = up.get(k, 0) + v
            dn[k] = dn.get(k, 0) - v
    z = ring.zero()
    pos = ring.mono(up, ONE, rdeg, tk)
    neg_tk = 0 if tk else (1 if rdeg else 0)
    neg = ring.mono(dn, ONE, rdeg, neg_tk)
    return [[z, -pos], [neg, z]]


def _c_omega(ring, a, c, w):
    """The commutant a + c F(w); F(w) = [[0, 1], [-1, -w]] is _c_omega(0, 1, w)."""
    return [
        [ring.const(a), ring.const(c)],
        [-ring.const(c), ring.const(a - w * c)],
    ]


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

# Per family: the shear names, T = r**2 of the square-root ring, and the
# _c_edge dressing of each ~ shear.  Atilde = A + log T and Btilde =
# B - log(1 + e^-Z) with 1 + e^-Z = e^-Z T; the pending family likewise
# with the trinomial T; a decoration change sends (Y, P) to (Y + P, -P).
_INNER_SHIFT = {"rdeg": 1, "tk": 1, "extra": {"Z": 1}}
_CLASSICAL_FAMILIES = {
    "inner": (
        ("A", "B", "C", "D", "Z"),
        {(0, 0, 0, 0, 0): ONE, (0, 0, 0, 0, 2): ONE},
        {"A": {"rdeg": 1}, "C": {"rdeg": 1}, "B": _INNER_SHIFT, "D": _INNER_SHIFT,
         "Z": {"half": -1}},
    ),
    "pending": (
        ("A", "B", "Z"),
        {(0, 0, 0): ONE, (0, 0, 2): Coefficient.parameter("w"), (0, 0, 4): ONE},
        {"A": {"rdeg": 1}, "B": {"rdeg": 1, "tk": 1, "extra": {"Z": 2}}, "Z": {"half": -1}},
    ),
    "decoration": (("Y", "P"), {(0, 0): ONE}, {"Y": {"extra": {"P": 1}}, "P": {"half": -1}}),
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
    """Both sides of a classical flip identity as exact 2x2 matrices over
    the square-root ring, multiplied out from its token words; returns
    (lhs, rhs)."""
    words = classical_identity_words(ident)
    names, t_poly, dressing = _CLASSICAL_FAMILIES[ident.rsplit("-", 1)[0]]
    ring = SqrtRing(names, t_poly)

    def factor(step):
        kind, name = step[0], step[1]
        if kind == "turn":
            one, zero = ring.one(), ring.zero()
            return [[one, one], [-one, zero]] if name == "R" else [[zero, one], [-one, -one]]
        if kind == "edge":
            base = name.rstrip("~")
            return _c_edge(ring, base, **(dressing[base] if name != base else {}))
        w = Coefficient.parameter(name)
        if kind == "F":
            return _c_omega(ring, ZERO, ONE, w)
        a, c = Coefficient.parameter("a"), Coefficient.parameter("c")
        return _c_omega(ring, a, c, w) if step[2] > 0 else _c_omega(ring, -a, -c, w)

    return tuple(_cmat_chain(*map(factor, word)) for word in words)


def verify_flip_matrix_identity_classical(ident):
    """Exact check in the commutative square-root ring; True iff the two
    matrix words agree entrywise."""
    lhs, rhs = classical_identity_sides(ident)
    return all(lhs[i][j].equals(rhs[i][j]) for i in range(2) for j in range(2))


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


def _binomial(form, name, sign, qpow, weight=None):
    """1 + q**qpow exp(sign*Z) or the trinomial when a weight is given."""
    el = TorusElement.one(form)
    du1 = form.du({name: 2 * sign})
    if weight is None:
        return el + TorusElement.monomial(form, du1, Coefficient.q_power(qpow))
    du2 = form.du({name: 4 * sign})
    el = el + TorusElement.monomial(form, du1, Coefficient.q_power(qpow) * weight)
    return el + TorusElement.monomial(form, du2, Coefficient.q_power(2 * qpow))


def _qden(form, name, sign, qpow, weight=None):
    step = form.du({name: 2 * sign})
    if weight is None:
        return QDenominator(form, step, (Coefficient.q_power(qpow),))
    return QDenominator(
        form, step, (Coefficient.q_power(qpow) * weight, Coefficient.q_power(2 * qpow))
    )


def _positive_role_images(form, role, edge, weight=None):
    """Images for a +phi role: exp(role~) = B exp(role), exp(-role~) =
    exp(-role) B**-1 with B the (tri)nomial in exp(edge)."""
    binom = _binomial(form, edge, +1, -1, weight)
    e_pos = TorusElement.monomial(form, form.du({role: 2}))
    e_neg = TorusElement.monomial(form, form.du({role: -2}))
    img_pos = OreElement.from_torus(binom.mul(e_pos))
    img_neg = OreElement.fraction(e_neg, (_qden(form, edge, +1, -1, weight),))
    return img_pos, img_neg


def _negative_role_images(form, role, edge, weight=None):
    """Images for a -phi(-Z) role: exp(role~) = B(-Z)**-1 exp(role)."""
    den = _qden(form, edge, -1, -1, weight)
    du_pos = form.du({role: 2})
    du_neg = form.du({role: -2})
    img_pos = OreElement.fraction(
        TorusElement.monomial(form, du_pos), (den.shifted(du_pos),)
    )
    img_neg = OreElement.from_torus(
        TorusElement.monomial(form, du_neg).mul(_binomial(form, edge, -1, -1, weight))
    )
    return img_pos, img_neg


def quantum_flip_substitution(graph, edge):
    if graph.is_pending(edge):
        raise ValueError(f"{edge!r} is pending; use quantum_pending_substitution")
    new_graph, (a, b, c, d) = flip_graph(graph, edge)
    if len({a, b, c, d, edge}) != 5:
        raise ValueError("quantum substitution requires four distinct neighbor edges")
    form = graph.skew_form()
    e_neg = TorusElement.monomial(form, form.du({edge: -2}))
    e_pos = TorusElement.monomial(form, form.du({edge: 2}))
    table = {
        edge: (OreElement.from_torus(e_neg), OreElement.from_torus(e_pos)),
        a: _positive_role_images(form, a, edge),
        c: _positive_role_images(form, c, edge),
        b: _negative_role_images(form, b, edge),
        d: _negative_role_images(form, d, edge),
    }
    return QuantumSubstitution(graph, new_graph, edge, "inner", table)


def quantum_pending_substitution(graph, edge):
    if not graph.is_pending(edge):
        raise ValueError(f"{edge!r} is not pending")
    new_graph, (a, b) = pending_flip_graph(graph, edge)
    if len({a, b, edge}) != 3:
        raise ValueError("quantum pending substitution requires distinct neighbors")
    form = graph.skew_form()
    weight = graph.weight(edge)
    e_neg = TorusElement.monomial(form, form.du({edge: -2}))
    e_pos = TorusElement.monomial(form, form.du({edge: 2}))
    table = {
        edge: (OreElement.from_torus(e_neg), OreElement.from_torus(e_pos)),
        a: _positive_role_images(form, a, edge, weight),
        b: _negative_role_images(form, b, edge, weight),
    }
    return QuantumSubstitution(graph, new_graph, edge, "pending", table)


def apply_substitution(sub, x):
    """Homomorphic extension of the image table to an even TorusElement over
    the target coordinates."""
    tform = sub.target_form
    sform = sub.source_form
    if x.form != tform:
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


# -- substitution invariants (exercised by the suites and tests) ---------------


def homomorphism_defects(sub):
    """image(gh) - image(g) image(h) over all signed pairs of table
    generators; all must vanish."""
    tform = sub.target_form
    defects = []
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
            defects.append(((n1, s1, n2, s2), lhs - rhs))
    return defects


def star_defects(sub):
    """Generators are star-fixed Weyl monomials, so star must fix their
    images."""
    out = []
    for name in sub.affected:
        for sign in (+1, -1):
            img = sub.image_of_generator(name, sign)
            out.append(((name, sign), img.star() - img))
    return out


def classical_limit_defects(sub):
    """At t = 1 each image must reduce to the classical flip formula."""
    sform = sub.source_form
    shadow = commutative_shadow(sform)
    edge = sub.edge
    weight = None
    if sub.kind == "pending":
        weight = sub.source_graph.weight(edge).at_t_one()
    defects = []
    for name in sub.affected:
        for sign in (+1, -1):
            img = sub.image_of_generator(name, sign)
            got = _ore_to_shadow(img, shadow)
            want = _classical_image(shadow, sub, name, sign, weight)
            defects.append(((name, sign), got - want))
    return defects


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
    if sub.kind == "pending":
        a, b = pending_flip_roles(sub.source_graph, edge)
        positive = name == a
    else:
        a, b, c, d = flip_roles(sub.source_graph, edge)
        positive = name in (a, c)
    binom = _binomial(shadow, edge, +1 if positive else -1, 0, weight)
    mono = TorusElement.monomial(shadow, shadow.du({name: 2 * sign}))
    if (sign > 0) == positive:
        return OreElement.from_torus(binom.mul(mono))
    return OreElement.fraction(
        mono, (_qden(shadow, edge, +1 if positive else -1, 0, weight).shifted(shadow.du({name: 2 * sign})),)
    )


def linear_sum_defect(sub):
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
    return apply_substitution(sub, target) - want


def tilde_expansion_defects(sub):
    """Weyl expansion of X_D~ L X_Z~ L X_C~ over the flipped coordinates.

    Expected entries (q = t**4):

        (1,1)  exp(D/2 - C/2 - Z/2) + exp(D/2 - C/2 + Z/2)
        (1,2)  -q**(-1/2) exp(D/2 + C/2 + Z/2)
        (2,1)  +q**(-1/2) exp(-D/2 - C/2 - Z/2)
        (2,2)  0

    The (2,1) sign is the one actually produced by the displayed edge and
    turn matrices.
    """
    from .matrices import edge_matrix, turn_matrix

    if sub.kind != "inner":
        raise ValueError("tilde expansion applies to inner flips")
    _, _, c, d = flip_roles(sub.source_graph, sub.edge)
    tform = sub.target_form
    z = sub.edge
    mat = (
        edge_matrix(tform, d)
        .mul(turn_matrix(tform, "L"))
        .mul(edge_matrix(tform, z))
        .mul(turn_matrix(tform, "L"))
        .mul(edge_matrix(tform, c))
    )
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
    return [
        ((i, j), mat[i, j] - want[i][j]) for i in range(2) for j in range(2)
    ]
