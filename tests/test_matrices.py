import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qshear.coeffs import Coefficient, ONE
from qshear.matrices import (
    AlgMatrix,
    edge_matrix,
    f_matrix,
    omega_commutant,
    r_matrix,
    scalar_tensor,
    tensor_embed,
    turn_matrix,
    word_matrix,
)
from qshear.torus import SkewForm, TorusElement, ew


_FORM = SkewForm(("X", "Y", "Z"), [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])


@pytest.fixture
def form():
    return _FORM


def test_edge_matrix_squares_to_minus_identity(form):
    xz = edge_matrix(form, "Z")
    assert (xz.mul(xz) + AlgMatrix.identity(form)).is_zero()
    assert xz.trace().is_zero()
    for i in range(2):
        for j in range(2):
            assert xz[i, j].star() == xz[i, j]


def test_turn_matrices(form):
    l = turn_matrix(form, "L")
    r = turn_matrix(form, "R")
    assert (l.mul(l) + r).is_zero()
    assert (r.mul(r).mul(r) + AlgMatrix.identity(form)).is_zero()
    assert r.trace() == TorusElement.one(form)
    assert l.trace() == -TorusElement.one(form)


def test_f_matrix_orders(form):
    f0 = f_matrix(form, Coefficient.zero())
    assert (f0.mul(f0) + AlgMatrix.identity(form)).is_zero()
    f1 = f_matrix(form, ONE)
    assert (f1.mul(f1).mul(f1) - AlgMatrix.identity(form)).is_zero()
    w = Coefficient.parameter("w")
    assert f_matrix(form, w).trace() == TorusElement.scalar(form, -w)


def test_winding_collapse_at_full_order(form):
    # going around an order-p point p times is the same as avoiding it:
    # X L X_Z (-1)^(p-1) F^p X_Z L X_Y == X R X_Y for p = 2
    xz = edge_matrix(form, "Z")
    f0 = f_matrix(form, Coefficient.zero())
    xx, xy = edge_matrix(form, "X"), edge_matrix(form, "Y")
    l, r = turn_matrix(form, "L"), turn_matrix(form, "R")
    lhs = xx.mul(l).mul(xz).mul(-f0.mul(f0)).mul(xz).mul(l).mul(xy)
    rhs = xx.mul(r).mul(xy)
    assert (lhs - rhs).is_zero()
    # a single winding at an order-2 point doubles the edge value:
    # X_Z F_0 X_Z = [[0, -exp(Z)], [exp(-Z), 0]]
    doubled = AlgMatrix(
        form,
        [[TorusElement.zero(form), -ew(form, {"Z": 1})], [ew(form, {"Z": -1}), TorusElement.zero(form)]],
    )
    assert (xz.mul(f0).mul(xz) - doubled).is_zero()


def test_omega_commutant(form):
    w, a, c = (Coefficient.parameter(n) for n in ("w", "a", "c"))
    om = omega_commutant(form, a, c, w)
    fw = f_matrix(form, w)
    assert (om.mul(fw) - fw.mul(om)).is_zero()
    assert (omega_commutant(form, ONE, Coefficient.zero(), w) - AlgMatrix.identity(form)).is_zero()
    assert (
        omega_commutant(form, Coefficient.zero(), ONE, Coefficient.zero())
        - f_matrix(form, Coefficient.zero())
    ).is_zero()


def test_trace_cyclicity_where_it_holds(form):
    # the naive quantum trace is NOT invariant under cyclic rotation of a
    # word (that failure is what makes quantum ordering of geodesic
    # functions a real problem); what does hold exactly: rotations past
    # central-entry factors, and everything at q = 1.
    from qshear.torus import commutative_shadow

    rng = random.Random(3)
    xx, xs = edge_matrix(form, "X"), edge_matrix(form, "Y")
    word = xx.mul(turn_matrix(form, "L")).mul(xs)
    lturn = turn_matrix(form, "L")
    assert (word.mul(lturn).trace() - lturn.mul(word).trace()).is_zero()

    shadow = commutative_shadow(form)

    def rand_mat(f):
        rows = []
        for _ in range(2):
            row = []
            for _ in range(2):
                du = tuple(rng.randint(-2, 2) for _ in range(3))
                row.append(TorusElement.monomial(f, du, Coefficient.t_power(rng.randint(-2, 2))))
            rows.append(row)
        return AlgMatrix(f, rows)

    for _ in range(25):
        a, b = rand_mat(shadow), rand_mat(shadow)
        diff = a.mul(b).trace() - b.mul(a).trace()
        assert diff.at_t_one(shadow).is_zero()

    # and a definite quantum counterexample, pinning the failure mode
    a = AlgMatrix(
        form,
        [
            [ew(form, {"X": 1}), TorusElement.zero(form)],
            [TorusElement.zero(form), TorusElement.zero(form)],
        ],
    )
    b = AlgMatrix(
        form,
        [
            [ew(form, {"Y": 1}), TorusElement.zero(form)],
            [TorusElement.zero(form), TorusElement.zero(form)],
        ],
    )
    assert not (a.mul(b).trace() - b.mul(a).trace()).is_zero()


def test_mat_scale(form):
    e = AlgMatrix.identity(form)
    assert (Coefficient.q_power(0) * e - e).is_zero()
    assert (Coefficient.q_power(-1) * (Coefficient.q_power(1) * e) - e).is_zero()


def test_entries_over_the_matrix_form_make_no_form_comparison(form, monkeypatch):
    """The form check compares by identity first: entries that share the
    matrix's form compare no names or beta tables; an equal copy of the
    form is compared by value and passes, and a foreign form raises."""
    x = ew(form, {"X": 1})
    calls = []
    eq = SkewForm.__eq__
    monkeypatch.setattr(SkewForm, "__eq__", lambda self, other: calls.append(1) or eq(self, other))
    AlgMatrix(form, [[x, x], [x, x]])
    assert calls == []
    AlgMatrix(SkewForm(form.names, form.beta), [[x, x], [x, x]])
    assert len(calls) == 4
    with pytest.raises(ValueError, match="different forms"):
        AlgMatrix(SkewForm(("X", "Y"), [[0, 1], [-1, 0]]), [[x, x], [x, x]])


def test_scalar_product_takes_coefficients_only(form):
    # a Coefficient scales; a torus element and a matrix do not multiply
    # each other with *, which would build entries that are not Coefficients
    e = AlgMatrix.identity(form)
    x = ew(form, {"X": 1})
    q = Coefficient.t_power(4)
    qe = q * e
    assert qe[0, 0] == qe[1, 1] == TorusElement.scalar(form, q)
    assert qe[0, 1].is_zero() and qe[1, 0].is_zero()
    assert q * x == ew(form, {"X": 1}, q)
    for left, right in ((x, e), (e, x), (2, x), (2, e)):
        with pytest.raises(TypeError):
            left * right


def test_r_matrix_entries(form):
    r = r_matrix(1, form)
    q = Coefficient.q_power(1)
    qi = Coefficient.q_power(-1)
    assert r[0, 0] == TorusElement.scalar(form, q) and r[3, 3] == TorusElement.scalar(form, q)
    assert r[1, 1] == TorusElement.one(form) and r[2, 2] == TorusElement.one(form)
    assert r[1, 2] == TorusElement.scalar(form, q - qi)
    assert r[2, 1].is_zero()


def test_r_matrix_inverse_and_transpose(form):
    r = r_matrix(1, form)
    rinv = r_matrix(-1, form)
    assert (r.mul(rinv) - AlgMatrix.identity(form, 4)).is_zero()
    rt = r.transpose()
    assert rt[2, 1] == TorusElement.scalar(form, Coefficient.q_power(1) - Coefficient.q_power(-1))
    assert rt[1, 2].is_zero()


def test_yang_baxter_scalar():
    r = r_matrix(1, SkewForm((), ()))
    r12 = scalar_tensor(r, (1, 2))
    r13 = scalar_tensor(r, (1, 3))
    r23 = scalar_tensor(r, (2, 3))
    assert (r12.mul(r13).mul(r23) - r23.mul(r13).mul(r12)).is_zero()


def test_tensor_embed_identity(form):
    e4 = tensor_embed(AlgMatrix.identity(form), 1)
    assert (e4 - AlgMatrix.identity(form, 4)).is_zero()


def test_tensor_embed_entry_order(form):
    m = AlgMatrix(
        form,
        [
            [ew(form, {"X": 1}), ew(form, {"Y": 1})],
            [ew(form, {"Z": 1}), ew(form, {"X": -1})],
        ],
    )
    n = AlgMatrix(
        form,
        [
            [ew(form, {"Y": -1}), ew(form, {"Z": -1})],
            [ew(form, {"X": 1, "Y": 1}), ew(form, {"Z": 1, "X": 1})],
        ],
    )
    prod = tensor_embed(m, 1).mul(tensor_embed(n, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want = m[i, j].mul(n[k, l])
                    assert prod[2 * i + k, 2 * j + l] == want


def test_matrix_multiplication_associative():
    rng = random.Random(41)
    from conftest import random_skew_form

    for _ in range(20):
        f = random_skew_form(rng, 3)

        def rand_mat():
            rows = []
            for _ in range(2):
                row = []
                for _ in range(2):
                    du = tuple(rng.randint(-2, 2) for _ in range(3))
                    row.append(TorusElement.monomial(f, du, Coefficient.t_power(rng.randint(-2, 2))))
                rows.append(row)
            return AlgMatrix(f, rows)

        a, b, c = rand_mat(), rand_mat(), rand_mat()
        assert (a.mul(b).mul(c) - a.mul(b.mul(c))).is_zero()


# -- the word fold against the displayed constructors ------------------------

_W, _A, _C = (Coefficient.parameter(n) for n in ("w", "a", "c"))
# Z is the pending edge of the windings, w its weight and a, c the commutant
_SCALARS = {"Z": _W, "w": _W, "a": _A, "c": _C}
_STEPS = [
    ("turn", "L"),
    ("turn", "R"),
    ("edge", "X"),
    ("edge", "Z"),
    ("orb", "Z", 1),
    ("orb", "Z", 2),
    ("orb", "Z", 3),
    ("F", "w"),
    ("omega", "w", 1),
    ("omega", "w", -1),
]


def _constructor(step):
    """The factor of one step, multiplied out from the constructors."""
    form, kind = _FORM, step[0]
    if kind == "turn":
        return turn_matrix(form, step[1])
    if kind == "edge":
        return edge_matrix(form, step[1])
    if kind == "F":
        return f_matrix(form, _W)
    if kind == "omega":
        o = omega_commutant(form, _A, _C, _W)
        return o if step[2] > 0 else -o
    x = edge_matrix(form, step[1])
    winding = reduce(AlgMatrix.mul, [f_matrix(form, _W)] * step[2])
    return reduce(AlgMatrix.mul, [x, winding if step[2] % 2 else -winding, x])


@pytest.mark.parametrize("step", _STEPS, ids=lambda s: "-".join(map(str, s)))
def test_word_matrix_of_each_step_is_its_constructor(step):
    got = word_matrix(_FORM, [step], _SCALARS.__getitem__)
    assert (got - _constructor(step)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_STEPS), min_size=1, max_size=8))
def test_word_matrix_is_the_product_of_constructors(word):
    got = word_matrix(_FORM, word, _SCALARS.__getitem__)
    assert (got - reduce(AlgMatrix.mul, map(_constructor, word))).is_zero()


def test_word_matrix_of_seeded_words_with_windings():
    """The folded edge signs multiply out to the displayed constructors on
    seeded words of up to 10 steps: every edge of the form, windings of 1
    to 5 about Z, F and both commutant signs."""
    rng = random.Random(23)
    fixed = [("turn", "L"), ("turn", "R"), ("F", "w"), ("omega", "w", 1), ("omega", "w", -1)]
    for _ in range(25):
        word = []
        for _ in range(rng.randint(1, 10)):
            kind = rng.choice(("fixed", "edge", "orb"))
            if kind == "fixed":
                word.append(rng.choice(fixed))
            elif kind == "edge":
                word.append(("edge", rng.choice(_FORM.names)))
            else:
                word.append(("orb", "Z", rng.randint(1, 5)))
        got = word_matrix(_FORM, word, _SCALARS.__getitem__)
        assert (got - reduce(AlgMatrix.mul, map(_constructor, word))).is_zero(), word


def test_word_matrix_rejects_unknown_steps():
    with pytest.raises(ValueError, match="unknown word step"):
        word_matrix(_FORM, [("turn", "U")], _SCALARS.__getitem__)
    with pytest.raises(ValueError, match="unknown word step"):
        word_matrix(_FORM, [("loop", "X")], _SCALARS.__getitem__)
