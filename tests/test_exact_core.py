"""The exact core on machine integers: property tests of the Coefficient
normaliser and the Weyl product, and a guard that the catalog's hot path
stores only ints."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qshear import torus
from qshear.coeffs import Coefficient
from qshear.fatgraph import spine_graph_an
from qshear.flips import homomorphism_defects, quantum_flip_substitution
from qshear.monodromy import an_realization, cross_relation_defects, uqsl2_defects
from qshear.torus import SkewForm, TorusElement

PARAMS = ("a", "w")

values = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
)
monomials = st.dictionaries(st.sampled_from(PARAMS), st.integers(1, 2)).map(
    lambda powers: tuple(powers.items())
)
coefficients = st.dictionaries(
    st.tuples(st.integers(-6, 6), monomials), values, max_size=3
).map(Coefficient)


@st.composite
def forms(draw):
    n = draw(st.integers(1, 4))
    beta = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            beta[i][j] = draw(st.integers(-2, 2))
            beta[j][i] = -beta[i][j]
    return SkewForm(tuple(f"g{i}" for i in range(n)), beta)


def elements(form):
    exponents = st.tuples(*[st.integers(-3, 3)] * form.dim)
    terms = st.dictionaries(exponents, coefficients, max_size=4)
    return terms.map(lambda t: TorusElement(form, t))


@st.composite
def element_pairs(draw):
    form = draw(forms())
    return draw(elements(form)), draw(elements(form))


def naive_mul(x, y):
    """The Weyl product rule, one SkewForm.pairing per pair of terms."""
    form = x.form
    out = TorusElement.zero(form)
    for du, cu in x.terms.items():
        for dv, cv in y.terms.items():
            tpow = Coefficient.t_power(form.pairing(du, dv))
            dw = tuple(a + b for a, b in zip(du, dv))
            out = out + TorusElement.monomial(form, dw, cu * cv * tpow)
    return out


def stored_values(coeff):
    return [v for _, v in coeff.items()]


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_torus_mul_matches_per_pair_pairing(pair):
    x, y = pair
    assert x.mul(y) == naive_mul(x, y)


@settings(max_examples=150, deadline=None)
@given(coefficients, coefficients)
def test_integral_values_are_stored_as_int(x, y):
    for c in (x, y, x + y, x - y, x * y, x.mul(y).times_t(3), x.at_t_one()):
        for v in stored_values(c):
            assert v
            assert type(v) is int or v.denominator != 1


@pytest.mark.parametrize(
    "coeff, text",
    [
        (Coefficient.rational(Fraction(1, 3)), "1/3"),
        (Coefficient.rational(Fraction(-1, 2)), "-1/2"),
        (Coefficient.t_power(2, Fraction(-1, 2)), "-1/2*t^2"),
        (Coefficient.parameter("w", 2, Fraction(1, 3)), "1/3*w^2"),
        (Coefficient.rational(Fraction(6, 3)), "2"),
    ],
)
def test_repr_of_fractions_is_unchanged(coeff, text):
    assert repr(coeff) == text


@settings(max_examples=150, deadline=None)
@given(
    coefficients,
    st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
def test_evaluate_agrees_on_mixed_int_and_fraction_terms(c, t, a, w):
    point = {"a": a, "w": w}
    exact = Fraction(0)
    for (texp, params), v in c.items():
        term = Fraction(v) * t**texp
        for name, e in params:
            term *= point[name] ** e
        exact += term
    got = c.evaluate(float(t), {name: float(x) for name, x in point.items()})
    assert abs(got - float(exact)) <= 1e-9 * (1 + abs(float(exact)))


def test_catalog_hot_path_stores_only_ints(monkeypatch):
    """Every coefficient value stored by the A_3 entry and cross defects and
    one flip's homomorphism defects, and every value a Coefficient product or
    sum or a torus product returned while they were built, is an int.  The
    torus defects are zero, so the recorded values keep the check from being
    vacuous."""
    made = []
    originals = {name: getattr(Coefficient, name) for name in ("mul", "__add__")}

    def recording(name):
        def op(*args):
            out = originals[name](*args)
            made.extend(stored_values(out))
            return out

        return op

    finished = torus._finished

    def recording_kernel(form, acc):
        out = finished(form, acc)
        made.extend(v for c in out.terms.values() for v in stored_values(c))
        return out

    for name in originals:
        monkeypatch.setattr(Coefficient, name, recording(name))
    # the one finishing step of the product kernel, which weyl_sum and the
    # both-orders pair share
    monkeypatch.setattr(torus, "_finished", recording_kernel)
    real = an_realization(3)
    torus_defects = [d for i in (1, 2, 3) for _, d in uqsl2_defects(real, i)]
    for i, j in ((1, 2), (1, 3), (2, 3)):
        torus_defects += [d for _, d in cross_relation_defects(real, i, j)]
    sub = quantum_flip_substitution(spine_graph_an(3), "X1")
    flip_defects = [d for _, d in homomorphism_defects(sub)]
    monkeypatch.undo()

    stored = [v for d in torus_defects for c in d.terms.values() for v in stored_values(c)]
    for d in flip_defects:
        for num, dens in d.terms:
            stored += [v for c in num.terms.values() for v in stored_values(c)]
            stored += [v for den in dens for c in den.coeffs for v in stored_values(c)]
    assert stored and made
    assert {type(v) for v in stored} == {int}
    assert {type(v) for v in made} == {int}
