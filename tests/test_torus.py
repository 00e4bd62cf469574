import random

import pytest

from qshear.coeffs import Coefficient
from qshear.oracle import ClockShiftRep
from qshear.torus import SkewForm, TorusElement, even_check, ew, half

from conftest import random_skew_form


@pytest.fixture
def an2_form():
    # generators (X, S, W, Y, Z) with the two-vertex cyclic structure
    names = ("X", "S", "W", "Y", "Z")
    idx = {n: i for i, n in enumerate(names)}
    beta = [[0] * 5 for _ in range(5)]
    for trip in (("X", "S", "W"), ("X", "Y", "Z")):
        for k in range(3):
            a, b = idx[trip[k]], idx[trip[(k + 1) % 3]]
            beta[a][b] += 1
            beta[b][a] -= 1
    return SkewForm(names, beta)


def test_product_rule_quoted_example(an2_form):
    f = an2_form
    lhs = ew(f, {"X": 1}).mul(ew(f, {"S": 1}))
    assert lhs == ew(f, {"X": 1, "S": 1}, Coefficient.q_power(1))


def test_unit_monomial(an2_form):
    f = an2_form
    x = ew(f, {"X": 1, "Z": -1}) + half(f, {"S": 1}, Coefficient.t_power(3))
    assert x.mul(TorusElement.one(f)) == x
    assert TorusElement.one(f).mul(x) == x


def test_double_swap_is_q_squared(an2_form):
    f = an2_form
    ex, es = ew(f, {"X": 1}), ew(f, {"S": 1})
    assert ex.mul(es) == Coefficient.q_power(2) * es.mul(ex)


def _random_element(rng, form, nterms=3, span=2):
    el = TorusElement.zero(form)
    for _ in range(nterms):
        du = tuple(rng.randint(-span, span) for _ in range(form.dim))
        coeff = Coefficient.t_power(rng.randint(-4, 4), rng.randint(-3, 3))
        el = el + TorusElement.monomial(form, du, coeff)
    return el


def test_associativity_random():
    rng = random.Random(7)
    for trial in range(200):
        form = random_skew_form(rng, rng.randint(2, 4))
        x = _random_element(rng, form)
        y = _random_element(rng, form)
        z = _random_element(rng, form)
        assert x.mul(y).mul(z) == x.mul(y.mul(z)), f"trial {trial}"


def test_star_is_antihomomorphism():
    rng = random.Random(11)
    for trial in range(200):
        form = random_skew_form(rng, rng.randint(2, 4))
        x = _random_element(rng, form)
        y = _random_element(rng, form)
        assert x.mul(y).star() == y.star().mul(x.star()), f"trial {trial}"
        assert x.star().star() == x


def test_star_single_term(an2_form):
    f = an2_form
    x = ew(f, {"X": 1}, Coefficient.t_power(4))
    assert x.star() == ew(f, {"X": 1}, Coefficient.t_power(-4))


def test_star_of_product_value(an2_form):
    f = an2_form
    prod = ew(f, {"X": 1}).mul(ew(f, {"S": 1}))
    assert prod.star() == ew(f, {"X": 1, "S": 1}, Coefficient.q_power(-1))


def test_even_check(an2_form):
    f = an2_form
    assert even_check(ew(f, {"X": -1, "Z": -1}) + ew(f, {"Z": -1}), ["X", "Z"])
    assert not even_check(half(f, {"Z": 1}), ["Z"])
    assert even_check(half(f, {"S": 1}).mul(ew(f, {"Z": 1})), ["X", "Z"])


def test_zero_elements_evaluate_to_zero(an2_form):
    f = an2_form
    rep = ClockShiftRep(f, 5, seed=3)
    x = ew(f, {"X": 1}).mul(ew(f, {"S": 1})) - ew(f, {"X": 1, "S": 1}, Coefficient.q_power(1))
    assert x.is_zero()
    assert rep.norm(x) < 1e-9
    y = ew(f, {"X": 1}) - ew(f, {"S": 1})
    assert rep.norm(y) > 1e-6
