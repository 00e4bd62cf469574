import random

import pytest

from qshear import ore
from qshear.coeffs import Coefficient
from qshear.ore import OreElement, QDenominator, ore_zero_test
from qshear.torus import SkewForm, TorusElement, ew

from conftest import random_skew_form


@pytest.fixture
def form():
    return SkewForm(("A", "Z"), [[0, 1], [-1, 0]])


def _binomial_den(form, name="Z", sign=1, qpow=-1):
    step = form.du({name: 2 * sign})
    return QDenominator(form, step, (Coefficient.q_power(qpow),))


def test_commutation_roundtrip_exhaustive(form):
    """W(du) * D == D' * W(du) ... realized as D * W == W * shifted(D),
    checked over the full 5x5 doubled-exponent box."""
    dens = [
        _binomial_den(form, "Z", 1),
        _binomial_den(form, "Z", -1),
        QDenominator(
            form,
            form.du({"Z": 2}),
            (Coefficient.q_power(-1) * Coefficient.parameter("w"), Coefficient.q_power(-2)),
        ),
    ]
    for d in dens:
        dt = d.as_torus()
        for ua in range(-2, 3):
            for uz in range(-2, 3):
                du = form.du({"A": ua, "Z": uz})
                w = TorusElement.monomial(form, du)
                assert dt.mul(w) == w.mul(d.shifted(du).as_torus()), (d, du)


def test_fraction_times_unit(form):
    n = ew(form, {"A": 1})
    d = _binomial_den(form)
    x = OreElement.fraction(n, (d,))
    assert ore_zero_test(x.mul(OreElement.one(form)) - x)


def test_denominator_commutes_past_monomial(form):
    d = _binomial_den(form)
    w = ew(form, {"A": 1})
    lhs = OreElement.fraction(TorusElement.one(form), (d,)).mul(OreElement.from_torus(w))
    rhs = OreElement.fraction(w, (d.shifted(form.du({"A": 2})),))
    # validate by right-multiplying both forms by the matching denominators
    assert ore_zero_test(lhs - rhs)


def test_explicit_inverse_roundtrip(form):
    # ((1 + q^-1 e^Z) e^A) * (e^-A (1 + q^-1 e^Z)^-1) == 1
    binom = TorusElement.one(form) + ew(form, {"Z": 1}, Coefficient.q_power(-1))
    num = binom.mul(ew(form, {"A": 1}))
    inv = OreElement.fraction(ew(form, {"A": -1}), (_binomial_den(form),))
    prod = OreElement.from_torus(num).mul(inv)
    assert ore_zero_test(prod - OreElement.one(form))
    prod2 = inv.mul(OreElement.from_torus(num))
    assert ore_zero_test(prod2 - OreElement.one(form))


def test_x_minus_x_is_zero_random():
    rng = random.Random(5)
    for _ in range(30):
        form = random_skew_form(rng, 3)
        num = TorusElement.monomial(
            form, tuple(rng.randint(-2, 2) for _ in range(3)), Coefficient.t_power(rng.randint(-3, 3))
        )
        step = [0, 0, 0]
        step[rng.randrange(3)] = rng.choice([-2, 2])
        den = QDenominator(form, tuple(step), (Coefficient.q_power(-1),))
        x = OreElement.fraction(num, (den,))
        assert ore_zero_test(x - x)


def test_numerator_equal_denominator_reduces_to_unit(form):
    d = _binomial_den(form)
    x = OreElement.fraction(d.as_torus(), (d,))
    assert ore_zero_test(x - OreElement.one(form))
    assert not ore_zero_test(x)


def test_domain_property_witness():
    rng = random.Random(9)
    for _ in range(25):
        form = random_skew_form(rng, 3)
        du = tuple(rng.randint(-2, 2) for _ in range(3))
        num = TorusElement.monomial(form, du) + TorusElement.monomial(
            form, tuple(x + 2 for x in du), Coefficient.t_power(1)
        )
        step = [0, 0, 0]
        step[rng.randrange(3)] = 2
        den = QDenominator(form, tuple(step), (Coefficient.q_power(rng.choice([-1, 1])),))
        assert not ore_zero_test(OreElement.fraction(num, (den,)))


def test_star_of_fraction(form):
    d = _binomial_den(form)
    x = OreElement.fraction(ew(form, {"A": 1}), (d,))
    # star is an involution and respects products
    assert ore_zero_test(x.star().star() - x)
    y = OreElement.from_torus(ew(form, {"Z": 1}) + TorusElement.one(form))
    lhs = x.mul(y).star()
    rhs = y.star().mul(x.star())
    assert ore_zero_test(lhs - rhs)


def test_mixed_direction_fallback():
    form = SkewForm(("A", "B"), [[0, 1], [-1, 0]])
    da = QDenominator(form, form.du({"A": 2}), (Coefficient.q_power(-1),))
    db = QDenominator(form, form.du({"B": 2}), (Coefficient.q_power(1),))
    x = OreElement.fraction(ew(form, {"B": 1}), (da,)) + OreElement.fraction(
        ew(form, {"A": 1}), (db,)
    )
    assert not ore_zero_test(x)
    assert ore_zero_test(x - x)


def test_clearing_budget_names_itself_and_the_chain_left(form, monkeypatch):
    x = OreElement.fraction(
        ew(form, {"A": 1}), (_binomial_den(form), _binomial_den(form, "A", qpow=1))
    )
    assert ore_zero_test(x) is False  # two clearing steps within the default budget
    monkeypatch.setattr(ore, "CLEARING_BUDGET", 1)
    with pytest.raises(ArithmeticError) as err:
        ore_zero_test(x)
    message = str(err.value)
    assert "budget of 1 steps" in message
    assert "longest denominator chain left has length 1" in message
