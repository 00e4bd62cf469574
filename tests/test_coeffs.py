from fractions import Fraction

import pytest

from qshear.coeffs import Coefficient, ONE, ZERO


def test_basic_ring_ops():
    a = Coefficient.t_power(2) + Coefficient.parameter("w")
    b = Coefficient.t_power(-2)
    assert (a * b) == Coefficient.t_power(0) + Coefficient.parameter("w", val=1).times_t(-2)
    assert (a - a).is_zero()
    assert a + ZERO == a
    assert a * ONE == a


def test_q_powers_are_quarter_integral():
    assert Coefficient.q_power(1) == Coefficient.t_power(4)
    assert Coefficient.q_power(Fraction(1, 4)) == Coefficient.t_power(1)
    assert Coefficient.q_power(Fraction(-1, 2)) == Coefficient.t_power(-2)
    with pytest.raises(ValueError):
        Coefficient.q_power(Fraction(1, 3))


def test_bar_involution():
    c = Coefficient.t_power(3, 5) + Coefficient.parameter("w", 2, -7).times_t(-1)
    assert c.bar().bar() == c
    assert c.bar() == Coefficient.t_power(-3, 5) + Coefficient.parameter("w", 2, -7).times_t(1)


def test_parameters_commute_and_merge():
    w = Coefficient.parameter("w")
    a = Coefficient.parameter("a")
    assert w * a == a * w
    assert w * w == Coefficient.parameter("w", 2)
    assert (w - w).is_zero()


def test_repeated_parameter_names_merge():
    """A monomial naming a parameter twice is that parameter to the summed
    power, so a product written either way compares and cancels."""
    repeated = Coefficient({(0, (("a", 1), ("a", 1))): 1})
    assert repeated == Coefficient.parameter("a", 2)
    assert (repeated - Coefficient.parameter("a", 2)).is_zero()
    assert Coefficient({(1, (("w", 2), ("a", 1), ("w", 1))): 3}) == Coefficient.parameter(
        "a"
    ) * Coefficient.parameter("w", 3, 3).times_t(1)


def test_hashable_and_exact():
    c1 = Coefficient.rational(Fraction(1, 3)) * Coefficient.rational(3)
    # a whole product of Fractions is stored as a machine int
    assert [(k, type(v)) for k, v in c1.items()] == [((0, ()), int)]
    assert [type(v) for _, v in ONE.items()] == [int]
    half = Coefficient.rational(Fraction(1, 2))
    assert [type(v) for _, v in (half + half).items()] == [int]
    assert c1 == ONE
    assert hash(c1) == hash(ONE)
    d = {c1: "x"}
    assert d[ONE] == "x"


def test_evaluate():
    c = Coefficient.t_power(4) + Coefficient.parameter("w", val=2)
    val = c.evaluate(1j, {"w": 0.5})
    assert abs(val - (1 + 1.0)) < 1e-12


def test_at_t_one():
    c = Coefficient.t_power(4) - Coefficient.t_power(-4)
    assert c.at_t_one().is_zero()
