"""Weyl-ordered quantum torus arithmetic in five minutes.

Generators q-commute according to an antisymmetric integer form; the
canonical basis is Weyl exponentials W(u) = :exp(u.Z):, and products pick
up integer powers of t = q**(1/4).
"""

from qshear import Coefficient, SkewForm
from qshear.torus import ew, half

# two generators with bracket {X, S} = 1
form = SkewForm(("X", "S"), [[0, 1], [-1, 0]])

eX = ew(form, {"X": 1})
eS = ew(form, {"S": 1})

# exp(X) exp(S) = q exp(X + S): the product rule in action
prod = eX.mul(eS)
print("exp(X) exp(S)      =", prod)
print("matches q exp(X+S):", prod == ew(form, {"X": 1, "S": 1}, Coefficient.q_power(1)))

# swapping twice costs q^2
print("exp(X)exp(S) == q^2 exp(S)exp(X):", eX.mul(eS) == Coefficient.q_power(2) * eS.mul(eX))

# half-integer exponents live on the doubled lattice
e_half = half(form, {"X": 1})  # exp(X/2)
print("exp(X/2) exp(X/2)  =", e_half.mul(e_half))

# the star involution sends t -> 1/t and fixes Weyl monomials, so it is an
# antihomomorphism: star(xy) = star(y) star(x)
x = eX + half(form, {"S": 1}, Coefficient.t_power(3))
y = eS - ew(form, {"X": -1})
print("star antihomomorphism:", x.mul(y).star() == y.star().mul(x.star()))

# Ore fractions: denominators are unidirectional with unit constant term
from qshear import OreElement, QDenominator

den = QDenominator(form, form.du({"S": 2}), (Coefficient.q_power(-1),))
frac = OreElement.fraction(eX, (den,))  # exp(X) (1 + q^-1 exp(S))^-1
roundtrip = frac.mul(OreElement.from_torus(den.as_torus()))
print("fraction times its denominator:", roundtrip - OreElement.from_torus(eX))
print("...is zero:", (roundtrip - OreElement.from_torus(eX)).is_zero())
