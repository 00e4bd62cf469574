"""Ore fractions over the quantum torus.

An OreElement is a finite sum of terms N * D1^-1 * D2^-1 * ... * Dm^-1
where N is a TorusElement and each Dk is a unidirectional denominator
with unit constant term,

    D = 1 + sum_k c_k W(k * step).

Denominators commute past monomials with a coefficient shift only:

    D * W(du) = W(du) * D'   with   c_k' = c_k * t**(-2 k (du . beta . step)),

so D^-1 W(du) = W(du) D'^-1 with the same shift.  The torus is a domain
and right multiplication by any D is injective, which makes the zero
test below sound and complete.
"""

from __future__ import annotations

from .torus import TorusElement

# Denominator-clearing steps ore_zero_test may take before it gives up.
CLEARING_BUDGET = 200


class QDenominator:
    """1 + c_1 W(step) + c_2 W(2*step) + ... + c_d W(d*step)."""

    __slots__ = ("form", "step", "coeffs", "_key")

    def __init__(self, form, step, coeffs):
        step = tuple(int(x) for x in step)
        if not any(step):
            raise ValueError("denominator direction must be nonzero")
        if len(step) != form.dim:
            raise ValueError("direction has wrong length")
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("denominator must have degree >= 1")
        self.form = form
        self.step = step
        self.coeffs = coeffs
        self._key = None

    def as_torus(self):
        el = TorusElement.one(self.form)
        for k, c in enumerate(self.coeffs, start=1):
            if c:
                du = tuple(k * s for s in self.step)
                el = el + TorusElement.monomial(self.form, du, c)
        return el

    def shifted(self, du):
        """The denominator D' with D * W(du) = W(du) * D'."""
        p = self.form.pairing(du, self.step)
        if p == 0:
            return self
        return QDenominator(
            self.form,
            self.step,
            tuple(c.times_t(-2 * k * p) for k, c in enumerate(self.coeffs, start=1)),
        )

    def star(self):
        """star(D): same direction, barred coefficients (star fixes W)."""
        return QDenominator(self.form, self.step, tuple(c.bar() for c in self.coeffs))

    def key(self):
        if self._key is None:
            self._key = (self.step, tuple(c.key() for c in self.coeffs))
        return self._key

    def __eq__(self, other):
        return isinstance(other, QDenominator) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"QDen(step={self.step}, coeffs={list(self.coeffs)!r})"


class OreElement:
    """Sum of right-fraction terms over one skew form."""

    __slots__ = ("form", "terms")

    def __init__(self, form, terms=()):
        self.form = form
        merged = {}
        for num, dens in terms:
            if num.is_zero():
                continue
            dens = tuple(dens)
            key = tuple(d.key() for d in dens)
            if key in merged:
                merged[key] = (merged[key][0] + num, dens)
            else:
                merged[key] = (num, dens)
        self.terms = tuple(
            (num, dens) for num, dens in merged.values() if not num.is_zero()
        )

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_torus(x):
        return OreElement(x.form, [(x, ())])

    @staticmethod
    def zero(form):
        return OreElement(form)

    @staticmethod
    def one(form):
        return OreElement.from_torus(TorusElement.one(form))

    @staticmethod
    def fraction(num, dens):
        return OreElement(num.form, [(num, tuple(dens))])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.form)
        return OreElement(self.form, list(self.terms) + list(other.terms))

    def __neg__(self):
        return OreElement(self.form, [(-num, dens) for num, dens in self.terms])

    def __sub__(self, other):
        return self + (-_coerce(other, self.form))

    def mul(self, other):
        other = _coerce(other, self.form)
        out = []
        for num1, dens1 in self.terms:
            for num2, dens2 in other.terms:
                if not dens1:
                    out.append((num1.mul(num2), dens2))
                    continue
                # push the denominator chain of the left term to the right,
                # splitting over the monomials of the right numerator
                for du, c in num2.terms.items():
                    mono = TorusElement.monomial(self.form, du, c)
                    shifted = tuple(d.shifted(du) for d in dens1)
                    out.append((num1.mul(mono), shifted + dens2))
        return OreElement(self.form, out)

    def __mul__(self, other):
        return self.mul(other)

    def star(self):
        """star(N D1^-1 ... Dm^-1) = star(Dm)^-1 ... star(D1)^-1 star(N),
        renormalized to right-fraction form."""
        out = []
        for num, dens in self.terms:
            snum = num.star()
            if not dens:
                out.append((snum, ()))
                continue
            sdens = tuple(d.star() for d in reversed(dens))
            for du, c in snum.terms.items():
                mono = TorusElement.monomial(self.form, du, c)
                out.append((mono, tuple(d.shifted(du) for d in sdens)))
        return OreElement(self.form, out)

    # -- zero test ---------------------------------------------------

    def polynomial_part(self):
        acc = TorusElement.zero(self.form)
        for num, dens in self.terms:
            if dens:
                raise ValueError("element still has denominators")
            acc = acc + num
        return acc

    def is_zero(self):
        return ore_zero_test(self)

    def __eq__(self, other):
        if isinstance(other, TorusElement):
            other = OreElement.from_torus(other)
        if not isinstance(other, OreElement):
            return NotImplemented
        return ore_zero_test(self - other)

    def __hash__(self):
        raise TypeError("OreElement is unhashable; compare via ore_zero_test")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for num, dens in self.terms:
            s = f"({num!r})"
            for d in dens:
                s += f"*({d!r})^-1"
            bits.append(s)
        return " + ".join(bits)


def _coerce(x, form):
    if isinstance(x, TorusElement):
        return OreElement.from_torus(x)
    if isinstance(x, OreElement):
        if x.form is not form and x.form != form:
            raise ValueError("mixed skew forms")
        return x
    raise TypeError(f"cannot coerce {type(x).__name__} into the Ore ring")


def ore_zero_test(x):
    """Exact zero test in the localized ring.

    Clears the rightmost denominator of a longest chain until no
    denominators are left.  Right multiplication by a nonzero element is
    injective, so zero-ness is invariant at every step.  Raises
    ArithmeticError after CLEARING_BUDGET steps with denominators left.
    """
    current = x
    steps = 0
    while True:
        target = None
        for num, dens in current.terms:
            if dens and (target is None or len(dens) > len(target[1])):
                target = (num, dens)
        if target is None:
            return current.polynomial_part().is_zero()
        if steps == CLEARING_BUDGET:
            raise ArithmeticError(
                f"denominator clearing did not terminate within its budget of "
                f"{CLEARING_BUDGET} steps; the longest denominator chain left has "
                f"length {len(target[1])} (mixed-direction chains beyond the "
                "supported class)"
            )
        steps += 1
        d = target[1][-1]
        d_poly = OreElement.from_torus(d.as_torus())
        out = []
        for num, dens in current.terms:
            if dens and dens[-1] == d:
                out.append((num, dens[:-1]))
            else:
                term = OreElement(current.form, [(num, dens)]).mul(d_poly)
                out.extend(term.terms)
        current = OreElement(current.form, out)
