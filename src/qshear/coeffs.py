"""Exact scalar coefficients: Laurent polynomials in the quarter-power
deformation variable t (q = t**4) whose coefficients are rational-number
polynomials in named central parameters (orbifold weights, commutant
entries).

All arithmetic is exact; no floating point enters the symbolic layer.  A
stored value is a nonzero int, or a Fraction when it is not integral:
the catalog lives in Z[params][t, t^-1], so machine integers carry almost
every product.
"""

from __future__ import annotations

from fractions import Fraction


def _norm(val):
    """An exact value as an int when it is integral, else as a Fraction."""
    if type(val) is int:
        return val
    val = Fraction(val)
    return val.numerator if val.denominator == 1 else val


def _param_key(params):
    """Normalize a parameter monomial to a sorted tuple of (name, power),
    summing the powers of a repeated name."""
    merged = {}
    for n, e in params:
        e = int(e)
        if e < 0:
            raise ValueError("parameter powers must be non-negative")
        if e:
            merged[n] = merged.get(n, 0) + e
    return tuple(sorted(merged.items()))


def param_product(p1, p2):
    """The product of two normalized parameter monomials, normalized."""
    merged = dict(p1)
    for n, e in p2:
        merged[n] = merged.get(n, 0) + e
    return tuple(sorted(merged.items()))


def _made(terms):
    """A Coefficient over an already clean term table: nonzero values,
    integral ones stored as int, normalized parameter monomials."""
    out = Coefficient.__new__(Coefficient)
    out._terms = terms
    out._key = None
    return out


class Coefficient:
    """Element of Q[params][t, t^-1].

    Terms map (t-exponent, parameter monomial) to a nonzero int, or
    Fraction when not integral; the zero element has no terms.  Instances
    are immutable and hashable, so they can key denominator tables.
    """

    __slots__ = ("_terms", "_key")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (texp, params), val in terms.items():
                val = _norm(val)
                if not val:
                    continue
                k = (int(texp), _param_key(params))
                newval = clean.get(k, 0) + val
                if newval:
                    clean[k] = _norm(newval)
                elif k in clean:
                    del clean[k]
        self._terms = clean
        self._key = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def rational(x):
        return Coefficient({(0, ()): x})

    @staticmethod
    def t_power(k, val=1):
        """val * t**k"""
        return Coefficient({(int(k), ()): val})

    @staticmethod
    def q_power(k, val=1):
        """val * q**k with q = t**4; k may be a Fraction with denominator
        dividing 4 (so q**(1/4) = t is representable)."""
        tk = Fraction(k) * 4
        if tk.denominator != 1:
            raise ValueError(f"q-power {k} is not an integer t-power")
        return Coefficient.t_power(tk.numerator, val)

    @staticmethod
    def parameter(name, power=1, val=1):
        return Coefficient({(0, ((name, power),)): val})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for k, v in other._terms.items():
            nv = terms.get(k, 0) + v
            if nv:
                terms[k] = nv if type(nv) is int else _norm(nv)
            elif k in terms:
                del terms[k]
        return _made(terms)

    def __neg__(self):
        return _made({k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        # one pass, like __add__: no negated copy of other is made
        if not other._terms:
            return self
        terms = dict(self._terms)
        for k, v in other._terms.items():
            nv = terms.get(k, 0) - v
            if nv:
                terms[k] = nv if type(nv) is int else _norm(nv)
            elif k in terms:
                del terms[k]
        return _made(terms)

    def mul(self, other):
        """self * other; torus products multiply their coefficients in
        ``torus.weyl_sum`` instead."""
        if not self._terms or not other._terms:
            return _ZERO
        acc = {}
        for (t1, p1), v1 in self._terms.items():
            for (t2, p2), v2 in other._terms.items():
                k = (t1 + t2, param_product(p1, p2) if p1 and p2 else p1 or p2)
                nv = acc.get(k, 0) + v1 * v2
                if nv:
                    acc[k] = nv if type(nv) is int else _norm(nv)
                elif k in acc:
                    del acc[k]
        return _made(acc)

    def __mul__(self, other):
        # a Coefficient times a torus element or matrix scales it
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.mul(other)

    def times_t(self, k):
        if not k or not self._terms:
            return self
        return _made({(t + k, p): v for (t, p), v in self._terms.items()})

    def bar(self):
        """The star involution on scalars: t -> t**-1, parameters and
        rationals fixed."""
        return _made({(-t, p): v for (t, p), v in self._terms.items()})

    def at_t_one(self):
        """Specialize t -> 1 (classical limit), keeping parameters."""
        acc = {}
        for (_, p), v in self._terms.items():
            k = (0, p)
            nv = acc.get(k, 0) + v
            if nv:
                acc[k] = nv if type(nv) is int else _norm(nv)
            elif k in acc:
                del acc[k]
        return _made(acc)

    # -- queries -------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def items(self):
        return self._terms.items()

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self._terms.items()))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self.key())

    def evaluate(self, t_value, param_values):
        """Numeric value with t = t_value and parameters from a name->value
        mapping.  Used only by the numeric oracle."""
        total = 0j
        for (texp, params), val in self._terms.items():
            x = complex(val) * t_value ** texp
            for name, e in params:
                x *= complex(param_values[name]) ** e
            total += x
        return total

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for (texp, params), val in sorted(self._terms.items()):
            s = str(val)
            if texp:
                s += f"*t^{texp}"
            for name, e in params:
                s += f"*{name}" + (f"^{e}" if e != 1 else "")
            bits.append(s)
        return " + ".join(bits)


_ZERO = Coefficient()
_ONE = Coefficient({(0, ()): 1})

ZERO = _ZERO
ONE = _ONE
