"""Weyl-ordered quantum-torus arithmetic over a skew form.

Generators live on a doubled exponent lattice: the integer vector du
represents the Weyl-ordered exponential W(u) = :exp(u . Z):, with u =
du/2, so edge matrices carrying exp(+-Z/2) stay integral.  The product
rule is

    W(du) * W(dv) = t**(du . beta . dv) * W(du + dv),

which on true exponents reads exp(u.Z) exp(v.Z) = q**(u.beta.v)
exp((u+v).Z) since q = t**4.

Every exact product goes through one kernel, :func:`weyl_sum`, which
forms a sum of products x_1 y_1 + ... + x_k y_k at once: a single product
is its one-pair case and an entry of a matrix product its k-pair case.  It
accumulates the value at each (t-exponent, parameter monomial) of each
output exponent vector in one table, reading the term tables of the input
Coefficients directly, and builds each output Coefficient once, so no
intermediate Coefficient or TorusElement is made.  Its both-orders case,
:meth:`TorusElement.pair`, forms x y and y x in one pass over the monomial
pairs, and one finishing step builds the elements of both.  The pairing
row du.beta of a left monomial is memoised on its SkewForm, in a bounded memo.
"""

from __future__ import annotations

from operator import add as _add, mul as _mul

from .coeffs import ONE, Coefficient, _made, _norm, param_product

# the most pairing rows memoised per form; an exact-catalog pass, or a
# pass of all nine suites, fills at most 476 in one form
ROW_MEMO = 1024


class SkewForm:
    """Antisymmetric integer pairing on named generators."""

    __slots__ = ("names", "beta", "_index", "_rows")

    def __init__(self, names, beta):
        names = tuple(names)
        beta = tuple(tuple(int(x) for x in row) for row in beta)
        n = len(names)
        if len(set(names)) != n:
            raise ValueError("generator names must be distinct")
        if len(beta) != n or any(len(row) != n for row in beta):
            raise ValueError("beta must be square of matching dimension")
        for i in range(n):
            for j in range(n):
                if beta[i][j] != -beta[j][i]:
                    raise ValueError("beta must be antisymmetric")
                if not -2 <= beta[i][j] <= 2:
                    raise ValueError("beta entries must lie in -2..2")
        self.names = names
        self.beta = beta
        self._index = {name: i for i, name in enumerate(names)}
        self._rows = {}

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def pairing(self, du, dv):
        """du . beta . dv on the doubled lattice (always an integer): the
        memoised row of du dotted with dv."""
        return sum(map(_mul, self.row(tuple(du)), dv))

    def row(self, du):
        """The row du . beta, so that pairing(du, dv) is its dot product
        with dv; memoised for the first ROW_MEMO vectors asked for."""
        row = self._rows.get(du)
        if row is None:
            # du . beta, by antisymmetry minus beta . du
            row = tuple(-sum(map(_mul, b, du)) for b in self.beta)
            if len(self._rows) < ROW_MEMO:
                self._rows[du] = row
        return row

    def bracket(self, name_a, name_b):
        return self.beta[self.index(name_a)][self.index(name_b)]

    def du(self, exponents):
        """Doubled exponent vector from {name: true_exponent*2} entries.

        Values are the *doubled* exponents: du({'X': 2}) is exp(X),
        du({'X': 1}) is exp(X/2).
        """
        vec = [0] * self.dim
        for name, dexp in exponents.items():
            vec[self.index(name)] += int(dexp)
        return tuple(vec)

    def __eq__(self, other):
        return (
            isinstance(other, SkewForm)
            and self.names == other.names
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.names, self.beta))

    def __repr__(self):
        return f"SkewForm({self.names})"


def _require_form(form, x):
    if x.form is not form and x.form != form:
        raise ValueError("elements live over different skew forms")


class TorusElement:
    """Finite sum of Weyl monomials with Coefficient coefficients."""

    __slots__ = ("form", "terms")

    def __init__(self, form, terms=None):
        self.form = form
        clean = {}
        if terms:
            for du, c in terms.items():
                if c:
                    du = tuple(int(x) for x in du)
                    if len(du) != form.dim:
                        raise ValueError("exponent vector has wrong length")
                    prev = clean.get(du)
                    c = prev + c if prev is not None else c
                    if c:
                        clean[du] = c
                    elif du in clean:
                        del clean[du]
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(form):
        return TorusElement(form)

    @staticmethod
    def one(form):
        return TorusElement.monomial(form, (0,) * form.dim)

    @staticmethod
    def monomial(form, du, coeff=ONE):
        el = TorusElement(form)
        if coeff:
            el.terms[tuple(int(x) for x in du)] = coeff
        return el

    @staticmethod
    def scalar(form, coeff):
        return TorusElement.monomial(form, (0,) * form.dim, coeff)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        return self._merged(other, False)

    def __neg__(self):
        out = TorusElement(self.form)
        out.terms = {du: -c for du, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self._merged(other, True)

    def _merged(self, other, subtract):
        """self + other, or self - other, in one pass over the terms of
        other: no negated copy of other is made."""
        _require_form(self.form, other)
        out = TorusElement(self.form)
        terms = dict(self.terms)
        for du, c in other.terms.items():
            prev = terms.get(du)
            if prev is None:
                nc = -c if subtract else c
            else:
                nc = prev - c if subtract else prev + c
            if nc:
                terms[du] = nc
            elif du in terms:
                del terms[du]
        out.terms = terms
        return out

    def mul(self, other):
        """Bilinear extension of the Weyl product rule: the one-pair case
        of :func:`weyl_sum`."""
        return weyl_sum(self.form, ((self, other),))

    def __matmul__(self, other):
        return self.mul(other)

    def pair(self, other):
        """(self @ other, other @ self) from one pass of the kernel."""
        return tuple(_finished(self.form, acc) for acc in _accumulate(self.form, ((self, other),), True))

    def __rmul__(self, coeff):
        if not isinstance(coeff, Coefficient):
            return NotImplemented
        return self.scale(coeff)

    def scale(self, coeff):
        """coeff * self.  A coeff that is exactly t**k, as every q-power
        is, shifts the t-exponents of each coefficient in one pass; any
        other is multiplied into each coefficient."""
        out = TorusElement(self.form)
        if len(coeff._terms) == 1:
            ((k, params), val), = coeff._terms.items()
            if val == 1 and not params:
                out.terms = {du: c.times_t(k) for du, c in self.terms.items()}
                return out
        for du, c in self.terms.items():
            nc = c * coeff
            if nc:
                out.terms[du] = nc
        return out

    def star(self):
        """The *-involution: coefficientwise bar, monomials fixed.

        Weyl monomials are self-adjoint, so star(x*y) = star(y)*star(x)
        follows from the bar on the t-power in the product rule.
        """
        out = TorusElement(self.form)
        out.terms = {du: c.bar() for du, c in self.terms.items()}
        return out

    def at_t_one(self, form_commutative):
        """Classical specialization t -> 1, re-homed on a commutative
        (beta = 0) form with the same generator names."""
        return TorusElement(form_commutative, {du: c.at_t_one() for du, c in self.terms.items()})

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        _require_form(self.form, other)
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.form, tuple(sorted((du, c.key()) for du, c in self.terms.items()))))

    def key(self):
        return tuple(sorted((du, c.key()) for du, c in self.terms.items()))

    def monomials(self):
        """Iterate (du, coefficient) pairs in a canonical order."""
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.form.names
        bits = []
        for du, c in self.monomials():
            expo = []
            for name, d in zip(names, du):
                if d:
                    expo.append(name if d == 2 else f"{d}/2*{name}" if d % 2 else f"{d // 2}*{name}")
            mono = "e^{" + "+".join(expo).replace("+-", "-") + "}" if expo else "1"
            bits.append(f"({c!r})*{mono}")
        return " + ".join(bits)


def weyl_sum(form, pairs):
    """x_1 y_1 + ... + x_k y_k over the (x, y) pairs of torus elements of
    ``form``, by the Weyl product rule.  The coefficients accumulate in one
    table keyed by exponent vector, then by (t-exponent, parameter
    monomial); a monomial whose coefficient cancels is dropped, and an
    integral value is stored as an int.  Raises ValueError on an element of
    another form."""
    return _finished(form, *_accumulate(form, pairs, False))


def _accumulate(form, pairs, both):
    """The table of :func:`weyl_sum`, and with ``both`` that of y_1 x_1 + ...
    too: a monomial pair's product in reverse has the same exponent sum and
    coefficient product at the opposite t-shift, so each is formed once."""
    acc, rev = {}, {}
    get = acc.get
    row = form.row
    for x, y in pairs:
        if x.form is not form or y.form is not form:
            _require_form(form, x)
            _require_form(form, y)
        right = y.terms.items()
        for du, cu in x.terms.items():
            r = row(du)
            left = cu._terms.items()
            for dv, cv in right:
                dw = tuple(map(_add, du, dv))
                shift = sum(map(_mul, r, dv))
                c = get(dw) or acc.setdefault(dw, {})
                if both:
                    d = rev.get(dw) or rev.setdefault(dw, {})
                for (t1, p1), v1 in left:
                    for (t2, p2), v2 in cv._terms.items():
                        p, v = param_product(p1, p2) if p1 and p2 else p1 or p2, v1 * v2
                        k = (t1 + t2 + shift, p)
                        c[k] = c.get(k, 0) + v
                        if both:
                            k = (t1 + t2 - shift, p)
                            d[k] = d.get(k, 0) + v
    return (acc, rev) if both else (acc,)


def _finished(form, acc):
    """The element of a table: cancelled values dropped, the others normalised."""
    out = TorusElement(form)
    for dw, c in acc.items():
        for v in c.values():
            if not v or type(v) is not int:
                c = {k: _norm(v) for k, v in c.items() if v}
                break
        if c:
            out.terms[dw] = _made(c)
    return out


def even_check(x, affected):
    """True iff every monomial of x has an even doubled exponent (hence an
    integer true exponent) in every affected generator."""
    idx = [x.form.index(n) for n in affected]
    for du in x.terms:
        for i in idx:
            if du[i] % 2:
                return False
    return True


def commutative_shadow(form):
    """The beta = 0 form with the same generator names (q = 1 limit)."""
    n = form.dim
    return SkewForm(form.names, [[0] * n for _ in range(n)])


def ew(form, exponents, coeff=ONE):
    """Weyl exponential with integer true exponents: ew(f, {'X': -1, 'Z': -1})
    is exp(-X-Z)."""
    return TorusElement.monomial(form, form.du({n: 2 * e for n, e in exponents.items()}), coeff)


def half(form, exponents, coeff=ONE):
    """Weyl exponential with half-integer steps: half(f, {'Z': 1}) is
    exp(Z/2)."""
    return TorusElement.monomial(form, form.du(exponents), coeff)
