import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qshear.coeffs import Coefficient
from qshear.matrices import AlgMatrix
from qshear.oracle import ClockShiftRep
from qshear.torus import SkewForm, TorusElement, even_check, ew, half, weyl_sum

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


# -- the product kernel against a schoolbook reference -------------------------
#
# The reference works on plain dicts (exponent vector, t-power, parameter
# monomial) -> Fraction, one term pair at a time, with the pairing written
# out as a double sum; it shares no code with Coefficient or weyl_sum.


def _schoolbook(form, pairs):
    out = Counter()
    n = form.dim
    for x, y in pairs:
        for du, cu in x.terms.items():
            for dv, cv in y.terms.items():
                shift = sum(du[i] * form.beta[i][j] * dv[j] for i in range(n) for j in range(n))
                dw = tuple(a + b for a, b in zip(du, dv))
                for (t1, p1), v1 in cu.items():
                    for (t2, p2), v2 in cv.items():
                        powers = Counter(dict(p1))
                        powers.update(dict(p2))
                        out[dw, t1 + t2 + shift, tuple(sorted(powers.items()))] += Fraction(v1) * v2
    return {k: v for k, v in out.items() if v}


def _flat(x):
    """The raw terms of an element, checking the stored form on the way: no
    empty coefficient, every integral value an int."""
    out = {}
    for du, c in x.terms.items():
        assert c, f"a cancelled monomial {du} is stored"
        for (texp, params), v in c.items():
            assert v and (type(v) is int or v.denominator != 1), v
            out[du, texp, params] = v
    return out


_values = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool),
)
# two names on both factors, so that the kernel must merge the powers of a
# name that both factors carry
_params = st.lists(st.tuples(st.sampled_from(("a", "w")), st.integers(1, 2)), max_size=2)
_coefficients = st.dictionaries(
    st.tuples(st.integers(-6, 6), _params.map(tuple)), _values, max_size=3
).map(Coefficient)


@st.composite
def _kernel_forms(draw):
    n = draw(st.integers(3, 5))
    beta = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            beta[i][j] = draw(st.integers(-2, 2))
            beta[j][i] = -beta[i][j]
    return SkewForm(tuple(f"g{i}" for i in range(n)), beta)


def _elements(form, max_terms=3):
    exponents = st.one_of(
        st.just((0,) * form.dim),  # a scalar-only side
        st.tuples(*[st.integers(-2, 2)] * form.dim),
    )
    return st.dictionaries(exponents, _coefficients, max_size=max_terms).map(
        lambda terms: TorusElement(form, terms)
    )


@st.composite
def _kernel_cases(draw):
    """A form and one to three pairs; sometimes the last pair is (-x, y) of
    the first, so that the whole sum cancels exactly when it is alone."""
    form = draw(_kernel_forms())
    pairs = draw(st.lists(st.tuples(_elements(form), _elements(form)), min_size=1, max_size=3))
    if draw(st.booleans()):
        x, y = pairs[0]
        pairs.append((-x, y))
    return form, pairs


@settings(max_examples=100, deadline=None)
@given(_kernel_cases())
def test_kernel_matches_the_schoolbook_product(case):
    form, pairs = case
    want = _schoolbook(form, pairs)
    assert _flat(weyl_sum(form, pairs)) == want
    if len(pairs) == 1:
        (x, y), = pairs
        assert _flat(x.mul(y)) == want


@settings(max_examples=50, deadline=None)
@given(_kernel_forms(), st.integers(1, 3))
def test_kernel_cancels_a_sum_to_zero(form, seed):
    rng = random.Random(seed)
    du = tuple(rng.randint(-2, 2) for _ in range(form.dim))
    x = TorusElement(form, {du: Coefficient.parameter("a", 1, Fraction(1, 3))})
    y = TorusElement(
        form, {(0,) * form.dim: Coefficient.t_power(2, 3), (1,) * form.dim: Coefficient.parameter("w")}
    )
    out = weyl_sum(form, [(x, y), (-x, y), (x, -y), (-x, -y)])
    assert out.is_zero() and not out.terms


@st.composite
def _matrix_pairs(draw):
    """Two n x n matrices whose entries are drawn from a pool of elements,
    zero among them, so that an entry's pairs repeat and cancel too."""
    form = draw(_kernel_forms())
    n = draw(st.sampled_from((2, 4, 8)))
    pool = draw(st.lists(_elements(form), min_size=2, max_size=5))
    pool += [TorusElement.zero(form)] + [-x for x in pool]
    rng = draw(st.randoms(use_true_random=False))
    a, b = ([[rng.choice(pool) for _ in range(n)] for _ in range(n)] for _ in range(2))
    return AlgMatrix(form, a), AlgMatrix(form, b)


@settings(max_examples=40, deadline=None)
@given(_matrix_pairs())
def test_matrix_product_matches_the_schoolbook_entries(mats):
    a, b = mats
    prod = a.mul(b)
    for i in range(a.n):
        for j in range(a.n):
            pairs = [(a[i, k], b[k, j]) for k in range(a.n)]
            assert _flat(prod[i, j]) == _schoolbook(a.form, pairs), (i, j)


def test_kernel_rejects_mixed_forms():
    f = SkewForm(("X", "Y", "Z"), [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    g = SkewForm(("X", "Y", "Z"), [[0, 2, -1], [-2, 0, 1], [1, -1, 0]])
    x, y = ew(f, {"X": 1}), ew(g, {"Y": 1})
    for bad in (
        lambda: x.mul(y),
        lambda: y.mul(x),
        lambda: weyl_sum(f, [(x, x), (x, y)]),
        lambda: weyl_sum(f, [(y, y)]),
        lambda: AlgMatrix.identity(f).mul(AlgMatrix.identity(g)),
        lambda: x.pair(y),
        lambda: y.pair(x),
    ):
        with pytest.raises(ValueError, match="different skew forms"):
            bad()
    # an equal form held by another object is the same form
    f2 = SkewForm(f.names, f.beta)
    assert x.mul(ew(f2, {"Y": 1})) == ew(f, {"X": 1, "Y": 1}, Coefficient.q_power(1))


def _check_pairing():
    """pairing(du, dv) = sum du_i beta_ij dv_j on seeded forms and vectors,
    for tuple inputs and then for list inputs, which read the memoised row."""
    rng = random.Random(36)
    for n in (1, 2, 3, 5, 8):
        form = random_skew_form(rng, n)
        for _ in range(20):
            du, dv = ([rng.randint(-3, 3) for _ in range(n)] for _ in range(2))
            want = sum(du[i] * form.beta[i][j] * dv[j] for i in range(n) for j in range(n))
            assert form.pairing(tuple(du), tuple(dv)) == form.pairing(du, dv) == want


def test_pairing_is_the_double_sum_over_beta():
    _check_pairing()


def test_pairing_check_fails_a_pairing_that_reads_beta_transposed(monkeypatch):
    def transposed(self, du, dv):
        return sum(a * self.beta[j][i] * b for i, a in enumerate(du) for j, b in enumerate(dv))

    monkeypatch.setattr(SkewForm, "pairing", transposed)
    with pytest.raises(AssertionError):
        _check_pairing()


# -- both orders from one pass --------------------------------------------------

# beta with entries +-1 and +-2, so that the two orders differ by t-shifts of
# every size the forms of the catalog use
_PAIR_FORM = SkewForm(
    ("g0", "g1", "g2", "g3"),
    [[0, 1, -2, 2], [-1, 0, 1, -2], [2, -1, 0, 1], [-2, 2, -1, 0]],
)


def _seeded_element(rng, form):
    """Up to four monomials whose coefficients carry parameter monomials
    and non-integral Fractions, so that the two tables merge parameter
    powers and cancel and normalise values."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        du = tuple(rng.randint(-2, 2) for _ in range(form.dim))
        coeff = {}
        for _ in range(rng.randint(1, 3)):
            params = tuple(sorted({rng.choice("aw"): rng.randint(1, 2) for _ in range(rng.randint(0, 2))}.items()))
            coeff[rng.randint(-4, 4), params] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        terms[du] = Coefficient(coeff)
    return TorusElement(form, terms)


def test_pair_is_both_products():
    rng = random.Random(31)
    f = _PAIR_FORM
    for trial in range(300):
        x, y = _seeded_element(rng, f), _seeded_element(rng, f)
        if trial % 10 == 0:
            y = x  # both tables land on the same keys
        xy, yx = x.pair(y)
        assert _flat(xy) == _flat(x @ y), trial
        assert _flat(yx) == _flat(y @ x), trial
        assert xy.terms == (x @ y).terms and yx.terms == (y @ x).terms, trial
        assert xy.form is f and yx.form is f


def _check_scale(monkeypatch):
    """coeff * x is the term-by-term Coefficient.mul product and leaves x
    as it was, over seeded elements; t**k is applied by times_t, once per
    monomial, and every other coefficient is multiplied without it."""
    shifts = []
    times_t = Coefficient.times_t
    monkeypatch.setattr(Coefficient, "times_t", lambda c, k: shifts.append(k) or times_t(c, k))
    rng = random.Random(32)
    f = _PAIR_FORM
    w = Coefficient.parameter("w")
    for trial in range(100):
        x = _seeded_element(rng, f)
        k = rng.choice((-8, -1, 0, 8))
        tk = Coefficient.t_power(k)
        before = dict(x.terms)
        for coeff in (tk, Coefficient.t_power(k, 2), tk + Coefficient.one(), w * tk, Coefficient.zero()):
            shifts.clear()
            got = coeff * x
            want = {du: c.mul(coeff) for du, c in x.terms.items() if c.mul(coeff)}
            assert got.terms == want and _flat(got) == _flat(TorusElement(f, want)), (trial, coeff)
            assert x.terms == before, (trial, coeff)
            assert shifts == ([k] * len(x.terms) if coeff is tk else []), (trial, coeff)
        y = tk * x
        assert (y - tk * x).is_zero() and Coefficient.t_power(-k) * y == x, trial


def test_scale_by_a_t_power_shifts_and_by_any_other_coefficient_multiplies(monkeypatch):
    _check_scale(monkeypatch)


def test_scale_check_fails_a_rule_that_ignores_the_value(monkeypatch):
    """The fail direction: a rule that shifts by t**k for 2 t**k too."""
    scale = TorusElement.scale

    def ignores_value(x, coeff):
        if len(coeff.items()) == 1:
            ((k, params), _), = coeff.items()
            if not params:
                return scale(x, Coefficient.t_power(k))
        return scale(x, coeff)

    monkeypatch.setattr(TorusElement, "scale", ignores_value)
    with pytest.raises(AssertionError):
        _check_scale(monkeypatch)


def test_pair_of_two_monomials_differs_by_their_pairing():
    f = _PAIR_FORM
    x, y = ew(f, {"g0": 1}), ew(f, {"g1": 1, "g2": -1})
    xy, yx = x.pair(y)
    # g0 . beta . (g1 - g2) = 1 + 2 = 3 on true exponents: x y = q^3 W, y x = q^-3 W
    w = ew(f, {"g0": 1, "g1": 1, "g2": -1})
    assert (xy, yx) == (Coefficient.q_power(3) * w, Coefficient.q_power(-3) * w)
    zero = TorusElement.zero(f)
    assert x.pair(zero) == (zero, zero) and zero.pair(x) == (zero, zero)
