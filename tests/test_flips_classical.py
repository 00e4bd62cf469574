import math

import numpy as np
import pytest

from qshear import oracle
from qshear.coeffs import Coefficient
from qshear.fatgraph import FatGraph, PendingInfo, flip_roles, spine_graph_an
from qshear.flips import (
    CLASSICAL_FLIP_IDENTITIES,
    CLASSICAL_FLIP_WORDS,
    verify_flip_matrix_identity_classical,
)
from qshear.oracle import (
    ShearState,
    classical_flip,
    classical_pending_flip,
    decoration_change,
    flip_involution_deviation,
    numeric_identity_deviation,
    pending_flip_involution_deviation,
    pentagon_deviation,
    phi,
    phi_pending,
    random_state,
)
from qshear.torus import TorusElement

from conftest import bigon_graph


@pytest.mark.parametrize("ident", CLASSICAL_FLIP_IDENTITIES)
def test_exact_identities(ident):
    assert verify_flip_matrix_identity_classical(ident), ident


@pytest.mark.parametrize("ident", CLASSICAL_FLIP_IDENTITIES)
def test_numeric_identities(ident):
    dev = numeric_identity_deviation(ident, sample_count=300)
    assert dev < 1e-10, f"{ident}: deviation {dev}"


_exact_mul = TorusElement.mul


def _dropped_term(x, y):
    # the slip of a product that loses the last term of a sum on its right
    if len(y.terms) > 1:
        y = TorusElement(y.form, dict(list(y.terms.items())[:-1]))
    return _exact_mul(x, y)


@pytest.mark.parametrize("ident", CLASSICAL_FLIP_IDENTITIES)
def test_broken_exact_product_leaves_numeric_check_standing(monkeypatch, ident):
    monkeypatch.setattr(TorusElement, "mul", _dropped_term)
    assert not verify_flip_matrix_identity_classical(ident)
    assert numeric_identity_deviation(ident, sample_count=100) < 1e-10


@pytest.mark.parametrize("ident", CLASSICAL_FLIP_IDENTITIES)
def test_perturbed_float_tilde_shears_fail_numeric_check_only(monkeypatch, ident):
    moved = oracle._moved_shears
    monkeypatch.setattr(
        oracle, "_moved_shears", lambda *args: {k: v + 1e-3 for k, v in moved(*args).items()}
    )
    assert verify_flip_matrix_identity_classical(ident)
    assert numeric_identity_deviation(ident, sample_count=100) > 1e-6


def test_numeric_check_uses_no_exact_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the float layer must not touch the exact torus")

    monkeypatch.setattr(Coefficient, "evaluate", refuse)
    monkeypatch.setattr(TorusElement, "mul", refuse)
    for ident in CLASSICAL_FLIP_IDENTITIES:
        assert numeric_identity_deviation(ident, sample_count=100) < 1e-10, ident


# the ~ shears that carry a log T, as opposed to Z~ = -Z, P~ = -P, Y~ = Y + P
_T_DRESSED = ("A~", "B~", "C~", "D~")


def _word_mutants(word):
    """Each single-token slip of a right-hand word: one turn swapped L<->R,
    the sign of one commutant O flipped, one T-dressed ~ dropped."""
    tokens = word.split()
    swap = {"L": "R", "R": "L", "O": "-O", "-O": "O"}
    for k, tok in enumerate(tokens):
        if tok in swap:
            yield " ".join(tokens[:k] + [swap[tok]] + tokens[k + 1:])
        elif tok in _T_DRESSED:
            yield " ".join(tokens[:k] + [tok[:-1]] + tokens[k + 1:])


@pytest.mark.parametrize("ident", CLASSICAL_FLIP_IDENTITIES)
def test_word_mutants_fail_exact_check(monkeypatch, ident):
    lhs, rhs = CLASSICAL_FLIP_WORDS[ident]
    mutants = list(_word_mutants(rhs))
    assert mutants
    for mutant in mutants:
        monkeypatch.setitem(CLASSICAL_FLIP_WORDS, ident, (lhs, mutant))
        assert verify_flip_matrix_identity_classical(ident) is False, (ident, mutant)


def _state(graph, value=0.0):
    return ShearState(
        graph, {e: value for e in graph.edges}, {"omega0": 2 * math.cos(math.pi / 5)}
    )


def _phi_reference(z):
    if z > 0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def _phi_pending_reference(z, w):
    if z > 0:
        return 2 * z + math.log1p(w * math.exp(-z) + math.exp(-2 * z))
    return math.log1p(w * math.exp(z) + math.exp(2 * z))


_EXTREME_SHEARS = (800.0, -800.0, 30.0, -30.0, 1e-3, -1e-3, 0.0)


def test_phi_matches_scalar_reference_without_float_errors():
    zs = np.array(_EXTREME_SHEARS)
    with np.errstate(all="raise"):
        cases = [(phi, _phi_reference, ())]
        for w in (0.0, 1.0, 2 * math.cos(math.pi / 5)):
            cases.append((phi_pending, _phi_pending_reference, (w,)))
        for fn, reference, extra in cases:
            batch = fn(zs, *extra)
            for k, z in enumerate(_EXTREME_SHEARS):
                want = reference(z, *extra)
                assert fn(z, *extra) == pytest.approx(want, rel=1e-15, abs=0), (fn, z, extra)
                assert batch[k] == pytest.approx(want, rel=1e-15, abs=0), (fn, z, extra)


def _loop_graph():
    # neck edge Y into a vertex carrying the perimeter loop P
    return FatGraph(("Y", "P"), (("Y", "P", "P"),), {})


@pytest.mark.parametrize(
    "move, graph, where",
    [
        (classical_flip, spine_graph_an(4), "X2"),
        (classical_pending_flip, spine_graph_an(3), "S"),
        (decoration_change, _loop_graph(), ("Y", "P")),
    ],
    ids=["flip", "pending-flip", "decoration"],
)
def test_batched_move_matches_each_sample_and_keeps_its_input(move, graph, where):
    state = random_state(graph, 5, 16)
    before = {e: v.copy() for e, v in state.values.items()}
    out = move(state, where)
    for e, v in before.items():
        assert np.array_equal(state.values[e], v), e
    for k in range(16):
        values = {e: float(v[k]) for e, v in before.items()}
        one = move(ShearState(graph, values, state.params), where)
        for e in graph.edges:
            assert abs(out.values[e][k] - one.values[e]) <= 1e-15, (e, k)


@pytest.mark.parametrize(
    "family, move, graph, where",
    [
        ("inner", classical_flip, FatGraph("ZABCD", (("Z", "A", "B"), ("Z", "C", "D"))), "Z"),
        (
            "pending",
            classical_pending_flip,
            FatGraph("ZAB", (("Z", "A", "B"),), {"Z": PendingInfo.from_param("w")}),
            "Z",
        ),
        ("decoration", decoration_change, _loop_graph(), ("Y", "P")),
    ],
    ids=["inner", "pending", "decoration"],
)
def test_identity_tilde_shears_are_the_shipped_moves(family, move, graph, where):
    """On the local graph of each family, whose edges carry the names of
    the identity words, the ~ shears of the float identity check equal the
    moved shears of the shipped move exactly; this pins the name of each
    role A, B, C, D to its place in flip_roles."""
    state = random_state(graph, 7, 64)
    state.params["w"] = 1.3
    moved = move(state, where).values
    tilde = oracle._moved_shears(family, state.values, 1.3)
    assert sorted(tilde) == sorted(f"{e}~" for e in graph.edges)
    for e in graph.edges:
        assert np.array_equal(tilde[f"{e}~"], moved[e]), e


@pytest.mark.parametrize(
    "check, n, edges",
    [
        (flip_involution_deviation, 3, ("X1",)),
        (pending_flip_involution_deviation, 3, ("S",)),
        (pentagon_deviation, 4, ("X1", "X2")),
    ],
    ids=["involution", "pending-involution", "pentagon"],
)
def test_move_checks_build_as_many_graphs_at_any_sample_count(monkeypatch, check, n, edges):
    g = spine_graph_an(n)
    built = []
    init = FatGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FatGraph, "__init__", counted)
    counts = []
    for samples in (10, 1000):
        built.clear()
        assert check(g, *edges, samples=samples) < 1e-10
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


def test_flip_at_zero_shears():
    g = spine_graph_an(4)
    s = ShearState(g, {e: 0.0 for e in g.edges}, {"omega0": 0.0})
    out = classical_flip(s, "X2")
    roles = ("Z1", "X1", "Z3", "Z2")  # A, B, C, D around X2
    shifts = {"Z1": math.log(2), "X1": -math.log(2), "Z3": math.log(2), "Z2": -math.log(2)}
    for e in g.edges:
        want = shifts.get(e, 0.0)
        if e == "X2":
            want = 0.0
        assert abs(out.values[e] - want) < 1e-12, e


def test_coincident_roles_double_the_shift():
    # flipping Z sees the same edge e as both the A and C role, so it
    # shifts by 2 phi(Z)
    g = bigon_graph()
    assert flip_roles(g, "Z") == ("e", "a", "e", "b")
    zval = 0.7
    s = ShearState(g, {"Z": zval, "e": 0.0, "a": 0.0, "b": 0.0})
    out = classical_flip(s, "Z")
    assert abs(out.values["e"] - 2 * phi(zval)) < 1e-12


def test_pending_flip_shifts():
    g = spine_graph_an(3)
    s = ShearState(g, {e: 0.0 for e in g.edges}, {"omega0": 0.0})
    out = classical_pending_flip(s, "S")
    # weight 0 at shear 0: shift is log 2 on the positive role
    a, b = "Z3", "X1"
    assert abs(abs(out.values[a]) - math.log(2)) < 1e-12
    s1 = ShearState(g, {e: 0.0 for e in g.edges}, {"omega0": 1.0})
    out1 = classical_pending_flip(s1, "S")
    assert abs(abs(out1.values[a]) - math.log(3)) < 1e-12


def test_involutivity():
    g = spine_graph_an(3)
    assert flip_involution_deviation(g, "X1", samples=1000) < 1e-12
    assert pending_flip_involution_deviation(g, "S", samples=1000) < 1e-12


def test_pentagon():
    g = spine_graph_an(4)
    assert pentagon_deviation(g, "X1", "X2", samples=200) < 1e-10


def test_flip_rejects_pending_and_loops():
    g = spine_graph_an(3)
    s = _state(g)
    with pytest.raises(ValueError):
        classical_flip(s, "S")
    # loop edge: both ends at one vertex
    g2 = FatGraph(
        ("P", "Y", "c"),
        (("Y", "P", "P"), ("Y", "c", "c")),
        {},
    )
    s2 = ShearState(g2, {e: 0.3 for e in g2.edges})
    with pytest.raises(ValueError):
        classical_flip(s2, "P")


def test_decoration_change():
    g = _loop_graph()
    s = ShearState(g, {"Y": 1.25, "P": -0.75})
    out = decoration_change(s, ("Y", "P"))
    assert abs(out.values["Y"] - 0.5) < 1e-15
    assert abs(out.values["P"] - 0.75) < 1e-15
    # P = 0 is the identity map
    s0 = ShearState(g, {"Y": 1.25, "P": 0.0})
    out0 = decoration_change(s0, ("Y", "P"))
    assert out0.values == s0.values
    with pytest.raises(ValueError):
        decoration_change(s, ("P", "Y"))
    with pytest.raises(ValueError, match="cannot be its own neck"):
        decoration_change(s, ("P", "P"))


def test_run_flip_script():
    from qshear.oracle import run_flip_script

    g = spine_graph_an(3)
    s = ShearState(g, {e: 0.4 for e in g.edges}, {"omega0": 0.0})
    out = run_flip_script(s, ["# comment", "", "flip X1", "flip X1"])
    for e in g.edges:
        assert abs(out.values[e] - 0.4) < 1e-12
    out2 = run_flip_script(s, ["pflip S", "pflip S"])
    for e in g.edges:
        assert abs(out2.values[e] - 0.4) < 1e-12
    with pytest.raises(ValueError):
        run_flip_script(s, ["wobble X1"])
    with pytest.raises(ValueError):
        run_flip_script(s, ["flip S"])


def _a4_words(count):
    """The closed words of the A4 spine that flips-classical draws, at the
    default seed."""
    g = spine_graph_an(4)
    (words,) = oracle.random_closed_words(g, (count,), 20240229)
    return g, words


def test_sign_structure():
    from qshear.oracle import sign_structure_violation

    assert sign_structure_violation(*_a4_words(15), samples=50) < 1e-12


def _nan_on_second_word(monkeypatch):
    """Make ShearState.word_values return NaN for the second word it reads."""
    calls = []
    values = oracle.ShearState.word_values

    def patched(state, tokens):
        calls.append(tokens)
        out = values(state, tokens)
        return np.full_like(out, math.nan) if len(calls) == 2 else out

    monkeypatch.setattr(oracle.ShearState, "word_values", patched)


def test_sign_structure_keeps_a_nan_that_is_not_first(monkeypatch):
    _nan_on_second_word(monkeypatch)
    assert math.isnan(oracle.sign_structure_violation(*_a4_words(15), samples=50))


def test_closed_trace_minimum_keeps_a_nan_that_is_not_first(monkeypatch):
    _nan_on_second_word(monkeypatch)
    assert math.isnan(oracle.closed_trace_minimum(*_a4_words(25), samples=200))
