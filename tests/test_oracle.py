import hashlib
import json
import math
import random
import tracemalloc
from functools import partial
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from qshear.coeffs import Coefficient
from qshear.flips import CLASSICAL_FLIP_IDENTITIES
from qshear.fatgraph import FatGraph, PathWord, compile_path, flip_graph, pvi_graph, spine_graph_an
from qshear import oracle
from qshear.matrices import AlgMatrix, word_chain
from qshear.monodromy import an_realization, pvi_realization, relation_defects, relation_families
from qshear.oracle import (
    ClockShiftRep,
    _gap,
    boundary_trace_deviation,
    closed_trace_minimum,
    mutation_check,
    numeric_identity_deviation,
    numeric_pair_norms,
    numeric_realization,
    numeric_pvi_pairs,
    numeric_reflection_pairs,
    numeric_relation_pairs,
    oracle_check,
    relation_forms,
    boundary_word_tokens,
    float_edges,
    random_closed_words,
    random_state,
    rep_word_value,
    sign_structure_violation,
    skew_normal_form,
    word_values,
    worst_norm,
    default_param_values,
)
from qshear.ore import OreElement
from qshear.suites import RunConfig, _numeric_reports
from qshear.torus import SkewForm, TorusElement, ew

from conftest import random_skew_form, theta_graph

AN_CORE = ("entry", "cross")  # the families of the an-core oracle records


def test_skew_normal_form_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 7)
        f = random_skew_form(rng, n)
        u, v, pairings = skew_normal_form(f.beta)
        U = np.array(u)
        assert abs(round(np.linalg.det(U))) == 1
        assert (np.array(v).T @ U == np.eye(n, dtype=int)).all()
        D = U @ np.array(f.beta) @ U.T
        k = 2 * len(pairings)
        for i in range(n):
            for j in range(n):
                if i >= k or j >= k:
                    assert D[i][j] == 0
        for b, d in enumerate(pairings):
            assert D[2 * b][2 * b + 1] == d and d > 0


def test_rank_two_pair():
    f = SkewForm(("u", "v"), [[0, 1], [-1, 0]])
    rep = ClockShiftRep(f, 5)
    du, dv = (2, 0), (0, 2)
    lhs = rep.matrix(du) @ rep.matrix(dv)
    rhs = rep.t_value ** f.pairing(du, dv) * rep.matrix((2, 2))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_zero_form_commutes():
    f = SkewForm(("u", "v"), [[0, 0], [0, 0]])
    rep = ClockShiftRep(f, 5)
    a, b = rep.matrix((2, 0)), rep.matrix((0, 2))
    assert np.max(np.abs(a @ b - b @ a)) < 1e-14


def test_basis_relations_on_spine_form():
    f = spine_graph_an(3).skew_form()
    rep = ClockShiftRep(f, 7)
    rng = np.random.default_rng(2)
    for _ in range(30):
        du = tuple(int(x) for x in rng.integers(-2, 3, f.dim))
        dv = tuple(int(x) for x in rng.integers(-2, 3, f.dim))
        lhs = rep.matrix(du) @ rep.matrix(dv)
        rhs = rep.t_value ** f.pairing(du, dv) * rep.matrix(
            tuple(a + b for a, b in zip(du, dv))
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_evaluate_unit_is_identity():
    f = spine_graph_an(2).skew_form()
    rep = ClockShiftRep(f, 5)
    val = rep.evaluate(TorusElement.one(f))
    assert np.max(np.abs(val - np.eye(rep.dim))) < 1e-14


def test_sound_on_zero_and_nonzero():
    real = an_realization(2)
    f = real.form
    b1, c1, a1 = real.entry("b", 1), real.entry("c", 1), real.entry("a", 1)
    el = b1.mul(c1) - a1.mul(a1).scale(Coefficient.q_power(2)) - TorusElement.one(f)
    assert el.is_zero()
    worst, _ = oracle_check([("bc", el)], f, moduli=(5, 7))
    assert worst < 1e-9
    for rep in (ClockShiftRep(f, 5), ClockShiftRep(f, 7)):
        assert rep.norm(a1) > 1e-6


def test_numeric_relations_two_moduli():
    real = an_realization(3)
    params = {"omega0": 0.47}
    for modulus in (5, 7):
        rep = ClockShiftRep(real.form, modulus, seed=3)
        src = numeric_realization(rep, real, params)
        pairs = [*numeric_relation_pairs(src, AN_CORE), *numeric_reflection_pairs(src)]
        norms = [n for _, n in numeric_pair_norms(pairs)]
        assert all(n <= 1e-9 for n in norms), (modulus, worst_norm(norms))


def test_numeric_pvi_relations():
    real = pvi_realization()
    params = {"omega0": 0.31, "omega1": 0.83, "omega2": 1.21}
    for modulus in (5, 7):
        rep = ClockShiftRep(real.form, modulus, seed=3)
        src = numeric_realization(rep, real, params)
        norms = [n for _, n in numeric_pair_norms(numeric_relation_pairs(src, ("pvi",)))]
        assert all(n <= 1e-9 for n in norms), (modulus, worst_norm(norms))


def test_mutations_all_caught():
    real = an_realization(3)
    params = {"omega0": 0.47}
    rep = ClockShiftRep(real.form, 5, seed=3)
    pairs = numeric_relation_pairs(numeric_realization(rep, real, params), AN_CORE)
    caught = mutation_check(pairs, rep.t_value, 5)
    assert len(caught) == 50 and all(caught)


def test_reflection_mutations_all_caught():
    """Mutations of the reflection pairs alone, whose sides act on 4 dim
    vectors and are kept as 2x2 bilinear forms on the probe pair."""
    real = an_realization(3)
    params = {"omega0": 0.47}
    rep = ClockShiftRep(real.form, 5, seed=3)
    pairs = numeric_reflection_pairs(numeric_realization(rep, real, params))
    assert rep.probe(4).shape == (4, rep.dim, 2)
    assert all(lhs.shape == rhs.shape == (2, 2) for _, lhs, rhs in pairs)
    caught = mutation_check(pairs, rep.t_value, 5)
    assert len(caught) == 50 and all(caught)


def _refuse_symbolic_product(*args, **kwargs):
    raise AssertionError("the oracle must not use the symbolic product")


# every family an oracle record re-checks, on a chain and on the sphere
SHARED_FAMILIES = [
    (lambda: an_realization(3), {"omega0": 0.47}, ("entry", "cross", "nelson-regge", "reflection")),
    (pvi_realization, {"omega0": 0.31, "omega1": 0.83, "omega2": 1.21}, ("pvi", "reflection")),
]


def test_linear_op_pair_is_both_products():
    """``pair`` gives the two ``@`` products term for term in insertion
    order, so the oracle's forms and floats are those of two products."""
    rng = random.Random(5)
    leaves = [("entry", i, r, s) for i in (1, 2) for r in (0, 1) for s in (0, 1)]
    for _ in range(20):
        x, y = (
            oracle.LinearOp({
                tuple(rng.sample(leaves, rng.randint(0, 2))): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                for _ in range(rng.randint(1, 4))
            })
            for _ in range(2)
        )
        xy, yx = x.pair(y)
        assert list(xy.terms.items()) == list((x @ y).terms.items())
        assert list(yx.terms.items()) == list((y @ x).terms.items())
        assert xy.legs == yx.legs == x.legs


@pytest.mark.parametrize("make_real, params, families", SHARED_FAMILIES, ids=["an3", "pvi"])
def test_oracle_uses_generator_images_only(monkeypatch, make_real, params, families):
    """With every symbolic product disabled, the numeric realization and
    the pairs of every shared family still run and still pass."""
    real = make_real()
    for cls in (TorusElement, OreElement, AlgMatrix):
        monkeypatch.setattr(cls, "mul", _refuse_symbolic_product)
    monkeypatch.setattr(TorusElement, "pair", _refuse_symbolic_product)
    rep = ClockShiftRep(real.form, 5, seed=3)
    pairs = numeric_relation_pairs(numeric_realization(rep, real, params), families)
    norms = [n for _, n in numeric_pair_norms(pairs)]
    assert all(n <= 1e-9 for n in norms), worst_norm(norms)


@pytest.mark.parametrize("make_real, params, families", SHARED_FAMILIES, ids=["an3", "pvi"])
def test_catalog_mutants_fail_in_both_rings(make_real, params, families):
    """Each shared relation with a q factor on one side, or with that side's
    sign flipped, has a nonzero exact defect and a numeric gap above 1e-6
    at N=5.  The oracle re-checks the exact families relation by relation:
    only the star relations, the hermitian family, have no operator form."""
    real = make_real()
    rep = ClockShiftRep(real.form, 5, seed=3)
    src = numeric_realization(rep, real, params)
    families += ("hermitian",)
    numeric = {label: (lhs, rhs) for label, lhs, rhs in relation_families(src, families)}
    exact = list(relation_families(real, families))
    assert [label for label, _, _ in exact if label not in numeric] == [
        label for label, _, _ in relation_families(real, ("hermitian",))
    ]
    checked = 0
    for label, lhs, rhs in exact:
        if label not in numeric:
            continue
        nlhs, nrhs = numeric[label]
        for mutate in (lambda s, x: s.q(1) * x, lambda s, x: -x):
            defects = relation_defects([(label, mutate(real, lhs), rhs)])
            assert any(not d.is_zero() for _, d in defects), label
            ((_, flhs, frhs),) = relation_forms(src, [(label, mutate(src, nlhs), nrhs)])
            assert _gap(flhs, frhs) > 1e-6, label
        checked += 1
    assert checked == len(numeric)


@pytest.mark.parametrize(
    "make_real, families, relations, reflections, digest",
    [
        (lambda: an_realization(3), AN_CORE, 54, 6, "c6fe70dbe68c06f2d935c8c6709708de4e2d3e561ad577f596a85fb9f8b36231"),
        (lambda: an_realization(4), AN_CORE, 96, 10, "565cec85820fd3d91448a6eb60eb729f423d271bcb0a8a35eb1d77c10024d7fa"),
        (pvi_realization, ("pvi",), 40, 1, "7f239da7a58f983ed6bfb5f8c53884ca90674f236efcc64221346e2d59c5688e"),
    ],
    ids=["an3", "an4", "pvi"],
)
def test_pair_counts_and_label_order(make_real, families, relations, reflections, digest):
    """Both pair builders yield the same pairs in the same order at N=5; the
    digest is the sha256 of all labels joined by newlines."""
    real = make_real()
    params = {"omega0": 0.47, "omega1": 0.83, "omega2": 1.21}
    rep = ClockShiftRep(real.form, 5, seed=20240229)
    src = numeric_realization(rep, real, params)
    rel = [label for label, _, _ in numeric_relation_pairs(src, families)]
    ref = [label for label, _, _ in numeric_reflection_pairs(src)]
    assert (len(rel), len(ref)) == (relations, reflections)
    if families == ("pvi",):
        assert [label for label, _, _ in numeric_pvi_pairs(src)] == rel
    assert hashlib.sha256("\n".join(rel + ref).encode()).hexdigest() == digest


def test_numeric_reports_hold_one_pair_at_a_time():
    """At an4, N=5 (dim 125) the traced peak of the oracle stays below the
    size of 100 dense sides."""
    real = an_realization(4)
    tracemalloc.start()
    try:
        (report,) = _numeric_reports("an4", "anchor", real, RunConfig(oracle_moduli=(5,)), AN_CORE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status and report.extras["pairs"] == 96
    assert peak < 100 * 16 * 125 ** 2, peak


def test_numeric_reports_at_modulus_13_stay_below_one_dense_side():
    """At an4, N=13 (dim 2197) the matrix-free oracle passes all 96 pairs
    while its traced peak stays below the size of one dense side."""
    real = an_realization(4)
    tracemalloc.start()
    try:
        (report,) = _numeric_reports("an4", "anchor", real, RunConfig(oracle_moduli=(13,)), AN_CORE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status and report.extras["pairs"] == 96
    assert report.extras["max_norm"] < 1e-9
    assert peak < 16 * 2197 ** 2, peak


# -- dense reference: 2x2 block products over dense generator images ---------


def _bmat_mul(x, y):
    n = len(x)
    zero = np.zeros(x[0][0].shape, dtype=complex)
    return [[sum((x[i][k] @ y[k][j] for k in range(n)), zero) for j in range(n)] for i in range(n)]


def _dense_word_value(rep, graph, path, params):
    eye = np.eye(rep.dim, dtype=complex)
    zero = np.zeros((rep.dim, rep.dim), dtype=complex)

    def edge_block(name):
        up = rep.matrix(rep.form.du({name: 1}))
        dn = rep.matrix(rep.form.du({name: -1}))
        return [[zero, -up], [dn, zero]]

    mat = [[eye, zero], [zero, eye]]
    for step in path.steps:
        if step[0] == "turn":
            factor = [[zero, eye], [-eye, -eye]] if step[1] == "L" else [[eye, eye], [-eye, zero]]
        elif step[0] == "edge":
            factor = edge_block(step[1])
        else:
            _, name, k = step
            w = graph.pending[name].weight.evaluate(rep.t_value, params)
            acc = [[eye, zero], [zero, eye]]
            for _ in range(k):
                acc = _bmat_mul(acc, [[zero, eye], [-eye, -w * eye]])
            if k % 2 == 0:
                acc = [[-b for b in row] for row in acc]
            factor = _bmat_mul(_bmat_mul(edge_block(name), acc), edge_block(name))
        mat = _bmat_mul(mat, factor)
    return np.array(mat)


def _dense_r(rep, power, transposed=False):
    """R at q**power as a (4, 4, dim, dim) block array: diagonal
    (q^p, 1, 1, q^p) plus (q^p - q^-p) at [1, 2], or [2, 1] transposed."""
    qq = rep.t_value ** (4 * power)
    eye = np.eye(rep.dim, dtype=complex)
    out = np.zeros((4, 4, rep.dim, rep.dim), dtype=complex)
    for k, val in ((0, qq), (3, qq), (1, 1.0), (2, 1.0)):
        out[k, k] = val * eye
    out[(2, 1) if transposed else (1, 2)] = (qq - 1 / qq) * eye
    return out


def _dense_embed(m, slot):
    """A 2x2 block matrix ``m`` on leg ``slot`` of the 2x2 tensor, as a
    (4, 4, dim, dim) block array."""
    out = np.zeros((4, 4, *m[0][0].shape), dtype=complex)
    for i, j, k in np.ndindex(2, 2, 2):
        if slot == 1:
            out[2 * i + k, 2 * j + k] = m[i][j]
        else:
            out[2 * k + i, 2 * k + j] = m[i][j]
    return out


def _flat(blocks):
    """An (n, n, dim, dim) block array as one (n dim, n dim) matrix."""
    blocks = np.asarray(blocks)
    return blocks.transpose(0, 2, 1, 3).reshape(blocks.shape[0] * blocks.shape[2], -1)


def _dense_reflection_sides(rep, mats, weights):
    def product(*factors):
        acc = factors[0]
        for f in factors[1:]:
            acc = _bmat_mul(acc, f)
        return _flat(acc)

    rpos, rneg, rt = _dense_r(rep, -1), _dense_r(rep, 1), _dense_r(rep, -2)
    out = []
    for i, j in combinations(range(len(mats)), 2):
        mi, mj = _dense_embed(mats[i], 1), _dense_embed(mats[j], 2)
        out.append((product(rpos, mi, rneg, mj), product(mj, rpos, mi, rneg)))
    for i, m in enumerate(mats):
        if abs(weights[i]) <= 1e-14:
            mi1, mi2 = _dense_embed(m, 1), _dense_embed(m, 2)
            out.append((product(rt.swapaxes(0, 1), mi2, mi1), product(mi1, mi2, rt)))
    return out


def _dense_side(rep, mats, op):
    """A leaf polynomial as the dense matrix on its legs: each monomial the
    product of its leaves' dense matrices, built from the dense words."""

    def leaf(kind, i, *rest):
        if kind == "entry":
            return mats[i - 1][rest[0]][rest[1]]
        if kind == "word":
            return _flat(mats[i - 1])
        if kind == "embed":
            return _flat(_dense_embed(mats[i - 1], rest[0]))
        return _flat(_dense_r(rep, i, rest[0]))  # an R-matrix leaf: i is its power

    size = op.legs * rep.dim
    out = np.zeros((size, size), dtype=complex)
    for mono, coeff in op.terms.items():
        acc = np.eye(size, dtype=complex)
        for factor in mono:
            acc = acc @ leaf(*factor)
        out += coeff * acc
    return out


def _identity_probe(rep):
    return lambda copies: np.eye(copies * rep.dim).reshape(copies, rep.dim, copies * rep.dim)


@pytest.mark.parametrize(
    "make_real, params, families",
    [
        (lambda: an_realization(3), {"omega0": 0.47}, AN_CORE),
        (pvi_realization, {"omega0": 0.31, "omega1": 0.83, "omega2": 1.21}, ("pvi",)),
    ],
    ids=["an3", "pvi"],
)
def test_matrix_free_sides_match_dense_reference(monkeypatch, make_real, params, families):
    """Probed with the identity block, every relation and reflection side
    is the dense operator on its legs; it must match its leaf polynomial
    over dense block products of dense generator images to 1e-12, and the
    reflection sides must match the dense reflection equations.  The
    identity probe of each legs has its own width, so each legs is one
    call of ``relation_forms``."""
    real = make_real()
    rep = ClockShiftRep(real.form, 5, seed=3)
    monkeypatch.setattr(rep, "probe", _identity_probe(rep))
    src = numeric_realization(rep, real, params)
    mats = [_dense_word_value(rep, real.graph, word, params) for word in real.words]
    relations = list(relation_families(src, families))
    checked = 0
    for legs in (1, 2):
        group = [rel for rel in relations if rel[1].legs == legs]
        free = relation_forms(src, group)
        labels = [label.format("**") if legs > 1 else label for label, _, _ in group]
        assert [label for label, _, _ in free] == labels
        for (label, lhs, rhs), (_, lop, rop) in zip(free, group):
            assert lhs.shape == rhs.shape and lhs.shape[0] in (rep.dim, 2 * rep.dim)
            dl, dr = _dense_side(rep, mats, lop), _dense_side(rep, mats, rop)
            assert np.max(np.abs(lhs - dl)) < 1e-12 and np.max(np.abs(rhs - dr)) < 1e-12, label
            checked += 1
    assert checked == len(relations)
    reflections = numeric_reflection_pairs(src)
    expected = _dense_reflection_sides(rep, mats, [src.omegas[i] for i in range(1, src.n + 1)])
    assert len(reflections) == len(expected)
    reflection_ops = list(relation_families(src, ("reflection",)))
    for (label, lhs, rhs), (dl, dr), (_, lop, rop) in zip(reflections, expected, reflection_ops):
        assert np.max(np.abs(lhs - dl)) < 1e-12 and np.max(np.abs(rhs - dr)) < 1e-12, label
        assert np.max(np.abs(_dense_side(rep, mats, lop) - dl)) < 1e-12, label
        assert np.max(np.abs(_dense_side(rep, mats, rop) - dr)) < 1e-12, label


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rep_word_value_matches_dense_windings(k):
    """Words winding k times about each point of the four-point sphere act
    on the identity block as the dense block product does."""
    real = pvi_realization()
    params = {"omega0": 0.31, "omega1": 0.83, "omega2": 1.21}
    rep = ClockShiftRep(real.form, 5, seed=3)
    dim = rep.dim
    for word in real.words:
        word = PathWord([(s[0], s[1], k) if s[0] == "orb" else s for s in word.steps])
        dense = _dense_word_value(rep, real.graph, word, params)
        free = rep_word_value(rep, real.graph, word, params)(np.eye(2 * dim, dtype=complex).reshape(2, dim, 2 * dim))
        want = dense.transpose(0, 2, 1, 3).reshape(2, dim, 2 * dim)
        assert np.max(np.abs(free - want)) < 1e-12, word


def _unfolded_word_value(rep, graph, path, params, block):
    """A reference for :func:`rep_word_value` on a (2, dim, m) block: the
    word's factors right to left as the constructors display them, each
    edge as a phase multiply after a roll of the index grid, with its upper
    component negated after that multiply.  A weight is read by name from
    the graph's pending table, as the oracle reads it."""
    grid = (rep.modulus,) * rep.nblocks

    def image(name, power):
        mono = rep.image(rep.form.du({name: power}))

        def apply(x):
            rolled = np.roll(x.reshape(grid + x.shape[1:]), mono.shift, axis=tuple(range(len(grid))))
            return mono.phase[:, None] * rolled.reshape(x.shape)

        return apply

    def edge(name):
        up, dn = image(name, 1), image(name, -1)
        return lambda x0, x1: (-up(x1), dn(x0))

    turns = {"R": lambda x0, x1: (x0 + x1, -x0), "L": lambda x0, x1: (x1, -x0 - x1)}
    factors = []  # in the order they act
    for step in reversed(path.steps):
        if step[0] == "turn":
            factors.append(turns[step[1]])
        elif step[0] == "edge":
            factors.append(edge(step[1]))
        else:  # the winding X_e (-1)**(k+1) F_w**k X_e
            _, name, k = step
            w = graph.pending[name].weight.evaluate(rep.t_value, params)
            winding = [lambda x0, x1, w=w: (x1, -x0 - w * x1)] * k
            sign = [] if k % 2 else [lambda x0, x1: (-x0, -x1)]
            factors += [edge(name), *winding, *sign, edge(name)]
    x0, x1 = block
    for factor in factors:
        x0, x1 = factor(x0, x1)
    return np.stack((x0, x1))


def _assert_same_but_zero_signs(got, want, word):
    """``got`` equals ``want`` bit for bit, except that a real or imaginary
    part that is zero may carry the other sign."""
    assert got.dtype == want.dtype == complex
    same_bits = got.view(np.uint64) == want.view(np.uint64)
    assert np.all(same_bits | (got.view(float) == 0)), word
    assert np.array_equal(got, want), word


@pytest.mark.parametrize("make_real", [partial(an_realization, 4), pvi_realization], ids=["an4", "pvi"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_rep_word_value_equals_the_unfolded_factors(make_real, k):
    """Folding each edge's sign into a negated phase changes no bit but the
    sign of a zero: on a random complex block and on the complex identity
    block, every word with k windings equals the unfolded reference, and
    each real or imaginary part that differs in its bits is a zero."""
    real = make_real()
    params = {"omega0": 0.47, "omega1": 0.83, "omega2": 1.21}
    rep = ClockShiftRep(real.form, 5, seed=3)
    dim = rep.dim
    rng = np.random.default_rng(k)
    blocks = [
        rng.standard_normal((2, dim, 3)) + 1j * rng.standard_normal((2, dim, 3)),
        np.eye(2 * dim, dtype=complex).reshape(2, dim, 2 * dim),
    ]
    for word in real.words:
        word = PathWord([(s[0], s[1], k) if s[0] == "orb" else s for s in word.steps])
        op = rep_word_value(rep, real.graph, word, params)
        for block in blocks:
            want = _unfolded_word_value(rep, real.graph, word, params, block)
            _assert_same_but_zero_signs(op(block), want, word)


def _seeded_words(graph, count, seed):
    """Seeded words of 1 to 6 traversals with a turn L or R between each
    two, as a written word alternates them: a traversal is any edge or a
    winding of 1 to 5 about S or Z1; no word need be a path."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        word = []
        for k in range(rng.randint(1, 6)):
            if k:
                word.append(("turn", rng.choice("LR")))
            if rng.randint(0, 1):
                word.append(("edge", rng.choice(graph.edges)))
            else:
                word.append(("orb", rng.choice(("S", "Z1")), rng.randint(1, 5)))
        words.append(word)
    return words


@pytest.mark.parametrize("modulus", [3, 5])
def test_compiled_pass_of_seeded_words_equals_the_unfolded_factors(modulus):
    """Seeded words through the compiled pass of :func:`rep_word_value`
    equal the unfolded reference bit for bit, except the sign of a zero, on
    a random complex block and on the complex identity block, and never
    write into their input.  The words take both turns, every edge and
    windings of 1 to 5, and begin and end with edges and windings, so
    every routing and sign of the pass is met."""
    real = an_realization(3)
    graph = real.graph
    params = {"omega0": 0.47}
    rep = ClockShiftRep(real.form, modulus, seed=3)
    dim = rep.dim
    rng = np.random.default_rng(modulus)
    blocks = [
        rng.standard_normal((2, dim, 3)) + 1j * rng.standard_normal((2, dim, 3)),
        np.eye(2 * dim, dtype=complex).reshape(2, dim, 2 * dim),
    ]
    words = _seeded_words(graph, 25, 29)
    for end in (0, -1):
        assert {word[end][0] for word in words} == {"orb", "edge"}
    steps = [step for word in words for step in word]
    assert {s[1] for s in steps if s[0] == "turn"} == {"L", "R"}
    assert {s[1] for s in steps if s[0] == "edge"} == set(graph.edges)
    assert {s[1:] for s in steps if s[0] == "orb"} == {(e, k) for e in ("S", "Z1") for k in range(1, 6)}
    for word in words:
        op = rep_word_value(rep, graph, SimpleNamespace(steps=word), params)
        for block in blocks:
            kept = block.copy()
            want = _unfolded_word_value(rep, graph, SimpleNamespace(steps=word), params, block)
            _assert_same_but_zero_signs(op(block), want, word)
            assert np.array_equal(block.view(np.uint8), kept.view(np.uint8)), word


@pytest.mark.parametrize(
    "steps",
    [[("turn", "L"), ("edge", "X1")], [("edge", "X1"), ("turn", "R")], [("turn", "R")], []],
    ids=["ends-with-a-turn", "begins-with-a-turn", "only-a-turn", "empty"],
)
def test_a_chain_that_does_not_begin_and_end_with_an_edge_is_refused(steps):
    """A word's chain runs right to left, so a word that ends with a turn
    gives a chain that begins with one, and the other way round."""
    real = an_realization(3)
    rep = ClockShiftRep(real.form, 3, seed=3)
    with pytest.raises(ValueError, match="begin and end with an edge"):
        rep_word_value(rep, real.graph, SimpleNamespace(steps=steps), {"omega0": 0.47})


def test_a_commutant_mix_is_refused():
    """The commutant a + c F_w sums both rows, each of two weighted terms;
    no word of the catalog has one, and the pass refuses it."""
    real = an_realization(3)
    rep = ClockShiftRep(real.form, 3, seed=3)
    weights = {"S": 0.47, "a": 0.61, "c": -1.3}
    chain = word_chain([("edge", "X1"), ("omega", "S", 1), ("edge", "X1")], weights.__getitem__)
    assert [kind for kind, _ in chain] == ["edge", "mix", "edge"]
    with pytest.raises(ValueError, match="cannot compile the mix"):
        oracle._WordPass(rep, chain)


def test_oracle_catches_a_broken_generator_image(monkeypatch):
    """One edge image carrying a stray factor t breaks the realization;
    the relation oracle must see it, not only its own mutants."""
    real = an_realization(3)
    params = {"omega0": 0.47}
    broken = real.form.du({"X1": 1})
    image = ClockShiftRep.image

    def tampered(self, du):
        out = image(self, du)
        return out._replace(phase=self.t_value * out.phase) if tuple(du) == broken else out

    monkeypatch.setattr(ClockShiftRep, "image", tampered)
    rep = ClockShiftRep(real.form, 5, seed=3)
    norms = numeric_pair_norms(numeric_relation_pairs(numeric_realization(rep, real, params), AN_CORE))
    assert max(n for _, n in norms) > 1e-6


def test_oracle_fails_on_a_nan_gap(monkeypatch):
    """NaN compares false with every bound: generator images with NaN
    phases must make the numeric realization raise, and a NaN norm must
    fail its record."""
    real = an_realization(3)
    config = RunConfig(oracle_moduli=(5,))
    image = ClockShiftRep.image

    def poisoned(self, du):
        out = image(self, du)
        return out._replace(phase=np.nan * out.phase)

    monkeypatch.setattr(ClockShiftRep, "image", poisoned)
    with pytest.raises(ValueError, match="misses the normal shape"):
        _numeric_reports("an3", "anchor", real, config, AN_CORE)
    monkeypatch.undo()
    monkeypatch.setattr("qshear.oracle.numeric_pair_norms", lambda pairs: [("entry", math.nan)])
    (report,) = _numeric_reports("an3", "anchor", real, config, AN_CORE)
    assert report.status is False


def test_oracle_record_reports_a_nan_norm_that_is_not_first(monkeypatch):
    """The builtin max() skips a NaN that does not come first, so a failing
    record could show a small finite max_norm; the record's max_norm is NaN."""
    norms = [("a", 1e-13), ("b", math.nan)]
    monkeypatch.setattr("qshear.oracle.numeric_pair_norms", lambda pairs: norms)
    config = RunConfig(oracle_moduli=(5,))
    (report,) = _numeric_reports("an3", "anchor", an_realization(3), config, AN_CORE)
    assert report.status is False
    assert report.witness == "norms above 1e-9: ['b']"
    assert math.isnan(report.extras["max_norm"])


def test_oracle_check_keeps_a_nan_norm(monkeypatch):
    """A NaN norm at the second modulus makes both the element's norm and
    the worst norm NaN, so a bound such as worst < 1e-9 fails."""
    def norm(self, element, params=None):
        return math.nan if self.modulus == 7 else 1e-13

    monkeypatch.setattr(ClockShiftRep, "norm", norm)
    real = an_realization(2)
    worst, results = oracle_check([("a1", real.entry("a", 1))], real.form, moduli=(5, 7))
    assert math.isnan(worst) and math.isnan(results[0][1])
    assert worst_norm([]) == 0.0 and worst_norm([1e-13, 2e-13]) == 2e-13


def test_numeric_realization_rejects_a_word_off_the_normal_shape():
    """A weight that does not match the word breaks M[00] = q a + w on the
    probe pair; the numeric realization raises, so the suite records an
    error instead of re-checking entries of the wrong shape."""
    real = an_realization(3)
    real.omegas[2] = Coefficient.rational(1)
    rep = ClockShiftRep(real.form, 5, seed=3)
    with pytest.raises(ValueError, match="word 2 misses the normal shape"):
        numeric_realization(rep, real, {"omega0": 0.47})


# -- one pass per word and depth, and the adjoint words -------------------------

SUITE_PARAMS = {"omega0": 0.47, "omega1": 0.83, "omega2": 1.21}  # as suites._ORACLE_PARAMS


@pytest.fixture
def passes(monkeypatch):
    """The word passes made from here on, each as (adjoint, block shape):
    a pass compiled by ``adjoint()`` counts as adjoint."""
    made = []
    call, adjoint = oracle._WordPass.__call__, oracle._WordPass.adjoint

    def counted(self, block):
        made.append((getattr(self, "is_adjoint", False), block.shape))
        return call(self, block)

    def tagged(self):
        out = adjoint(self)
        out.is_adjoint = True
        return out

    monkeypatch.setattr(oracle._WordPass, "__call__", counted)
    monkeypatch.setattr(oracle._WordPass, "adjoint", tagged)
    return made


@pytest.mark.parametrize(
    "make_real, modulus",
    [
        (lambda: an_realization(3), 5),
        (lambda: an_realization(3), 7),
        (lambda: an_realization(4), 5),
        (lambda: an_realization(4), 7),
        (pvi_realization, 5),
    ],
    ids=["an3-N5", "an3-N7", "an4-N5", "an4-N7", "pvi-N5"],
)
def test_column_pass_gives_the_same_floats(make_real, modulus):
    """Entries read off one wide pass are bit for bit the one-column
    route's values: x in unit column s of a zero block, one pass of the
    word (or of its adjoint, for the adjoint's entry (r, s), which is the
    adjoint word's (s, r)), component r read off.  On the probe and on a
    random (dim, 3) block, at depth 1 and at depth 2, where one pass holds
    the inputs of many parents side by side; a, b and c are -q, -1 and 1
    times their entries."""
    real = make_real()
    rep = ClockShiftRep(real.form, modulus, seed=20240229)
    src = numeric_realization(rep, real, SUITE_PARAMS)
    q = rep.t_value ** 4
    for idx in range(1, src.n + 1):
        assert src.entry("a", idx).terms == {(("entry", idx, 1, 1),): -q}
        assert src.entry("b", idx).terms == {(("entry", idx, 0, 1),): -1}
        assert src.entry("c", idx).terms == {(("entry", idx, 1, 0),): 1}
    words = [rep_word_value(rep, real.graph, word, SUITE_PARAMS) for word in real.words]
    leaves = [("entry", i, r, s) for i in range(1, src.n + 1) for r in (0, 1) for s in (0, 1)]
    paths = [(1, (first, then)) for first in leaves for then in leaves[::3]]
    rng = np.random.default_rng(11)
    blocks = [rep.probe(1)[0], rng.standard_normal((rep.dim, 3)) + 1j * rng.standard_normal((rep.dim, 3))]
    for x in blocks:
        for adjoint in (False, True):
            got = {}
            oracle._push(src, paths, adjoint, {1: x[None]}, got.update)
            assert len(got) == 1 + len(leaves) + len(paths)
            for (_, path), value in got.items():
                want = x
                for _, i, r, s in path:
                    word = words[i - 1].adjoint() if adjoint else words[i - 1]
                    r, s = (s, r) if adjoint else (r, s)
                    block = np.zeros((2, *want.shape), dtype=complex)
                    block[s] = want
                    want = word(block)[r]
                assert np.array_equal(value, want[None]), (adjoint, path)


def test_word_passes_of_the_an4_core_records(passes):
    """The an4 an-core oracle record at N=7 (dim 343) makes one pass per
    word and depth, 20 in all: 4 forward passes for the normal shapes,
    then for each of the entry and cross families 4 adjoint passes for the
    left halves and 4 forward passes for the right halves, each over the
    probe alone: the one-leg probe as 4 columns, and in the entry family
    the two-leg probe of M**2 = -E beside it as 4 more.  One pass per
    application of a, b, c and M[00], with a memo of passes, made 61."""
    real = an_realization(4)
    (report,) = _numeric_reports("an4-core", "anchor", real, RunConfig(oracle_moduli=(7,)), AN_CORE)
    assert report.status and report.extras["pairs"] == 96
    made = [(adjoint, shape[-1]) for adjoint, shape in passes]
    entry, cross = [(True, 8)] * 4 + [(False, 8)] * 4, [(True, 4)] * 4 + [(False, 4)] * 4
    assert made == [(False, 4)] * 4 + entry + cross
    assert {shape[:2] for _, shape in passes} == {(2, 343)}


@pytest.mark.parametrize("modulus", [3, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_adjoint_pass_is_the_adjoint_of_its_word(modulus, k):
    """<u, A w> = <A^H u, w> to 1e-12 on random blocks, for every word of
    an3, an4 and the four-point sphere and for seeded words over every step
    kind, each winding k times; the point weights are complex, so that a
    winding's weight the adjoint does not conjugate shows."""
    params = {"omega0": 0.47 + 0.29j, "omega1": 0.83 - 0.41j, "omega2": 1.21 + 0.37j}
    cases = []
    for real in (an_realization(3), an_realization(4), pvi_realization()):
        cases += [(real, word.steps) for word in real.words]
    real = an_realization(3)
    cases += [(real, word) for word in _seeded_words(real.graph, 25, 29)]
    rng = np.random.default_rng(k)
    checked = 0
    for real, steps in cases:
        rep = ClockShiftRep(real.form, modulus, seed=3)
        steps = [(s[0], s[1], k) if s[0] == "orb" else s for s in steps]
        word = rep_word_value(rep, real.graph, SimpleNamespace(steps=steps), params)
        shape = (2, rep.dim, 3)
        u, w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "uw")
        aw, ahu = word(w), word.adjoint()(u)
        scale = np.linalg.norm(u) * np.linalg.norm(aw) + np.linalg.norm(ahu) * np.linalg.norm(w)
        assert abs(np.vdot(u, aw) - np.vdot(ahu, w)) <= 1e-12 * scale, steps
        checked += 1
    assert checked == len(cases) == 34


def test_adjoint_without_conjugate_phases_fails_the_an3_records(monkeypatch):
    """A mutant adjoint whose edge gathers keep their phases unconjugated
    still passes the normal shapes, which read no adjoint, but every
    family with a product breaks: the an3 gaps reach above 1e-6."""
    gather = ClockShiftRep.edge_gather

    def unconjugated(self, name, place, sign, adjoint=False):
        index, phase = gather(self, name, place, sign, adjoint)
        return index, phase.conj() if adjoint else phase

    monkeypatch.setattr(ClockShiftRep, "edge_gather", unconjugated)
    real = an_realization(3)
    rep = ClockShiftRep(real.form, 5, seed=20240229)
    src = numeric_realization(rep, real, SUITE_PARAMS)
    for family in ("entry", "cross", "nelson-regge", "reflection"):
        norms = [n for _, n in numeric_pair_norms(numeric_relation_pairs(src, (family,)))]
        assert max(norms) > 1e-6, family


def test_an6_oracle_set_stays_within_its_memory_bound():
    """The entry, cross and Nelson-Regge families of an6 at N=5 (dim 3125),
    one family at a time as a run reads them: all 356 pairs hold to 1e-9
    while the traced peak stays within 24 MiB; the Nelson-Regge family
    alone has 64 left and 255 right halves of 100 KB each."""
    real = an_realization(6)
    tracemalloc.start()
    try:
        src = numeric_realization(ClockShiftRep(real.form, 5, seed=1), real, SUITE_PARAMS)
        norms = [
            n for family in ("entry", "cross", "nelson-regge")
            for _, n in numeric_pair_norms(numeric_relation_pairs(src, (family,)))
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert src.rep.dim == 3125 and len(norms) == 356
    assert max(norms) < 1e-9 and not any(math.isnan(n) for n in norms), max(norms)
    assert peak <= 24 * 2**20, peak


def test_seeded_reproducibility():
    real = an_realization(2)
    params = default_param_values([], 99)
    def snapshot():
        rep = ClockShiftRep(real.form, 5, seed=99)
        values = {"omega0": 0.5, **params}
        pairs = numeric_relation_pairs(numeric_realization(rep, real, values), AN_CORE)
        return json.dumps(numeric_pair_norms(pairs), sort_keys=True)
    assert snapshot() == snapshot()


def test_parameters_of_a_denominator_get_values():
    """A parameter that occurs only in a denominator gets a value, drawn
    in sorted name order with those of numerators and torus elements."""
    from qshear.ore import QDenominator

    form = SkewForm(("a", "b"), [[0, 1], [-1, 0]])
    den = QDenominator(form, (2, 0), (Coefficient.parameter("w5"),))
    only_den = OreElement(form, [(TorusElement.one(form), (den,))])
    torus = TorusElement.scalar(form, Coefficient.parameter("omega0"))
    rng = np.random.default_rng(7)
    want = {nm: 0.25 + 1.5 * rng.random() for nm in ("omega0", "w5")}
    assert default_param_values([only_den, torus], 7) == want
    assert default_param_values([only_den], 7).keys() == {"w5"}


def test_boundary_trace():
    assert boundary_trace_deviation(spine_graph_an(3), samples=100) < 1e-10


def _scalar_word_value(tokens, values, weights, k):
    """Sample k of a token word, multiplied out factor by factor from float
    constructor matrices, as a reference."""

    def at(v):
        return v[k] if np.ndim(v) else v

    def x(e):
        v = at(values[e])
        return np.array([[0.0, -math.exp(v / 2)], [math.exp(-v / 2), 0.0]])

    def f(w):
        return np.array([[0.0, 1.0], [-1.0, -at(weights[w])]])

    turns = {"L": np.array([[0.0, 1.0], [-1.0, -1.0]]), "R": np.array([[1.0, 1.0], [-1.0, 0.0]])}
    mat = np.eye(2)
    for step in tokens:
        if step[0] == "turn":
            mat = mat @ turns[step[1]]
        elif step[0] == "edge":
            mat = mat @ x(step[1])
        elif step[0] == "F":
            mat = mat @ f(step[1])
        elif step[0] == "omega":
            mat = mat @ (step[2] * (at(weights["a"]) * np.eye(2) + at(weights["c"]) * f(step[1])))
        else:
            winding = (-1) ** (step[2] + 1) * np.linalg.matrix_power(f(step[1]), step[2])
            mat = mat @ x(step[1]) @ winding @ x(step[1])
    return mat


@pytest.mark.parametrize("n", [3, 4])
def test_batched_word_values_match_scalar_products(n):
    g = spine_graph_an(n)
    (words,) = random_closed_words(g, (8,), seed=3)
    words.append([t for step in boundary_word_tokens(g) for t in (("turn", "L"), step)])
    state = random_state(g, 11, 7)
    weights = {e: state.weight_value(e) for e in g.pending}
    for tokens in words:
        got = word_values(tokens, float_edges(state.values), weights)
        assert got.shape == (7, 2, 2)
        for k in range(7):
            want = _scalar_word_value(tokens, state.values, weights, k)
            assert np.allclose(got[k], want, rtol=1e-12, atol=1e-12), tokens


def test_word_values_match_constructor_products_on_random_words():
    """Every step kind, windings up to F**3 and commutants of both signs
    included, against per-sample products of float constructor matrices,
    within 1e-12 of the largest entry."""
    rng = np.random.default_rng(5)
    steps = [("turn", "L"), ("turn", "R"), ("edge", "X"), ("edge", "Y"), ("F", "w"),
             ("omega", "w", 1), ("omega", "w", -1)] + [("orb", "Y", k) for k in (1, 2, 3)]
    values = {n: rng.uniform(-2, 2, 6) for n in ("X", "Y")}
    weights = {n: rng.uniform(-2, 2, 6) for n in ("Y", "w", "a", "c")}
    for _ in range(50):
        tokens = [steps[i] for i in rng.integers(len(steps), size=rng.integers(1, 9))]
        want = np.array([_scalar_word_value(tokens, values, weights, k) for k in range(6)])
        # a word of turns alone has no sample axis and broadcasts over it
        got = np.broadcast_to(word_values(tokens, float_edges(values), weights), want.shape)
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want))), tokens


def test_closed_traces_at_least_two():
    g = spine_graph_an(4)
    (words,) = random_closed_words(g, (10,), seed=3)
    assert words
    (drawn,) = random_closed_words(g, (10,), seed=20240229)
    assert closed_trace_minimum(g, drawn, samples=100) >= 2.0 - 1e-9


def test_closed_words_on_the_flipped_theta_are_paths():
    """Every closed word on (A, B, B), (A, C, C), reversed to written order
    and closed with its first edge, compiles.  A walk whose state was the
    edge it arrived along emitted C R A L B L B R A R: after crossing the
    loop B it turned L onto B again, where the left turn leads to A."""
    g, _ = flip_graph(theta_graph(), "A")
    form = g.skew_form()
    for seed in range(5):
        (words,) = random_closed_words(g, (20,), seed)
        assert words
        for tokens in words:
            compile_path(g, PathWord(tokens[:1] + tokens[::-1]), form)
    old = [("turn", x) if x in "LR" else ("edge", x) for x in "CRALBLBRARC"]
    with pytest.raises(ValueError, match="inconsistent with the ribbon structure"):
        compile_path(g, PathWord(old[::-1]), form)


@pytest.mark.parametrize(
    "graph",
    [FatGraph(("X", "A", "B", "C", "D"), (("X", "A", "B"), ("X", "C", "D"))), pvi_graph()],
    ids=["stubs", "no-internal-edge"],
)
def test_closed_checks_refuse_a_graph_without_closed_words(graph):
    """Every walk on (X, A, B), (X, C, D) ends at a stub, and the four-point
    sphere graph has no internal edge: there is no closed word, and both
    closed-word checks raise rather than pass over zero words."""
    assert random_closed_words(graph, (5,), seed=0) == [[]]
    for check in (closed_trace_minimum, sign_structure_violation):
        with pytest.raises(ValueError, match="no closed words found"):
            check(graph, [])


def _one_draw(graph, count, seed):
    """A draw of ``count`` closed words on its own: the walk of
    :func:`random_closed_words`, stopped at ``count`` words or after
    ``count * 400`` walks."""
    rng = np.random.default_rng(seed)
    internal = [e for e in graph.edges if graph.is_internal(e)]
    words = []
    attempts = 0
    while internal and len(words) < count and attempts < count * 400:
        attempts += 1
        e0 = internal[int(rng.integers(len(internal)))]
        start = graph.incidence(e0)[0 if rng.integers(2) else 1]
        tokens, slot = [("edge", e0)], start
        for _ in range(12):
            turn = "L" if rng.integers(2) else "R"
            out = graph.turn(slot, turn)
            edge, slot = graph.edge_at(out), graph.across(out)
            if slot == out and not graph.is_pending(edge):
                break
            tokens += [("turn", turn), ("orb", edge, 1) if slot == out else ("edge", edge)]
            if slot == start:
                break
        if slot == start and len(tokens) > 3:
            words.append(tokens[:-1])
    return words


# six vertices with two loops and four spectator stubs: about one walk in a
# thousand closes, so draws of 15 and of 25 words both stop at their caps
_RARE_CLOSED = FatGraph(
    ("e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"),
    (("e1", "e9", "e9"), ("e6", "e10", "e8"), ("e3", "e8", "e3"),
     ("e1", "e4", "e0"), ("e5", "e0", "e7"), ("e5", "e6", "e2")),
)


@pytest.mark.parametrize(
    "graph, seeds",
    [(spine_graph_an(4), range(32)), (_RARE_CLOSED, range(2))],
    ids=["a4", "capped"],
)
def test_one_draw_gives_each_count_its_own_draw(graph, seeds):
    """The closed words that flips-classical draws once for both closed-word
    checks are, at every seed, those of separate draws of 25 and of 15,
    also where the ``count * 400`` walk cap stops a draw short."""
    for seed in seeds:
        traced, signed = random_closed_words(graph, (25, 15), seed)
        assert traced == _one_draw(graph, 25, seed), seed
        assert signed == _one_draw(graph, 15, seed), seed
        if graph is _RARE_CLOSED:
            assert len(signed) < min(15, len(traced)), seed


def test_each_edge_factor_is_formed_once_per_shear_state(monkeypatch):
    """One closed-trace check on the A4 spine reads all its words from one
    state's edge table, which forms each edge's factor once; the two sides
    of a classical identity share one table too."""
    filled = []
    missing = oracle.EdgeMaps.__missing__

    def recording(table, name):
        filled.append((table, name))
        return missing(table, name)

    monkeypatch.setattr(oracle.EdgeMaps, "__missing__", recording)
    g = spine_graph_an(4)
    (words,) = random_closed_words(g, (25,), 20240229)
    assert closed_trace_minimum(g, words) >= 2.0 - 1e-9
    tables = {id(table) for table, _ in filled}
    names = [name for _, name in filled]
    assert len(tables) == 1
    assert len(names) == len(set(names)) and set(names) <= set(g.edges)
    for ident in CLASSICAL_FLIP_IDENTITIES:
        filled.clear()
        assert numeric_identity_deviation(ident, 10) < 1e-10
        names = [name for _, name in filled]
        assert len({id(table) for table, _ in filled}) == 1, ident
        assert len(names) == len(set(names)), ident


def test_rejects_even_modulus():
    f = spine_graph_an(2).skew_form()
    with pytest.raises(ValueError):
        ClockShiftRep(f, 6)
