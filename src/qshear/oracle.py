"""Independent numeric cross-checks: the float layer of qshear, and the
only module that imports numpy.  The suites import it inside the runners
that use it, so the exact core starts without numpy.

Two layers:

* finite-dimensional clock-and-shift representations of the quantum torus
  at a root of unity, built from an integer skew normal form of beta and
  sampled at two moduli to suppress lattice-mod-N aliasing.  Every
  generator image is monomial, a cyclic shift of the (N, ..., N) index grid
  times a phase vector, so the re-verification of the catalog is
  matrix-free: monodromy words act on blocks of vectors in O(dim) per
  factor.  :func:`rep_word_value` compiles each word's factor chain from
  ``matrices.word_chain``, which begins and ends with an edge, once per
  representation: on the stacked block of both components an edge is one
  gather and one in-place phase multiply, with every exact sign and
  component swap folded into them, and the one sum of a turn or winding
  factor is one in-place operation; its adjoint runs the chain reversed.
  :func:`numeric_realization` turns a realization's own words into a
  :class:`NumericSource`, the one numeric entry source of the
  ``monodromy`` catalog families, in polynomials of the words.  Each
  identity L = R is compared as the form u^H L w against u^H R w on a
  seeded pair of unit-modulus probe vectors (Freivalds 1977), each
  monomial split at its middle: its halves go through tries, one pass per
  word and depth, and meet in Gram blocks (:func:`relation_forms`).  The
  dense ``evaluate``/``norm`` path, built from the same images, stays as
  the small-dimension reference for torus and Ore elements;

* the commutative q = 1 limit with random real shears: the classical
  moves (:func:`classical_flip`, :func:`classical_pending_flip`,
  :func:`decoration_change` and :func:`run_flip_script` over a
  :class:`ShearState`) act on whole sample arrays, both flips through one
  shift over signed roles that also gives the identity check its ~ shears,
  and :func:`word_values` applies the same word evaluator to float 2x2
  token words at every sample at once, reading each edge factor from a
  table formed once per shear state (:func:`float_edges`), to check the
  classical flip identities from their words in ``flips`` (never the
  exact ring's products), closed-geodesic trace positivity, the
  hole-boundary trace and the block sign pattern; the involution and
  pentagon checks move every sample at once.
"""

from __future__ import annotations

import cmath
import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .fatgraph import ROLE_SIGNS, flip_graph, pending_flip_graph
from .flips import classical_identity_words
from .matrices import EdgeMaps, word_action, word_chain
from .monodromy import relation_families
from .ore import OreElement
from .torus import TorusElement


# ---------------------------------------------------------------------------
# integer skew normal form
# ---------------------------------------------------------------------------


def skew_normal_form(beta):
    """U with U beta U^T block-diagonal: hyperbolic blocks [[0,d],[-d,0]]
    followed by zeros.  Returns (U, V, pairings) with V = U^-T, tracked
    through the same row operations, and pairings the list of d's.
    """
    n = len(beta)
    m = [list(row) for row in beta]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]

    def swap(i, j):
        if i == j:
            return
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        u[i], u[j] = u[j], u[i]
        v[i], v[j] = v[j], v[i]

    def add_row(i, j, t):
        # row i += t * row j, and the congruent column operation; on the
        # inverse transpose that is row j -= t * row i
        m[i] = [a + t * b for a, b in zip(m[i], m[j])]
        for row in m:
            row[i] += t * row[j]
        u[i] = [a + t * b for a, b in zip(u[i], u[j])]
        v[j] = [b - t * a for a, b in zip(v[i], v[j])]

    pairings = []
    k = 0
    while k + 1 < n:
        entries = [
            (abs(m[i][j]), i, j)
            for i in range(k, n)
            for j in range(k, n)
            if m[i][j]
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap(k, pi)
        if pj == k:
            pj = pi
        swap(k + 1, pj)
        if m[k][k + 1] < 0:
            swap(k, k + 1)
        while True:
            d = m[k][k + 1]
            dirty = False
            for r in range(n):
                if r in (k, k + 1) or not m[r][k + 1]:
                    continue
                t = m[r][k + 1] // d
                if t:
                    add_row(r, k, -t)
                if m[r][k + 1]:
                    # remainder smaller than the pivot: promote it
                    swap(k, r)
                    if m[k][k + 1] < 0:
                        swap(k, k + 1)
                    dirty = True
                    break
            if dirty:
                continue
            for r in range(n):
                if r in (k, k + 1) or not m[r][k]:
                    continue
                t = m[r][k] // m[k + 1][k]
                if t:
                    add_row(r, k + 1, -t)
                if m[r][k]:
                    swap(k + 1, r)
                    dirty = True
                    break
            if not dirty:
                break
        pairings.append(m[k][k + 1])
        k += 2
    return u, v, pairings


class Monomial(NamedTuple):
    """A generator image in a clock-and-shift representation: a cyclic
    shift of the (N, ..., N) index grid followed by a phase multiply, so
    that ``image @ v`` is ``phase * roll(v, shift)``."""

    shift: tuple
    phase: np.ndarray


def root_of_unity(modulus):
    """t = exp(i pi / N), the value of t in the representations at N."""
    return cmath.exp(1j * math.pi / modulus)


class ClockShiftRep:
    """Finite-dimensional model of a quantum torus at t = exp(i pi / N)."""

    def __init__(self, form, modulus, seed=0):
        if modulus < 3 or modulus % 2 == 0:
            raise ValueError("modulus must be an odd integer >= 3")
        self.form = form
        self.modulus = modulus
        self.seed = seed
        self.t_value = root_of_unity(modulus)
        _, self.transform, self.pairings = skew_normal_form(form.beta)
        self.nblocks = len(self.pairings)
        rng = np.random.default_rng(seed)
        self.free_phases = [
            cmath.exp(2j * math.pi * rng.random())
            for _ in range(form.dim - 2 * self.nblocks)
        ]
        self.dim = modulus ** self.nblocks
        self._cache = {}
        self._stacked = {}

    def _block_phase(self, d, y1, y2):
        n = self.modulus
        zeta = self.t_value ** (2 * d)
        phase = self.t_value ** (-d * y1 * y2)
        return np.array([phase * zeta ** (y1 * i) for i in range(n)])

    def image(self, du):
        """The image of W(du) as a :class:`Monomial` on the grid of the
        hyperbolic blocks; O(dim) numbers, never a dim x dim matrix."""
        du = tuple(du)
        if du in self._cache:
            return self._cache[du]
        y = [sum(self.transform[i][j] * du[j] for j in range(len(du))) for i in range(len(du))]
        phase = np.ones(1, dtype=complex)
        for b, d in enumerate(self.pairings):
            phase = np.kron(phase, self._block_phase(d, y[2 * b], y[2 * b + 1]))
        scalar = 1.0 + 0j
        for idx, lam in enumerate(self.free_phases):
            scalar *= lam ** y[2 * self.nblocks + idx]
        shift = tuple(y[2 * b + 1] % self.modulus for b in range(self.nblocks))
        out = Monomial(shift, scalar * phase)
        if len(self._cache) < 256:
            self._cache[du] = out
        return out

    def _grid_index(self, shift):
        """The gather index of a cyclic shift: the flat position of
        (i_1 - s_1, ..., i_k - s_k) mod N, first block outermost as in the
        Kronecker order of the phases."""
        n = self.modulus
        index = np.zeros(1, dtype=np.intp)
        for s in shift:
            index = (index[:, None] * n + (np.arange(n) - s) % n).ravel()
        return index

    def act(self, image, block):
        """``image @ block`` for a block of vectors of shape (dim, m), for
        the dense reference (:meth:`matrix`): one gather into a new complex
        array, then the phase multiplied into it in place (a real block is
        cast to complex first)."""
        out = block.take(self._grid_index(image.shift), axis=0)
        if out.dtype != image.phase.dtype:
            out = out.astype(image.phase.dtype)
        return np.multiply(image.phase[:, None], out, out=out)

    def edge_gather(self, name, place, sign, adjoint=False):
        """The edge factor (x0, x1) -> (-exp(Z/2) x1, exp(-Z/2) x0) of edge
        ``name``, or its adjoint (the same gather, each phase conjugated on
        the row it reads), on a stacked (2 dim, m) block whose component i
        is sign[i] times its half place[i]: one gather index over the
        stacked rows and one (2 dim, 1) phase column, the sign of X_e and
        the signs of the components folded into the phase.  Made once per
        (edge, routing, sign, adjoint) and shared by every word."""
        key = (name, place, sign, adjoint)
        out = self._stacked.get(key)
        if out is None:
            up = self.image(self.form.du({name: 1}))
            dn = self.image(self.form.du({name: -1}))
            up_index, dn_index = self._grid_index(up.shift), self._grid_index(dn.shift)
            up_phase, dn_phase = -up.phase, dn.phase
            if adjoint:  # the two shifts are opposite, so the gather is its own inverse
                up_phase, dn_phase = dn_phase[up_index].conj(), up_phase[dn_index].conj()
            index = np.concatenate((place[1] * self.dim + up_index, place[0] * self.dim + dn_index))
            phase = np.concatenate((up_phase if sign[1] > 0 else -up_phase,
                                    dn_phase if sign[0] > 0 else -dn_phase))
            out = self._stacked[key] = (index, phase[:, None])
        return out

    def matrix(self, du):
        """Dense dim x dim image of W(du), for small-dimension references."""
        return self.act(self.image(du), np.eye(self.dim, dtype=complex))

    def probe(self, blocks):
        """The seeded probe pair (u, w) on ``blocks`` copies of the space:
        a (blocks, dim, 2) array of unit-modulus entries."""
        rng = np.random.default_rng((self.seed, blocks))
        return np.exp(2j * math.pi * rng.random((blocks, self.dim, 2)))

    def evaluate(self, element, params=None):
        """Dense image of a torus or Ore element; denominators are inverted
        numerically (condition-checked)."""
        params = params or {}
        if isinstance(element, TorusElement):
            acc = np.zeros((self.dim, self.dim), dtype=complex)
            for du, coeff in element.terms.items():
                acc += coeff.evaluate(self.t_value, params) * self.matrix(du)
            return acc
        if isinstance(element, OreElement):
            acc = np.zeros((self.dim, self.dim), dtype=complex)
            for num, dens in element.terms:
                mat = self.evaluate(num, params)
                for d in dens:
                    dmat = self.evaluate(d.as_torus(), params)
                    if np.linalg.cond(dmat) > 1e8:
                        raise ArithmeticError("denominator is numerically singular; resample")
                    mat = mat @ np.linalg.inv(dmat)
                acc += mat
            return acc
        raise TypeError(f"cannot evaluate {type(element).__name__}")

    def norm(self, element, params=None):
        return float(np.max(np.abs(self.evaluate(element, params))))


def default_param_values(elements, seed=20240229):
    """Reproducible numeric values for every parameter occurring in the
    given elements, in numerators and denominators alike."""
    coeffs = []
    for el in elements:
        for num, dens in [(el, ())] if isinstance(el, TorusElement) else el.terms:
            coeffs += num.terms.values()
            coeffs += [c for d in dens for c in d.coeffs]
    names = {nm for c in coeffs for (_, params), _ in c.items() for nm, _ in params}
    rng = np.random.default_rng(seed)
    return {nm: 0.25 + 1.5 * rng.random() for nm in sorted(names)}


def oracle_check(elements, form, moduli=(5, 7), seed=20240229):
    """Max norm of symbolically-zero elements over the requested moduli;
    returns (max_norm, per-element list of (label, norm))."""
    params = default_param_values([el for _, el in elements], seed)
    reps = [ClockShiftRep(form, nn, seed=seed) for nn in moduli]
    results = []
    for label, el in elements:
        results.append((label, worst_norm([rep.norm(el, params) for rep in reps])))
    return worst_norm([norm for _, norm in results]), results


def worst_norm(norms):
    """The largest of some norms, 0.0 for none and NaN if any is NaN (the
    builtin max() skips a NaN that does not come first)."""
    return math.nan if any(map(math.isnan, norms)) else max(norms, default=0.0)


# ---------------------------------------------------------------------------
# independent numeric re-verification (matrix-free words in the rep)
# ---------------------------------------------------------------------------


class LinearOp:
    """An operator on ``legs`` copies of the space as a noncommutative
    polynomial, on which ``@``, ``+``, ``-`` and scalar ``*`` act: ``terms``
    maps each product of leaves, in matrix order, () the identity, to its
    coefficient.  A leaf is ('entry', i, r, s), entry (r, s) of word i;
    ('word', i), word i on two legs; ('embed', i, slot), word i on leg
    ``slot`` of the 2x2 tensor; or ('R', power, transposed) there."""

    __slots__ = ("terms", "legs")
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, terms, legs=1):
        self.terms = terms
        self.legs = legs

    def __matmul__(self, other):
        terms = {}
        for a, x in self.terms.items():
            for b, y in other.terms.items():
                terms[a + b] = terms.get(a + b, 0) + x * y
        return LinearOp(terms, self.legs)

    def pair(self, other):
        """(self @ other, other @ self), as the exact ``TorusElement.pair``."""
        return self @ other, other @ self

    def __add__(self, other):
        added = {b: self.terms.get(b, 0) + y for b, y in other.terms.items()}
        return LinearOp({**self.terms, **added}, self.legs)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return LinearOp({a: -x for a, x in self.terms.items()}, self.legs)

    def __rmul__(self, scalar):
        return LinearOp({a: scalar * x for a, x in self.terms.items()}, self.legs)


def rep_word_value(rep, graph, path, params):
    """The 2x2 block value of a written word as a :class:`_WordPass` on
    (2, dim, m) blocks of vectors, built from generator images only; this
    route never touches the symbolic product.  The word's
    :func:`word_chain` is compiled once, here."""
    return _WordPass(rep, word_chain(
        path.steps, lambda name: graph.pending[name].weight.evaluate(rep.t_value, params)))


_GATHER, _MUL, _ADD, _SUB = range(4)


class _WordPass:
    """A word's factor chain, which begins and ends with an edge, compiled
    into steps over the stacked (2 dim, m) view of a complex (2, dim, m)
    block, in the chain's arithmetic order.

    The compiler tracks, for each component of the pair, the half of the
    stacked block that holds it and its sign.  A component swap or a
    negation is exact, so a turn or a winding sign only changes that
    record, and each edge folds it into its gather index and phase
    (:meth:`ClockShiftRep.edge_gather`): one ``take`` and one in-place
    phase multiply, after which the record is the identity again.  A mix
    moves one row and sums the other: one in-place add or subtract of its
    two terms, a weight one multiply into the scratch block, so every
    float is the one the factors give one at a time, up to the sign of a
    zero.  A pass gathers back and forth between two stacked blocks beside
    one scratch block, and never writes into its input."""

    def __init__(self, rep, chain):
        if not chain or chain[0][0] == "mix" or chain[-1][0] == "mix":
            raise ValueError("a word's factor chain must begin and end with an edge")
        self.rep = rep
        self.chain = chain
        self.dim = rep.dim
        self.steps = []
        place, sign = (0, 1), (1, 1)
        for kind, data in chain:
            if kind == "mix":
                place, sign = self._mix(data, place, sign)
            else:
                self.steps.append((_GATHER, *rep.edge_gather(data, place, sign, kind == "edge^H")))
                place, sign = (0, 1), (1, 1)

    def adjoint(self):
        """The adjoint word's pass: the chain reversed, each edge's gather
        adjoint and each mix transposed with conjugate weights."""
        chain = []
        for kind, rows in reversed(self.chain):
            if kind == "mix":
                rows = tuple(tuple((s, w if w is None else w.conjugate(), i) for i, row in enumerate(rows)
                                   for s, w, j in row if j == col) for col in (0, 1))
            chain.append(({"edge": "edge^H", "edge^H": "edge"}.get(kind, kind), rows))
        return _WordPass(self.rep, chain)

    def _mix(self, rows, place, sign):
        """Compile a mix factor; returns the new (place, sign).  A row of
        one unweighted term moves no number.  The other row may be a sum of
        two terms, at most one weighted, written into the half that the
        moved row does not read."""
        moved = [len(row) == 1 and row[0][1] is None for row in rows]
        new_place, new_sign = list(place), list(sign)
        for i, row in enumerate(rows):
            if moved[i]:
                s, _, j = row[0]
                new_place[i], new_sign[i] = place[j], s * sign[j]
        if all(moved):
            return tuple(new_place), tuple(new_sign)
        i = moved.index(False)
        if not moved[1 - i] or len(rows[i]) != 2 or all(w is not None for _, w, _ in rows[i]):
            raise ValueError(f"cannot compile the mix {rows!r}: one row must move and the other "
                             "sum two terms, at most one weighted")
        terms = []
        for s, weight, j in rows[i]:
            if weight is not None:
                self.steps.append((_MUL, weight, place[j], 2))
            terms.append((s * sign[j], place[j] if weight is None else 2))
        (s, a), (s2, b) = terms
        target = 1 - new_place[1 - i]
        self.steps.append((_ADD if s == s2 else _SUB, a, b, target))
        new_place[i], new_sign[i] = target, s
        return tuple(new_place), tuple(new_sign)

    def __call__(self, block):
        dim = self.dim
        cur = block.reshape(2 * dim, -1)
        scratch = np.empty((dim, cur.shape[1]), dtype=complex)
        spare = [np.empty(cur.shape, dtype=complex) for _ in range(2)]
        for step in self.steps:
            code = step[0]
            if code == _GATHER:
                _, index, phase = step
                cur = cur.take(index, axis=0, out=spare[0], mode="wrap")
                spare.reverse()
                np.multiply(phase, cur, out=cur)
                views = (cur[:dim], cur[dim:], scratch)
            elif code == _MUL:
                _, weight, src, dst = step
                np.multiply(weight, views[src], out=views[dst])
            else:
                _, a, b, dst = step
                (np.add if code == _ADD else np.subtract)(views[a], views[b], out=views[dst])
        return cur.reshape(2, dim, -1)


def numeric_realization(rep, real, params):
    """The :class:`NumericSource` of a realization's own words in ``rep``.
    Raises ValueError for a realization without words, or when a word
    misses the normal shape M[00] = q a + w on the probe pair, as
    extract_entries does exactly."""
    if real.words is None:
        raise ValueError("realization carries no path words to re-evaluate")
    passes = [rep_word_value(rep, real.graph, word, params) for word in real.words]
    omegas = {i: real.omegas[i].evaluate(rep.t_value, params) for i in range(1, len(passes) + 1)}
    src = NumericSource(rep, passes, omegas, real.omega0.evaluate(rep.t_value, params))
    shapes = [(f"word {i}", LinearOp({(("entry", i, 0, 0),): 1}), src.q(1) * src.entry("a", i) + w * src.one)
              for i, w in omegas.items()]
    for label, lhs, rhs in relation_forms(src, shapes):
        gap = _gap(lhs, rhs)
        if not gap <= 1e-9:  # a NaN gap fails too
            raise ValueError(f"{label} misses the normal shape M[00] = q a + w by {gap}")
    return src


class NumericSource:
    """The entry source of the relation families in ``monodromy`` over a
    clock-and-shift representation ``rep``, in :class:`LinearOp`
    polynomials and complex scalars; a = -q M[11], b = -M[01], c = M[10].
    ``passes`` act as the words on (2, dim, m) blocks, with ``adjoint()``."""

    def __init__(self, rep, passes, omegas, omega0):
        self.rep = rep
        self.passes = {False: passes, True: [p.adjoint() for p in passes]}
        self.n = len(passes)
        self.omegas = omegas
        self.omega0 = omega0
        self.one = LinearOp({(): 1})

    def entry(self, kind, i):
        r, s, scale = {"a": (1, 1, -self.q(1)), "b": (0, 1, -1), "c": (1, 0, 1)}[kind]
        return LinearOp({(("entry", i, r, s),): scale})

    def q(self, k):
        return self.rep.t_value ** (4 * k)

    def matrix(self, i):
        return LinearOp({(("word", i),): 1}, 2)

    def identity(self):
        return LinearOp({(): 1}, 2)

    def r_matrix(self, power, transposed=False):
        return LinearOp({(("R", power, transposed),): 1}, 4)

    def embed(self, m, slot):
        return LinearOp({tuple(("embed", i, slot) for _, i in mono): x for mono, x in m.terms.items()}, 4)


_BLOCK_BYTES = 1 << 20  # the input block of one pass; more inputs of a word take more passes


def _children(src, word, inputs, parents, adjoint):
    """The children of ``inputs``, each an input (legs, parent path, slot)
    with its children, as (path, block): R-matrices (``word`` None), or one
    pass of the word, or its adjoint, over two (2, dim, c) column groups of
    each input: one leg x as [[x, 0], [0, x]], which gives all four entries
    (the adjoint's (r, s) is the adjoint word's (s, r)); two legs as they
    are; four as the leg pairs that the embedded word mixes."""
    if word is None:
        return [(key, _r_matrix(src, parents[legs, path], *key[1][-1][1:], adjoint))
                for (legs, path, _), keys in inputs for key in keys]
    dim, c = src.rep.dim, parents[inputs[0][0][:2]].shape[-1]
    block = np.zeros((2, dim, len(inputs), 2, c), dtype=complex)
    for k, ((legs, path, slot), _) in enumerate(inputs):
        if legs == 1:
            block[0, :, k, 0] = block[1, :, k, 1] = parents[legs, path][0]
        else:
            legs_in = parents[legs, path].reshape(2, -1, dim, c)
            block[:, :, k, :legs // 2] = legs_in.transpose((0, 2, 1, 3) if slot < 2 else (1, 2, 0, 3))
    out = src.passes[adjoint][word - 1](block.reshape(2, dim, -1)).reshape(block.shape)
    batch = []
    for k, ((legs, _, slot), keys) in enumerate(inputs):
        for key in keys:
            if key[1][-1][0] == "entry":
                r, s = key[1][-1][2:][::-1] if adjoint else key[1][-1][2:]
                batch.append((key, out[r, :, k, s][None]))
            else:
                legs_out = out[:, :, k, :legs // 2].transpose((0, 2, 1, 3) if slot < 2 else (2, 0, 1, 3))
                batch.append((key, legs_out.reshape(legs, dim, c)))
    return batch


def _r_matrix(src, x, power, transposed, adjoint):
    """R at q**p on a (4, dim, c) block, diag(q^p, 1, 1, q^p) plus q^p - q^-p
    at [1, 2] ([2, 1] transposed), or R^H: R at q**-p the other way."""
    qq, swap = src.q(-power if adjoint else power), transposed != adjoint
    y = x * np.array([qq, 1.0, 1.0, qq])[:, None, None]
    y[1 + swap] += (qq - 1 / qq) * x[2 - swap]
    return y


def _push(src, paths, adjoint, roots, take):
    """Push ``roots``, a (legs, dim, c) block per legs, through the trie of
    ``paths``, whose node (legs, leaves) is the last leaf, or its adjoint,
    applied to the node of the other leaves.  Hands ``take`` the nodes in
    batches of :func:`_children`, depth by depth, and holds a node only
    while the next depth reads it."""
    nodes = dict.fromkeys((legs, leaves[:d]) for legs, leaves in paths for d in range(len(leaves) + 1))
    inner = {(legs, leaves[:-1]) for legs, leaves in nodes if leaves}
    level = {key: roots[key[0]] for key in nodes if not key[1]}
    take(list(level.items()))
    per = max(1, _BLOCK_BYTES // (64 * src.rep.dim * next(iter(roots.values())).shape[-1]))
    for depth in range(1, max(len(leaves) for _, leaves in nodes) + 1):
        groups = {}
        for legs, path in nodes:
            if len(path) == depth:
                kind, word, *part = path[-1]
                item = (legs, path[:-1], part[0] if kind == "embed" else 0)
                groups.setdefault(None if kind == "R" else word, {}).setdefault(item, []).append((legs, path))
        parents, level = level, {}
        for word, inputs in groups.items():
            inputs = list(inputs.items())
            for at in range(0, len(inputs), per):
                batch = _children(src, word, inputs[at:at + per], parents, adjoint)
                level.update((key, x) for key, x in batch if key in inner)
                take(batch)
                del batch  # its blocks go before the next pass unless the next depth reads them


def relation_forms(src, relations):
    """The (label, lhs, rhs) of ``relations`` over ``src``, each side L as
    its form P^H L P on the probe block P of its legs (all of one width):
    2x2 on the probe pair (u, w), u^H L w at [0, 1]; ** stands for {}.
    A monomial A_1 ... A_k splits at h = k // 2 as (A_h^H ... A_1^H P)^H
    (A_{h+1} ... A_k P).  The left halves are kept; each batch of right
    halves meets them in one product, the Gram blocks of its pairs; the
    sides are one product of the coefficient table with those blocks."""
    relations = list(relations)
    if not relations:
        return []
    pairs, table = {}, []
    for side in (side for _, lhs, rhs in relations for side in (lhs, rhs)):
        table.append({pairs.setdefault((side.legs, m[:len(m) // 2], m[len(m) // 2:]), len(pairs)): x
                      for m, x in side.terms.items()})
    lefts, rights = {}, {}
    for col, (legs, left, right) in enumerate(pairs):
        own = lefts.setdefault(legs, {})
        rights.setdefault((legs, right[::-1]), []).append((col, own.setdefault(left, len(own))))
    dim, roots = src.rep.dim, {legs: src.rep.probe(legs) for legs in lefts}
    c = next(iter(roots.values())).shape[-1]
    kept = {legs: np.empty((len(own), c, legs * dim), dtype=complex) for legs, own in lefts.items()}
    grams = np.empty((len(pairs), c, c), dtype=complex)

    def keep(batch):
        for (legs, leaves), x in batch:
            if leaves in lefts[legs]:
                np.conjugate(x.reshape(legs * dim, c).T, out=kept[legs][lefts[legs][leaves]])

    def gram(batch):
        for legs in lefts:
            halves = [(rights[key], x) for key, x in batch if key[0] == legs and key in rights]
            if halves:
                block = np.stack([x.reshape(legs * dim, c) for _, x in halves], axis=1)
                col, i, j = zip(*((col, i, j) for j, (cols, _) in enumerate(halves) for col, i in cols))
                products = kept[legs].reshape(-1, legs * dim) @ block.reshape(legs * dim, -1)
                grams[list(col)] = products.reshape(-1, c, len(halves), c)[list(i), :, list(j)]

    _push(src, [(legs, left) for legs, own in lefts.items() for left in own], True, roots, keep)
    _push(src, list(rights), False, roots, gram)
    kept.clear()
    coeffs = np.zeros((len(table), len(pairs)), dtype=complex)
    for row, terms in zip(coeffs, table):
        row[list(terms)] = list(terms.values())
    forms = (coeffs @ grams.reshape(len(pairs), c * c)).reshape(-1, c, c)
    return [(label.format("**") if lhs.legs > 1 else label, forms[2 * r], forms[2 * r + 1])
            for r, (label, lhs, _) in enumerate(relations)]


def numeric_relation_pairs(src, families):
    """The :func:`relation_forms` of each named relation family of
    ``monodromy.relation_families`` over a :func:`numeric_realization`."""
    return [pair for family in families for pair in relation_forms(src, relation_families(src, (family,)))]


def numeric_pvi_pairs(src):
    """The pairs of the four-point family: the deformed entry algebra with
    the weighted cross relations, the K elements and the AW(3) relations."""
    return numeric_relation_pairs(src, ("pvi",))


def numeric_reflection_pairs(src):
    """The mixed and single-matrix reflection forms on the 2x2 tensor of
    the representation space; each side acts on (4, dim, k) blocks."""
    return numeric_relation_pairs(src, ("reflection",))


def _gap(lhs, rhs):
    """|u^H (L - R) w| of two form sides."""
    return float(abs(lhs[0, 1] - rhs[0, 1]))


def numeric_pair_norms(pairs):
    return [(label, _gap(lhs, rhs)) for label, lhs, rhs in pairs]


def mutation_check(pairs, t_value, seed):
    """Perturb 50 passing numeric identities and verify every variant is
    caught: one side is rescaled by a nontrivial power of t, or replaced by
    its transpose, whose form w^H L u differs from u^H L w even where L is
    a multiple of the identity."""
    rng = np.random.default_rng(seed)
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no identities to mutate")
    caught = []
    for _ in range(50):
        _, lhs, rhs = pairs[int(rng.integers(len(pairs)))]
        if int(rng.integers(2)) == 0:
            mutated = t_value ** int(rng.integers(1, 4)) * lhs
        else:
            mutated = lhs.T
        caught.append(_gap(mutated, rhs) > 1e-6)
    return caught


# ---------------------------------------------------------------------------
# classical float layer
# ---------------------------------------------------------------------------


def phi(z):
    """log(1 + exp(z)) at a float or an (S,) array of samples, without
    overflow; an exp(-|z|) that underflows to 0 is harmless, so not flagged."""
    with np.errstate(under="ignore"):
        return np.logaddexp(0.0, z)


def phi_pending(z, w):
    """log(1 + w exp(z) + exp(2z)), the pending-edge shift for weight w, at a
    float or an (S,) array: 2 max(z, 0) + log1p(w e^-|z| + e^-2|z|)."""
    m = np.abs(z)
    with np.errstate(under="ignore"):
        return 2 * np.maximum(z, 0.0) + np.log1p(w * np.exp(-m) + np.exp(-2 * m))


class ShearState:
    """Classical point: a graph with shear values, floats or (S,) sample
    arrays that the moves never write into, and numeric weight parameters.
    For its whole life it keeps one float edge table over its values
    (:func:`float_edges`) and, from its first word on, the weights of its
    pending edges, so each edge factor is formed once per state, not once
    per word (:meth:`word_values`)."""

    __slots__ = ("graph", "values", "params", "edges", "_weights")

    def __init__(self, graph, values, params=None):
        values = dict(values)
        for e in graph.edges:
            if e not in values:
                raise ValueError(f"missing shear value for edge {e!r}")
        self.graph = graph
        self.values = values
        self.params = dict(params or {})
        self.edges = float_edges(values)
        self._weights = None

    def word_values(self, tokens):
        """:func:`word_values` of a token word at this state's shears."""
        if self._weights is None:
            self._weights = {e: self.weight_value(e) for e in self.graph.pending}
        return word_values(tokens, self.edges, self._weights)

    def weight_value(self, edge):
        """The weight of a pending edge: 2 cos(pi/p) at an order p >= 4, the
        exact 0 or 1 at p = 2 or 3, else the value of its parameter."""
        info = self.graph.pending[edge]
        if info.p is not None and info.p >= 4:
            return 2 * math.cos(math.pi / info.p)
        try:
            return info.weight.evaluate(1.0, self.params).real
        except KeyError as exc:
            raise ValueError(
                f"pending edge {edge!r} needs a value for its weight parameter {exc.args[0]!r}"
            ) from None


def _flipped(values, edge, roles, log_t):
    """Shear values after a flip of ``edge``: Z -> -Z and each role moves by
    sign * log_t(sign * Z), its sign from ROLE_SIGNS.  Coincident roles
    accumulate their shifts, which reproduces the special-case list (a
    doubled role gets 2*phi, paired +/- roles collapse to a shift by Z)."""
    z = values[edge]
    up, down = log_t(z), -log_t(-z)
    out = dict(values)
    for role, sign in zip(roles, ROLE_SIGNS):
        out[role] = out[role] + (up if sign > 0 else down)
    out[edge] = -z
    return out


def classical_flip(state, edge):
    """Whitehead move on the shear values, log T = phi."""
    graph = state.graph
    if graph.is_pending(edge):
        raise ValueError(f"cannot flip pending edge {edge!r}")
    new_graph, roles = flip_graph(graph, edge)
    return ShearState(new_graph, _flipped(state.values, edge, roles, phi), state.params)


def classical_pending_flip(state, edge):
    """Pending-edge move, log T = phi_pending at the edge's weight."""
    graph = state.graph
    if not graph.is_pending(edge):
        raise ValueError(f"{edge!r} is not a pending edge")
    new_graph, roles = pending_flip_graph(graph, edge)
    log_t = partial(phi_pending, w=state.weight_value(edge))
    return ShearState(new_graph, _flipped(state.values, edge, roles, log_t), state.params)


def decoration_change(state, hole):
    """Change the spiraling direction at a hole given as the (Y, P) pair of
    its neck edge and perimeter loop: (Y, P) -> (Y + P, -P)."""
    y_edge, p_edge = hole
    graph = state.graph
    slots = graph.incidence(p_edge)
    if len(slots) != 2 or slots[0][0] != slots[1][0]:
        raise ValueError(f"{p_edge!r} is not a perimeter loop")
    if y_edge == p_edge:
        raise ValueError(f"the loop {p_edge!r} cannot be its own neck")
    if y_edge not in graph.vertices[slots[0][0]]:
        raise ValueError(f"{y_edge!r} does not meet the loop {p_edge!r}")
    values = dict(state.values)
    values[y_edge] = state.values[y_edge] + state.values[p_edge]
    values[p_edge] = -state.values[p_edge]
    return ShearState(graph, values, state.params)


def run_flip_script(state, lines):
    """Apply a flip script: lines of the form ``flip <edge>``,
    ``pflip <edge>`` or ``decor <neck> <loop>``; blank lines and ``#``
    comments are skipped."""
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            unknown = [e for e in parts[1:] if e not in state.graph.edges]
            if unknown:
                raise ValueError(f"the graph has no edge {unknown[0]!r}")
            if parts[0] == "flip" and len(parts) == 2:
                state = classical_flip(state, parts[1])
            elif parts[0] == "pflip" and len(parts) == 2:
                state = classical_pending_flip(state, parts[1])
            elif parts[0] == "decor" and len(parts) == 3:
                state = decoration_change(state, (parts[1], parts[2]))
            else:
                raise ValueError(f"unrecognized script line: {line!r}")
        except ValueError as exc:
            raise ValueError(f"flip script line {ln}: {exc}") from exc
    return state


def _float_edge(values, name):
    v = values[name]
    return partial(np.multiply, -np.exp(v / 2)), partial(np.multiply, np.exp(-v / 2))


def float_edges(values):
    """The edge table of the float edge factors over ``values``, which maps
    each shear name to a float or an (S,) array: the maps x -> -exp(v/2) x
    and x -> exp(-v/2) x of an edge, formed on its first read."""
    return EdgeMaps(partial(_float_edge, values))


def word_values(tokens, edges, weights):
    """Value of a true-order token word at every sample at once, as an
    (S, 2, 2) stack: the :func:`word_action` of the word on the unit
    columns, whose components are (2, S) arrays.  ``edges`` is the
    :func:`float_edges` table of the shears, read and filled in place, so
    words that share it form each edge factor once; ``weights`` maps each
    pending edge, the weight name of an ('F', w) or ('omega', w, sign)
    token and the commutant parameters 'a' and 'c' to an (S,) array or a
    float."""
    act = word_action(tokens, edges, weights.__getitem__)
    columns = act(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    return np.moveaxis(np.stack(columns), -1, 0)


def _moved_shears(family, v, w):
    """The ~ shears of a classical identity, from the moves' own shift code:
    an inner or pending flip of Z with the names A, B, C, D in role order
    (an absent role moves from 0 and is dropped), phi_pending at weight w
    for a pending Z; a decoration change sends (Y, P) to (Y + P, -P)."""
    if family == "decoration":
        return {"Y~": v["Y"] + v["P"], "P~": -v["P"]}
    roles, log_t = ("A", "B", "C", "D"), phi
    if family == "pending":
        roles, log_t = ("A", "B"), partial(phi_pending, w=w)
    moved = _flipped({**dict.fromkeys(roles, 0.0), **v}, "Z", roles, log_t)
    return {f"{n}~": moved[n] for n in v}


def numeric_identity_deviation(ident, sample_count=1000, seed=20240229):
    """Max entrywise deviation of a classical flip identity over seeded
    random shears.  Both token words are evaluated on float samples, with
    the ~ shears from the classical move formulas, so this check shares
    nothing with the exact torus arithmetic but the words and the factor
    conventions of the word evaluator."""
    rng = np.random.default_rng(seed)
    lhs, rhs = classical_identity_words(ident)
    names = sorted({s[1].rstrip("~") for s in lhs + rhs if s[0] == "edge"})
    values = {n: rng.uniform(-2, 2, sample_count) for n in names}
    weights = {n: rng.uniform(-2, 2, sample_count) for n in ("a", "c")}
    weights["w"] = 2 * np.cos(np.pi / rng.integers(2, 7, sample_count))
    values.update(_moved_shears(ident.rsplit("-", 1)[0], values, weights["w"]))
    edges = float_edges(values)  # one table for both sides
    gap = word_values(lhs, edges, weights) - word_values(rhs, edges, weights)
    return float(np.max(np.abs(gap)))


def random_state(graph, seed, count):
    """Seeded uniform shears on every edge, as (count,) arrays of
    independent samples."""
    rng = np.random.default_rng(seed)
    values = {e: rng.uniform(-2.0, 2.0, count) for e in graph.edges}
    params = {"omega0": 2 * math.cos(math.pi / 5)}
    return ShearState(graph, values, params)


def _largest_change(want, moved):
    """Largest |moved shear - wanted shear| over every edge and sample."""
    return float(np.max(np.abs([moved.values[e] - v for e, v in want.items()])))


def flip_involution_deviation(graph, edge, samples=1000, seed=20240229):
    state = random_state(graph, seed, samples)
    return _largest_change(state.values, classical_flip(classical_flip(state, edge), edge))


def pending_flip_involution_deviation(graph, edge, samples=1000, seed=20240229):
    state = random_state(graph, seed, samples)
    back = classical_pending_flip(classical_pending_flip(state, edge), edge)
    return _largest_change(state.values, back)


def pentagon_deviation(graph, e1, e2, samples=200, seed=20240229):
    """Five alternating flips of two adjacent inner edges must restore all
    shear values (edge labels swap roles)."""
    state = random_state(graph, seed, samples)
    cur = state
    for edge in (e1, e2, e1, e2, e1):
        cur = classical_flip(cur, edge)
    swap = {e1: e2, e2: e1}
    return _largest_change({e: state.values[swap.get(e, e)] for e in graph.edges}, cur)


def boundary_word_tokens(graph):
    """True-order token list of the closed all-left-turn word along the
    (single) face boundary: one step per arrival slot, a winding at each
    orbifold U-turn.  Requires a graph without spectator stubs."""
    (face,) = graph.faces()
    steps = []
    for slot in face:
        e = graph.edge_at(slot)
        if graph.across(slot) != slot:
            steps.append(("edge", e))
        elif graph.is_pending(e):
            steps.append(("orb", e, 1))
        else:
            raise ValueError("boundary word needs orbifold data at stubs")
    return steps


def boundary_trace_deviation(graph, samples=200, seed=20240229):
    """| trace(boundary word) | - 2 cosh(half the center exponent sum)."""
    tokens = []
    for step in boundary_word_tokens(graph):
        tokens += [("turn", "L"), step]
    (center,) = graph.center_elements()
    state = random_state(graph, seed, samples)
    tr = np.trace(state.word_values(tokens), axis1=-2, axis2=-1)
    half = sum(k * state.values[e] for k, e in zip(center, graph.edges)) / 4.0
    return float(np.max(np.abs(np.abs(tr) - 2 * np.cosh(half))))


def random_closed_words(graph, counts, seed):
    """Random closed geodesic words respecting the ribbon structure, one
    list for each count in ``counts``.

    The walk state is the slot it arrived at; each of at most 12 steps
    turns L or R onto the next slot and goes ``across`` its edge, bouncing
    through free ends with a winding insertion.  Words are returned as
    true-order token lists of ('edge', e) / ('turn', t) / ('orb', e, 1)
    whose cyclic product is a legal closed path word; a graph without
    internal edges has none.  A draw of ``count`` words gives up after
    ``count * 400`` walks, so its list is the first ``count`` words found
    within that many walks; all the lists come from one seeded run of walks,
    each exactly what a draw of its count alone gives.
    """
    rng = np.random.default_rng(seed)
    internal = [e for e in graph.edges if graph.is_internal(e)]
    found = []  # (walk number, tokens)
    attempts = 0
    while internal and any(len(found) < c and attempts < c * 400 for c in counts):
        attempts += 1
        e0 = internal[int(rng.integers(len(internal)))]
        start = graph.incidence(e0)[0 if rng.integers(2) else 1]
        tokens, slot = [("edge", e0)], start
        for _ in range(12):
            turn = "L" if rng.integers(2) else "R"
            out = graph.turn(slot, turn)
            edge, slot = graph.edge_at(out), graph.across(out)
            if slot == out and not graph.is_pending(edge):
                break  # spectator stub: abandon this walk
            tokens += [("turn", turn), ("orb", edge, 1) if slot == out else ("edge", edge)]
            if slot == start:
                break
        if slot == start and len(tokens) > 3:
            found.append((attempts, tokens[:-1]))  # final edge duplicates the first
    return [[w for a, w in found if a <= c * 400][:c] for c in counts]


def closed_trace_minimum(graph, words, samples=200, seed=20240229):
    """Minimum trace over closed geodesic ``words`` of ``graph``
    (:func:`random_closed_words`) and samples; the positivity statement
    says this never drops below 2."""
    if not words:
        raise ValueError("no closed words found")
    state = random_state(graph, seed + 1000, samples)
    minima = [np.min(np.trace(state.word_values(word), axis1=-2, axis2=-1)) for word in words]
    # np.min, not the builtin min, which skips a NaN that does not come first
    return float(np.min(minima))


def sign_structure_violation(graph, words, samples=50, seed=20240229):
    """Products of turn-edge blocks of the closed ``words`` of ``graph``
    must have the sign pattern [[+,-],[-,+]] (weakly); returns the largest
    wrong-signed magnitude."""
    if not words:
        raise ValueError("no closed words found")
    state = random_state(graph, seed + 5000, samples)
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    violations = []
    for tokens in words:
        # rotate so the word starts with a turn: block products only
        mat = state.word_values(tokens[1:] + tokens[:1])
        violations.append(float(np.max(np.abs(np.minimum(mat * signs, 0.0)))))
    return worst_norm(violations)
