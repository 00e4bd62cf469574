"""Matrices over the quantum torus and their constructors: edge, turn,
orbifold-rotation and commutant matrices, and the R-matrix with its
embeddings into tensor legs.  A scalar matrix such as R is an AlgMatrix
whose entries are constants of the torus.

:func:`word_chain` is the one reading of a word: it resolves each step to
the factors the constructors display, and every word evaluator applies that
chain: :func:`word_action` in the exact and classical rings, and the
numeric oracle's compiled pass on probe blocks.
"""

from __future__ import annotations

import operator
from functools import partial

from .coeffs import Coefficient, ONE, ZERO
from .torus import TorusElement, weyl_sum


class AlgMatrix:
    """Square matrix with TorusElement (or OreElement) entries sharing one
    skew form."""

    __slots__ = ("form", "n", "rows")

    def __init__(self, form, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n not in (2, 4, 8) or any(len(r) != n for r in rows):
            raise ValueError("AlgMatrix must be square of size 2, 4 or 8")
        for row in rows:
            for x in row:
                if x.form is not form and x.form != form:
                    raise ValueError("entries live over different forms")
        self.form = form
        self.n = n
        self.rows = rows

    @staticmethod
    def identity(form, n=2):
        one = TorusElement.one(form)
        zero = TorusElement.zero(form)
        return AlgMatrix(form, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def mul(self, other):
        """The matrix product; each entry is one :func:`weyl_sum` of its
        row-column pairs (torus entries only)."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        form = self.form
        cols = tuple(zip(*other.rows))
        return AlgMatrix(form, [[weyl_sum(form, zip(row, col)) for col in cols] for row in self.rows])

    def __matmul__(self, other):
        return self.mul(other)

    def __rmul__(self, coeff):
        if not isinstance(coeff, Coefficient):
            return NotImplemented
        return self.scale(coeff)

    def entrywise(self, op, other):
        if self.n != other.n:
            raise ValueError("size mismatch")
        return AlgMatrix(
            self.form,
            [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __add__(self, other):
        return self.entrywise(operator.add, other)

    def __neg__(self):
        return AlgMatrix(self.form, [[-x for x in row] for row in self.rows])

    def __sub__(self, other):
        return self.entrywise(operator.sub, other)

    def scale(self, coeff):
        return AlgMatrix(self.form, [[x.scale(coeff) for x in row] for row in self.rows])

    def scalar_mul_left(self, element):
        """element * M entrywise, element an algebra scalar (not central)."""
        return AlgMatrix(self.form, [[element.mul(x) for x in row] for row in self.rows])

    def scalar_mul_right(self, element):
        return AlgMatrix(self.form, [[x.mul(element) for x in row] for row in self.rows])

    def trace(self):
        acc = None
        for i in range(self.n):
            acc = self.rows[i][i] if acc is None else acc + self.rows[i][i]
        return acc

    def transpose(self):
        return AlgMatrix(self.form, zip(*self.rows))

    def is_zero(self):
        return all(x.is_zero() for row in self.rows for x in row)

    def __repr__(self):
        return "AlgMatrix[\n" + "\n".join("  " + repr(list(r)) for r in self.rows) + "\n]"


# -- constructors -------------------------------------------------------


def edge_matrix(form, name):
    """[[0, -exp(Z/2)], [exp(-Z/2), 0]] for the named edge."""
    zero = TorusElement.zero(form)
    up = TorusElement.monomial(form, form.du({name: 1}))
    dn = TorusElement.monomial(form, form.du({name: -1}))
    return AlgMatrix(form, [[zero, -up], [dn, zero]])


def turn_matrix(form, kind):
    """R = [[1,1],[-1,0]], L = R^2 = [[0,1],[-1,-1]]."""
    one = TorusElement.one(form)
    zero = TorusElement.zero(form)
    if kind == "R":
        return AlgMatrix(form, [[one, one], [-one, zero]])
    if kind == "L":
        return AlgMatrix(form, [[zero, one], [-one, -one]])
    raise ValueError(f"turn kind must be 'L' or 'R', not {kind!r}")


def f_matrix(form, omega):
    """[[0, 1], [-1, -omega]]: rotation about an orbifold point of weight
    omega = 2 cos(pi/p)."""
    one = TorusElement.one(form)
    zero = TorusElement.zero(form)
    w = TorusElement.scalar(form, omega)
    return AlgMatrix(form, [[zero, one], [-one, -w]])


def omega_commutant(form, a, c, omega):
    """[[a, c], [-c, a - omega*c]]: the general matrix commuting with
    F_omega (scalar parameters a, c)."""
    am = TorusElement.scalar(form, a)
    cm = TorusElement.scalar(form, c)
    corner = TorusElement.scalar(form, a - omega * c)
    return AlgMatrix(form, [[am, cm], [-cm, corner]])


# -- words ----------------------------------------------------------------
#
# A word resolves to a chain of factors in the order they act.  An edge is
# ("edge", name); every other factor is ("mix", (row0, row1)), the rows of
# its 2x2 matrix: new x_i is the sum, in order, of the row's terms
# (sign, weight, j), each sign * weight * x_j with weight None for 1.

_R = (((1, None, 0), (1, None, 1)), ((-1, None, 0),))  # (x0 + x1, -x0)
_L = (((1, None, 1),), ((-1, None, 0), (-1, None, 1)))  # L = R**2: (x1, -x0 - x1)
_NEG = (((-1, None, 0),), ((-1, None, 1),))  # (-x0, -x1)


def _f(w):
    """F_w: (x1, -x0 - w x1)."""
    return (((1, None, 1),), ((-1, None, 0), (-1, w, 1)))


def _factors(step, scalar):
    """The factors of one step of a word, in the order they act."""
    kind, name = step[0], step[1]
    if kind == "turn" and name in ("R", "L"):
        return [("mix", _R if name == "R" else _L)]
    if kind == "edge":
        return [("edge", name)]
    if kind not in ("F", "omega", "orb"):
        raise ValueError(f"unknown word step {tuple(step)!r}")
    w = scalar(name)
    if kind == "F":
        return [("mix", _f(w))]
    if kind == "omega":
        a, c = scalar("a"), scalar("c")
        if step[2] < 0:
            a, c = -a, -c
        corner = a - w * c
        # (a x0 + c x1, corner x1 - c x0)
        return [("mix", (((1, a, 0), (1, c, 1)), ((1, corner, 1), (-1, c, 0))))]
    k = step[2]
    x = ("edge", name)
    return [x] + [("mix", _f(w))] * k + ([] if k % 2 else [("mix", _NEG)]) + [x]


def word_chain(steps, scalar):
    """The factors of a written word's product M in the order they act on
    a column pair (x0, x1), right to left, resolved once, here:

        ('turn', 'R'|'L')   turn_matrix R = [[1, 1], [-1, 0]] or L = R**2
        ('edge', e)         edge_matrix X_e = [[0, -exp(Z/2)], [exp(-Z/2), 0]]
        ('F', w)            f_matrix F_w = [[0, 1], [-1, -w]]
        ('omega', w, sign)  sign * omega_commutant O = sign * (a + c F_w)
        ('orb', e, k)       the winding X_e (-1)**(k+1) F_w**k X_e, w of e

    ``scalar(name)`` gives a weight w by pending edge or name, and the
    commutant parameters by 'a' and 'c'.  Every applier reads this chain:
    :func:`word_action` on pairs of ring elements, and the oracle's
    compiler on stacked probe blocks."""
    return [factor for step in reversed(steps) for factor in _factors(step, scalar)]


def _row_value(row, x):
    """One row of a mix factor applied to the pair ``x``."""
    acc = None
    for sign, weight, j in row:
        term = x[j] if weight is None else weight * x[j]
        if acc is None:
            acc = -term if sign < 0 else term
        else:
            acc = acc - term if sign < 0 else acc + term
    return acc


def _mixed(rows, x):
    return _row_value(rows[0], x), _row_value(rows[1], x)


class EdgeMaps(dict):
    """The two maps of each edge factor's nonzero entries (see
    :func:`word_action`), keyed by edge name and formed by ``make(name)`` on
    the first read of that name: one table serves every word over the same
    edge values."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, name):
        maps = self[name] = self.make(name)
        return maps


def word_action(steps, edges, scalar):
    """The action x -> M x of a written word's product M on a column pair
    (x0, x1), whose components lie in any ring with +, - and * by a scalar:
    torus elements or (2, S) sample arrays.  The factors are those of
    :func:`word_chain`.

    ``edges[name]`` gives the two maps of an edge's nonzero entries, with
    the sign of X_e folded in: x -> -exp(Z/2) x and x -> exp(-Z/2) x, so
    that an edge factor is (up(x1), dn(x0)) and allocates nothing beyond
    the two maps' own results; an :class:`EdgeMaps` forms each once.
    """
    chain = []
    for kind, data in word_chain(steps, scalar):
        if kind == "edge":
            up, dn = edges[data]
            chain.append(lambda x, up=up, dn=dn: (up(x[1]), dn(x[0])))
        else:
            chain.append(partial(_mixed, data))

    def act(x0, x1):
        x = (x0, x1)
        for factor in chain:
            x = factor(x)
        return x

    return act


def _edge_maps(form, name):
    up = TorusElement.monomial(form, form.du({name: 1}), -ONE)
    dn = TorusElement.monomial(form, form.du({name: -1}))
    return up.mul, dn.mul


def word_matrix(form, steps, scalar, edges=None):
    """The exact product of a word over ``form``: its :func:`word_action`
    on the two unit columns.  ``edges`` defaults to a table of the edge
    matrices."""
    if edges is None:
        edges = EdgeMaps(partial(_edge_maps, form))
    act = word_action(steps, edges, scalar)
    one, zero = TorusElement.one(form), TorusElement.zero(form)
    return AlgMatrix(form, zip(act(one, zero), act(zero, one)))


def r_matrix(power, form):
    """The standard 4x4 quantum R-matrix at q**power (q = t**4) over
    ``form``:

        [[q, 0, 0,       0],
         [0, 1, q - 1/q,  0],
         [0, 0, 1,        0],
         [0, 0, 0,        q]]

    in the basis (11, 12, 21, 22).
    """
    q = Coefficient.t_power(4 * power)
    qinv = Coefficient.t_power(-4 * power)
    rows = [
        [q, ZERO, ZERO, ZERO],
        [ZERO, ONE, q - qinv, ZERO],
        [ZERO, ZERO, ONE, ZERO],
        [ZERO, ZERO, ZERO, q],
    ]
    return AlgMatrix(form, [[TorusElement.scalar(form, c) for c in row] for row in rows])


def tensor_embed(m, slot):
    """Embed a 2x2 algebra matrix into slot 1 or 2 of a 2-fold tensor
    space; rows/columns ordered (11, 12, 21, 22), entries multiply left to
    right so embed(M,1)*embed(N,2) has ((ik),(jl)) entry M_ij * N_kl."""
    if m.n != 2:
        raise ValueError("tensor_embed expects a 2x2 matrix")
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    form = m.form
    zero = TorusElement.zero(form)
    out = [[zero] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if slot == 1:
                    out[2 * i + k][2 * j + k] = m.rows[i][j]
                else:
                    out[2 * k + i][2 * k + j] = m.rows[i][j]
    return AlgMatrix(form, out)


def scalar_tensor(r, slots):
    """Embed a 4x4 scalar matrix acting on tensor legs `slots` (a pair of
    distinct legs in 1..3) into the 8x8 matrix on three legs."""
    if r.n != 4:
        raise ValueError("scalar_tensor expects a 4x4 matrix")
    a, b = slots
    if a == b or not (1 <= a <= 3 and 1 <= b <= 3):
        raise ValueError("slots must be two distinct legs")
    zero = TorusElement.zero(r.form)
    out = [[zero] * 8 for _ in range(8)]
    for row in range(8):
        rbits = [(row >> (2 - k)) & 1 for k in range(3)]
        for col in range(8):
            cbits = [(col >> (2 - k)) & 1 for k in range(3)]
            ok = all(rbits[k] == cbits[k] for k in range(3) if k not in (a - 1, b - 1))
            if not ok:
                continue
            ri = 2 * rbits[a - 1] + rbits[b - 1]
            ci = 2 * cbits[a - 1] + cbits[b - 1]
            out[row][col] = r.rows[ri][ci]
    return AlgMatrix(r.form, out)
