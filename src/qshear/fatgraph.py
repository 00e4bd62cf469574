"""Ribbon graphs with pending (orbifold) edges, their induced skew forms,
boundary faces and Poisson centers, and the compilation of paths into
2x2 matrix words: a path's turns are checked here and its factors applied
by the word evaluator of ``matrices``.

Conventions
-----------
A vertex stores a cyclic triple (e1, e2, e3); cyclically consecutive
pairs have bracket +1, so the induced skew form is

    beta[a][b] = sum over vertices of (+1 if b follows a, -1 if a follows b).

A written matrix word multiplies left to right while the underlying path
runs right to left.  For consecutive written factors ``X_a T X_b`` the
path enters the shared vertex along b and leaves along a, and the turn
token T is L when a is the cyclic successor of b, R when a is its
predecessor.  A turn is read at a slot (vertex, position), not at an
edge name: the two ends of a loop are two slots of one vertex, and a
word is checked as one walk through slots, so each turn is read where
the walk stands.  A free end (orbifold point or spectator stub) is its
own far end: the walk goes out and back along the edge and arrives at
the same slot, so a U-turn is one arrival slot, in a face as in a
path.  Pending edges may carry a symbolic weight parameter or
an exact weight 2*cos(pi/p); edges with a single attachment and no
orbifold point are spectators standing for the unexplored rest of the
surface.
"""

from __future__ import annotations

import json

from .coeffs import Coefficient
from .matrices import word_matrix
from .torus import SkewForm


class PendingInfo:
    """Orbifold data of a pending edge: a weight coefficient and, when the
    weight came from an integer order p, that order.  The order is kept
    only so that the graph format can write it back; compilation uses the
    weight alone."""

    __slots__ = ("weight", "p")

    def __init__(self, weight, p=None):
        self.weight = weight
        self.p = p

    @staticmethod
    def from_order(p):
        p = int(p)
        if p < 2:
            raise ValueError("orbifold order must be >= 2")
        if p == 2:
            return PendingInfo(Coefficient.zero(), 2)
        if p == 3:
            return PendingInfo(Coefficient.rational(1), 3)
        return PendingInfo(Coefficient.parameter(f"w{p}"), p)

    @staticmethod
    def from_param(name):
        return PendingInfo(Coefficient.parameter(str(name)), None)

    def __repr__(self):
        return f"PendingInfo(weight={self.weight!r}, p={self.p})"


class FatGraph:
    """Immutable fat graph: named edges, cyclic vertex triples, pending
    edge table and optional (g, s, r) metadata."""

    __slots__ = ("edges", "vertices", "pending", "meta", "_incidence", "_form")

    def __init__(self, edges, vertices, pending=None, meta=None):
        self.edges = tuple(edges)
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("edge names must be distinct")
        self.vertices = tuple(tuple(v) for v in vertices)
        for v in self.vertices:
            if len(v) != 3:
                raise ValueError("all interior vertices must be trivalent")
            for e in v:
                if e not in self.edges:
                    raise ValueError(f"vertex references unknown edge {e!r}")
        self.pending = dict(pending or {})
        for e in self.pending:
            if e not in self.edges:
                raise ValueError(f"pending table references unknown edge {e!r}")
        self.meta = tuple(meta) if meta is not None else None

        incidence = {e: [] for e in self.edges}
        for vi, v in enumerate(self.vertices):
            for pos, e in enumerate(v):
                incidence[e].append((vi, pos))
        for e, slots in incidence.items():
            if len(slots) > 2:
                raise ValueError(f"edge {e!r} attached more than twice")
            if e in self.pending and len(slots) != 1:
                raise ValueError(f"pending edge {e!r} must attach exactly once")
        self._incidence = incidence
        self._form = None

    # -- structure helpers ------------------------------------------------

    def incidence(self, edge):
        return tuple(self._incidence[edge])

    def is_pending(self, edge):
        return edge in self.pending

    def is_internal(self, edge):
        return len(self._incidence[edge]) == 2

    def weight(self, edge):
        return self.pending[edge].weight

    def vertex_of_pending(self, edge):
        (vi, _), = self.incidence(edge)
        return vi

    # -- slots: (vertex, position) -------------------------------------------

    def edge_at(self, slot):
        vi, pos = slot
        return self.vertices[vi][pos]

    def turn(self, slot, token):
        """The slot after (L) or before (R) ``slot`` in its vertex's cyclic order."""
        vi, pos = slot
        return vi, (pos + (1 if token == "L" else 2)) % 3

    def across(self, slot):
        """The slot at the far end of the slot's edge; a free end (orbifold
        point or spectator stub) is its own far end, a U-turn."""
        slots = self._incidence[self.edge_at(slot)]
        return slots[-1] if slots[0] == slot else slots[0]

    def replace_vertices(self, new_vertices):
        return FatGraph(self.edges, new_vertices, self.pending, self.meta)

    # -- induced algebraic structure ----------------------------------------

    def skew_form(self):
        """The graph's skew form, built on first use and then handed out
        again, so one graph has one form and one pairing-row memo."""
        if self._form is None:
            n = len(self.edges)
            index = {e: i for i, e in enumerate(self.edges)}
            beta = [[0] * n for _ in range(n)]
            for v in self.vertices:
                for k in range(3):
                    a, b = index[v[k]], index[v[(k + 1) % 3]]
                    beta[a][b] += 1
                    beta[b][a] -= 1
            self._form = SkewForm(self.edges, beta)
        return self._form

    def faces(self):
        """Boundary cycles as lists of arrival slots.

        Each step turns left and goes ``across``: slot -> across(turn(slot,
        "L")).  A free end is its own far end, so a U-turn at an orbifold
        point or spectator stub is one slot.  Each cycle starts at its
        first slot in edge order.
        """
        seen = set()
        faces = []
        for slots in self._incidence.values():
            for slot in slots:
                cyc = []
                while slot not in seen:
                    seen.add(slot)
                    cyc.append(slot)
                    slot = self.across(self.turn(slot, "L"))
                if cyc:
                    faces.append(cyc)
        return faces

    def center_elements(self):
        """One doubled-exponent vector per face: each arrival adds a full
        unit of its edge, and a free end, walked out and back, adds two."""
        index = {e: i for i, e in enumerate(self.edges)}
        centers = []
        for face in self.faces():
            du = [0] * len(self.edges)
            for slot in face:
                du[index[self.edge_at(slot)]] += 4 if self.across(slot) == slot else 2
            centers.append(tuple(du))
        return centers

    def validate(self):
        """Collect structural problems; empty list means valid."""
        problems = []
        for e in self.edges:
            if not self._incidence[e]:
                problems.append(f"edge {e!r} is attached to no vertex")
        centers = self.center_elements()
        if self.meta is not None:
            g, s, r = self.meta
            expected = 6 * g - 6 + 3 * s + 2 * r
            if len(self.edges) != expected:
                problems.append(
                    f"edge count {len(self.edges)} violates 6g-6+3s+2r = {expected} "
                    f"for (g,s,r)=({g},{s},{r})"
                )
            pend = len(self.pending)
            if pend != r:
                problems.append(f"pending edge count {pend} does not match declared r={r}")
            if len(centers) != s:
                problems.append(f"face count {len(centers)} does not match declared s={s}")
        form = self.skew_form()
        for c in centers:
            if any(form.row(c)):
                problems.append("face center fails to commute with the torus")
        return problems

    def __repr__(self):
        return f"FatGraph(edges={self.edges}, vertices={self.vertices})"


# -- paths ----------------------------------------------------------------


class PathWord:
    """A written matrix word: steps are ('edge', name), ('turn', 'L'|'R') or
    ('orb', name, k); the leftmost step is the final leg of the path."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = tuple(tuple(s) for s in steps)
        for i, s in enumerate(self.steps):
            if s[0] not in ("edge", "turn", "orb"):
                raise ValueError(f"unknown step kind {s[0]!r}")
            if s[0] == "orb" and s[2] < 1:
                raise ValueError("winding count must be at least 1")
            if (s[0] == "turn") != (i % 2 == 1) or len(self.steps) % 2 == 0:
                raise ValueError("a word alternates traversals and turns, "
                                 "and starts and ends with a traversal")

    def __repr__(self):
        bits = []
        for s in self.steps:
            if s[0] == "edge":
                bits.append(f"X_{s[1]}")
            elif s[0] == "turn":
                bits.append(s[1])
            else:
                bits.append(f"[X_{s[1]} F^{s[2]} X_{s[1]}]")
        return " ".join(bits)


def compile_path(graph, path, form):
    """Left-to-right product of edge, turn and winding factors over
    ``form``, the skew form of ``graph``, after checking the word as one
    walk against the ribbon structure; the factors are those of
    :func:`qshear.matrices.word_action`.  For closed paths the caller takes
    the trace of the full cyclic word.

    The walk starts from each slot of the first leg (the right end of the
    word); at each turn T the next leg must be the edge at ``turn(slot,
    T)``, and the walk goes on from ``across`` that slot.  A refused word
    names the turn where the walk that went furthest stopped.
    """
    steps = path.steps
    if not steps:
        raise ValueError("empty path")
    for step in steps[::2]:
        if step[0] == "orb" and not graph.is_pending(step[1]):
            raise ValueError(f"winding at non-pending edge {step[1]!r}")
    legs, turns = [s[1] for s in steps[::-2]], [s[1] for s in steps[-2::-2]]
    for leg in legs:
        if leg not in graph._incidence:
            raise ValueError(f"path names unknown edge {leg!r}")
    k = max((_walked(graph, slot, legs, turns) for slot in graph.incidence(legs[0])), default=0)
    if k < len(turns):
        raise ValueError(
            f"turn {turns[k]} from {legs[k]!r} to {legs[k + 1]!r} "
            "is inconsistent with the ribbon structure"
        )
    return word_matrix(form, steps, graph.weight)


def _walked(graph, slot, legs, turns):
    """How many turns of a word (legs and turns in path order) the walk
    that arrives at ``slot`` along the first leg passes."""
    for k, (token, leg) in enumerate(zip(turns, legs[1:])):
        slot = graph.turn(slot, token)
        if graph.edge_at(slot) != leg:
            return k
        slot = graph.across(slot)
    return len(turns)


def monodromy_path(graph, root, target):
    """Written word for the open segment root -> around target -> root.

    The root is a pending edge or a spectator stub, the target a pending
    edge; the route is the first one a breadth-first walk over arrival
    slots finds through internal edges (on a tree spine, the unique one).
    """
    if len(graph.incidence(root)) != 1 or not graph.is_pending(target):
        raise ValueError("monodromy paths run from a pending edge or stub to a pending edge")
    if root == target:
        raise ValueError("root and target must differ")
    (start,), (goal,) = graph.incidence(root), graph.incidence(target)
    # prev maps an arrival slot to the arrival slot and turn it was reached by
    prev, queue = {start: None}, [start]
    for slot in queue:
        for token in "LR":
            out = graph.turn(slot, token)
            if out == goal:
                # the way out in written order, read back from the target
                back = []
                while slot is not None:
                    back += [("turn", token), ("edge", graph.edge_at(slot))]
                    slot, token = prev[slot] or (None, None)
                flip = {"L": "R", "R": "L"}
                there = [("turn", flip[s[1]]) if s[0] == "turn" else s for s in reversed(back)]
                return PathWord(there + [("orb", target, 1)] + back)
            far = graph.across(out)
            if far != out and far not in prev:
                prev[far] = (slot, token)
                queue.append(far)
    raise ValueError(f"no path between {root!r} and {target!r}")


# -- bundled graphs -----------------------------------------------------------


def spine_graph_an(n):
    """Caterpillar spine with root pending edge S (weight parameter omega0)
    and n ordered order-2 pending edges Z1..Zn.

    For n = 2 this is the two-vertex local picture with a spectator stub W
    at the root vertex; for n >= 3 the last point shares the root vertex
    and the graph is the tree spine of a disc with n+1 orbifold points.
    """
    if n < 2:
        raise ValueError("need at least two orbifold points besides the root")
    pend = {"S": PendingInfo.from_param("omega0")}
    for i in range(1, n + 1):
        pend[f"Z{i}"] = PendingInfo.from_order(2)
    if n == 2:
        edges = ("S", "X1", "Z1", "Z2", "W")
        vertices = (("X1", "S", "W"), ("X1", "Z2", "Z1"))
        return FatGraph(edges, vertices, pend, meta=None)
    xs = tuple(f"X{i}" for i in range(1, n - 1))
    edges = ("S",) + xs + tuple(f"Z{i}" for i in range(1, n + 1))
    vertices = [("X1", "S", f"Z{n}")]
    for i in range(1, n - 2):
        vertices.append((f"X{i + 1}", f"Z{i}", f"X{i}"))
    vertices.append((f"X{n - 2}", f"Z{n - 1}", f"Z{n - 2}"))
    return FatGraph(edges, tuple(vertices), pend, meta=(0, 1, n + 1))


def pvi_graph():
    """One-vertex graph for the four-point sphere: pending Y, Z carry the
    second and first orbifold weights and X is the spectator leg toward the
    root."""
    pend = {
        "Y": PendingInfo.from_param("omega2"),
        "Z": PendingInfo.from_param("omega1"),
    }
    return FatGraph(("X", "Y", "Z"), (("X", "Y", "Z"),), pend, meta=None)


# -- graph-level mutation moves ------------------------------------------------


# Flip shift sign of each role in flip_roles/pending_flip_roles order.
ROLE_SIGNS = (+1, -1, +1, -1)


def _neighbours(graph, slots):
    """The edges after and before each slot, in that order."""
    return tuple(graph.edge_at(graph.turn(slot, t)) for slot in slots for t in "LR")


def flip_roles(graph, edge):
    """The four surrounding edges of an internal edge, by role.

    Returns (A, B, C, D): A/B are the cyclic successor/predecessor at the
    first endpoint, C/D at the second.  A and C receive the positive
    shift under the flip, B and D the negative one (ROLE_SIGNS).
    """
    slots = graph.incidence(edge)
    if len(slots) != 2:
        raise ValueError(f"cannot flip non-internal edge {edge!r}")
    if slots[0][0] == slots[1][0]:
        raise ValueError(f"cannot flip loop edge {edge!r}")
    return _neighbours(graph, slots)


def flip_graph(graph, edge):
    """Whitehead move on an internal edge; returns (new_graph, roles)."""
    a, b, c, d = flip_roles(graph, edge)
    (vu, _), (vv, _) = graph.incidence(edge)
    new_vertices = list(graph.vertices)
    new_vertices[vu] = (edge, d, a)
    new_vertices[vv] = (edge, b, c)
    return graph.replace_vertices(tuple(new_vertices)), (a, b, c, d)


def pending_flip_roles(graph, edge):
    if not graph.is_pending(edge):
        raise ValueError(f"{edge!r} is not a pending edge")
    return _neighbours(graph, graph.incidence(edge))


def pending_flip_graph(graph, edge):
    """Pending-edge move; returns (new_graph, (A, B))."""
    a, b = pending_flip_roles(graph, edge)
    vi = graph.vertex_of_pending(edge)
    new_vertices = list(graph.vertices)
    new_vertices[vi] = (a, edge, b)
    return graph.replace_vertices(tuple(new_vertices)), (a, b)


# -- text format ------------------------------------------------------------


def graph_to_dict(graph):
    pending = {}
    for e, info in graph.pending.items():
        if info.p is not None:
            pending[e] = {"p": info.p}
        else:
            name = None
            for (_, params), val in info.weight.items():
                if len(params) == 1 and params[0][1] == 1 and val == 1:
                    name = params[0][0]
            if name is None:
                raise ValueError(f"pending weight of {e!r} is not a plain parameter")
            pending[e] = {"param": name}
    out = {
        "edges": list(graph.edges),
        "vertices": [list(v) for v in graph.vertices],
        "pending": pending,
    }
    if graph.meta is not None:
        g, s, r = graph.meta
        out["meta"] = {"g": g, "s": s, "r": r}
    return out


def _name_list(value, what):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"{what} must be a list of edge names")
    return value


def _integer(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer")
    return value


MAX_GRAPH_EDGES = 256  # validation builds an n x n skew form in Python lists


def graph_from_dict(data):
    """Build a FatGraph from its JSON document; any malformed field, of a
    wrong type included, raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("graph document must be a JSON object")
    allowed = {"edges", "vertices", "pending", "meta"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown graph fields: {sorted(unknown)}")
    if "edges" not in data or "vertices" not in data:
        raise ValueError("graph document needs 'edges' and 'vertices'")
    edges = _name_list(data["edges"], "'edges'")
    if len(edges) > MAX_GRAPH_EDGES:
        raise ValueError(f"a graph file must have at most {MAX_GRAPH_EDGES} edges")
    if not isinstance(data["vertices"], list):
        raise ValueError("'vertices' must be a list of edge-name lists")
    vertices = [_name_list(v, "each vertex") for v in data["vertices"]]
    table = data.get("pending", {})
    if not isinstance(table, dict):
        raise ValueError("'pending' must be an object keyed by edge name")
    pending = {}
    for e, entry in table.items():
        keys = set(entry) if isinstance(entry, dict) else None
        if keys == {"param"} and isinstance(entry["param"], str):
            pending[e] = PendingInfo.from_param(entry["param"])
        elif keys == {"p"}:
            pending[e] = PendingInfo.from_order(_integer(entry["p"], f"order of {e!r}"))
        else:
            raise ValueError(
                f"pending entry for {e!r} must have exactly a string 'param' or an integer 'p'"
            )
    meta = None
    if "meta" in data:
        m = data["meta"]
        if not isinstance(m, dict) or set(m) != {"g", "s", "r"}:
            raise ValueError("meta must have exactly the fields g, s, r")
        meta = tuple(_integer(m[k], f"meta {k}") for k in ("g", "s", "r"))
    return FatGraph(edges, vertices, pending, meta)


def load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))


def save_graph(graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=1)
        fh.write("\n")
