import json
import random
from functools import partial
from itertools import product

import pytest

from qshear.coeffs import Coefficient
from qshear.fatgraph import (
    FatGraph,
    PathWord,
    PendingInfo,
    compile_path,
    flip_graph,
    graph_from_dict,
    graph_to_dict,
    monodromy_path,
    pending_flip_graph,
    pvi_graph,
    spine_graph_an,
)
from qshear.matrices import AlgMatrix, edge_matrix, f_matrix, turn_matrix
from qshear.torus import ew

from conftest import bigon_graph, theta_graph


def test_an2_skew_form_quoted_relations():
    g = spine_graph_an(2)
    f = g.skew_form()
    # (X, Y, Z) of the figure are (X1, Z2, Z1) here
    assert f.bracket("X1", "S") == 1
    assert f.bracket("X1", "Z2") == 1
    assert f.bracket("Z2", "Z1") == 1
    assert f.bracket("Z1", "X1") == 1
    assert f.bracket("S", "Z2") == 0
    assert f.bracket("S", "Z1") == 0


def test_one_graph_hands_out_one_skew_form():
    """The form, and so its pairing-row memo, is built once per graph; an
    equal graph built apart has its own equal form."""
    g = spine_graph_an(3)
    assert g.skew_form() is g.skew_form()
    other = spine_graph_an(3).skew_form()
    assert other is not g.skew_form() and other == g.skew_form()


def test_single_vertex_cyclic_form():
    g = FatGraph(
        ("X", "Y", "Z"),
        (("X", "Y", "Z"),),
        {"Y": PendingInfo.from_order(2), "Z": PendingInfo.from_order(2)},
    )
    f = g.skew_form()
    assert f.bracket("X", "Y") == 1
    assert f.bracket("Y", "Z") == 1
    assert f.bracket("Z", "X") == 1


def test_double_contribution_entry():
    # two parallel edges between two vertices contribute twice
    g = FatGraph(
        ("e", "f", "a", "b"),
        (("e", "f", "a"), ("e", "f", "b")),
        {
            "a": PendingInfo.from_order(2),
            "b": PendingInfo.from_order(2),
        },
    )
    assert g.skew_form().bracket("e", "f") == 2


def test_skew_form_antisymmetric_range_random():
    rng = random.Random(13)
    for _ in range(100):
        nv = rng.randint(1, 4)
        nedges = 3 * nv
        names = [f"e{i}" for i in range(nedges)]
        slots = [n for n in names]
        rng.shuffle(slots)
        vertices = [tuple(slots[3 * k : 3 * k + 3]) for k in range(nv)]
        g = FatGraph(names, vertices)
        f = g.skew_form()
        for i in range(f.dim):
            for j in range(f.dim):
                assert f.beta[i][j] == -f.beta[j][i]
                assert -2 <= f.beta[i][j] <= 2


def test_centers_commute_everywhere():
    rng = random.Random(17)
    graphs = [spine_graph_an(n) for n in (2, 3, 4, 5)] + [pvi_graph()]
    for _ in range(50):
        nv = rng.randint(1, 3)
        names = [f"e{i}" for i in range(3 * nv)]
        slots = list(names)
        rng.shuffle(slots)
        graphs.append(FatGraph(names, [tuple(slots[3 * k : 3 * k + 3]) for k in range(nv)]))
    for g in graphs:
        f = g.skew_form()
        for c in g.center_elements():
            for i in range(f.dim):
                basis = tuple(2 if j == i else 0 for j in range(f.dim))
                assert f.pairing(c, basis) == 0, (g, c)


def test_face_count_matches_declared_holes():
    for n in (3, 4, 5):
        g = spine_graph_an(n)
        assert len(g.faces()) == g.meta[1]


def test_disc_center_counts_pending_twice():
    g = spine_graph_an(3)
    (center,) = g.center_elements()
    idx = {e: i for i, e in enumerate(g.edges)}
    # every edge of the single face is walked twice here: pendants out and
    # back, internal edges once per side
    for e in g.edges:
        assert center[idx[e]] == 4


def _directed_edge_faces(g):
    """Reference walk in the former vocabulary: directed edges (edge, k)
    heading toward attachment k, where k past the attachment list is a
    free end that the walk U-turns at."""
    nexts = {}
    for e in g.edges:
        slots = g.incidence(e)
        for k in (0, 1):
            if k >= len(slots):
                nexts[(e, k)] = (e, 0)
                continue
            out = g.turn(slots[k], "L")
            e2, far = g.edge_at(out), g.across(out)
            nexts[(e, k)] = (e2, 1 if far == out else g.incidence(e2).index(far))
    seen, faces = set(), []
    for d in nexts:
        cyc = []
        while d not in seen:
            seen.add(d)
            cyc.append(d)
            d = nexts[d]
        if cyc:
            faces.append(cyc)
    return faces


def _random_ribbon_graph(rng):
    """Up to three trivalent vertices whose slots are joined in pairs
    (loops included) or left as pending edges and spectator stubs."""
    nv = rng.randint(1, 3)
    slots = [(vi, pos) for vi in range(nv) for pos in range(3)]
    rng.shuffle(slots)
    ends, pending = [], {}
    while slots:
        name = f"e{len(ends)}"
        if len(slots) > 1 and rng.random() < 0.6:
            ends.append((name, slots[:2]))
            slots = slots[2:]
        else:
            ends.append((name, slots[:1]))
            slots = slots[1:]
            if rng.random() < 0.5:
                pending[name] = PendingInfo.from_order(rng.randint(2, 5))
    vertices = [[None] * 3 for _ in range(nv)]
    for name, at in ends:
        for vi, pos in at:
            vertices[vi][pos] = name
    edges = [name for name, _ in ends]
    rng.shuffle(edges)
    return FatGraph(edges, vertices, pending)


def test_slot_faces_follow_the_directed_edge_walk():
    """Slot cycles are the former directed-edge cycles with each U-turn
    read as its one arrival slot: same faces in the same order, each
    starting where it did, and the same centers; every slot lies in
    exactly one face."""
    rng = random.Random(25)
    graphs = [_random_ribbon_graph(rng) for _ in range(200)]
    graphs += [bigon_graph(), theta_graph(), FatGraph(("A", "B", "C"), (("A", "B", "B"), ("A", "C", "C")))]
    for g in graphs:
        old = _directed_edge_faces(g)
        faces = g.faces()
        assert [[g.incidence(e)[k] for e, k in face if k < len(g.incidence(e))] for face in old] == faces, g
        index = {e: i for i, e in enumerate(g.edges)}
        centers = []
        for face in old:
            du = [0] * len(g.edges)
            for e, _ in face:
                du[index[e]] += 2
            centers.append(tuple(du))
        assert g.center_elements() == centers, g
        walked = [slot for face in faces for slot in face]
        assert sorted(walked) == sorted(s for e in g.edges for s in g.incidence(e)), g


def test_an_unattached_edge_adds_no_face():
    """An edge on no vertex is reported as such, and has no slot to walk."""
    g = FatGraph(("A", "B", "C", "U"), theta_graph().vertices, meta=(0, 3, 0))
    assert len(g.faces()) == 3
    problems = g.validate()
    assert "edge 'U' is attached to no vertex" in problems
    assert not any("face count" in p for p in problems), problems


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_boundary_word_is_the_face_walk(n):
    """One winding per pending edge, never a traversal of one, and each
    internal edge traversed once per side."""
    from qshear.oracle import boundary_word_tokens

    g = spine_graph_an(n)
    word = boundary_word_tokens(g)
    for e in g.edges:
        if g.is_pending(e):
            assert word.count(("orb", e, 1)) == 1 and ("edge", e) not in word, word
        else:
            assert word.count(("edge", e)) == 2, word
    assert len(word) == len(g.pending) + 2 * (len(g.edges) - len(g.pending))


@pytest.mark.parametrize("graph", [pvi_graph, partial(spine_graph_an, 2)], ids=["pvi", "an2"])
def test_boundary_word_refuses_a_spectator_stub(graph):
    from qshear.oracle import boundary_word_tokens

    with pytest.raises(ValueError, match="orbifold data at stubs"):
        boundary_word_tokens(graph())


def test_edge_count_formula():
    g = spine_graph_an(4)
    gg, ss, rr = g.meta
    assert (gg, ss, rr) == (0, 1, 5)
    assert len(g.edges) == 6 * gg - 6 + 3 * ss + 2 * rr == 7
    assert g.validate() == []


def test_monodromy_words_match_figure():
    g = spine_graph_an(2)
    p1 = monodromy_path(g, "S", "Z1")
    assert p1.steps == (
        ("edge", "S"),
        ("turn", "L"),
        ("edge", "X1"),
        ("turn", "L"),
        ("orb", "Z1", 1),
        ("turn", "R"),
        ("edge", "X1"),
        ("turn", "R"),
        ("edge", "S"),
    )
    p2 = monodromy_path(g, "S", "Z2")
    assert p2.steps == (
        ("edge", "S"),
        ("turn", "L"),
        ("edge", "X1"),
        ("turn", "R"),
        ("orb", "Z2", 1),
        ("turn", "L"),
        ("edge", "X1"),
        ("turn", "R"),
        ("edge", "S"),
    )


def test_monodromy_path_roots_at_a_pending_edge_or_a_stub():
    """A root is a pending edge or a spectator stub, a target a pending
    edge; an internal root, a stub target and root == target are refused."""
    g = spine_graph_an(2)
    word = monodromy_path(g, "W", "Z1")
    assert word.steps[0] == word.steps[-1] == ("edge", "W")
    compile_path(g, word, g.skew_form())
    for root, target in (("X1", "Z1"), ("S", "W"), ("Z1", "Z1")):
        with pytest.raises(ValueError):
            monodromy_path(g, root, target)


def test_compiled_monodromy_entry():
    g = spine_graph_an(2)
    f = g.skew_form()
    m1 = compile_path(g, monodromy_path(g, "S", "Z1"), f)
    a1 = ew(f, {"X1": -1, "Z1": -1}) + ew(f, {"Z1": -1})
    assert m1[0, 0] == a1.scale(Coefficient.q_power(1))
    assert m1[1, 0] == ew(f, {"X1": -1, "Z1": -1, "S": -1})


def test_corner_word_validates():
    g = pvi_graph()
    f = g.skew_form()
    # single-turn corner fragment ... X_X L X_Z F X_Z L X_Y ... around the
    # orbifold point of the pending edge Z
    w = PathWord(
        [("edge", "X"), ("turn", "L"), ("orb", "Z", 1), ("turn", "L"), ("edge", "Y")]
    )
    compile_path(g, w, f)  # validates turns
    bad = PathWord(
        [("edge", "X"), ("turn", "R"), ("orb", "Z", 1), ("turn", "L"), ("edge", "Y")]
    )
    with pytest.raises(ValueError):
        compile_path(g, bad, f)


@pytest.mark.parametrize(
    "steps",
    [
        [("edge", "Q")],  # the only leg
        [("edge", "X1"), ("turn", "L"), ("edge", "Q")],  # the first leg, at the right end
        [("edge", "Q"), ("turn", "L"), ("edge", "X1")],  # a later leg
    ],
)
def test_a_leg_on_an_unknown_edge_is_named(steps):
    g = spine_graph_an(3)
    with pytest.raises(ValueError, match="unknown edge 'Q'"):
        compile_path(g, PathWord(steps), g.skew_form())


def test_a_word_alternates_traversals_and_turns():
    for steps in ([("edge", "X"), ("edge", "Y")], [("turn", "L"), ("edge", "X")],
                  [("edge", "X"), ("turn", "L")], [("edge", "X"), ("turn", "L"), ("turn", "R")]):
        with pytest.raises(ValueError, match="alternates traversals and turns"):
            PathWord(steps)


def _loop_word(a, t, b, t2, c):
    return PathWord([("edge", a), ("turn", t), ("edge", b), ("turn", t2), ("edge", c)])


def test_slot_primitives_at_a_loop_and_a_free_end():
    """The loop P of a hole vertex (Y, P, P) has two slots, each across
    from the other; the free end of Y is its own far end."""
    g = FatGraph(("Y", "P"), (("Y", "P", "P"),))
    assert [g.edge_at((0, k)) for k in range(3)] == ["Y", "P", "P"]
    assert g.turn((0, 2), "L") == (0, 0) and g.turn((0, 0), "R") == (0, 2)
    assert g.across((0, 1)) == (0, 2) and g.across((0, 2)) == (0, 1)
    assert g.across((0, 0)) == (0, 0)


def test_turns_at_a_perimeter_loop_read_each_end_of_the_loop():
    """At a hole vertex (Y, P, P) the route Y T P T Y round the loop
    compiles for T = L and T = R alike; a route that turns both ways comes
    back to P, not Y, and is refused at its second turn."""
    g = FatGraph(("Y", "P"), (("Y", "P", "P"),))
    f = g.skew_form()
    for t in "LR":
        compile_path(g, _loop_word("Y", t, "P", t, "Y"), f)
    for t, t2 in ("LR", "RL"):
        with pytest.raises(ValueError, match=f"turn {t} from 'P' to 'Y' is inconsistent"):
            compile_path(g, _loop_word("Y", t, "P", t2, "Y"), f)


def test_routes_round_the_loops_of_the_flipped_theta_compile():
    g, _ = flip_graph(theta_graph(), "A")
    assert g.vertices == (("A", "B", "B"), ("A", "C", "C"))
    for loop in "BC":
        compile_path(g, _loop_word("A", "L", loop, "L", "A"), g.skew_form())


# the successor (L) and predecessor (R) of each edge at the theta vertices
# (A, B, C) and (A, C, B), written out by hand
THETA_TURNS = (
    {"L": {"A": "B", "B": "C", "C": "A"}, "R": {"A": "C", "B": "A", "C": "B"}},
    {"L": {"A": "C", "C": "B", "B": "A"}, "R": {"A": "B", "C": "A", "B": "C"}},
)


@pytest.mark.parametrize("first", "ABC")
def test_theta_words_compile_exactly_when_they_are_paths(first):
    """Of the 36 words X_a T X_b T' X_first on the theta graph, the 8 paths
    compile and the rest are refused.  16 of the words pass a check of each
    turn on its own, at whichever vertex suits it: 8 of those are no path."""
    g = theta_graph()
    f = g.skew_form()
    paths = turnwise = 0
    for a, t, b, t2 in product("ABC", "LR", "ABC", "LR"):
        word = _loop_word(a, t, b, t2, first)
        is_path = any(
            THETA_TURNS[v][t2][first] == b and THETA_TURNS[1 - v][t][b] == a for v in (0, 1)
        )
        paths += is_path
        turnwise += all(
            any(THETA_TURNS[v][tok][x] == y for v in (0, 1))
            for x, tok, y in ((first, t2, b), (b, t, a))
        )
        if is_path:
            compile_path(g, word, f)
        else:
            with pytest.raises(ValueError, match="inconsistent with the ribbon structure"):
                compile_path(g, word, f)
    assert (paths, turnwise) == (8, 16)


def test_winding_collapse_in_path():
    g = pvi_graph()
    f = g.skew_form()
    # with weight w = 2cos(pi/p) the p-fold winding merely avoids the point
    g2 = FatGraph(
        g.edges,
        g.vertices,
        {"Y": PendingInfo.from_order(2), "Z": PendingInfo.from_order(3)},
    )
    f2 = g2.skew_form()
    looped = compile_path(
        g2,
        PathWord([("edge", "X"), ("turn", "L"), ("orb", "Z", 3), ("turn", "L"), ("edge", "Y")]),
        f2,
    )
    direct = compile_path(
        g2, PathWord([("edge", "X"), ("turn", "R"), ("edge", "Y")]), f2
    )
    assert (looped - direct).is_zero()


def test_pvi_words():
    g = pvi_graph()
    f = g.skew_form()
    m1 = compile_path(
        g,
        PathWord([("edge", "X"), ("turn", "L"), ("orb", "Z", 1), ("turn", "R"), ("edge", "X")]),
        f,
    )
    w1 = Coefficient.parameter("omega1")
    b1 = ew(f, {"X": 1, "Z": -1}) + ew(f, {"X": 1, "Z": 1}) + ew(f, {"X": 1}, w1)
    assert m1[0, 1] == -b1


def test_parameter_counting():
    # the chain with n points besides the root carries 2n independent
    # entry operators and 2(n+1)-3 edges; for n = 2 a spectator stub is
    # added so the quoted bracket table embeds
    for n in (3, 4, 5):
        g = spine_graph_an(n)
        assert len(g.edges) == 2 * (n + 1) - 3
    assert len(spine_graph_an(2).edges) == 5


def test_flip_graph_bracket_transform():
    g = spine_graph_an(4)
    f = g.skew_form()
    g2, roles = flip_graph(g, "X2")
    f2 = g2.skew_form()
    for name in roles:
        assert f2.bracket(name, "X2") == -f.bracket(name, "X2")
    g3, _ = flip_graph(g2, "X2")
    def normalize(vs):
        out = []
        for v in vs:
            rots = [tuple(v[i:] + v[:i]) for i in range(3)]
            out.append(min(rots))
        return sorted(out)
    assert normalize(g3.vertices) == normalize(g.vertices)


def test_pending_flip_graph_roundtrip():
    g = spine_graph_an(3)
    g2, (a, b) = pending_flip_graph(g, "S")
    assert {a, b} == {"X1", "Z3"}
    g3, _ = pending_flip_graph(g2, "S")
    assert sorted(g3.vertices) == sorted(g.vertices)


def test_graph_json_roundtrip(tmp_path):
    g = spine_graph_an(3)
    d = graph_to_dict(g)
    g2 = graph_from_dict(json.loads(json.dumps(d)))
    assert g2.edges == g.edges
    assert g2.vertices == g.vertices
    assert g2.meta == g.meta
    # each pending edge writes back the order or the parameter name it came
    # from: orders 2, 3 and 5 and a parameter other than the root's omega0
    changed = {"S": PendingInfo.from_param("lam"), "Z2": PendingInfo.from_order(3), "Z3": PendingInfo.from_order(5)}
    g = FatGraph(g.edges, g.vertices, dict(g.pending, **changed), g.meta)
    d = graph_to_dict(g)
    assert d["pending"] == {"S": {"param": "lam"}, "Z1": {"p": 2}, "Z2": {"p": 3}, "Z3": {"p": 5}}
    g2 = graph_from_dict(json.loads(json.dumps(d)))
    assert graph_to_dict(g2) == d
    assert {e: (i.weight, i.p, i.param) for e, i in g2.pending.items()} == {
        e: (i.weight, i.p, i.param) for e, i in g.pending.items()
    }


def test_graph_json_rejects_unknown_fields():
    d = graph_to_dict(spine_graph_an(3))
    d["extra"] = 1
    with pytest.raises(ValueError):
        graph_from_dict(d)
    d2 = graph_to_dict(spine_graph_an(3))
    d2["pending"]["Z1"] = {"param": "w", "p": 2}
    with pytest.raises(ValueError):
        graph_from_dict(d2)


def test_validate_reports_edge_count_violation():
    d = graph_to_dict(spine_graph_an(4))
    d["meta"]["r"] = 4
    g = graph_from_dict(d)
    problems = g.validate()
    assert any("6g-6+3s+2r" in p for p in problems)


def test_spine_rejects_small_n():
    with pytest.raises(ValueError):
        spine_graph_an(1)


def test_hole_boundary_trace_is_cosh_pair():
    # the symbolic trace of the all-left boundary word is a single t-power
    # times W(c/2) + W(-c/2) for the face center c; at q = 1 it is exactly
    # the 2cosh pair
    from qshear.matrices import AlgMatrix, f_matrix, turn_matrix
    from qshear.oracle import boundary_word_tokens
    from qshear.torus import TorusElement, commutative_shadow

    g = spine_graph_an(3)
    f = g.skew_form()
    mat = AlgMatrix.identity(f)
    for step in boundary_word_tokens(g):
        mat = mat.mul(turn_matrix(f, "L"))
        if step[0] == "edge":
            mat = mat.mul(edge_matrix(f, step[1]))
        else:
            x = edge_matrix(f, step[1])
            mat = mat.mul(x.mul(f_matrix(f, g.weight(step[1]))).mul(x))
    tr = mat.trace()
    (center,) = g.center_elements()
    half = tuple(x // 2 for x in center)
    assert set(tr.terms) == {half, tuple(-x for x in half)}
    coeffs = list(tr.terms.values())
    assert coeffs[0] == coeffs[1]
    shadow = commutative_shadow(f)
    want = TorusElement.monomial(shadow, half) + TorusElement.monomial(
        shadow, tuple(-x for x in half)
    )
    assert (tr.at_t_one(shadow) - want).is_zero()
