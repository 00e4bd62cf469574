import random

import pytest

from qshear.coeffs import Coefficient
from qshear.fatgraph import FatGraph, PendingInfo
from qshear.torus import SkewForm, TorusElement


@pytest.fixture
def rng():
    return random.Random(20240229)


def random_skew_form(rng, n):
    beta = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-2, 2)
            beta[i][j] = v
            beta[j][i] = -v
    return SkewForm(tuple(f"g{i}" for i in range(n)), beta)


def random_monomial(rng, form):
    """A nonzero monomial W(u) t^k with a small integer coefficient."""
    du = [rng.randint(-2, 2) for _ in range(form.dim)]
    coeff = Coefficient.t_power(rng.randint(-8, 8), rng.choice((-2, -1, 1, 2)))
    return TorusElement.monomial(form, du, coeff)


def bigon_graph():
    """Two vertices joined by Z and e: flipping Z sees e as both its A and
    its C role, flip_roles(Z) = (e, a, e, b)."""
    return FatGraph(
        ("Z", "e", "a", "b"),
        (("a", "Z", "e"), ("b", "Z", "e")),
        {"a": PendingInfo.from_order(2), "b": PendingInfo.from_order(2)},
    )


def theta_graph():
    """The pair-of-pants theta graph: two vertices joined by A, B and C,
    three faces; one flip of A gives (A, B, B), (A, C, C), two loops."""
    return FatGraph(("A", "B", "C"), (("A", "B", "C"), ("A", "C", "B")), meta=(0, 3, 0))
