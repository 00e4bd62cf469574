"""Classical mutation moves on shear coordinates.

Flips act by (A,B,C,D,Z) -> (A+phi(Z), B-phi(-Z), C+phi(Z), D-phi(-Z), -Z)
with phi(z) = log(1+exp(z)); pending edges use the trinomial shift.  The
matrix identities behind them are verified exactly over the commutative
torus: a ~ shear carrying log T contributes a square root of T only as a
scalar, so each side is T**(-m/2) times a matrix over the torus.
"""

from qshear.fatgraph import spine_graph_an
from qshear.flips import CLASSICAL_FLIP_IDENTITIES, verify_flip_matrix_identity_classical
from qshear.oracle import (
    ShearState,
    classical_flip,
    classical_pending_flip,
    pentagon_deviation,
)

for ident in CLASSICAL_FLIP_IDENTITIES:
    print(f"{ident:14s} exact:", verify_flip_matrix_identity_classical(ident))

g = spine_graph_an(4)
state = ShearState(g, {e: 0.3 * i for i, e in enumerate(g.edges)}, {"omega0": 0.0})

flipped = classical_flip(state, "X2")
print("\nshear of Z1 before/after flipping X2:",
      round(state.values["Z1"], 4), "->", round(flipped.values["Z1"], 4))
back = classical_flip(flipped, "X2")
print("flip is an involution:",
      max(abs(back.values[e] - state.values[e]) for e in g.edges) < 1e-14)

rooted = classical_pending_flip(state, "S")
print("pending flip negates the pending shear:",
      rooted.values["S"] == -state.values["S"])

dev = pentagon_deviation(g, "X1", "X2", samples=100)
print(f"pentagon (five alternating flips) max deviation: {dev:.2e}")
