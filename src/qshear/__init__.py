"""Exact quantum-torus workbench for shear coordinates on fat graphs:
compiles geodesic paths into quantum matrix words and mechanically
verifies the flip, monodromy, R-matrix, braid and four-point-sphere
identity catalog.
"""

__version__ = "0.1.0"

from .coeffs import Coefficient
from .fatgraph import (
    FatGraph,
    PathWord,
    compile_path,
    load_graph,
    monodromy_path,
    pvi_graph,
    save_graph,
    spine_graph_an,
)
from .matrices import (
    AlgMatrix,
    edge_matrix,
    f_matrix,
    omega_commutant,
    r_matrix,
    scalar_tensor,
    tensor_embed,
    turn_matrix,
)
from .monodromy import (
    MonodromyRealization,
    an_realization,
    braid_apply,
    build_monodromy,
    geodesic_G,
    pvi_realization,
)
from .ore import OreElement, QDenominator, ore_zero_test
from .torus import SkewForm, TorusElement, even_check

__all__ = [
    "AlgMatrix",
    "Coefficient",
    "FatGraph",
    "MonodromyRealization",
    "OreElement",
    "PathWord",
    "QDenominator",
    "SkewForm",
    "TorusElement",
    "an_realization",
    "braid_apply",
    "build_monodromy",
    "compile_path",
    "edge_matrix",
    "even_check",
    "f_matrix",
    "geodesic_G",
    "load_graph",
    "monodromy_path",
    "omega_commutant",
    "ore_zero_test",
    "pvi_graph",
    "pvi_realization",
    "r_matrix",
    "save_graph",
    "scalar_tensor",
    "spine_graph_an",
    "tensor_embed",
    "turn_matrix",
]
