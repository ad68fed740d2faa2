"""arithcx: desk-scale arithmetic complexes and automorphism experiments.

Two explicit objects are built and interrogated here: the clique complex
of a Cayley ball of PGL3(GF(16)) on the seven LSV generator matrices,
and the 6-regular tree spanned by the norm-5 integer quaternions with a
3-edge-coloring lifted from its Z/4Z quotient.  A small backtracking
engine counts the automorphisms of either one, preserving its chamber
colors whenever it has them.
"""

from .autoeng import (
    AutomorphismSet,
    PanelFlipReport,
    VertexMap,
    VertexPermutation,
    automorphism_order,
    automorphisms_fixing,
    is_isomorphic,
    panel_flip_check,
    verify_permutation,
)
from .errors import BudgetExceededError, CapExceededError, ResourceLimitError
from .gf2k import GF2, GF16, FieldSpec
from .projmat import (
    CayleyBall,
    GeneratorTable,
    ProjMatrix,
    cayley_ball,
    determinant,
    lsv_generators,
    projective_plane_orbit,
    symmetrize,
)
from .qlat import (
    ColorAutCount,
    ColoredTreeBall,
    Quaternion,
    QuotientGraph,
    canonical_rep,
    color_automorphism_count,
    free_group_check,
    lift_coloring,
    norm5_generators,
    quotient_graph,
    ray_flip,
)
from .scx import (
    Complex,
    PurityReport,
    chamber_count,
    clique_complex,
    color_chambers,
    fano_incidence_graph,
    induced_subcomplex,
    link,
    purity_report,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CapExceededError",
    "ResourceLimitError",
    "FieldSpec",
    "GF2",
    "GF16",
    "ProjMatrix",
    "GeneratorTable",
    "CayleyBall",
    "lsv_generators",
    "symmetrize",
    "cayley_ball",
    "determinant",
    "projective_plane_orbit",
    "Complex",
    "PurityReport",
    "clique_complex",
    "link",
    "induced_subcomplex",
    "chamber_count",
    "purity_report",
    "color_chambers",
    "fano_incidence_graph",
    "VertexMap",
    "VertexPermutation",
    "AutomorphismSet",
    "PanelFlipReport",
    "automorphisms_fixing",
    "automorphism_order",
    "is_isomorphic",
    "verify_permutation",
    "panel_flip_check",
    "Quaternion",
    "ColoredTreeBall",
    "QuotientGraph",
    "ColorAutCount",
    "norm5_generators",
    "canonical_rep",
    "free_group_check",
    "lift_coloring",
    "quotient_graph",
    "color_automorphism_count",
    "ray_flip",
    "__version__",
]
