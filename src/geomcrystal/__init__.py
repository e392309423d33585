"""Exact-arithmetic geometric crystals on unipotent subgroups of SL(n+1),
their ultra-discretization, and the free crystal of generalized Young
tableaux, with a machine-verification harness for the defining identities.
"""

from .ratfun import Q, RatFun, const, parse, var
from .slgroup import (
    MatRF,
    TorusElem,
    borel_embed,
    coroot,
    corner_minor,
    crystal_act,
    crystal_act_gauss,
    gauss_decompose,
    torus_weight,
    x_elem,
    y_elem,
)
from .charts import TorusPointA, TorusPointB
from .gyt import SharpElement, Tableau, etilde, ftilde, stilde
from .ud import TropExpr, chart_to_sharp, degree_oracle, tropicalize

__version__ = "0.1.0"

__all__ = [
    "Q",
    "RatFun",
    "const",
    "parse",
    "var",
    "MatRF",
    "TorusElem",
    "borel_embed",
    "coroot",
    "corner_minor",
    "crystal_act",
    "crystal_act_gauss",
    "gauss_decompose",
    "torus_weight",
    "x_elem",
    "y_elem",
    "TorusPointA",
    "TorusPointB",
    "SharpElement",
    "Tableau",
    "etilde",
    "ftilde",
    "stilde",
    "TropExpr",
    "chart_to_sharp",
    "degree_oracle",
    "tropicalize",
    "__version__",
]
