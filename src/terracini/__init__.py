"""Exact-arithmetic toolkit for secant defects, osculating spaces and
curvilinear tangency on polynomially parametrized projective varieties.

All geometry reduces to exact rank computations over Q; randomized pieces
(general-point sampling, polynomial identity testing) are seeded and
report their witnesses; only the ``gamma15`` identity test carries an
error bound, the other verdicts are maxima over seeded samples.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .catalog import make_random_variety, make_segre, make_veronese
from .chart import (
    Chart,
    CurvilinearJet,
    load_chart,
    project_generic,
)
from .curvilinear import generic_speciality, tangent_along
from .gamma15 import (
    defect_pipeline,
    equivalence_audit,
    five_jet_rank,
    gamma15_identically_zero,
    gamma15_matrix,
    pi_constancy_check,
    pi_space,
)
from .secants import (
    LinearSpan,
    osc2_regular,
    osc_variety_dim,
    osculating_space,
    secant_defect,
    tangent_space,
)

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "CurvilinearJet",
    "KERNEL_BACKEND",
    "LinearSpan",
    "defect_pipeline",
    "equivalence_audit",
    "five_jet_rank",
    "gamma15_identically_zero",
    "gamma15_matrix",
    "generic_speciality",
    "load_chart",
    "make_random_variety",
    "make_segre",
    "make_veronese",
    "osc2_regular",
    "osc_variety_dim",
    "osculating_space",
    "pi_constancy_check",
    "pi_space",
    "project_generic",
    "secant_defect",
    "tangent_space",
]
