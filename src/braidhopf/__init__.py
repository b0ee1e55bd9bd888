"""Exact additive deformations of braided Hopf *-algebras given by
normal-ordering presentations.

Everything is computed over the Gaussian rationals with a formal
deformation parameter t; no floating point anywhere.
"""

from .scalars import Scalar, TPoly
from .presentation import (AlgebraPresentation, PresentationError, Report,
                           parse_presentation, parse_psi)
from .algebra import Algebra, Tensor, tensor_product
from .braidtensor import braid_at, braided_product, comul, counit
from .deform import (Deformation, Functional, cocycle_defect, conv_exp,
                     convolve_fn, sesquilinearize, table_functional)
from .verify import (CHECK_IDS, HermitianMatrix, SchoenbergError,
                     fixture_path, psd_exact, q_presentation, qnogo_eval,
                     run_catalog, schoenberg_check)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraPresentation",
    "CHECK_IDS",
    "Deformation",
    "Functional",
    "HermitianMatrix",
    "PresentationError",
    "Report",
    "Scalar",
    "SchoenbergError",
    "TPoly",
    "Tensor",
    "braid_at",
    "braided_product",
    "cocycle_defect",
    "comul",
    "conv_exp",
    "convolve_fn",
    "counit",
    "fixture_path",
    "parse_presentation",
    "parse_psi",
    "psd_exact",
    "q_presentation",
    "qnogo_eval",
    "run_catalog",
    "schoenberg_check",
    "sesquilinearize",
    "table_functional",
    "tensor_product",
]
