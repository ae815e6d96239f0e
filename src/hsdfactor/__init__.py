"""Exact engine for factoring Laplace powers through higher-spin Dirac operators."""

from .weights import (
    Weight,
    box,
    bruhat_leq,
    canonical_path,
    enumerate_paths,
    is_dominant,
    manhattan_distance,
    path_changes,
    summand_weights,
    weight,
)
from .opalgebra import (
    FactorizationCertificate,
    OperatorExpr,
    OperatorWord,
    certificate_reexpands,
    expand_laplace_power,
    normal_form,
    normalization_sign,
    path_operator,
    vanish_outside_box,
    verify_path_independence,
)
from .clifford import GammaRep, gamma_rep
from .polyspace import SpinorPoly, apply, homogeneous_basis, laplace, operator_matrix
from .repthy import (
    ProjectorSet,
    RealizedSpace,
    casimir_projectors,
    simplicial_monogenic_basis,
    weyl_dim,
)
from .hsd import (
    HsdOperator,
    explicit_hsd,
    generic_twistor_hsd,
    kernel_basis,
    polyharmonic_order,
    verify_factorization_numeric,
    verify_identities,
    verify_induction_dims,
)

__version__ = "0.1.0"
