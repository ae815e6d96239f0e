"""Exact engine for factoring Laplace powers through higher-spin Dirac operators."""

from .weights import weight
from .opalgebra import certificate_reexpands, expand_laplace_power
from .hsd import verify_factorization_numeric

__version__ = "0.1.0"
