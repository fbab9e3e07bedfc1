"""Five independent routes to the domain-wall six-vertex partition function,
cross-validated: explicit enumeration, a transfer dynamic program, the
Hankel determinant, the finite W-matrix determinant, and Fredholm/Nystrom
determinants of the associated integrable kernels.
"""

__version__ = "0.2.3"  # part of every cache key

from .enumeration import (EnumerationResult, LatticeConfig, config_iterator,
                          enumerate_configs, partition_dp)
from .errors import (ConvergenceWarning, PrecisionWarning, SingularParameterError,
                     SizeLimitError)
from .fredholm import KernelSpec, fredholm_det, full_partition_fredholm, trace_moments
from .hankel import (cot_derivative_poly, det_A_closed, hankel_H, matrix_A,
                     partition_hankel, z_tilde_via_ratio)
from .logscale import LogScaledValue, PrecisionContext
from .params import (ModelParams, VertexWeights, check_unitarity, qgroup_weights,
                     r_matrix, symmetric_weights)
from .wmatrix import (BetaGamma, full_partition, full_partition_gauss,
                      rational_z_tilde, w_matrix, w_matrix_gauss, z_tilde_det)

__all__ = [
    "BetaGamma", "ConvergenceWarning", "EnumerationResult", "KernelSpec",
    "LatticeConfig", "LogScaledValue", "ModelParams", "PrecisionContext",
    "PrecisionWarning", "SingularParameterError", "SizeLimitError",
    "VertexWeights", "check_unitarity", "config_iterator",
    "cot_derivative_poly", "det_A_closed", "enumerate_configs", "fredholm_det",
    "full_partition", "full_partition_fredholm", "full_partition_gauss",
    "hankel_H", "matrix_A", "partition_dp", "partition_hankel",
    "qgroup_weights", "r_matrix", "rational_z_tilde", "symmetric_weights",
    "trace_moments", "w_matrix", "w_matrix_gauss", "z_tilde_det",
    "z_tilde_via_ratio",
]
