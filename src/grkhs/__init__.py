"""Worst-case approximation in Gaussian reproducing-kernel Hilbert spaces.

Kernel and Gram machinery, the closed-form spectrum of the Gaussian
integral operator, tensor eigenvalue enumeration by a pruned merge,
optimal and spline algorithms with worst-case error evaluators, and
information complexity / tractability diagnostics.  The ``grkhs`` console script
exposes the experiment drivers.
"""

__version__ = "0.1.0"

from .errors import EvaluationOverflowError, ResourceLimitError
from .kernel import (
    ShapeSequence,
    cross_kernel,
    eigenvalue_ratio,
    gaussian_weight,
    gram_matrix,
    initial_error,
    kernel_eval,
)
from .quadrature import QuadratureRule, gauss_hermite, integrate, nystrom_eigs, tensor_rule
from .spectrum import (
    MultiIndex,
    TensorEigenList,
    UnivariateSpectrum,
    max_enumeration,
    mercer_check,
    stream_tensor_eigenvalues,
    tensor_log_eigenvalue,
    top_n_tensor_eigenvalues,
    univariate_spectrum,
)
from .algorithms import (
    EigenProjector,
    SplineModel,
    eigen_projection,
    minimal_error_all,
    power_function,
    spline_fit,
    spline_worst_case_error,
    tensor_eigenfunctions,
)
from .complexity import (
    ComplexityReport,
    DecayRate,
    ErrorSequence,
    RateFit,
    decay_rate_r,
    error_sequence_all,
    estimate_rate,
    info_complexity,
    info_complexity_row,
    quasipoly_exponent,
    tractability_probe,
)

__all__ = [
    "__version__",
    "EvaluationOverflowError",
    "ResourceLimitError",
    "ShapeSequence",
    "cross_kernel",
    "eigenvalue_ratio",
    "gaussian_weight",
    "gram_matrix",
    "initial_error",
    "kernel_eval",
    "QuadratureRule",
    "gauss_hermite",
    "integrate",
    "nystrom_eigs",
    "tensor_rule",
    "MultiIndex",
    "TensorEigenList",
    "UnivariateSpectrum",
    "max_enumeration",
    "mercer_check",
    "stream_tensor_eigenvalues",
    "tensor_log_eigenvalue",
    "top_n_tensor_eigenvalues",
    "univariate_spectrum",
    "EigenProjector",
    "SplineModel",
    "eigen_projection",
    "minimal_error_all",
    "power_function",
    "spline_fit",
    "spline_worst_case_error",
    "tensor_eigenfunctions",
    "ComplexityReport",
    "DecayRate",
    "ErrorSequence",
    "RateFit",
    "decay_rate_r",
    "error_sequence_all",
    "estimate_rate",
    "info_complexity",
    "info_complexity_row",
    "quasipoly_exponent",
    "tractability_probe",
]
