import importlib

import grkhs

MODULES = ["errors", "kernel", "quadrature", "spectrum", "algorithms", "complexity"]

PUBLIC_NAMES = {
    "__version__",
    "ComplexityReport",
    "DecayRate",
    "EigenProjector",
    "ErrorSequence",
    "EvaluationOverflowError",
    "MultiIndex",
    "QuadratureRule",
    "RateFit",
    "ResourceLimitError",
    "ShapeSequence",
    "SplineModel",
    "TensorEigenList",
    "UnivariateSpectrum",
    "cross_kernel",
    "decay_rate_r",
    "eigen_projection",
    "eigenvalue_ratio",
    "error_sequence_all",
    "estimate_rate",
    "gauss_hermite",
    "gaussian_weight",
    "gram_matrix",
    "info_complexity",
    "info_complexity_row",
    "initial_error",
    "integrate",
    "kernel_eval",
    "max_enumeration",
    "mercer_check",
    "minimal_error_all",
    "nystrom_eigs",
    "power_function",
    "quasipoly_exponent",
    "spline_fit",
    "spline_worst_case_error",
    "stream_tensor_eigenvalues",
    "tensor_eigenfunctions",
    "tensor_log_eigenvalue",
    "tensor_rule",
    "top_n_tensor_eigenvalues",
    "tractability_probe",
    "univariate_spectrum",
}


def test_package_exports_each_module_all():
    names = grkhs.__all__
    assert len(names) == len(set(names))
    modules = [importlib.import_module(f"grkhs.{m}") for m in MODULES]
    assert names == ["__version__"] + [n for mod in modules for n in mod.__all__]
    assert set(names) == PUBLIC_NAMES
    assert all(hasattr(grkhs, name) for name in names)


def test_star_import_binds_names_once_missing_from_module_lists():
    for module, name in [("kernel", "eigenvalue_ratio"), ("algorithms", "tensor_eigenfunctions")]:
        scope = {}
        exec(f"from grkhs.{module} import *", scope)
        assert scope[name] is getattr(grkhs, name)
