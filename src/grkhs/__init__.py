"""Worst-case approximation in Gaussian reproducing-kernel Hilbert spaces.

Kernel and Gram machinery, the closed-form spectrum of the Gaussian
integral operator, tensor eigenvalue enumeration by a pruned merge,
optimal and spline algorithms with worst-case error evaluators, and
information complexity / tractability diagnostics.  The ``grkhs``
console script exposes the experiment drivers.  The package exports
each module's ``__all__``, the one list of that module's public names.
"""

__version__ = "0.1.0"

from . import errors, kernel, quadrature, spectrum, algorithms, complexity
from .errors import *
from .kernel import *
from .quadrature import *
from .spectrum import *
from .algorithms import *
from .complexity import *

__all__ = [
    "__version__",
    *errors.__all__,
    *kernel.__all__,
    *quadrature.__all__,
    *spectrum.__all__,
    *algorithms.__all__,
    *complexity.__all__,
]
