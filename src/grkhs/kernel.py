"""Anisotropic Gaussian kernel, shape-parameter sequences and Gram matrices.

The kernel is

    K_d(x, t) = exp(-sum_l gamma_l^2 (x_l - t_l)^2),

with one positive shape parameter per coordinate.  A :class:`ShapeSequence`
is the rule gamma_1, gamma_2, ... ; it is a rule rather than a stored array
so the same object can serve experiments that sweep the dimension.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ShapeSequence",
    "gaussian_weight",
    "kernel_eval",
    "cross_kernel",
    "gram_matrix",
    "initial_error",
]


class ShapeSequence:
    """Rule defining the shape parameters gamma_l of the Gaussian kernel.

    Construct through one of the classmethods:

    - ``isotropic(gamma)``: gamma_l = gamma for all l
    - ``power_law(c, alpha)``: gamma_l = c * l**(-alpha)
    - ``geometric(q)``: gamma_l = q**l with q in (0, 1)
    - ``explicit(values)``: a finite list, which fixes the dimension

    ``power_law`` with alpha = 0 coincides with ``isotropic(c)``.
    """

    def __init__(self, kind, params):
        self.kind = kind
        self.params = params

    @classmethod
    def isotropic(cls, gamma: float) -> "ShapeSequence":
        if not 0 < gamma < np.inf:
            raise ValueError(f"shape parameter must be positive, got {gamma}")
        return cls("isotropic", {"gamma": float(gamma)})

    @classmethod
    def power_law(cls, c: float, alpha: float) -> "ShapeSequence":
        if not 0 < c < np.inf:
            raise ValueError(f"power-law scale must be positive, got {c}")
        if not 0 <= alpha < np.inf:
            raise ValueError(f"power-law exponent must be >= 0, got {alpha}")
        return cls("power-law", {"c": float(c), "alpha": float(alpha)})

    @classmethod
    def geometric(cls, q: float) -> "ShapeSequence":
        if not 0 < q < 1:
            raise ValueError(f"geometric base must lie in (0, 1), got {q}")
        return cls("geometric", {"q": float(q)})

    @classmethod
    def explicit(cls, values) -> "ShapeSequence":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("explicit shape needs a nonempty 1-d list")
        if not np.all((vals > 0) & (vals < np.inf)):
            raise ValueError("all shape parameters must be positive")
        return cls("explicit", {"values": vals})

    def gamma(self, l: int) -> float:
        """Shape parameter of coordinate ``l`` (1-based)."""
        if l < 1:
            raise ValueError(f"coordinate index must be >= 1, got {l}")
        if self.kind == "isotropic":
            return self.params["gamma"]
        if self.kind == "power-law":
            return self.params["c"] * float(l) ** (-self.params["alpha"])
        if self.kind == "geometric":
            return self.params["q"] ** l
        vals = self.params["values"]
        if l > vals.size:
            raise ValueError(f"explicit shape has {vals.size} entries, asked for {l}")
        return float(vals[l - 1])

    def gammas(self, d: int) -> np.ndarray:
        """First ``d`` shape parameters as an array."""
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if self.kind == "isotropic":
            return np.full(d, self.params["gamma"])
        if self.kind == "explicit":
            vals = self.params["values"]
            if d > vals.size:
                raise ValueError(f"explicit shape has {vals.size} entries, asked for d={d}")
            return vals[:d].copy()
        # numpy's vectorized power may round differently from the scalar
        # pow of gamma(l) (it does on AVX-512 machines), so these stay scalar
        return np.array([self.gamma(l) for l in range(1, d + 1)])

    def __repr__(self):
        if self.kind == "isotropic":
            return f"ShapeSequence.isotropic({self.params['gamma']!r})"
        if self.kind == "power-law":
            return f"ShapeSequence.power_law({self.params['c']!r}, {self.params['alpha']!r})"
        if self.kind == "geometric":
            return f"ShapeSequence.geometric({self.params['q']!r})"
        return f"ShapeSequence.explicit({self.params['values'].tolist()!r})"


def gaussian_weight(points: np.ndarray) -> np.ndarray:
    """Density rho_d(t) = pi^(-d/2) exp(-||t||^2) of the reference measure.

    ``points`` has shape (..., d); the density is evaluated along the last
    axis.  Each coordinate has mean 0 and variance 1/2.
    """
    pts = np.asarray(points, dtype=float)
    d = pts.shape[-1]
    return np.pi ** (-d / 2) * np.exp(-np.sum(pts * pts, axis=-1))


def kernel_eval(shape: ShapeSequence, d: int, x, t) -> float:
    """Evaluate K_d(x, t) = exp(-sum gamma_l^2 (x_l - t_l)^2).

    ``x`` and ``t`` are points of shape (d,), or scalars for d = 1, with
    finite coordinates.  The value lies in (0, 1] and equals 1 exactly
    when x = t.
    """
    # each point as a one-row point set: a scalar becomes (1, 1) for d = 1
    x = _as_points(np.asarray(x, dtype=float)[None], d)
    t = _as_points(np.asarray(t, dtype=float)[None], d)
    g = shape.gammas(d)
    return float(np.exp(-np.sum((g * (x - t)) ** 2)))


def _as_points(points, d: int) -> np.ndarray:
    """Validated (n, d) float array of points; a 1-d array is a column for d = 1.

    An empty list gives a (0, d) array for any d; any other input must have
    d columns.  NaN or infinite coordinates raise ``ValueError``; the
    squared distances of such a point would be NaN.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape == (0,):
        return np.empty((0, d))
    if pts.ndim == 1:
        if d != 1:
            raise ValueError(f"1-d point array only valid for d=1, got d={d}")
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must have shape (n, {d}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


def cross_kernel(shape: ShapeSequence, d: int, a, b) -> np.ndarray:
    """Kernel matrix K[i, j] = K_d(a_i, b_j) between two point sets.

    ``a`` and ``b`` are (n_a, d) and (n_b, d) arrays (1-d for d = 1) with
    finite coordinates.  The squared weighted distances come from one matrix
    product, |g a_i|^2 + |g b_j|^2 - 2 (g a_i).(g b_j), clamped at 0.  The
    cancellation leaves an absolute error of about 1e-16 |g a_i|^2 in each,
    so for near-coincident sites away from the origin 1 - K is rounding
    noise (:func:`kernel_eval` takes exact differences).
    """
    g = shape.gammas(d)
    sa = _as_points(a, d) * g
    sb = sa if b is a else _as_points(b, d) * g
    d2 = (
        np.sum(sa * sa, axis=1)[:, None]
        + np.sum(sb * sb, axis=1)[None, :]
        - 2.0 * sa @ sb.T
    )
    np.maximum(d2, 0.0, out=d2)
    # in place: no second and third (n_a, n_b) array
    np.negative(d2, out=d2)
    return np.exp(d2, out=d2)


def gram_matrix(shape: ShapeSequence, d: int, points) -> np.ndarray:
    """Kernel Gram matrix of a point set.

    Parameters
    ----------
    points : array_like, shape (n, d)
        The data sites, nonempty and finite.  A 1-d array is accepted for
        d = 1.

    Returns
    -------
    ndarray, shape (n, n)
        :func:`cross_kernel` of the sites with themselves, symmetrized and
        with its diagonal set to exactly 1; positive semidefinite.
    """
    K = cross_kernel(shape, d, points, points)
    if K.size == 0:
        raise ValueError("point list must be nonempty")
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0)
    return K


def eigenvalue_ratio(gamma: float) -> float:
    """Common ratio omega of the geometric univariate eigenvalue sequence.

    omega = 2 gamma^2 / (1 + 2 gamma^2 + sqrt(1 + 4 gamma^2)), strictly
    increasing in gamma with values in (0, 1).
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"shape parameter must be positive, got {gamma}")
    g2 = float(gamma) * float(gamma)  # Python floats overflow to inf silently
    omega = 2.0 * g2 / (1.0 + 2.0 * g2 + math.sqrt(1.0 + 4.0 * g2))
    if not omega < 1.0:  # rounds to 1 past gamma ~ 1e16, NaN once gamma^2 overflows
        raise ValueError(f"shape parameter {gamma} too large for double precision")
    return np.float64(omega)


def _eigenvalue_ratios(gammas: np.ndarray) -> np.ndarray:
    """:func:`eigenvalue_ratio` of every entry, as one array.

    The same IEEE operations in the same order (sqrt is correctly rounded
    in both), so each entry is bit-equal to the scalar.  The first entry
    the scalar rejects raises the scalar's ValueError.
    """
    g = np.asarray(gammas, dtype=float)
    # like the scalar, let gamma^2 overflow to inf and inf / inf give NaN
    with np.errstate(over="ignore", invalid="ignore"):
        g2 = g * g
        omega = 2.0 * g2 / (1.0 + 2.0 * g2 + np.sqrt(1.0 + 4.0 * g2))
    ok = (g > 0) & (g < np.inf) & (omega < 1.0)
    if not ok.all():
        eigenvalue_ratio(g[np.argmin(ok)])  # raises for that entry
    return omega


def initial_error(shape: ShapeSequence, d: int) -> float:
    """Norm of the embedding into L2(rho_d), i.e. the error of the zero algorithm.

    Equals sqrt(prod_l lambda_1(gamma_l)) with lambda_1 = 1 - omega the
    largest univariate eigenvalue; always <= 1.
    """
    log_l1 = np.log1p(-_eigenvalue_ratios(shape.gammas(d)))
    return float(np.exp(0.5 * np.sum(log_l1)))
