"""Anisotropic Gaussian kernel, shape-parameter sequences and Gram matrices.

The kernel is

    K_d(x, t) = exp(-sum_l gamma_l^2 (x_l - t_l)^2),

with one positive shape parameter per coordinate.  A :class:`ShapeSequence`
is the rule gamma_1, gamma_2, ... ; it is a rule rather than a stored array
so the same object can serve experiments that sweep the dimension.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "ShapeSequence",
    "gaussian_weight",
    "kernel_eval",
    "cross_kernel",
    "gram_matrix",
    "initial_error",
    "eigenvalue_ratio",
]


class ShapeSequence:
    """Rule defining the shape parameters gamma_l of the Gaussian kernel.

    Construct through one of the classmethods:

    - ``isotropic(gamma)``: gamma_l = gamma for all l
    - ``power_law(c, alpha)``: gamma_l = c * l**(-alpha)
    - ``geometric(q)``: gamma_l = q**l with q in (0, 1)
    - ``explicit(values)``: a finite list, which fixes the dimension

    ``power_law`` with alpha = 0 coincides with ``isotropic(c)``.

    The constructors accept any positive finite gamma, and the kernel
    (``kernel_eval``, ``cross_kernel``, ``gram_matrix``) works on every such
    shape.  The spectral routes (the closed-form spectrum and merge, the
    n(eps, d) count and the Nystrom oracle) go through the eigenvalue-ratio
    gate, which rejects a gamma past about 1e16, where omega rounds to 1
    ("shape parameter 1e+17 too large for double precision").
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

    def gammas(self, d: int) -> np.ndarray:
        """First ``d`` shape parameters as a fresh array."""
        d = _at_least("dimension", d, 1)
        if self.kind == "isotropic":
            return np.full(d, self.params["gamma"])
        if self.kind == "explicit":
            vals = self.params["values"]
            if d > vals.size:
                raise ValueError(f"explicit shape has {vals.size} entries, asked for d={d}")
            return vals[:d].copy()
        # numpy's vectorized power may round differently from the scalar
        # pow (it does on AVX-512 machines), so these stay scalar
        if self.kind == "power-law":
            c, alpha = self.params["c"], self.params["alpha"]
            return np.array([c * float(l) ** -alpha for l in range(1, d + 1)])
        q = self.params["q"]
        return np.array([q**l for l in range(1, d + 1)])

    def __repr__(self):
        if self.kind == "isotropic":
            return f"ShapeSequence.isotropic({self.params['gamma']!r})"
        if self.kind == "power-law":
            return f"ShapeSequence.power_law({self.params['c']!r}, {self.params['alpha']!r})"
        if self.kind == "geometric":
            return f"ShapeSequence.geometric({self.params['q']!r})"
        return f"ShapeSequence.explicit({self.params['values'].tolist()!r})"


def _at_least(name: str, value, least: int) -> int:
    """``value`` as an int; ``ValueError`` unless an integer (a bool is not) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return int(value)


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
    return float(_exact_kernel(shape.gammas(d), x, t)[0, 0])


def _exact_kernel(g, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K[i, j] = exp(-sum_l (g_l (a_il - b_jl))^2) for validated (n_a, d) and (n_b, d) points.

    Exact differences keep near-coincident points accurate, at the cost of
    an (n_a, n_b, d) temporary; :func:`cross_kernel` is the GEMM route.
    """
    return np.exp(-np.sum(((a[:, None, :] - b[None, :, :]) * g) ** 2, axis=-1))


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


# Bytes per row block of cross_kernel's elementwise pass: its one temporary
# (the norm sums of a block) stays this small.
_KERNEL_BLOCK_BYTES = 256 * 1024


def cross_kernel(shape: ShapeSequence, d: int, a, b) -> np.ndarray:
    """Kernel matrix K[i, j] = K_d(a_i, b_j) between two point sets.

    ``a`` and ``b`` are (n_a, d) and (n_b, d) arrays (1-d for d = 1) with
    finite coordinates.  The squared weighted distances come from one matrix
    product, |g a_i|^2 + |g b_j|^2 - 2 (g a_i).(g b_j), clamped at 0.  The
    cancellation leaves an absolute error of about 1e-16 |g a_i|^2 in each,
    so for near-coincident sites away from the origin 1 - K is rounding
    noise (:func:`kernel_eval` takes exact differences).
    """
    return _points_kernel(shape, d, _as_points(a, d), _as_points(b, d))


def _points_kernel(shape: ShapeSequence, d: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`cross_kernel` of (n_a, d) and (n_b, d) arrays already validated."""
    g = shape.gammas(d)
    sa, sb = a * g, b * g
    na, nb = np.sum(sa * sa, axis=1), np.sum(sb * sb, axis=1)
    # one product over all rows (row blocks of it move bits); the rest runs
    # in place, a row block at a time, so only the output is (n_a, n_b)
    K = 2.0 * sa @ sb.T
    rows = max(1, _KERNEL_BLOCK_BYTES // (K.itemsize * max(1, nb.size)))
    for i in range(0, K.shape[0], rows):
        d2 = K[i : i + rows]
        np.subtract(na[i : i + rows, None] + nb, d2, out=d2)
        np.maximum(d2, 0.0, out=d2)
        np.negative(d2, out=d2)
        np.exp(d2, out=d2)
    return K


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
    _symmetrize(K)
    np.fill_diagonal(K, 1.0)
    return K


def _symmetrize(K: np.ndarray) -> None:
    """K <- (K + K^T) * 0.5 in place, one pair of square blocks at a time.

    Each entry gets (K_ij + K_ji) * 0.5, the value 0.5 * (K + K.T) gives
    it, so the bits are the same; the one temporary is a block of at most
    _KERNEL_BLOCK_BYTES, not a second n x n array.
    """
    n = K.shape[0]
    b = int((_KERNEL_BLOCK_BYTES // K.itemsize) ** 0.5)
    for i in range(0, n, b):
        for j in range(i, n, b):
            upper, lower = K[i : i + b, j : j + b], K[j : j + b, i : i + b]
            s = upper + lower.T
            s *= 0.5
            upper[...] = s
            lower[...] = s.T


def eigenvalue_ratio(gamma: float) -> float:
    """Common ratio omega of the geometric univariate eigenvalue sequence.

    omega = 2 gamma^2 / (1 + 2 gamma^2 + sqrt(1 + 4 gamma^2)), strictly
    increasing in gamma with values in (0, 1); the one entry of
    :func:`_eigenvalue_ratios`.
    """
    return _eigenvalue_ratios(np.array([gamma], dtype=float))[0]


def _eigenvalue_ratios(gammas: np.ndarray) -> np.ndarray:
    """:func:`eigenvalue_ratio` of every entry, as one array.

    The gate on shape parameters: the first entry that is not positive and
    finite, or whose ratio rounds to 1 (past gamma ~ 1e16) or is NaN (once
    gamma^2 overflows), raises ``ValueError``.
    """
    g = np.asarray(gammas, dtype=float)
    # let gamma^2 overflow to inf and inf / inf give NaN, which the gate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        g2 = g * g
        omega = 2.0 * g2 / (1.0 + 2.0 * g2 + np.sqrt(1.0 + 4.0 * g2))
    ok = (g > 0) & (g < np.inf) & (omega < 1.0)
    if not ok.all():
        bad = g[np.argmin(ok)]
        if not 0 < bad < np.inf:
            raise ValueError(f"shape parameter must be positive, got {bad}")
        raise ValueError(f"shape parameter {bad} too large for double precision")
    return omega


def _log_spectrum(shape: ShapeSequence, d: int):
    """(base, log_ratio): log of the leading tensor eigenvalue and per-coordinate log ratios.

    The d-variate eigenvalues are exp(base + sum_l (k_l - 1) log_ratio_l),
    k_l >= 1.  A ratio that underflowed to 0 has log ratio -inf, so the cost
    -log_ratio of a power on that coordinate is +inf: every power above 1
    there is a zero eigenvalue.  A power-law or geometric gamma that
    underflowed to exactly 0 gets ratio 0, as a tiny positive gamma does.
    """
    return _log_spectra(shape, [d])[0]


def _log_spectra(shape: ShapeSequence, ds) -> list:
    """[_log_spectrum(shape, d) for d in ds], from one spectrum of the largest d.

    Every d is checked to be an integer >= 1 and the shape is read up to the
    largest, both before anything else.  The ratios and log1p(-omega_l) of
    the first d coordinates do not depend on the larger d, so row d reads
    their prefix, and its base is np.sum over the prefix: the same pairwise
    sum of the same values, bit for bit.
    """
    ds = [_at_least("dimension", d, 1) for d in ds]
    g = shape.gammas(max(ds))
    zero = g == 0.0
    ratios = np.zeros(g.size)
    ratios[~zero] = _eigenvalue_ratios(g[~zero])
    with np.errstate(divide="ignore"):
        log_ratio = np.log(ratios)
    log1p = np.log1p(-ratios)
    return [(float(np.sum(log1p[:d])), log_ratio[:d]) for d in ds]


def initial_error(shape: ShapeSequence, d: int) -> float:
    """Norm of the embedding into L2(rho_d), i.e. the error of the zero algorithm.

    Equals sqrt(prod_l lambda_1(gamma_l)) with lambda_1 = 1 - omega the
    largest univariate eigenvalue; always <= 1.
    """
    return float(np.exp(0.5 * _log_spectrum(shape, d)[0]))
