"""Approximation algorithms and their worst-case errors.

Two algorithms are implemented: the truncated eigenfunction projection,
which is optimal when arbitrary linear functionals may be observed, and
the minimal-norm kernel interpolant (spline) for function-value data,
together with evaluators for their worst-case L2(rho_d) errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .kernel import ShapeSequence, gram_matrix, initial_error, kernel_eval
from .quadrature import _nystrom_matrix, gauss_hermite, tensor_rule
from .spectrum import (
    MultiIndex,
    TensorEigenList,
    top_n_tensor_eigenvalues,
    univariate_spectrum,
)

__all__ = [
    "EigenProjector",
    "eigen_projection",
    "minimal_error_all",
    "SplineModel",
    "spline_fit",
    "power_function",
    "spline_worst_case_error",
]

CLIP_FACTOR = 1e-12  # relative spectral clipping threshold for Gram solves


def _as_design(points, d: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.empty((0, d))
    if pts.ndim == 1:
        if d == 1:
            pts = pts[:, None]
        else:
            raise ValueError(f"1-d design only valid for d=1, got d={d}")
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"design must have shape (n, {d}), got {pts.shape}")
    return pts


def tensor_eigenfunctions(shape: ShapeSequence, d: int, indices, points) -> np.ndarray:
    """Evaluate product eigenfunctions at points.

    Parameters
    ----------
    indices : sequence of MultiIndex
    points : array_like, shape (N, d)

    Returns
    -------
    ndarray, shape (len(indices), N)
    """
    pts = _as_design(points, d)
    specs = [univariate_spectrum(g) for g in shape.gammas(d)]
    dense = [idx.dense() for idx in indices]
    max_j = [max(row[l] for row in dense) for l in range(d)] if dense else [1] * d
    per_coord = [specs[l].eigenfunctions(max_j[l], pts[:, l]) for l in range(d)]
    out = np.ones((len(dense), pts.shape[0]))
    for r, row in enumerate(dense):
        for l in range(d):
            out[r] *= per_coord[l][row[l] - 1]
    return out


@dataclass
class EigenProjector:
    """Truncated projection onto the leading tensor eigenfunctions.

    ``coefficients[k]`` is the L2(rho_d) inner product of the target with
    the k-th basis function; evaluation sums coefficient * eigenfunction.
    """

    shape: ShapeSequence
    d: int
    basis: TensorEigenList
    coefficients: np.ndarray

    @property
    def n(self) -> int:
        return len(self.basis)

    def __call__(self, points) -> np.ndarray:
        pts = _as_design(points, self.d)
        funcs = tensor_eigenfunctions(self.shape, self.d, self.basis.indices, pts)
        return self.coefficients @ funcs


def eigen_projection(shape: ShapeSequence, d: int, n: int, f, m: int = 64) -> EigenProjector:
    """Project f onto the n leading eigenfunctions of the tensor operator.

    ``f`` may be a callable on (N, d) point arrays, in which case the
    coefficients are computed by tensor Gauss-Hermite quadrature (d <= 4),
    or a mapping from dense multi-index tuples to eigen-coefficients, in
    which case they are read off exactly and any d is allowed.
    """
    basis = top_n_tensor_eigenvalues(shape, d, n)
    if callable(f):
        pts, w = tensor_rule(d, m)
        funcs = tensor_eigenfunctions(shape, d, basis.indices, pts)
        vals = np.asarray(f(pts), dtype=float)
        coef = funcs @ (w * vals)
    else:
        table = {tuple(int(v) for v in key): float(val) for key, val in f.items()}
        coef = np.array([table.get(idx.dense(), 0.0) for idx in basis.indices])
    return EigenProjector(shape=shape, d=d, basis=basis, coefficients=coef)


def minimal_error_all(shape: ShapeSequence, d: int, n: int) -> float:
    """Minimal worst-case error with n arbitrary linear functionals.

    Equals the square root of the (n+1)-st largest tensor eigenvalue; for
    n = 0 this is the initial error (the norm of the embedding).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return initial_error(shape, d)
    top = top_n_tensor_eigenvalues(shape, d, n + 1)
    return float(np.exp(0.5 * top.log_values[-1]))


@dataclass
class SplineModel:
    """Fitted minimal-norm kernel interpolant."""

    shape: ShapeSequence
    d: int
    design: np.ndarray
    coefficients: np.ndarray
    clip: float

    def __call__(self, points) -> np.ndarray:
        pts = _as_design(points, self.d)
        if self.design.shape[0] == 0:
            return np.zeros(pts.shape[0])
        kx = _cross_kernel(self.shape, self.d, pts, self.design)
        return kx @ self.coefficients


def _cross_kernel(shape, d, a, b) -> np.ndarray:
    g = shape.gammas(d)
    sa, sb = a * g, b * g
    d2 = (
        np.sum(sa * sa, axis=1)[:, None]
        + np.sum(sb * sb, axis=1)[None, :]
        - 2.0 * sa @ sb.T
    )
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2)


def _gram_pinv_factors(shape, d, design):
    """Eigendecomposition of the Gram matrix with small eigenvalues clipped.

    Returns (U, inv) with pseudo-inverse U diag(inv) U^T; eigenvalues below
    CLIP_FACTOR times the largest are treated as exact zeros, which is the
    minimal-Euclidean-norm convention for rank-deficient systems.
    """
    K = gram_matrix(shape, d, design)
    ev, U = np.linalg.eigh(K)
    tau = CLIP_FACTOR * ev[-1]
    inv = np.where(ev > tau, 1.0 / np.where(ev > tau, ev, 1.0), 0.0)
    return U, inv, tau


def spline_fit(shape: ShapeSequence, d: int, design, y) -> SplineModel:
    """Fit the minimal-norm interpolant to data y at the design sites.

    The Gram system K c = y is solved through its symmetric
    eigendecomposition with relative spectral clipping, so coincident or
    nearly coincident sites yield the minimal-Euclidean-norm coefficient
    vector instead of failing.
    """
    pts = _as_design(design, d)
    y = np.asarray(y, dtype=float)
    if pts.shape[0] == 0:
        raise ValueError("design must be nonempty")
    if y.shape != (pts.shape[0],):
        raise ValueError(f"data must have shape ({pts.shape[0]},), got {y.shape}")
    U, inv, tau = _gram_pinv_factors(shape, d, pts)
    c = U @ (inv * (U.T @ y))
    return SplineModel(shape=shape, d=d, design=pts, coefficients=c, clip=tau)


def power_function(shape: ShapeSequence, d: int, design, x) -> np.ndarray:
    """Pointwise worst-case error of the spline on the given design.

    Returns sqrt(max(0, K(x,x) - k(x)^T K^+ k(x))), which is 0 at the data
    sites and 1 for the empty design (the kernel has unit diagonal).
    Accepts a single point or an (N, d) batch; always returns an array.
    """
    pts = _as_design(design, d)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim == 1 and x.size == d:
        xb = x[None, :]
    else:
        xb = _as_design(x, d)
    if pts.shape[0] == 0:
        return np.ones(xb.shape[0])
    U, inv, _ = _gram_pinv_factors(shape, d, pts)
    kx = _cross_kernel(shape, d, xb, pts)
    proj = kx @ U
    quad = np.sum(proj * proj * inv[None, :], axis=1)
    return np.sqrt(np.maximum(0.0, 1.0 - quad))


def spline_worst_case_error(
    shape: ShapeSequence, d: int, design, m: int, method: str = "spectral"
) -> float:
    """Worst-case L2(rho_d) error of the spline over the unit ball.

    Discretizes the power kernel G(x, t) = K(x, t) - k(x)^T K^+ k(t) on
    the tensor Gauss-Hermite grid of N = m^d nodes with weights W and
    returns the square root of the largest eigenvalue of the weighted
    matrix diag(sqrt(W)) G diag(sqrt(W)) (Nystrom estimate).  Because the
    kernel and the weight are products over coordinates, that matrix is

        A_1 (x) ... (x) A_d - C diag(inv) C^T,

    where A_l = diag(sqrt(w)) K_l diag(sqrt(w)) is the univariate Nystrom
    matrix of gamma_l on the m-point rule, C = diag(sqrt(W)) K(grid,
    design) U and U diag(inv) U^T is the clipped Gram pseudo-inverse.
    For N > 64 the largest eigenvalue comes from Lanczos on this operator
    without forming any N x N matrix: a product applies A_l along each
    grid axis and the rank-n correction, costing O(m^d (sum_l m + n))
    time and O(m^d n) memory.  For N <= 64 the matrix is formed from the
    same factors and solved densely.

    With ``method="trace"`` the cheap trace upper bound
    sqrt(integral of G(t, t)) is returned instead.
    """
    if method not in ("spectral", "trace"):
        raise ValueError(f"unknown method {method!r}")
    pts = _as_design(design, d)
    grid, w = tensor_rule(d, m)
    if method == "trace":
        diag = power_function(shape, d, pts, grid) ** 2
        return float(np.sqrt(max(0.0, np.dot(w, diag))))
    rule = gauss_hermite(m)
    factors = [_nystrom_matrix(g, rule.nodes, rule.weights) for g in shape.gammas(d)]
    N = w.size
    if pts.shape[0]:
        U, inv, _ = _gram_pinv_factors(shape, d, pts)
        # K(grid, design) U is rounded as in the power function before the
        # weights are applied: inv reaches 1/(CLIP_FACTOR lambda_max) and
        # would amplify a different rounding of it to about 1e-11
        C = np.sqrt(w)[:, None] * (_cross_kernel(shape, d, grid, pts) @ U)
    else:
        C, inv = np.empty((N, 0)), np.empty(0)
    if N <= 64:
        B = factors[0]
        for A in factors[1:]:
            B = np.kron(B, A)
        B = B - (C * inv[None, :]) @ C.T
        lam = float(np.linalg.eigvalsh(0.5 * (B + B.T))[-1])
    else:

        def matvec(v):
            x = np.reshape(v, (m,) * d)
            # contracting axis 0 and appending the result cycles the axes,
            # so after d products they are back in grid order
            for A in factors:
                x = np.tensordot(x, A, axes=(0, 0))
            return x.ravel() - C @ (inv * (C.T @ np.ravel(v)))

        op = scipy.sparse.linalg.LinearOperator((N, N), matvec=matvec, dtype=float)
        # fixed start vector keeps the Lanczos iteration deterministic
        v0 = np.full(N, N**-0.5)
        lam = float(
            scipy.sparse.linalg.eigsh(op, k=1, which="LA", tol=1e-12, v0=v0)[0][0]
        )
    return float(np.sqrt(max(0.0, lam)))
