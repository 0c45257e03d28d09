"""Approximation algorithms and their worst-case errors.

Two algorithms are implemented: the truncated eigenfunction projection,
which is optimal when arbitrary linear functionals may be observed, and
the minimal-norm kernel interpolant (spline) for function-value data,
together with evaluators for their worst-case L2(rho_d) errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import ShapeSequence, _as_points, cross_kernel, gram_matrix, initial_error
from .quadrature import _nystrom_matrix, gauss_hermite, tensor_rule
from .spectrum import TensorEigenList, top_n_tensor_eigenvalues, univariate_spectrum

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
    pts = _as_points(points, d)
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

    def __call__(self, points) -> np.ndarray:
        funcs = tensor_eigenfunctions(self.shape, self.d, self.basis.indices, points)
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
    """Fitted minimal-norm kernel interpolant.

    ``design`` is a read-only copy of the (n, d) sites, ``clip`` the
    eigenvalue threshold of the Gram solve and ``rank`` the number of Gram
    eigendirections kept, so ``n - rank`` were clipped.
    """

    shape: ShapeSequence
    d: int
    design: np.ndarray
    coefficients: np.ndarray
    clip: float
    rank: int

    def __call__(self, points) -> np.ndarray:
        """Spline values at an (N, d) batch of points (1-d for d = 1).

        The points-by-sites kernel is the one-entry memo shared with
        :func:`power_function`, so evaluating the model and then its power
        function at the same points computes that kernel once.
        """
        pts = _as_points(points, self.d)
        return _site_kernel(self.shape, self.d, pts, self.design) @ self.coefficients


def _memo_key(shape, d, *arrays) -> bytes:
    """Exact bytes of d, the first d shape parameters and each array with its shape."""
    parts = [np.int64(d).tobytes(), shape.gammas(d).tobytes()]
    for a in arrays:
        parts += [np.array(a.shape, dtype=np.int64).tobytes(), a.tobytes()]
    return b"".join(parts)


class _OneEntryMemo:
    """The value built for the most recent key, and nothing older.

    A hit returns the stored value itself, so its arrays (the value, or the
    arrays in a tuple value) are shared between callers and made read-only.
    A miss drops the old value before it builds the new one, so that two are
    never held at once.
    """

    def __init__(self):
        self.entry = None  # (key, value), or None

    def get(self, key: bytes, build):
        entry = self.entry
        if entry is not None and entry[0] == key:
            return entry[1]
        self.entry = None
        value = build()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        self.entry = (key, value)
        return value


# the clipped Gram factors (U, inv, tau) of the most recent design
_gram_memo = _OneEntryMemo()
# the kernel K of the most recent points and sites
_site_memo = _OneEntryMemo()
# the univariate Nystrom factors (A_1, ..., A_d) of the most recent grid
_grid_memo = _OneEntryMemo()


def _site_kernel(shape, d, points, sites):
    """:func:`cross_kernel` of validated points and sites, with a one-entry memo.

    The kernel of the most recent pair is kept, keyed by the exact bytes of
    d, the shape parameters and both arrays, so the spline and its power
    function at the same points share one kernel.  The array is shared
    between callers and therefore read-only.
    """
    return _site_memo.get(
        _memo_key(shape, d, points, sites), lambda: cross_kernel(shape, d, points, sites)
    )


def _gram_pinv_factors(shape, d, design):
    """Eigendecomposition of the Gram matrix with small eigenvalues clipped.

    Returns (U, inv, tau) with pseudo-inverse U diag(inv) U^T; eigenvalues
    at or below tau = CLIP_FACTOR times the largest are treated as exact
    zeros, which is the minimal-Euclidean-norm convention for rank-deficient
    systems.

    The factors of the most recent design are kept, keyed by the exact bytes
    of d, the shape parameters and the design, so a second solve on the same
    design (a fit followed by its power function) costs no eigendecomposition.
    The arrays are shared between callers and therefore read-only.
    """

    def build():
        ev, U = np.linalg.eigh(gram_matrix(shape, d, design))
        tau = CLIP_FACTOR * ev[-1]
        inv = np.where(ev > tau, 1.0 / np.where(ev > tau, ev, 1.0), 0.0)
        return U, inv, tau

    return _gram_memo.get(_memo_key(shape, d, design), build)


def _grid_factors(shape, d, m):
    """Univariate Nystrom matrices (A_1, ..., A_d) of the m-point rule.

    A_l = diag(sqrt(w)) K_l diag(sqrt(w)) depends on gamma_l alone, so it is
    built once per distinct gamma_l and shared by the coordinates with that
    value.  The factors of the most recent grid are kept, keyed by the exact
    bytes of m and the first d shape parameters, so repeated error
    evaluations on one grid build none.  The arrays are shared between
    callers and therefore read-only.
    """
    gammas = shape.gammas(d)

    def build():
        rule = gauss_hermite(m)
        by_gamma = {
            g: _nystrom_matrix(g, rule.nodes, rule.weights)
            for g in dict.fromkeys(gammas.tolist())
        }
        return tuple(by_gamma[g] for g in gammas.tolist())

    return _grid_memo.get(np.int64(m).tobytes() + gammas.tobytes(), build)


def spline_fit(shape: ShapeSequence, d: int, design, y) -> SplineModel:
    """Fit the minimal-norm interpolant to data y at the design sites.

    The Gram system K c = y is solved through its symmetric
    eigendecomposition with relative spectral clipping, so coincident or
    nearly coincident sites yield the minimal-Euclidean-norm coefficient
    vector instead of failing; the model's ``rank`` counts the directions
    kept.  Two one-entry memos serve a fit followed by evaluation: the
    clipped factorization of the most recent design is reused, so
    ``power_function`` on the same design does not factor the Gram matrix
    again, and the model and ``power_function`` at the same points share one
    points-by-sites kernel.

    The model keeps a read-only copy of the sites, so a later change to the
    caller's array cannot move them away from its coefficients.
    """
    pts = _as_points(design, d)
    y = np.asarray(y, dtype=float)
    if pts.shape[0] == 0:
        raise ValueError("design must be nonempty")
    if y.shape != (pts.shape[0],):
        raise ValueError(f"data must have shape ({pts.shape[0]},), got {y.shape}")
    U, inv, tau = _gram_pinv_factors(shape, d, pts)
    c = U @ (inv * (U.T @ y))
    sites = pts.copy()
    sites.flags.writeable = False
    return SplineModel(
        shape=shape,
        d=d,
        design=sites,
        coefficients=c,
        clip=tau,
        rank=int(np.count_nonzero(inv)),
    )


def power_function(shape: ShapeSequence, d: int, design, x) -> np.ndarray:
    """Pointwise worst-case error of the spline on the given design.

    Returns sqrt(max(0, K(x,x) - k(x)^T K^+ k(x))), which is 0 at the data
    sites and 1 for the empty design (the kernel has unit diagonal).
    Accepts a single point or an (N, d) batch; always returns an array.
    Sites and points must have finite coordinates.
    K^+ = U diag(inv) U^T is the clipped pseudo-inverse of ``spline_fit``,
    and k(x) is projected onto the kept directions only, the columns of U
    whose inv is nonzero.  Both one-entry memos of ``spline_fit`` apply: after
    a fit on the same design the Gram matrix is not factored again, and after
    the model's call at the same points their kernel is not computed again.
    """
    pts = _as_points(design, d)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xb = _as_points(x[None, :] if x.ndim == 1 and x.size == d else x, d)
    if pts.shape[0] == 0:
        return np.ones(xb.shape[0])
    return _power_from_kernel(shape, d, pts, _site_kernel(shape, d, xb, pts))


def _power_from_kernel(shape, d, design, K):
    """:func:`power_function` at the rows of K, the points-by-sites kernel.

    The design is validated and nonempty; K may come from the site memo or,
    for a kernel used once, straight from :func:`cross_kernel`.
    """
    U, inv, _ = _gram_pinv_factors(shape, d, design)
    # eigh sorts the eigenvalues ascending, so the clip zeroes a leading
    # block of inv and the kept directions are the trailing rank columns
    kept = slice(inv.size - np.count_nonzero(inv), None)
    proj = K @ U[:, kept]
    # in place, the same operations in the same order as proj * proj * inv,
    # with no further N x rank array
    np.multiply(proj, proj, out=proj)
    np.multiply(proj, inv[None, kept], out=proj)
    quad = np.sum(proj, axis=1)
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
    same factors and solved densely.  The A_l of the most recent grid are
    kept in a one-entry memo, one per distinct gamma_l.

    With ``method="trace"`` the cheap trace upper bound
    sqrt(integral of G(t, t)) is returned instead.
    """
    if method not in ("spectral", "trace"):
        raise ValueError(f"unknown method {method!r}")
    pts = _as_points(design, d)
    n = pts.shape[0]
    grid, w = tensor_rule(d, m)
    if method == "trace":
        # the grid-by-design kernel is used once, so it bypasses the site memo
        diag = np.ones(w.size)
        if n:
            K = cross_kernel(shape, d, grid, pts)
            diag = _power_from_kernel(shape, d, pts, K) ** 2
        return float(np.sqrt(max(0.0, np.dot(w, diag))))
    factors = _grid_factors(shape, d, m)
    N = w.size
    if n:
        U, inv, _ = _gram_pinv_factors(shape, d, pts)
        # all n columns of U are kept, clipped ones included, so that the WCE
        # bytes stay as they were: inv reaches 1/(CLIP_FACTOR lambda_max) and
        # amplifies any change in the rounding of K(grid, design) U to ~1e-11
        C = np.sqrt(w)[:, None] * (cross_kernel(shape, d, grid, pts) @ U)
    # with no design the correction is exactly +0.0, and x - 0.0 = x bit for
    # bit, so the Kronecker product alone is the operator
    if N <= 64:
        B = factors[0]
        for A in factors[1:]:
            B = np.kron(B, A)
        if n:
            B = B - (C * inv[None, :]) @ C.T
        lam = float(np.linalg.eigvalsh(0.5 * (B + B.T))[-1])
    else:
        # imported here, so that importing grkhs loads no scipy; eigsh is
        # looked up on the module at each call
        import scipy.sparse.linalg

        kron = _kron_matvec(factors)
        if n:
            Ct = C.T

            def matvec(v):
                return kron(v) - C @ (inv * (Ct @ v))

        else:
            matvec = kron

        op = scipy.sparse.linalg.LinearOperator((N, N), matvec=matvec, dtype=float)
        # fixed start vector keeps the Lanczos iteration deterministic
        v0 = np.full(N, N**-0.5)
        lam = float(
            scipy.sparse.linalg.eigsh(op, k=1, which="LA", tol=1e-12, v0=v0)[0][0]
        )
    return float(np.sqrt(max(0.0, lam)))


def _kron_matvec(factors):
    """The product v -> (A_1 (x) ... (x) A_d) v for d square m x m factors.

    Each step does what np.tensordot(x, A, axes=(0, 0)) does on the (m,)*d
    array x, the same transpose, copy and matrix product, so the bytes are
    the same, without the bookkeeping that tensordot repeats on every call.
    Contracting axis 0 and appending the result cycles the axes, so after d
    steps they are back in grid order.
    """
    d, m = len(factors), factors[0].shape[0]
    grid_shape = (m,) * d
    perm = (*range(1, d), 0)
    rest = m ** (d - 1)

    def matvec(v):
        x = v.reshape(grid_shape)
        for A in factors:
            x = np.dot(x.transpose(perm).reshape(rest, m), A).reshape(grid_shape)
        return x.ravel()

    return matvec
