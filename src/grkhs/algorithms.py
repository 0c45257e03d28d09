"""Approximation algorithms and their worst-case errors.

Two algorithms are implemented: the truncated eigenfunction projection,
which is optimal when arbitrary linear functionals may be observed, and
the minimal-norm kernel interpolant (spline) for function-value data,
together with evaluators for their worst-case L2(rho_d) errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexity import _error_values
from .kernel import (
    ShapeSequence,
    _as_points,
    _points_kernel,
    cross_kernel,
    gram_matrix,
)
from .errors import ResourceLimitError
from .quadrature import (
    MAX_GRID_DESIGN_SIZE,
    _grid_shape,
    _grid_values,
    _nystrom_matrix,
    gauss_hermite,
    tensor_rule,
)
from .spectrum import (
    TensorEigenList,
    _dense_index,
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
    "tensor_eigenfunctions",
]

CLIP_FACTOR = 1e-12  # relative spectral clipping threshold for Gram solves


# Rows per block of the basis-by-grid product in eigen_projection.  With
# OpenBLAS the row blocks of a matrix-vector product give the full product's
# bits only when every block starts at a multiple of 4 rows (its kernel takes
# 4 rows at a time, the remainder apart) and no block is a single row (numpy
# sends a one-row product down another path), so the size is a multiple of 4
# and a one-row tail joins the block before it.
_PROJECTION_BLOCK = 64


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
    dense = [idx.dense() for idx in indices]
    out = np.empty((len(dense), pts.shape[0]))
    _product_rows(out, dense, _coordinate_factors(shape, d, dense, pts))
    return out


def _coordinate_factors(shape, d, dense, pts):
    """Per coordinate l, the rows phi_1 .. phi_J of gamma_l at pts[:, l], J the largest index."""
    specs = [univariate_spectrum(g) for g in shape.gammas(d)]
    max_j = [max(row[l] for row in dense) for l in range(d)] if dense else [1] * d
    return [specs[l].eigenfunctions(max_j[l], pts[:, l]) for l in range(d)]


def _rule_factors(shape, d, dense, m):
    """:func:`_coordinate_factors` at the points of the tensor grid of the m-point rule.

    Coordinate l of the grid takes only the m nodes of the rule, so each
    factor is evaluated on those nodes and copied out along its grid axis,
    in :func:`tensor_rule`'s point order.  The recurrence acts entry by
    entry, so the copies are bit for bit the factors at every grid point.
    """
    nodes = gauss_hermite(m).nodes
    per_node = _coordinate_factors(shape, d, dense, np.tile(nodes[:, None], (1, d)))
    factors = []
    for l, phi in enumerate(per_node):
        axis = phi.reshape((-1,) + (1,) * l + (m,) + (1,) * (d - 1 - l))
        factors.append(np.broadcast_to(axis, (phi.shape[0],) + (m,) * d).reshape(phi.shape[0], -1))
    return factors


def _product_rows(out, dense, per_coord):
    """Write into out[r] the product over l of the factor rows per_coord[l][dense[r][l] - 1].

    The first factor is copied, which is bit-equal to multiplying it into a
    row of ones; a loop over rows beats a gather of whole factor blocks.
    """
    first, rest = per_coord[0], per_coord[1:]
    for r, row in enumerate(dense):
        out_r = out[r]
        out_r[...] = first[row[0] - 1]
        for l, factor in enumerate(rest, start=1):
            out_r *= factor[row[l] - 1]


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

    ``f`` may be a callable on (N, d) point arrays, read once on the tensor
    Gauss-Hermite grid of m^d points as :func:`~grkhs.quadrature.integrate`
    reads its integrand: anything but N values (a scalar, or (N, 1))
    raises its ``ValueError`` before the basis is formed.  Past 10^7 points
    :func:`tensor_rule` raises ``ResourceLimitError`` (d = 4 needs m <= 56,
    while d = 5 runs at m = 8).
    The basis functions at the grid nodes are formed 64 rows at a time in
    one buffer, so the working set is 64 rows of m^d values plus the
    per-coordinate eigenfunction factors, never the n x m^d matrix.  Each
    factor is evaluated on the m nodes of the rule and copied out over
    the grid.
    Or ``f`` is a mapping from dense multi-index tuples to
    eigen-coefficients, in which case they are read off exactly and any d
    is allowed; a key that is not d integer entries, each >= 1, raises
    ``ValueError``.
    """
    basis = top_n_tensor_eigenvalues(shape, d, n)
    if callable(f):
        _, w, vals = _grid_values(d, m, f)
        dense = [idx.dense() for idx in basis.indices]
        per_coord = _rule_factors(shape, d, dense, m)
        wv = w * vals
        rows = len(dense)
        coef = np.empty(rows)
        block = np.empty((min(rows, _PROJECTION_BLOCK + 1), w.size))
        a = 0
        while a < rows:
            # a one-row tail joins this block
            b = a + _PROJECTION_BLOCK if rows - a > _PROJECTION_BLOCK + 1 else rows
            _product_rows(block, dense[a:b], per_coord)
            coef[a:b] = block[: b - a] @ wv
            a = b
    else:
        table = {_dense_index(d, key): float(val) for key, val in f.items()}
        coef = np.array([table.get(idx, 0.0) for idx in basis.indices])
    return EigenProjector(shape=shape, d=d, basis=basis, coefficients=coef)


def minimal_error_all(shape: ShapeSequence, d: int, n: int) -> float:
    """Minimal worst-case error with n arbitrary linear functionals.

    Equals the square root of the (n+1)-st largest tensor eigenvalue; for
    n = 0 this is the initial error (the norm of the embedding).  Read
    from the values pass of the merge, with no multi-indices built.  n is
    an integer >= 0, and n + 1 above the enumeration guard raises.
    """
    return float(_error_values(shape, d, n, "n")[-1])


@dataclass
class SplineModel:
    """Fitted minimal-norm kernel interpolant.

    ``design`` is a read-only copy of the (n, d) sites and ``rank`` the
    number of Gram eigendirections kept, so ``n - rank`` were clipped.
    """

    shape: ShapeSequence
    d: int
    design: np.ndarray
    coefficients: np.ndarray
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
    arrays in a tuple value and in the tuples it holds) are shared between
    callers and made read-only.
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
        _freeze(value)
        self.entry = (key, value)
        return value


def _freeze(value):
    """Make an array, or every array in a tuple and in the tuples it holds, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for v in value:
            _freeze(v)


# the clipped Gram factors (U, inv) of the most recent design
_gram_memo = _OneEntryMemo()
# the kernel K of the most recent points and sites
_site_memo = _OneEntryMemo()
# the tensor grid and its univariate Nystrom factors of the most recent
# (shape, d, m), a _Grid
_grid_memo = _OneEntryMemo()
# the rank-0 factors (U, inv) of a design with no sites, read-only
_U0, _INV0 = np.zeros((0, 0)), np.zeros(0)
_U0.flags.writeable = _INV0.flags.writeable = False


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

    Returns (U, inv) with pseudo-inverse U diag(inv) U^T; eigenvalues at
    or below CLIP_FACTOR times the largest are treated as exact zeros,
    which is the minimal-Euclidean-norm convention for rank-deficient
    systems.

    The factors of the most recent design are kept, keyed by the exact bytes
    of d, the shape parameters and the design, so a second solve on the same
    design (a fit followed by its power function) costs no eigendecomposition.
    The arrays are shared between callers and therefore read-only.  A design
    with no sites gets the rank-0 factors, (0, 0) U and empty inv, before
    the memo is consulted, so it neither builds nor evicts an entry.
    """
    if design.shape[0] == 0:
        return _U0, _INV0

    def build():
        ev, U = np.linalg.eigh(gram_matrix(shape, d, design))
        tau = CLIP_FACTOR * ev[-1]
        inv = np.where(ev > tau, 1.0 / np.where(ev > tau, ev, 1.0), 0.0)
        return U, inv

    return _gram_memo.get(_memo_key(shape, d, design), build)


# Nystrom factor entries below this, the subnormals, are written as 0
_SMALLEST_NORMAL = np.finfo(float).tiny


class _Grid(NamedTuple):
    """The tensor Gauss-Hermite grid of m^d nodes and the Nystrom factors on it."""

    factors: tuple  # (A_1, ..., A_d), one array per distinct gamma_l
    points: np.ndarray  # (N, d) nodes, as tensor_rule builds them
    root_weights: np.ndarray  # (N,) square roots of the product weights W


def _tensor_grid(shape, d, m) -> _Grid:
    """The grid, sqrt(W) and Nystrom factors (A_1, ..., A_d) of the m-point rule.

    A_l = diag(sqrt(w)) K_l diag(sqrt(w)) depends on gamma_l alone, so it is
    built once per distinct gamma_l and shared by the coordinates with that
    value.  An entry of A_l below the smallest normal double is written as
    an exact 0: about 1.1% of A_1 at m = 200 are subnormal, and they make
    each product with A_1 several times slower.  A dropped term is below
    the smallest normal double, so a product entry moves by less than that.

    The record of the most recent (shape, d, m) is kept, keyed by the exact
    bytes of d, the shape parameters and m, so repeated error evaluations
    on one grid build nothing and validate no grid point.  Its arrays are
    shared between callers and therefore read-only.  It holds 8 m^2 bytes
    per distinct gamma and 8 (d + 1) m^d for the grid: 323 KB at d = 1,
    m = 200, 33 KB at d = 2, m = 32, 56 KB at d = 3, m = 12 and 1.06 MB
    at d = 3, m = 32.  d and m are validated as by :func:`tensor_rule`
    before the memo is read.
    """
    d, m = _grid_shape(d, m)

    def build():
        rule = gauss_hermite(m)
        gammas = shape.gammas(d).tolist()
        by_gamma = {}
        for g in dict.fromkeys(gammas):
            A = _nystrom_matrix(g, rule.nodes, rule.weights)
            # every entry is >= 0, so this finds the subnormals (and the zeros)
            A[A < _SMALLEST_NORMAL] = 0.0
            by_gamma[g] = A
        points, weights = tensor_rule(d, m)
        return _Grid(tuple(by_gamma[g] for g in gammas), points, np.sqrt(weights))

    return _grid_memo.get(_memo_key(shape, d, np.int64(m)), build)


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
    U, inv = _gram_pinv_factors(shape, d, pts)
    c = U @ (inv * (U.T @ y))
    sites = pts.copy()
    sites.flags.writeable = False
    return SplineModel(
        shape=shape, d=d, design=sites, coefficients=c, rank=int(np.count_nonzero(inv))
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
    The empty design takes the same route with the rank-0 factors, so its
    (N, 0) kernel replaces the site memo's entry.
    """
    pts = _as_points(design, d)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xb = _as_points(x[None, :] if x.ndim == 1 and x.size == d else x, d)
    return _power_from_kernel(shape, d, pts, _site_kernel(shape, d, xb, pts))


def _power_from_kernel(shape, d, design, K):
    """:func:`power_function` at the rows of K, the points-by-sites kernel.

    The design is validated; K may come from the site memo or, for a kernel
    used once, straight from :func:`cross_kernel`.
    """
    U, inv = _gram_pinv_factors(shape, d, design)
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
    At every grid size the largest eigenvalue comes from Lanczos on this
    operator without forming any N x N matrix: a product applies A_l along
    each grid axis and the rank-n correction, costing O(m^d (sum_l m + n))
    time and O(m^d n) memory (:func:`_top_eigenvalue`, which takes the
    1 x 1 operator itself at N = 1).  The grid,
    sqrt(W) and the A_l of the most recent grid are kept in a one-entry
    memo, one A_l per distinct gamma_l (:func:`_tensor_grid`).  For the empty
    design C is N x 0 (rank-0 factors) and the correction is exactly zero,
    though each Lanczos step still pays its two zero-column products.

    The grid-by-design arrays (the kernel K(grid, design), C and the trace
    route's kernel) hold N n doubles: past N n = 5 * 10^7
    (``MAX_GRID_DESIGN_SIZE``) ``ResourceLimitError`` is raised before
    the grid is built, as it is past N = 10^7 (:func:`tensor_rule`).

    With ``method="trace"`` the cheap trace upper bound
    sqrt(integral of G(t, t)) = sqrt(W . P^2), P the power function on the
    grid, is returned instead.  It builds its own grid and neither reads
    nor fills the grid memo, so no grid outlives the call.
    """
    if method not in ("spectral", "trace"):
        raise ValueError(f"unknown method {method!r}")
    pts = _as_points(design, d)
    d, m = _grid_shape(d, m)
    entries = m**d * len(pts)
    if entries > MAX_GRID_DESIGN_SIZE:
        raise ResourceLimitError(
            f"grid-by-design kernel N*n = {entries} exceeds {MAX_GRID_DESIGN_SIZE}"
        )
    if method == "trace":
        points, w = tensor_rule(d, m)
        # the grid-by-design kernel is used once, so it bypasses the site memo
        P = _power_from_kernel(shape, d, pts, cross_kernel(shape, d, points, pts))
        return float(np.sqrt(max(0.0, np.dot(w, P**2))))
    grid = _tensor_grid(shape, d, m)
    U, inv = _gram_pinv_factors(shape, d, pts)
    # all n columns of U are kept, clipped ones included, so that the WCE
    # bytes stay as they were: inv reaches 1/(CLIP_FACTOR lambda_max) and
    # amplifies any change in the rounding of K(grid, design) U to ~1e-11;
    # with no sites the correction is exactly +0.0, and x - 0.0 = x
    C = grid.root_weights[:, None] * (_points_kernel(shape, d, grid.points, pts) @ U)
    kron = _kron_matvec(grid.factors)
    Ct = C.T

    def matvec(v):
        return kron(v) - C @ (inv * (Ct @ v))

    return float(np.sqrt(max(0.0, _top_eigenvalue(matvec, grid.root_weights.size))))


# Krylov basis size of each Lanczos solve, chosen in _top_eigenvalue
_LANCZOS_NCV = 8
# the golden-ratio step of the Weyl sequence in _top_eigenvalue's start vector
_WEYL_STEP = 0.6180339887498949


def _top_eigenvalue(matvec, N: int) -> float:
    """Largest eigenvalue of the symmetric N x N operator v -> matvec(v), N >= 1.

    ARPACK's implicitly restarted Lanczos (``eigsh``, k = 1, tol 1e-12) on a
    Krylov basis of _LANCZOS_NCV = 8 vectors instead of scipy's 20.  One
    eigenvalue needs no large basis: over check 10's designs, the
    benchmark's and ``spline-bench`` sizes up to n = 200, bases of 6 and 8
    took about 12 products per solve, 4, 10 and 12 took 13-16, and 20 took
    21 (BENCH_lanczos_steps.json); 8 is the larger of the two best.
    ARPACK needs k < ncv <= N, so below 8 nodes the basis is all N of
    them; at N = 1, where ARPACK cannot run, the 1 x 1 operator
    matvec([1.0]) is its own eigenvalue.
    The start vector is the Weyl sequence frac(i * 0.618...) - 0.5,
    i = 1 .. N, which exact IEEE operations give the same on every machine.
    No reflection of the tensor grid and no swap of its axes maps it to
    itself.  A Krylov space started from a vector that such a symmetry fixes
    stays in the symmetry's even subspace in exact arithmetic, so for a
    design that the symmetry maps to itself an odd top eigenvector is found
    only through rounding, or not at all: from the uniform vector, the
    design (1, 0), (0.125, 0) at d = 2 gave 0.3687, below e_all(2).
    """
    if N == 1:
        return float(matvec(np.ones(1))[0])
    # imported here, so that importing grkhs loads no scipy; eigsh is looked
    # up on the module at each call
    import scipy.sparse.linalg

    op = scipy.sparse.linalg.LinearOperator((N, N), matvec=matvec, dtype=float)
    v0 = (np.arange(1, N + 1) * _WEYL_STEP) % 1.0 - 0.5
    vals = scipy.sparse.linalg.eigsh(
        op, k=1, which="LA", tol=1e-12, v0=v0, ncv=min(_LANCZOS_NCV, N)
    )[0]
    return float(vals[0])


def _spline_rule_size(d: int) -> int:
    """Rule size m of the spline WCE at d, for check 10 and ``spline-bench`` without ``--m``."""
    return 200 if d == 1 else 32


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
