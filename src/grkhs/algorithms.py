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
    _hermite_rows,
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


# Bytes per block of basis values that eigen_projection and EigenProjector
# hold at a time.  With OpenBLAS the row blocks of a matrix-vector product
# give the full product's bits only when every block starts at a multiple of
# 4 rows (its kernel takes 4 rows at a time, the remainder apart) and no
# block is a single row (numpy sends a one-row product down another path),
# so a block of grid rows is a multiple of 4 rows, at least 4, and a one-row
# tail joins the block before it.  The vector-matrix product over points
# keeps its bits when every block is a multiple of 16 points and a tail of
# fewer than 4 points joins the block before it.
_PROJECTION_BLOCK_BYTES = 512 * 1024


def _block_size(width, multiple):
    """Rows of width doubles within the budget, a multiple of multiple and at least one."""
    return max(multiple, _PROJECTION_BLOCK_BYTES // (8 * width) // multiple * multiple)


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
    codes = _index_codes(indices, d)
    out = np.empty((codes.shape[0], pts.shape[0]))
    _product_rows(out, codes, _coordinate_factors(shape, d, codes, pts))
    return out


def _index_codes(indices, d):
    """(n, d) array of the multi-indices' dense entries minus 1: each coordinate's factor row."""
    return np.array([idx.dense() for idx in indices], dtype=np.intp).reshape(len(indices), d) - 1


def _coordinate_factors(shape, d, codes, pts):
    """Per coordinate l, the rows phi_1 .. phi_J of gamma_l at pts[:, l], J the largest index.

    A gamma_l that underflowed to exactly 0 (ratio 0, as in the log
    spectrum) takes the gamma -> 0 limit, beta = 1 and delta = 0: phi_1 = 1
    and phi_j the orthonormal Hermite polynomial H_{j-1} / sqrt(2^(j-1) (j-1)!).
    """
    specs = [univariate_spectrum(g) if g else None for g in shape.gammas(d).tolist()]
    max_j = (codes.max(axis=0) + 1).tolist() if codes.size else [1] * d
    return [
        _hermite_rows(J, pts[:, l], 1.0) if spec is None else spec.eigenfunctions(J, pts[:, l])
        for l, (spec, J) in enumerate(zip(specs, max_j))
    ]


def _product_rows(out, codes, per_coord):
    """Write into out[r] the product over l of the factor rows per_coord[l][codes[r, l]].

    The first factor is copied, which is bit-equal to multiplying it into a
    row of ones; a loop over rows beats a gather of whole factor blocks.
    """
    first, rest = per_coord[0], per_coord[1:]
    for r, row in enumerate(codes.tolist()):
        out_r = out[r]
        out_r[...] = first[row[0]]
        for l, factor in enumerate(rest, start=1):
            out_r *= factor[row[l]]


def _grid_basis_blocks(shape, d, codes, m):
    """Yield (a, b, block), block the basis rows codes[a:b] at :func:`tensor_rule`'s points.

    Coordinate l of the grid takes only the m nodes of the rule, so each
    coordinate's factors are evaluated on those nodes (the recurrence acts
    entry by entry, so they are bit for bit the factors at the grid
    points).  A block is written into one reused buffer as outer products
    of the gathered node rows, coordinates in order, (phi_1 phi_2) phi_3 ...:
    the products :func:`_product_rows` makes at the grid points, laid out
    with the last coordinate fastest.  The block is overwritten by the next.
    """
    nodes = gauss_hermite(m).nodes
    per_node = _coordinate_factors(shape, d, codes, np.tile(nodes[:, None], (1, d)))
    rows = codes.shape[0]
    size = _block_size(m**d, 4)
    buf = np.empty((min(rows, size + 1), m**d))
    a = 0
    while a < rows:
        # a one-row tail joins this block
        b = a + size if rows - a > size + 1 else rows
        block = buf[: b - a]
        if d == 1:
            np.take(per_node[0], codes[a:b, 0], axis=0, out=block)
        else:
            # the products over the leading coordinates, m^(d-1) values a row
            # at most, then the last coordinate's straight into the block
            lead = per_node[0][codes[a:b, 0]]
            for l in range(1, d - 1):
                lead = (lead[:, :, None] * per_node[l][codes[a:b, l], None, :]).reshape(b - a, -1)
            last = per_node[-1][codes[a:b, -1], None, :]
            np.multiply(lead[:, :, None], last, out=block.reshape(b - a, -1, m))
        yield a, b, block
        a = b


def _point_basis_blocks(shape, d, codes, pts):
    """Yield (a, b, block), block the basis rows codes at the points pts[a:b].

    A block is a multiple of 16 points within the budget, and a tail of
    fewer than 4 points joins the block before it.  Each block evaluates
    the factors at its own points and multiplies the gathered rows,
    coordinates in order: the products :func:`_product_rows` makes.
    """
    total = pts.shape[0]
    size = _block_size(codes.shape[0], 16)
    a = 0
    while a < total:
        # a tail of fewer than 4 points joins this block
        b = a + size if total - a >= size + 4 else total
        per_coord = _coordinate_factors(shape, d, codes, pts[a:b])
        block = per_coord[0][codes[:, 0]]
        for l in range(1, d):
            block *= per_coord[l][codes[:, l]]
        yield a, b, block
        a = b


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
        """The expansion at (N, d) points, the basis formed a block of points at a time."""
        pts = _as_points(points, self.d)
        codes = _index_codes(self.basis.indices, self.d)
        out = np.empty(pts.shape[0])
        for a, b, block in _point_basis_blocks(self.shape, self.d, codes, pts):
            out[a:b] = self.coefficients @ block
        return out


def eigen_projection(shape: ShapeSequence, d: int, n: int, f, m: int = 64) -> EigenProjector:
    """Project f onto the n leading eigenfunctions of the tensor operator.

    ``f`` may be a callable on (N, d) point arrays, read once on the tensor
    Gauss-Hermite grid of m^d points as :func:`~grkhs.quadrature.integrate`
    reads its integrand: anything but N values (a scalar, or (N, 1))
    raises its ``ValueError`` before the basis is formed.  Past 10^7 points
    :func:`tensor_rule` raises ``ResourceLimitError`` (d = 4 needs m <= 56,
    while d = 5 runs at m = 8).
    Each coordinate's eigenfunction factors are evaluated on the m nodes
    of the rule only, and the basis functions at the grid points are
    formed a block of rows at a time in one buffer, as products of those
    factors.  A block holds at most ``_PROJECTION_BLOCK_BYTES`` (512 KB),
    but never fewer than 4 rows, so the working set is one block plus the
    node factors, never the n x m^d matrix.
    Or ``f`` is a mapping from dense multi-index tuples to
    eigen-coefficients, in which case they are read off exactly and any d
    is allowed; a key that is not d integer entries, each >= 1, raises
    ``ValueError``.
    """
    basis = top_n_tensor_eigenvalues(shape, d, n)
    if callable(f):
        _, w, vals = _grid_values(d, m, f)
        wv = w * vals
        codes = _index_codes(basis.indices, d)
        coef = np.empty(codes.shape[0])
        for a, b, block in _grid_basis_blocks(shape, d, codes, m):
            coef[a:b] = block @ wv
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


class _Memo:
    """Values built for recent keys, under a byte budget.

    An entry's size is its key's length plus the bytes of its distinct
    arrays (the value, or the arrays in a tuple value and in the tuples it
    holds).  The most recent entry is always kept, whatever its size; older
    ones are dropped, least recently used first, while the total exceeds
    ``budget``.  A miss drops, before it builds, the entries that the budget
    does not cover, so that with budget 0 the old value is gone before the
    new one is built and two are never held at once.
    A hit returns the stored value itself, so its arrays are shared between
    callers and made read-only.
    """

    def __init__(self, budget: int = 0):
        self.budget = budget
        self.entries = {}  # key -> (value, size), least recently used first

    def get(self, key: bytes, build):
        entry = self.entries.pop(key, None)
        if entry is None:
            self._drop(keep=0)
            value = build()
            arrays = {id(a): a for a in _arrays(value)}.values()
            for a in arrays:
                a.flags.writeable = False
            entry = (value, len(key) + sum(a.nbytes for a in arrays))
        self.entries[key] = entry
        self._drop(keep=1)
        return entry[0]

    def _drop(self, keep: int):
        """Drop the least recently used entries, all but the last ``keep``, while over budget."""
        entries = self.entries
        while len(entries) > keep and sum(size for _, size in entries.values()) > self.budget:
            del entries[next(iter(entries))]


def _arrays(value):
    """An array, or every array in a tuple and in the tuples it holds."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _arrays(v)


# the clipped Gram factors (U, inv) of the most recent design
_gram_memo = _Memo()
# the kernel K of the most recent points and sites
_site_memo = _Memo()
# the tensor grids and their univariate Nystrom factors of recent
# (shape, d, m), each a _Grid; the budget is argued in _tensor_grid
_grid_memo = _Memo(budget=2**19)
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

    Records of recent (shape, d, m) are kept, keyed by the exact bytes of
    d, the shape parameters and m, so repeated error evaluations on a grid
    build nothing and validate no grid point, also when calls on other
    grids come between them.  Their arrays are shared between callers and
    therefore read-only.  A record holds 8 m^2 bytes per distinct gamma and
    8 (d + 1) m^d for the grid: 323 KB at d = 1, m = 200, 33 KB at d = 2,
    m = 32, 56 KB at d = 3, m = 12 and 1.06 MB at d = 3, m = 32.  The most
    recent record is always kept; older ones are dropped, least recently
    used first, while all of them total more than 512 KB.  That holds the
    two grids of check 10 (356 KB) and those with d = 3, m = 12 besides
    (412 KB), so a stream that mixes them builds each grid once, and it
    holds a d = 3, m = 32 grid alone, so one large grid costs what it
    costs with a single record.  d and m are validated as by
    :func:`tensor_rule` before the memo is read.
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
    sqrt(W) and the A_l of recent grids are kept in a memo bounded in
    bytes, one A_l per distinct gamma_l (:func:`_tensor_grid`); the error
    itself is computed anew on every call.  For the empty
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
