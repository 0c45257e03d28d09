"""Gauss-Hermite quadrature for the probability weight and the Nystrom oracle.

All rules are normalized to the density rho_1(t) = pi^(-1/2) exp(-t^2), so
weights sum to one and no sqrt(pi) factor leaks downstream.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from math import inf, lgamma, log

import numpy as np

from .errors import ResourceLimitError
from .kernel import _at_least, _exact_kernel, eigenvalue_ratio
from .spectrum import _hermite_rows

__all__ = ["QuadratureRule", "gauss_hermite", "nystrom_eigs", "integrate", "tensor_rule"]

MAX_RULE_SIZE = 512
MAX_GRID_SIZE = 10_000_000
# Largest N * n of the spline WCE's grid-by-design arrays (N grid nodes, n
# sites): each such array is 8 N n bytes, 400 MB at this bound.
MAX_GRID_DESIGN_SIZE = 50_000_000


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating against rho_1.

    A rule built by ``gauss_hermite(m)`` is exact on polynomials of degree
    <= 2m-1; the kernel-scaled rules of ``nystrom_eigs`` are not.
    """

    nodes: np.ndarray
    weights: np.ndarray


def gauss_hermite(m: int) -> QuadratureRule:
    """m-point Gauss-Hermite rule for the weight pi^(-1/2) exp(-t^2).

    Nodes and weights come from the symmetric tridiagonal eigenproblem of
    the Hermite three-term recurrence (no hard-coded tables); the classical
    exp(-t^2) weights are divided by sqrt(pi) here so that they sum to 1.
    The rule is exact on polynomials of degree <= 2m-1.

    Rules are built once per m and shared: a repeat call returns the same
    arrays, which are read-only.  m must be an integer (a bool is not) in
    [1, 512], checked before the cache is consulted.
    """
    m = _at_least("rule size", m, 1)
    if m > MAX_RULE_SIZE:
        raise ValueError(f"rule size must be in [1, {MAX_RULE_SIZE}], got {m}")
    return _gauss_hermite(m)


@functools.lru_cache(maxsize=None)
def _gauss_hermite(m: int) -> QuadratureRule:
    """:func:`gauss_hermite` for a validated int m, built once per m."""
    # imported here, so that importing grkhs loads no scipy
    from scipy.special import roots_hermite

    nodes, weights = roots_hermite(m)
    weights = weights / np.sqrt(np.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def _scaled_rule(m: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s*u_i and weights s*w_i*exp((1 - s^2) u_i^2) of the m-point rule.

    Substituting t = s*u in the rho_1 integral gives this rule.  For s = 1
    the plain ``gauss_hermite(m)`` arrays are returned unchanged; otherwise
    the weights are formed in log space, since w_i underflows where
    exp((1 - s^2) u_i^2) overflows.  From m = 386 on the outermost w_i
    underflow to 0 (4 at m = 400, 36 at m = 512), while s < 1 brings their
    scaled weights back into range: at m = 512, s = 0.1 leaving them out
    loses 1.3e-4 of the mass.  For those entries alone log w_i is
    :func:`_log_christoffel`; every other weight keeps its bits.
    """
    rule = gauss_hermite(m)
    if scale == 1.0:
        return rule.nodes, rule.weights
    u = rule.nodes
    with np.errstate(divide="ignore"):
        log_w = np.log(rule.weights)
    zero = rule.weights == 0.0
    if zero.any():
        log_w[zero] = _log_christoffel(m, u[zero])
    log_w = log(scale) + log_w + (1.0 - scale * scale) * u * u
    return scale * u, np.exp(log_w)


def _log_christoffel(m: int, u: np.ndarray) -> np.ndarray:
    """log w at the nodes u of the m-point rule, from the Christoffel function.

    w = 1 / sum_k p_k(u)^2, k < m, with p_k the orthonormal polynomials of
    rho_1, is -u^2 - log(sqrt(pi) sum_k psi_k(u)^2) in the Hermite
    functions psi_k.  psi_0 = pi^(-1/4) e^(-u^2/2) is above 1e-215 at
    every node of a rule up to m = 512, so the sum stays a normal double
    where w itself underflows.
    """
    psi = _hermite_rows(m, u, np.pi**-0.25 * np.exp(-0.5 * u * u))
    return -u * u - np.log(np.sqrt(np.pi) * np.sum(psi * psi, axis=0))


def _nystrom_matrix(gamma: float, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    # exact differences: cross_kernel's GEMM form is off by up to 7e-17 here
    K = _exact_kernel(gamma, t[:, None], t[:, None])
    s = np.sqrt(w)
    return s[:, None] * K * s[None, :]


# Largest Taylor length of exp(2 g^2 t s) we are willing to carry in the
# factored eigensolve; the truncation error decays like rho^(k/2) with
# rho = 2 g^2 / (1 + 2 g^2), so this bounds gamma from above.
_MAX_FACTOR_TERMS = 3000


def _factor_terms(gamma: float):
    g2 = gamma * gamma
    rho = 2.0 * g2 / (1.0 + 2.0 * g2)
    if not rho < 1.0:  # 2 g^2 past 2^53 (gamma ~ 6.7e7): no finite length
        return inf
    if rho == 0.0:  # g^2 underflowed (gamma below ~1.6e-162): every term past the first is 0
        return 1
    # aim at a truncation below 1e-30 absolute
    return int(np.ceil(2.0 * 30.0 * np.log(10.0) / -np.log(rho))) + 32


def _nystrom_eigs_factored(
    gamma: float, t: np.ndarray, w: np.ndarray, keep, cols: int
) -> np.ndarray:
    """Eigenvalues of the Nystrom matrix via SVDs of two explicit factors.

    Writing K(t,s) = e^(-g^2 t^2) e^(2 g^2 t s) e^(-g^2 s^2) and expanding
    the middle exponential gives A = B B^T with graded columns

        B[a, k] = sqrt(w_a) e^(-g^2 t_a^2) sqrt((2 g^2)^k / k!) t_a^k,

    of which the first ``cols`` are formed, on the positive nodes ``keep``
    selects (a mask, or a slice for all of them).  The rule is mirror
    symmetric bit for bit (nodes -t and t carry equal weights), so the row
    of -t is the row of t with its odd columns negated.  Mixing the two
    rows orthogonally, (r_t +- r_-t) / sqrt(2), splits B into sqrt(2)
    times two blocks on the positive nodes: its even columns and its odd
    columns (the centrosymmetric reduction of Cantoni & Butler, Linear
    Algebra Appl. 13, 1976).  For odd m the node at 0 adds the row
    sqrt(w_0 / 2) e_1 to the even block, whatever ``keep`` says.  The
    eigenvalues of A are then 2 sigma^2 over the singular values of both
    blocks; the m values are padded with zeros.

    These SVDs keep high relative accuracy on the tiny end of the
    spectrum, where a dense symmetric eigensolve has a noise floor of
    eps * lambda_max; one SVD of the whole of B lost up to 7.6e-10 against
    mpmath eigenvalues of the same matrix (m = 33, gamma = 0.1).
    """
    g2 = 2.0 * gamma * gamma
    ks = np.arange(cols)
    # 2 g^2 = 0 leaves only the column k = 0, whose power (2 g^2)^0 is 1
    log_pow = ks * log(g2) if g2 > 0 else np.where(ks > 0, -inf, 0.0)
    log_coef = 0.5 * (log_pow - np.array([lgamma(k + 1.0) for k in range(cols)]))
    m = t.size
    # the nodes ascend, so the positive ones are the last m // 2
    tp, wp = t[m - m // 2 :][keep], w[m - m // 2 :][keep]
    # a weight that underflowed to 0 (large m) gives a zero row of B
    with np.errstate(divide="ignore"):
        log_B = np.add.outer(0.5 * np.log(wp) - (gamma * tp) ** 2, log_coef)
    log_B += np.multiply.outer(np.log(tp), ks)
    B = np.exp(log_B, out=log_B)
    even, odd = B[:, 0::2], B[:, 1::2]
    if m % 2:
        zero_row = np.zeros((1, even.shape[1]))
        zero_row[0, 0] = np.sqrt(0.5 * w[m // 2])
        even = np.vstack((even, zero_row))
    # each block as its transpose: at m = 200 gamma = 2's SVDs take 30% less time
    sv = np.concatenate(
        [np.linalg.svd(blk.T, compute_uv=False) for blk in (even, odd) if blk.size]
    )
    # at most m values: each block has at most as many as its rows
    sv = -np.sort(-sv)
    lam = np.zeros(m)
    lam[: sv.size] = 2.0 * sv**2
    return lam


def _nystrom_eigs_dense(gamma: float, t: np.ndarray, w: np.ndarray, keep) -> np.ndarray:
    """Eigenvalues of the principal submatrix on the nodes ``keep`` selects, padded to m."""
    lam = np.zeros(t.size)
    vals = np.linalg.eigvalsh(_nystrom_matrix(gamma, t[keep], w[keep]))[::-1]
    lam[: vals.size] = vals
    return lam


# The mass nystrom_eigs may leave out, as a fraction of the lambda_k it
# returns: one unit roundoff, so by Weyl's inequality the top k are those
# of the whole matrix to within rounding (see nystrom_eigs).
_DROP_FRACTION = 2.0**-53


def _drop_lightest(mass: np.ndarray, budget: float) -> tuple[np.ndarray, float]:
    """(keep, dropped): a mask off the lightest entries whose masses sum to at most budget."""
    order = np.argsort(mass, kind="stable")
    total = np.cumsum(mass[order])
    n = int(np.searchsorted(total, budget, side="right"))
    keep = np.ones(mass.size, dtype=bool)
    keep[order[:n]] = False
    return keep, float(total[n - 1]) if n else 0.0


def _taylor_tail(mu: np.ndarray, mass: np.ndarray, cols: int) -> float:
    """An upper bound on sum_a mass_a P[Poisson(mu_a) >= cols], cols >= 1.

    Chernoff's bound e^(-mu) (e mu / cols)^cols where cols > mu, else 1.
    """
    with np.errstate(divide="ignore"):
        log_p = np.where(mu < cols, cols * (1.0 + np.log(mu) - log(cols)) - mu, 0.0)
    return float(np.dot(mass, np.exp(log_p)))


def _factored_cut(
    gamma: float, t: np.ndarray, w: np.ndarray, terms: int, budget: float
) -> tuple[np.ndarray | slice, int, float]:
    """(keep, cols, dropped): the factor cut to a dropped mass of at most ``budget``.

    Half the budget goes to positive nodes, each standing for itself and
    its mirror image (mass 2 w_a), half to the Taylor columns past the
    kept ones on the kept rows, bounded to infinity by :func:`_taylor_tail`
    (row a's tail past c columns is w_a P[Poisson(2 g^2 t_a^2) >= c]).
    When no cut fits, or none is left to make, it is the whole factor of
    ``terms`` columns and the dropped mass is 0.
    """
    m = t.size
    tp, wp = t[m - m // 2 :], w[m - m // 2 :]
    keep, dropped = _drop_lightest(2.0 * wp, 0.5 * budget)
    mu, mass = 2.0 * (gamma * tp[keep]) ** 2, 2.0 * wp[keep]
    cols = 1 + bisect.bisect_left(
        range(1, terms + 1), True, key=lambda c: _taylor_tail(mu, mass, c) <= 0.5 * budget
    )
    # cols past terms: not even the whole length fits the budget
    if cols < terms or (cols == terms and not keep.all()):
        return keep, cols, dropped + _taylor_tail(mu, mass, cols)
    return slice(None), terms, 0.0


def nystrom_eigs(gamma: float, m: int, k: int, scale: float = 1.0) -> np.ndarray:
    """Largest k eigenvalues of the Nystrom discretization of the kernel operator.

    The m x m matrix is A[a, b] = sqrt(w_a w_b) K_1(t_a, t_b) on an m-point
    rule for rho_1; its spectrum converges to that of the integral operator
    as m grows.  Values are returned in descending order.

    ``scale`` = s selects the kernel-scaled rule obtained by substituting
    t = s*u in the rho_1 integral: nodes t_i = s*u_i and weights
    s*w_i*exp((1 - s^2) u_i^2), where (u_i, w_i) is ``gauss_hermite(m)``.
    With s = 1 (the default) this is the plain Gauss-Hermite rule, bit for
    bit.  The plain rule fails once the kernel length 1/gamma falls below
    the node spacing, about pi/sqrt(2m) near the origin (at m = 200 it is
    off by 37% at gamma = 10); s < 1 packs the nodes closer together.  The
    scaled rule is valid only while s*max|u_i| still covers the tails of
    rho_1: at m = 200, s = 0.3 keeps the weight sum within 5e-15 of 1,
    while s = 0.1 loses 0.54% of the weight.  Scaled rules are not exact
    on polynomials of degree <= 2m-1.

    This routine is the numerical oracle the closed-form spectrum is
    checked against, so it never consults the closed form.  For moderate
    gamma the eigenvalues are obtained from the SVDs of two factor blocks,
    one per parity; for large gamma, where the kernel Taylor factor would
    need too many terms, a dense symmetric eigensolve is used instead.
    The route depends on gamma alone, which passes the shape-parameter
    gate of :func:`eigenvalue_ratio` (its value is not used).  On the
    plain rule the factored route keeps high relative accuracy: the ten
    largest agree with mpmath eigenvalues of the same matrix within
    4.0e-14 relative for m in {20, 33, 64, 101, 128} and gamma in
    {0.1, 0.3, 1, 2}.  On a kernel-scaled rule the tiny end is less
    accurate: at gamma = 0.6285, m = 150, s = 0.3, against mpmath at 40
    digits the whole factor's lambda_24 is off by 4.95e-12 and its
    lambda_25 (4e-16 lambda_1) by 2.35e-12.

    Only what the k returned values can feel is solved.  Write A = G G^T
    with G the rows sqrt(w_a) times the kernel's Taylor terms.  A node's
    row has squared norm w_a, since K(t, t) = 1 on every rule, and a row's
    Taylor columns past c have w_a P[Poisson(2 gamma^2 t_a^2) >= c].
    Leaving out nodes (a principal submatrix) or columns subtracts a
    positive semidefinite part whose trace is the mass D left out, so by
    Cauchy interlacing and Weyl's inequality (Horn & Johnson, Matrix
    Analysis, 2nd ed., Cor. 4.3.15)

        lambda_j(kept) <= lambda_j(A) <= lambda_j(kept) + D,   every j.

    Each route has one solver, called on at most three cuts.  The first
    gives a lower bound on lambda_k from the matrix itself: the first 2k
    Taylor columns on every node, or the k heaviest nodes' principal
    submatrix.  Half of _DROP_FRACTION = 2^-53 times that bound is the
    budget of the second cut: the factored route leaves out the lightest
    positive nodes and the trailing Taylor columns, half the budget each,
    and counts every term past the kept ones (also past the factor's own
    length) by a Chernoff bound; the dense route leaves out the lightest
    nodes.  That cut is accepted once, when D <= _DROP_FRACTION *
    lambda_k(kept), so the top k are those of A to within one unit
    roundoff of lambda_k.  In exact arithmetic it always passes; a cut
    that fails in rounding is followed by the third, the whole matrix.
    The lower bound costs a solve of 2k columns or k nodes, so the cut is
    tried only while 4k is at most m and, on the factored route, the
    factor's length.  Otherwise, as for k = m or a lower bound of 0
    (lambda_k underflowed), only the whole matrix is solved, bit for bit
    as without the cut.
    """
    eigenvalue_ratio(gamma)
    m = _at_least("rule size", m, 1)
    k = _at_least("k", k, 1)
    if k > m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"rule scale must be positive and finite, got {scale}")
    t, w = _scaled_rule(m, scale)
    terms = _factor_terms(gamma)
    if terms <= _MAX_FACTOR_TERMS:
        solve = functools.partial(_nystrom_eigs_factored, gamma, t, w)
        cut = functools.partial(_factored_cut, gamma, t, w, terms)
        small, whole, size = (slice(None), 2 * k), (slice(None), terms), min(m, terms)
    else:
        solve = functools.partial(_nystrom_eigs_dense, gamma, t, w)
        cut = functools.partial(_drop_lightest, w)
        small, whole, size = (np.sort(np.argsort(-w, kind="stable")[:k]),), (slice(None),), m
    # the small cut reads 2k columns or k nodes, which must be small next
    # to the whole for the cut to pay
    if 4 * k <= size:
        budget = 0.5 * _DROP_FRACTION * solve(*small)[k - 1]
        if budget > 0:
            *kept, dropped = cut(budget)
            lam = solve(*kept)
            if dropped <= _DROP_FRACTION * lam[k - 1]:
                return lam[:k]
    return solve(*whole)[:k]


def integrate(d: int, m: int, g) -> float:
    """Tensor-product Gauss-Hermite approximation of the rho_d integral of g.

    ``g`` is called once with the (N, d) array of grid points and must
    return an array of shape (N,); any other shape raises ``ValueError``.
    The grid of m^d nodes is limited to 10^7, as in :func:`tensor_rule`.
    """
    _, w, vals = _grid_values(d, m, g)
    return float(np.dot(w, vals))


def _grid_values(d: int, m: int, g):
    """(pts, w, g(pts)) on the tensor grid; ``ValueError`` unless g returns shape (N,)."""
    pts, w = tensor_rule(d, m)
    vals = np.asarray(g(pts), dtype=float)
    if vals.shape != w.shape:
        raise ValueError(f"integrand must return shape {w.shape}, got {vals.shape}")
    return pts, w, vals


def tensor_rule(d: int, m: int):
    """Tensor grid points (N, d) and normalized weights (N,) for rho_d, m^d <= 10^7."""
    d, m = _grid_shape(d, m)
    rule = gauss_hermite(m)
    grids = np.meshgrid(*([rule.nodes] * d), indexing="ij")
    pts = np.column_stack([a.ravel() for a in grids])
    w = rule.weights
    for _ in range(d - 1):
        w = np.outer(w, rule.weights).ravel()
    return pts, w


def _grid_shape(d: int, m: int) -> tuple[int, int]:
    """(d, m) as ints: ``ValueError`` unless both are >= 1, ``ResourceLimitError`` past 10^7 nodes.

    :func:`tensor_rule`'s checks, also read by the spline WCE's grid memo.
    """
    d = _at_least("dimension", d, 1)
    # as a Python int, so that m**d cannot wrap as a numpy integer would
    m = _at_least("rule size", m, 1)
    if m**d > MAX_GRID_SIZE:
        raise ResourceLimitError(f"tensor grid m^d = {m**d} exceeds {MAX_GRID_SIZE}")
    return d, m
