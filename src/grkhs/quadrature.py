"""Gauss-Hermite quadrature for the probability weight and the Nystrom oracle.

All rules are normalized to the density rho_1(t) = pi^(-1/2) exp(-t^2), so
weights sum to one and no sqrt(pi) factor leaks downstream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import inf, lgamma, log

import numpy as np

from .errors import ResourceLimitError
from .kernel import _at_least, _exact_kernel, eigenvalue_ratio

__all__ = ["QuadratureRule", "gauss_hermite", "nystrom_eigs", "integrate", "tensor_rule"]

MAX_RULE_SIZE = 512
MAX_GRID_SIZE = 10_000_000


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
    exp((1 - s^2) u_i^2) overflows.  A w_i that is already 0 stays 0.
    """
    rule = gauss_hermite(m)
    if scale == 1.0:
        return rule.nodes, rule.weights
    u = rule.nodes
    with np.errstate(divide="ignore"):
        log_w = log(scale) + np.log(rule.weights) + (1.0 - scale * scale) * u * u
    return scale * u, np.exp(log_w)


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
    # aim at a truncation below 1e-30 absolute
    return int(np.ceil(2.0 * 30.0 * np.log(10.0) / -np.log(rho))) + 32


def _nystrom_eigs_factored(
    gamma: float, t: np.ndarray, w: np.ndarray, terms: int
) -> np.ndarray:
    """Eigenvalues of the Nystrom matrix via an SVD of an explicit factor.

    Writing K(t,s) = e^(-g^2 t^2) e^(2 g^2 t s) e^(-g^2 s^2) and expanding
    the middle exponential gives A = B B^T with graded columns

        B[a, k] = sqrt(w_a) e^(-g^2 t_a^2) sqrt((2 g^2)^k / k!) t_a^k.

    Singular values of B square to the eigenvalues of A with far better
    relative accuracy on the tiny end of the spectrum than a dense
    symmetric eigensolve, whose noise floor is eps * lambda_max.
    """
    g2 = 2.0 * gamma * gamma
    ks = np.arange(terms)
    log_coef = 0.5 * (ks * log(g2) - np.array([lgamma(k + 1.0) for k in ks]))
    zero = t == 0.0
    # a weight that underflowed to 0 (large m) gives a zero row of B
    with np.errstate(divide="ignore"):
        log_B = np.add.outer(0.5 * np.log(w) - (gamma * t) ** 2, log_coef)
    # log|t| is left at 0 for a node at 0 (odd m), whose row is written below
    log_abs_t = np.log(np.abs(t), out=np.zeros_like(t), where=~zero)
    log_B += np.multiply.outer(log_abs_t, ks)
    B = np.exp(log_B, out=log_B)
    # t = 0 contributes only through the constant term
    B[zero, 1:] = 0.0
    B[t < 0, 1::2] *= -1.0
    sv = np.linalg.svd(B, compute_uv=False)
    m = t.size
    lam = np.zeros(m)
    lam[: sv.size] = sv[:m] ** 2
    return lam


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
    gamma the eigenvalues are obtained from a factored SVD (high relative
    accuracy down to the underflow floor); for large gamma, where the
    kernel Taylor factor would need too many terms, a dense symmetric
    eigensolve is used instead.  The route depends on gamma alone, which
    passes the shape-parameter gate of :func:`eigenvalue_ratio` (its value
    is not used).
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
        lam = _nystrom_eigs_factored(gamma, t, w, terms)
    else:
        lam = np.linalg.eigvalsh(_nystrom_matrix(gamma, t, w))[::-1]
    return lam[:k]


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
