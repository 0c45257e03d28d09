"""Self-contained verification suite for the library's numerical claims.

Each check pairs a closed-form quantity with an independent numerical
route (quadrature, brute-force enumeration, random designs) and a fixed
tolerance.  The checks are deterministic: fixed seeds, fixed grids, no
wall-clock content, so two runs render byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import _spline_rule_size, spline_worst_case_error
from .complexity import (
    ErrorSequence,
    _error_values,
    estimate_rate,
    info_complexity,
    quasipoly_exponent,
    tractability_probe,
)
from .kernel import ShapeSequence, eigenvalue_ratio, initial_error, kernel_eval
from .quadrature import gauss_hermite, nystrom_eigs
from .spectrum import top_n_tensor_eigenvalues, univariate_spectrum

__all__ = ["CheckResult", "run_checks", "render_report", "run_full"]

DETERMINISM_CHECK_NAME = "12 determinism"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def check_spectral_oracle() -> CheckResult:
    worst = 0.0
    per_gamma = []
    for gamma in (0.1, 0.5, 1.0, 2.0, 10.0):
        spec = univariate_spectrum(gamma)
        lam = spec.eigenvalue(np.arange(1, 11))
        # For gamma > 3 the kernel-scaled rule shrinks the node spacing near
        # the origin to about 0.47/gamma, half the kernel length 1/gamma.
        # The scale depends on gamma alone, never on the closed form.
        approx = nystrom_eigs(gamma, 200, 10, scale=min(1.0, 3.0 / gamma))
        rel = float(np.max(np.abs(approx - lam) / lam))
        per_gamma.append(f"gamma={gamma:g}: {_fmt(rel)}")
        worst = max(worst, rel)
    return CheckResult(
        "01 spectral oracle equivalence",
        worst <= 1e-6,
        "max rel err " + ", ".join(per_gamma) + " (tol 1e-6)",
    )


def check_trace_identity() -> CheckResult:
    worst = 0.0
    for gamma in (0.1, 0.5, 1.0, 2.0, 10.0):
        spec = univariate_spectrum(gamma)
        partial = float(np.sum(spec.eigenvalue(np.arange(1, 2001))))
        target = 1.0 - spec.omega**2000
        worst = max(worst, abs(partial - target))
    return CheckResult(
        "02 trace identity",
        worst <= 1e-12,
        f"max |partial sum - (1 - omega^2000)| = {_fmt(worst)} (tol 1e-12)",
    )


def check_orthonormality() -> CheckResult:
    rule = gauss_hermite(200)
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        spec = univariate_spectrum(gamma)
        P = spec.eigenfunctions(10, rule.nodes)
        G = (P * rule.weights) @ P.T
        worst = max(worst, float(np.max(np.abs(G - np.eye(10)))))
    return CheckResult(
        "03 eigenfunction orthonormality",
        worst <= 1e-8,
        f"max |Gram - I| = {_fmt(worst)} (tol 1e-8)",
    )


def check_mercer() -> CheckResult:
    shape = ShapeSequence.isotropic(1.0)
    spec = univariate_spectrum(1.0)
    grid = np.linspace(-2.0, 2.0, 5)
    P = spec.eigenfunctions(50, grid)
    lam = spec.eigenvalue(np.arange(1, 51))
    recon = (P.T * lam) @ P
    exact = np.array(
        [[kernel_eval(shape, 1, [x], [t]) for t in grid] for x in grid]
    )
    worst = float(np.max(np.abs(recon - exact)))
    return CheckResult(
        "04 Mercer reconstruction",
        worst <= 1e-8,
        f"max |partial expansion - kernel| = {_fmt(worst)} (tol 1e-8)",
    )


def _brute_force_top(shape, d, n, box=40):
    """Top n of the whole box {1..box}^d: descending log value, exact ties
    by the (position, -j) key of the entries above 1.

    An exhaustive search that shares nothing with the merge: every index
    is accumulated in position order, as in ``_log_product``.
    """
    ratios = np.array([eigenvalue_ratio(g) for g in shape.gammas(d)])
    base = float(np.sum(np.log1p(-ratios)))
    log_ratio = np.log(ratios)
    axes = np.meshgrid(*[np.arange(1, box + 1)] * d, indexing="ij")
    dense = np.stack(axes, axis=-1).reshape(-1, d)
    logval = np.full(dense.shape[0], base)
    # the key as a zero-padded row of (position, -j) pairs, left-justified
    key = np.zeros((dense.shape[0], 2 * d), dtype=np.int64)
    slot = np.zeros(dense.shape[0], dtype=np.int64)
    for pos in range(d):
        up = np.flatnonzero(dense[:, pos] > 1)
        logval[up] += (dense[up, pos] - 1) * log_ratio[pos]
        key[up, 2 * slot[up]] = pos + 1
        key[up, 2 * slot[up] + 1] = -dense[up, pos]
        slot[up] += 1
    cols = tuple(key[:, k] for k in range(2 * d - 1, -1, -1))
    top = np.lexsort(cols + (-logval,))[:n]
    return [(logval[i], tuple(dense[i].tolist())) for i in top]


def check_tensor_enumeration() -> CheckResult:
    cases = [
        (ShapeSequence.isotropic(1.0), 2),
        (ShapeSequence.isotropic(1.0), 3),
        (ShapeSequence.explicit([1.0, 0.5, 0.25]), 2),
        (ShapeSequence.explicit([1.0, 0.5, 0.25]), 3),
    ]
    for shape, d in cases:
        top = top_n_tensor_eigenvalues(shape, d, 100)
        brute = _brute_force_top(shape, d, 100)
        for k in range(100):
            lv, idx = top.log_values[k], top.indices[k].dense()
            blv, bidx = brute[k]
            if lv != blv or idx != bidx:
                return CheckResult(
                    "05 tensor enumeration vs brute force",
                    False,
                    f"first mismatch at rank {k} for {shape!r}, d={d}: "
                    f"{idx} vs {bidx}",
                )
    return CheckResult(
        "05 tensor enumeration vs brute force",
        True,
        "top-100 value- and index-exact for 4 shape/dimension cases",
    )


def check_half_rate_bound() -> CheckResult:
    shapes = [ShapeSequence.isotropic(1.0), ShapeSequence.power_law(1.0, 2.0)]
    worst = -math.inf
    for shape in shapes:
        for d in (1, 2, 5, 10, 50):
            e_all = _error_values(shape, d, 10_000)
            bound = (np.arange(10_001) + 1.0) ** -0.5
            worst = max(worst, float(np.max(e_all - bound)))
    return CheckResult(
        "06 dimension-free 1/2-rate bound",
        worst <= 0.0,
        f"max e(n) - (n+1)^(-1/2) = {_fmt(worst)} (must be <= 0)",
    )


def check_rate_fits() -> CheckResult:
    window = (100, 10_000)
    decaying, iso = (
        estimate_rate(ErrorSequence(_error_values(shape, 16, 10_000)), window)
        for shape in (ShapeSequence.power_law(1.0, 2.0), ShapeSequence.isotropic(1.0))
    )
    ok = 1.3 <= decaying.rate <= 2.5 and decaying.rate - iso.rate >= 0.5
    return CheckResult(
        "07 rate fit for decaying shapes",
        ok,
        f"powerlaw rate {decaying.rate:.3f} (window [1.3, 2.5]), "
        f"iso rate {iso.rate:.3f}, gap {decaying.rate - iso.rate:.3f} (>= 0.5)",
    )


def check_complexity_exponent() -> CheckResult:
    report = tractability_probe(
        ShapeSequence.isotropic(1.0),
        [2.0**-j for j in range(1, 8)],
        list(range(1, 17)),
        "absolute",
    )
    ok = 1.7 <= report.p_hat <= 2.3 and report.q_hat <= 0.1
    return CheckResult(
        "08 isotropic absolute complexity exponent",
        ok,
        f"p_hat = {report.p_hat:.3f} (window [1.7, 2.3]), "
        f"q_hat = {report.q_hat:.3f} (<= 0.1), class {report.classification}",
    )


def check_quasipoly() -> CheckResult:
    bound = 1.15 * quasipoly_exponent(1.0)
    report = tractability_probe(
        ShapeSequence.isotropic(1.0),
        [2.0**-j for j in range(1, 7)],
        list(range(1, 33)),
        "normalized",
    )
    ns = [n for _, eps, n in report.table if eps == 0.5]  # n(1/2, d), d ascending
    increasing = all(a < b for a, b in zip(ns, ns[1:]))
    ok = report.t_hat <= bound and increasing and not report.guard_hit
    return CheckResult(
        "09 isotropic normalized quasi-polynomial consistency",
        ok,
        f"t_hat = {report.t_hat:.3f} (<= {bound:.3f}), "
        f"n(1/2, d) strictly increasing: {increasing}"
        + (", half-set guard hit: counts are lower bounds" if report.guard_hit else ""),
    )


def check_spline_ordering() -> CheckResult:
    shape = ShapeSequence.isotropic(1.0)
    lower = {d: _error_values(shape, d, 20) for d in (1, 2)}
    rng = np.random.default_rng(20240817)
    cases = []
    for _ in range(200):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 21))
        cases.append((d, n, rng.standard_normal((n, d))))
    # d = 2 first and d = 1 last, so the one-entry grid memo is built once
    # per d and the empty design below finds the d = 1 grid
    cases.sort(key=lambda case: -case[0])
    min_margin = min(
        spline_worst_case_error(shape, d, design, _spline_rule_size(d)) - lower[d][n]
        for d, n, design in cases
    )
    empty_err = abs(
        spline_worst_case_error(shape, 1, np.empty((0, 1)), _spline_rule_size(1))
        - initial_error(shape, 1)
    )
    ok = min_margin >= -1e-9 and empty_err <= 1e-6
    return CheckResult(
        "10 spline vs optimal ordering",
        ok,
        f"min margin over 200 designs = {_fmt(min_margin)} (>= -1e-9), "
        f"empty-design deviation = {_fmt(empty_err)} (<= 1e-6)",
    )


def check_point_complexity() -> CheckResult:
    n = info_complexity(ShapeSequence.isotropic(1.0), 1, 0.1, "absolute")
    return CheckResult(
        "11 point complexity spot value",
        n == 5,
        f"n(0.1, d=1, absolute) = {n} (expected 5)",
    )


CHECKS = [
    check_spectral_oracle,
    check_trace_identity,
    check_orthonormality,
    check_mercer,
    check_tensor_enumeration,
    check_half_rate_bound,
    check_rate_fits,
    check_complexity_exponent,
    check_quasipoly,
    check_spline_ordering,
    check_point_complexity,
]


def run_checks() -> list:
    """Run checks 1-11 and return their results."""
    return [fn() for fn in CHECKS]


def render_report(results) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"[{status}] {res.name}: {res.detail}")
    return "\n".join(lines) + "\n"


def run_full():
    """Run all checks; the determinism check re-runs the suite and compares reports."""
    results = run_checks()
    first = render_report(results)
    second = render_report(run_checks())
    return results + [
        CheckResult(
            DETERMINISM_CHECK_NAME,
            first == second,
            "two runs render byte-identical reports"
            if first == second
            else "reports differ between runs",
        )
    ]
