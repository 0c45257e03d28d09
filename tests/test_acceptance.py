"""Acceptance gate: one test per verification criterion.

Each criterion is implemented in :mod:`grkhs.verify`; this module runs
``run_full`` once, which runs the suite twice for the determinism
criterion, and asserts each check at its stated tolerance.  The failure message carries the measured
quantities so a red test is directly diagnosable.
"""

import pytest

from grkhs import verify
from grkhs.verify import check_quasipoly, check_tensor_enumeration, run_full


@pytest.fixture(scope="module")
def suite():
    """The results of one ``run_full`` (shared across tests)."""
    return run_full()


def _by_prefix(results, prefix):
    for res in results:
        if res.name.startswith(prefix):
            return res
    raise AssertionError(f"no check named {prefix}*")


def _assert_check(results, prefix):
    res = _by_prefix(results, prefix)
    assert res.passed, f"{res.name}: {res.detail}"


def test_01_spectral_oracle_equivalence(suite):
    """Closed-form lambda_1..lambda_10 vs the 200-point Nystrom oracle,
    gamma in {0.1, 0.5, 1, 2, 10}, relative error <= 1e-6 each."""
    _assert_check(suite, "01")


def test_02_trace_identity(suite):
    """|sum_{j<=2000} lambda_j - (1 - omega^2000)| <= 1e-12 per gamma."""
    _assert_check(suite, "02")


def test_03_eigenfunction_orthonormality(suite):
    """Gram of phi_1..phi_10 under the 200-point rule is I within 1e-8."""
    _assert_check(suite, "03")


def test_04_mercer_reconstruction(suite):
    """50-term eigen-expansion matches the kernel within 1e-8 on a 5x5 grid."""
    _assert_check(suite, "04")


def test_05_tensor_enumeration_vs_brute_force(suite):
    """Top-100 tensor eigenvalues equal exhaustive enumeration over
    {1..40}^d for d in {2, 3}, value- and index-exact with tie-breaks."""
    _assert_check(suite, "05")


def test_06_dimension_free_half_rate(suite):
    """e_all(n) <= (n+1)^(-1/2) for n <= 1e4, d in {1, 2, 5, 10, 50}."""
    _assert_check(suite, "06")


def test_07_rate_fit_for_decaying_shapes(suite):
    """Power-law fitted rate in [1.3, 2.5] and at least 0.5 above the
    isotropic rate at the same dimension."""
    _assert_check(suite, "07")


def test_08_isotropic_absolute_complexity_exponent(suite):
    """Fitted p-hat in [1.7, 2.3] with q-hat <= 0.1 over the eps/d grid."""
    _assert_check(suite, "08")


def test_09_quasipoly_consistency_normalized(suite):
    """t-hat <= 1.15 x quasipoly exponent; n(1/2, d) strictly increasing."""
    _assert_check(suite, "09")


def test_09_guard_trip_fails_the_check(monkeypatch):
    """A half-set guard trip fails check 09 and is named in its detail."""
    # an isotropic shape is one cost group, so only a tiny guard trips
    monkeypatch.setenv("GRKHS_MAX_EIGS", "3")
    res = check_quasipoly()
    assert not res.passed
    assert res.detail.endswith(", half-set guard hit: counts are lower bounds")


def test_10_spline_vs_optimal_ordering(suite):
    """Spline worst-case error >= optimal error - 1e-9 on 200 seeded
    designs; empty design matches the initial error within 1e-6."""
    _assert_check(suite, "10")


def test_11_point_complexity_spot_value(suite):
    """info_complexity(iso:1, d=1, eps=0.1, absolute) == 5."""
    _assert_check(suite, "11")


def test_05_mismatch_fails_the_check(monkeypatch):
    """An enumeration that differs from the search fails check 05 and names the rank."""
    real = verify.top_n_tensor_eigenvalues

    def swapped(shape, d, n):
        top = real(shape, d, n)
        top.indices[1], top.indices[2] = top.indices[2], top.indices[1]
        return top

    monkeypatch.setattr(verify, "top_n_tensor_eigenvalues", swapped)
    res = check_tensor_enumeration()
    assert not res.passed
    assert res.detail == (
        "first mismatch at rank 1 for ShapeSequence.isotropic(1.0), d=2: (1, 2) vs (2, 1)"
    )


def test_12_determinism(suite):
    """Two runs of the verification suite render byte-identical reports."""
    assert len(suite) == 12
    res = suite[-1]
    assert res.name == "12 determinism"
    assert res.passed, f"{res.name}: {res.detail}"
    assert res.detail == "two runs render byte-identical reports"
