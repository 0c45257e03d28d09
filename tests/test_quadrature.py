import re
import warnings

import numpy as np
import pytest

from grkhs import (
    ResourceLimitError,
    gauss_hermite,
    integrate,
    nystrom_eigs,
    tensor_rule,
    univariate_spectrum,
)
from grkhs.quadrature import _nystrom_matrix, _scaled_rule


class TestGaussHermite:
    def test_two_point_rule(self):
        rule = gauss_hermite(2)
        assert np.allclose(np.sort(rule.nodes), [-2.0**-0.5, 2.0**-0.5])
        assert np.allclose(rule.weights, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        for m in (1, 5, 64, 200):
            assert np.sum(gauss_hermite(m).weights) == pytest.approx(1.0)

    def test_moments(self):
        # against rho_1 the coordinate has mean 0 and variance 1/2
        rule = gauss_hermite(10)
        assert np.dot(rule.weights, rule.nodes) == pytest.approx(0.0, abs=1e-15)
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(0.5)
        assert np.dot(rule.weights, rule.nodes**4) == pytest.approx(0.75)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(513)

    def test_rule_is_shared_and_read_only(self):
        rule = gauss_hermite(17)
        again = gauss_hermite(17)
        assert again.nodes is rule.nodes and again.weights is rule.weights
        for arr in (rule.nodes, rule.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestNystromEigs:
    def test_matches_closed_form(self):
        for gamma in (0.1, 0.5, 1.0, 2.0):
            spec = univariate_spectrum(gamma)
            lam = spec.eigenvalue(np.arange(1, 11))
            approx = nystrom_eigs(gamma, 200, 10)
            assert np.max(np.abs(approx - lam) / lam) < 1e-10

    def test_descending(self):
        lam = nystrom_eigs(1.0, 100, 20)
        assert np.all(np.diff(lam) <= 0)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, np.nan, np.inf])
    def test_gamma_validation(self, gamma):
        with pytest.raises(ValueError, match="shape parameter"):
            nystrom_eigs(gamma, 50, 5)

    def test_gamma_too_large_for_double_precision(self):
        # the gate of eigenvalue_ratio, where omega rounds to 1
        message = "shape parameter 1e+17 too large for double precision"
        with pytest.raises(ValueError, match=re.escape(message)):
            nystrom_eigs(1e17, 10, 3)

    def test_gamma_past_taylor_range_takes_dense_solve(self):
        # 2 g^2 / (1 + 2 g^2) rounds to 1 at gamma = 1e8: no finite Taylor length
        rule = gauss_hermite(10)
        dense = np.linalg.eigvalsh(_nystrom_matrix(1e8, rule.nodes, rule.weights))[::-1][:3]
        assert nystrom_eigs(1e8, 10, 3).tobytes() == dense.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            nystrom_eigs(1.0, 50, 51)

    @pytest.mark.parametrize("gamma", [1e-3, 0.1, 1.0, 3.7, 10.0, 1e3, 1e8])
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_nystrom_matrix_matches_its_previous_formula_bit_for_bit(self, gamma, scale):
        for m in [1, 2, 3, 7, 16, 33, 59, 100, 200, 512]:
            t, w = _scaled_rule(m, scale)
            # _nystrom_matrix's own formula before the kernel was shared
            K = np.exp(-(gamma * (t[:, None] - t[None, :])) ** 2)
            ref = np.sqrt(w)[:, None] * K * np.sqrt(w)[None, :]
            assert _nystrom_matrix(gamma, t, w).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scale", [0.0, -0.3, np.inf, np.nan])
    def test_scale_validation(self, scale):
        with pytest.raises(ValueError):
            nystrom_eigs(1.0, 50, 5, scale=scale)

    def test_largest_rule_without_warnings(self):
        # 36 of the m = 512 weights underflow to exactly 0
        assert np.count_nonzero(gauss_hermite(512).weights == 0.0) > 0
        lam = univariate_spectrum(1.0).eigenvalue(np.arange(1, 11))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            approx = nystrom_eigs(1.0, 512, 10)
        assert np.max(np.abs(approx - lam) / lam) < 1e-10

    def test_odd_rule_without_warnings(self):
        # odd m puts a node at 0, where log|t| is -inf
        assert np.count_nonzero(gauss_hermite(201).nodes == 0.0) == 1
        lam = univariate_spectrum(1.0).eigenvalue(np.arange(1, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            approx = nystrom_eigs(1.0, 201, 5)
        assert np.max(np.abs(approx - lam) / lam) < 1e-10

    def test_scaled_rule_resolves_large_gamma(self):
        lam = univariate_spectrum(10.0).eigenvalue(np.arange(1, 11))
        approx = nystrom_eigs(10.0, 200, 10, scale=0.3)
        assert np.max(np.abs(approx - lam) / lam) < 1e-10

    def test_unit_scale_is_plain_rule(self):
        t, w = _scaled_rule(200, 1.0)
        rule = gauss_hermite(200)
        assert np.array_equal(t, rule.nodes)
        assert np.array_equal(w, rule.weights)

    @pytest.mark.parametrize("scale", [0.3, 0.5])
    def test_scaled_rule_moments(self, scale):
        t, w = _scaled_rule(200, scale)
        assert abs(np.sum(w) - 1.0) < 1e-12
        assert abs(np.dot(w, t**2) - 0.5) < 1e-12


class TestIntegrate:
    def test_gaussian_integrand(self):
        # int exp(-x^2) rho_1(dx) = 1 / sqrt(2)
        val = integrate(1, 40, lambda p: np.exp(-p[:, 0] ** 2))
        assert val == pytest.approx(2.0**-0.5)

    @pytest.mark.parametrize(
        "g",
        [
            lambda p: float(p[0, 0]),  # a scalar integrand signature
            lambda p: p,  # (N, d) instead of (N,)
            lambda p: np.ones(p.shape[0] - 1),
        ],
    )
    def test_wrong_result_shape(self, g):
        with pytest.raises(ValueError, match=r"must return shape \(400,\)"):
            integrate(2, 20, g)

    def test_multivariate(self):
        # coordinates are independent, each with variance 1/2
        val = integrate(2, 20, lambda p: p[:, 0] ** 2 * p[:, 1] ** 2)
        assert val == pytest.approx(0.25)

    def test_dimension_guard(self):
        # the grid size is the only limit: d = 5 runs at 4^5 nodes
        assert integrate(5, 4, lambda p: np.ones(p.shape[0])) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ResourceLimitError):
            integrate(5, 40, lambda p: np.ones(p.shape[0]))


def test_tensor_rule_weights():
    pts, w = tensor_rule(2, 7)
    assert pts.shape == (49, 2)
    assert np.sum(w) == pytest.approx(1.0)


def test_tensor_rule_weights_survive_repeat_calls():
    # for d = 1 the weights are the shared read-only rule arrays
    _, w = tensor_rule(1, 9)
    with pytest.raises(ValueError):
        w *= 2.0
    _, again = tensor_rule(1, 9)
    assert np.array_equal(again, gauss_hermite(9).weights)
    assert np.sum(again) == pytest.approx(1.0)


def test_tensor_rule_grid_guard():
    with pytest.raises(ResourceLimitError):
        tensor_rule(4, 100)
    # a numpy dimension: 16**16 wraps to 0 in int64 arithmetic
    with pytest.raises(ResourceLimitError):
        tensor_rule(np.int64(16), 16)
    # and numpy rule sizes: 16**16 and 256**8 wrap to 0, and both grids are
    # larger than any numpy array, so they could never be allocated
    for d, m in [(16, 16), (8, 256)]:
        with pytest.raises(ResourceLimitError):
            tensor_rule(d, np.int64(m))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: gauss_hermite(v), "rule size"),
        (lambda v: nystrom_eigs(1.0, v, 1), "rule size"),
        (lambda v: nystrom_eigs(1.0, 10, v), "k"),
        (lambda v: tensor_rule(2, v), "rule size"),
    ],
    ids=["gauss_hermite", "nystrom_eigs_m", "nystrom_eigs_k", "tensor_rule"],
)
@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0)])
def test_non_integer_size_rejected(call, name, bad):
    # each used to fail inside numpy or scipy, or to take True for 1
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
        call(bad)
