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
from grkhs.quadrature import _scaled_rule


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

    def test_validation(self):
        with pytest.raises(ValueError):
            nystrom_eigs(1.0, 50, 51)

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

    def test_scalar_fallback(self):
        val = integrate(2, 20, lambda p: float(p[0]) ** 2 * float(p[1]) ** 2)
        assert val == pytest.approx(0.25)

    def test_multivariate(self):
        # coordinates are independent, each with variance 1/2
        val = integrate(2, 20, lambda p: p[:, 0] ** 2 * p[:, 1] ** 2)
        assert val == pytest.approx(0.25)

    def test_dimension_guard(self):
        with pytest.raises(ResourceLimitError):
            integrate(5, 4, lambda p: np.ones(p.shape[0]))


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
