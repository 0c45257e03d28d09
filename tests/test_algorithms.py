import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grkhs import (
    ShapeSequence,
    eigen_projection,
    gauss_hermite,
    initial_error,
    minimal_error_all,
    power_function,
    spline_fit,
    spline_worst_case_error,
    univariate_spectrum,
)
from grkhs.algorithms import _gram_pinv_factors, tensor_eigenfunctions
from grkhs.spectrum import MultiIndex


class TestEigenProjection:
    def test_reproduces_eigenfunction(self):
        # projecting phi_2 onto the first 5 eigenfunctions returns phi_2
        shape = ShapeSequence.isotropic(1.0)
        spec = univariate_spectrum(1.0)
        proj = eigen_projection(
            shape, 1, 5, lambda p: spec.eigenfunction(2, p[:, 0]), m=64
        )
        expected = np.zeros(5)
        expected[1] = 1.0
        assert np.allclose(proj.coefficients, expected, atol=1e-10)
        x = np.linspace(-1.5, 1.5, 9)[:, None]
        assert np.allclose(proj(x), spec.eigenfunction(2, x[:, 0]), atol=1e-10)

    def test_mapping_input_any_d(self):
        shape = ShapeSequence.isotropic(1.0)
        proj = eigen_projection(shape, 10, 3, {(1,) * 10: 2.0})
        assert proj.coefficients[0] == 2.0
        assert np.all(proj.coefficients[1:] == 0.0)

    def test_parseval(self):
        # quadrature norm of the projection equals the coefficient norm
        shape = ShapeSequence.isotropic(1.0)
        f = lambda p: np.exp(-p[:, 0] ** 2)
        proj = eigen_projection(shape, 1, 12, f, m=80)
        from grkhs import integrate

        norm_sq = integrate(1, 80, lambda p: proj(p) ** 2)
        assert norm_sq == pytest.approx(float(np.sum(proj.coefficients**2)))


class TestMinimalErrorAll:
    def test_n_zero_is_initial_error(self):
        shape = ShapeSequence.isotropic(1.0)
        assert minimal_error_all(shape, 1, 0) == pytest.approx(
            initial_error(shape, 1)
        )

    def test_frozen_value(self):
        # d=1, gamma=1, n=3: sqrt(lambda_4) = sqrt(0.0344419)
        assert minimal_error_all(ShapeSequence.isotropic(1.0), 1, 3) == pytest.approx(
            0.1855853, abs=1e-6
        )

    def test_monotone(self):
        shape = ShapeSequence.power_law(1.0, 1.0)
        errs = [minimal_error_all(shape, 2, n) for n in range(8)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_negative_n(self):
        with pytest.raises(ValueError):
            minimal_error_all(ShapeSequence.isotropic(1.0), 1, -1)


class TestSpline:
    def test_interpolates(self):
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        model = spline_fit(shape, 2, X, y)
        assert np.allclose(model(X), y, atol=1e-9)

    def test_duplicate_sites_minimal_norm(self):
        # duplicated site with consistent data: coefficients split evenly
        model = spline_fit(ShapeSequence.isotropic(1.0), 1, [[0.0], [0.0]], [1.0, 1.0])
        assert np.allclose(model.coefficients, [0.5, 0.5])
        assert model([[0.0]])[0] == pytest.approx(1.0)

    def test_validation(self):
        shape = ShapeSequence.isotropic(1.0)
        with pytest.raises(ValueError):
            spline_fit(shape, 1, np.empty((0, 1)), [])
        with pytest.raises(ValueError):
            spline_fit(shape, 2, [[0.0, 0.0]], [1.0, 2.0])


class TestPowerFunction:
    def test_zero_at_sites_one_far_away(self):
        shape = ShapeSequence.isotropic(1.0)
        X = np.array([[0.0], [1.0]])
        p = power_function(shape, 1, X, X)
        assert np.allclose(p, 0.0, atol=1e-6)
        far = power_function(shape, 1, X, [[30.0]])
        assert far[0] == pytest.approx(1.0, abs=1e-6)

    def test_empty_design(self):
        p = power_function(ShapeSequence.isotropic(1.0), 2, np.empty((0, 2)), [[0.0, 0.0]])
        assert p[0] == 1.0

    def test_bounded_by_one(self):
        shape = ShapeSequence.power_law(1.0, 1.0)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 2))
        q = rng.standard_normal((40, 2))
        p = power_function(shape, 2, X, q)
        assert np.all((0.0 <= p) & (p <= 1.0))


class TestSplineWorstCaseError:
    def test_empty_design_is_initial_error(self):
        shape = ShapeSequence.isotropic(1.0)
        wce = spline_worst_case_error(shape, 1, np.empty((0, 1)), 200)
        assert wce == pytest.approx(initial_error(shape, 1), abs=1e-6)

    def test_dominates_optimal_error(self):
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(5)
        for n in (1, 4, 9):
            X = rng.standard_normal((n, 1))
            wce = spline_worst_case_error(shape, 1, X, 200)
            assert wce >= minimal_error_all(shape, 1, n) - 1e-9

    def test_trace_bounds_spectral(self):
        shape = ShapeSequence.isotropic(1.0)
        X = np.array([[0.0], [0.7]])
        spectral = spline_worst_case_error(shape, 1, X, 100)
        trace = spline_worst_case_error(shape, 1, X, 100, method="trace")
        assert spectral <= trace + 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            spline_worst_case_error(
                ShapeSequence.isotropic(1.0), 1, [[0.0]], 50, method="bogus"
            )


def _dense_wce(gammas, design, m):
    """The spline WCE on the m^d grid from the dense N x N power kernel."""
    rule = gauss_hermite(m)
    d = len(gammas)
    axes = np.meshgrid(*([rule.nodes] * d), indexing="ij")
    grid = np.column_stack([a.ravel() for a in axes])
    w = np.prod(np.meshgrid(*([rule.weights] * d), indexing="ij"), axis=0).ravel()
    g = np.asarray(gammas)

    def kern(a, b):
        return np.exp(-np.sum((g * (a[:, None, :] - b[None, :, :])) ** 2, axis=2))

    G = kern(grid, grid)
    if len(design):
        ev, V = np.linalg.eigh(kern(design, design))
        keep = ev > 1e-12 * ev[-1]
        kx = kern(grid, design) @ V[:, keep]
        G = G - (kx / ev[keep]) @ kx.T
    s = np.sqrt(w)
    lam = np.linalg.eigvalsh(s[:, None] * G * s[None, :])[-1]
    return float(np.sqrt(max(0.0, lam)))


# (gammas, m): N = m^d on both sides of the 64-node dense cutoff
_WCE_GRIDS = [
    ([1.0], 40),
    ([1.0], 120),
    ([1.0, 1.0], 8),
    ([1.0, 1.0], 12),
    ([1.0, 0.5], 12),
    ([1.0, 1.0, 1.0], 4),
    ([1.0, 0.5, 2.0], 4),
    ([1.0, 0.5, 2.0], 6),
]


def _wce_designs(d):
    rng = np.random.default_rng(11)
    spread = rng.uniform(-1.5, 1.5, (4, d))
    coincident = np.array([spread[0], spread[0], spread[1]])
    return {"empty": np.empty((0, d)), "spread": spread, "coincident": coincident}


class TestSplineWorstCaseErrorOperator:
    @pytest.mark.parametrize("gammas,m", _WCE_GRIDS)
    @pytest.mark.parametrize("kind", ["empty", "spread", "coincident"])
    def test_matches_dense_reference(self, gammas, m, kind):
        d = len(gammas)
        design = _wce_designs(d)[kind]
        shape = ShapeSequence.explicit(gammas)
        if kind == "coincident":
            # the repeated site makes the Gram singular, so clipping fires
            assert np.count_nonzero(_gram_pinv_factors(shape, d, design)[1] == 0.0) == 1
        wce = spline_worst_case_error(shape, d, design, m)
        ref = _dense_wce(gammas, design, m)
        assert abs(wce - ref) <= 1e-12 * ref

    def test_no_dense_grid_kernel(self):
        # d = 3, m = 16: the dense (m^d)^2 grid kernel alone would be 134 MB
        shape = ShapeSequence.isotropic(1.0)
        design = np.random.default_rng(2).standard_normal((10, 3))
        tracemalloc.start()
        try:
            spline_worst_case_error(shape, 3, design, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 2).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(
                    st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d),
                    max_size=8,
                ),
            )
        )
    )
    def test_between_optimal_error_and_trace_bound(self, case):
        d, rows = case
        design = np.array(rows, dtype=float).reshape(-1, d)
        shape = ShapeSequence.isotropic(1.0)
        m = 200 if d == 1 else 32
        wce = spline_worst_case_error(shape, d, design, m)
        trace = spline_worst_case_error(shape, d, design, m, method="trace")
        lower = minimal_error_all(shape, d, design.shape[0])
        assert lower - 1e-9 <= wce <= trace + 1e-9


def test_tensor_eigenfunctions_product_structure():
    shape = ShapeSequence.explicit([1.0, 0.5])
    s1, s2 = univariate_spectrum(1.0), univariate_spectrum(0.5)
    pts = np.array([[0.2, -0.3], [1.0, 0.5]])
    idx = [MultiIndex.from_dense((2, 3))]
    vals = tensor_eigenfunctions(shape, 2, idx, pts)
    expected = s1.eigenfunction(2, pts[:, 0]) * s2.eigenfunction(3, pts[:, 1])
    assert np.allclose(vals[0], expected)
