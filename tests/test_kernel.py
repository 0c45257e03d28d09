import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grkhs import (
    ShapeSequence,
    cross_kernel,
    eigenvalue_ratio,
    gaussian_weight,
    gram_matrix,
    initial_error,
    kernel_eval,
)
from grkhs.kernel import _eigenvalue_ratios


class TestShapeSequence:
    def test_isotropic(self):
        s = ShapeSequence.isotropic(1.5)
        assert s.gamma(1) == 1.5
        assert s.gamma(100) == 1.5
        assert np.allclose(s.gammas(4), 1.5)

    def test_power_law(self):
        s = ShapeSequence.power_law(2.0, 1.0)
        assert s.gamma(1) == pytest.approx(2.0)
        assert s.gamma(4) == pytest.approx(0.5)

    def test_geometric(self):
        s = ShapeSequence.geometric(0.5)
        assert s.gamma(1) == pytest.approx(0.5)
        assert s.gamma(3) == pytest.approx(0.125)

    def test_explicit(self):
        s = ShapeSequence.explicit([1.0, 0.5])
        assert s.gammas(2).tolist() == [1.0, 0.5]
        with pytest.raises(ValueError):
            s.gammas(3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ShapeSequence.isotropic(0.0)
        with pytest.raises(ValueError):
            ShapeSequence.geometric(1.0)
        with pytest.raises(ValueError):
            ShapeSequence.explicit([1.0, -0.5])
        with pytest.raises(ValueError):
            ShapeSequence.power_law(1.0, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="shape parameter must be positive"):
            ShapeSequence.isotropic(bad)
        with pytest.raises(ValueError, match="power-law scale must be positive"):
            ShapeSequence.power_law(bad, 1.0)
        with pytest.raises(ValueError, match="power-law exponent must be >= 0"):
            ShapeSequence.power_law(1.0, bad)
        with pytest.raises(ValueError, match="geometric base must lie in"):
            ShapeSequence.geometric(bad)
        with pytest.raises(ValueError, match="all shape parameters must be positive"):
            ShapeSequence.explicit([1.0, bad])
        with pytest.raises(ValueError, match="shape parameter must be positive"):
            eigenvalue_ratio(bad)

    @pytest.mark.parametrize(
        "shape",
        [
            ShapeSequence.isotropic(1.5),
            ShapeSequence.isotropic(1e-300),
            ShapeSequence.explicit([0.7, 0.7, 1.3, 2.0**-40, 5e300]),
            ShapeSequence.power_law(3.7, 0.61),
            ShapeSequence.geometric(0.93),
        ],
    )
    def test_gammas_bit_equal_to_scalar_gamma(self, shape):
        d = 5
        g = shape.gammas(d)
        assert g.dtype == np.float64 and g.shape == (d,)
        assert g.tobytes() == np.array([shape.gamma(l) for l in range(1, d + 1)]).tobytes()
        # a fresh array each call: writing to it leaves the shape unchanged
        g[0] = 0.0
        assert shape.gammas(d)[0] == shape.gamma(1)

    def test_explicit_gammas_copy_a_strided_list(self):
        vals = np.arange(1.0, 13.0)[::3]
        s = ShapeSequence.explicit(vals)
        assert s.gammas(3).tolist() == [1.0, 4.0, 7.0]
        assert s.gammas(3).flags.c_contiguous

    @pytest.mark.parametrize("huge", [1e17, 1e200])
    def test_rejects_ratio_rounding_to_one(self, huge):
        # a unit ratio is a zero lattice cost; NaN would make every count 1
        with pytest.raises(ValueError, match="too large for double precision"):
            eigenvalue_ratio(huge)


def test_kernel_values():
    iso = ShapeSequence.isotropic(1.0)
    assert kernel_eval(iso, 1, [0.0], [1.0]) == pytest.approx(np.exp(-1.0))
    aniso = ShapeSequence.explicit([1.0, 2.0])
    assert kernel_eval(aniso, 2, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(
        np.exp(-5.0)
    )


def test_kernel_diagonal_is_one():
    s = ShapeSequence.power_law(1.0, 2.0)
    x = [0.3, -1.2, 4.0]
    assert kernel_eval(s, 3, x, x) == pytest.approx(1.0)


def test_kernel_eval_point_shapes():
    s = ShapeSequence.isotropic(1.0)
    # a scalar is a point for d = 1
    assert kernel_eval(s, 1, 0.5, 0.0) == kernel_eval(s, 1, [0.5], [0.0])
    for x in ([0.0, 0.0, 0.0], [[0.0, 0.0]], 0.0, []):
        with pytest.raises(ValueError, match="shape|only valid for d=1"):
            kernel_eval(s, 2, x, [0.0, 0.0])
        with pytest.raises(ValueError, match="shape|only valid for d=1"):
            kernel_eval(s, 2, [0.0, 0.0], x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_eval_rejects_non_finite(bad):
    s = ShapeSequence.isotropic(1.0)
    # the check comes before any arithmetic, so inf - inf warns about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, t in (([bad], [0.0]), ([0.0], [bad]), (bad, bad)):
            with pytest.raises(ValueError, match="point coordinates must be finite"):
                kernel_eval(s, 1, x, t)
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            kernel_eval(s, 2, [0.0, bad], [bad, 0.0])


def test_gram_matrix_properties():
    s = ShapeSequence.isotropic(0.8)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((7, 2))
    K = gram_matrix(s, 2, pts)
    assert K.shape == (7, 7)
    assert np.allclose(np.diag(K), 1.0)
    assert np.allclose(K, K.T)
    ev = np.linalg.eigvalsh(K)
    assert ev.min() > -1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gram_matrix_properties_any_sites(data):
    # any sites, coincident ones included: symmetric, unit diagonal and PSD
    # up to rounding
    d = data.draw(st.integers(1, 3))
    gammas = data.draw(st.lists(st.floats(0.1, 3.0), min_size=d, max_size=d))
    rows = data.draw(
        st.lists(
            st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d),
            min_size=1,
            max_size=12,
        )
    )
    n = len(rows)
    K = gram_matrix(ShapeSequence.explicit(gammas), d, np.array(rows))
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 1.0)
    assert np.linalg.eigvalsh(K)[0] >= -1e-12 * n


def test_gram_matches_kernel_eval():
    s = ShapeSequence.explicit([0.7, 1.3])
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [0.5, 2.0]])
    K = gram_matrix(s, 2, pts)
    for i in range(3):
        for j in range(3):
            assert K[i, j] == pytest.approx(kernel_eval(s, 2, pts[i], pts[j]))


def _gram_reference(shape, d, pts):
    # reference: the Gram formula that gram_matrix must reproduce bit for bit
    g = shape.gammas(d)
    scaled = pts * g
    sq = np.sum(scaled * scaled, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * scaled @ scaled.T
    np.maximum(d2, 0.0, out=d2)
    K = np.exp(-d2)
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0)
    return K


def _cross_reference(shape, d, a, b):
    # reference: the sites-by-points formula of the spline evaluators
    g = shape.gammas(d)
    sa, sb = a * g, b * g
    d2 = (
        np.sum(sa * sa, axis=1)[:, None]
        + np.sum(sb * sb, axis=1)[None, :]
        - 2.0 * sa @ sb.T
    )
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2)


@st.composite
def _near_duplicate_points(draw, d, max_size):
    """Rows in [-5, 5]^d, some repeated exactly or moved by at most 1e-9."""
    rows = draw(
        st.lists(
            st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d),
            min_size=1,
            max_size=max_size,
        )
    )
    pts = np.array(rows, dtype=float)
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=max_size - len(rows)))
    nudge = draw(st.floats(-1e-9, 1e-9))
    return np.vstack([pts, pts[copies] + nudge]) if copies else pts


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernels_bit_equal_to_reference_formulas(data):
    d = data.draw(st.integers(1, 8))
    gammas = data.draw(st.lists(st.floats(0.1, 3.0), min_size=d, max_size=d))
    shape = ShapeSequence.explicit(gammas)
    a = data.draw(_near_duplicate_points(d, 40))
    b = data.draw(_near_duplicate_points(d, 40))
    assert np.array_equal(gram_matrix(shape, d, a), _gram_reference(shape, d, a))
    assert np.array_equal(cross_kernel(shape, d, a, b), _cross_reference(shape, d, a, b))


def test_cross_kernel_matches_kernel_eval():
    s = ShapeSequence.power_law(1.2, 0.5)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((4, 3))
    K = cross_kernel(s, 3, a, b)
    assert K.shape == (6, 4)
    ref = [[kernel_eval(s, 3, x, t) for t in b] for x in a]
    assert np.allclose(K, ref, rtol=1e-12, atol=0.0)


def test_cross_kernel_shapes():
    s = ShapeSequence.isotropic(1.0)
    # a 1-d array is a column of sites for d = 1, an empty one has no rows
    assert cross_kernel(s, 1, [0.0, 1.0], [[0.0]]).shape == (2, 1)
    assert cross_kernel(s, 2, np.empty((0, 2)), [[0.0, 0.0]]).shape == (0, 1)
    with pytest.raises(ValueError, match="only valid for d=1"):
        cross_kernel(s, 2, [0.0, 1.0], [[0.0, 0.0]])
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        cross_kernel(s, 2, [[0.0, 0.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match="nonempty"):
        gram_matrix(s, 2, np.empty((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    s = ShapeSequence.isotropic(1.0)
    pts = np.array([[0.0, 0.0], [1.0, bad]])
    with pytest.raises(ValueError, match="must be finite"):
        gram_matrix(s, 2, pts)
    with pytest.raises(ValueError, match="must be finite"):
        cross_kernel(s, 2, pts, [[0.0, 0.0]])
    with pytest.raises(ValueError, match="must be finite"):
        cross_kernel(s, 2, [[0.0, 0.0]], pts)


def test_gaussian_weight():
    x = np.array([[0.0], [1.0]])
    w = gaussian_weight(x)
    assert w[0] == pytest.approx(np.pi**-0.5)
    assert w[1] == pytest.approx(np.pi**-0.5 * np.exp(-1.0))


def test_eigenvalue_ratios_bit_equal_to_scalar():
    rng = np.random.default_rng(20261018)
    g = np.concatenate((10.0 ** rng.uniform(-150.0, 15.0, 20000), [1e-162, 1e-200, 1.0]))
    ref = np.array([eigenvalue_ratio(x) for x in g])
    assert _eigenvalue_ratios(g).tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [1e17, 1e200, np.inf, 0.0, -1.0, np.nan])
def test_eigenvalue_ratios_raise_like_scalar(bad):
    with pytest.raises(ValueError) as scalar:
        eigenvalue_ratio(bad)
    with pytest.raises(ValueError) as vector:
        _eigenvalue_ratios(np.array([0.5, bad, 2.0, 1e17, 0.0]))
    assert str(vector.value) == str(scalar.value)


def test_eigenvalue_ratio_closed_form():
    # gamma = 1: omega = (3 - sqrt 5) / 2
    assert eigenvalue_ratio(1.0) == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0)
    assert 0.0 < eigenvalue_ratio(0.01) < eigenvalue_ratio(10.0) < 1.0


def test_initial_error_values():
    iso = ShapeSequence.isotropic(1.0)
    omega = eigenvalue_ratio(1.0)
    assert initial_error(iso, 1) == pytest.approx(0.7861514, abs=1e-6)
    assert initial_error(iso, 3) == pytest.approx((1.0 - omega) ** 1.5)
    # initial error decreases with dimension
    assert initial_error(iso, 5) < initial_error(iso, 2) < initial_error(iso, 1)
