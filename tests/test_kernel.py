import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grkhs
from grkhs import (
    ShapeSequence,
    cross_kernel,
    eigenvalue_ratio,
    gaussian_weight,
    gram_matrix,
    initial_error,
    kernel_eval,
)
from grkhs.kernel import _eigenvalue_ratios, _log_spectrum


class TestShapeSequence:
    def test_isotropic(self):
        s = ShapeSequence.isotropic(1.5)
        assert s.gammas(100).tolist() == [1.5] * 100

    def test_power_law(self):
        s = ShapeSequence.power_law(2.0, 1.0)
        assert s.gammas(4).tolist() == pytest.approx([2.0, 1.0, 2.0 / 3.0, 0.5])

    def test_geometric(self):
        s = ShapeSequence.geometric(0.5)
        assert s.gammas(3).tolist() == pytest.approx([0.5, 0.25, 0.125])

    def test_explicit(self):
        s = ShapeSequence.explicit([1.0, 0.5])
        assert s.gammas(2).tolist() == [1.0, 0.5]
        with pytest.raises(ValueError) as exc:
            s.gammas(3)
        assert str(exc.value) == "explicit shape has 2 entries, asked for d=3"
        with pytest.raises(ValueError, match="explicit shape needs a nonempty 1-d list"):
            ShapeSequence.explicit([])

    @pytest.mark.parametrize(
        "shape",
        [
            ShapeSequence.isotropic(1.5),
            ShapeSequence.power_law(3.7, 0.61),
            ShapeSequence.geometric(0.93),
            ShapeSequence.explicit([0.7, 1e-200, 2.0**-40]),
        ],
    )
    def test_repr_round_trips(self, shape):
        back = eval(repr(shape), {"ShapeSequence": ShapeSequence})
        assert back.kind == shape.kind and repr(back) == repr(shape)
        assert back.gammas(3).tobytes() == shape.gammas(3).tobytes()

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
        # the scalar formulas written out: numpy's vectorized pow may round
        # differently, so gammas may not use it
        p = shape.params
        scalar = {
            "isotropic": lambda l: p["gamma"],
            "power-law": lambda l: p["c"] * float(l) ** -p["alpha"],
            "geometric": lambda l: p["q"] ** l,
            "explicit": lambda l: float(p["values"][l - 1]),
        }[shape.kind]
        d = 5 if shape.kind == "explicit" else 2000
        g = shape.gammas(d)
        assert g.dtype == np.float64 and g.shape == (d,)
        assert g.tobytes() == np.array([scalar(l) for l in range(1, d + 1)]).tobytes()
        # a fresh array each call: writing to it leaves the shape unchanged
        g[0] = 0.0
        assert shape.gammas(d)[0] == scalar(1)

    def test_explicit_gammas_copy_a_strided_list(self):
        vals = np.arange(1.0, 13.0)[::3]
        s = ShapeSequence.explicit(vals)
        assert s.gammas(3).tolist() == [1.0, 4.0, 7.0]
        assert s.gammas(3).flags.c_contiguous

    @pytest.mark.parametrize(
        "shape",
        [
            ShapeSequence.isotropic(1.0),
            ShapeSequence.power_law(1.0, 2.0),
            ShapeSequence.geometric(0.5),
            ShapeSequence.explicit([1.0, 0.5, 0.25]),
        ],
    )
    @pytest.mark.parametrize("bad", [2.5, True, np.float64(2.0)])
    def test_rejects_non_integer_dimension(self, shape, bad):
        message = f"dimension must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            shape.gammas(bad)
        assert shape.gammas(np.int64(2)).tobytes() == shape.gammas(2).tobytes()

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


def _kernel_eval_formula(shape, d, x, t):
    # kernel_eval's own formula before the exact-difference kernel was shared
    x = np.asarray(x, dtype=float).reshape(1, d)
    t = np.asarray(t, dtype=float).reshape(1, d)
    return float(np.exp(-np.sum((shape.gammas(d) * (x - t)) ** 2)))


def test_kernel_eval_matches_its_previous_formula_bit_for_bit():
    rng = np.random.default_rng(20261019)
    for _ in range(2000):
        d = int(rng.integers(1, 40))
        gammas = 10.0 ** rng.uniform(-3.0, 2.0, size=d)
        shape = ShapeSequence.explicit(gammas)
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 1.0)
        # near-coincident pairs as well as far ones
        t = x + rng.standard_normal(d) * 10.0 ** rng.uniform(-12.0, 0.5)
        assert kernel_eval(shape, d, x, t) == _kernel_eval_formula(shape, d, x, t)


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
    prod = scaled @ scaled.T
    prod *= 2.0
    d2 = sq[:, None] + sq[None, :] - prod
    np.maximum(d2, 0.0, out=d2)
    K = np.exp(-d2)
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


@pytest.mark.parametrize(
    "n, d, layout",
    [(n, 3, "C") for n in (1, 2, 180, 181, 182, 363, 700)]
    + [(300, 40, "C"), (300, 40, "F"), (300, 40, "list")],
)
def test_gram_is_exactly_symmetric_and_the_kernel_of_its_sites(n, d, layout):
    # a quarter of the sites are moved within 1e-9 of another site; at
    # d = 40, n = 300 the two-operand product (2 sa) @ sb.T is not symmetric
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((n, d))
    near = rng.integers(0, n, n // 4)
    pts[rng.integers(0, n, n // 4)] = pts[near] + rng.uniform(-1e-9, 1e-9, (near.size, d))
    shape = ShapeSequence.explicit(rng.uniform(0.2, 2.0, d))
    if layout == "F":
        pts = np.asfortranarray(pts)
    K = gram_matrix(shape, d, pts.tolist() if layout == "list" else pts)
    assert K.tobytes() == K.T.tobytes()
    ref = cross_kernel(shape, d, pts, pts)
    np.fill_diagonal(ref, 1.0)
    assert K.tobytes() == ref.tobytes()


def test_gram_matrix_holds_one_n_by_n_array():
    # 0.5 * (K + K.T) held a second n x n array: a peak of twice the matrix
    pts = np.random.default_rng(3).standard_normal((2000, 2))
    tracemalloc.start()
    try:
        K = gram_matrix(ShapeSequence.isotropic(1.0), 2, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * K.nbytes


def test_cross_kernel_matches_kernel_eval():
    s = ShapeSequence.power_law(1.2, 0.5)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((4, 3))
    K = cross_kernel(s, 3, a, b)
    assert K.shape == (6, 4)
    ref = [[kernel_eval(s, 3, x, t) for t in b] for x in a]
    assert np.allclose(K, ref, rtol=1e-12, atol=0.0)


def test_cross_kernel_holds_one_output_array():
    # 600 columns take many row blocks of the elementwise pass; each gives
    # the reference's bits, and no second (n_a, n_b) array is held
    s = ShapeSequence.power_law(1.5, 0.5)
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((2000, 2)), rng.standard_normal((600, 2))
    tracemalloc.start()
    try:
        K = cross_kernel(s, 2, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= K.nbytes + 2**20
    assert np.array_equal(K, _cross_reference(s, 2, a, b))


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
    # the closed form in Python floats, whose sqrt is correctly rounded as
    # numpy's is; Python floats let gamma^2 overflow to inf silently
    def omega(x):
        g2 = x * x
        return 2.0 * g2 / (1.0 + 2.0 * g2 + math.sqrt(1.0 + 4.0 * g2))

    rng = np.random.default_rng(20261018)
    g = np.concatenate((10.0 ** rng.uniform(-150.0, 15.0, 20000), [1e-162, 1e-200, 1.0]))
    ref = np.array([omega(x) for x in g.tolist()])
    assert _eigenvalue_ratios(g).tobytes() == ref.tobytes()
    scalar = np.array([eigenvalue_ratio(x) for x in g[:500].tolist()])
    assert scalar.tobytes() == ref[:500].tobytes()


@pytest.mark.parametrize("bad", [1e17, 1e200, np.inf, 0.0, -1.0, np.nan])
def test_eigenvalue_ratios_raise_like_scalar(bad):
    with pytest.raises(ValueError) as scalar:
        eigenvalue_ratio(bad)
    with pytest.raises(ValueError) as vector:
        _eigenvalue_ratios(np.array([0.5, bad, 2.0, 1e17, 0.0]))
    assert str(vector.value) == str(scalar.value)


@pytest.mark.parametrize(
    "shape, d", [(ShapeSequence.geometric(0.5), 1100), (ShapeSequence.power_law(1.0, 200.0), 50)]
)
def test_log_spectrum_of_a_gamma_that_underflowed_to_zero(shape, d):
    # 0.5^1100 and 50^-200 round to 0.0, a gamma no constructor takes: it
    # gets ratio 0, the ratio of a tiny positive gamma
    g = shape.gammas(d)
    assert g[-1] == 0.0 and g[0] > 0.0
    tiny = ShapeSequence.explicit(np.where(g == 0.0, 1e-200, g))
    base, log_ratio = _log_spectrum(shape, d)
    ref_base, ref_log_ratio = _log_spectrum(tiny, d)
    assert base.hex() == ref_base.hex()
    assert log_ratio.view(np.int64).tolist() == ref_log_ratio.view(np.int64).tolist()
    assert np.isneginf(log_ratio[g == 0.0]).all()
    with pytest.raises(ValueError, match="shape parameter must be positive, got 0.0"):
        eigenvalue_ratio(0.0)


def test_eigenvalue_ratio_closed_form():
    # gamma = 1: omega = (3 - sqrt 5) / 2
    assert eigenvalue_ratio(1.0) == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0)
    assert 0.0 < eigenvalue_ratio(0.01) < eigenvalue_ratio(10.0) < 1.0


@pytest.mark.parametrize(
    "shape, d",
    [
        (ShapeSequence.isotropic(1.0), 7),
        (ShapeSequence.isotropic(1e-200), 3),
        (ShapeSequence.isotropic(1e14), 40),
        (ShapeSequence.power_law(1.0, 0.5), 1024),
        (ShapeSequence.geometric(0.5), 64),
        (ShapeSequence.explicit([1.0, 1e-200, 1e14, 0.3, 1e-162, 2.5]), 6),
        (ShapeSequence.explicit(10.0 ** np.random.default_rng(13).uniform(-200, 14, 300)), 300),
    ],
)
def test_log_spectrum_bit_equal_to_scalar_reference(shape, d):
    # log lambda_1 and log omega from the scalar ratio; an underflowed ratio
    # has log ratio -inf and cost +inf
    ratios = np.array([eigenvalue_ratio(g) for g in shape.gammas(d)])
    ref_base = float(np.sum(np.log1p(-ratios)))
    with np.errstate(divide="ignore"):
        ref_log_ratio = np.log(ratios)
    ref_costs = np.array([np.inf if r == 0.0 else -x for r, x in zip(ratios, ref_log_ratio)])
    base, log_ratio = _log_spectrum(shape, d)
    assert base.hex() == ref_base.hex()
    assert log_ratio.view(np.int64).tolist() == ref_log_ratio.view(np.int64).tolist()
    assert (-log_ratio).view(np.int64).tolist() == ref_costs.view(np.int64).tolist()
    assert initial_error(shape, d).hex() == float(np.exp(0.5 * base)).hex()
    assert np.all(np.isneginf(log_ratio) == (ratios == 0.0))


def test_initial_error_values():
    iso = ShapeSequence.isotropic(1.0)
    omega = eigenvalue_ratio(1.0)
    assert initial_error(iso, 1) == pytest.approx(0.7861514, abs=1e-6)
    assert initial_error(iso, 3) == pytest.approx((1.0 - omega) ** 1.5)
    # initial error decreases with dimension
    assert initial_error(iso, 5) < initial_error(iso, 2) < initial_error(iso, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: initial_error(ShapeSequence.isotropic(1.0), d),
        lambda d: grkhs.top_n_tensor_eigenvalues(ShapeSequence.isotropic(1.0), d, 3),
        lambda d: grkhs.minimal_error_all(ShapeSequence.power_law(1.0, 2.0), d, 3),
        lambda d: grkhs.error_sequence_all(ShapeSequence.isotropic(1.0), d, 3),
        lambda d: grkhs.info_complexity(ShapeSequence.isotropic(1.0), d, 0.1, "absolute"),
        lambda d: next(grkhs.stream_tensor_eigenvalues(ShapeSequence.isotropic(1.0), d, 0)),
        lambda d: grkhs.tensor_rule(d, 3),
    ],
    ids=["initial_error", "top_n", "minimal_error_all", "error_sequence_all",
         "info_complexity", "stream", "tensor_rule"],
)
def test_non_integer_dimension_rejected(call):
    # each used to fail later with another error, most of them inside numpy
    with pytest.raises(ValueError, match="dimension must be an integer, got 2.5"):
        call(2.5)
