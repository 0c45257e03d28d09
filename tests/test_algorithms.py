import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grkhs.algorithms as algorithms
from grkhs import (
    ShapeSequence,
    cross_kernel,
    eigen_projection,
    gauss_hermite,
    initial_error,
    minimal_error_all,
    power_function,
    spline_fit,
    spline_worst_case_error,
    univariate_spectrum,
)
from grkhs.algorithms import (
    _grid_factors,
    _gram_pinv_factors,
    _kron_matvec,
    _site_kernel,
    tensor_eigenfunctions,
)
from grkhs.quadrature import _nystrom_matrix
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

    def test_design_is_read_only_copy(self):
        # changing the caller's sites after the fit must not move the model's
        X = np.array([[0.0], [1.0], [2.0]])
        model = spline_fit(ShapeSequence.isotropic(1.0), 1, X, [1.0, 2.0, 3.0])
        X[0, 0] = 5.0
        assert np.allclose(model([[0.0], [1.0], [2.0]]), [1.0, 2.0, 3.0], atol=1e-9)
        assert model.design.tolist() == [[0.0], [1.0], [2.0]]
        with pytest.raises(ValueError):
            model.design[0, 0] = 5.0

    def test_rank_counts_kept_gram_directions(self):
        shape = ShapeSequence.isotropic(1.0)
        designs = _wce_designs(2)
        spread = spline_fit(shape, 2, designs["spread"], np.ones(4))
        assert spread.rank == 4
        # two of the three sites coincide, so one Gram direction is clipped
        coincident = spline_fit(shape, 2, designs["coincident"], np.ones(3))
        assert coincident.rank == 3 - 1


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


@st.composite
def _separated_design(draw):
    """Shape, d and sites at least 1 apart in the kernel's scaled distance.

    Sites sit in distinct cells of a lattice of spacing 2 in scaled
    coordinates, each moved by at most 1/2 per coordinate.
    """
    d = draw(st.integers(1, 3))
    gammas = draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d))
    cells = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=8, unique=True
        )
    )
    n = len(cells)
    jitter = draw(st.lists(st.floats(-0.5, 0.5), min_size=n * d, max_size=n * d))
    scaled = 2.0 * np.array(cells, dtype=float) + np.reshape(jitter, (n, d))
    return ShapeSequence.explicit(gammas), d, scaled / np.array(gammas)


def _points(d, max_size):
    return st.lists(
        st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d),
        min_size=1,
        max_size=max_size,
    ).map(lambda rows: np.array(rows, dtype=float))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
class TestNonFiniteCoordinates:
    SHAPE = ShapeSequence.isotropic(1.0)
    GOOD = np.array([[0.0, 0.0], [1.0, 0.5]])

    def with_bad(self, value):
        pts = self.GOOD.copy()
        pts[1, 1] = value
        return pts

    def test_spline_fit(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            spline_fit(self.SHAPE, 2, self.with_bad(bad), [1.0, 2.0])

    def test_spline_evaluation_point(self, bad):
        model = spline_fit(self.SHAPE, 2, self.GOOD, [1.0, 2.0])
        with pytest.raises(ValueError, match="must be finite"):
            model(self.with_bad(bad))

    def test_power_function_design(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            power_function(self.SHAPE, 2, self.with_bad(bad), self.GOOD)

    def test_power_function_point(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            power_function(self.SHAPE, 2, self.GOOD, [0.5, bad])
        with pytest.raises(ValueError, match="must be finite"):
            power_function(self.SHAPE, 2, self.GOOD, self.with_bad(bad))
        # also without sites, where no kernel is evaluated
        with pytest.raises(ValueError, match="must be finite"):
            power_function(self.SHAPE, 2, np.empty((0, 2)), self.with_bad(bad))

    def test_spline_worst_case_error(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            spline_worst_case_error(self.SHAPE, 2, self.with_bad(bad), 10)
        with pytest.raises(ValueError, match="must be finite"):
            spline_worst_case_error(self.SHAPE, 2, self.with_bad(bad), 10, method="trace")


class TestPowerFunctionProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_in_unit_interval(self, data):
        # any sites, coincident ones included
        d = data.draw(st.integers(1, 3))
        gamma = data.draw(st.floats(0.1, 3.0))
        sites = data.draw(_points(d, 10))
        x = data.draw(_points(d, 20))
        p = power_function(ShapeSequence.isotropic(gamma), d, sites, x)
        assert np.all((0.0 <= p) & (p <= 1.0))

    @settings(max_examples=60, deadline=None)
    @given(_separated_design())
    def test_vanishes_at_separated_sites(self, case):
        shape, d, sites = case
        assert np.all(power_function(shape, d, sites, sites) <= 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(_separated_design(), st.integers(0, 7), st.data())
    def test_adding_sites_does_not_increase_it(self, case, k, data):
        # P(x)^2 is the residual of projecting k(x, .) onto the span of the
        # sites, so it can only shrink as that span grows.  The sites are kept
        # apart because the clipped pseudo-inverse projects onto a slightly
        # moved span once a near-coincident site is added; P is compared
        # squared because at the sites its square root magnifies rounding.
        shape, d, sites = case
        x = np.vstack([data.draw(_points(d, 20)), sites])
        fewer = power_function(shape, d, sites[: min(k, len(sites) - 1)], x)
        more = power_function(shape, d, sites, x)
        assert np.all(more**2 <= fewer**2 + 1e-9)


class TestGramMemo:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        """Start from an empty memo; record at each eigh call whether it is empty."""
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(algorithms._gram_memo.entry is None)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(algorithms._gram_memo, "entry", None)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_fit_then_power_function_factors_once(self, eigh_calls):
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 2))
        q = rng.standard_normal((30, 2))
        model = spline_fit(shape, 2, X, rng.standard_normal(12))
        power_function(shape, 2, X, q)
        # the model's sites are a copy, the memo is keyed by their bytes
        assert model.design is not X
        assert len(eigh_calls) == 1
        before = power_function(shape, 2, X, q)
        X[0, 0] += 0.25  # mutated in place: the memo must not serve it
        after = power_function(shape, 2, X, q)
        assert len(eigh_calls) == 2
        assert not np.array_equal(before, after)
        # a miss drops the old factors before it factors the new Gram matrix
        assert eigh_calls == [True, True]

    def test_other_shape_or_dimension_misses(self, eigh_calls):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 2))
        q = rng.standard_normal((5, 2))
        power_function(ShapeSequence.isotropic(1.0), 2, X, q)
        power_function(ShapeSequence.isotropic(0.5), 2, X, q)
        assert len(eigh_calls) == 2
        # the same bytes read as twelve sites in d = 1
        power_function(ShapeSequence.isotropic(0.5), 1, X.reshape(12, 1), q[:, :1])
        assert len(eigh_calls) == 3
        # the key holds the first d shape parameters, not the shape object
        power_function(ShapeSequence.explicit([0.5, 7.0]), 1, X.reshape(12, 1), q[:, :1])
        assert len(eigh_calls) == 3

    def test_hit_is_bit_equal_to_fresh_and_read_only(self, eigh_calls, monkeypatch):
        shape = ShapeSequence.isotropic(1.0)
        design = _wce_designs(2)["coincident"]
        first = _gram_pinv_factors(shape, 2, design)
        hit = _gram_pinv_factors(shape, 2, design)
        assert len(eigh_calls) == 1
        monkeypatch.setattr(algorithms._gram_memo, "entry", None)
        fresh = _gram_pinv_factors(shape, 2, design)
        assert len(eigh_calls) == 2
        assert all(a is b for a, b in zip(first, hit))
        assert fresh[0] is not hit[0]
        for a, b in zip(hit, fresh):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        U, inv, _ = hit
        with pytest.raises(ValueError):
            U[0, 0] = 0.0
        with pytest.raises(ValueError):
            inv[0] = 0.0

    def test_holds_one_entry(self, eigh_calls):
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(8)
        designs = [rng.standard_normal((5, 2)) for _ in range(3)]
        kept = [weakref.ref(_gram_pinv_factors(shape, 2, X)[0]) for X in designs]
        # only the factors of the most recent design are still alive
        assert [ref() is not None for ref in kept] == [False, False, True]
        # the first design was evicted by the later ones
        _gram_pinv_factors(shape, 2, designs[0])
        assert eigh_calls == [True] * 4


class TestSiteKernelMemo:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Start from empty memos; record at each site kernel whether its memo is empty."""
        calls = []

        def counted(*args):
            calls.append(algorithms._site_memo.entry is None)
            return cross_kernel(*args)

        monkeypatch.setattr(algorithms._gram_memo, "entry", None)
        monkeypatch.setattr(algorithms._site_memo, "entry", None)
        monkeypatch.setattr(algorithms, "cross_kernel", counted)
        return calls

    def test_fit_evaluate_power_function_computes_kernel_once(self, kernel_calls):
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 2))
        q = rng.standard_normal((30, 2))
        model = spline_fit(shape, 2, X, rng.standard_normal(12))
        model(q)
        power_function(shape, 2, X, q)
        # the model's sites are a copy, the memo is keyed by their bytes
        assert kernel_calls == [True]

    def test_in_place_change_misses(self, kernel_calls):
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 2))
        q = rng.standard_normal((10, 2))
        model = spline_fit(shape, 2, X, rng.standard_normal(8))
        before = model(q)
        q[0, 0] += 0.25
        after = model(q)
        assert len(kernel_calls) == 2
        assert not np.array_equal(before, after)
        assert np.array_equal(after, cross_kernel(shape, 2, q, X) @ model.coefficients)
        before = power_function(shape, 2, X, q)
        assert len(kernel_calls) == 2
        X[0, 0] += 0.25
        after = power_function(shape, 2, X, q)
        assert len(kernel_calls) == 3
        assert not np.array_equal(before, after)
        # a miss drops the old kernel before it computes the new one
        assert kernel_calls == [True] * 3

    def test_other_shape_or_dimension_misses(self, kernel_calls):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 2))
        q = rng.standard_normal((5, 2))
        power_function(ShapeSequence.isotropic(1.0), 2, X, q)
        power_function(ShapeSequence.isotropic(0.5), 2, X, q)
        assert len(kernel_calls) == 2
        # the same bytes read as twelve sites and ten points in d = 1
        power_function(ShapeSequence.isotropic(0.5), 1, X.reshape(12, 1), q.reshape(10, 1))
        assert len(kernel_calls) == 3
        # the key holds the first d shape parameters, not the shape object
        power_function(
            ShapeSequence.explicit([0.5, 7.0]), 1, X.reshape(12, 1), q.reshape(10, 1)
        )
        assert kernel_calls == [True] * 3

    def test_hit_is_bit_equal_to_fresh_and_read_only(self, kernel_calls):
        shape = ShapeSequence.power_law(1.0, 1.0)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((9, 3))
        q = rng.standard_normal((20, 3))
        first = _site_kernel(shape, 3, q, X)
        hit = _site_kernel(shape, 3, q, X)
        assert hit is first
        assert len(kernel_calls) == 1
        assert hit.tobytes() == cross_kernel(shape, 3, q, X).tobytes()
        with pytest.raises(ValueError):
            hit[0, 0] = 0.0

    def test_holds_one_entry(self, kernel_calls):
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(8)
        q = rng.standard_normal((7, 2))
        designs = [rng.standard_normal((5, 2)) for _ in range(3)]
        kept = [weakref.ref(_site_kernel(shape, 2, q, X)) for X in designs]
        # only the kernel of the most recent pair is still alive
        assert [ref() is not None for ref in kept] == [False, False, True]
        # the first pair was evicted by the later ones
        _site_kernel(shape, 2, q, designs[0])
        assert kernel_calls == [True] * 4


def _power_function_all_columns(shape, d, design, x):
    """Reference power function: k(x) projected onto every Gram direction.

    ``power_function`` keeps only the trailing rank columns of U; here the
    clipped directions enter too, with weight inv = 0.
    """
    U, inv, _ = _gram_pinv_factors(shape, d, design)
    proj = cross_kernel(shape, d, x, design) @ U
    quad = np.sum(proj * proj * inv[None, :], axis=1)
    return np.sqrt(np.maximum(0.0, 1.0 - quad))


@st.composite
def _clipped_design(draw):
    """Shape, d, sites with exact and 1e-9 near duplicates, and points.

    Returns the number of duplicates too: each adds a Gram direction the
    clip removes.
    """
    d = draw(st.integers(1, 4))
    gammas = draw(st.lists(st.floats(0.2, 2.0), min_size=d, max_size=d))
    n_base = draw(st.integers(1, 40))
    # about half the designs have no duplicates, where the clip may keep all
    n_exact, n_near = draw(
        st.tuples(st.integers(0, 10), st.integers(0, 10)) | st.just((0, 0))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((n_base, d))
    exact = base[rng.integers(0, n_base, n_exact)]
    near = base[rng.integers(0, n_base, n_near)] + 1e-9 * rng.standard_normal((n_near, d))
    sites = rng.permutation(np.vstack([base, exact, near]))
    x = np.vstack([rng.standard_normal((draw(st.integers(1, 30)), d)), sites])
    return ShapeSequence.explicit(gammas), d, sites, x, n_exact + n_near


class TestPowerFunctionKeptDirections:
    @settings(max_examples=80, deadline=None)
    @given(_clipped_design())
    def test_matches_all_columns_reference(self, case):
        shape, d, sites, x, duplicates = case
        U, inv, _ = _gram_pinv_factors(shape, d, sites)
        n, rank = inv.size, np.count_nonzero(inv)
        # the zeros of inv form a leading block, so the kept directions are
        # the trailing rank columns of U
        assert np.all(inv[: n - rank] == 0.0) and np.all(inv[n - rank :] > 0.0)
        assert n - rank >= duplicates
        p = power_function(shape, d, sites, x)
        ref = _power_function_all_columns(shape, d, sites, x)
        assert np.all((0.0 <= p) & (p <= 1.0))
        assert np.max(np.abs(p**2 - ref**2)) <= 1e-13


class TestPowerFunctionMemory:
    def test_bit_equal_to_product_with_temporaries(self):
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(11)
        base = rng.standard_normal((30, 2))
        sites = np.vstack([base, base[:5]])  # duplicates, so the clip fires
        x = rng.standard_normal((50, 2))
        U, inv, _ = _gram_pinv_factors(shape, 2, sites)
        kept = slice(inv.size - np.count_nonzero(inv), None)
        assert kept.start >= 5
        proj = cross_kernel(shape, 2, x, sites) @ U[:, kept]
        quad = np.sum(proj * proj * inv[None, kept], axis=1)
        ref = np.sqrt(np.maximum(0.0, 1.0 - quad))
        assert power_function(shape, 2, sites, x).tobytes() == ref.tobytes()

    def test_trace_bound_needs_no_rank_wide_temporaries(self):
        # d = 3, m = 32, n = 200: the grid-by-design kernel is 52 MB, and
        # cross_kernel peaks at twice that; squaring and scaling the
        # projection out of place added 150 MB more
        shape = ShapeSequence.isotropic(1.0)
        design = np.random.default_rng(0).standard_normal((200, 3))
        tracemalloc.start()
        try:
            spline_worst_case_error(shape, 3, design, 32, method="trace")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20

    def test_trace_bound_leaves_no_kernel_behind(self, monkeypatch):
        # the 52 MB grid-by-design kernel is used once and then freed; only
        # the Gram memo's n x n factors (0.3 MB) stay alive
        monkeypatch.setattr(algorithms._site_memo, "entry", None)
        shape = ShapeSequence.isotropic(1.0)
        design = np.random.default_rng(0).standard_normal((200, 3))
        tracemalloc.start()
        try:
            spline_worst_case_error(shape, 3, design, 32, method="trace")
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2**20
        assert algorithms._site_memo.entry is None


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


def _tensordot_matvec(factors, v):
    """The Kronecker product as it was first written, with np.tensordot."""
    m = factors[0].shape[0]
    x = np.reshape(v, (m,) * len(factors))
    for A in factors:
        x = np.tensordot(x, A, axes=(0, 0))
    return x.ravel()


class TestGridOperator:
    @pytest.mark.parametrize("d,m", [(1, 200), (1, 65), (2, 32), (2, 9), (3, 12), (3, 5)])
    def test_matvec_bit_equal_to_tensordot(self, d, m):
        rng = np.random.default_rng([d, m])
        rule = gauss_hermite(m)
        gammas = rng.uniform(0.3, 2.0, d)
        factors = [_nystrom_matrix(g, rule.nodes, rule.weights) for g in gammas]
        # a general square factor too, so no symmetry can hide an axis mix-up
        factors[-1] = rng.standard_normal((m, m))
        matvec = _kron_matvec(factors)
        for _ in range(5):
            v = rng.standard_normal(m**d)
            assert matvec(v).tobytes() == _tensordot_matvec(factors, v).tobytes()

    def test_empty_correction_is_exact_zero(self):
        # the empty design skips C diag(inv) C^T v, which is +0.0 everywhere
        rng = np.random.default_rng(3)
        factors = _grid_factors(ShapeSequence.isotropic(1.0), 2, 9)
        C, inv = np.empty((81, 0)), np.empty(0)
        for _ in range(5):
            v = rng.standard_normal(81)
            kron = _kron_matvec(factors)(v)
            assert (kron - C @ (inv * (C.T @ v))).tobytes() == kron.tobytes()

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        """Start from an empty grid memo; record the gamma of each factor built."""
        calls = []

        def counted(gamma, t, w):
            calls.append(gamma)
            return _nystrom_matrix(gamma, t, w)

        monkeypatch.setattr(algorithms._grid_memo, "entry", None)
        monkeypatch.setattr(algorithms, "_nystrom_matrix", counted)
        return calls

    def test_one_factor_per_distinct_gamma(self, factor_calls):
        design = np.random.default_rng(4).standard_normal((5, 3))
        spline_worst_case_error(ShapeSequence.isotropic(1.0), 3, design, 6)
        assert factor_calls == [1.0]
        shape = ShapeSequence.explicit([0.7, 1.3, 0.7])
        spline_worst_case_error(shape, 3, design, 6)
        assert factor_calls == [1.0, 0.7, 1.3]
        A = _grid_factors(shape, 3, 6)
        assert A[0] is A[2] and A[1] is not A[0]
        # the same grid again builds nothing
        spline_worst_case_error(shape, 3, design[:2], 6)
        assert len(factor_calls) == 3

    def test_factors_are_read_only_and_bit_equal_to_fresh(self, factor_calls):
        shape = ShapeSequence.power_law(1.0, 0.5)
        factors = _grid_factors(shape, 2, 30)
        rule = gauss_hermite(30)
        for A, g in zip(factors, shape.gammas(2)):
            assert A.tobytes() == _nystrom_matrix(g, rule.nodes, rule.weights).tobytes()
            with pytest.raises(ValueError):
                A[0, 0] = 0.0

    def test_holds_one_entry(self, factor_calls):
        shape = ShapeSequence.isotropic(1.0)
        kept = [weakref.ref(_grid_factors(shape, 1, m)[0]) for m in (10, 11, 12)]
        assert [ref() is not None for ref in kept] == [False, False, True]
        _grid_factors(shape, 1, 10)
        assert len(factor_calls) == 4

    def test_interleaved_grids_repeat_bit_equal(self):
        # every case misses the memo of the one before it, and a repeat of
        # the first case gives the first result bit for bit
        rng = np.random.default_rng(9)
        cases = [
            (ShapeSequence.isotropic(1.0), 2, 12),
            (ShapeSequence.isotropic(1.0), 1, 120),
            (ShapeSequence.explicit([1.0, 0.5, 2.0]), 3, 6),
            (ShapeSequence.isotropic(0.5), 2, 12),
            (ShapeSequence.isotropic(1.0), 2, 13),
            (ShapeSequence.explicit([0.5, 1.0]), 2, 12),
        ]
        designs = [rng.standard_normal((4, d)) for _, d, _ in cases]
        first = [spline_worst_case_error(*c[:2], X, c[2]) for c, X in zip(cases, designs)]
        again = spline_worst_case_error(*cases[0][:2], designs[0], cases[0][2])
        assert float(again).hex() == float(first[0]).hex()
        assert len(set(first)) == len(first)


def test_tensor_eigenfunctions_product_structure():
    shape = ShapeSequence.explicit([1.0, 0.5])
    s1, s2 = univariate_spectrum(1.0), univariate_spectrum(0.5)
    pts = np.array([[0.2, -0.3], [1.0, 0.5]])
    idx = [MultiIndex.from_dense((2, 3))]
    vals = tensor_eigenfunctions(shape, 2, idx, pts)
    expected = s1.eigenfunction(2, pts[:, 0]) * s2.eigenfunction(3, pts[:, 1])
    assert np.allclose(vals[0], expected)
