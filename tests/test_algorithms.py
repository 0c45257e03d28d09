import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grkhs
import grkhs.algorithms as algorithms
import grkhs.kernel as kernel_module
from grkhs import (
    ResourceLimitError,
    ShapeSequence,
    cross_kernel,
    eigen_projection,
    gauss_hermite,
    initial_error,
    minimal_error_all,
    power_function,
    spline_fit,
    spline_worst_case_error,
    tensor_rule,
    univariate_spectrum,
    verify,
)
from grkhs.algorithms import (
    _gram_pinv_factors,
    _grid_basis_blocks,
    _index_codes,
    _kron_matvec,
    _site_kernel,
    _spline_rule_size,
    _tensor_grid,
    _top_eigenvalue,
    tensor_eigenfunctions,
)
from grkhs.complexity import _error_values
from grkhs.quadrature import _nystrom_matrix
from grkhs.spectrum import MultiIndex


def _one_blas_thread(code):
    """The JSON that code prints last, after imports of json, np, grkhs, tensor_eigenfunctions.

    Run in a fresh process with one BLAS thread: a threaded product splits
    its rows between threads, so its bits follow the thread count.
    """
    head = (
        "import json\nimport numpy as np\nimport grkhs\n"
        "from grkhs.algorithms import tensor_eigenfunctions\n"
    )
    src = str(Path(grkhs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=path, **threads)
    done = subprocess.run(
        [sys.executable, "-c", head + textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestEigenProjection:
    def test_reproduces_eigenfunction(self):
        # projecting phi_2 onto the first 5 eigenfunctions returns phi_2
        shape = ShapeSequence.isotropic(1.0)
        spec = univariate_spectrum(1.0)
        proj = eigen_projection(
            shape, 1, 5, lambda p: spec.eigenfunctions(2, p[:, 0])[-1], m=64
        )
        expected = np.zeros(5)
        expected[1] = 1.0
        assert np.allclose(proj.coefficients, expected, atol=1e-10)
        x = np.linspace(-1.5, 1.5, 9)[:, None]
        assert np.allclose(proj(x), spec.eigenfunctions(2, x[:, 0])[-1], atol=1e-10)

    def test_mapping_input_any_d(self):
        shape = ShapeSequence.isotropic(1.0)
        proj = eigen_projection(shape, 10, 3, {(1,) * 10: 2.0})
        assert proj.coefficients[0] == 2.0
        assert np.all(proj.coefficients[1:] == 0.0)

    @pytest.mark.parametrize(
        "key, message",
        [
            ((1,), r"multi-index \(1,\) has 1 entries, need d = 2"),
            ((1, 1, 1), r"has 3 entries, need d = 2"),
            ((0, 1), "multi-index entries must be >= 1"),
            ((2, -1), "multi-index entries must be >= 1"),
            ((1.0, 2.5), "multi-index entries must be integers"),
            # integral floats and bools used to set the coefficient of (2, 1)
            ((2.0, True), r"must be integers, got \(2.0, True\)"),
            ((2.0, 1), "multi-index entries must be integers"),
        ],
    )
    def test_mapping_rejects_malformed_keys(self, key, message):
        # such keys used to match no basis index and give zero coefficients
        shape = ShapeSequence.isotropic(1.0)
        with pytest.raises(ValueError, match=message):
            eigen_projection(shape, 2, 5, {(1, 1): 1.0, key: 1.0})

    def test_callable_grid_limit(self):
        # the limit is tensor_rule's m^d <= 10^7 points, not a bound on d
        shape = ShapeSequence.isotropic(1.0)
        f = lambda p: np.exp(-np.sum(p**2, axis=1))
        proj = eigen_projection(shape, 5, 3, f, m=8)
        assert proj.coefficients.shape == (3,) and proj.coefficients[0] > 0.0
        with pytest.raises(ResourceLimitError):
            eigen_projection(shape, 4, 3, f)

    def test_coefficients_bit_equal_to_full_product(self):
        # the row blocks give the bits of the full (n, m^d) product, one-row
        # tails (n = 65, 129) included.  One BLAS thread, as in the benchmark:
        # a threaded product splits its rows between threads, so the full
        # product's own bits follow the thread count.
        code = """
            shape = grkhs.ShapeSequence.isotropic(1.0)
            rng = np.random.default_rng(19)
            compared, differ = 0, []
            for d, m in [(1, 100), (2, 64), (3, 16)]:
                a, b = rng.uniform(0.2, 1.0, d), rng.uniform(0.0, np.pi, d)
                f = lambda p: np.prod(np.cos(p * a + b), axis=1)
                pts, w = grkhs.tensor_rule(d, m)
                for n in (1, 2, 63, 64, 65, 128, 129, 500):
                    proj = grkhs.eigen_projection(shape, d, n, f, m)
                    funcs = tensor_eigenfunctions(shape, d, proj.basis.indices, pts)
                    full = funcs @ (w * f(pts))
                    hexes = [[c.hex() for c in x.tolist()] for x in (proj.coefficients, full)]
                    compared += 1
                    if hexes[0] != hexes[1]:
                        differ.append([d, m, n])
            print(json.dumps([compared, differ]))
            """
        assert _one_blas_thread(code) == [24, []]

    @pytest.mark.parametrize(
        "d, m", [(1, 100), (1, 7), (2, 64), (2, 9), (3, 16), (3, 5), (4, 6), (5, 4)]
    )
    def test_grid_blocks_are_the_basis_at_grid_points(self, d, m, monkeypatch):
        # products of the factors on the m nodes: the bits of the basis at
        # all m^d grid points, in tensor_rule's point order.  Budgets of 4
        # and 12 rows as well as the default one give blocks with tails of
        # 1 (joined), 2, 6 and 13 rows
        shape = ShapeSequence.power_law(1.3, 0.8)
        pts, _ = tensor_rule(d, m)
        for n in (61, 150):
            indices = grkhs.top_n_tensor_eigenvalues(shape, d, n).indices
            want = tensor_eigenfunctions(shape, d, indices, pts)
            for rows in (4, 12, None):
                if rows is not None:
                    monkeypatch.setattr(algorithms, "_PROJECTION_BLOCK_BYTES", rows * 8 * m**d)
                size = algorithms._block_size(m**d, 4)
                got, ends = [], [0]
                for a, b, block in _grid_basis_blocks(shape, d, _index_codes(indices, d), m):
                    assert a == ends[-1] and a % 4 == 0
                    assert b - a == size or (b == n and 2 <= b - a <= size + 1)
                    got.append(block.copy())
                    ends.append(b)
                assert ends[-1] == n
                assert np.concatenate(got).tobytes() == want.tobytes()
                monkeypatch.undo()

    def test_block_rows_follow_the_budget(self):
        # a multiple of 4 rows within 512 KB, never fewer than 4
        assert algorithms._PROJECTION_BLOCK_BYTES == 512 * 1024
        widths = (1, 7, 100, 4096, 6**4, 64_000, 2_560_000)
        sizes = {N: algorithms._block_size(N, 4) for N in widths}
        assert sizes == {1: 65536, 7: 9360, 100: 652, 4096: 16, 1296: 48, 64_000: 4, 2_560_000: 4}

    def test_memory_follows_the_block(self):
        # the (500, 4096) basis-by-grid matrix alone is 15.6 MiB; the
        # projection holds one block of 16 of its rows (512 KB) and the
        # factors on the 64 nodes.  The rule and the grid are warmed first:
        # the first rule imports scipy.special inside the window otherwise
        shape = ShapeSequence.isotropic(1.0)
        f = lambda p: np.prod(np.cos(p * [0.5, 0.7] + [0.3, 1.1]), axis=1)
        gauss_hermite(64)
        tensor_rule(2, 64)
        tracemalloc.start()
        try:
            proj = eigen_projection(shape, 2, 500, f, 64)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert proj.coefficients.shape == (500,)
        assert peak < 2 * 2**20
        assert retained < 2**20

    def test_evaluation_bit_equal_to_full_product(self):
        # blocks of points give the bits of coefficients @ (the whole basis
        # at the points): blocks of a multiple of 16 points, tails of 1-7 and
        # N < 16 included.  One BLAS thread, as above.
        code = """
            from grkhs.algorithms import EigenProjector, _block_size

            rng = np.random.default_rng(23)
            compared, differ = 0, []
            for d, n in [(1, 40), (2, 500), (3, 129), (4, 64), (2, 1000)]:
                shape = grkhs.ShapeSequence.power_law(1.3, 0.8)
                basis = grkhs.top_n_tensor_eigenvalues(shape, d, n)
                proj = EigenProjector(shape, d, basis, rng.normal(size=n))
                size = _block_size(n, 16)
                tails = [size + t for t in range(1, 8)]
                for N in [0, 1, 3, 15, size, 2 * size + 3, 3 * size + 9] + tails:
                    x = rng.normal(size=(N, d))
                    full = proj.coefficients @ tensor_eigenfunctions(shape, d, basis.indices, x)
                    compared += 1
                    if proj(x).tobytes() != full.tobytes():
                        differ.append([d, n, N])
            print(json.dumps([compared, differ]))
            """
        assert _one_blas_thread(code) == [70, []]

    def test_evaluation_memory_follows_the_block(self):
        # the (500, 4096) basis at the points alone is 15.6 MiB; evaluation
        # holds one block of 128 points, a gathered factor block beside it
        # and the factors at those points
        shape = ShapeSequence.isotropic(1.0)
        proj = eigen_projection(shape, 2, 500, {(1, 1): 1.0})
        x = np.random.default_rng(3).normal(size=(4096, 2))
        proj(x[:16])
        tracemalloc.start()
        try:
            vals = proj(x)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vals.shape == (4096,)
        assert peak < 2 * 2**20
        assert retained < 2**16

    @pytest.mark.parametrize(
        "f",
        [
            lambda p: np.cos(p[:, :1]),  # (N, 1) instead of (N,)
            lambda p: 0.5,  # a scalar
        ],
    )
    def test_target_must_return_n_values(self, f):
        # the message is integrate's, raised before the basis is formed
        shape = ShapeSequence.isotropic(1.0)
        with pytest.raises(ValueError) as from_integrate:
            grkhs.integrate(2, 64, f)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as from_projection:
                eigen_projection(shape, 2, 5, f, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(from_projection.value) == str(from_integrate.value)
        assert str(from_projection.value).startswith("integrand must return shape (4096,)")
        # (N, 1) values times the (N,) weights would broadcast to 4096 x 4096, 128 MiB
        assert peak < 2**20

    def test_parseval(self):
        # quadrature norm of the projection equals the coefficient norm
        shape = ShapeSequence.isotropic(1.0)
        f = lambda p: np.exp(-p[:, 0] ** 2)
        proj = eigen_projection(shape, 1, 12, f, m=80)
        from grkhs import integrate

        norm_sq = integrate(1, 80, lambda p: proj(p) ** 2)
        assert norm_sq == pytest.approx(float(np.sum(proj.coefficients**2)))

    @pytest.mark.filterwarnings("error")
    def test_gamma_that_underflows_to_zero(self):
        # gammas [1, 0]: the second coordinate takes the gamma -> 0 limit,
        # which gamma = 1e-300 (beta = 1 in double precision) meets
        f = lambda p: np.prod(np.cos(0.6 * p + 0.4), axis=1)
        zero = eigen_projection(ShapeSequence.power_law(1.0, 1100.0), 2, 5, f, 8)
        tiny = eigen_projection(ShapeSequence.explicit([1.0, 1e-300]), 2, 5, f, 8)
        assert zero.basis.indices == tiny.basis.indices
        assert np.allclose(zero.coefficients, tiny.coefficients, rtol=0.0, atol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_zero_gamma_eigenfunctions_are_hermite_polynomials(self):
        # gammas [1e-200, 0]: phi_1 = 1 exactly and H_{j-1} / sqrt(2^(j-1) (j-1)!)
        x = np.array([-3.5, -0.4, 0.0, 1.25, 6.0])
        pts = np.column_stack([np.zeros_like(x), x])
        idx = [MultiIndex.from_dense((1, j)) for j in (1, 2, 3, 4)]
        rows = tensor_eigenfunctions(ShapeSequence.geometric(1e-200), 2, idx, pts)
        assert np.all(rows[0] == 1.0)
        h = [np.sqrt(2.0) * x, (2 * x**2 - 1) / np.sqrt(2.0), (2 * x**3 - 3 * x) / np.sqrt(3.0)]
        assert np.allclose(rows[1:], h, rtol=1e-14, atol=1e-14)


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

    @pytest.mark.parametrize("n", [0, 3])
    def test_dimension_below_one(self, n):
        with pytest.raises(ValueError):
            minimal_error_all(ShapeSequence.isotropic(1.0), 0, n)


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
        # an empty list is the empty design in any dimension
        x = np.random.default_rng(1).standard_normal((4, 3))
        assert power_function(ShapeSequence.isotropic(1.0), 3, [], x).tolist() == [1.0] * 4

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
            calls.append(not algorithms._gram_memo.entries)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(algorithms._gram_memo, "entries", {})
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
        monkeypatch.setattr(algorithms._gram_memo, "entries", {})
        fresh = _gram_pinv_factors(shape, 2, design)
        assert len(eigh_calls) == 2
        assert all(a is b for a, b in zip(first, hit))
        assert fresh[0] is not hit[0]
        for a, b in zip(hit, fresh):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        U, inv = hit
        with pytest.raises(ValueError):
            U[0, 0] = 0.0
        with pytest.raises(ValueError):
            inv[0] = 0.0

    def test_empty_design_leaves_the_entry_in_place(self, eigh_calls):
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(10)
        X = rng.standard_normal((6, 2))
        spline_fit(shape, 2, X, rng.standard_normal(6))
        entries = dict(algorithms._gram_memo.entries)
        empty = np.empty((0, 2))
        U, inv = _gram_pinv_factors(shape, 2, empty)
        assert (U.shape, inv.shape) == ((0, 0), (0,))
        assert not U.flags.writeable and not inv.flags.writeable
        power_function(shape, 2, empty, rng.standard_normal((4, 2)))
        spline_worst_case_error(shape, 2, empty, 1)  # N = 1, no Lanczos
        spline_worst_case_error(shape, 2, empty, 9)  # Lanczos
        spline_worst_case_error(shape, 2, empty, 9, method="trace")
        # the rank-0 factors neither replace the entry nor factor anything
        assert algorithms._gram_memo.entries == entries
        assert eigh_calls == [True]

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
            calls.append(not algorithms._site_memo.entries)
            return cross_kernel(*args)

        monkeypatch.setattr(algorithms._gram_memo, "entries", {})
        monkeypatch.setattr(algorithms._site_memo, "entries", {})
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
    U, inv = _gram_pinv_factors(shape, d, design)
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
        U, inv = _gram_pinv_factors(shape, d, sites)
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
        U, inv = _gram_pinv_factors(shape, 2, sites)
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
        monkeypatch.setattr(algorithms._site_memo, "entries", {})
        shape = ShapeSequence.isotropic(1.0)
        design = np.random.default_rng(0).standard_normal((200, 3))
        # the first rule of a process imports scipy and fills the rule
        # cache; both stay by design, so they happen before the window
        gauss_hermite(32)
        tracemalloc.start()
        try:
            spline_worst_case_error(shape, 3, design, 32, method="trace")
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2**20
        assert not algorithms._site_memo.entries


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

    @pytest.mark.parametrize("method", ["spectral", "trace"])
    def test_grid_by_design_guard_allocates_nothing(self, method):
        # d = 3, m = 200: N = 8e6 passes the grid guard, but N n = 1.6e9
        # would ask 12.8 GB for the grid-by-design kernel alone
        design = np.random.default_rng(0).standard_normal((200, 3))
        message = "grid-by-design kernel N*n = 1600000000 exceeds 50000000"
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=re.escape(message)):
                spline_worst_case_error(
                    ShapeSequence.isotropic(1.0), 3, design, 200, method=method
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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


# (gammas, m): N = m^d from 40 to 216 nodes, above the Krylov basis size
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


# (d, m): grids of N = 1, 2, 4, 8 and 9 nodes; ARPACK runs with ncv = N
# up to 8 and not at all at N = 1
_TINY_GRIDS = [
    (1, 1), (1, 2), (1, 4), (1, 8), (1, 9), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)
]


def _wce_designs(d):
    rng = np.random.default_rng(11)
    spread = rng.uniform(-1.5, 1.5, (4, d))
    coincident = np.array([spread[0], spread[0], spread[1]])
    return {"empty": np.empty((0, d)), "spread": spread, "coincident": coincident}


# designs that a grid symmetry maps to themselves: x -> -x at d = 1, and at
# d = 2 the reflection of the other axis (sites on an axis) or the swap of
# the axes (sites on the diagonal); the first d = 2 design is the one where
# Lanczos from the uniform start vector gave 0.3687, below e_all(2) = 0.38197
_MIRROR_DESIGNS = [
    [[-0.75], [0.75]],
    [[-1.5], [-0.4], [0.4], [1.5]],
    [[1.0, 0.0], [0.125, 0.0]],
    [[-1.5, 0.0], [0.25, 0.0], [2.0, 0.0]],
    [[0.0, -0.5], [0.0, 1.0], [0.0, 1.75]],
    [[-0.5, -0.5], [1.25, 1.25], [2.0, 2.0], [0.0, 0.0]],
]


class TestSplineWorstCaseErrorOperator:
    @pytest.mark.parametrize("rows", _MIRROR_DESIGNS)
    def test_mirror_symmetric_design_matches_dense(self, rows):
        # the operator commutes with the symmetry, so its top eigenvector may
        # be odd under it, which a Krylov space from an even start vector
        # never reaches; solved at the rule sizes of check 10
        design = np.array(rows)
        d = design.shape[1]
        m = _spline_rule_size(d)
        wce = spline_worst_case_error(ShapeSequence.isotropic(1.0), d, design, m)
        ref = _dense_wce([1.0] * d, design, m)
        assert abs(wce - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("rows", _MIRROR_DESIGNS)
    def test_mirror_symmetric_design_matches_dense_on_small_grids(self, rows):
        # N = 1 to 81 nodes: the Krylov basis is the whole grid up to N = 8,
        # and Lanczos restarts above; the eigenvalue to 1e-12 absolute
        design = np.array(rows)
        d = design.shape[1]
        for m in [1, 2, 3, 5, 8, 9, 16] if d == 1 else [1, 2, 3, 4, 9]:
            wce = spline_worst_case_error(ShapeSequence.isotropic(1.0), d, design, m)
            ref = _dense_wce([1.0] * d, design, m)
            assert abs(wce**2 - ref**2) <= 1e-12, m

    @pytest.mark.parametrize("rows", _MIRROR_DESIGNS)
    def test_mirror_symmetric_design_dominates_optimal_error_on_small_grids(self, rows):
        # the smallest grids above the Krylov basis size (8) at which every
        # design's Nystrom estimate lies above e_all(n): the design
        # (1, 0), (0.125, 0) is within 1e-3 of e_all(2), and on odd rules up
        # to m = 19 the estimate itself, dense or Lanczos, falls below it
        design = np.array(rows)
        d, n = design.shape[1], design.shape[0]
        shape = ShapeSequence.isotropic(1.0)
        lower = minimal_error_all(shape, d, n)
        for m in (9, 16) if d == 1 else (10, 16):
            assert lower - 1e-9 <= spline_worst_case_error(shape, d, design, m), m

    @pytest.mark.parametrize("d,m", _TINY_GRIDS)
    @pytest.mark.parametrize("kind", ["empty", "spread", "coincident"])
    def test_tiny_grid_matches_dense_reference(self, d, m, kind):
        # the sites nearly fill these grids, so the eigenvalue may be near 0,
        # where its square root magnifies rounding: 1e-12 absolute on it
        gammas = [1.0, 0.5, 2.0][:d]
        design = _wce_designs(d)[kind]
        wce = spline_worst_case_error(ShapeSequence.explicit(gammas), d, design, m)
        ref = _dense_wce(gammas, design, m)
        assert abs(wce**2 - ref**2) <= 1e-12

    def test_lanczos_basis_is_capped_at_the_grid(self, monkeypatch):
        # ARPACK needs k < ncv <= N: ncv = N below 8 nodes, and N = 1 skips it
        import scipy.sparse.linalg

        ncvs = []
        eigsh = scipy.sparse.linalg.eigsh

        def counted(*args, **kwargs):
            ncvs.append(kwargs["ncv"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
        design = _wce_designs(2)["spread"]
        for m in (1, 2, 3, 9):
            spline_worst_case_error(ShapeSequence.isotropic(1.0), 2, design, m)
        assert ncvs == [4, 8, 8]
        assert _top_eigenvalue(lambda v: 0.25 * v, 1) == 0.25

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

    @pytest.mark.parametrize("m", [200, 512])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_memoized_factors_hold_no_subnormal(self, gamma, m):
        rule = gauss_hermite(m)
        raw = _nystrom_matrix(gamma, rule.nodes, rule.weights)
        (A,) = _tensor_grid(ShapeSequence.isotropic(gamma), 1, m).factors
        tiny = np.finfo(float).tiny
        subnormal = (raw > 0.0) & (raw < tiny)
        assert np.any(subnormal)
        assert not np.any((A > 0.0) & (A < tiny))
        assert np.all(A[subnormal] == 0.0)
        assert np.array_equal(A[~subnormal], raw[~subnormal])

    @pytest.mark.parametrize("m", [200, 300, 512])
    def test_flushed_product_bit_equal_to_unflushed(self, m):
        rule = gauss_hermite(m)
        raw = _nystrom_matrix(1.0, rule.nodes, rule.weights)
        flushed = _kron_matvec(_tensor_grid(ShapeSequence.isotropic(1.0), 1, m).factors)
        unflushed = _kron_matvec([raw])
        rng = np.random.default_rng(m)
        for _ in range(5):
            v = rng.standard_normal(m)
            assert flushed(v).tobytes() == unflushed(v).tobytes()

    def test_empty_correction_is_exact_zero(self):
        # the empty design's C diag(inv) C^T v is +0.0 everywhere
        rng = np.random.default_rng(3)
        factors = _tensor_grid(ShapeSequence.isotropic(1.0), 2, 9).factors
        C, inv = np.empty((81, 0)), np.empty(0)
        for _ in range(5):
            v = rng.standard_normal(81)
            kron = _kron_matvec(factors)(v)
            assert (kron - C @ (inv * (C.T @ v))).tobytes() == kron.tobytes()

    @pytest.mark.parametrize(
        "gammas,m", [([1.0], 1), ([1.0, 0.5], 8), ([1.0], 200), ([1.0, 0.5], 9)]
    )
    def test_empty_design_is_the_kronecker_product_alone(self, gammas, m):
        # every N, 1 and 64 included, takes the one solve of the operator
        shape, d = ShapeSequence.explicit(gammas), len(gammas)
        factors = _tensor_grid(shape, d, m).factors
        lam = _top_eigenvalue(_kron_matvec(factors), m**d)
        wce = spline_worst_case_error(shape, d, np.empty((0, d)), m)
        assert float(wce).hex() == float(np.sqrt(max(0.0, lam))).hex()

    @pytest.mark.parametrize("d,m", [(1, 1), (1, 50), (2, 9), (3, 5)])
    def test_empty_design_trace_bound_is_the_weight_sum(self, d, m):
        shape = ShapeSequence.isotropic(1.0)
        _, w = tensor_rule(d, m)
        trace = spline_worst_case_error(shape, d, np.empty((0, d)), m, method="trace")
        assert float(trace).hex() == float(np.sqrt(np.dot(w, np.ones(w.size)))).hex()

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        """Start from an empty grid memo; record the gamma of each factor built."""
        calls = []

        def counted(gamma, t, w):
            calls.append(gamma)
            return _nystrom_matrix(gamma, t, w)

        monkeypatch.setattr(algorithms._grid_memo, "entries", {})
        monkeypatch.setattr(algorithms, "_nystrom_matrix", counted)
        return calls

    def test_one_factor_per_distinct_gamma(self, factor_calls):
        design = np.random.default_rng(4).standard_normal((5, 3))
        spline_worst_case_error(ShapeSequence.isotropic(1.0), 3, design, 6)
        assert factor_calls == [1.0]
        shape = ShapeSequence.explicit([0.7, 1.3, 0.7])
        spline_worst_case_error(shape, 3, design, 6)
        assert factor_calls == [1.0, 0.7, 1.3]
        A = _tensor_grid(shape, 3, 6).factors
        assert A[0] is A[2] and A[1] is not A[0]
        # the same grid again builds nothing
        spline_worst_case_error(shape, 3, design[:2], 6)
        assert len(factor_calls) == 3

    def test_repeat_grid_is_neither_built_nor_validated(self, factor_calls, monkeypatch):
        rules, validated = [], []
        validate = kernel_module._as_points

        def rule(d, m):
            rules.append((d, m))
            return tensor_rule(d, m)

        def as_points(points, d):
            validated.append(len(points))
            return validate(points, d)

        monkeypatch.setattr(algorithms, "tensor_rule", rule)
        monkeypatch.setattr(algorithms, "_as_points", as_points)
        monkeypatch.setattr(kernel_module, "_as_points", as_points)
        shape = ShapeSequence.isotropic(1.0)
        design = np.random.default_rng(6).standard_normal((3, 2))
        first = spline_worst_case_error(shape, 2, design, 9)
        again = spline_worst_case_error(shape, 2, design, 9)
        assert float(again).hex() == float(first).hex()
        # one grid of 81 points, built once; only the design is validated
        assert rules == [(2, 9)]
        assert set(validated) == {3}

    def test_factors_are_read_only_and_bit_equal_to_fresh(self, factor_calls):
        shape = ShapeSequence.power_law(1.0, 0.5)
        factors = _tensor_grid(shape, 2, 30).factors
        rule = gauss_hermite(30)
        for A, g in zip(factors, shape.gammas(2)):
            assert A.tobytes() == _nystrom_matrix(g, rule.nodes, rule.weights).tobytes()
            with pytest.raises(ValueError):
                A[0, 0] = 0.0

    def test_keeps_the_spline_wce_grids(self, factor_calls):
        # check 10's two grids and d = 3, m = 12 fit the budget together:
        # visited in any order after the first round, none is built again
        shape = ShapeSequence.isotropic(1.0)
        grids = [(1, 200), (2, 32), (3, 12)]
        first = [_tensor_grid(shape, d, m) for d, m in grids]
        for d, m in grids[::-1] + grids:
            assert _tensor_grid(shape, d, m) is first[grids.index((d, m))]
        assert len(factor_calls) == 3
        # a grid over the budget is held alone, and the others are freed
        kept = [weakref.ref(grid.factors[0]) for grid in first]
        del first
        large = _tensor_grid(shape, 3, 32)
        assert _grid_bytes(large) > algorithms._grid_memo.budget
        assert [ref() for ref in kept] == [None] * 3
        assert list(algorithms._grid_memo.entries) == [_grid_key(shape, 3, 32)]
        assert len(factor_calls) == 4

    def test_bytes_stay_within_budget_plus_newest(self, factor_calls):
        rng = np.random.default_rng(11)
        shapes = [ShapeSequence.isotropic(1.0), ShapeSequence.power_law(1.0, 0.5)]
        budget = algorithms._grid_memo.budget
        alone = 0
        for _ in range(60):
            shape = shapes[int(rng.integers(2))]
            d = int(rng.integers(1, 4))
            # d = 1 past m = 253 is over the budget by itself
            m = int(rng.integers(1, 1 + {1: 400, 2: 48, 3: 20}[d]))
            newest = _tensor_grid(shape, d, m)
            held = [grid for grid, _ in algorithms._grid_memo.entries.values()]
            assert held[-1] is newest
            assert sum(_grid_bytes(grid) for grid in held) <= budget + _grid_bytes(newest)
            if _grid_bytes(newest) > budget:
                assert len(held) == 1
                alone += 1
        assert alone > 0

    def test_hits_stay_read_only(self, factor_calls):
        shape = ShapeSequence.explicit([1.0, 0.5])
        grid = _tensor_grid(shape, 2, 12)
        _tensor_grid(shape, 1, 40)
        hit = _tensor_grid(shape, 2, 12)
        assert hit is grid and len(factor_calls) == 3
        for a in (*hit.factors, hit.points, hit.root_weights):
            with pytest.raises(ValueError):
                a.flat[0] = 0.0

    def test_wce_bits_do_not_depend_on_call_order(self, factor_calls):
        # check 10's designs and d = 3, m = 12 designs, grouped by d and in
        # a seeded interleaving: every grid is a hit or a build in one order
        # and the other, and every error is the same float
        rng = np.random.default_rng(20240817)
        cases = []
        for _ in range(200):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 21))
            cases.append((d, rng.standard_normal((n, d)), _spline_rule_size(d)))
        cases += [(3, rng.standard_normal((int(rng.integers(1, 21)), 3)), 12) for _ in range(8)]
        shape = ShapeSequence.isotropic(1.0)

        def errors(order):
            algorithms._grid_memo.entries.clear()
            return {i: float(spline_worst_case_error(shape, *cases[i])).hex() for i in order}

        grouped = errors(sorted(range(len(cases)), key=lambda i: cases[i][0]))
        assert errors(np.random.default_rng(3).permutation(len(cases)).tolist()) == grouped

    def test_check_10_builds_one_grid_per_d(self, factor_calls):
        # its designs run in their seeded order, which mixes d = 1 and d = 2,
        # and the memo keeps both grids
        result = verify.check_spline_ordering()
        assert factor_calls == [1.0, 1.0]
        shape = ShapeSequence.isotropic(1.0)
        rng = np.random.default_rng(20240817)
        lower = {d: _error_values(shape, d, 20) for d in (1, 2)}
        margins = []
        for _ in range(200):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 21))
            design = rng.standard_normal((n, d))
            wce = spline_worst_case_error(shape, d, design, _spline_rule_size(d))
            margins.append(wce - lower[d][n])
        empty = spline_worst_case_error(shape, 1, np.empty((0, 1)), 200)
        assert result.passed
        assert result.detail == (
            f"min margin over 200 designs = {min(margins):.3e} (>= -1e-9), "
            f"empty-design deviation = {abs(empty - initial_error(shape, 1)):.3e} (<= 1e-6)"
        )

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


def _grid_bytes(grid):
    """Bytes of the distinct arrays of a memoized grid."""
    arrays = {id(a): a for a in (*grid.factors, grid.points, grid.root_weights)}
    return sum(a.nbytes for a in arrays.values())


def _grid_key(shape, d, m):
    return algorithms._memo_key(shape, d, np.int64(m))


def test_tensor_eigenfunctions_product_structure():
    shape = ShapeSequence.explicit([1.0, 0.5])
    s1, s2 = univariate_spectrum(1.0), univariate_spectrum(0.5)
    pts = np.array([[0.2, -0.3], [1.0, 0.5]])
    idx = [MultiIndex.from_dense((2, 3))]
    vals = tensor_eigenfunctions(shape, 2, idx, pts)
    expected = s1.eigenfunctions(2, pts[:, 0])[-1] * s2.eigenfunctions(3, pts[:, 1])[-1]
    assert np.allclose(vals[0], expected)
