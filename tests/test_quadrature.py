import math
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
import grkhs.quadrature as quadrature
from grkhs.quadrature import _MAX_FACTOR_TERMS, _factor_terms, _nystrom_matrix, _scaled_rule


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

    @pytest.mark.parametrize("m", [*range(1, 40), 64, 100, 149, 150, 151, 200, 333, 511, 512])
    def test_rule_is_mirror_symmetric_bit_for_bit(self, m):
        # the Nystrom oracle's parity split reads the positive nodes only
        rule = gauss_hermite(m)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert np.all(np.diff(rule.nodes) > 0)

    def test_rule_is_shared_and_read_only(self):
        rule = gauss_hermite(17)
        again = gauss_hermite(17)
        assert again.nodes is rule.nodes and again.weights is rule.weights
        for arr in (rule.nodes, rule.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _mp_nystrom_eigs(gamma, m):
    """Eigenvalues of the Nystrom matrix of the m-point rule, in mpmath, descending.

    The matrix is formed from the double nodes and weights at 40 digits.
    It is centrosymmetric (J A J = A for the flip J), so mixing each row
    with its mirror row splits it exactly into the blocks A11 + A12 J and
    A11 - A12 J, with the middle row of odd m joining the first; this
    halves the size of each mpmath eigensolve.
    """
    import mpmath as mp

    t, w = _scaled_rule(m, 1.0)
    p, mid = m // 2, m % 2
    with mp.workdps(40):
        g2 = mp.mpf(gamma) ** 2
        tt = [mp.mpf(x) for x in t.tolist()]
        sw = [mp.sqrt(mp.mpf(x)) for x in w.tolist()]

        def a(i, j):
            return sw[i] * sw[j] * mp.exp(-g2 * (tt[i] - tt[j]) ** 2)

        even, odd = mp.matrix(p + mid, p + mid), mp.matrix(p, p)
        for i in range(p):
            for j in range(i, p):
                x, y = a(p + mid + i, p + mid + j), a(p + mid + i, p - 1 - j)
                even[i, j] = even[j, i] = x + y
                odd[i, j] = odd[j, i] = x - y
            if mid:
                even[i, p] = even[p, i] = mp.sqrt(2) * a(p + 1 + i, p)
        if mid:
            even[p, p] = a(p, p)
        vals = list(mp.eigsy(even, eigvals_only=True))
        if p:
            vals += list(mp.eigsy(odd, eigvals_only=True))
        return np.array(sorted((float(v) for v in vals), reverse=True))


def _reference_factored_eigs(gamma, t, w, terms):
    """The factored route before the cut: SVDs of both parity blocks on every node."""
    g2 = 2.0 * gamma * gamma
    ks = np.arange(terms)
    log_coef = 0.5 * (ks * np.log(g2) - np.array([math.lgamma(k + 1.0) for k in ks]))
    m = t.size
    tp, wp = t[m - m // 2 :], w[m - m // 2 :]
    with np.errstate(divide="ignore"):
        log_B = np.add.outer(0.5 * np.log(wp) - (gamma * tp) ** 2, log_coef)
    log_B += np.multiply.outer(np.log(tp), ks)
    B = np.exp(log_B, out=log_B)
    even, odd = B[:, 0::2], B[:, 1::2]
    if m % 2:
        zero_row = np.zeros((1, even.shape[1]))
        zero_row[0, 0] = np.sqrt(0.5 * w[m // 2])
        even = np.vstack((even, zero_row))
    sv = np.concatenate(
        [np.linalg.svd(blk.T, compute_uv=False) for blk in (even, odd) if blk.size]
    )
    sv = -np.sort(-sv)
    lam = np.zeros(m)
    lam[: sv.size] = 2.0 * sv**2
    return lam


def _reference_nystrom_eigs(gamma, m, k, scale=1.0):
    """nystrom_eigs before the cut: the whole factor, or the whole dense matrix."""
    t, w = _scaled_rule(m, scale)
    terms = _factor_terms(gamma)
    if terms <= _MAX_FACTOR_TERMS:
        lam = _reference_factored_eigs(gamma, t, w, terms)
    else:
        lam = np.linalg.eigvalsh(_nystrom_matrix(gamma, t, w))[::-1]
    return lam[:k]


class _CutRecorder:
    """The node set and Taylor length of the last factor or matrix nystrom_eigs solved.

    ``solves`` counts the factors and matrices solved.
    """

    def __init__(self, monkeypatch):
        self.last = None
        self.solves = 0
        factored, matrix = quadrature._nystrom_eigs_factored, quadrature._nystrom_matrix

        def record_factored(gamma, t, w, keep, cols):
            self.last = ("factored", keep, cols)
            self.solves += 1
            return factored(gamma, t, w, keep, cols)

        def record_matrix(gamma, t, w):
            self.last = ("dense", t, None)
            self.solves += 1
            return matrix(gamma, t, w)

        monkeypatch.setattr(quadrature, "_nystrom_eigs_factored", record_factored)
        monkeypatch.setattr(quadrature, "_nystrom_matrix", record_matrix)

    def dropped_mass(self, gamma, m, scale):
        """The mass the last solve left out, from the exact Poisson tail of every kept row."""
        from scipy.special import gammainc

        t, w = _scaled_rule(m, scale)
        route, kept, cols = self.last
        if route == "dense":
            return float(np.sum(w[~np.isin(t, kept)]))
        if isinstance(kept, slice):
            return 0.0
        wp, tp = w[m - m // 2 :], t[m - m // 2 :]
        # P[Poisson(mu) >= c] is the regularized lower incomplete gamma P(c, mu)
        tail = gammainc(cols, 2.0 * (gamma * tp[kept]) ** 2)
        return float(2.0 * np.sum(wp[~kept]) + 2.0 * np.dot(wp[kept], tail))


class TestNystromEigs:
    def test_matches_closed_form(self):
        for gamma in (0.1, 0.5, 1.0, 2.0):
            spec = univariate_spectrum(gamma)
            lam = spec.eigenvalue(np.arange(1, 11))
            approx = nystrom_eigs(gamma, 200, 10)
            assert np.max(np.abs(approx - lam) / lam) < 1e-10

    @pytest.mark.parametrize(
        "gamma, m", [(0.1, 20), (0.1, 33), (0.1, 64), (0.3, 64), (1.0, 64), (2.0, 33), (2.0, 64)]
    )
    def test_factored_route_matches_mpmath(self, gamma, m):
        # the ten largest within 1e-12 relative of the same Nystrom matrix's
        # eigenvalues at 40 digits; one SVD of the whole factor missed this
        # by up to 7.6e-10 (m = 33)
        lam = nystrom_eigs(gamma, m, 10)
        ref = _mp_nystrom_eigs(gamma, m)[:10]
        assert np.max(np.abs(lam - ref) / ref) <= 1e-12

    def test_dense_route_matches_mpmath(self):
        # gamma = 10 needs 27,733 Taylor terms; the solve keeps the heaviest nodes
        assert _factor_terms(10.0) > _MAX_FACTOR_TERMS
        lam = nystrom_eigs(10.0, 64, 10)
        ref = _mp_nystrom_eigs(10.0, 64)[:10]
        assert np.max(np.abs(lam - ref) / ref) <= 1e-12

    def test_cut_leaves_out_light_nodes_and_late_columns(self, monkeypatch):
        rec = _CutRecorder(monkeypatch)
        nystrom_eigs(2.0, 200, 10)
        route, kept, cols = rec.last
        assert route == "factored"
        assert np.count_nonzero(kept) < 50 and cols < _factor_terms(2.0) // 3
        nystrom_eigs(10.0, 200, 10)
        route, kept, _ = rec.last
        assert route == "dense" and kept.size < 100

    def test_taylor_tail_bounds_the_poisson_tail(self):
        # P[Poisson(mu) >= c] is the regularized lower incomplete gamma P(c, mu);
        # the bound holds on both sides of c = mu and for mu = 0
        from scipy.special import gammainc

        for mu in [0.0, 1e-3, 0.5, 3.0, 40.0, 400.0]:
            for cols in [1, 2, 5, 50, 300, 1000]:
                bound = quadrature._taylor_tail(np.array([mu]), np.array([1.0]), cols)
                assert gammainc(cols, mu) <= bound * (1.0 + 1e-12), (mu, cols)

    @pytest.mark.parametrize("gamma, cut", [(2.0, "_factored_cut"), (10.0, "_drop_lightest")])
    def test_cut_past_its_bound_solves_the_whole_matrix(self, monkeypatch, gamma, cut):
        # a cut that reports a mass of 1, far past 2^-53 lambda_k, fails its
        # check: the lower bound, the cut and then the whole matrix are solved
        rec = _CutRecorder(monkeypatch)
        choose = getattr(quadrature, cut)
        monkeypatch.setattr(quadrature, cut, lambda *args: (*choose(*args)[:-1], 1.0))
        lam = nystrom_eigs(gamma, 200, 10)
        assert rec.solves == 3
        assert lam.tobytes() == _reference_nystrom_eigs(gamma, 200, 10).tobytes()

    def test_every_caller_solves_twice(self, monkeypatch):
        # the lower bound and a cut that passes its check: the spectrum
        # command, check 01's scaled rules and the benchmark's warm-up
        rec = _CutRecorder(monkeypatch)
        cases = [(1.0, 40, 5, 1.0)]
        for gamma in (0.1, 0.5, 1.0, 2.0, 10.0):
            cases += [(gamma, 200, 10, 1.0), (gamma, 200, 10, min(1.0, 3.0 / gamma))]
        for case in cases:
            rec.solves = 0
            nystrom_eigs(*case)
            assert rec.solves == 2, case

    @pytest.mark.parametrize("gamma", [0.1, 0.7, 2.0, 10.0, 1e8])
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_every_value_solves_the_whole_matrix_bit_for_bit(self, gamma, scale):
        # with k = m every node carries a returned value: nothing can go
        for m in [1, 2, 3, 8, 33, 64, 200]:
            lam = nystrom_eigs(gamma, m, m, scale=scale)
            assert lam.tobytes() == _reference_nystrom_eigs(gamma, m, m, scale).tobytes()

    @pytest.mark.parametrize("gamma, m, k", [(0.1, 200, 200), (1e-30, 200, 8)])
    def test_underflowed_lambda_k_solves_the_whole_factor_bit_for_bit(self, gamma, m, k):
        # lambda_k is 0: no mass is small enough to leave out
        ref = _reference_nystrom_eigs(gamma, m, k)
        assert ref[-1] == 0.0
        assert nystrom_eigs(gamma, m, k).tobytes() == ref.tobytes()

    def test_cut_stays_within_its_bound(self, monkeypatch):
        # The allowance covers the rounding of both solves by the backward
        # error bound of each route: an SVD moves sigma_j by about m eps
        # sigma_1, so lambda_j = 2 sigma_j^2 by m eps sqrt(lambda_1 lambda_j)
        # (twice, once per solve), and eigvalsh moves lambda_j by about
        # m eps lambda_1 (8 m eps lambda_1 allowed).  1e-12 relative is too
        # tight: at (0.628..., 150, 25, 0.3) the cut and the whole solve are
        # 5e-13 and 2.4e-12 from mpmath at lambda_25 / lambda_1 = 4e-16.
        # The mass check does not depend on the allowance.
        rec = _CutRecorder(monkeypatch)
        rng = np.random.default_rng(28)
        cuts = 0
        for _ in range(60):
            gamma = float(rng.uniform(0.05, 5.0))
            m = int(rng.integers(1, 257))
            k = int(np.ceil(m ** rng.uniform()))
            scale = float(rng.choice([1.0, 0.3]))
            lam = nystrom_eigs(gamma, m, k, scale=scale)
            ref = _reference_nystrom_eigs(gamma, m, k, scale)
            eps = np.finfo(float).eps
            if _factor_terms(gamma) > _MAX_FACTOR_TERMS:
                allow = 8 * m * eps * ref[0]
            else:
                allow = 2 * m * eps * np.sqrt(ref[0] * ref)
            case = (gamma, m, k, scale)
            # the kept matrix's values lie below the whole one's, by at most the
            # mass left out, which is at most 2^-53 lambda_k
            dropped = rec.dropped_mass(gamma, m, scale)
            assert dropped <= 2.0**-53 * lam[-1], case
            assert np.all(lam <= ref + allow), case
            assert np.all(ref <= lam + 2.0**-53 * lam[-1] + allow), case
            cuts += dropped > 0
        assert cuts >= 20

    @pytest.mark.parametrize("m", range(1, 9))
    def test_small_rules_match_dense_solve(self, m):
        t, w = _scaled_rule(m, 1.0)
        dense = np.linalg.eigvalsh(_nystrom_matrix(0.7, t, w))[::-1]
        assert np.allclose(nystrom_eigs(0.7, m, m), dense, rtol=0.0, atol=1e-15)

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

    @pytest.mark.parametrize("gamma", [1e-170, 1e-300])
    @pytest.mark.parametrize("m", [1, 33, 200])
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_gamma_whose_square_underflows(self, gamma, m, scale):
        # 2 gamma^2 = 0: the matrix is sqrt(w) sqrt(w)^T, one value sum(w)
        assert 2.0 * gamma * gamma == 0.0
        k = min(3, m)
        lam = nystrom_eigs(gamma, m, k, scale)
        w = _scaled_rule(m, scale)[1]
        expect = np.zeros(k)
        expect[0] = math.fsum(w)
        assert np.allclose(lam, expect, rtol=1e-15, atol=0.0)
        if scale == 1.0:
            closed = univariate_spectrum(gamma).eigenvalue(np.arange(1, k + 1))
            assert closed.tolist() == [1.0] + [0.0] * (k - 1)
            assert np.allclose(lam, closed, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("m, k", [(2, 2), (33, 3), (200, 3)])
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_gamma_whose_square_is_subnormal_keeps_its_bits(self, m, k, scale):
        # 2 gamma^2 = 2e-320 is subnormal, not 0: the route of every gamma
        gamma = 1e-160
        assert 0.0 < 2.0 * gamma * gamma < 2.2250738585072014e-308
        lam = nystrom_eigs(gamma, m, k, scale)
        assert lam.tobytes() == _reference_nystrom_eigs(gamma, m, k, scale).tobytes()
        assert 0.0 < lam[1] < 1e-300

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
        # odd m puts a node at 0, a row of the even block alone
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
