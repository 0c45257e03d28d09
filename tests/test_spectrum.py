import heapq
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import grkhs
from grkhs import (
    EvaluationOverflowError,
    MultiIndex,
    ResourceLimitError,
    ShapeSequence,
    eigenvalue_ratio,
    error_sequence_all,
    gauss_hermite,
    mercer_check,
    stream_tensor_eigenvalues,
    tensor_log_eigenvalue,
    top_n_tensor_eigenvalues,
    univariate_spectrum,
)
from grkhs.kernel import _log_spectrum
from grkhs.spectrum import (
    _KEY_SHIFT,
    _candidates,
    _log_product,
    _powers_reaching,
    _rows_taking,
    _top_log_values,
)
from grkhs.verify import _brute_force_top


def _heap_stream(shape, d):
    """Best-first heap enumeration, one pop per item: the reference for
    the merge.  Yields (log_value, sparse_entries); equal log-values pop
    in (position, -j) key order among the items already generated."""
    g = shape.gammas(d)
    ratios = np.array([eigenvalue_ratio(x) for x in g])
    log_ratio = np.log(ratios)
    base = float(np.sum(np.log1p(-ratios)))
    # heap entries: (-log_value, tie_key, sparse entries ((pos, j), ...))
    heap = [(-base, (), ())]
    while heap:
        neg, _, entries = heapq.heappop(heap)
        yield -neg, entries
        first = entries[0][0] if entries else d
        for l in range(1, first + 1):
            if entries and entries[0][0] == l:
                child = ((l, entries[0][1] + 1),) + entries[1:]
            else:
                child = ((l, 2),) + entries
            key = tuple((pos, -j) for pos, j in child)
            heapq.heappush(
                heap, (-_log_product(base, log_ratio, child), key, child)
            )


def _children(entries, d):
    first = entries[0][0] if entries else d
    for l in range(1, first + 1):
        if entries and entries[0][0] == l:
            yield ((l, entries[0][1] + 1),) + entries[1:]
        else:
            yield ((l, 2),) + entries


def _heap_top(shape, d, n):
    """First n heap items, and whether the heap may have left key order.

    The heap generates a child only after popping its parent, and a
    child's key is smaller than its parent's.  So it leaves the key order
    exactly when a child's log-value equals its parent's (a log ratio
    absorbed in rounding) for a parent at or above the n-th value: an
    emitted item, or an unpopped child tied with the n-th value.
    """
    items = list(itertools.islice(_heap_stream(shape, d), n))
    ratios = np.array([eigenvalue_ratio(x) for x in shape.gammas(d)])
    base, log_ratio = float(np.sum(np.log1p(-ratios))), np.log(ratios)
    emitted = {e for _, e in items}
    parents = list(items)
    for _, e in items:
        for c in _children(e, d):
            cv = _log_product(base, log_ratio, c)
            if c not in emitted and cv == items[-1][0]:
                parents.append((cv, c))
    ties = any(
        _log_product(base, log_ratio, c) == v
        for v, e in parents
        for c in _children(e, d)
    )
    return items, ties


def _brute_force_loop(shape, d, n, box=40):
    """Check 05's exhaustive box search as a Python loop over the box:
    the reference for the numpy search in grkhs.verify.  ``box`` is the
    largest power, one for every coordinate or a sequence of d."""
    ratios = np.array([eigenvalue_ratio(g) for g in shape.gammas(d)])
    base = float(np.sum(np.log1p(-ratios)))
    log_ratio = np.log(ratios)
    sizes = [box] * d if np.ndim(box) == 0 else list(box)
    idx_all = []
    for dense in itertools.product(*(range(1, b + 1) for b in sizes)):
        entries = tuple((pos, j) for pos, j in enumerate(dense, start=1) if j > 1)
        logval = _log_product(base, log_ratio, entries)
        key = tuple((pos, -j) for pos, j in entries)
        idx_all.append((-logval, key, dense))
    idx_all.sort()
    return [(-neg, dense) for neg, _, dense in idx_all[:n]]


def _key_first_ties(shape, d, n):
    """First n indices in (position, -j) key order among those whose
    value equals the leading one, by a depth-first walk of the keys."""
    ratios = np.array([eigenvalue_ratio(g) for g in shape.gammas(d)])
    base = float(np.sum(np.log1p(-ratios)))
    log_ratio = np.log(ratios)
    out = []

    def walk(v, entries, last):
        if v != base or len(out) == n:
            return
        out.append(entries)
        for q in range(last + 1, d + 1):
            top = 2
            while v + top * log_ratio[q - 1] == base:
                top += 1
            for j in range(top, 1, -1):
                walk(v + (j - 1) * log_ratio[q - 1], entries + ((q, j),), q)

    walk(base, (), 0)
    return out


class TestUnivariateSpectrum:
    def test_omega_gamma_one(self):
        spec = univariate_spectrum(1.0)
        assert spec.omega == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0)
        assert spec.omega == pytest.approx(0.3819660, abs=1e-7)

    def test_eigenvalues_geometric(self):
        spec = univariate_spectrum(1.0)
        lam = spec.eigenvalue(np.arange(1, 8))
        assert lam[0] == pytest.approx(0.6180340, abs=1e-7)
        assert lam[5] == pytest.approx(0.0050250, abs=1e-6)
        assert np.allclose(lam[1:] / lam[:-1], spec.omega)
        with pytest.raises(ValueError, match="eigenvalue index must be >= 1"):
            spec.eigenvalue([1, 0])
        assert spec.eigenvalue(np.array([], dtype=int)).shape == (0,)

    @pytest.mark.parametrize("j", [2.5, 2.0, True, [1, 2.5], np.array([True, False])])
    def test_eigenvalue_rejects_non_integer_indices(self, j):
        # 2.5 used to give 0.1459, no eigenvalue, and True gave lambda_1
        with pytest.raises(ValueError, match="eigenvalue index must be an integer array, got dtype"):
            univariate_spectrum(1.0).eigenvalue(j)

    def test_trace_one(self):
        for gamma in (0.3, 1.0, 4.0):
            spec = univariate_spectrum(gamma)
            # sum lambda_j = (1 - omega) / (1 - omega) = 1
            partial = np.sum(spec.eigenvalue(np.arange(1, 500)))
            assert partial == pytest.approx(1.0)

    def test_first_eigenfunction_at_zero(self):
        spec = univariate_spectrum(1.0)
        # phi_1(0) = sqrt(beta) = 5^(1/8)
        assert spec.eigenfunctions(1, 0.0)[-1][0] == pytest.approx(5.0**0.125)
        assert spec.eigenfunctions(1, 0.0)[-1][0] == pytest.approx(1.2228445, abs=1e-7)

    def test_orthonormality(self):
        rule = gauss_hermite(200)
        for gamma in (0.5, 1.0, 2.0):
            spec = univariate_spectrum(gamma)
            P = spec.eigenfunctions(12, rule.nodes)
            G = (P * rule.weights) @ P.T
            assert np.max(np.abs(G - np.eye(12))) < 1e-10

    def test_mercer(self):
        spec = univariate_spectrum(1.0)
        shape = ShapeSequence.isotropic(1.0)
        for x, t in [(0.0, 0.0), (0.5, -1.0), (2.0, 1.5)]:
            exact = grkhs.kernel_eval(shape, 1, [x], [t])
            assert mercer_check(spec, x, t, 60) == pytest.approx(exact, abs=1e-12)

    def test_overflow_guard(self):
        spec = univariate_spectrum(1.0)
        with pytest.raises(EvaluationOverflowError):
            spec.eigenfunctions(1, 40.0)

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0)])
    def test_non_integer_count_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"J must be an integer, got {bad!r}")):
            univariate_spectrum(1.0).eigenfunctions(bad, [0.0, 0.5])

    @pytest.mark.parametrize(
        "gamma, message",
        [
            (np.nan, "shape parameter must be positive, got nan"),
            (np.inf, "shape parameter must be positive, got inf"),
            (0.0, "shape parameter must be positive, got 0.0"),
            (-1.0, "shape parameter must be positive, got -1.0"),
            (1e17, "shape parameter 1e+17 too large for double precision"),
            # gamma^2 overflows: rejected before the eigenfunction scales
            (1e200, "shape parameter 1e+200 too large for double precision"),
        ],
    )
    def test_invalid_gamma(self, gamma, message):
        with pytest.raises(ValueError) as exc:
            univariate_spectrum(gamma)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as scalar:
            eigenvalue_ratio(gamma)
        assert str(scalar.value) == message


class TestMultiIndex:
    def test_dense_roundtrip(self):
        idx = MultiIndex.from_dense((1, 3, 1, 2))
        assert idx.dense() == (1, 3, 1, 2)
        assert repr(idx) == "MultiIndex(1, 3, 1, 2)"

    def test_sparse_storage(self):
        idx = MultiIndex.from_dense([1] * 1000 + [5])
        assert idx.d == 1001
        assert idx.dense()[-1] == 5
        assert idx.entries == ((1001, 5),)
        with pytest.raises(AttributeError):
            idx.entries = ()

    def test_equality_and_hash(self):
        a = MultiIndex.from_dense((2, 1))
        b = MultiIndex.from_dense((2, 1))
        assert a == b and hash(a) == hash(b)
        assert a != MultiIndex.from_dense((1, 2))


class TestDenseIndexValidation:
    @pytest.mark.parametrize(
        "index, message",
        [
            # these three used to return the value of (1, 1), (1, 1), (2, 1)
            ((1, 0), "multi-index entries must be >= 1"),
            ((1, -3), "multi-index entries must be >= 1"),
            ((2,), r"multi-index \(2,\) has 1 entries, need d = 2"),
            # and this one raised IndexError
            ((1, 2, 3), r"has 3 entries, need d = 2"),
            # truncated to (1, 1) before
            ((1.5, 1), r"must be integers, got \(1.5, 1\)"),
            # read as (2, 1) before
            ((2.0, 1), r"must be integers, got \(2.0, 1\)"),
            ((2, True), r"must be integers, got \(2, True\)"),
        ],
    )
    def test_tensor_log_eigenvalue_rejects(self, index, message):
        with pytest.raises(ValueError, match=message):
            tensor_log_eigenvalue(ShapeSequence.isotropic(1.0), 2, index)


class TestTensorEnumeration:
    def test_d1_matches_univariate(self):
        shape = ShapeSequence.isotropic(1.0)
        spec = univariate_spectrum(1.0)
        top = top_n_tensor_eigenvalues(shape, 1, 10)
        assert np.allclose(top.values, spec.eigenvalue(np.arange(1, 11)))
        assert [i.dense() for i in top.indices] == [(j,) for j in range(1, 11)]

    def test_tie_break_order(self):
        top = top_n_tensor_eigenvalues(ShapeSequence.isotropic(1.0), 2, 3)
        assert [i.dense() for i in top.indices] == [(1, 1), (2, 1), (1, 2)]
        omega = eigenvalue_ratio(1.0)
        assert top.values[0] == pytest.approx((1.0 - omega) ** 2)
        assert top.values[1] == pytest.approx((1.0 - omega) ** 2 * omega)
        assert top.values[1] == top.values[2]

    def test_values_descending(self):
        top = top_n_tensor_eigenvalues(ShapeSequence.power_law(1.0, 1.0), 3, 200)
        assert np.all(np.diff(top.log_values) <= 0)

    def test_log_values_bit_match_direct_formula(self):
        shape = ShapeSequence.explicit([1.0, 0.5])
        top = top_n_tensor_eigenvalues(shape, 2, 50)
        for lv, idx in zip(top.log_values, top.indices):
            assert lv == tensor_log_eigenvalue(shape, 2, idx.dense())

    def test_stream_and_top_agree(self):
        shape = ShapeSequence.isotropic(0.8)
        top = top_n_tensor_eigenvalues(shape, 3, 30)
        streamed = []
        for lv, idx in stream_tensor_eigenvalues(shape, 3, limit=30):
            streamed.append((lv, idx))
            if len(streamed) == 30:
                break
        assert [i for _, i in streamed] == list(top.indices)

    def test_large_d_no_underflow(self):
        top = top_n_tensor_eigenvalues(ShapeSequence.isotropic(1.0), 500, 5)
        assert np.isfinite(top.log_values).all()
        assert top.log_values[0] == pytest.approx(
            500 * np.log1p(-eigenvalue_ratio(1.0))
        )

    def test_guard_env_var(self, monkeypatch):
        monkeypatch.setenv("GRKHS_MAX_EIGS", "10")
        with pytest.raises(ResourceLimitError):
            top_n_tensor_eigenvalues(ShapeSequence.isotropic(1.0), 2, 11)
        # within the guard still works
        top = top_n_tensor_eigenvalues(ShapeSequence.isotropic(1.0), 2, 10)
        assert len(top) == 10

    def test_guard_env_var_validation(self, monkeypatch):
        monkeypatch.setenv("GRKHS_MAX_EIGS", "zero")
        with pytest.raises(ValueError, match="GRKHS_MAX_EIGS must be an integer, got 'zero'"):
            top_n_tensor_eigenvalues(ShapeSequence.isotropic(1.0), 2, 5)
        monkeypatch.setenv("GRKHS_MAX_EIGS", "0")
        with pytest.raises(ValueError, match="GRKHS_MAX_EIGS must be >= 1, got 0"):
            top_n_tensor_eigenvalues(ShapeSequence.isotropic(1.0), 2, 5)


CHECK05_CASES = [
    (ShapeSequence.isotropic(1.0), 2),
    (ShapeSequence.isotropic(1.0), 3),
    (ShapeSequence.explicit([1.0, 0.5, 0.25]), 2),
    (ShapeSequence.explicit([1.0, 0.5, 0.25]), 3),
]


def _tied(d):
    # isotropic and repeated gammas: exact value ties between indices
    gammas = st.floats(0.05, 20.0)
    return st.one_of(
        gammas.map(ShapeSequence.isotropic),
        # a pool of two or three values forces repeated gammas
        st.lists(gammas, min_size=2, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=d, max_size=d)
        ).map(ShapeSequence.explicit),
    )


def _shapes(d):
    return st.one_of(
        _tied(d),
        st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 3.0)).map(
            lambda ca: ShapeSequence.power_law(*ca)
        ),
        # gammas up to 1e15, where a log ratio can be absorbed in rounding
        st.floats(1e9, 1e15).map(ShapeSequence.isotropic),
    )


def _underflowed(d):
    # gamma = 1e-200 underflows its ratio to 0: zero eigenvalues, log -inf
    others = st.one_of(st.floats(0.05, 20.0), st.floats(1e9, 1e15))
    return st.lists(others, min_size=1, max_size=2).flatmap(
        lambda pool: st.lists(st.sampled_from([1e-200] + pool), min_size=d, max_size=d)
    ).map(ShapeSequence.explicit)


def _absorbed_or_zero(d):
    # gamma in [1e13, 1e15] absorbs its log ratio for runs of powers, and
    # gamma = 1e-200 makes every power above 1 a zero eigenvalue
    pool = st.lists(st.floats(1e13, 1e15), min_size=1, max_size=2)
    mixed = pool.flatmap(
        lambda p: st.lists(st.sampled_from([1e-200] + p), min_size=d, max_size=d)
    ).map(ShapeSequence.explicit)
    return st.one_of(mixed, _underflowed(d))


def _box_search(shape, d, n, box):
    """Top n of the box {1..box_l}: descending log value, finite ties by
    the (position, -j) key of the entries above 1 and zero eigenvalues
    (log value -inf) by (position, j); an exhaustive numpy search whose
    values are accumulated in position order, as in ``_log_product``."""
    base, log_ratio = _log_spectrum(shape, d)
    axes = np.meshgrid(*[np.arange(1, b + 1) for b in box], indexing="ij")
    dense = np.stack(axes, axis=-1).reshape(-1, d)
    logval = np.full(dense.shape[0], base)
    for pos in range(d):
        up = np.flatnonzero(dense[:, pos] > 1)
        logval[up] += (dense[up, pos] - 1) * log_ratio[pos]
    sign = np.where(np.isneginf(logval), 1, -1)
    key = np.zeros((dense.shape[0], 2 * d), dtype=np.int64)
    slot = np.zeros(dense.shape[0], dtype=np.int64)
    for pos in range(d):
        up = np.flatnonzero(dense[:, pos] > 1)
        key[up, 2 * slot[up]] = pos + 1
        key[up, 2 * slot[up] + 1] = sign[up] * dense[up, pos]
        slot[up] += 1
    cols = tuple(key[:, k] for k in range(2 * d - 1, -1, -1))
    top = np.lexsort(cols + (-logval,))[:n]
    return logval[top], [tuple(dense[i].tolist()) for i in top]


def _copy_per_row_values(base, log_ratio, n):
    """The values pass with one copy per kept value, n in all: the
    reference for the pass that keeps (value, count) runs.  Row r of the
    kept values (descending) takes powers 1..floor((n - 1) / r) + 1 down
    to the largest of the floors row_r + floor((n - 1) / r) lr, and the n
    best candidates are kept."""
    vals = np.array([base])
    for lr in log_ratio[np.isfinite(log_ratio)]:
        if vals.size == n and vals.max() + lr < vals.min():
            continue
        rows = -np.sort(-vals)
        r = np.arange(1, rows.size + 1)
        floor = np.max(rows + ((n - 1) // r) * lr)
        row, j = _candidates(_powers_reaching(rows, lr, floor, (n - 1) // r + 1))
        v = rows[row] + (j - 1) * lr
        theta = -np.partition(-v, n - 1)[n - 1]
        above = v[v > theta]
        vals = np.concatenate((above, np.full(n - above.size, theta)))
    vals = np.concatenate((vals, np.full(n - vals.size, -np.inf)))
    return -np.sort(-vals)


def _values_shapes(d):
    # the families of the values pass: isotropic, equal-gamma groups,
    # power laws, geometric, distinct explicit gammas, absorbed log ratios
    # (gamma 1e13 to 1e15) and underflowed ratios (gamma 1e-200)
    return st.one_of(
        _shapes(d),
        st.floats(0.3, 0.95).map(ShapeSequence.geometric),
        st.lists(st.floats(0.05, 20.0), min_size=d, max_size=d).map(ShapeSequence.explicit),
        _absorbed_or_zero(d),
    )


class TestMergeAgainstHeap:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), _shapes(d))),
        st.integers(1, 500),
    )
    def test_merge_equals_heap(self, d_shape, n):
        d, shape = d_shape
        items, ties = _heap_top(shape, d, n)
        # where a child ties its parent the heap emits generation order,
        # not key order (see test_absorbed_ties_follow_key_order)
        assume(not ties)
        top = top_n_tensor_eigenvalues(shape, d, n)
        want = np.array([v for v, _ in items])
        assert top.log_values.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert [i.entries for i in top.indices] == [e for _, e in items]

    def test_absorbed_ties_follow_key_order(self):
        # gamma = 1e14: |log ratio| ~ 1e-14 is absorbed by the leading
        # value -1289.9 (ulp 2.3e-13) for powers up to 12, so all of the
        # top 200 are equal and the heap emits them in generation order
        shape = ShapeSequence.explicit([1e14] * 40)
        top = top_n_tensor_eigenvalues(shape, 40, 200)
        items, ties = _heap_top(shape, 40, 200)
        assert ties
        assert np.unique(top.log_values).size == 1
        assert top.log_values.tolist() == [v for v, _ in items]
        got = [i.entries for i in top.indices]
        assert got == _key_first_ties(shape, 40, 200)
        assert got != [e for _, e in items]
        assert got[:2] == [(), ((1, 12),)]

    @pytest.mark.parametrize(
        "gammas, n, box",
        [([1e15, 1e15, 1e15], 100, 30), ([1e15, 3.0], 200, 300), ([1e14, 1e14], 50, 100)],
    )
    def test_absorbed_ties_match_exhaustive_search(self, gammas, n, box):
        shape = ShapeSequence.explicit(gammas)
        d = len(gammas)
        top = top_n_tensor_eigenvalues(shape, d, n)
        brute = _brute_force_loop(shape, d, n, box)
        # the box holds the answer: every index with a coordinate at the
        # box edge or beyond is worth less than the n-th value
        edge = [tuple(box if k == l else 1 for k in range(d)) for l in range(d)]
        assert max(tensor_log_eigenvalue(shape, d, e) for e in edge) < top.log_values[-1]
        assert top.log_values.tolist() == [v for v, _ in brute]
        assert [i.dense() for i in top.indices] == [idx for _, idx in brute]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda d: st.tuples(st.just(d), st.one_of(_shapes(d), _underflowed(d)))
        ),
        st.integers(1, 500),
    )
    def test_values_pass_equals_merge(self, d_shape, n):
        d, shape = d_shape
        base, log_ratio = _log_spectrum(shape, d)
        fast = _top_log_values(base, log_ratio, n)
        top = top_n_tensor_eigenvalues(shape, d, n)
        assert fast.view(np.int64).tolist() == top.log_values.view(np.int64).tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 50).flatmap(lambda d: st.tuples(st.just(d), _values_shapes(d))),
        st.integers(1, 3000),
    )
    def test_runs_equal_copy_per_row_pass(self, d_shape, n):
        d, shape = d_shape
        base, log_ratio = _log_spectrum(shape, d)
        got = _top_log_values(base, log_ratio, n)
        assert got.tobytes() == _copy_per_row_values(base, log_ratio, n).tobytes()

    @pytest.mark.parametrize(
        "shape, d, n",
        [
            (ShapeSequence.isotropic(1.0), 50, 1001),
            (ShapeSequence.explicit([1.0, 1.0, 0.5, 0.5, 0.5, 1e14]), 6, 3000),
        ],
    )
    def test_values_pass_keeps_one_row_per_value(self, monkeypatch, shape, d, n):
        # equal values merge into one run, so each coordinate counts the
        # powers of strictly descending distinct values
        seen = []

        def spy(rows, lr, t, cap):
            seen.append(rows.copy())
            return _powers_reaching(rows, lr, t, cap)

        monkeypatch.setattr("grkhs.spectrum._powers_reaching", spy)
        base, log_ratio = _log_spectrum(shape, d)
        got = _top_log_values(base, log_ratio, n)
        assert got.tobytes() == _copy_per_row_values(base, log_ratio, n).tobytes()
        assert len(seen) > 2
        assert all(np.all(rows[1:] < rows[:-1]) for rows in seen)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), _tied(d))), st.integers(1, 500))
    def test_ties_match_exhaustive_search(self, d_shape, n):
        d, shape = d_shape
        top = top_n_tensor_eigenvalues(shape, d, n)
        cut = top.log_values[-1]
        # per coordinate the first power below the n-th value: every index
        # at the box edge or beyond is worth less, so the box holds the answer
        box = []
        for l in range(d):
            j = 2
            while tensor_log_eigenvalue(shape, d, [j if k == l else 1 for k in range(d)]) >= cut:
                j += 1
            box.append(j)
        edge = [tuple(box[l] if k == l else 1 for k in range(d)) for l in range(d)]
        assert max(tensor_log_eigenvalue(shape, d, e) for e in edge) < cut
        brute = _brute_force_loop(shape, d, n, box)
        want = np.array([v for v, _ in brute])
        assert top.log_values.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert [i.dense() for i in top.indices] == [idx for _, idx in brute]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), _absorbed_or_zero(d))),
        st.integers(1, 300),
    )
    def test_absorbed_and_zero_ties_match_exhaustive_search(self, d_shape, n):
        d, shape = d_shape
        top = top_n_tensor_eigenvalues(shape, d, n)
        cut = top.log_values[-1]
        # per coordinate the first power below the n-th value, so every
        # index at the box edge or beyond is worth less; when the n-th value
        # is a zero eigenvalue, n + 1: an index with power n + 1 or more
        # there comes after the leading one and its n - 1 copies with that
        # power lowered to 2, ..., n, in (position, j) order
        box = [n + 1] * d
        if np.isfinite(cut):
            for l in range(d):
                j = 2
                while tensor_log_eigenvalue(shape, d, [j if k == l else 1 for k in range(d)]) >= cut:
                    j += 1
                box[l] = j
        assume(np.prod(box, dtype=float) <= 3e5)
        want, dense = _box_search(shape, d, n, box)
        assert top.log_values.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert [i.dense() for i in top.indices] == dense

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(-8.0, 3.3), st.integers(1, 3000)),
            min_size=1,
            max_size=4,
        ),
        st.floats(-16.0, 0.5),
        st.booleans(),
        st.lists(
            st.tuples(
                st.integers(0, 3), st.sampled_from(["grid", "ulp above", "off"]), st.floats(0, 1)
            ),
            min_size=1,
            max_size=16,
        ),
    )
    def test_powers_reaching_matches_scan(self, row_specs, lr_exp, scalar_cap, targets):
        # |rows| from 1e-8 to 2000 and |lr| from 1e-16 to 3: a threshold
        # one ulp above a value on the grid can round the quotient up past
        # the last power, and for |rows| >> |lr| the log ratio is absorbed
        # in rounding for many powers
        rows = np.array([(-1.0) ** neg * 10.0**e for neg, e, _ in row_specs])
        caps = [c for *_, c in row_specs]
        cap = caps[0] if scalar_cap else np.array(caps)
        lr = -(10.0**lr_exp)
        for i, kind, frac in targets:
            # t from row i at a fraction of its cap; the merge passes numpy
            # scalars, a value or the next one up
            i %= rows.size
            x = frac * caps[i]
            t = rows[i] + (x if kind == "off" else np.float64(int(x))) * lr
            if kind == "ulp above":
                t = np.nextafter(t, np.inf)
            got = _powers_reaching(rows, lr, t, cap)
            want = [
                int(np.sum(r + np.arange(c) * lr >= t))
                for r, c in zip(rows, np.broadcast_to(cap, rows.shape))
            ]
            assert got.tolist() == want

    @pytest.mark.parametrize(
        "rows, lr",
        [
            # thresholds on the grid of powers: the quotient can round down
            # and leave the guess short by one
            (np.array([-0.7, -3.0, -12.25]), -0.1),
            (np.array([-1.0, -2.0]), -1.0 / 3.0),
            # |lr| absorbed in rounding for runs of powers: short by more
            (np.array([-1000.0, -1289.9, -2.0**40]), -1e-14),
        ],
    )
    def test_powers_reaching_climbs_past_a_short_guess(self, rows, lr):
        for i in range(rows.size):
            for p in range(0, 400, 7):
                t = rows[i] + np.float64(p) * lr
                for cap in (p + 1, p + 2, 5000):
                    got = _powers_reaching(rows, lr, t, cap)
                    want = [int(np.sum(r + np.arange(cap) * lr >= t)) for r in rows]
                    assert got.tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 30, 64])
    def test_rows_taking_counts_each_row_cap(self, n):
        # row r takes powers 1 .. floor((n - 1) / r) + 1; a run of rows
        # start + 1 .. end, counted one row at a time
        q = np.concatenate(([n], (n - 1) // np.arange(1, n + 1)))
        for start in range(n):
            for end in range(start + 1, n + 1):
                m = np.arange(q[start + 1] + 1)
                got = _rows_taking(q, start, end, m)
                want = [
                    sum((n - 1) // r + 1 >= p + 1 for r in range(start + 1, end + 1)) for p in m
                ]
                assert got.tolist() == want
                assert got.min() >= 1

    def test_powers_reaching_cap(self):
        # both rows reach t for more powers than the tie key's codes hold:
        # 0.5 by the quotient, -4e9 because |lr| is absorbed in rounding
        # for about 2.4e9 powers
        rows, t = np.array([0.5, -4e9]), np.float64(-4e9)
        got = _powers_reaching(rows, -1e-16, t, _KEY_SHIFT - 1)
        assert got.tolist() == [_KEY_SHIFT - 1] * 2

    def test_error_sequence_memory(self):
        shape = ShapeSequence.isotropic(1.0)
        error_sequence_all(shape, 50, 100)
        tracemalloc.start()
        try:
            error_sequence_all(shape, 50, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 7.6 MB (the heap took 26.6 MB)
        assert peak < 16e6


class TestUnderflowedRatio:
    # gamma = 1e-200: the ratio gamma^2-ish underflows to 0, so every power
    # above 1 on that coordinate is a zero eigenvalue (log value -inf)
    SHAPE = ShapeSequence.explicit([1.0, 1e-200])

    def test_top_n(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = top_n_tensor_eigenvalues(self.SHAPE, 2, 4)
            tail = top_n_tensor_eigenvalues(ShapeSequence.explicit([1e-200]), 1, 3)
        assert [i.dense() for i in top.indices] == [(1, 1), (2, 1), (3, 1), (4, 1)]
        assert np.isfinite(top.log_values).all()
        assert tail.log_values[0] == 0.0
        assert np.isneginf(tail.log_values[1:]).all()
        assert [i.dense() for i in tail.indices] == [(1,), (2,), (3,)]

    # every ratio underflowed, past the exhaustive box (d <= 4): the
    # leading eigenvalue, then zeros in ascending (position, j) order
    ALL_ZERO_D8 = [
        "1;1;1;1;1;1;1;1", "2;1;1;1;1;1;1;1", "2;2;1;1;1;1;1;1",
        "2;2;2;1;1;1;1;1", "2;2;2;2;1;1;1;1", "2;2;2;2;2;1;1;1",
        "2;2;2;2;2;2;1;1", "2;2;2;2;2;2;2;1", "2;2;2;2;2;2;2;2",
        "2;2;2;2;2;2;2;3", "2;2;2;2;2;2;2;4", "2;2;2;2;2;2;2;5",
        "2;2;2;2;2;2;2;6", "2;2;2;2;2;2;2;7", "2;2;2;2;2;2;2;8",
        "2;2;2;2;2;2;2;9", "2;2;2;2;2;2;2;10", "2;2;2;2;2;2;2;11",
        "2;2;2;2;2;2;2;12", "2;2;2;2;2;2;2;13", "2;2;2;2;2;2;2;14",
        "2;2;2;2;2;2;2;15", "2;2;2;2;2;2;2;16", "2;2;2;2;2;2;2;17",
        "2;2;2;2;2;2;2;18", "2;2;2;2;2;2;2;19", "2;2;2;2;2;2;2;20",
        "2;2;2;2;2;2;2;21", "2;2;2;2;2;2;2;22", "2;2;2;2;2;2;2;23",
    ]
    # d = 50: the rows at ranks 1, 2, 50, 51 and 57
    ALL_ZERO_D50 = {
        1: ";".join(["1"] * 50),
        2: ";".join(["2"] + ["1"] * 49),
        50: ";".join(["2"] * 49 + ["1"]),
        51: ";".join(["2"] * 50),
        57: ";".join(["2"] * 49 + ["8"]),
    }

    @pytest.mark.parametrize("d, n", [(8, 30)] + [(50, n) for n in (1, 2, 50, 51, 57)])
    def test_all_underflow_beyond_exhaustive_box(self, d, n):
        shape = ShapeSequence.explicit([1e-200] * d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = top_n_tensor_eigenvalues(shape, d, n)
        rows = [";".join(map(str, i.dense())) for i in top.indices]
        want = dict(enumerate(self.ALL_ZERO_D8, 1)) if d == 8 else self.ALL_ZERO_D50
        want = {rank: row for rank, row in want.items() if rank <= n}
        assert {rank: rows[rank - 1] for rank in want} == want
        assert len(rows) == n
        assert top.log_values[0] == tensor_log_eigenvalue(shape, d, [1] * d)
        assert np.isneginf(top.log_values[1:]).all()

    def test_error_sequence(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = error_sequence_all(self.SHAPE, 2, 10).values
        one = error_sequence_all(ShapeSequence.isotropic(1.0), 1, 10).values
        assert seq.tolist() == one.tolist()

    def test_info_complexity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grkhs.info_complexity(self.SHAPE, 2, 0.1, "absolute") == 5
            assert grkhs.info_complexity(self.SHAPE, 2, 0.1, "normalized") == 5


class TestStream:
    def test_limit_is_required(self):
        with pytest.raises(TypeError):
            stream_tensor_eigenvalues(ShapeSequence.isotropic(1.0), 3)

    def test_negative_limit(self):
        # it used to raise "enumeration exceeded limit of -1"
        stream = stream_tensor_eigenvalues(ShapeSequence.isotropic(1.0), 2, -1)
        with pytest.raises(ValueError, match="need limit >= 0, got -1"):
            next(stream)

    def test_limit(self, monkeypatch):
        # the stream ends after its limit
        shape = ShapeSequence.isotropic(1.0)
        assert len(list(stream_tensor_eigenvalues(shape, 2, limit=5))) == 5
        assert list(stream_tensor_eigenvalues(shape, 2, limit=0)) == []
        with pytest.raises(ValueError, match="need dimension >= 1, got 0"):
            next(stream_tensor_eigenvalues(shape, 0, limit=0))
        monkeypatch.setenv("GRKHS_MAX_EIGS", "10")
        with pytest.raises(ResourceLimitError):
            next(stream_tensor_eigenvalues(shape, 2, limit=11))


ISO = ShapeSequence.isotropic(1.0)


class TestSizeGate:
    """One rule for the size of every enumeration request."""

    # (entry point at iso:1.0, d = 2; its size's name; a size k reads k + extra eigenvalues)
    ENTRY_POINTS = [
        (lambda k: list(stream_tensor_eigenvalues(ISO, 2, limit=k)), "limit", 0),
        (lambda k: top_n_tensor_eigenvalues(ISO, 2, k), "n", 0),
        (lambda k: error_sequence_all(ISO, 2, k), "N", 1),
        (lambda k: grkhs.minimal_error_all(ISO, 2, k), "n", 1),
    ]
    IDS = ["stream", "top_n", "error_sequence_all", "minimal_error_all"]

    @pytest.mark.parametrize("call, name, extra", ENTRY_POINTS, ids=IDS)
    @pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0)])
    def test_non_integer_size(self, call, name, extra, bad):
        message = f"{name} must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)

    @pytest.mark.parametrize("call, name, extra", ENTRY_POINTS, ids=IDS)
    def test_numpy_integer_size_bit_identical(self, call, name, extra):
        def flat(res):
            if isinstance(res, float):
                return res.hex()
            if isinstance(res, list):  # the stream's items
                return [(v.hex(), idx) for v, idx in res]
            if isinstance(res, grkhs.ErrorSequence):
                return res.values.tobytes()
            return res.log_values.tobytes(), res.indices

        assert flat(call(np.int64(7))) == flat(call(7))

    @pytest.mark.parametrize("call, name, extra", ENTRY_POINTS, ids=IDS)
    def test_guard_message(self, monkeypatch, call, name, extra):
        monkeypatch.setenv("GRKHS_MAX_EIGS", "10")
        call(10 - extra)
        with pytest.raises(ResourceLimitError) as trip:
            call(11 - extra)
        assert str(trip.value) == "requested 11 eigenvalues, guard is 10"

    def test_guard_before_dimension_check(self, monkeypatch):
        # no work, not even the shape, before the size is checked
        monkeypatch.setenv("GRKHS_MAX_EIGS", "10")
        with pytest.raises(ResourceLimitError):
            grkhs.minimal_error_all(ISO, 0, 10)


@pytest.mark.parametrize("shape, d", CHECK05_CASES)
def test_check05_search_matches_loop(shape, d):
    fast = _brute_force_top(shape, d, 100)
    loop = _brute_force_loop(shape, d, 100)
    assert [v for v, _ in fast] == [v for v, _ in loop]
    assert [idx for _, idx in fast] == [idx for _, idx in loop]
