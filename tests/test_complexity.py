import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grkhs import (
    ErrorSequence,
    ShapeSequence,
    decay_rate_r,
    error_sequence_all,
    estimate_rate,
    info_complexity,
    info_complexity_row,
    minimal_error_all,
    quasipoly_exponent,
    tractability_probe,
)
from grkhs.complexity import (
    _complexity_rows,
    _count_below_budget,
    _error_values,
    _half_sums,
    _pairs_below,
)
from grkhs.errors import ResourceLimitError
from grkhs.kernel import _log_spectra, _log_spectrum, eigenvalue_ratio


def _reference_count(costs, budget):
    """Lattice count by recursion over the cost groups, one call per
    counted point: the reference for the meet-in-the-middle count."""
    groups = []  # (cost, multiplicity), descending cost
    for c in sorted(costs, reverse=True):
        if groups and abs(groups[-1][0] - c) < 1e-14 * c:
            groups[-1][1] += 1
        else:
            groups.append([c, 1])

    def rec(i, budget):
        if i == len(groups):
            return 1
        c, g = groups[i]
        total = 0
        s = 0
        while s * c < budget - 1e-12:
            total += math.comb(s + g - 1, g - 1) * rec(i + 1, budget - s * c)
            s += 1
        return total

    return rec(0, budget)


def _reference_half_sums(groups, limit, guard, dtype):
    """Half-set enumeration shift by shift, unsorted: each shift s of a
    group adds s * c to the points shift s - 1 kept and keeps those below
    the limit.  The reference for the ascending ``_half_sums``."""
    sums = np.zeros(1)
    weights = None if all(g == 1 for _, g in groups) else np.ones(1, dtype=dtype)
    for c, g in groups:
        parts, wparts, size = [], [], 0
        base, wbase = sums, weights
        s = 0
        while base.size:
            shifted = base + s * c
            keep = shifted < limit
            base, shifted = base[keep], shifted[keep]
            if size + shifted.size > guard:
                wsums = None if weights is None else np.concatenate(wparts)
                return np.concatenate(parts), wsums, False
            size += shifted.size
            parts.append(shifted)
            if weights is not None:
                wbase = wbase[keep]
                wparts.append(wbase * math.comb(s + g - 1, g - 1))
            s += 1
        sums = np.concatenate(parts)
        weights = None if weights is None else np.concatenate(wparts)
    return sums, weights, True


def _weighted_points(sums, weights):
    """The (sum, weight) pairs of a half as a sorted list: its multiset."""
    w = [1] * sums.size if weights is None else weights.tolist()
    return sorted(zip(sums.tolist(), w))


def _budget(shape, d, eps, criterion):
    offset, log_ratio = _log_spectrum(shape, d)
    budget = -2.0 * math.log(eps) + (offset if criterion == "absolute" else 0.0)
    return -log_ratio, budget


class TestDecayRate:
    def test_kinds(self):
        assert decay_rate_r(ShapeSequence.isotropic(1.0)).value == 0.0
        assert decay_rate_r(ShapeSequence.power_law(1.0, 2.5)).value == 2.5
        assert math.isinf(decay_rate_r(ShapeSequence.geometric(0.5)).value)

    def test_explicit_rejected(self):
        with pytest.raises(ValueError):
            decay_rate_r(ShapeSequence.explicit([1.0, 0.5]))


class TestErrorSequence:
    @pytest.mark.parametrize(
        "shape, d",
        [
            (ShapeSequence.power_law(1.0, 1.0), 2),
            # log ratios absorbed in rounding: runs of powers tie
            (ShapeSequence.isotropic(1e15), 3),
            # one ratio underflowed (log ratio -inf), one did not
            (ShapeSequence.explicit([1.0, 1e-200]), 2),
            # every ratio underflowed: the leading eigenvalue, then zeros
            (ShapeSequence.explicit([1e-200] * 3), 3),
        ],
    )
    def test_matches_minimal_error(self, shape, d):
        seq = error_sequence_all(shape, d, 20)
        for n in (0, 1, 5, 20):
            assert seq.values[n] == minimal_error_all(shape, d, n)

    def test_minimal_error_guard(self, monkeypatch):
        shape = ShapeSequence.isotropic(1.0)
        monkeypatch.setenv("GRKHS_MAX_EIGS", "10")
        with pytest.raises(ResourceLimitError):
            minimal_error_all(shape, 2, 10)
        assert minimal_error_all(shape, 2, 9) == error_sequence_all(shape, 2, 9).values[9]

    def test_nonincreasing(self):
        seq = error_sequence_all(ShapeSequence.isotropic(1.0), 3, 500)
        assert np.all(np.diff(seq.values) <= 1e-15)


class TestErrorValues:
    """The values route that decay, rates, spline-bench and checks 06, 07, 10 read."""

    @pytest.mark.parametrize(
        "shape, d, N",
        [
            # isotropic: exact ties at every coordinate
            (ShapeSequence.isotropic(1.0), 8, 2000),
            (ShapeSequence.isotropic(1.0), 50, 1000),
            (ShapeSequence.power_law(1.0, 2.0), 4, 1000),
            (ShapeSequence.power_law(1.0, 2.0), 16, 3000),
            (ShapeSequence.power_law(1.0, 0.5), 64, 2000),
            (ShapeSequence.geometric(0.9), 256, 1000),
            # log ratios absorbed in rounding: the merge's tie step
            (ShapeSequence.isotropic(1e15), 20, 500),
            # an underflowed ratio first, then finite ones
            (ShapeSequence.explicit([1e-200, 1.0, 0.5]), 3, 200),
            (ShapeSequence.explicit([1.0, 1e-200]), 2, 50),
            # every ratio underflowed
            (ShapeSequence.explicit([1e-200] * 3), 3, 40),
            (ShapeSequence.isotropic(1.0), 3, 0),
            (ShapeSequence.explicit([1e-200] * 2), 2, 0),
        ],
    )
    def test_bit_equal_to_error_sequence(self, shape, d, N):
        got = _error_values(shape, d, N)
        assert got.shape == (N + 1,)
        assert got.tobytes() == error_sequence_all(shape, d, N).values.tobytes()

    @pytest.mark.parametrize(
        "d, N",
        [(0, 5), (-1, 5), (2.0, 5), (np.float64(2), 5), (3, -1), (3, True), (3, False),
         (3, 2.5), (0, -1), (0, True), (True, 5), (5, 5)],
    )
    def test_raises_as_error_sequence(self, d, N):
        # (5, 5) asks the explicit shape for more entries than it has
        shape = ShapeSequence.explicit([1.0, 0.5, 0.25])
        with pytest.raises(ValueError) as want:
            error_sequence_all(shape, d, N)
        with pytest.raises(ValueError) as got:
            _error_values(shape, d, N)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_guard_as_error_sequence(self, monkeypatch):
        shape = ShapeSequence.isotropic(1.0)
        monkeypatch.setenv("GRKHS_MAX_EIGS", "100")
        message = "requested 101 eigenvalues, guard is 100"
        for route in (error_sequence_all, _error_values):
            with pytest.raises(ResourceLimitError, match=f"^{message}$"):
                route(shape, 3, 100)
            # the guard trips before the dimension is read
            with pytest.raises(ResourceLimitError, match=f"^{message}$"):
                route(shape, 0, 100)
        assert _error_values(shape, 3, 99).tobytes() == error_sequence_all(shape, 3, 99).values.tobytes()

    def test_minimal_error_names_n(self):
        shape = ShapeSequence.isotropic(1.0)
        with pytest.raises(ValueError, match=re.escape("need n >= 0, got -1")):
            minimal_error_all(shape, 2, -1)
        with pytest.raises(ValueError, match=re.escape("n must be an integer, got True")):
            minimal_error_all(shape, 2, True)
        with pytest.raises(ValueError, match=re.escape("need dimension >= 1, got 0")):
            minimal_error_all(shape, 0, 3)


class TestInfoComplexity:
    def test_frozen_point_value(self):
        assert info_complexity(ShapeSequence.isotropic(1.0), 1, 0.1, "absolute") == 5

    def test_matches_error_sequence(self):
        # n(eps, d) is the first n with e(n) <= eps (absolute criterion)
        shape = ShapeSequence.isotropic(1.0)
        seq = error_sequence_all(shape, 2, 2000).values
        for eps in (0.5, 0.3, 0.1, 0.05):
            n = info_complexity(shape, 2, eps, "absolute")
            assert seq[n] <= eps
            if n > 0:
                assert seq[n - 1] > eps

    def test_normalized_matches_error_sequence(self):
        shape = ShapeSequence.power_law(1.0, 1.0)
        seq = error_sequence_all(shape, 3, 5000).values
        init = seq[0]
        for eps in (0.5, 0.2, 0.1):
            n = info_complexity(shape, 3, eps, "normalized")
            assert seq[n] <= eps * init
            if n > 0:
                assert seq[n - 1] > eps * init

    def test_monotone_in_eps_and_d(self):
        shape = ShapeSequence.isotropic(1.0)
        assert info_complexity(shape, 2, 0.1, "normalized") >= info_complexity(
            shape, 2, 0.3, "normalized"
        )
        assert info_complexity(shape, 4, 0.2, "normalized") >= info_complexity(
            shape, 2, 0.2, "normalized"
        )

    def test_validation(self):
        shape = ShapeSequence.isotropic(1.0)
        with pytest.raises(ValueError):
            info_complexity(shape, 1, 1.5, "absolute")
        with pytest.raises(ValueError):
            info_complexity(shape, 1, 0.1, "relative")

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        eps=st.floats(1e-3, 0.5),
        criterion=st.sampled_from(["absolute", "normalized"]),
    )
    def test_matches_reference_and_error_sequence(self, base, picks, eps, criterion):
        # repeated picks force equal costs, so the grouping is exercised
        gammas = [base[i % len(base)] for i in picks]
        shape, d = ShapeSequence.explicit(gammas), len(gammas)
        n = info_complexity(shape, d, eps, criterion)
        assert type(n) is int
        costs, budget = _budget(shape, d, eps, criterion)
        assert n == (_reference_count(costs, budget) if budget > 0 else 0)
        seq = error_sequence_all(shape, d, n).values
        threshold = eps * (1.0 if criterion == "absolute" else seq[0])
        assert seq[n] <= threshold
        if n > 0:
            assert seq[n - 1] > threshold

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_exact_isotropic_tie(self, k):
        # budget k * cost puts shell k on the threshold; the 1e-12 budget
        # tolerance leaves it out until the budget clears it by 1e-12
        d = 3
        cost = -_log_spectrum(ShapeSequence.isotropic(1.0), d)[1][0]
        shape = ShapeSequence.isotropic(1.0)
        for excess, shells in ((0.0, k), (5e-13, k), (2e-12, k + 1)):
            eps = math.exp(-(k * cost + excess) / 2.0)
            n = info_complexity(shape, d, eps, "normalized")
            assert n == math.comb(shells + d - 1, d)
            assert n == _reference_count(*_budget(shape, d, eps, "normalized"))

    def test_count_beyond_int64(self):
        shape = ShapeSequence.isotropic(1.0)
        n = info_complexity(shape, 1000, 0.01, "normalized")
        assert type(n) is int and n > 2**63
        assert n == 2882163562453289940826
        assert n == _reference_count(*_budget(shape, 1000, 0.01, "normalized"))

    def test_many_groups_matches_reference(self):
        shape = ShapeSequence.power_law(1.0, 0.5)
        for d, eps in ((8, 0.01), (16, 0.01), (8, 0.001)):
            costs, budget = _budget(shape, d, eps, "normalized")
            assert info_complexity(shape, d, eps, "normalized") == _reference_count(
                costs, budget
            )

    def test_guard_bounds_half_memory(self):
        # n = 1,905,078 from two half-sets of about 1e5 entries each; every
        # power-law coordinate has its own cost, so no half carries a weight
        # array (with int64 weights this cell peaked at 5.7 MB)
        shape = ShapeSequence.power_law(1.0, 0.5)
        tracemalloc.start()
        try:
            n = info_complexity(shape, 64, 0.001, "normalized")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 1905078
        assert peak < 4.5 * 2**20

    def test_guard_partial_is_lower_bound(self, monkeypatch):
        shape = ShapeSequence.power_law(1.0, 0.5)
        costs, budget = _budget(shape, 16, 0.001, "normalized")
        (exact,) = _count_below_budget(costs, [budget], 10**7)
        for guard in (1, 100, 3000):
            (trip,) = _count_below_budget(costs, [budget], guard)
            assert isinstance(trip, ResourceLimitError)
            assert type(trip.partial) is int
            assert 1 <= trip.partial <= exact
        monkeypatch.setenv("GRKHS_MAX_EIGS", "20000")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                info_complexity(shape, 64, 1e-4, "normalized")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1 <= info.value.partial <= 80826051
        assert peak < 4 * 2**20


class TestHalfSums:
    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(st.floats(0.25, 3.0), max_size=5, unique=True),
        limit=st.floats(0.1, 4.0),
        guard=st.sampled_from([1, 10, 100, 10**7]),
        dtype=st.sampled_from([np.int64, object]),
        data=st.data(),
    )
    def test_ascending_and_matches_reference(self, costs, limit, guard, dtype, data):
        groups = [(c, data.draw(st.integers(1, 3))) for c in costs]
        sums, weights, complete = _half_sums(groups, limit, guard, dtype)
        ref_sums, ref_weights, ref_complete = _reference_half_sums(
            groups, limit, guard, dtype
        )
        assert np.all(sums[1:] >= sums[:-1])
        assert complete == ref_complete
        assert (weights is None) == (ref_weights is None)
        if weights is not None:
            assert weights.dtype == np.dtype(dtype)
        assert _weighted_points(sums, weights) == _weighted_points(ref_sums, ref_weights)

    @settings(max_examples=200, deadline=None)
    @given(
        left=st.lists(st.tuples(st.integers(0, 20), st.integers(1, 4)), max_size=30),
        right=st.lists(st.tuples(st.integers(0, 20), st.integers(1, 4)), max_size=30),
        weighted=st.tuples(st.booleans(), st.booleans()),
        limit=st.floats(0.0, 6.0),
        dtype=st.sampled_from([np.int64, object]),
    )
    def test_pairs_below_matches_brute(self, left, right, weighted, limit, dtype):
        # sums on a grid of 0.3 tie within and across the halves
        halves = []
        for points, has_weights in zip((left, right), weighted):
            points = sorted((0.3 * k, w if has_weights else 1) for k, w in points)
            sums = np.array([x for x, _ in points], dtype=float)
            weights = np.array([w for _, w in points], dtype=dtype)
            halves.append((sums, weights if has_weights else None, points))
        (ls, lw, lpoints), (rs, rw, rpoints) = halves
        count = _pairs_below(ls, lw, rs, rw, limit, dtype)
        # every pair in turn, with the orientation of the count: the half
        # with fewer entries below the limit (the right one on a tie) is
        # the one compared with limit - other
        lpoints = [(x, w) for x, w in lpoints if x < limit]
        rpoints = [(x, w) for x, w in rpoints if x < limit]
        if len(rpoints) > len(lpoints):
            lpoints, rpoints = rpoints, lpoints
        brute = sum(wl * wr for x, wl in lpoints for y, wr in rpoints if y < limit - x)
        assert type(count) is int
        assert count == brute

    def test_weighted_trip_memory(self):
        # two pairs of equal gammas make groups of multiplicity 2 in the
        # first half, which carries int64 weights and trips at 84,785
        # entries; the unsorted enumeration peaked at 4.95 MiB here
        gammas = [l**-0.5 for l in range(1, 65)]
        gammas[1], gammas[3] = gammas[0], gammas[2]
        costs, budget = _budget(ShapeSequence.explicit(gammas), 64, 1e-4, "normalized")
        tracemalloc.start()
        try:
            (trip,) = _count_below_budget(costs, [budget], 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(trip, ResourceLimitError)
        assert trip.partial == 84785
        assert peak < 4 * 2**20


def _cell(shape, d, eps, criterion):
    """info_complexity, or the ResourceLimitError it raises."""
    try:
        return info_complexity(shape, d, eps, criterion)
    except ResourceLimitError as exc:
        return exc


class TestInfoComplexityRow:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        eps=st.lists(st.floats(1e-3, 0.99), min_size=1, max_size=5),
        dup=st.integers(0, 2),
        criterion=st.sampled_from(["absolute", "normalized"]),
        data=st.data(),
    )
    def test_matches_cells_and_reference(self, base, picks, eps, dup, criterion, data):
        # repeated picks force equal costs; eps near 1 under the absolute
        # criterion gives budgets <= 0; the list is unsorted with duplicates
        gammas = [base[i % len(base)] for i in picks]
        shape, d = ShapeSequence.explicit(gammas), len(gammas)
        eps_list = data.draw(st.permutations(eps + eps[:dup]))
        row = info_complexity_row(shape, d, eps_list, criterion)
        assert row == [info_complexity(shape, d, e, criterion) for e in eps_list]
        for e, n in zip(eps_list, row):
            assert type(n) is int
            costs, budget = _budget(shape, d, e, criterion)
            assert n == _reference_count(costs, budget)

    @settings(max_examples=200, deadline=None)
    @given(
        isotropic=st.booleans(),
        gamma=st.floats(0.5, 2.0),
        alpha=st.floats(0.0, 2.0),
        d=st.integers(1, 8),
        log_eps=st.lists(st.floats(-8.0, -0.01), min_size=1, max_size=4),
        criterion=st.sampled_from(["absolute", "normalized"]),
    )
    def test_counts_lie_in_lattice_bracket(self, isotropic, gamma, alpha, d, log_eps, criterion):
        # the counted points' unit cubes cover the simplex sum x_l c_l < B and
        # lie in sum x_l c_l < B + sum c_l, over the k costs c_l below the
        # limit B (the budget less 1e-12); a relative slack of 1e-9 on B
        # absorbs the rounding of the sums and of the bounds
        slack = 1e-9
        if isotropic:
            shape = ShapeSequence.isotropic(gamma)
        else:
            shape = ShapeSequence.power_law(gamma, alpha)
        eps_list = [10.0**e for e in log_eps]
        row = info_complexity_row(shape, d, eps_list, criterion)
        for eps, n in zip(eps_list, row):
            costs, budget = _budget(shape, d, eps, criterion)
            limit = budget - 1e-12
            if limit <= 0:  # an empty simplex: not even the origin counts
                assert n == 0
                continue
            below = costs[costs < limit].tolist()
            volume = math.factorial(len(below)) * math.prod(below)
            lower = (limit * (1 - slack)) ** len(below) / volume
            upper = (limit * (1 + slack) + math.fsum(below)) ** len(below) / volume
            assert lower <= n <= upper

    @pytest.mark.parametrize("guard", [None, 30])
    def test_budgets_at_or_below_zero_count_zero(self, monkeypatch, guard):
        # iso:3.0 at d = 2 has initial error 0.28, so eps 0.9 and 0.5 need no
        # data: their budgets are <= 0, and the count itself gives 0; guard 30
        # trips at eps = 0.001 and counts the rest again from the next halves
        if guard is not None:
            monkeypatch.setenv("GRKHS_MAX_EIGS", str(guard))
        shape = ShapeSequence.isotropic(3.0)
        eps_list = [0.9, 0.1, 0.01, 0.5, 0.001]
        budgets = [_budget(shape, 2, e, "absolute")[1] for e in eps_list]
        assert [b <= 0 for b in budgets] == [True, False, False, True, False]
        row = info_complexity_row(shape, 2, eps_list, "absolute")
        cells = [_cell(shape, 2, e, "absolute") for e in eps_list]
        assert [isinstance(n, ResourceLimitError) for n in row] == [
            False, False, False, False, guard is not None
        ]
        for n, c in zip(row, cells):
            if isinstance(c, ResourceLimitError):
                assert (n.partial, str(n)) == (c.partial, str(c))
            else:
                assert n == c
        assert row[0] == row[3] == 0 and row[1:3] == [28, 231]

    def test_count_is_zero_below_nonpositive_budgets(self):
        costs = -_log_spectrum(ShapeSequence.explicit([1.0, 0.5, 2.0]), 3)[1]
        budgets = [-1.0, 0.0, 1e-13, 6.0, -0.5]
        counts = _count_below_budget(costs, budgets, 10**7)
        assert counts == [0, 0, 0, _reference_count(costs, 6.0), 0]
        assert counts[3] > 0
        assert _count_below_budget(costs, [0.0, -2.0], 1) == [0, 0]

    @pytest.mark.parametrize("guard,d", [(300, 16), (1000, 16), (3000, 16), (300, 8)])
    def test_trips_match_cells(self, monkeypatch, guard, d):
        # at these guards some but not all cells of a row trip, and a trip
        # at the smallest eps is retried at the next one
        monkeypatch.setenv("GRKHS_MAX_EIGS", str(guard))
        shape = ShapeSequence.power_law(1.0, 0.5)
        eps_list = [0.01, 0.001, 0.05, 0.001, 0.003, 0.02]
        row = info_complexity_row(shape, d, eps_list, "normalized")
        cells = [_cell(shape, d, e, "normalized") for e in eps_list]
        trips = [isinstance(n, ResourceLimitError) for n in row]
        assert any(trips) and not all(trips)
        assert trips == [isinstance(c, ResourceLimitError) for c in cells]
        for n, c in zip(row, cells):
            if isinstance(c, ResourceLimitError):
                assert (n.partial, str(n)) == (c.partial, str(c))
            else:
                assert n == c
        report = tractability_probe(shape, eps_list, [d], "normalized")
        assert report.guard_hit
        partials = [c.partial if isinstance(c, ResourceLimitError) else c for c in cells]
        assert report.table == [(d, e, n) for e, n in zip(eps_list, partials)]

    def test_odd_number_of_groups_reaching_the_budget(self, monkeypatch):
        # geom:0.9 at d = 64 has 64 distinct costs, and an odd number of
        # them, 13, reach the budget of eps = 0.001, where guard 3000 trips
        shape = ShapeSequence.geometric(0.9)
        eps_list = [0.5, 0.003, 0.001]
        reaching = []
        for e in eps_list:
            costs, budget = _budget(shape, 64, e, "absolute")
            reaching.append(int(np.sum(costs >= budget - 1e-12)))
        assert reaching == [64, 23, 13]
        row = info_complexity_row(shape, 64, eps_list, "absolute")
        assert row == [info_complexity(shape, 64, e, "absolute") for e in eps_list]
        assert row == [0, 8187, 44843]
        monkeypatch.setenv("GRKHS_MAX_EIGS", "3000")
        tripped = info_complexity_row(shape, 64, eps_list, "absolute")
        assert [isinstance(n, ResourceLimitError) for n in tripped] == [False, False, True]
        assert tripped[:2] == row[:2]
        assert 1 <= tripped[2].partial <= row[2]

    def test_validates_every_eps_before_counting(self):
        shape = ShapeSequence.isotropic(1.0)
        for eps_list in ([0.1, 1.5], [0.0, 0.1], [0.1, 0.2, float("nan")]):
            with pytest.raises(ValueError, match="eps must lie in"):
                info_complexity_row(shape, 2, eps_list, "absolute")
        with pytest.raises(ValueError, match="criterion"):
            info_complexity_row(shape, 2, [0.1, 0.2], "relative")


def test_quasipoly_exponent():
    assert quasipoly_exponent(1.0) == pytest.approx(2.0780867, abs=1e-6)
    # omega underflows to 0: the limit of 2 / log(1 / omega)
    assert quasipoly_exponent(1e-300) == 0.0


class TestEstimateRate:
    def test_recovers_power_law(self):
        n = np.arange(0, 1001, dtype=float)
        vals = np.ones(1001)
        vals[1:] = n[1:] ** -1.5
        fit = estimate_rate(ErrorSequence(vals), (10, 1000))
        assert fit.rate == pytest.approx(1.5, abs=1e-10)
        assert not fit.superpolynomial and not fit.degenerate

    def test_flags_superpolynomial(self):
        n = np.arange(0, 501, dtype=float)
        vals = np.ones(501)
        vals[1:] = np.exp(-0.05 * n[1:])
        fit = estimate_rate(ErrorSequence(vals), (10, 500))
        assert fit.superpolynomial

    def test_degenerate_window(self):
        fit = estimate_rate(ErrorSequence(np.full(100, 0.5)), (10, 90))
        assert fit.degenerate and fit.rate == 0.0

    @pytest.mark.parametrize("window", [(2, 10, 99), (2,), ()])
    def test_window_needs_two_bounds(self, window):
        # a third bound is not dropped: (2, 10, 99) is not the (2, 10) fit
        seq = ErrorSequence(np.linspace(1.0, 0.1, 50))
        message = f"window must be two bounds (lo, hi), got {window!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_rate(seq, window)

    def test_window_validation(self):
        seq = ErrorSequence(np.linspace(1.0, 0.1, 50))
        message = "window (10, 60) not inside sequence of length 50"
        for window in [(10, 60), [10, 60]]:
            with pytest.raises(ValueError, match=re.escape(message)):
                estimate_rate(seq, window)
        with pytest.raises(ValueError):
            estimate_rate(seq, (0, 40))
        with pytest.raises(ValueError, match="rate fit needs strictly positive errors"):
            estimate_rate(ErrorSequence(np.array([1.0, 0.5, 0.0, 0.0])), (1, 3))

    @pytest.mark.parametrize("window", [(10.5, 40), (10, 39.9), (True, 40), (10.0, 40)])
    def test_window_bounds_must_be_integers(self, window):
        seq = ErrorSequence(np.linspace(1.0, 0.1, 50))
        with pytest.raises(ValueError, match="window bound must be an integer"):
            estimate_rate(seq, window)


def _reference_log_spectrum(shape, d):
    """(base, log_ratio) from the first d gammas alone, as _log_spectrum gave them."""
    g = shape.gammas(d)
    zero = g == 0.0
    ratios = np.zeros(d)
    ratios[~zero] = [eigenvalue_ratio(x) for x in g[~zero]]
    with np.errstate(divide="ignore"):
        log_ratio = np.log(ratios)
    return float(np.sum(np.log1p(-ratios))), log_ratio


class TestSharedLogSpectrum:
    @pytest.mark.parametrize(
        "shape, ds",
        [
            # check 08's probe and the benchmark's complexity cells
            (ShapeSequence.isotropic(1.0), list(range(1, 17))),
            (ShapeSequence.power_law(1.0, 0.5), [8, 16, 24]),
            (ShapeSequence.geometric(0.9), [8, 64, 256]),
            (ShapeSequence.explicit(np.sort(np.random.default_rng(5).uniform(0.3, 1.0, 8))[::-1]),
             list(range(1, 9))),
            # gammas that underflow to 0 past d = 1074
            (ShapeSequence.geometric(0.5), [2, 1100, 1074, 1075]),
        ],
    )
    def test_prefixes_are_bit_equal_per_d(self, shape, ds):
        for d, (base, log_ratio) in zip(ds, _log_spectra(shape, ds)):
            for ref_base, ref_log_ratio in (_reference_log_spectrum(shape, d), _log_spectrum(shape, d)):
                assert base.hex() == ref_base.hex()
                assert log_ratio.tobytes() == ref_log_ratio.tobytes()

    def test_probe_and_rows_read_one_spectrum(self, monkeypatch):
        calls = []
        gammas = ShapeSequence.gammas

        def counted(self, d):
            calls.append(d)
            return gammas(self, d)

        monkeypatch.setattr(ShapeSequence, "gammas", counted)
        shape = ShapeSequence.isotropic(1.0)
        eps, ds = [2.0**-j for j in range(1, 8)], list(range(1, 17))
        report = tractability_probe(shape, eps, ds, "absolute")
        assert calls == [16]
        monkeypatch.setattr(ShapeSequence, "gammas", gammas)
        cells = [(d, e, info_complexity(shape, d, e, "absolute")) for d in ds for e in eps]
        assert report.table == cells

    def test_explicit_shape_too_short_for_the_largest_d(self):
        shape = ShapeSequence.explicit([1.0, 0.5, 0.25])
        message = "explicit shape has 3 entries, asked for d=5"
        with pytest.raises(ValueError, match=message):
            tractability_probe(shape, [0.1], [2, 5, 3], "absolute")
        with pytest.raises(ValueError, match=message):
            list(_complexity_rows(shape, [2, 5], [0.1], "normalized"))


class TestTractabilityProbe:
    def test_empty_grid(self):
        with pytest.raises(ValueError, match="grids must be nonempty"):
            tractability_probe(ShapeSequence.isotropic(1.0), [], [1], "absolute")

    @pytest.mark.parametrize("bad", [2.5, 3.9, True, 0])
    def test_validates_every_d_before_counting(self, monkeypatch, bad):
        def no_count(*args):
            raise AssertionError("counted before the d grid was checked")

        monkeypatch.setattr("grkhs.complexity._count_below_budget", no_count)
        message = "dimension must be an integer" if bad != 0 else "need dimension >= 1"
        with pytest.raises(ValueError, match=message):
            tractability_probe(ShapeSequence.isotropic(1.0), [0.1], [1, bad], "absolute")

    def test_one_cell_has_no_fit(self):
        # one envelope point fits no line: NaN exponents, inconclusive
        report = tractability_probe(ShapeSequence.isotropic(1.0), [0.1], [1], "absolute")
        assert report.table == [(1, 0.1, 5)]
        assert math.isnan(report.p_hat) and math.isnan(report.q_hat)
        assert report.envelope_residual == math.inf
        assert report.classification == "inconclusive"
        assert report.t_hat == pytest.approx(math.log(5) / (1.0 + math.log(10.0)))
    def test_isotropic_absolute_strong_poly(self):
        report = tractability_probe(
            ShapeSequence.isotropic(1.0),
            [2.0**-j for j in range(1, 8)],
            list(range(1, 17)),
            "absolute",
        )
        assert report.classification == "strong-poly"
        assert 1.7 <= report.p_hat <= 2.3
        assert abs(report.q_hat) <= 0.1
        assert not report.guard_hit

    def test_isotropic_normalized_not_poly(self):
        report = tractability_probe(
            ShapeSequence.isotropic(1.0),
            [2.0**-j for j in range(1, 7)],
            [1, 2, 4, 8, 16, 32],
            "normalized",
        )
        assert report.classification in ("quasi-poly-consistent", "inconclusive")
        assert report.t_hat <= 1.15 * quasipoly_exponent(1.0)

    def test_table_shape(self):
        report = tractability_probe(
            ShapeSequence.isotropic(1.0), [0.5, 0.25], [1, 2], "absolute"
        )
        assert len(report.table) == 4

    def test_guard_records_lower_bound(self, monkeypatch):
        shape = ShapeSequence.power_law(1.0, 0.5)
        args = (shape, [1e-2, 1e-3], [8, 16], "normalized")
        exact = tractability_probe(*args)
        monkeypatch.setenv("GRKHS_MAX_EIGS", "3000")
        report = tractability_probe(*args)
        assert report.guard_hit and report.classification == "inconclusive"
        assert not exact.guard_hit
        lower = [n for *_, n in report.table]
        true = [n for *_, n in exact.table]
        assert all(1 <= a <= b for a, b in zip(lower, true))
        assert lower != true
