"""Information complexity, decay rates and tractability diagnostics.

Everything here is about how the minimal errors behave jointly in the
number of data n, the tolerance eps and the dimension d: the shape-decay
rate r, the error sequence e(n), the information complexity n(eps, d),
empirical convergence-rate fits, and a grid probe that classifies the
observed growth of n(eps, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .kernel import ShapeSequence, _at_least, _log_spectrum, eigenvalue_ratio
from .spectrum import _merge_size, _top_log_values, max_enumeration, stream_tensor_eigenvalues

__all__ = [
    "DecayRate",
    "decay_rate_r",
    "ErrorSequence",
    "error_sequence_all",
    "info_complexity",
    "info_complexity_row",
    "quasipoly_exponent",
    "RateFit",
    "estimate_rate",
    "ComplexityReport",
    "tractability_probe",
]

# relative RMS residual below which the envelope fit counts as polynomial
POLY_FIT_THRESHOLD = 0.05
# |q| below which a polynomial fit counts as dimension-free
STRONG_POLY_Q = 0.1
# growth factor of t-hat between half and full d-grid tolerated as "bounded"
QUASI_STABLE_FACTOR = 1.3

SUPERPOLY_SLOPE = 5.0


@dataclass(frozen=True)
class DecayRate:
    """Decay rate of a shape sequence: sup{beta > 0 : sum gamma_l^(1/beta) finite}."""

    value: float
    kind: str


def decay_rate_r(shape: ShapeSequence) -> DecayRate:
    """Analytic decay rate of the closed-form shape kinds.

    Isotropic sequences have rate 0 (empty supremum), power laws with
    exponent alpha have rate alpha, geometric sequences have infinite
    rate.  Finite explicit lists carry no asymptotics and are rejected.
    """
    if shape.kind == "isotropic":
        return DecayRate(0.0, shape.kind)
    if shape.kind == "power-law":
        return DecayRate(shape.params["alpha"], shape.kind)
    if shape.kind == "geometric":
        return DecayRate(math.inf, shape.kind)
    raise ValueError("finite explicit shapes have no asymptotic decay rate")


@dataclass
class ErrorSequence:
    """Nonincreasing error values e(0), e(1), ..., e(N)."""

    values: np.ndarray

    def __len__(self):
        return self.values.size


def error_sequence_all(shape: ShapeSequence, d: int, N: int) -> ErrorSequence:
    """Exact minimal errors e(n), n = 0..N, for arbitrary-functional data.

    e(n) is the square root of the (n+1)-st largest tensor eigenvalue,
    read from one merge of N + 1 eigenvalues.  N is an integer >= 0, and
    N + 1 above the enumeration guard raises.
    """
    # benchmarks/test_benchmark.py::test_counts_repeat_exactly counts the
    # stream items of a direct call; once that pin lifts, this is
    # ErrorSequence(values=_error_values(shape, d, N)), the same bits
    stream = stream_tensor_eigenvalues(shape, d, limit=_merge_size("N", N, 0, extra=1))
    logs = np.array([logval for logval, _ in stream])
    return ErrorSequence(values=np.exp(0.5 * logs))


def _error_values(shape: ShapeSequence, d: int, N: int, name: str = "N") -> np.ndarray:
    """e(0), ..., e(N) from the values pass of the merge, with no multi-indices built.

    Bit for bit ``error_sequence_all(shape, d, N).values``, with its checks
    in its order: N, called ``name`` in the messages, an integer >= 0 whose
    N + 1 eigenvalues fit the enumeration guard, then the dimension.
    """
    k = _merge_size(name, N, 0, extra=1)
    d = _at_least("dimension", d, 1)
    return np.exp(0.5 * _top_log_values(*_log_spectrum(shape, d), k))


def _half_sums(groups, limit: float, guard: int, dtype):
    """Partial sums below ``limit`` of one half of the cost groups, ascending.

    Returns ``(sums, weights, complete)``: every lattice point of the
    half with sum k_l * costs_l < limit in ascending order of that sum,
    the number of full lattice vectors it stands for (a group of
    multiplicity g at excess s stands for binomial(s + g - 1, g - 1) of
    them) and whether the enumeration finished.  ``weights`` is None when
    every group of the half has multiplicity 1, so every point stands for
    one vector.  The half holds at most ``guard`` entries; when the next
    shift of a group would pass that, the points enumerated so far are
    returned, ascending, with ``complete`` False.  Each of them is a
    counted lattice point with the remaining coordinates at zero.
    """
    sums = np.zeros(1)
    weights = None if all(g == 1 for _, g in groups) else np.ones(1, dtype=dtype)
    for c, g in groups:
        runs, wruns, size, k, s = [sums], [weights], sums.size, sums.size, 1
        # adding s*c keeps the order under rounding and grows with s, so
        # the points below the limit at shift s are a prefix of those at s-1
        while True:
            shifted = sums[:k] + s * c
            # Python ints and ndarray methods: no numpy-scalar dispatch per step
            k = int(shifted.searchsorted(limit))
            if not k or size + k > guard:
                break
            runs.append(shifted[:k])
            if weights is not None:
                wruns.append(weights[:k] * math.comb(s + g - 1, g - 1))
            size, s = size + k, s + 1
        if s > 1:
            # a stable sort (timsort) merges the ascending runs
            sums = np.concatenate(runs)
            if weights is None:
                sums.sort(kind="stable")
            else:
                weights = np.concatenate(wruns)
                # freed before the sort, which then holds four arrays of the half
                runs = wruns = None
                order = sums.argsort(kind="stable")
                sums = sums[order]
                weights = weights[order]
        if k:
            return sums, weights, False
    return sums, weights, True


def _pairs_below(left, wleft, right, wright, limit: float, dtype) -> int:
    """Weighted number of pairs below ``limit``, one sum from each ascending half.

    Each half is first cut at the limit, since its entries at or above it
    pair with nothing, so the halves of a larger limit give the count of a
    smaller one.  The smaller half (the right one on a tie) is searched
    with the other: a pair counts when right < limit - left.  With unit
    weights the number of right entries below that is the searchsorted
    index itself, otherwise it indexes the cumulative weights.
    """
    nl, nr = int(left.searchsorted(limit)), int(right.searchsorted(limit))
    if nr > nl:
        left, wleft, nl, right, wright, nr = right, wright, nr, left, wleft, nl
    below = right[:nr].searchsorted(limit - left[:nl], side="left")
    if wright is not None:
        below = np.concatenate((np.zeros(1, dtype=dtype), wright[:nr].cumsum()))[below]
    return int((below if wleft is None else wleft[:nl] * below).sum(dtype=dtype))


def _count_below_budget(costs: np.ndarray, budgets, guard: int) -> list:
    """Number of k >= 0 vectors with sum k_l * costs_l < budget, per budget.

    Coordinates with equal cost are grouped, and a whole group of size g
    at total excess s contributes binomial(s + g - 1, g - 1) vectors, so
    isotropic shapes are counted in closed form.  Group i of the list in
    descending cost goes to half i mod 2, whatever the budget, and groups
    whose cost reaches the largest budget only take s = 0 and drop out.
    Each half's partial sums below the largest budget are enumerated once,
    in ascending order, with their weights, and for every budget the pairs
    below it are counted by cutting both halves at it and searching the
    smaller with the other (meet in the middle; Horowitz and Sahni, JACM
    1974).  Sums within 1e-12 of a budget count as reaching it, so a
    budget <= 0 counts 0: its limit is negative, and both halves (at least
    [0.]) are cut empty there.  Each result is an exact int at any size.

    Every budget gets the count a list of that budget alone would get: its
    halves hold the same groups, and a group that it drops comes first in
    its half, so at s = 0 it leaves the other sums bit-equal, and at s >= 1
    it gives sums at or above that budget, which pair with nothing.

    The guard bounds the number of entries each half may hold, i.e. the
    memory of the count, not the returned count.  When it trips at the
    largest budget, that budget's entry is the ``ResourceLimitError`` a
    list of it alone raises, whose ``partial`` is the count over the
    entries enumerated so far, a certified lower bound; the smaller
    budgets are then counted again from halves built for the next largest.
    """
    groups = []  # (cost, multiplicity), descending cost
    # an infinite cost always reaches the budget; skipping it keeps inf - inf
    # out of the grouping.  Python floats: the same IEEE arithmetic here and
    # in the shift loop, without numpy-scalar dispatch
    for c in sorted(costs[np.isfinite(costs)].tolist(), reverse=True):
        if groups and abs(groups[-1][0] - c) < 1e-14 * c:
            groups[-1][1] += 1
        else:
            groups.append([c, 1])
    limits = [b - 1e-12 for b in budgets]
    results = {}
    for limit in sorted(set(limits), reverse=True):
        counts = _count_from_halves(groups, limit, set(limits) - results.keys(), guard)
        if isinstance(counts, ResourceLimitError):
            results[limit] = counts
            continue
        results.update(counts)
        break
    return [results[limit] for limit in limits]


def _count_from_halves(groups, largest: float, limits, guard: int):
    """Counts below every limit of ``limits`` from the halves built for ``largest``.

    Returns ``{limit: count}``, or the ``ResourceLimitError`` of ``largest``
    when its halves trip the guard.  The halves leave out the groups that
    reach ``largest``.  Both are ascending, so each limit only cuts them,
    with no sort per limit.  The halves are freed on return, so a retry
    never holds two pairs of them.
    """
    halves = [[(c, g) for c, g in groups[i::2] if c < largest] for i in (0, 1)]
    kept = halves[0] + halves[1]
    # top bounds the weight of one lattice point, so the half totals and
    # the pair count stay below top * guard**2; past int64, Python ints
    top = math.prod(math.comb(int(largest / c) + g - 1, g - 1) for c, g in kept)
    dtype = np.int64 if top * guard * guard < 2**63 else object
    left, wleft, complete = _half_sums(halves[0], largest, guard, dtype)
    right, wright = np.zeros(1), None
    if complete:
        right, wright, complete = _half_sums(halves[1], largest, guard, dtype)
    if not complete:
        count = _pairs_below(left, wleft, right, wright, largest, dtype)
        return ResourceLimitError(
            f"complexity count exceeded half-set guard of {guard} entries; "
            f"n >= {count}",
            partial=count,
        )
    return {limit: _pairs_below(left, wleft, right, wright, limit, dtype) for limit in limits}


def info_complexity_row(
    shape: ShapeSequence, d: int, eps_list, criterion: str
) -> list:
    """n(eps, d) for every eps of ``eps_list`` at one d, from one pair of half-sets.

    Entry i is what ``info_complexity(shape, d, eps_list[i], criterion)``
    returns, or the ``ResourceLimitError`` it raises when its count trips
    the guard, so callers choose whether a trip stops them.  The half-sets
    are built once, for the smallest eps (the largest budget), and serve
    every eps of the list; the guard applies to those half-sets, and when
    it trips there the larger eps are counted again from half-sets built
    for the next smallest.  The list may be unsorted and hold duplicates.
    Every eps and the criterion are validated before any counting.
    """
    eps_list = list(eps_list)
    for eps in eps_list:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if criterion not in ("absolute", "normalized"):
        raise ValueError(f"criterion must be absolute or normalized, got {criterion!r}")
    offset, log_ratio = _log_spectrum(shape, d)
    # count log lambda = offset + sum k_l log_ratio_l > 2 log(eps * CRI)
    budgets = [-2.0 * math.log(eps) for eps in eps_list]
    if criterion == "absolute":
        # CRI = 1, threshold 2 log eps; offset moves to budget
        budgets = [b + offset for b in budgets]
    return _count_below_budget(-log_ratio, budgets, max_enumeration())


def info_complexity(shape: ShapeSequence, d: int, eps: float, criterion: str) -> int:
    """Minimal number of linear functionals for an eps approximation.

    Smallest n with e(n) <= eps * CRI, where CRI is 1 for the absolute
    criterion and the initial error for the normalized one.  Computed as
    the exact count of tensor eigenvalues above the squared threshold,
    which equals the index at which the streamed enumeration would cross
    it.  The count is a meet-in-the-middle over two halves of the
    coordinates; the guard ``max_enumeration()`` bounds the entries each
    half may hold (its memory), not n.  When it trips,
    ``ResourceLimitError.partial`` is a certified lower bound on n.  This
    is the one-eps case of :func:`info_complexity_row`.
    """
    (n,) = info_complexity_row(shape, d, [eps], criterion)
    if isinstance(n, ResourceLimitError):
        raise n
    return n


def quasipoly_exponent(gamma: float) -> float:
    """Quasi-polynomial tractability exponent 2 / log(1 / omega) for isotropic shapes.

    Where omega underflows to 0 (gamma below about 1.6e-162) this is the limit, 0.
    """
    omega = eigenvalue_ratio(gamma)
    return 2.0 / -math.log(omega) if omega > 0 else 0.0


@dataclass(frozen=True)
class RateFit:
    """Least-squares log-log convergence rate over an index window."""

    rate: float
    superpolynomial: bool
    degenerate: bool


def estimate_rate(seq: ErrorSequence, window) -> RateFit:
    """Fit -log e(n) against log n by ordinary least squares over a window.

    ``window`` is an inclusive (lo, hi) index range of integers with
    1 <= lo < hi < len(seq); a window of other than two bounds, a bound
    that is not an integer and a window outside that range raise
    ``ValueError``.  Superpolynomial decay (the log-log points curve away
    from any line) is flagged when either the fitted slope exceeds 5 or
    the second-half slope exceeds 1.5 times the first-half slope.  A constant window is
    flagged degenerate with rate 0.
    """
    if len(window) != 2:
        raise ValueError(f"window must be two bounds (lo, hi), got {window!r}")
    lo, hi = (_at_least("window bound", w, 1) for w in window)
    if not lo < hi < len(seq):
        raise ValueError(f"window ({lo}, {hi}) not inside sequence of length {len(seq)}")
    e = seq.values[lo : hi + 1]
    if np.any(e <= 0):
        raise ValueError("rate fit needs strictly positive errors")
    n = np.arange(lo, hi + 1)
    if np.allclose(e, e[0], rtol=1e-15, atol=0.0):
        return RateFit(rate=0.0, superpolynomial=False, degenerate=True)

    def slope(nn, ee):
        x = np.log(nn)
        return float(_ols(np.column_stack([np.ones_like(x), x]), -np.log(ee))[1])

    full = slope(n, e)
    half = (lo + hi) // 2
    first = slope(n[n <= half], e[n <= half]) if np.sum(n <= half) >= 2 else full
    second = slope(n[n > half], e[n > half]) if np.sum(n > half) >= 2 else full
    superpoly = full > SUPERPOLY_SLOPE or (first > 0 and second > 1.5 * first)
    return RateFit(rate=full, superpolynomial=superpoly, degenerate=False)


@dataclass
class ComplexityReport:
    """Result of a tractability grid probe."""

    criterion: str
    table: list  # rows (d, eps, n)
    p_hat: float
    q_hat: float
    envelope_residual: float
    t_hat: float
    classification: str
    guard_hit: bool = False


def _ols(X, y):
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return coef


def tractability_probe(
    shape: ShapeSequence, eps_grid, d_grid, criterion: str
) -> ComplexityReport:
    """Fill the n(eps, d) table over a grid and classify its growth.

    n(eps, d) is the exact count of :func:`info_complexity`, i.e. for data
    from arbitrary linear functionals, filled one row per d by
    :func:`info_complexity_row`.

    The exponent p of eps^(-1) is fitted on the per-eps envelope
    max_d n(eps, d), which is the quantity the tractability bounds
    constrain; q is the ln d coefficient of the joint least-squares fit
    over all nontrivial cells.  Classification:

    - envelope fit residual <= 0.05 and |q| <= 0.1 -> strong-poly
    - envelope fit residual <= 0.05 otherwise     -> poly
    - t-hat = max ln n / ((1 + ln d)(1 + ln eps^-1)) stable between the
      lower-half and full d grid                   -> quasi-poly-consistent
    - otherwise                                    -> inconclusive

    Cells whose count trips the half-set guard are recorded as the
    certified lower bound the count reports and degrade the
    classification to inconclusive.  Every d must be an integer >= 1;
    the whole grid is checked before any counting.
    """
    eps_grid = [float(e) for e in eps_grid]
    d_grid = [_at_least("dimension", d, 1) for d in d_grid]
    if not eps_grid or not d_grid:
        raise ValueError("grids must be nonempty")
    table = []
    guard_hit = False
    for d in d_grid:
        row = info_complexity_row(shape, d, eps_grid, criterion)
        for eps, n in zip(eps_grid, row):
            if isinstance(n, ResourceLimitError):
                n = n.partial
                guard_hit = True
            table.append((d, eps, n))

    def t_hat_over(ds):
        vals = [
            math.log(n) / ((1.0 + math.log(d)) * (1.0 + math.log(1.0 / eps)))
            for d, eps, n in table
            if n >= 1 and d in ds
        ]
        return max(vals) if vals else 0.0

    envelope = {}
    for d, eps, n in table:
        envelope[eps] = max(envelope.get(eps, 0), n)
    env_pts = [(math.log(1.0 / e), math.log(n)) for e, n in envelope.items() if n >= 1]
    cells = [
        (math.log(1.0 / eps), math.log(d), math.log(n))
        for d, eps, n in table
        if n >= 1
    ]
    if len(env_pts) >= 2 and len(cells) >= 3:
        Xe = np.array([[1.0, x] for x, _ in env_pts])
        ye = np.array([y for _, y in env_pts])
        ce = _ols(Xe, ye)
        p_hat = float(ce[1])
        resid = Xe @ ce - ye
        scale = max(1e-12, float(np.sqrt(np.mean(ye**2))))
        env_res = float(np.sqrt(np.mean(resid**2))) / scale
        Xj = np.array([[1.0, le, ld] for le, ld, _ in cells])
        yj = np.array([ln for *_, ln in cells])
        q_hat = float(_ols(Xj, yj)[2])
    else:
        p_hat, q_hat, env_res = math.nan, math.nan, math.inf

    d_sorted = sorted(set(d_grid))
    half = set(d_sorted[: max(1, len(d_sorted) // 2)])
    t_half = t_hat_over(half)
    t_full = t_hat_over(set(d_sorted))

    if guard_hit or math.isnan(p_hat):
        classification = "inconclusive"
    elif env_res <= POLY_FIT_THRESHOLD and abs(q_hat) <= STRONG_POLY_Q:
        classification = "strong-poly"
    elif env_res <= POLY_FIT_THRESHOLD:
        classification = "poly"
    elif t_half > 0 and t_full <= QUASI_STABLE_FACTOR * t_half:
        classification = "quasi-poly-consistent"
    else:
        classification = "inconclusive"

    return ComplexityReport(
        criterion=criterion,
        table=table,
        p_hat=p_hat,
        q_hat=q_hat,
        envelope_residual=env_res,
        t_hat=t_full,
        classification=classification,
        guard_hit=guard_hit,
    )
