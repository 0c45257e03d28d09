"""Closed-form spectrum of the Gaussian-kernel integral operator.

Univariate eigenvalues are geometric, lambda_j = (1 - omega) omega^(j-1)
with ratio omega depending only on the shape parameter, and the
eigenfunctions are scaled Hermite functions.  The d-variate operator is the
tensor product, so its spectrum consists of products of univariate
eigenvalues indexed by multi-indices; :func:`top_n_tensor_eigenvalues`
finds the largest ones with a merge over the coordinates (selection in
X + Y, Frederickson and Johnson, JCSS 1982): a pass over the values alone
finds the n-th largest, then the indexed pass keeps the partial log-sums
that reach it.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationOverflowError, ResourceLimitError
from .kernel import ShapeSequence, _at_least, _log_spectrum, eigenvalue_ratio

__all__ = [
    "UnivariateSpectrum",
    "univariate_spectrum",
    "mercer_check",
    "MultiIndex",
    "TensorEigenList",
    "top_n_tensor_eigenvalues",
    "stream_tensor_eigenvalues",
    "tensor_log_eigenvalue",
    "max_enumeration",
]

DEFAULT_MAX_EIGS = 10_000_000

# largest |x| for which exp(x^2 / 2) stays finite in double precision
_X_OVERFLOW = 37.6


def max_enumeration() -> int:
    """Enumeration guard, overridable through the GRKHS_MAX_EIGS variable."""
    raw = os.environ.get("GRKHS_MAX_EIGS")
    if raw is None:
        return DEFAULT_MAX_EIGS
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"GRKHS_MAX_EIGS must be an integer, got {raw!r}") from exc
    if val < 1:
        raise ValueError(f"GRKHS_MAX_EIGS must be >= 1, got {val}")
    return val


def _merge_size(name: str, n, least: int, extra: int = 0) -> int:
    """The n + ``extra`` eigenvalues a request of size n reads, checked before any work.

    ``ValueError`` unless n is an integer >= ``least``, and
    :class:`ResourceLimitError` when n + ``extra`` passes :func:`max_enumeration`.
    """
    k = _at_least(name, n, least) + extra
    guard = max_enumeration()
    if k > guard:
        raise ResourceLimitError(f"requested {k} eigenvalues, guard is {guard}")
    return k


@dataclass(frozen=True)
class UnivariateSpectrum:
    """Eigenvalue law of the univariate kernel operator for one shape parameter.

    Attributes
    ----------
    gamma : float
        Shape parameter.
    omega : float
        Eigenvalue ratio in (0, 1); lambda_j = (1 - omega) omega^(j-1).
    beta : float
        Argument scale of the eigenfunctions, (1 + 4 gamma^2)^(1/4).
    """

    gamma: float
    omega: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        # eigenvalue_ratio validates gamma, before gamma^2 can overflow below
        object.__setattr__(self, "omega", eigenvalue_ratio(self.gamma))
        s = np.sqrt(1.0 + 4.0 * self.gamma**2)
        object.__setattr__(self, "beta", float(s**0.5))

    def eigenvalue(self, j):
        """lambda_j = (1 - omega) omega^(j-1), vectorized over integer j >= 1."""
        j = np.asarray(j)
        if j.dtype.kind not in "iu":
            raise ValueError(f"eigenvalue index must be an integer array, got dtype {j.dtype}")
        if np.any(j < 1):
            raise ValueError("eigenvalue index must be >= 1")
        return (1.0 - self.omega) * self.omega ** (j - 1)

    def eigenfunctions(self, J: int, x) -> np.ndarray:
        """Rows phi_1 .. phi_J of the orthonormal eigenfunctions at x.

        x is a scalar or an array, and the result has shape (J,) + shape(x).
        With delta^2 = (beta^2 - 1) / 2,

            phi_j(x) = sqrt(beta / (2^(j-1) (j-1)!)) e^(-delta^2 x^2) H_{j-1}(beta x),

        computed through the bounded Hermite-function recurrence as

            phi_j(x) = sqrt(beta) pi^(1/4) psi_{j-1}(beta x) e^(x^2 / 2),

        which is stable for any index; only the final e^(x^2/2) envelope can
        overflow, at |x| > 37.6.
        """
        J = _at_least("J", J, 1)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(np.abs(x) > _X_OVERFLOW):
            raise EvaluationOverflowError(
                f"eigenfunction envelope exp(x^2/2) overflows for |x| > {_X_OVERFLOW}"
            )
        u = self.beta * x
        psi = _hermite_rows(J, u, np.pi**-0.25 * np.exp(-0.5 * u * u))
        # in place, the same products in the same order as
        # sqrt(beta) * pi^(1/4) * psi * e^(x^2/2)
        psi *= np.sqrt(self.beta) * np.pi**0.25
        psi *= np.exp(0.5 * x * x)
        return psi


def _hermite_rows(J: int, u: np.ndarray, first) -> np.ndarray:
    """Rows h_0 .. h_{J-1} of the orthonormal Hermite recurrence at u, from h_0 = first.

    h_1 = sqrt(2) u h_0 and h_k = sqrt(2/k) u h_{k-1} - sqrt((k-1)/k) h_{k-2}.
    From h_0 = pi^(-1/4) e^(-u^2/2) these are the Hermite functions psi_k,
    bounded for any k; from h_0 = 1 they are the polynomials
    H_k(u) / sqrt(2^k k!), orthonormal for the weight pi^(-1/2) e^(-u^2).
    """
    rows = np.empty((J,) + u.shape)
    rows[0] = first
    if J > 1:
        rows[1] = np.sqrt(2.0) * u * rows[0]
    for k in range(2, J):
        rows[k] = np.sqrt(2.0 / k) * u * rows[k - 1] - np.sqrt((k - 1.0) / k) * rows[k - 2]
    return rows


def univariate_spectrum(gamma: float) -> UnivariateSpectrum:
    """Closed-form univariate spectrum for one shape parameter."""
    return UnivariateSpectrum(gamma=gamma)


def mercer_check(spec: UnivariateSpectrum, x: float, t: float, J: int) -> float:
    """Partial eigen-expansion sum_{j<=J} lambda_j phi_j(x) phi_j(t).

    Converges to the kernel value as J grows; used to validate the
    closed-form eigenpairs against direct kernel evaluation.
    """
    J = _at_least("J", J, 1)
    js = np.arange(1, J + 1)
    lam = spec.eigenvalue(js)
    px = spec.eigenfunctions(J, np.array([float(x)]))[:, 0]
    pt = spec.eigenfunctions(J, np.array([float(t)]))[:, 0]
    return float(np.sum(lam * px * pt))


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """Multi-index of eigenfunction numbers, stored sparsely.

    Only coordinates above 1 are kept, as (position, value) pairs with
    1-based positions, so indices stay small even for d in the hundreds.
    ``entries`` is the tuple ((position, value), ...) of the coordinates
    above 1, by position, stored as given.  An index is immutable, so it
    hashes the same for as long as it lives.
    """

    d: int
    entries: tuple = ()

    @classmethod
    def from_dense(cls, values) -> "MultiIndex":
        raw = tuple(values)
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in raw):
            raise ValueError(f"multi-index entries must be integers, got {raw}")
        values = tuple(int(v) for v in raw)
        if any(v < 1 for v in values):
            raise ValueError("multi-index entries must be >= 1")
        ent = tuple((i + 1, v) for i, v in enumerate(values) if v > 1)
        return cls(len(values), ent)

    def dense(self) -> tuple:
        out = [1] * self.d
        for pos, j in self.entries:
            out[pos - 1] = j
        return tuple(out)

    def __repr__(self):
        return f"MultiIndex{self.dense()!r}"


@dataclass
class TensorEigenList:
    """The n largest d-variate eigenvalues with their multi-indices, descending."""

    d: int
    log_values: np.ndarray
    indices: list

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)

    def __len__(self):
        return self.log_values.size


def _dense_index(d: int, values) -> MultiIndex:
    """The :class:`MultiIndex` of a dense index; ``ValueError`` unless d integers >= 1."""
    idx = MultiIndex.from_dense(values)  # rejects entries that are not integers >= 1
    if idx.d != d:
        raise ValueError(f"multi-index {idx.dense()} has {idx.d} entries, need d = {d}")
    return idx


def _log_product(base: float, log_ratio: np.ndarray, entries) -> float:
    # fixed accumulation order so equal indices give bit-equal values
    v = base
    for pos, j in entries:
        v += (j - 1) * log_ratio[pos - 1]
    return v


def tensor_log_eigenvalue(shape: ShapeSequence, d: int, dense_index) -> float:
    """log of the tensor eigenvalue at a dense multi-index.

    Uses the same accumulation order as the enumeration, so values agree
    bit-for-bit with those in a :class:`TensorEigenList`.  An index that is
    not d integer entries, each >= 1, raises ``ValueError``.
    """
    base, log_ratio = _log_spectrum(shape, d)
    return float(_log_product(base, log_ratio, _dense_index(d, dense_index).entries))


# a raised entry (pos, j) is stored as pos * 2**31 - j; the merge counts
# powers up to 2**31 - 1, so the codes are positive, order the entries like
# the (position, -j) pairs of the tie key, and a pad of 0 sorts first
_KEY_SHIFT = 2**31


def _key_order(keys):
    """Stable ascending order of tie keys.

    ``keys`` holds the coded raised entries of each index, position
    ascending and zero-padded.
    """
    # the codes are non-negative, so their big-endian bytes compare like
    # the rows, one memcmp per comparison however wide the key
    raw = np.ascontiguousarray(keys, dtype=">i8")
    raw = raw.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()
    return np.argsort(raw, kind="stable")


def _extend_keys(keys, depth, src, j, pos):
    """Keys and depths of prefixes ``src`` extended by power ``j`` at ``pos``."""
    new = keys[src]
    dep = depth[src]
    up = np.flatnonzero(j > 1)
    if up.size and dep[up].max() == new.shape[1]:
        # widen by doubling; trailing zero pads do not change the order
        new = np.hstack((new, np.zeros_like(new)))
    new[up, dep[up]] = pos * _KEY_SHIFT - j[up]
    dep[up] += 1
    return new, dep


def _top_log_eigenvalues(shape: ShapeSequence, d: int, n: int):
    """The n largest tensor log-eigenvalues and their sparse entries, in order.

    Merge over the coordinates in two passes.  The final order is
    descending value, exact ties by the (position, -j) key of the raised
    entries.  A prefix's value (j_1, ..., j_l) is the log-sum accumulated
    so far in position order (the order of :func:`_log_product`); it
    equals the final value of its extension by ones, and every other
    extension adds terms <= 0, which rounding cannot turn upward, and has
    a longer key.  So the comparison needs no rounding band, and:

    - every prefix of one of the n largest indices is worth at least the
      n-th value, the cut, which :func:`_top_log_values` finds first;
    - a prefix with n better ones is never needed.

    After coordinate l the merge keeps every extension of the kept
    prefixes that reaches the cut, all ties included, counted exactly by
    :func:`_powers_reaching`, and orders the survivors once at the end.
    Where more than 2 n would reach it (a log ratio absorbed in rounding
    ties runs of powers at the cut), that coordinate keeps those above
    the cut and the key-first of those at it, n in all
    (:func:`_tie_step`).

    One finite log ratio gives infinitely many nonzero eigenvalues, so the
    cut is finite unless every ratio underflowed.  Then every eigenvalue
    after the first is zero (log value -inf), and the list is written out
    in the ascending (position, j) order of the stream: (), then
    positions 1, 2, ... raised to 2 one by one up to all d, then the
    power at position d climbs.

    Each kept prefix carries its raised entries as a zero-padded row of
    int64 codes, so with at most 2 n prefixes kept the indices take
    about 16 n w bytes, w <= d the most coordinates above 1 in one index;
    no per-coordinate history is kept.  Returns ``(log_values,
    entries)``: a float array and a list of ``((pos, j), ...)`` tuples.
    """
    base, log_ratio = _log_spectrum(shape, d)
    if np.isneginf(log_ratio).all():
        # index i > 0 raises positions 1 .. min(i, d) to 2, the last of
        # them by max(i - d, 0) more
        twos = tuple((pos, 2) for pos in range(1, d))
        entries = [()] + [
            twos[: min(i, d) - 1] + ((min(i, d), 2 + max(i - d, 0)),) for i in range(1, n)
        ]
        return np.concatenate(([base], np.full(n - 1, -np.inf))), entries
    cut = _top_log_values(base, log_ratio, n)[-1]
    vals = np.array([base])
    keys = np.zeros((1, 1), dtype=np.int64)
    depth = np.zeros(1, dtype=np.int64)
    for l in range(d):
        lr = log_ratio[l]
        if vals.max() + lr < cut:
            continue  # no power above 1 reaches the cut: nothing moves
        first = _powers_reaching(vals, lr, cut, _KEY_SHIFT - 1)
        if first.sum() <= 2 * n:
            src, j = _candidates(first)
            vals = vals[src] + (j - 1) * lr
        else:
            src, j, vals = _tie_step(keys, depth, vals, lr, cut, n, l + 1, first)
        keys, depth = _extend_keys(keys, depth, src, j, l + 1)
    # descending value, exact ties in key order
    order = _key_order(keys)
    final = order[np.argsort(-vals[order], kind="stable")[:n]]
    keys = keys[final]
    codes = keys[keys != 0]  # row by row, positions ascending
    pos, j = codes // _KEY_SHIFT + 1, _KEY_SHIFT - codes % _KEY_SHIFT
    pairs = list(zip(pos.tolist(), j.tolist()))
    ends = np.cumsum(depth[final]).tolist()
    entries = [tuple(pairs[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    return vals[final], entries


def _top_log_values(base, log_ratio, n):
    """The n largest tensor log-eigenvalues, descending, without indices.

    The pruned merge with values only: after each coordinate it keeps the
    values above the n-th candidate value and as many copies of that value
    as make n.  Prefixes with bit-equal values extend to bit-equal values,
    so which of the tied prefixes is kept does not matter, and the values
    are bit-equal to those of :func:`_top_log_eigenvalues`.

    A candidate is row r of the kept values (descending, 1-based) with
    power j.  The candidates (k, j') with k <= r and j' <= j are worth at
    least as much, so row r needs at most ceil(n / r) powers.  The first r
    rows with powers up to ceil(n / r) are at least n candidates, each
    worth at least row_r + floor((n - 1) / r) lr, as rounding is monotone;
    so n candidates reach the largest of these floors, and none below it
    counts.  :func:`_powers_reaching` counts the candidates at the floor.

    The kept values are held as runs: distinct values u (descending) with
    counts c, rows S_i + 1 .. E_i of the sorted list, S_i the count before
    run i.  Within a run floor((n - 1) / r) falls as r grows, so the floor
    is the largest of u_i + floor((n - 1) / E_i) lr, the same float, and
    the run's first row has the largest cap.  So one count per run gives
    its powers, and row r of it takes power j exactly when j = 1 or
    r <= floor((n - 1) / (j - 1)): candidate (i, j) stands for c_i rows at
    j = 1 and for min(E_i, floor((n - 1) / (j - 1))) - S_i >= 1 rows
    above.  Each weighs at least 1, so the weighted n-th value lies among
    the n largest candidates; these are sorted, equal neighbours merge,
    and the cumulative count is cut at n.  The values and their sums are
    those of the copy-per-row merge, so the n values, u_i repeated c_i
    times, are its bits.
    """
    # q[m] = floor((n - 1) / m), so row r takes power m + 1 when r <= q[m];
    # q[0] = n, as every row takes power 1
    q = np.concatenate(([n], (n - 1) // np.arange(1, n + 1)))
    u, c = np.array([base]), np.array([1])
    # an underflowed ratio adds only zero eigenvalues, and the powers 1..n
    # of one finite ratio outrank them all
    for lr in log_ratio[np.isfinite(log_ratio)]:
        end = c.cumsum()
        if end[-1] == n and u[0] + lr < u[-1]:
            continue  # no power above 1 reaches the n-th value: nothing moves
        start = end - c
        floor = (u + q[end] * lr).max()
        row, m = _candidates(_powers_reaching(u, lr, floor, q[start + 1] + 1))
        m -= 1  # power m + 1
        v = u[row] + m * lr  # m = 0 adds -0.0, which changes no value
        w = _rows_taking(q, start[row], end[row], m)
        if v.size > n:
            top = np.argpartition(-v, n - 1)[:n]
            v, w = v[top], w[top]
        order = (-v).argsort()
        v, w = v[order], w[order]
        last = np.flatnonzero(np.concatenate((v[1:] != v[:-1], [True])))  # merge equal neighbours
        total = w.cumsum()[last]
        keep = np.searchsorted(total, n) + 1  # runs up to the one holding the n-th value
        # the cumulative counts, the last cut to n, back to counts
        u, c = v[last[:keep]], total[:keep]
        c[-1] = n
        c[1:] -= c[:-1].copy()
    vals = u.repeat(c)
    return np.concatenate((vals, np.full(n - vals.size, -np.inf)))


def _rows_taking(q, start, end, m):
    """How many of the rows start + 1 .. end take power m + 1.

    ``q`` is the values pass's table, q[m] = floor((n - 1) / m) and
    q[0] = n, so row r takes powers 1 .. q[r] + 1: power m + 1 exactly
    when r <= q[m].  That is min(end, q[m]) - start rows of the run, all
    of them at m = 0 and at least one up to the cap q[start + 1] + 1 of
    its first row.
    """
    return np.minimum(end, q[m]) - start


def _tie_step(keys, depth, vals, lr, cut, n, pos, first):
    """The n best extensions of the prefixes ``vals`` at coordinate ``pos``.

    ``first`` holds each row's count of powers at or above the cut.  Fewer
    than n candidates lie above the cut: each, extended by ones, is a
    distinct final value above the n-th.  So all of them are kept, and
    the key-first ``take`` of those at the cut make up n.  A row's tied
    powers above 1 form one run whose keys differ only in the last code,
    at ``pos``, which is larger than every code of a prefix, so no other
    candidate's key falls between them: one key order over the power-1
    ties and one block per run, keyed by the run's first power, orders
    them all.  Returns the prefix indices, powers and values of the kept.
    """
    above = _powers_reaching(vals, lr, np.nextafter(cut, np.inf), first)
    # the key prefers the larger power, so a run is walked down from the
    # last power at the cut
    run = first - np.maximum(above, 1)
    row, j = _candidates(above)
    v = vals[row] + (j - 1) * lr
    tied = np.flatnonzero(above == 0)  # power 1 at the cut
    ext = np.flatnonzero(run > 0)
    src = np.concatenate((tied, ext))
    ones = np.ones_like(tied)
    start = np.concatenate((ones, first[ext]))
    size = np.concatenate((ones, run[ext]))
    tk, _ = _extend_keys(keys, depth, src, start, pos)
    order = _key_order(tk)
    src, start, size = src[order], start[order], size[order]
    take = n - row.size
    q = np.clip(take - (np.cumsum(size) - size), 0, size)  # blocks in key order
    block, step = _candidates(q)
    tie_j = start[block] - step + 1
    return (
        np.concatenate((row, src[block])),
        np.concatenate((j, tie_j)),
        np.concatenate((v, np.full(tie_j.size, cut))),
    )


def _candidates(cap):
    """Row and power of every candidate, row i taking powers 1..cap[i]."""
    row = np.repeat(np.arange(cap.size), cap)
    j = np.arange(row.size) - np.repeat(cap.cumsum() - cap, cap) + 1
    return row, j


def _powers_reaching(rows, lr, t, cap):
    """Per row, the exact number of powers j <= cap with rows + (j - 1) lr >= t.

    ``lr`` is a finite log ratio < 0.  The values do not rise with j and
    rounding is monotone, so the powers that reach t are 1..k for one k
    per row.  The quotient (rows - t) / |lr| gives a first guess.
    Rounding can leave it past k, so the guess steps down while its power
    misses t; then it is at most k.  It falls short of k by one where the
    quotient rounds down at a threshold on the grid of powers, and by more
    where |lr| is absorbed in rounding: one step up is checked once, and
    past it an exponential then a binary search, bounded by ``cap``,
    climbs.  ``cap`` is a scalar or one bound per row; the merge passes
    2**31 - 1, the largest power the int32 codes of the tie key hold.
    """
    k = np.minimum(np.maximum(np.floor((rows - t) / -lr) + 1, 0), cap).astype(np.int64)
    # step down the rows whose guess misses t
    over = np.flatnonzero((k > 0) & (rows + (k - 1) * lr < t))
    while over.size:
        k[over] -= 1
        over = over[(k[over] > 0) & (rows[over] + (k[over] - 1) * lr < t)]
    # climb on the rows whose next power reaches t too, with room powers
    # left below the cap; most guesses are short by one, so the power
    # after that is checked once first
    room = cap - k
    up = np.flatnonzero((room > 0) & (rows + k * lr >= t))
    if up.size:
        k[up] += 1
        up = up[(room[up] > 1) & (rows[up] + k[up] * lr >= t)]
    if not up.size:
        return k
    # power lo reaches t; end, one past the cap, bounds the search
    r, lo = rows[up], k[up] + 1
    end = lo + room[up] - 1
    step = 1
    while True:
        hi = np.minimum(lo + step, end)
        grow = (hi < end) & (r + (hi - 1) * lr >= t)
        if not grow.any():
            break
        lo = np.where(grow, hi, lo)
        step *= 2
    # now power hi misses t or lies past the cap
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        reach = r + (mid - 1) * lr >= t
        lo, hi = np.where(reach, mid, lo), np.where(reach, hi, mid)
    k[up] = lo
    return k


def stream_tensor_eigenvalues(shape: ShapeSequence, d: int, limit: int):
    """Generator of the ``limit`` largest (log_value, MultiIndex) pairs, descending.

    Exact value ties come out in the ascending order of the (position, -j)
    key of their raised entries, so (2, 1) precedes (1, 2) and (3, 1, 1)
    precedes (2, 2, 1) when tied; zero eigenvalues (log value -inf, a
    ratio that underflowed) come in ascending (position, j) order.

    One merge of exactly ``limit`` items runs, and the stream ends after
    them.  ``limit`` is an integer >= 0; one above the enumeration guard
    raises :class:`ResourceLimitError` before any work.
    """
    d = _at_least("dimension", d, 1)
    limit = _merge_size("limit", limit, 0)
    if limit:
        logs, entries = _top_log_eigenvalues(shape, d, limit)
        for logval, ent in zip(logs.tolist(), entries):
            yield logval, MultiIndex(d, ent)


def top_n_tensor_eigenvalues(shape: ShapeSequence, d: int, n: int) -> TensorEigenList:
    """The n largest eigenvalues of the d-variate tensor operator.

    Values are products of univariate eigenvalues, accumulated in log
    space so that large d cannot underflow.  Exact value ties are ordered
    by the ascending (position, -j) key of the raised entries, as in
    :func:`stream_tensor_eigenvalues`.  n is an integer >= 1; one above the
    enumeration guard raises :class:`ResourceLimitError` before any work.
    While the list is built the merge holds at most 2 n indices, about
    16 n w bytes, w <= d the most coordinates above 1 in one index.
    """
    n = _merge_size("n", n, 1)
    logs, idxs = zip(*stream_tensor_eigenvalues(shape, d, limit=n))
    return TensorEigenList(d=d, log_values=np.array(logs), indices=list(idxs))
