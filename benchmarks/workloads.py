"""The benchmark's workloads: seeded inputs, the op each batch runs, output checks.

An op is one batch of items with the same mix in every batch of a workload;
only the seeded values inside the items change.  A pass is the workload's
fixed op list of ``PASS_OPS`` batches.  README.md in this directory says why
each workload was chosen.

Checks never call the code under test for the quantity being checked: the
closed forms they compare against (eigenvalue ratio, initial error, tensor
log-eigenvalues, the RKHS norm of the interpolation target) are written out
here.  Where a check needs a second numerical route (the trace bound of the
spline error, the enumeration behind a lattice count) it takes the other
route through the library, outside the timed region.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import grkhs
import grkhs.cli

PASS_OPS = 6

# cells with at most this many eigenvalues are recounted by enumeration
SMALL_CELL = 5000
# relative tolerance for floats compared against the stored references
RTOL = 1e-9
# interpolant values and the power function pass through Gram directions
# near the 1e-12 clipping threshold, where roundoff is amplified (two BLAS
# threads instead of one move pf by 4e-8 and pred by 2e-12 of its scale),
# so they are compared normwise, relative to the largest reference magnitude
RTOL_NORMWISE = {"pred": 1e-6, "pf": 1e-5}
SUBSAMPLE = 32


@dataclass
class Item:
    """One call into the program inside an op."""

    kind: str  # selects the runner and the checker
    sig: tuple  # the work size; equal across the batches of a workload
    args: tuple  # inputs handed to the program
    fixed: bool = False  # inputs do not depend on the seed
    extra: dict = field(default_factory=dict)  # data only the checker uses


# --- independent closed forms used by the checks


def _omega(gammas):
    g2 = np.asarray(gammas, dtype=float) ** 2
    return 2.0 * g2 / (1.0 + 2.0 * g2 + np.sqrt(1.0 + 4.0 * g2))


def _log_eig(gammas, dense):
    """log of the tensor eigenvalue at a dense multi-index (1-based entries)."""
    w = _omega(gammas)
    j = np.asarray(dense, dtype=float)
    return float(np.sum(np.log1p(-w)) + np.sum((j - 1.0) * np.log(w)))


def _initial_error(gammas):
    return math.sqrt(float(np.prod(1.0 - _omega(gammas))))


def _gauss_kernel(gammas, a, b):
    diff = (a[:, None, :] - b[None, :, :]) * np.asarray(gammas)
    return np.exp(-np.sum(diff * diff, axis=-1))


def _subsample(values, k=SUBSAMPLE):
    values = list(values)
    if len(values) <= k:
        return values
    idx = np.linspace(0, len(values) - 1, k).round().astype(int)
    return [values[i] for i in idx]


def _nonincreasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


# --- batches


def _gammas_token(gammas):
    return "explicit:" + ",".join(repr(float(g)) for g in gammas)


def _cli_item(name, argv, outdir, fixed, extra=None):
    out = os.path.join(outdir, f"{name}.csv")
    extra = dict(extra or {}, out=out, name=name)
    # the work size of a seeded explicit shape is its dimension, not its values
    sig = ("cli", name, tuple(a for a in argv if not a.startswith("explicit:")))
    return Item("cli", sig, (tuple(argv) + ("--out", out),), fixed, extra)


def batch_spline_wce(rng, outdir):
    # the check-10 design stream (d=1, m=200 and d=2, m=32, n uniform in
    # [1, 20]) plus a d=3, m=12 design and the empty design
    shape = grkhs.ShapeSequence.isotropic(1.0)
    items = []
    for d, m, count in ((1, 200, 4), (2, 32, 4), (3, 12, 1)):
        for _ in range(count):
            n = int(rng.integers(1, 21))
            design = rng.standard_normal((n, d))
            items.append(Item("wce", ("wce", d, m), (shape, d, design, m)))
    empty = (shape, 1, np.empty((0, 1)), 200)
    items.append(Item("wce", ("wce", 1, 200, "empty"), empty, fixed=True))
    return items


INTERP_SIZES = ((2, 600), (4, 400), (8, 300))
INTERP_POINTS = 2000
NEAR_DUPLICATES = 4
CENTERS = 5


def batch_interp(rng, outdir):
    # scattered sites with a few near-duplicates, so the Gram clipping fires;
    # the data come from a finite kernel expansion f, whose RKHS norm is known
    shape = grkhs.ShapeSequence.isotropic(1.0)
    items = []
    for d, n in INTERP_SIZES:
        gammas = np.ones(d)
        sites = rng.standard_normal((n, d))
        k = NEAR_DUPLICATES
        sites[n - k :] = sites[:k] + 1e-9 * rng.standard_normal((k, d))
        centers = 0.7 * rng.standard_normal((CENTERS, d))
        coef = rng.standard_normal(CENTERS)
        kc = _gauss_kernel(gammas, centers, centers)
        fnorm = math.sqrt(max(0.0, float(coef @ kc @ coef)))
        y = _gauss_kernel(gammas, sites, centers) @ coef
        points = rng.standard_normal((INTERP_POINTS, d))
        extra = {"centers": centers, "coef": coef, "fnorm": fnorm, "gammas": gammas}
        items.append(
            Item("interp", ("interp", d, n, INTERP_POINTS), (shape, d, sites, y, points), extra=extra)
        )
    return items


CHECK01_GAMMAS = (0.1, 0.5, 1.0, 2.0, 10.0)


def batch_enumerate(rng, outdir):
    # README commands scaled to N <= 5000 so that one op stays near 0.5 s
    items = [
        _cli_item("decay_iso_d8", ["decay", "--shape", "iso:1.0", "--d", "8", "--N", "5000"], outdir, True),
        _cli_item(
            "rates_pl_d16",
            ["rates", "--shape", "powerlaw:1:2", "--d", "16", "--N", "5000", "--window", "50,5000"],
            outdir,
            True,
        ),
        _cli_item("decay_iso_d50", ["decay", "--shape", "iso:1.0", "--d", "50", "--N", "1000"], outdir, True),
    ]
    gammas = np.sort(rng.uniform(0.3, 1.2, 4))[::-1]
    items.append(
        _cli_item(
            "eigs_explicit_d4",
            ["eigs", "--shape", _gammas_token(gammas), "--d", "4", "--n", "2000"],
            outdir,
            False,
            {"gammas": gammas},
        )
    )
    for g in CHECK01_GAMMAS:
        items.append(
            _cli_item(f"spectrum_{g:g}", ["spectrum", "--gamma", repr(g), "--k", "10"], outdir, True, {"gamma": g})
        )
    # f(x) = prod_l cos(a_l x_l + b_l); its L2(rho_2) norm is known in closed form
    a, b = rng.uniform(0.2, 1.0, 2), rng.uniform(0.0, math.pi, 2)
    fnorm2 = float(np.prod((1.0 + np.cos(2.0 * b) * np.exp(-(a**2))) / 2.0))
    shape = grkhs.ShapeSequence.isotropic(1.0)
    items.append(
        Item(
            "eigproj",
            ("eigproj", 2, 500, 64),
            (shape, 2, 500, _CosProduct(a, b), 64),
            extra={"fnorm2": fnorm2, "gammas": np.ones(2)},
        )
    )
    return items


class _CosProduct:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, pts):
        return np.prod(np.cos(pts * self.a + self.b), axis=1)

    def __repr__(self):
        return f"_CosProduct({self.a.tolist()!r}, {self.b.tolist()!r})"


CHECK08_EPS = tuple(2.0**-j for j in range(1, 8))
CHECK08_DIMS = tuple(range(1, 17))


def batch_complexity(rng, outdir):
    # lattice-count cells scaled so that one op stays near 0.5 s; no cell
    # comes near the 1e7 work guard
    items = [
        _cli_item(
            "pl_norm_1e-2",
            ["complexity", "--shape", "powerlaw:1:0.5", "--d", "8,16,24", "--eps", "0.01", "--criterion", "norm"],
            outdir,
            True,
            {"criterion": "normalized"},
        ),
        _cli_item(
            "pl_norm_1e-3",
            ["complexity", "--shape", "powerlaw:1:0.5", "--d", "8,16", "--eps", "0.001", "--criterion", "norm"],
            outdir,
            True,
            {"criterion": "normalized"},
        ),
        _cli_item(
            "geom_abs",
            ["complexity", "--shape", "geom:0.9", "--d", "8,64,256", "--eps", "0.001", "--criterion", "abs"],
            outdir,
            True,
            {"criterion": "absolute"},
        ),
    ]
    for k in range(2):
        # distinct costs, so the count cannot group coordinates
        gammas = np.sort(rng.uniform(0.3, 1.0, 8))[::-1]
        items.append(
            _cli_item(
                f"explicit_{k}",
                ["complexity", "--shape", _gammas_token(gammas), "--d", "8", "--eps", "0.02,0.001", "--criterion", "norm"],
                outdir,
                False,
                {"criterion": "normalized", "gammas": gammas},
            )
        )
    probe = (grkhs.ShapeSequence.isotropic(1.0), list(CHECK08_EPS), list(CHECK08_DIMS), "absolute")
    items.append(Item("probe", ("probe", len(CHECK08_EPS), len(CHECK08_DIMS)), probe, fixed=True))
    return items


BATCHES = {
    "spline_wce": batch_spline_wce,
    "interp": batch_interp,
    "enumerate": batch_enumerate,
    "complexity": batch_complexity,
}
WORKLOADS = tuple(BATCHES)


def make_pass(workload, seed, pass_index, outdir):
    """The op list of one pass: ``PASS_OPS`` batches drawn from (seed, pass)."""
    rng = np.random.default_rng([seed, pass_index])
    ops = []
    for b in range(PASS_OPS):
        bdir = os.path.join(outdir, f"op{b}")
        os.makedirs(bdir, exist_ok=True)
        ops.append(BATCHES[workload](rng, bdir))
    return ops


# --- running


def _run_wce(shape, d, design, m):
    return grkhs.spline_worst_case_error(shape, d, design, m)


def _run_interp(shape, d, sites, y, points):
    model = grkhs.spline_fit(shape, d, sites, y)
    return model(points), grkhs.power_function(shape, d, sites, points)


def _run_cli(argv):
    return grkhs.cli.main(list(argv))


def _run_eigproj(shape, d, n, f, m):
    return grkhs.eigen_projection(shape, d, n, f, m)


def _run_probe(shape, eps_grid, d_grid, criterion):
    return grkhs.tractability_probe(shape, eps_grid, d_grid, criterion)


RUNNERS = {
    "wce": _run_wce,
    "interp": _run_interp,
    "cli": _run_cli,
    "eigproj": _run_eigproj,
    "probe": _run_probe,
}


def run_op(items):
    """The timed op: every item of one batch, outputs kept for checking."""
    return [RUNNERS[item.kind](*item.args) for item in items]


def warm_up(outdir):
    """One small call into each layer; part of set-up, and of every traced rep."""
    iso = grkhs.ShapeSequence.isotropic(1.0)
    pts = np.linspace(-1.0, 1.0, 10).reshape(5, 2)
    grkhs.gram_matrix(iso, 2, pts)
    grkhs.gauss_hermite(20)
    grkhs.tensor_rule(2, 8)
    grkhs.nystrom_eigs(1.0, 40, 5)
    grkhs.top_n_tensor_eigenvalues(iso, 3, 20)
    grkhs.univariate_spectrum(1.0).eigenfunctions(5, pts[:, 0])
    # 80 grid nodes, above the 64-node dense cutoff, so Lanczos runs
    grkhs.spline_worst_case_error(iso, 1, pts[:3, :1], 80)
    model = grkhs.spline_fit(iso, 2, pts, np.arange(5.0))
    model(pts)
    grkhs.power_function(iso, 2, pts, pts)
    grkhs.eigen_projection(iso, 2, 10, {(1, 1): 1.0})
    grkhs.info_complexity(iso, 2, 0.1, "absolute")
    grkhs.error_sequence_all(iso, 2, 20)
    grkhs.tractability_probe(iso, [0.5, 0.25], [1, 2], "absolute")
    out = os.path.join(outdir, "warm_up.csv")
    grkhs.cli.main(["complexity", "--shape", "iso:1.0", "--d", "2", "--eps", "0.1", "--out", out])


# --- checking


def _read_csv_rows(path):
    """Data rows of a grkhs CSV: comment lines and the header skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _check_wce(item, wce, lower, full):
    shape, d, design, m = item.args
    n = design.shape[0]
    bound = grkhs.spline_worst_case_error(shape, d, design, m, method="trace") if full else math.inf
    problems = []
    if not lower[d][n] - 1e-9 <= wce <= bound + 1e-9:
        problems.append(f"wce {wce!r} outside [e_all({n}) = {lower[d][n]!r}, trace bound {bound!r}]")
    return {"wce": float(wce)}, problems


def _check_interp(item, out, lower, full):
    sites, points = item.args[2], item.args[4]
    pred, pf = out
    problems = []
    ex = item.extra
    if pred.shape != (points.shape[0],) or pf.shape != (points.shape[0],):
        return {}, [f"output shapes {pred.shape}, {pf.shape}"]
    if not (np.all(pf >= 0.0) and np.all(pf <= 1.0)):
        problems.append("power function outside [0, 1]")
    # one site alone gives P(x)^2 <= 1 - K(x, x_i)^2, and more sites do no worse
    g = ex["gammas"]
    a, b = points * g, sites * g
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * a @ b.T
    k_near = np.exp(-np.maximum(np.min(d2, axis=1), 0.0))
    if np.any(pf > np.sqrt(1.0 - k_near**2) + 1e-6):
        problems.append("power function above the single-site bound")
    # |f(x) - s(x)| <= P(x) ||f||_H holds for the clipped interpolant too
    f = _gauss_kernel(g, points, ex["centers"]) @ ex["coef"]
    slack = np.abs(f - pred) - pf * ex["fnorm"]
    tol = 1e-6 * (1.0 + ex["fnorm"])
    if float(np.max(slack)) > tol:
        problems.append(f"|f - s| exceeds P ||f|| by {float(np.max(slack))!r}")
    return {"pred": _subsample(pred.tolist()), "pf": _subsample(pf.tolist())}, problems


def _check_decay(rows, argv):
    shape = argv[argv.index("--shape") + 1]
    d, N = int(argv[argv.index("--d") + 1]), int(argv[argv.index("--N") + 1])
    gammas = grkhs.cli.parse_shape(shape).gammas(d)
    e = [float(r[1]) for r in rows]
    problems = []
    if [int(r[0]) for r in rows] != list(range(N + 1)):
        problems.append("rows are not n = 0..N")
    if not _nonincreasing(e):
        problems.append("e_all not nonincreasing")
    if not math.isclose(e[0], _initial_error(gammas), rel_tol=1e-12):
        problems.append(f"e_all(0) = {e[0]!r} differs from the initial error")
    # the tensor trace is 1, so lambda_(n+1) <= 1/(n+1)
    if any(v * v * (n + 1) > 1.0 + 1e-12 for n, v in enumerate(e)):
        problems.append("e_all(n) above (n+1)^(-1/2)")
    return {"rows": len(rows), "e_all": _subsample(e)}, problems


def _check_eigs(rows, item):
    gammas = item.extra["gammas"]
    n = int(item.args[0][item.args[0].index("--n") + 1])
    values = [float(r[1]) for r in rows]
    indices = [r[2] for r in rows]
    problems = []
    if len(rows) != n or [int(r[0]) for r in rows] != list(range(1, n + 1)):
        problems.append("ranks are not 1..n")
    if not _nonincreasing(values):
        problems.append("eigenvalues not nonincreasing")
    if len(set(indices)) != len(indices):
        problems.append("repeated multi-index")
    dense = np.array([[int(j) for j in idx.split(";")] for idx in indices], dtype=float)
    w = _omega(gammas)
    exact = np.exp(np.sum(np.log1p(-w)) + (dense - 1.0) @ np.log(w))
    bad = np.flatnonzero(np.abs(np.array(values) - exact) > 1e-12 * exact)
    if bad.size:
        problems.append(f"value {values[bad[0]]!r} at {indices[bad[0]]} differs from its product")
    return {"values": _subsample(values), "indices": _subsample(indices)}, problems


def _check_spectrum(rows, item):
    g = item.extra["gamma"]
    closed = [float(r[1]) for r in rows]
    nys = [float(r[2]) for r in rows]
    w = float(_omega([g])[0])
    k = int(item.args[0][item.args[0].index("--k") + 1])
    problems = [] if len(rows) == k else [f"{len(rows)} rows, expected {k}"]
    exact = [(1.0 - w) * w**j for j in range(len(rows))]
    if any(not math.isclose(c, x, rel_tol=1e-12) for c, x in zip(closed, exact)):
        problems.append("closed-form eigenvalues differ from (1 - omega) omega^(j-1)")
    if not _nonincreasing(nys) or min(nys) <= 0.0 or sum(nys) > 1.0 + 1e-9:
        problems.append("Nystrom eigenvalues not positive, descending, with sum <= 1")
    return {"closed": closed, "nystrom": nys}, problems


def _enumeration_recount(shape, d, eps, criterion, n):
    """Problems if n disagrees with the count from the enumerated sequence."""
    e = grkhs.error_sequence_all(shape, d, n).values
    log_e2 = 2.0 * np.log(e)
    thr = 2.0 * math.log(eps) + (log_e2[0] if criterion == "normalized" else 0.0)
    if np.all(log_e2[:n] > thr - 1e-9) and log_e2[n] <= thr + 1e-9:
        return []
    return [f"n(eps={eps!r}, d={d}) = {n} disagrees with the enumeration"]


def _check_complexity(rows, item, full):
    argv = item.args[0]
    shape = grkhs.cli.parse_shape(argv[argv.index("--shape") + 1])
    counts = [int(r[2]) for r in rows]
    ds = [int(v) for v in argv[argv.index("--d") + 1].split(",")]
    eps = [float(v) for v in argv[argv.index("--eps") + 1].split(",")]
    problems = []
    if [(int(r[0]), float(r[1])) for r in rows] != [(d, e) for d in ds for e in eps]:
        problems.append("rows do not cover the d x eps grid")
    for r, n in zip(rows, counts):
        if n < 0 or r[3] != item.extra["criterion"]:
            problems.append(f"bad row {r}")
        elif full and n <= SMALL_CELL:
            problems += _enumeration_recount(shape, int(r[0]), float(r[1]), r[3], n)
    return {"n": counts}, problems


def _check_rates(rows, item):
    rate, flag = float(rows[0][4]), int(rows[0][5])
    problems = [] if math.isfinite(rate) and flag in (0, 1) else [f"bad rate row {rows[0]}"]
    return {"rate": rate, "superpoly": flag}, problems


def _check_cli(item, rc, lower, full):
    if rc != 0:
        return {}, [f"exit code {rc}"]
    rows = _read_csv_rows(item.extra["out"])
    command = item.args[0][0]
    if command == "decay":
        return _check_decay(rows, item.args[0])
    if command == "eigs":
        return _check_eigs(rows, item)
    if command == "spectrum":
        return _check_spectrum(rows, item)
    if command == "rates":
        return _check_rates(rows, item)
    return _check_complexity(rows, item, full)


def _check_eigproj(item, proj, lower, full):
    n = item.args[2]
    gammas = item.extra["gammas"]
    logs = proj.basis.log_values.tolist()
    dense = [idx.dense() for idx in proj.basis.indices]
    problems = []
    if len(logs) != n or len(set(dense)) != n:
        problems.append("basis is not n distinct multi-indices")
    if not _nonincreasing(logs):
        problems.append("basis log-values not nonincreasing")
    if any(abs(lv - _log_eig(gammas, j)) > 1e-12 * (1.0 + abs(lv)) for lv, j in zip(logs, dense)):
        problems.append("basis log-value differs from the sum over its multi-index")
    coef = np.asarray(proj.coefficients)
    # Bessel: the projection cannot carry more L2 mass than f
    if not float(coef @ coef) <= item.extra["fnorm2"] * (1.0 + 1e-9):
        problems.append("coefficients violate Bessel's inequality")
    summary = {
        "coef": _subsample(coef.tolist()),
        "indices": _subsample([";".join(map(str, j)) for j in dense]),
    }
    return summary, problems


def _check_probe(item, report, lower, full):
    problems = []
    if report.guard_hit:
        problems.append("work guard tripped")
    # the check-08 windows
    if not (1.7 <= report.p_hat <= 2.3 and report.q_hat <= 0.1):
        problems.append(f"p_hat {report.p_hat!r}, q_hat {report.q_hat!r} outside the check-08 windows")
    summary = {
        "n": [int(n) for _, _, n in report.table],
        "p_hat": float(report.p_hat),
        "q_hat": float(report.q_hat),
        "classification": report.classification,
    }
    return summary, problems


CHECKERS = {
    "wce": _check_wce,
    "interp": _check_interp,
    "cli": _check_cli,
    "eigproj": _check_eigproj,
    "probe": _check_probe,
}


def lower_bounds():
    """e_all(n), n <= 20, for the spline_wce designs, from the closed form."""
    iso = grkhs.ShapeSequence.isotropic(1.0)
    return {d: grkhs.error_sequence_all(iso, d, 20).values.tolist() for d in (1, 2, 3)}


def compare(ref, got, rtol=RTOL, normwise=RTOL_NORMWISE):
    """Problems where a summary differs from its reference.

    Integers, strings and multi-indices must match exactly, floats to
    ``rtol`` relative to themselves, or, for keys in ``normwise``, relative
    to the largest reference magnitude of that list.
    """
    problems = []
    if set(ref) != set(got):
        return [f"keys {sorted(got)} differ from reference keys {sorted(ref)}"]
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, list) != isinstance(have, list):
            problems.append(f"{key}: list and scalar differ")
            continue
        wants = want if isinstance(want, list) else [want]
        haves = have if isinstance(have, list) else [have]
        if len(wants) != len(haves):
            problems.append(f"{key}: length {len(haves)} != {len(wants)}")
            continue
        scale = max((abs(w) for w in wants if isinstance(w, float)), default=0.0)
        for i, (w, h) in enumerate(zip(wants, haves)):
            if isinstance(w, float) and isinstance(h, (float, int)) and not isinstance(h, bool):
                tol = normwise[key] * scale if key in normwise else rtol * abs(w)
                ok = abs(h - w) <= tol
            else:
                ok = type(w) is type(h) and w == h
            if not ok:
                problems.append(f"{key}[{i}]: {h!r} != reference {w!r}")
                break
    return problems


class Checker:
    """Checks the outputs of ops against invariants and stored references.

    A fixed item gets its costly checks (second numerical route) the first
    time its slot is seen; its inputs never change, so afterwards the
    comparison against the reference covers it.
    """

    def __init__(self):
        self.lower = lower_bounds()
        self._seen_fixed = set()

    def check_op(self, items, outputs, refs=None):
        """(summaries, problems) for one op; ``refs`` maps item slots to references."""
        summaries, problems = [], []
        for slot, (item, out) in enumerate(zip(items, outputs)):
            full = not (item.fixed and slot in self._seen_fixed)
            if item.fixed:
                self._seen_fixed.add(slot)
            try:
                summary, found = CHECKERS[item.kind](item, out, self.lower, full)
            except Exception as exc:  # malformed output fails the op, not the run
                summary, found = {}, [f"check raised {exc!r}"]
            if refs is not None and slot in refs:
                found += compare(refs[slot], summary)
            summaries.append(summary)
            problems += [f"{item.sig}: {p}" for p in found]
        return summaries, problems
