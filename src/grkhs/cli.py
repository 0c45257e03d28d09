"""Command-line driver emitting deterministic CSV artifacts.

Subcommands: ``spectrum``, ``eigs``, ``decay``, ``complexity``, ``rates``,
``spline-bench`` and ``verify``.  Options come from flags and from a JSON
object passed with ``--config``, whose entries are read as the flags
``--key value``: a flag on the command line overrides an entry, an unknown
key is a usage error, abbreviations follow the flag rules, a ``null`` entry
is absent and an entry naming another config file is an error.  Every CSV
starts with comment lines echoing the version, the effective configuration
and the seed, so identical configurations, from a file or from flags,
reproduce byte-identical files.

Exit codes: 0 success, 1 validation failure, 2 resource limit exceeded,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .algorithms import _spline_rule_size, spline_worst_case_error
from .complexity import (
    ErrorSequence,
    _complexity_rows,
    _error_values,
    estimate_rate,
)
from .errors import ResourceLimitError
from .kernel import ShapeSequence, _at_least
from .quadrature import nystrom_eigs
from .spectrum import top_n_tensor_eigenvalues, univariate_spectrum

__all__ = ["main", "parse_shape"]


def parse_shape(token: str) -> ShapeSequence:
    """Parse the shape mini-grammar.

    ``iso:<g>``, ``powerlaw:<c>:<alpha>``, ``geom:<q>`` or
    ``explicit:<g1,g2,...>``.
    """
    parts = token.split(":")
    try:
        if parts[0] == "iso" and len(parts) == 2:
            return ShapeSequence.isotropic(float(parts[1]))
        if parts[0] == "powerlaw" and len(parts) == 3:
            return ShapeSequence.power_law(float(parts[1]), float(parts[2]))
        if parts[0] == "geom" and len(parts) == 2:
            return ShapeSequence.geometric(float(parts[1]))
        if parts[0] == "explicit" and len(parts) == 2:
            return ShapeSequence.explicit([float(v) for v in parts[1].split(",")])
    except ValueError as exc:
        raise ValueError(f"bad shape token {token!r}: {exc}") from exc
    raise ValueError(f"bad shape token {token!r}")


def _int_list(text):
    return [int(v) for v in text.split(",")]


def _floats(a) -> list:
    """Shortest round-trip ``repr`` of each entry, once per run of equal bits
    (not ``==``: a 0.0 next to a -0.0 keeps its sign)."""
    a = np.asarray(a, dtype=np.float64)
    bits = a.view(np.uint64)
    new = np.ones(a.size, dtype=bool)
    new[1:] = bits[1:] != bits[:-1]
    cells = np.array(list(map(repr, a[new].tolist())), dtype=object)
    return cells[np.cumsum(new) - 1].tolist()


def _table(config: dict, names: str, *columns) -> list:
    """CSV lines: the header, the column names and one line per row.

    An array column's cells are its ``_floats``, any other column's ``str``.
    """
    # the output destination is not part of the experiment, so identical
    # configurations written to different paths stay byte-identical
    echo = json.dumps({k: v for k, v in config.items() if k != "out"}, sort_keys=True)
    lines = [f"# grkhs {__version__}", f"# config: {echo}"]
    if "seed" in config:
        lines.append(f"# seed: {config['seed']}")
    cells = [_floats(c) if isinstance(c, np.ndarray) else map(str, c) for c in columns]
    return lines + [names] + list(map(",".join, zip(*cells)))


def _emit(out_path, lines):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_spectrum(cfg):
    gamma, m, k = float(cfg["gamma"]), int(cfg.get("m", 200)), int(cfg.get("k", 10))
    closed = univariate_spectrum(gamma).eigenvalue(np.arange(1, k + 1))
    approx = nystrom_eigs(gamma, m, k)
    # equal values have rel_err 0, also where both underflowed to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(approx - closed) / closed
    rel[approx == closed] = 0.0
    names = "j,lambda_closed,lambda_nystrom,rel_err"
    _emit(cfg.get("out"), _table(cfg, names, range(1, k + 1), closed, approx, rel))
    return 0


def cmd_eigs(cfg):
    shape = parse_shape(cfg["shape"])
    d, n = int(cfg["d"]), int(cfg["n"])
    top = top_n_tensor_eigenvalues(shape, d, n)
    index = [_dense_text(idx.entries, d) for idx in top.indices]
    lines = _table(cfg, "rank,value,index", range(1, len(index) + 1), top.values, index)
    _emit(cfg.get("out"), lines)
    return 0


def _dense_text(entries, d) -> str:
    """The dense index "k_1;...;k_d" of sparse (position, j) entries, runs of "1;" between them.

    O(w) string operations for w raised entries, not one per coordinate.
    """
    parts, done = [], 0
    for pos, j in entries:
        parts += ["1;" * (pos - 1 - done), f"{j};"]
        done = pos
    parts.append("1;" * (d - done))
    return "".join(parts)[:-1]


def cmd_decay(cfg):
    shape, ds, N = parse_shape(cfg["shape"]), _int_list(cfg["d"]), int(cfg["N"])
    out = cfg.get("out")
    if out is None and len(ds) > 1:
        raise ValueError("multiple dimensions need --out (one file per d)")
    for d in ds:
        e = _error_values(shape, d, N)
        names = "n,e_all,e_all_over_init"
        lines = _table({**cfg, "d": d}, names, range(N + 1), e, e / e[0])
        _emit(out if len(ds) == 1 else f"{out}_d{d}.csv", lines)
    return 0


def cmd_complexity(cfg):
    shape = parse_shape(cfg["shape"])
    ds = _int_list(cfg["d"])
    eps = [float(v) for v in cfg["eps"].split(",")]
    criterion = cfg.get("criterion", "abs")
    criterion = {"abs": "absolute", "norm": "normalized"}.get(criterion, criterion)
    counts = []
    for row in _complexity_rows(shape, ds, eps, criterion):
        for n in row:
            # the first trip in (d, eps) order stops the command
            if isinstance(n, ResourceLimitError):
                raise n
            counts.append(n)
    d_col, eps_col = [d for d in ds for _ in eps], np.array(eps * len(ds))
    names = "d,eps,n,criterion"
    lines = _table(cfg, names, d_col, eps_col, counts, [criterion] * len(counts))
    _emit(cfg.get("out"), lines)
    return 0


def cmd_rates(cfg):
    shape, ds, N = parse_shape(cfg["shape"]), _int_list(cfg["d"]), int(cfg["N"])
    window = _int_list(cfg.get("window", f"{max(1, N // 100)},{N}"))
    seqs = (ErrorSequence(_error_values(shape, d, N)) for d in ds)
    # estimate_rate checks the window, also its number of bounds
    fits = [estimate_rate(seq, window) for seq in seqs]
    lo, hi = window
    rate = np.array([f.rate for f in fits])
    flag = [int(f.superpolynomial) for f in fits]
    k = len(ds)
    names = "shape,d,window_lo,window_hi,rate,superpoly_flag"
    lines = _table(cfg, names, [cfg["shape"]] * k, ds, [lo] * k, [hi] * k, rate, flag)
    _emit(cfg.get("out"), lines)
    return 0


def cmd_spline_bench(cfg):
    shape = parse_shape(cfg["shape"])
    ds = _int_list(cfg["d"])
    # every size and the seed are checked before any work
    sizes = [_at_least("sizes", n, 0) for n in _int_list(cfg.get("sizes", "1,2,5,10,20"))]
    seed = _at_least("seed", int(cfg.get("seed", 0)), 0)
    m = cfg.get("m")
    rng = np.random.default_rng(seed)
    wce, e_all = [], []
    for d in ds:
        e_all.extend(_error_values(shape, d, max(sizes))[sizes])
        rule_m = _spline_rule_size(d) if m is None else int(m)
        for n in sizes:
            design = rng.standard_normal((n, d))
            wce.append(spline_worst_case_error(shape, d, design, rule_m))
    d_col, n_col = [d for d in ds for _ in sizes], sizes * len(ds)
    cfg = {**cfg, "seed": seed}
    names = "d,n,e_spline,e_all"
    lines = _table(cfg, names, d_col, n_col, np.array(wce), np.array(e_all))
    _emit(cfg.get("out"), lines)
    return 0


def cmd_verify(cfg):
    # only this command needs the suite
    from .verify import render_report, run_full

    results = run_full()
    # render_report ends every line with a newline, as _emit does
    lines = render_report(results).split("\n")[:-1]
    _emit(None, lines)
    if cfg.get("out"):
        _emit(cfg["out"], lines)
    return 0 if all(r.passed for r in results) else 3


# every command once, in help order: (handler, required flags, optional flags)
_COMMANDS = {
    "spectrum": (cmd_spectrum, ["gamma"], ["m", "k"]),
    "eigs": (cmd_eigs, ["shape", "d", "n"], []),
    "decay": (cmd_decay, ["shape", "d", "N"], []),
    "complexity": (cmd_complexity, ["shape", "d", "eps"], ["criterion"]),
    "rates": (cmd_rates, ["shape", "d", "N"], ["window"]),
    "spline-bench": (cmd_spline_bench, ["shape", "d"], ["sizes", "seed", "m"]),
    "verify": (cmd_verify, [], []),
}


@functools.cache
def _build_parser():
    # built on first use and shared by every later main() in the process;
    # parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="grkhs",
        description="Worst-case Gaussian-kernel approximation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output file (default stdout)")
        for key in required + optional:
            p.add_argument(f"--{key}")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        given = {k: v for k, v in vars(args).items() if v is not None}
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                entries = json.load(fh)
            if not isinstance(entries, dict):
                raise ValueError("config file must hold a JSON object")
            # each entry as the flag --key value after the subcommand (the
            # top-level parser has no options); a given flag overrides it
            flags = [t for k, v in entries.items() if v is not None for t in (f"--{k}", str(v))]
            from_file = vars(parser.parse_args([args.command] + flags))
            if from_file["config"] is not None:
                raise ValueError("a config file cannot name another config file")
            given = {**{k: v for k, v in from_file.items() if v is not None}, **given}
        cfg = {k: v for k, v in given.items() if k not in ("command", "config")}
        missing = [k for k in _COMMANDS[args.command][1] if k not in cfg]
        if missing:
            raise ValueError(f"missing required options: {', '.join(missing)}")
        return _COMMANDS[args.command][0](cfg)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; 2 is reserved for
        # resource limits here, so remap (help/0 passes through)
        return 1 if exc.code else 0
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
