"""Command-line driver emitting deterministic CSV artifacts.

Subcommands: ``spectrum``, ``eigs``, ``decay``, ``complexity``, ``rates``,
``spline-bench`` and ``verify``.  Options may come from flags or from a
JSON document passed with ``--config``; flags override file values.  Every
CSV starts with comment lines echoing the version, the effective
configuration and the seed, so identical configurations reproduce
byte-identical files.

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
from .algorithms import spline_worst_case_error
from .complexity import (
    error_sequence_all,
    estimate_rate,
    info_complexity_row,
)
from .errors import ResourceLimitError
from .kernel import ShapeSequence
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
    return [int(v) for v in str(text).split(",")]


def _float_list(text):
    return [float(v) for v in str(text).split(",")]


def _num(x) -> str:
    """Shortest round-trip decimal form of a float, for stable CSV cells."""
    return repr(float(x))


def _header(config: dict) -> list:
    # the output destination is not part of the experiment, so identical
    # configurations written to different paths stay byte-identical
    echo = json.dumps(
        {k: v for k, v in config.items() if k != "out"}, sort_keys=True
    )
    lines = [f"# grkhs {__version__}", f"# config: {echo}"]
    if "seed" in config:
        lines.append(f"# seed: {config['seed']}")
    return lines


def _emit(out_path, lines):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_spectrum(cfg):
    gamma, m, k = float(cfg["gamma"]), int(cfg.get("m", 200)), int(cfg.get("k", 10))
    spec = univariate_spectrum(gamma)
    closed = spec.eigenvalue(np.arange(1, k + 1))
    approx = nystrom_eigs(gamma, m, k)
    lines = _header(cfg) + ["j,lambda_closed,lambda_nystrom,rel_err"]
    for j in range(k):
        rel = abs(approx[j] - closed[j]) / closed[j]
        lines.append(f"{j + 1},{_num(closed[j])},{_num(approx[j])},{_num(rel)}")
    _emit(cfg.get("out"), lines)
    return 0


def cmd_eigs(cfg):
    shape = parse_shape(cfg["shape"])
    d, n = int(cfg["d"]), int(cfg["n"])
    top = top_n_tensor_eigenvalues(shape, d, n)
    lines = _header(cfg) + ["rank,value,index"]
    for rank, (value, idx) in enumerate(top, start=1):
        dense = ";".join(str(v) for v in idx.dense())
        lines.append(f"{rank},{_num(value)},{dense}")
    _emit(cfg.get("out"), lines)
    return 0


def cmd_decay(cfg):
    shape = parse_shape(cfg["shape"])
    ds = _int_list(cfg["d"])
    N = int(cfg["N"])
    out = cfg.get("out")
    if out is None and len(ds) > 1:
        raise ValueError("multiple dimensions need --out (one file per d)")
    for d in ds:
        seq = error_sequence_all(shape, d, N)
        init = seq.values[0]
        lines = _header({**cfg, "d": d}) + ["n,e_all,e_all_over_init"]
        for n, e in enumerate(seq.values):
            lines.append(f"{n},{_num(e)},{_num(e / init)}")
        target = out if len(ds) == 1 else f"{out}_d{d}.csv"
        _emit(target, lines)
    return 0


def cmd_complexity(cfg):
    shape = parse_shape(cfg["shape"])
    ds = _int_list(cfg["d"])
    eps_list = _float_list(cfg["eps"])
    criterion = {"abs": "absolute", "norm": "normalized"}.get(
        cfg.get("criterion", "abs"), cfg.get("criterion", "abs")
    )
    lines = _header(cfg) + ["d,eps,n,criterion"]
    for d in ds:
        row = info_complexity_row(shape, d, eps_list, criterion)
        for eps, n in zip(eps_list, row):
            # the first trip in (d, eps) order stops the command
            if isinstance(n, ResourceLimitError):
                raise n
            lines.append(f"{d},{_num(eps)},{n},{criterion}")
    _emit(cfg.get("out"), lines)
    return 0


def cmd_rates(cfg):
    shape_token = cfg["shape"]
    shape = parse_shape(shape_token)
    ds = _int_list(cfg["d"])
    N = int(cfg["N"])
    lo, hi = _int_list(cfg.get("window", f"{max(1, N // 100)},{N}"))
    lines = _header(cfg) + ["shape,d,window_lo,window_hi,rate,superpoly_flag"]
    for d in ds:
        fit = estimate_rate(error_sequence_all(shape, d, N), (lo, hi))
        lines.append(
            f"{shape_token},{d},{lo},{hi},{_num(fit.rate)},{int(fit.superpolynomial)}"
        )
    _emit(cfg.get("out"), lines)
    return 0


def cmd_spline_bench(cfg):
    shape = parse_shape(cfg["shape"])
    ds = _int_list(cfg["d"])
    sizes = _int_list(cfg.get("sizes", "1,2,5,10,20"))
    seed = int(cfg.get("seed", 0))
    m = int(cfg.get("m", 0))
    rng = np.random.default_rng(seed)
    lines = _header({**cfg, "seed": seed}) + ["d,n,e_spline,e_all"]
    for d in ds:
        seq = error_sequence_all(shape, d, max(sizes))
        rule_m = m if m else (200 if d == 1 else 32)
        for n in sizes:
            design = rng.standard_normal((n, d))
            wce = spline_worst_case_error(shape, d, design, rule_m)
            lines.append(f"{d},{n},{_num(wce)},{_num(seq.values[n])}")
    _emit(cfg.get("out"), lines)
    return 0


def cmd_verify(cfg):
    # only this command needs the suite
    from .verify import render_report, run_full

    results = run_full(include_determinism=True)
    report = render_report(results)
    sys.stdout.write(report)
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    return 0 if all(r.passed for r in results) else 3


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "eigs": cmd_eigs,
    "decay": cmd_decay,
    "complexity": cmd_complexity,
    "rates": cmd_rates,
    "spline-bench": cmd_spline_bench,
    "verify": cmd_verify,
}

_REQUIRED = {
    "spectrum": ["gamma"],
    "eigs": ["shape", "d", "n"],
    "decay": ["shape", "d", "N"],
    "complexity": ["shape", "d", "eps"],
    "rates": ["shape", "d", "N"],
    "spline-bench": ["shape", "d"],
    "verify": [],
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

    def add(name, *flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output file (default stdout)")
        for flag in flags:
            p.add_argument(flag)
        return p

    add("spectrum", "--gamma", "--m", "--k")
    add("eigs", "--shape", "--d", "--n")
    add("decay", "--shape", "--d", "--N")
    add("complexity", "--shape", "--d", "--eps", "--criterion")
    add("rates", "--shape", "--d", "--N", "--window")
    add("spline-bench", "--shape", "--d", "--sizes", "--seed", "--m")
    add("verify")
    return parser


def _merged_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            cfg[key] = value
    missing = [k for k in _REQUIRED[args.command] if k not in cfg or cfg[k] is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join(missing)}")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; 2 is reserved for
        # resource limits here, so remap (help/0 passes through)
        return 1 if exc.code else 0
    try:
        cfg = _merged_config(args)
        return _COMMANDS[args.command](cfg)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
