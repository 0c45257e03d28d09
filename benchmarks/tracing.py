"""Span tracing of grkhs's layers, applied from outside the package.

The tracer looks up the public functions of ``kernel``, ``quadrature``,
``spectrum``, ``algorithms``, ``complexity`` and ``cli`` by name and, while
installed, replaces every binding of each one inside the ``grkhs`` package
(including ``from .x import y`` copies) with a wrapper that records a span:
name, start, end, parent span and trace (one trace per benchmark op), plus
the work counts listed in ``TARGETS``.  A name the package no longer defines
is reported as missing instead of failing the run.  Nothing in ``grkhs``
itself is modified on disk, and uninstalling restores every binding.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "TARGETS",
    "LAYER_METRICS",
    "self_time",
    "layer_metrics",
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- work counters: (arguments by parameter name, result) -> {count: value}


def _entries(args, result):
    return {"entries": int(result.size)}


def _points(args, result):
    return {"points": int(result[0].shape[0])}


def _eigs(args, result):
    return {"eigs": len(result)}


def _evals(args, result):
    return {"evals": int(result.size)}


def _grid_kernel_bytes(args, result):
    # computed, not measured: the dense float64 (m^d)^2 grid kernel
    if args.get("method", "spectral") != "spectral":
        return {}
    return {"grid_kernel_bytes": 8 * (int(args["m"]) ** int(args["d"])) ** 2}


def _count(args, result):
    return {"count_sum": int(result)}


def _bytes_written(args, result):
    argv = list(args.get("argv") or ())
    if "--out" not in argv:
        return {"bytes_written": 0}
    path = argv[argv.index("--out") + 1]
    size = os.path.getsize(path) if os.path.isfile(path) else 0
    return {"bytes_written": size}


GENERATOR = "generator"

# (span name, module, attribute path, counter); the attribute path may name a
# method as "Class.method".  ``GENERATOR`` marks a generator function, whose
# span runs from its first item to its close and counts the items it yields.
TARGETS = [
    ("kernel.gaussian_weight", "grkhs.kernel", "gaussian_weight", None),
    ("kernel.kernel_eval", "grkhs.kernel", "kernel_eval", None),
    ("kernel.gram_matrix", "grkhs.kernel", "gram_matrix", _entries),
    ("kernel.initial_error", "grkhs.kernel", "initial_error", None),
    ("quadrature.gauss_hermite", "grkhs.quadrature", "gauss_hermite", None),
    ("quadrature.nystrom_eigs", "grkhs.quadrature", "nystrom_eigs", None),
    ("quadrature.integrate", "grkhs.quadrature", "integrate", None),
    ("quadrature.tensor_rule", "grkhs.quadrature", "tensor_rule", _points),
    ("spectrum.univariate_spectrum", "grkhs.spectrum", "univariate_spectrum", None),
    ("spectrum.eigenfunctions", "grkhs.spectrum", "UnivariateSpectrum.eigenfunctions", _evals),
    ("spectrum.mercer_check", "grkhs.spectrum", "mercer_check", None),
    ("spectrum.top_n", "grkhs.spectrum", "top_n_tensor_eigenvalues", _eigs),
    ("spectrum.stream", "grkhs.spectrum", "stream_tensor_eigenvalues", GENERATOR),
    ("spectrum.tensor_log_eigenvalue", "grkhs.spectrum", "tensor_log_eigenvalue", None),
    ("algorithms.tensor_eigenfunctions", "grkhs.algorithms", "tensor_eigenfunctions", None),
    ("algorithms.eigen_projection", "grkhs.algorithms", "eigen_projection", None),
    ("algorithms.minimal_error_all", "grkhs.algorithms", "minimal_error_all", None),
    ("algorithms.spline_fit", "grkhs.algorithms", "spline_fit", None),
    ("algorithms.spline_eval", "grkhs.algorithms", "SplineModel.__call__", None),
    ("algorithms.power_function", "grkhs.algorithms", "power_function", None),
    ("algorithms.spline_wce", "grkhs.algorithms", "spline_worst_case_error", _grid_kernel_bytes),
    # the Lanczos solve spline_worst_case_error runs for grids above 64 nodes
    ("algorithms.lanczos", "scipy.sparse.linalg", "eigsh", None),
    ("complexity.decay_rate_r", "grkhs.complexity", "decay_rate_r", None),
    ("complexity.error_sequence", "grkhs.complexity", "error_sequence_all", None),
    ("complexity.info_complexity", "grkhs.complexity", "info_complexity", _count),
    ("complexity.quasipoly_exponent", "grkhs.complexity", "quasipoly_exponent", None),
    ("complexity.estimate_rate", "grkhs.complexity", "estimate_rate", None),
    ("complexity.tractability_probe", "grkhs.complexity", "tractability_probe", None),
    ("cli.main", "grkhs.cli", "main", _bytes_written),
    ("cli.parse_shape", "grkhs.cli", "parse_shape", None),
]

# (metric, unit, span name, quantity).  Quantities: "calls" counts spans,
# "s" sums the durations of spans not nested in a span of the same name,
# "self_s" sums span duration minus the time covered by child spans,
# "guard_trips" counts spans ended by ResourceLimitError; any other quantity
# sums that work count over the spans.
LAYER_METRICS = [
    ("kernel.gram_matrix.calls", "count", "kernel.gram_matrix", "calls"),
    ("kernel.gram_matrix.s", "s", "kernel.gram_matrix", "s"),
    ("kernel.gram_matrix.entries", "count", "kernel.gram_matrix", "entries"),
    ("quadrature.gauss_hermite.calls", "count", "quadrature.gauss_hermite", "calls"),
    ("quadrature.gauss_hermite.s", "s", "quadrature.gauss_hermite", "s"),
    ("quadrature.tensor_rule.calls", "count", "quadrature.tensor_rule", "calls"),
    ("quadrature.tensor_rule.s", "s", "quadrature.tensor_rule", "s"),
    ("quadrature.tensor_rule.points", "count", "quadrature.tensor_rule", "points"),
    ("quadrature.nystrom_eigs.calls", "count", "quadrature.nystrom_eigs", "calls"),
    ("quadrature.nystrom_eigs.s", "s", "quadrature.nystrom_eigs", "s"),
    ("spectrum.top_n.calls", "count", "spectrum.top_n", "calls"),
    ("spectrum.top_n.s", "s", "spectrum.top_n", "s"),
    ("spectrum.top_n.eigs", "count", "spectrum.top_n", "eigs"),
    ("spectrum.stream.s", "s", "spectrum.stream", "s"),
    ("spectrum.stream.eigs", "count", "spectrum.stream", "eigs"),
    ("spectrum.eigenfunctions.s", "s", "spectrum.eigenfunctions", "s"),
    ("spectrum.eigenfunctions.evals", "count", "spectrum.eigenfunctions", "evals"),
    ("algorithms.spline_wce.calls", "count", "algorithms.spline_wce", "calls"),
    ("algorithms.spline_wce.s", "s", "algorithms.spline_wce", "s"),
    ("algorithms.spline_wce.self_s", "s", "algorithms.spline_wce", "self_s"),
    ("algorithms.grid_kernel_bytes", "B.computed", "algorithms.spline_wce", "grid_kernel_bytes"),
    ("algorithms.lanczos.calls", "count", "algorithms.lanczos", "calls"),
    ("algorithms.lanczos.s", "s", "algorithms.lanczos", "s"),
    ("algorithms.spline_fit.s", "s", "algorithms.spline_fit", "s"),
    ("algorithms.spline_eval.s", "s", "algorithms.spline_eval", "s"),
    ("algorithms.power_function.s", "s", "algorithms.power_function", "s"),
    ("algorithms.eigen_projection.s", "s", "algorithms.eigen_projection", "s"),
    ("complexity.info_complexity.calls", "count", "complexity.info_complexity", "calls"),
    ("complexity.info_complexity.s", "s", "complexity.info_complexity", "s"),
    ("complexity.info_complexity.count_sum", "count", "complexity.info_complexity", "count_sum"),
    ("complexity.guard_trips", "count", "complexity.info_complexity", "guard_trips"),
    ("complexity.tractability_probe.s", "s", "complexity.tractability_probe", "s"),
    ("complexity.error_sequence.s", "s", "complexity.error_sequence", "s"),
    ("cli.main.s", "s", "cli.main", "s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("cli.bytes_written", "B", "cli.main", "bytes_written"),
]


def _resolve(module_name, path):
    """(owner, attribute, original) for a target, or None if it is absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Records spans for the targets while installed; spans stay in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.trace_id = 0
        self._stack: list[Span] = []
        self._clock = time.perf_counter

    def _open(self, name, parent):
        span = Span(len(self.spans), name, parent, self.trace_id, self._clock())
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        """A span around a block of benchmark code, e.g. one op."""
        parent = self._stack[-1].id if self._stack else None
        span = self._open(name, parent)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self._clock()

    def _wrap(self, name, original, counter):
        tracer = self
        sig = inspect.signature(original) if callable(counter) else None

        if counter == GENERATOR:

            def wrapper(*args, **kwargs):
                parent = tracer._stack[-1].id if tracer._stack else None
                inner = original(*args, **kwargs)

                def traced():
                    # not pushed on the stack: the generator is suspended
                    # while its consumer runs
                    span = tracer._open(name, parent)
                    items = 0
                    try:
                        for item in inner:
                            items += 1
                            yield item
                    except BaseException as exc:
                        span.error = type(exc).__name__
                        raise
                    finally:
                        inner.close()
                        span.end = tracer._clock()
                        span.counts["eigs"] = items

                return traced()

            return wrapper

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = tracer._open(name, parent)
            tracer._stack.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._stack.pop()
                span.end = tracer._clock()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counter(bound.arguments, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every binding of each target in grkhs, restore on exit."""
        restore = []
        self.missing = []
        try:
            for name, module_name, path, counter in self.targets:
                found = _resolve(module_name, path)
                if found is None:
                    self.missing.append(name)
                    continue
                owner, attr, original = found
                wrapper = self._wrap(name, original, counter)
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not (mod_name == "grkhs" or mod_name.startswith("grkhs.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that its child spans cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def layer_metrics(spans, missing=(), metrics=LAYER_METRICS) -> dict:
    """Per-layer values from a span list; ``None`` marks a missing layer."""
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def nested_in_same_name(s):
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                return True
            p = by_id[p].parent
        return False

    out = {}
    for metric, _unit, span_name, quantity in metrics:
        if span_name in missing:
            out[metric] = None
            continue
        named = [s for s in spans if s.name == span_name]
        if quantity == "calls":
            value = len(named)
        elif quantity == "s":
            value = sum(s.duration for s in named if not nested_in_same_name(s))
        elif quantity == "self_s":
            value = sum(self_time(s, children.get(s.id, ())) for s in named)
        elif quantity == "guard_trips":
            value = sum(1 for s in named if s.error == "ResourceLimitError")
        else:
            value = sum(s.counts.get(quantity, 0) for s in named)
        out[metric] = value
    return out
