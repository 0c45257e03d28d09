"""Tests of the benchmark itself: checker, tracer and workload shape.

Run with ``python -m pytest benchmarks -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import grkhs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    layers = [(name, unit) for name, unit, _, _ in tracing.LAYER_METRICS] + [("trace_overhead", "ratio")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(W.WORKLOADS)


class TestChecker:
    def test_identical_summary_passes(self):
        ref = {"n": [1355, 5484], "wce": 0.25, "indices": ["1;2", "2;1"]}
        assert W.compare(ref, dict(ref)) == []

    def test_off_by_one_count_is_flagged(self):
        assert W.compare({"n": [1355, 5484]}, {"n": [1355, 5485]})

    def test_perturbed_float_is_flagged(self):
        ref = {"wce": 0.25}
        assert W.compare(ref, {"wce": 0.25 * (1.0 + 1e-12)}) == []
        assert W.compare(ref, {"wce": 0.25 * (1.0 + 1e-6)})

    def test_changed_multi_index_is_flagged(self):
        assert W.compare({"indices": ["1;2", "2;1"]}, {"indices": ["2;1", "1;2"]})

    def test_normwise_key_uses_array_scale(self):
        ref = {"pred": [1.0, 1e-12]}
        assert W.compare(ref, {"pred": [1.0, 2e-12]}) == []
        assert W.compare(ref, {"pred": [1.0 + 1e-3, 1e-12]})

    def test_enumeration_recount_flags_off_by_one(self):
        shape = grkhs.ShapeSequence.power_law(1.0, 0.5)
        n = grkhs.info_complexity(shape, 4, 0.05, "normalized")
        assert W._enumeration_recount(shape, 4, 0.05, "normalized", n) == []
        assert W._enumeration_recount(shape, 4, 0.05, "normalized", n + 1)
        assert W._enumeration_recount(shape, 4, 0.05, "normalized", n - 1)

    def test_wce_outside_bracket_is_flagged(self):
        item = W.batch_spline_wce(np.random.default_rng(0), None)[0]
        wce = W._run_wce(*item.args)
        lower = W.lower_bounds()
        assert W._check_wce(item, wce, lower, True)[1] == []
        assert W._check_wce(item, 2.0 * wce + 1.0, lower, True)[1]
        assert W._check_wce(item, 0.0, lower, True)[1]


class TestSelfTime:
    def test_overlapping_and_clipped_children(self):
        parent = tracing.Span(0, "p", None, 0, start=0.0, end=10.0)
        kids = [
            tracing.Span(1, "a", 0, 0, start=1.0, end=3.0),
            tracing.Span(2, "b", 0, 0, start=2.0, end=4.0),
            tracing.Span(3, "c", 0, 0, start=8.0, end=12.0),
        ]
        # covered: [1, 4] and [8, 10]
        assert tracing.self_time(parent, kids) == pytest.approx(5.0)
        assert tracing.self_time(parent, []) == pytest.approx(10.0)

    def test_traced_spline_self_time(self):
        tracer = tracing.Tracer()
        shape = grkhs.ShapeSequence.isotropic(1.0)
        with tracer.installed():
            grkhs.spline_worst_case_error(shape, 1, np.array([[0.1], [0.7]]), 80)
        (top,) = [s for s in tracer.spans if s.name == "algorithms.spline_wce"]
        kids = [s for s in tracer.spans if s.parent == top.id]
        assert {k.name for k in kids} >= {"quadrature.tensor_rule", "kernel.gram_matrix", "algorithms.lanczos"}
        metrics = tracing.layer_metrics(tracer.spans)
        expected = top.duration - sum(k.duration for k in kids)
        assert metrics["algorithms.spline_wce.self_s"] == pytest.approx(expected, abs=1e-12)
        assert metrics["algorithms.grid_kernel_bytes"] == 8 * 80**2
        assert metrics["kernel.gram_matrix.entries"] == 4

    def test_install_restores_bindings(self):
        before = grkhs.algorithms.gram_matrix
        with tracing.Tracer().installed():
            assert grkhs.algorithms.gram_matrix is not before
        assert grkhs.algorithms.gram_matrix is before

    def test_counts_repeat_exactly(self):
        def counts():
            tracer = tracing.Tracer()
            with tracer.installed():
                grkhs.cli.main(["eigs", "--shape", "iso:1.0", "--d", "3", "--n", "50", "--out", "/dev/null"])
                grkhs.error_sequence_all(grkhs.ShapeSequence.power_law(1.0, 2.0), 4, 200)
            m = tracing.layer_metrics(tracer.spans)
            counted = {name for name, unit, _, _ in tracing.LAYER_METRICS if unit != "s"}
            return {k: v for k, v in m.items() if k in counted}

        first = counts()
        assert first["spectrum.stream.eigs"] == 50 + 201
        assert first["spectrum.top_n.calls"] == 1
        assert first == counts()

    def test_missing_name_is_reported_not_raised(self):
        targets = tracing.TARGETS + [("spectrum.gone", "grkhs.spectrum", "no_such_function", None)]
        metrics = [("spectrum.gone.s", "s", "spectrum.gone", "s")]
        tracer = tracing.Tracer(targets)
        with tracer.installed():
            grkhs.gauss_hermite(5)
        assert tracer.missing == ["spectrum.gone"]
        assert tracing.layer_metrics(tracer.spans, tracer.missing, metrics) == {"spectrum.gone.s": None}


class TestWorkloads:
    @pytest.mark.parametrize("workload", W.WORKLOADS)
    def test_ops_are_homogeneous_batches(self, workload, tmp_path):
        sigs = set()
        for seed, pass_index in ((0, 0), (0, 1), (7, 0)):
            for items in W.make_pass(workload, seed, pass_index, str(tmp_path)):
                sigs.add(tuple(item.sig for item in items))
        assert len(sigs) == 1

    @pytest.mark.parametrize("workload", W.WORKLOADS)
    def test_inputs_follow_the_seed(self, workload, tmp_path):
        def draw(seed):
            items = W.make_pass(workload, seed, 0, str(tmp_path))[0]
            return [repr(item.args) for item in items if not item.fixed]

        assert draw(3) == draw(3)
        assert draw(3) != draw(4)
